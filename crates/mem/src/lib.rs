//! Memory-system models for the TaskStream/Delta reproduction.
//!
//! Two memory spaces exist in the modelled machine:
//!
//! * **DRAM** ([`Dram`]) — one global, word-addressed store reached over
//!   the NoC through a memory-controller node. Bandwidth is shared by all
//!   tiles and is the resource that inter-task *read sharing* (multicast)
//!   conserves. Random (gather) accesses pay a configurable cost factor
//!   over streaming accesses, as on real devices.
//! * **Scratchpads** ([`Spad`]) — per-tile, software-managed, one-cycle
//!   SRAM with private bandwidth.
//!
//! Both are *functional*: they store real `i64` words, so the simulator
//! computes real results which the workloads validate against reference
//! implementations. Timing is modelled by [`Dram::tick`]'s bandwidth
//! token bucket plus a fixed service latency.
//!
//! # Examples
//!
//! ```
//! use ts_mem::{Dram, DramConfig, JobKind};
//!
//! let mut dram = Dram::new(DramConfig { words: 1024, ..DramConfig::default() });
//! dram.storage_mut().write(5, 42);
//! let id = dram.submit(JobKind::Read { addrs: vec![5], gather: false }, 0).unwrap();
//! let mut got = None;
//! for now in 0..100u64 {
//!     for out in dram.tick(now) {
//!         assert_eq!(out.job, id);
//!         got = Some(out.value);
//!     }
//!     if got.is_some() { break; }
//! }
//! assert_eq!(got, Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dram;
mod spad;
mod storage;

pub use dram::{Dram, DramConfig, DramCounters, DramOut, JobId, JobKind};
pub use spad::Spad;
pub use storage::{Storage, WriteMode};

/// Word address (one address names one 64-bit word).
pub type Addr = u64;

/// Stored word type.
pub type Value = i64;
