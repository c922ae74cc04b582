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
//! token bucket plus a fixed service latency. The timed path moves
//! counts, not values: a read job's words leave the DRAM as
//! [`DramOut`] runs (consecutive words of one job due on the same
//! cycle), because the simulated machine resolves every value when it
//! dispatches a task.
//!
//! # Examples
//!
//! ```
//! use ts_mem::{Dram, DramConfig, JobKind};
//!
//! let mut dram = Dram::new(DramConfig { words: 1024, ..DramConfig::default() });
//! let id = dram.submit(JobKind::Read { addrs: vec![5, 6, 7], gather: false }, 0).unwrap();
//! let mut words = 0;
//! let mut done = false;
//! for now in 0..100u64 {
//!     for run in dram.tick(now) {
//!         assert_eq!((run.job, run.first), (id, words));
//!         words += run.words;
//!         done |= run.last;
//!     }
//!     if done { break; }
//! }
//! assert_eq!(words, 3);
//! assert_eq!(dram.counters().read_words, 3);
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
