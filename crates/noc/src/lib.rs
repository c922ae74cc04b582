//! 2D-mesh network-on-chip with XY routing and tree multicast.
//!
//! The NoC carries every word that moves between tiles and the memory
//! controller in the Delta accelerator: DRAM read responses, DRAM write
//! words, and pipelined inter-task stream data. Its two properties that
//! matter to the paper's story are modelled faithfully:
//!
//! * **Bandwidth is finite** — each router forwards one (head-of-line)
//!   flit per cycle and each directed link carries one flit per cycle,
//!   so redundant reads and serialized task handoffs show up as real
//!   contention.
//! * **Multicast is a tree** — a flit carries a destination *set*; at
//!   each router it forks only where destinations' XY paths diverge, so
//!   delivering one word to `k` sharers costs far fewer flit-hops than
//!   `k` unicasts. This is the hardware mechanism behind TaskStream's
//!   *inter-task read sharing recovery*.
//!
//! # Examples
//!
//! ```
//! use ts_noc::Mesh;
//!
//! let mut mesh: Mesh<&'static str> = Mesh::new(3, 3, 8);
//! mesh.inject(0, &[8], "hello").unwrap();
//! for _ in 0..16 {
//!     mesh.tick();
//! }
//! assert_eq!(mesh.eject(8), Some("hello"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mesh;

pub use mesh::{InjectError, Mesh, NocCounters};

/// Node identifier: `y * width + x`.
pub type NodeId = usize;
