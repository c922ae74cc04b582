//! Simulation kernel for the TaskStream/Delta reproduction.
//!
//! This crate provides the small, dependency-light substrate every other
//! crate in the workspace builds on:
//!
//! * [`Cycle`] — a newtype for simulated clock cycles with saturating
//!   arithmetic, so timing code cannot accidentally mix cycles with other
//!   integers.
//! * [`Fifo`] — a bounded queue used for hardware buffers (ports, router
//!   input queues, task queues).
//! * [`TokenBucket`] — fractional-rate throughput accounting used to model
//!   bandwidth-limited resources (DRAM channels, fabric initiation
//!   intervals).
//! * [`Activity`] — the activity contract components report to
//!   event-driven schedulers (tick me now / wake me at cycle t / idle).
//! * [`counters`] — the [`counter_table!`] macro every component
//!   declares its typed counter block with, and that the benchmark
//!   harness and result cache iterate generically.
//! * [`stats`] — summary statistics over results ([`stats::geomean`]).
//! * [`hash`] — fast non-cryptographic hashing for simulator-internal
//!   maps keyed by trusted ids.
//! * [`rng`] — deterministic seeded random-number helpers so every
//!   experiment is reproducible from a single seed.
//!
//! # Examples
//!
//! ```
//! use ts_sim::{Cycle, Fifo, TokenBucket};
//!
//! let mut clock = Cycle::ZERO;
//! let mut port: Fifo<u64> = Fifo::new(4);
//! let mut rate = TokenBucket::per_cycle(0.5); // one item every two cycles
//!
//! for _ in 0..8 {
//!     rate.refill();
//!     while rate.try_take() && port.push(clock.as_u64()).is_ok() {}
//!     clock = clock.next();
//! }
//! assert_eq!(port.len(), 4); // filled to capacity at half rate
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
pub mod counters;
mod cycle;
mod fifo;
pub mod hash;
pub mod rng;
pub mod stats;
mod token;

pub use activity::Activity;
pub use counters::Counter;
pub use cycle::Cycle;
pub use fifo::{Fifo, PushError};
pub use hash::{FxHashMap, FxHashSet};
pub use token::TokenBucket;
