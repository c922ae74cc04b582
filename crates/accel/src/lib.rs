//! # Delta — a TaskStream accelerator (and its static-parallel twin)
//!
//! This crate composes the substrates (`ts-cgra` fabric, `ts-mem` memory,
//! `ts-noc` mesh, `ts-stream` descriptors) with the TaskStream execution
//! model (`taskstream-model`) into a runnable accelerator:
//!
//! * a set of **tiles**, each with a CGRA fabric, a scratchpad, stream
//!   engines and a task queue;
//! * **memory-controller nodes** on the same mesh serving one shared
//!   DRAM;
//! * a **dispatcher** implementing TaskStream's contribution: work-aware
//!   placement, co-scheduled pipelined task chains, and multicast
//!   grouping of shared reads.
//!
//! The *equivalent static-parallel design* of the paper's comparison is
//! the same hardware with the TaskStream features disabled
//! ([`DeltaConfig::static_parallel`]): owner-computes placement, task
//! dependences serialized through DRAM, and unicast reads.
//!
//! Execution is cycle-driven and *functionally exact*: tasks compute
//! real values (via the DFG interpreter or native kernels) which land in
//! the modelled memories, so every workload validates its result against
//! a reference implementation.
//!
//! # Examples
//!
//! ```
//! use ts_delta::{Accelerator, DeltaConfig};
//! use taskstream_model::{MemoryImage, Program, Spawner, CompletedTask,
//!     TaskInstance, TaskKernel, TaskType, TaskTypeId};
//! use ts_dfg::DfgBuilder;
//! use ts_stream::StreamDesc;
//! use ts_mem::WriteMode;
//!
//! // double 8 numbers from DRAM back into DRAM
//! struct Doubler;
//! impl Program for Doubler {
//!     fn name(&self) -> &str { "doubler" }
//!     fn task_types(&self) -> Vec<TaskType> {
//!         let mut b = DfgBuilder::new("x2");
//!         let x = b.input();
//!         let two = b.constant(2);
//!         let y = b.mul(x, two);
//!         b.output(y);
//!         vec![TaskType::new("x2", TaskKernel::dfg(b.finish().unwrap()))]
//!     }
//!     fn memory_image(&self) -> MemoryImage {
//!         MemoryImage::new().dram_segment(0, (1..=8).collect::<Vec<i64>>())
//!     }
//!     fn initial(&mut self, s: &mut Spawner) {
//!         s.spawn(TaskInstance::new(TaskTypeId(0))
//!             .input_stream(StreamDesc::dram(0, 8))
//!             .output_memory(StreamDesc::dram(100, 8), WriteMode::Overwrite));
//!     }
//!     fn on_complete(&mut self, _: &CompletedTask, _: &mut Spawner) {}
//! }
//!
//! let mut accel = Accelerator::new(DeltaConfig::delta(2));
//! let report = accel.run(&mut Doubler).unwrap();
//! assert_eq!(report.dram(100), 2);
//! assert_eq!(report.dram(107), 16);
//! assert!(report.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accelerator;
pub mod area;
mod config;
mod dispatch;
pub mod energy;
mod exec;
pub mod faults;
mod functional;
mod memctrl;
mod msg;
pub mod oracle;
mod pipes;
mod report;
pub mod tenancy;
mod trace;
pub mod whatif;

pub use accelerator::{Accelerator, RunError};
pub use config::{DeltaConfig, DeltaConfigBuilder, Features};
pub use faults::{FaultReport, FaultsConfig};
pub use report::{
    stretch_bucket, DispatchCounters, RunCounters, RunReport, SimProfile, TenantCounters,
    TileCounters, STRETCH_BUCKETS, STRETCH_BUCKET_LABELS,
};
pub use tenancy::{DrainPolicy, PartitionPolicy, TenancyConfig, TenantSpec};
pub use ts_mem::DramCounters;
pub use ts_noc::NocCounters;
pub use ts_sim::Counter;
// TraceSink stays crate-internal: consumers read the recorded stream
// off `RunReport::trace`, they never hold the sink itself.
pub use trace::{TraceEvent, TraceRecord};
