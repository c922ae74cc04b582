//! # TaskStream / Delta — a reproduction in Rust
//!
//! This facade crate re-exports the whole workspace implementing the
//! ASPLOS 2022 paper *"TaskStream: accelerating task-parallel workloads
//! by recovering program structure"* (Dadu & Nowatzki): a task execution
//! model for reconfigurable dataflow accelerators, the **Delta**
//! accelerator built on it, an equivalent static-parallel baseline, and
//! the workload suite plus harness that regenerates the paper's
//! evaluation.
//!
//! ## Crate map
//!
//! | Module | Source crate | Contents |
//! |--------|--------------|----------|
//! | [`sim`] | `ts-sim` | simulation kernel: cycles, FIFOs, counter blocks, seeded RNG |
//! | [`dfg`] | `ts-dfg` | dataflow-graph IR + functional interpreter |
//! | [`cgra`] | `ts-cgra` | CGRA fabric, place-and-route mapper, II timing |
//! | [`mem`] | `ts-mem` | banked DRAM + scratchpad models |
//! | [`noc`] | `ts-noc` | 2D-mesh NoC with XY routing and tree multicast |
//! | [`stream`] | `ts-stream` | stream descriptors, ports, stream engines |
//! | [`model`] | `taskstream-model` | **the TaskStream execution model** |
//! | [`graph`] | `ts-graph` | declarative task-graph frontend ([`GraphSpec`] → [`model::Program`](model::Program)) |
//! | [`delta`] | `ts-delta` | the Delta accelerator + static baseline + area model |
//! | [`workloads`] | `ts-workloads` | task-parallel workload suite |
//! | [`bench`] | `ts-bench` | evaluation harness: experiments, goldens, tracing |
//!
//! ## The curated surface
//!
//! Everything a typical consumer needs is re-exported at the crate
//! root, so most programs never name the sub-crates:
//!
//! * author: [`GraphSpec`] declares a workload as named [`Stage`]s,
//!   typed stream edges ([`Link`]) and spawn rules ([`SpawnRule`]);
//!   [`GraphSpec::compile`] lowers it to a runnable
//!   [`Program`](model::Program);
//! * configure: [`DeltaConfig`] presets ([`DeltaConfig::delta`],
//!   [`DeltaConfig::static_baseline`], [`DeltaConfig::ablation`]) and
//!   the fluent [`DeltaConfigBuilder`] ([`DeltaConfig::builder`]),
//!   with [`Features`] toggles and [`FaultsConfig`] fault injection;
//! * run: [`Accelerator::run`], yielding a [`RunReport`] (cycles,
//!   per-component counters, final DRAM, [`SimProfile`], [`FaultReport`]) or a
//!   [`RunError`];
//! * check: the [`oracle`] executes the same program untimed and
//!   [`oracle::check_equivalence`] proves the timed run computed the
//!   same thing;
//! * reproduce: [`experiments`] regenerates the paper's tables and
//!   figures (`experiments::run`, `experiments::ALL`), which is what
//!   the `repro` binary drives.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; the short version:
//!
//! ```
//! use taskstream::{Accelerator, DeltaConfig};
//! use taskstream::workloads::{spmv::Spmv, Workload};
//!
//! let wl = Spmv::tiny(7); // seeded test-sized instance
//! let mut program = wl.make_program();
//! let mut accel = Accelerator::new(DeltaConfig::delta(4));
//! let run = accel.run(program.as_mut()).unwrap();
//! wl.validate(&run).unwrap();
//! println!("finished in {} cycles", run.cycles);
//! ```
//!
//! And a fault-injected run through the builder:
//!
//! ```
//! use taskstream::{Accelerator, DeltaConfig, FaultsConfig};
//! use taskstream::workloads::{spmv::Spmv, Workload};
//!
//! let wl = Spmv::tiny(7);
//! let cfg = DeltaConfig::builder(4)
//!     .faults(FaultsConfig::chaos())
//!     .seed(7)
//!     .build();
//! let run = Accelerator::new(cfg).run(wl.make_program().as_mut()).unwrap();
//! wl.validate(&run).unwrap(); // faults perturb timing, never function
//! assert_eq!(run.faults.recovered(), run.faults.tasks_redispatched);
//! ```
//!
//! ## Declaring a pipeline
//!
//! New workloads are written declaratively: a [`GraphSpec`] names the
//! stages, edges and spawn rules, and compiles to the same
//! [`Program`](model::Program) the simulator, oracle and profilers
//! consume. A two-stage pipeline — a scanner streams a DRAM array
//! through an identity kernel into a pipe, and an aggregator folds the
//! pipe into one output word:
//!
//! ```
//! use taskstream::model::{MemoryImage, TaskKernel};
//! use taskstream::{Accelerator, DeltaConfig, GraphSpec, Link, SpawnRule, Stage, TaskSketch};
//! use taskstream::mem::WriteMode;
//! use taskstream::stream::StreamDesc;
//!
//! let pass = {
//!     let mut b = taskstream::dfg::DfgBuilder::new("pass");
//!     let x = b.input();
//!     b.output(x);
//!     b.finish().unwrap()
//! };
//! let sum = {
//!     let mut b = taskstream::dfg::DfgBuilder::new("sum");
//!     let x = b.input();
//!     let s = b.acc(x);
//!     b.output_on_last(s);
//!     b.finish().unwrap()
//! };
//!
//! let data: Vec<i64> = (1..=16).collect();
//! let mut g = GraphSpec::new("pipeline").memory(
//!     MemoryImage::new()
//!         .dram_segment(0, data.clone())
//!         .dram_segment(16, vec![0]),
//! );
//! let scan = g.stage(Stage::new(
//!     "scan",
//!     TaskKernel::dfg(pass),
//!     SpawnRule::PerElement { count: 1 },
//!     |_cx| {
//!         TaskSketch::new()
//!             .input_stream(StreamDesc::dram(0, 16))
//!             .output_downstream()
//!     },
//! ));
//! let agg = g.stage(Stage::new(
//!     "agg",
//!     TaskKernel::dfg(sum),
//!     SpawnRule::PerElement { count: 1 },
//!     |_cx| {
//!         TaskSketch::new()
//!             .input_upstream(0)
//!             .output_memory(StreamDesc::dram(16, 1), WriteMode::Overwrite)
//!     },
//! ));
//! g.edge(scan, agg, Link::Pipe { capacity: 16 });
//!
//! let mut program = g.compile().unwrap();
//! let report = Accelerator::new(DeltaConfig::delta(2)).run(&mut program).unwrap();
//! assert_eq!(report.dram(16), data.iter().sum::<i64>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use taskstream_model as model;
pub use ts_bench as bench;
pub use ts_cgra as cgra;
pub use ts_delta as delta;
pub use ts_dfg as dfg;
pub use ts_graph as graph;
pub use ts_mem as mem;
pub use ts_noc as noc;
pub use ts_sim as sim;
pub use ts_stream as stream;
pub use ts_workloads as workloads;

pub use ts_bench::experiments;
pub use ts_delta::{
    oracle, Accelerator, DeltaConfig, DeltaConfigBuilder, FaultReport, FaultsConfig, Features,
    RunError, RunReport, SimProfile,
};
pub use ts_graph::{
    compile, CompiledGraph, Emission, GraphError, GraphSpec, Link, SpawnRule, Stage, TaskSketch,
};
