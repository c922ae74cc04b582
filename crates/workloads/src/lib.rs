//! Task-parallel workload suite for the TaskStream/Delta reproduction.
//!
//! Workloads spanning the irregular, data-processing domain the
//! paper targets, each shipping a seeded generator, a plain-Rust
//! reference implementation, a Delta [`Program`], and a validation
//! function comparing the accelerator's final memory against the
//! reference. The canonical way to author a workload is the
//! declarative [`ts_graph::GraphSpec`] frontend — stages, typed stream
//! edges and spawn rules compiled to a [`Program`] — as [`merge_sort`]
//! and [`hash_join`] (re-expressed, byte-identical to their
//! hand-assembled originals) and the second-generation streaming
//! workloads ([`query_plan`], [`reduce_tree`], [`sparse_chain`]) do.
//!
//! The core suite driven by the headline experiments:
//!
//! | Workload | Pattern | Stresses |
//! |----------|---------|----------|
//! | [`spmv`] | CSR rows as tasks, power-law lengths | load balance |
//! | [`gemm`] | dense tiled matmul | regular control (baseline parity) |
//! | [`hash_join`] | probe → aggregate chains | pipelining, gathers |
//! | [`merge_sort`] | task tree of streaming merges | pipelining |
//! | [`bfs`] | per-vertex frontier tasks | dynamic spawning, skew |
//! | [`sssp`] | label-correcting per-vertex relaxations | dynamic spawning, skew, scatter-min |
//! | [`dtree`] | random-forest inference | multicast, path variance |
//! | [`kmeans`] | assignment + centroid update | multicast |
//! | [`tri_count`] | per-edge set intersections | task overhead, skew |
//!
//! The streaming-graph suite driven by `fig_streams` (authored
//! natively on the declarative frontend, outside the core suite so the
//! headline goldens are untouched):
//!
//! | Workload | Pattern | Stresses |
//! |----------|---------|----------|
//! | [`query_plan`] | scan→filter→join→aggregate chains | deep pipelined chains, gathers |
//! | [`reduce_tree`] | irregular reduction tree, fanout 2–4 | data-dependent spawning |
//! | [`sparse_chain`] | sparse dots → dense scale chains | dynamic shapes, multicast |
//!
//! # Examples
//!
//! ```
//! use ts_delta::{Accelerator, DeltaConfig};
//! use ts_workloads::{Workload, spmv::Spmv};
//!
//! let wl = Spmv::tiny(7);
//! let mut program = wl.make_program();
//! let report = Accelerator::new(DeltaConfig::delta(2))
//!     .run(program.as_mut())
//!     .unwrap();
//! wl.validate(&report).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod dtree;
pub mod gemm;
pub mod hash_join;
pub mod kernels;
pub mod kmeans;
pub mod merge_sort;
pub mod query_plan;
pub mod reduce_tree;
pub mod request_server;
pub mod sparse_chain;
pub mod spmv;
pub mod sssp;
pub mod tri_count;

use taskstream_model::Program;
use ts_delta::RunReport;

/// Metadata describing a workload instance (the rows of the paper's
/// workload-characteristics table).
#[derive(Debug, Clone)]
pub struct WorkloadInfo {
    /// Workload name.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Parallelism pattern.
    pub pattern: &'static str,
    /// TaskStream mechanisms the workload stresses.
    pub stresses: &'static str,
    /// Number of tasks (approximate for dynamically spawning programs).
    pub tasks: u64,
    /// Total data elements processed.
    pub elements: u64,
    /// Mean task grain in elements.
    pub grain: u64,
}

/// A benchmark workload: generator + reference + program + validation.
///
/// `Send + Sync` so a sweep grid can share one instance across the
/// worker threads of a parallel experiment run (each run still builds
/// its own [`Program`] via [`Workload::make_program`]).
pub trait Workload: Send + Sync {
    /// Workload name.
    fn name(&self) -> &'static str;

    /// Builds a fresh [`Program`] for one accelerator run.
    fn make_program(&self) -> Box<dyn Program>;

    /// The program as a *static-parallel* design must express it.
    ///
    /// Defaults to [`Workload::make_program`]. Workloads whose natural
    /// expression relies on dynamic task creation (BFS, SSSP) override
    /// this with the full-sweep phase formulation a static design is
    /// limited to — dynamic tasks are exactly what such hardware lacks.
    fn make_baseline_program(&self) -> Box<dyn Program> {
        self.make_program()
    }

    /// Checks the accelerator's results against the reference.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    fn validate(&self, report: &RunReport) -> Result<(), String>;

    /// Table metadata.
    fn info(&self) -> WorkloadInfo;
}

/// Scale presets so tests, examples and benches share instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast instances for unit/integration tests.
    Tiny,
    /// The default evaluation scale used by the repro harness.
    Small,
}

/// Builds [`CATALOGUE`] from `name => type` pairs; each type has
/// `tiny(seed)` and `small(seed)` constructors.
macro_rules! catalogue {
    ($($name:literal => $ty:ty),* $(,)?) => {
        /// Every stock workload by name with its constructor: the one
        /// table [`workload`], [`suite`] and [`streams_suite`] build from.
        const CATALOGUE: &[(&str, fn(Scale, u64) -> Box<dyn Workload>)] = &[$((
            $name,
            |scale, seed| match scale {
                Scale::Tiny => Box::new(<$ty>::tiny(seed)),
                Scale::Small => Box::new(<$ty>::small(seed)),
            },
        )),*];
    };
}

catalogue! {
    "spmv" => spmv::Spmv,
    "gemm" => gemm::Gemm,
    "hash_join" => hash_join::HashJoin,
    "merge_sort" => merge_sort::MergeSort,
    "bfs" => bfs::Bfs,
    "sssp" => sssp::Sssp,
    "dtree" => dtree::DTree,
    "kmeans" => kmeans::KMeans,
    "tri_count" => tri_count::TriCount,
    "query_plan" => query_plan::QueryPlan,
    "reduce_tree" => reduce_tree::ReduceTree,
    "sparse_chain" => sparse_chain::SparseChain,
}

/// The core suite's workload names, in canonical order.
pub const SUITE: &[&str] = &[
    "spmv",
    "gemm",
    "hash_join",
    "merge_sort",
    "bfs",
    "sssp",
    "dtree",
    "kmeans",
    "tri_count",
];

/// The streaming-graph suite's workload names, in canonical order: the
/// second-generation workloads authored natively on the declarative
/// [`ts_graph::GraphSpec`] frontend. Kept separate from [`SUITE`] so
/// the headline experiments (and their goldens) are untouched.
pub const STREAMS_SUITE: &[&str] = &["query_plan", "reduce_tree", "sparse_chain"];

/// The stock workload `name` at a given scale.
///
/// # Panics
///
/// Panics if `name` is not in [`SUITE`] or [`STREAMS_SUITE`].
pub fn workload(name: &str, scale: Scale, seed: u64) -> Box<dyn Workload> {
    let (_, make) = CATALOGUE
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown workload '{name}'"));
    make(scale, seed)
}

/// The full suite at a given scale, in canonical order.
pub fn suite(scale: Scale, seed: u64) -> Vec<Box<dyn Workload>> {
    SUITE.iter().map(|n| workload(n, scale, seed)).collect()
}

/// The streaming-graph suite ([`STREAMS_SUITE`]) at a given scale.
pub fn streams_suite(scale: Scale, seed: u64) -> Vec<Box<dyn Workload>> {
    STREAMS_SUITE
        .iter()
        .map(|n| workload(n, scale, seed))
        .collect()
}

/// Renders everything a [`Program`] tells the accelerator — name, task
/// types with each DFG kernel's whole graph, memory image, initial
/// tasks and pipe declarations — as one comparable string. The
/// differential tests use it to prove a GraphSpec-compiled program is
/// byte-identical to the hand-assembled original it re-expresses.
#[cfg(test)]
pub(crate) fn program_signature(p: &mut dyn Program) -> String {
    use taskstream_model::TaskKernel;
    let mut s = taskstream_model::Spawner::new(0);
    p.initial(&mut s);
    let (tasks, pipes) = s.take();
    let types = p.task_types();
    // `TaskKernel`'s `Debug` names a DFG; its DOT form spells out the graph.
    let kernels: String = types
        .iter()
        .filter_map(|t| match &t.kernel {
            TaskKernel::Dfg(dfg) => Some(dfg.to_dot()),
            TaskKernel::Native(_) => None,
        })
        .collect();
    format!(
        "name: {}\ntypes: {:#?}\nkernels:\n{kernels}memory: {:#?}\ntasks: {:#?}\npipes: {:#?}",
        p.name(),
        types,
        p.memory_image(),
        tasks,
        pipes
    )
}

/// Compares a DRAM range against expected values, reporting the first
/// mismatch with context.
pub(crate) fn check_range(
    report: &RunReport,
    base: u64,
    expect: &[i64],
    what: &str,
) -> Result<(), String> {
    let got = report.dram_range(base, expect.len());
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        if g != e {
            return Err(format!(
                "{what}[{i}] mismatch: accelerator {g}, reference {e}"
            ));
        }
    }
    Ok(())
}
