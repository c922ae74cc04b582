//! Benchmark and figure/table regeneration harness.
//!
//! One function per table/figure of the evaluation (see DESIGN.md's
//! experiment index). Each experiment runs real simulations, validates
//! every result against the workload references, and returns printable
//! rows; `cargo bench` (the `repro` bench target) regenerates the whole
//! evaluation, and `cargo run -p ts-bench --release --bin repro --
//! <experiment>` regenerates one.
//!
//! | Id | Reproduces |
//! |----|------------|
//! | `tbl_config` | architecture-parameter table |
//! | `tbl_workloads` | workload characteristics |
//! | `fig_overall` | headline speedup, Delta vs static-parallel |
//! | `fig_ablation` | per-mechanism breakdown |
//! | `fig_tiles` | tile-count scaling |
//! | `fig_grain` | task-granularity sweep |
//! | `fig_imbalance` | per-tile load distribution |
//! | `fig_noc` | DRAM/NoC traffic with and without multicast |
//! | `fig_policy` | scheduling-policy comparison |
//! | `fig_queue` | task-queue depth sensitivity |
//! | `fig_reconfig` | reconfiguration-cost sensitivity |
//! | `fig_window` | dispatcher lookahead-window ablation |
//! | `fig_prefetch` | stream prefetch-depth ablation |
//! | `fig_batch` | multicast batching-window ablation |
//! | `fig_spawn` | task-creation latency sensitivity |
//! | `fig_steal` | extension: work stealing vs work-aware dispatch |
//! | `fig_lanes` | extension: vector-lane scaling |
//! | `fig_timeline` | tile-occupancy sparklines over the run |
//! | `fig_faults` | fault injection: Delta recovery vs wedging baseline |
//! | `fig_tenancy` | multi-tenant co-residency: per-tenant latency, slowdown, fairness |
//! | `fig_streams` | streaming-graph workloads, Delta vs static, pipes direct vs spilled |
//! | `tbl_energy` | per-workload energy, Delta vs static |
//! | `tbl_area` | area breakdown + TaskStream overhead |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod experiments;
pub mod golden;
pub mod profile;
mod table;
pub mod trace_report;
pub mod whatif_report;

pub use table::Table;

use rayon::prelude::*;
use taskstream_model::Program;
use ts_delta::{oracle, Accelerator, DeltaConfig, RunError, RunReport};
use ts_workloads::Workload;

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Runs one workload on one configuration and validates the result.
///
/// # Panics
///
/// Panics if the run errors, the result fails validation, or the
/// report violates a conservation invariant
/// ([`RunReport::check_conservation`]) — a harness that silently
/// benchmarks wrong answers would be worthless.
pub fn run_validated(wl: &dyn Workload, cfg: DeltaConfig, baseline_program: bool) -> RunReport {
    let tiles = cfg.tiles;
    let mut program: Box<dyn Program> = if baseline_program {
        wl.make_baseline_program()
    } else {
        wl.make_program()
    };
    let report = Accelerator::new(cfg)
        .run(program.as_mut())
        .unwrap_or_else(|e| panic!("{} failed: {e}", wl.name()));
    wl.validate(&report)
        .unwrap_or_else(|e| panic!("{} produced wrong results: {e}", wl.name()));
    report
        .check_conservation(tiles)
        .unwrap_or_else(|e| panic!("{}: {e}", wl.name()));
    profile::record(&report.profile);
    report
}

/// What a fault-injected run came to: completion (validated like any
/// other run) or a wedge — the machine stopped making progress before
/// finishing, which is the expected fate of the no-recovery baseline
/// once a tile it depends on fail-stops.
#[derive(Debug)]
pub enum FaultOutcome {
    /// The run finished; the report validated against the workload
    /// reference, the conservation invariants, and the untimed oracle.
    Completed(Box<RunReport>),
    /// The run hit its stall limit without completing.
    Wedged {
        /// Cycle at which the run gave up.
        cycles: u64,
    },
}

impl FaultOutcome {
    /// The completed report, if the run finished.
    pub fn report(&self) -> Option<&RunReport> {
        match self {
            FaultOutcome::Completed(r) => Some(r),
            FaultOutcome::Wedged { .. } => None,
        }
    }
}

/// Runs one workload on one fault-injected configuration.
///
/// Like [`run_validated`], but a stalled machine is a *result*
/// ([`FaultOutcome::Wedged`]) instead of a panic — `fig_faults` exists
/// to show the no-recovery baseline wedging. Completed runs are held to
/// a stricter bar than fault-free ones: on top of reference validation
/// and the conservation invariants, the final state must match the
/// untimed oracle, proving the injected faults perturbed timing only,
/// never function.
///
/// # Panics
///
/// Panics on any error other than a stall/cycle-limit timeout, or if a
/// completed run fails any of the three checks.
pub fn run_faulted(wl: &dyn Workload, cfg: DeltaConfig, baseline_program: bool) -> FaultOutcome {
    let tiles = cfg.tiles;
    let make = || -> Box<dyn Program> {
        if baseline_program {
            wl.make_baseline_program()
        } else {
            wl.make_program()
        }
    };
    let mut program = make();
    let report = match Accelerator::new(cfg).run(program.as_mut()) {
        Ok(report) => report,
        Err(RunError::Timeout { cycles, .. }) => return FaultOutcome::Wedged { cycles },
        Err(e) => panic!("{} failed under faults: {e}", wl.name()),
    };
    wl.validate(&report)
        .unwrap_or_else(|e| panic!("{} produced wrong results under faults: {e}", wl.name()));
    report
        .check_conservation(tiles)
        .unwrap_or_else(|e| panic!("{}: {e}", wl.name()));
    let truth = oracle::execute_untimed(make().as_mut())
        .unwrap_or_else(|e| panic!("{}: oracle rejected the program: {e}", wl.name()));
    oracle::check_equivalence(&report, &truth)
        .unwrap_or_else(|e| panic!("{} diverged from the oracle under faults: {e}", wl.name()));
    profile::record(&report.profile);
    FaultOutcome::Completed(Box::new(report))
}

/// Executes a fault-injected sweep grid on the global rayon pool,
/// returning outcomes **in job order** (same determinism argument as
/// [`run_grid`]).
pub fn run_grid_faulted(jobs: &[Job<'_>]) -> Vec<FaultOutcome> {
    jobs.par_iter()
        .map(|j| run_faulted(j.wl, j.cfg.clone(), j.baseline))
        .collect()
}

/// One cell of an experiment's sweep grid: a workload at one design
/// point, with the program formulation to use.
///
/// Experiments materialize their whole (workload × config × policy)
/// grid into `Vec<Job>` up front, then hand it to [`run_grid`]; the
/// job carries everything a run needs so execution order is free.
pub struct Job<'a> {
    /// The workload to simulate.
    pub wl: &'a dyn Workload,
    /// The design point, including the job's derived RNG seed.
    pub cfg: DeltaConfig,
    /// Use the static-parallel program formulation.
    pub baseline: bool,
}

impl<'a> Job<'a> {
    /// A run of the workload's natural (task-parallel) program.
    pub fn new(wl: &'a dyn Workload, cfg: DeltaConfig) -> Self {
        Job {
            wl,
            cfg,
            baseline: false,
        }
    }

    /// A run of the static-parallel program formulation.
    pub fn baseline(wl: &'a dyn Workload, cfg: DeltaConfig) -> Self {
        Job {
            wl,
            cfg,
            baseline: true,
        }
    }
}

/// Executes a materialized sweep grid on the global rayon pool and
/// returns the reports **in job order**.
///
/// Parallel output is byte-identical to `--jobs 1`: each job's RNG
/// streams derive from its own config (see
/// [`experiments::derive_seed`]), never from iteration order, and the
/// order-preserving collect keeps report `i` paired with job `i`
/// regardless of which worker ran it.
pub fn run_grid(jobs: &[Job<'_>]) -> Vec<RunReport> {
    jobs.par_iter()
        .map(|j| run_validated(j.wl, j.cfg.clone(), j.baseline))
        .collect()
}

/// One cell of the *flattened* sweep: an owned workload at one design
/// point, in one run mode. Unlike [`Job`] this borrows nothing, so the
/// jobs of every experiment in a sweep can be concatenated into one
/// global pool and executed as independent stealable tasks — a slow
/// `fig_faults` grid cell no longer serializes behind its own
/// experiment's batch while workers idle.
pub struct SweepJob {
    /// The workload to simulate (shared with the experiment's assembly
    /// closure, which still needs names/info afterwards).
    pub wl: Arc<dyn Workload>,
    /// The design point, including the job's derived RNG seed.
    pub cfg: DeltaConfig,
    /// Use the static-parallel program formulation.
    pub baseline: bool,
    /// Run under [`run_faulted`] semantics (a wedge is a result, plus
    /// the untimed-oracle check) instead of [`run_validated`].
    pub faulted: bool,
}

impl SweepJob {
    /// A validated run of the workload's natural program.
    pub fn new(wl: Arc<dyn Workload>, cfg: DeltaConfig) -> Self {
        SweepJob {
            wl,
            cfg,
            baseline: false,
            faulted: false,
        }
    }

    /// A validated run of the static-parallel formulation.
    pub fn baseline(wl: Arc<dyn Workload>, cfg: DeltaConfig) -> Self {
        SweepJob {
            wl,
            cfg,
            baseline: true,
            faulted: false,
        }
    }

    /// A fault-injected run ([`run_faulted`] semantics).
    pub fn faulted(wl: Arc<dyn Workload>, cfg: DeltaConfig, baseline: bool) -> Self {
        SweepJob {
            wl,
            cfg,
            baseline,
            faulted: true,
        }
    }
}

/// Program fingerprints by [`fingerprint_id`], for the jobs of one sweep.
type Fingerprints = HashMap<(usize, bool), u64>;

/// A job's cache key, from the sweep's precomputed fingerprints.
fn job_key(j: &SweepJob, fingerprints: &Fingerprints) -> String {
    let fp = fingerprints
        .get(&fingerprint_id(j))
        .copied()
        .unwrap_or_else(|| cache::program_fingerprint(j.wl.as_ref(), j.baseline));
    cache::key_from_fingerprint(fp, &j.cfg, j.baseline, j.faulted, cache::current_salt())
}

/// Executes one flattened sweep job, consulting the persistent result
/// cache when it is enabled (and the run is untraced): hash the config
/// and program content, return the disk entry on a hit, otherwise
/// simulate and persist. Cached reports still feed the in-process
/// [`profile`] tally so `--profile` reflects the original simulations'
/// cycle attribution either way.
fn run_sweep_job(j: &SweepJob, fingerprints: &Fingerprints) -> FaultOutcome {
    let key = (cache::is_enabled() && !j.cfg.trace).then(|| job_key(j, fingerprints));
    if let Some(k) = &key {
        if let Some(out) = cache::load(k, j.faulted) {
            if let Some(r) = out.report() {
                profile::record(&r.profile);
            }
            return out;
        }
    }
    let out = if j.faulted {
        run_faulted(j.wl.as_ref(), j.cfg.clone(), j.baseline)
    } else {
        FaultOutcome::Completed(Box::new(run_validated(
            j.wl.as_ref(),
            j.cfg.clone(),
            j.baseline,
        )))
    };
    if let Some(k) = &key {
        cache::store(k, &out);
    }
    out
}

/// Executes a flattened sweep — every job from every experiment as one
/// stealable task in a single global pool — returning outcomes **in
/// job order** (the same determinism argument as [`run_grid`]: seeds
/// derive from configs, never from execution order, and the collect is
/// order-preserving). Validated (non-`faulted`) jobs always come back
/// [`FaultOutcome::Completed`].
pub fn run_jobs(jobs: &[SweepJob]) -> Vec<FaultOutcome> {
    let fingerprints = if cache::is_enabled() {
        fingerprints(jobs)
    } else {
        Fingerprints::new()
    };
    jobs.par_iter()
        .map(|j| run_sweep_job(j, &fingerprints))
        .collect()
}

/// Builds and hashes each distinct program of a sweep once, in
/// parallel on the pool. A sweep reuses each workload across many
/// design points (every `Arc` appears in dozens of jobs), but the
/// program fingerprint behind the cache key depends only on (workload,
/// formulation), so hashing once per program instead of once per job
/// is what keeps a warm cache hit cheaper than the tiny-scale
/// simulation it replaces.
fn fingerprints(jobs: &[SweepJob]) -> Fingerprints {
    let mut seen = HashSet::new();
    let distinct: Vec<&SweepJob> = jobs
        .iter()
        .filter(|j| seen.insert(fingerprint_id(j)))
        .collect();
    let fps: Vec<u64> = distinct
        .par_iter()
        .map(|j| cache::program_fingerprint(j.wl.as_ref(), j.baseline))
        .collect();
    distinct
        .iter()
        .map(|j| fingerprint_id(j))
        .zip(fps)
        .collect()
}

/// Memo key for a job's program fingerprint: the workload's `Arc`
/// identity plus the program formulation. Valid only while the jobs
/// (and thus their `Arc`s) are alive, which [`run_jobs`] guarantees by
/// scoping the memo to one sweep.
fn fingerprint_id(j: &SweepJob) -> (usize, bool) {
    (Arc::as_ptr(&j.wl) as *const () as usize, j.baseline)
}

/// Formats a ratio as `x.xx×`. Rendering detail of the experiment
/// tables, not part of the harness API.
pub(crate) fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_workloads::Scale;

    /// The pool-computed fingerprints give every job of a tiny sweep the
    /// same program fingerprint and cache key as computing each job on
    /// its own.
    #[test]
    fn pool_fingerprints_match_serial_ones() {
        rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build_global()
            .expect("pool width");
        let jobs: Vec<SweepJob> = experiments::ALL
            .iter()
            .flat_map(|id| experiments::plan(id, Scale::Tiny).jobs)
            .collect();
        let fps = fingerprints(&jobs);
        rayon::ThreadPoolBuilder::new()
            .build_global()
            .expect("pool width");
        for j in &jobs {
            assert_eq!(
                fps[&fingerprint_id(j)],
                cache::program_fingerprint(j.wl.as_ref(), j.baseline),
                "{}",
                j.wl.name()
            );
            assert_eq!(
                job_key(j, &fps),
                cache::key(j.wl.as_ref(), &j.cfg, j.baseline, j.faulted),
                "{}",
                j.wl.name()
            );
        }
    }
}
