//! Benchmark and figure/table regeneration harness.
//!
//! One function per table/figure of the evaluation (see DESIGN.md's
//! experiment index). Each experiment runs real simulations, validates
//! every result against the workload references, and returns printable
//! rows; `cargo run -p ts-bench --release --bin repro -- sweep`
//! regenerates the whole evaluation, and `repro sweep <experiment>`
//! regenerates one.
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
mod table;
pub mod trace_report;
pub mod whatif_report;

pub use table::Table;

use taskstream_model::Program;
use ts_delta::{oracle, Accelerator, DeltaConfig, RunError, RunReport};
use ts_workloads::Workload;

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
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
    match run_checked(wl, cfg, baseline_program, false) {
        FaultOutcome::Completed(report) => *report,
        FaultOutcome::Wedged { .. } => unreachable!("a fault-free run panics on a timeout"),
    }
}

/// What a fault-injected run came to: completion (validated like any
/// other run) or a wedge — the machine stopped making progress before
/// finishing, which is the expected fate of the no-recovery baseline
/// once a tile it depends on fail-stops.
#[derive(Debug, Clone)]
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
    run_checked(wl, cfg, baseline_program, true)
}

static SIMULATIONS: AtomicU64 = AtomicU64::new(0);

/// How many simulations this process has run: every [`run_validated`]
/// and [`run_faulted`] call, and every distinct sweep job that
/// [`run_jobs`] did not answer from the cache.
pub fn simulations() -> u64 {
    SIMULATIONS.load(Ordering::Relaxed)
}

/// The one checked run behind [`run_validated`], [`run_faulted`] and
/// the sweep: simulate, then validate against the workload reference
/// and the conservation invariants. A `faulted` run treats a timeout as
/// a wedge and must also match the untimed oracle.
fn run_checked(wl: &dyn Workload, cfg: DeltaConfig, baseline: bool, faulted: bool) -> FaultOutcome {
    SIMULATIONS.fetch_add(1, Ordering::Relaxed);
    let make = || -> Box<dyn Program> {
        if baseline {
            wl.make_baseline_program()
        } else {
            wl.make_program()
        }
    };
    let (name, tiles) = (wl.name(), cfg.tiles);
    let under = if faulted { " under faults" } else { "" };
    let report = match Accelerator::new(cfg).run(make().as_mut()) {
        Ok(report) => report,
        Err(RunError::Timeout { cycles, .. }) if faulted => return FaultOutcome::Wedged { cycles },
        Err(e) => panic!("{name} failed{under}: {e}"),
    };
    wl.validate(&report)
        .unwrap_or_else(|e| panic!("{name} produced wrong results{under}: {e}"));
    report
        .check_conservation(tiles)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    if faulted {
        let truth = oracle::execute_untimed(make().as_mut())
            .unwrap_or_else(|e| panic!("{name}: oracle rejected the program: {e}"));
        oracle::check_equivalence(&report, &truth)
            .unwrap_or_else(|e| panic!("{name} diverged from the oracle under faults: {e}"));
    }
    FaultOutcome::Completed(Box::new(report))
}

/// One cell of the *flattened* sweep: an owned workload at one design
/// point, in one run mode. It borrows nothing, so the jobs of every
/// experiment in a sweep can be concatenated into one global job list
/// and executed as independent items — a slow `fig_faults` grid cell
/// never serializes behind its own experiment's batch while workers
/// idle.
pub struct SweepJob {
    /// The workload to simulate (shared with the experiment's assembly
    /// closure, which still needs names/info afterwards).
    pub wl: Arc<dyn Workload>,
    /// The design point, including the job's derived RNG seed.
    pub cfg: DeltaConfig,
    /// Use the static-parallel program formulation.
    pub baseline: bool,
    /// Run under [`run_faulted`] semantics (a wedge is a result, plus
    /// the untimed-oracle check) instead of [`run_validated`]'s.
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
}

/// What a sweep's job identities and cache keys are made of besides
/// each job's own config: the program fingerprints by
/// [`fingerprint_id`] and, with the cache on, the code-version salt.
struct KeyInputs {
    fingerprints: HashMap<(usize, bool), u64>,
    salt: Option<u64>,
}

/// Executes a flattened sweep, returning outcomes **in job order**.
/// Validated (non-`faulted`) jobs always come back
/// [`FaultOutcome::Completed`].
///
/// Jobs with the same [identity](cache::identity) are one simulation:
/// the distinct identities, in order of first occurrence, are the items
/// of one [`ts_pool::map`] call. Each is looked up on disk once (cache
/// on, untraced), simulated on a miss and stored once, and every job
/// that shares it receives a clone of its outcome. With the cache on,
/// each job still counts one lookup: an identity's first job counts the
/// disk hit or miss, each other job a hit. Nothing after
/// [`run_checked`] reads a report's DRAM, so a fresh report's image is
/// [released](RunReport::release_dram) first: a cold outcome holds
/// what a warm one loads.
///
/// Parallel output is byte-identical to `--jobs 1`: each job's RNG
/// streams derive from its own config (see
/// [`experiments::derive_seed`]), never from iteration order, and the
/// order-preserving collect keeps each outcome paired with its
/// identity regardless of which worker ran it.
pub fn run_jobs(jobs: &[SweepJob]) -> Vec<FaultOutcome> {
    let inputs = key_inputs(jobs, cache::is_enabled());
    let mut first = HashMap::new();
    let mut distinct: Vec<(&SweepJob, Vec<u8>, u64)> = Vec::new();
    let group: Vec<usize> = jobs
        .iter()
        .map(|j| {
            let fingerprint = inputs.fingerprints[&fingerprint_id(j)];
            let id = cache::identity(fingerprint, &j.cfg, j.baseline, j.faulted);
            let g = *first.entry(id.clone()).or_insert(distinct.len());
            if g == distinct.len() {
                distinct.push((j, id, 0));
            }
            distinct[g].2 += 1;
            g
        })
        .collect();
    let outcomes = ts_pool::map(&distinct, |(j, id, sharers)| {
        let key = inputs
            .salt
            .filter(|_| !j.cfg.trace)
            .map(|s| cache::key_of(id, s));
        if key.is_some() {
            cache::count_shared_hits(sharers - 1);
        }
        if let Some(out) = key.as_ref().and_then(|k| cache::load(k, j.faulted)) {
            return out;
        }
        let mut out = run_checked(j.wl.as_ref(), j.cfg.clone(), j.baseline, j.faulted);
        if let FaultOutcome::Completed(report) = &mut out {
            report.release_dram();
        }
        if let Some(k) = &key {
            cache::store(k, &out);
        }
        out
    });
    // an identity's last job takes its outcome, the others a clone
    let mut outcomes: Vec<Option<FaultOutcome>> = outcomes.into_iter().map(Some).collect();
    group
        .into_iter()
        .map(|g| {
            distinct[g].2 -= 1;
            match distinct[g].2 {
                0 => outcomes[g].take(),
                _ => outcomes[g].clone(),
            }
            .expect("an identity's outcome outlives its jobs")
        })
        .collect()
}

/// Builds and hashes each distinct program of a sweep once, in
/// parallel on the pool, and, when `salted` (the cache is on), hashes
/// the executable for the salt as one more item of the same
/// [`ts_pool::map`] call. A sweep reuses each workload across many
/// design points (every `Arc` appears in dozens of jobs), but the
/// program fingerprint behind a job's identity depends only on
/// (workload, formulation), so hashing once per program instead of
/// once per job is what keeps a warm cache hit cheaper than the
/// tiny-scale simulation it replaces.
fn key_inputs(jobs: &[SweepJob], salted: bool) -> KeyInputs {
    let mut seen = HashSet::new();
    let distinct: Vec<&SweepJob> = jobs
        .iter()
        .filter(|j| seen.insert(fingerprint_id(j)))
        .collect();
    // The salt goes first: it is the call's longest item, and items
    // are claimed in input order.
    let tasks: Vec<Option<&SweepJob>> = std::iter::once(None)
        .chain(distinct.iter().copied().map(Some))
        .collect();
    let hashes: Vec<Option<u64>> = ts_pool::map(&tasks, |task| match task {
        None => salted.then(cache::current_salt),
        Some(j) => Some(cache::program_fingerprint(j.wl.as_ref(), j.baseline)),
    });
    KeyInputs {
        fingerprints: distinct
            .iter()
            .map(|j| fingerprint_id(j))
            .zip(hashes[1..].iter().flatten().copied())
            .collect(),
        salt: hashes[0],
    }
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

    /// The pool-computed fingerprints and salt give every job of a tiny
    /// sweep the same program fingerprint and cache key as computing
    /// each job on its own, and the sweep's 262 jobs have 180 distinct
    /// identities.
    #[test]
    fn pool_fingerprints_match_serial_ones() {
        ts_pool::configure(4);
        let jobs: Vec<SweepJob> = experiments::ALL
            .iter()
            .flat_map(|id| experiments::plan(id, Scale::Tiny).jobs)
            .collect();
        let inputs = key_inputs(&jobs, true);
        ts_pool::configure(0);
        let salt = cache::current_salt();
        assert_eq!(inputs.salt, Some(salt));
        let id = |j: &SweepJob| {
            let fingerprint = inputs.fingerprints[&fingerprint_id(j)];
            cache::identity(fingerprint, &j.cfg, j.baseline, j.faulted)
        };
        for j in &jobs {
            assert_eq!(
                inputs.fingerprints[&fingerprint_id(j)],
                cache::program_fingerprint(j.wl.as_ref(), j.baseline),
                "{}",
                j.wl.name()
            );
            assert_eq!(
                cache::key_of(&id(j), salt),
                cache::key(j.wl.as_ref(), &j.cfg, j.baseline, j.faulted),
                "{}",
                j.wl.name()
            );
        }
        let distinct: HashSet<Vec<u8>> = jobs.iter().map(id).collect();
        assert_eq!((jobs.len(), distinct.len()), (262, 180));
    }
}
