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
use std::sync::{Arc, Mutex};

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
    run_checked(wl, cfg, baseline_program, true)
}

/// The one checked run behind [`run_validated`], [`run_faulted`] and
/// the sweep: simulate, then validate against the workload reference
/// and the conservation invariants. A `faulted` run treats a timeout as
/// a wedge and must also match the untimed oracle.
fn run_checked(wl: &dyn Workload, cfg: DeltaConfig, baseline: bool, faulted: bool) -> FaultOutcome {
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

/// What a sweep's cache keys are made of besides each job's own config:
/// the program fingerprints by [`fingerprint_id`] and the code-version
/// salt.
struct KeyInputs {
    fingerprints: HashMap<(usize, bool), u64>,
    salt: u64,
}

/// A job's cache key, from the sweep's precomputed inputs.
fn job_key(j: &SweepJob, inputs: &KeyInputs) -> String {
    cache::key_from_fingerprint(
        inputs.fingerprints[&fingerprint_id(j)],
        &j.cfg,
        j.baseline,
        j.faulted,
        inputs.salt,
    )
}

/// Executes one flattened sweep job, consulting the persistent result
/// cache under `key` when it has one (the cache is on and the run is
/// untraced): return the disk entry on a hit, otherwise simulate and
/// persist. A cache hit carries the original simulation's full
/// [`RunReport`], profile counters included, so `--profile` and the
/// bench JSON sum the same counters warm or cold.
///
/// Nothing after [`run_checked`] reads a report's DRAM, so a fresh
/// report's image is [released](RunReport::release_dram) before it is
/// stored or returned: the sweep holds every outcome until it ends,
/// and a cold outcome then holds what a warm one loads.
fn run_sweep_job(j: &SweepJob, key: Option<&str>) -> FaultOutcome {
    if let Some(out) = key.and_then(|k| cache::load(k, j.faulted)) {
        return out;
    }
    let mut out = run_checked(j.wl.as_ref(), j.cfg.clone(), j.baseline, j.faulted);
    if let FaultOutcome::Completed(report) = &mut out {
        report.release_dram();
    }
    if let Some(k) = key {
        cache::store(k, &out);
    }
    out
}

/// Executes a flattened sweep — every job from every experiment as one
/// item of a single [`ts_pool::map`] call, whose workers claim items in
/// job order (two calls with the cache on, see `run_cached`) —
/// returning outcomes **in job order**.
/// Validated (non-`faulted`) jobs always come back
/// [`FaultOutcome::Completed`].
///
/// Parallel output is byte-identical to `--jobs 1`: each job's RNG
/// streams derive from its own config (see
/// [`experiments::derive_seed`]), never from iteration order, and the
/// order-preserving collect keeps outcome `i` paired with job `i`
/// regardless of which worker ran it.
pub fn run_jobs(jobs: &[SweepJob]) -> Vec<FaultOutcome> {
    match cache::is_enabled() {
        true => run_cached(jobs, &key_inputs(jobs)),
        false => ts_pool::map(jobs, |j| run_sweep_job(j, None)),
    }
}

/// [`run_jobs`] with the cache on. A job whose key another job of the
/// sweep is simulating right now waits for a second [`ts_pool::map`]
/// call, when that job's entry is on disk, instead of simulating it
/// again: a cold sweep simulates each distinct key once however the
/// workers interleave, and every job still makes one lookup. Traced
/// jobs have no key.
fn run_cached(jobs: &[SweepJob], inputs: &KeyInputs) -> Vec<FaultOutcome> {
    let in_flight: Mutex<HashSet<String>> = Mutex::default();
    let lock = || in_flight.lock().expect("in-flight keys poisoned");
    let outcomes = ts_pool::map(jobs, |j| {
        let key = (!j.cfg.trace).then(|| job_key(j, inputs));
        if key.as_ref().is_some_and(|k| !lock().insert(k.clone())) {
            return None;
        }
        let out = run_sweep_job(j, key.as_deref());
        if let Some(k) = &key {
            lock().remove(k);
        }
        Some(out)
    });
    // the waiting jobs' outcomes fill the gaps in job order
    let waiting = jobs.iter().zip(&outcomes).filter(|(_, out)| out.is_none());
    let late = ts_pool::map(waiting, |(j, _)| {
        run_sweep_job(j, Some(&job_key(j, inputs)))
    });
    let mut late = late.into_iter();
    outcomes
        .into_iter()
        .map(|out| out.or_else(|| late.next()).expect("a waiting job ran late"))
        .collect()
}

/// Builds and hashes each distinct program of a sweep once, in
/// parallel on the pool, and hashes the executable for the salt as one
/// more item of the same [`ts_pool::map`] call. A sweep reuses each workload across
/// many design points (every `Arc` appears in dozens of jobs), but the
/// program fingerprint behind the cache key depends only on (workload,
/// formulation), so hashing once per program instead of once per job
/// is what keeps a warm cache hit cheaper than the tiny-scale
/// simulation it replaces.
fn key_inputs(jobs: &[SweepJob]) -> KeyInputs {
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
    let hashes: Vec<u64> = ts_pool::map(&tasks, |task| match task {
        None => cache::current_salt(),
        Some(j) => cache::program_fingerprint(j.wl.as_ref(), j.baseline),
    });
    KeyInputs {
        fingerprints: distinct
            .iter()
            .map(|j| fingerprint_id(j))
            .zip(hashes[1..].iter().copied())
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

    /// A cold sweep simulates each distinct cache key once and answers
    /// every repeat from disk, on every run, however the two workers
    /// interleave: every job still makes exactly one lookup.
    #[test]
    fn a_cold_sweep_simulates_each_distinct_key_once() {
        let wl: Arc<dyn Workload> = Arc::new(ts_workloads::sparse_chain::SparseChain::tiny(
            experiments::SEED,
        ));
        let jobs: Vec<SweepJob> = [2, 3, 2, 2, 3, 4]
            .into_iter()
            .map(|tiles| SweepJob::new(Arc::clone(&wl), DeltaConfig::delta(tiles)))
            .collect();
        let (distinct, repeats) = (3, 3);
        let dir = std::env::temp_dir().join(format!("ts-bench-dedup-{}", std::process::id()));
        cache::set_dir(dir.clone());
        ts_pool::configure(2);
        for _ in 0..4 {
            let _ = std::fs::remove_dir_all(&dir);
            let before = cache::stats();
            let outcomes = run_cached(&jobs, &key_inputs(&jobs));
            let after = cache::stats();
            assert_eq!(outcomes.len(), jobs.len());
            assert_eq!(after.misses - before.misses, distinct, "{after:?}");
            assert_eq!(after.hits - before.hits, repeats, "{after:?}");
        }
        ts_pool::configure(0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The pool-computed fingerprints and salt give every job of a tiny
    /// sweep the same program fingerprint and cache key as computing
    /// each job on its own.
    #[test]
    fn pool_fingerprints_match_serial_ones() {
        ts_pool::configure(4);
        let jobs: Vec<SweepJob> = experiments::ALL
            .iter()
            .flat_map(|id| experiments::plan(id, Scale::Tiny).jobs)
            .collect();
        let inputs = key_inputs(&jobs);
        ts_pool::configure(0);
        assert_eq!(inputs.salt, cache::current_salt());
        for j in &jobs {
            assert_eq!(
                inputs.fingerprints[&fingerprint_id(j)],
                cache::program_fingerprint(j.wl.as_ref(), j.baseline),
                "{}",
                j.wl.name()
            );
            assert_eq!(
                job_key(j, &inputs),
                cache::key(j.wl.as_ref(), &j.cfg, j.baseline, j.faulted),
                "{}",
                j.wl.name()
            );
        }
    }
}
