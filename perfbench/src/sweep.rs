//! The benchmark's workloads and the two ways it drives them: the
//! untraced pass (the program's own sweep path, `run_jobs` on the
//! `ts-pool` pool) and the traced pass (a serial replay of `run_jobs`'
//! per-job sequence through public calls, each wrapped in a span).
//!
//! Both passes end in the same correctness gate: every experiment's
//! document is diffed against the committed golden and checked for
//! shape violations, and every failure is counted, never fatal.

use crate::spans::Tracer;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;
use taskstream_model::{Program, TaskKernel};
use ts_bench::cache::{self, CacheStats};
use ts_bench::experiments::{self, Plan};
use ts_bench::golden::GoldenDoc;
use ts_bench::{run_jobs, FaultOutcome, SweepJob};
use ts_cgra::Fabric;
use ts_delta::{oracle, Accelerator, RunError, SimProfile};
use ts_workloads::Scale;

/// Worker threads the untraced passes give `run_jobs`.
pub const THREADS: usize = 2;

/// One benchmark workload: a list of experiments at one scale, run
/// against an empty result cache (cold) or one filled during set-up
/// (warm).
#[derive(Debug)]
pub struct Workload {
    /// Workload name, as `--workload` spells it.
    pub name: &'static str,
    /// Experiment scale.
    pub scale: Scale,
    /// Experiment ids, in report order.
    pub ids: &'static [&'static str],
    /// Whether set-up fills the result cache before the timed passes.
    pub warm: bool,
}

/// Every workload the benchmark defines.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "busy_small",
        scale: Scale::Small,
        ids: &[
            "fig_overall",
            "fig_ablation",
            "fig_lanes",
            "fig_streams",
            "fig_tenancy",
        ],
        warm: false,
    },
    Workload {
        name: "sparse_small",
        scale: Scale::Small,
        ids: &["fig_tiles", "fig_spawn", "fig_faults"],
        warm: false,
    },
    Workload {
        name: "warm_tiny",
        scale: Scale::Tiny,
        ids: experiments::ALL,
        warm: true,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Committed golden documents by experiment id.
pub type Goldens = HashMap<&'static str, GoldenDoc>;

/// Reads `dir/<scale>/<id>.json` for every experiment of `w`.
///
/// # Errors
///
/// Returns a message naming the first file that is missing or does
/// not parse.
pub fn load_goldens(dir: &Path, w: &Workload) -> Result<Goldens, String> {
    let scale_dir = dir.join(experiments::scale_name(w.scale));
    w.ids
        .iter()
        .map(|&id| {
            let path = scale_dir.join(format!("{id}.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let doc = GoldenDoc::from_json(&text)
                .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
            Ok((id, doc))
        })
        .collect()
}

/// Result-cache key of every job, by experiment id, in plan order.
pub type Keys = HashMap<&'static str, Vec<String>>;

/// Plans every experiment of `w` and computes each job's cache key.
pub fn job_keys(w: &Workload) -> Keys {
    w.ids
        .iter()
        .map(|&id| {
            let plan = experiments::plan(id, w.scale);
            let keys = plan
                .jobs
                .iter()
                .map(|j| cache::key(j.wl.as_ref(), &j.cfg, j.baseline, j.faulted))
                .collect();
            (id, keys)
        })
        .collect()
}

/// The golden gate for one experiment: cell diff plus shape checks,
/// as one message if anything is wrong.
fn check_doc(golden: Option<&GoldenDoc>, doc: &GoldenDoc) -> Option<String> {
    let Some(golden) = golden else {
        return Some(format!("{}: no committed golden", doc.id));
    };
    let mut bad = golden.diff(doc);
    bad.extend(doc.shape_violations());
    (!bad.is_empty()).then(|| bad.join("; "))
}

/// Assembles one experiment, counting a panic as a failure.
fn finish(plan: Plan, outcomes: &[FaultOutcome]) -> Result<GoldenDoc, String> {
    let id = plan.id;
    catch_unwind(AssertUnwindSafe(|| plan.finish(outcomes)))
        .map_err(|p| format!("{id}: assembly panicked: {}", panic_text(&p)))
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// What one experiment came to in a pass.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Experiment id.
    pub id: &'static str,
    /// Outcomes in plan order, or `None` if any job failed.
    pub outcomes: Option<Vec<FaultOutcome>>,
    /// The rendered table, if the experiment assembled.
    pub rendered: Option<String>,
}

/// Exact fingerprint of what a pass computed: every job's cycle count
/// and profile counters, every rendered table, and the number of cache
/// lookups.
///
/// The hit/miss split is left out: with two workers, two jobs with the
/// same key can be in flight at once and both miss, so the split varies
/// from pass to pass. The serial traced pass reports it exactly.
pub fn digest(results: &[ExperimentResult], cache: CacheStats) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes.iter().chain(&[0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in results {
        eat(r.id.as_bytes());
        for o in r.outcomes.iter().flatten() {
            match o {
                FaultOutcome::Completed(rep) => {
                    eat(format!("{} {:?}", rep.cycles, rep.profile).as_bytes())
                }
                FaultOutcome::Wedged { cycles } => eat(format!("wedged {cycles}").as_bytes()),
            }
        }
        eat(r.rendered.as_deref().unwrap_or("<failed>").as_bytes());
    }
    eat(format!("lookups {}", cache.hits + cache.misses).as_bytes());
    h
}

/// Each experiment's per-job simulated cycles, in plan order (empty
/// when the experiment lost a job).
pub fn job_cycles(results: &[ExperimentResult]) -> Vec<(&'static str, Vec<u64>)> {
    results
        .iter()
        .map(|r| {
            let cycles = r.outcomes.iter().flatten().map(|o| match o {
                FaultOutcome::Completed(rep) => rep.cycles,
                FaultOutcome::Wedged { cycles } => *cycles,
            });
            (r.id, cycles.collect())
        })
        .collect()
}

/// Simulated cycles behind a pass's answers: each distinct cache key
/// counted once, whether it was simulated or read from the cache.
pub fn distinct_cycles<'a>(
    cycles: impl IntoIterator<Item = (&'a str, &'a [u64])>,
    keys: &Keys,
) -> u64 {
    let mut seen = HashSet::new();
    let mut total = 0;
    for (id, cs) in cycles {
        for (c, k) in cs.iter().zip(keys.get(id).into_iter().flatten()) {
            if seen.insert(k.as_str()) {
                total += c;
            }
        }
    }
    total
}

fn cache_delta(before: CacheStats) -> CacheStats {
    let now = cache::stats();
    CacheStats {
        hits: now.hits - before.hits,
        misses: now.misses - before.misses,
        stores: now.stores - before.stores,
    }
}

// ------------------------------------------------------------ untraced

/// One untraced pass.
#[derive(Debug)]
pub struct Pass {
    /// Wall seconds from planning through the golden check.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Operations attempted: jobs plus experiments.
    pub attempted: u64,
    /// One message per failed operation (job or experiment).
    pub failures: Vec<String>,
    /// Per-experiment results, in report order.
    pub results: Vec<ExperimentResult>,
    /// Cache traffic of the pass.
    pub cache: CacheStats,
    /// `ts-pool` steals during the pass.
    pub steals: u64,
    /// `ts-pool` worker parks during the pass.
    pub parks: u64,
}

/// Runs `jobs` through `run_jobs`. A panic (a job failing its checks)
/// is not fatal: the jobs are then run one at a time so each failure is
/// pinned to its job, which comes back `None`.
fn execute(jobs: &[SweepJob]) -> Vec<Option<FaultOutcome>> {
    match catch_unwind(AssertUnwindSafe(|| run_jobs(jobs))) {
        Ok(outs) => outs.into_iter().map(Some).collect(),
        Err(_) => jobs
            .iter()
            .map(|j| {
                catch_unwind(AssertUnwindSafe(|| run_jobs(std::slice::from_ref(j))))
                    .ok()
                    .and_then(|mut v| v.pop())
            })
            .collect(),
    }
}

/// Runs one pass of `order` the way `repro sweep` does — plan every
/// experiment, one flattened `run_jobs` call, `Plan::finish`,
/// `render_doc` — then checks each document against `goldens`. The
/// result cache must already point at the directory the pass should
/// use.
pub fn run_pass(scale: Scale, order: &[&'static str], goldens: &Goldens) -> Pass {
    let c0 = cache::stats();
    let p0 = ts_pool::pool_stats();
    let cpu0 = crate::sys::cpu_seconds();
    let t0 = Instant::now();

    let mut plans: Vec<Plan> = order
        .iter()
        .map(|id| experiments::plan(id, scale))
        .collect();
    let mut jobs = Vec::new();
    let mut counts = Vec::with_capacity(plans.len());
    for p in &mut plans {
        counts.push(p.jobs.len());
        jobs.append(&mut p.jobs);
    }
    let mut outcomes = execute(&jobs).into_iter();
    let mut failures = Vec::new();
    let mut results = Vec::with_capacity(plans.len());
    for (plan, n) in plans.into_iter().zip(counts) {
        let id = plan.id;
        let mine: Vec<Option<FaultOutcome>> = outcomes.by_ref().take(n).collect();
        let lost = mine.iter().filter(|o| o.is_none()).count();
        failures.extend((0..lost).map(|_| format!("{id}: a job failed its checks")));
        let Some(outs) = mine.into_iter().collect::<Option<Vec<_>>>() else {
            failures.push(format!("{id}: not assembled, jobs failed"));
            results.push(ExperimentResult {
                id,
                outcomes: None,
                rendered: None,
            });
            continue;
        };
        let rendered = match finish(plan, &outs) {
            Ok(doc) => {
                failures.extend(check_doc(goldens.get(id), &doc));
                Some(experiments::render_doc(&doc))
            }
            Err(msg) => {
                failures.push(msg);
                None
            }
        };
        results.push(ExperimentResult {
            id,
            outcomes: Some(outs),
            rendered,
        });
    }

    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = crate::sys::cpu_seconds() - cpu0;
    let p1 = ts_pool::pool_stats();
    Pass {
        wall_s,
        cpu_s,
        attempted: (jobs.len() + order.len()) as u64,
        failures,
        results,
        cache: cache_delta(c0),
        steals: p1.steals - p0.steals,
        parks: p1.parks - p0.parks,
    }
}

// -------------------------------------------------------------- traced

/// One traced (serial) pass.
#[derive(Debug, Default)]
pub struct TracedPass {
    /// Every span, the root (`pass`) first.
    pub spans: Vec<crate::spans::Span>,
    /// Operations attempted: jobs plus experiments.
    pub attempted: u64,
    /// One message per failed operation (job or experiment).
    pub failures: Vec<String>,
    /// Per-experiment results, in report order.
    pub results: Vec<ExperimentResult>,
    /// Cache traffic of the pass.
    pub cache: CacheStats,
    /// CGRA mapping-memo hits and misses during the pass.
    pub map_hits: u64,
    /// See [`TracedPass::map_hits`].
    pub map_misses: u64,
    /// Profile counters summed over the runs the pass simulated.
    pub profile: SimProfile,
    /// Cycles summed over the runs the pass simulated.
    pub sim_cycles: u64,
    /// Runs the pass simulated (cache misses).
    pub sims: u64,
    /// Oracle executions.
    pub oracle_runs: u64,
}

/// The per-job sequence of `run_jobs`, one public call per step:
/// key, load; on a miss make the program, map its DFGs, run, validate,
/// check conservation, (faulted jobs) run and compare the oracle, and
/// store.
fn traced_job(t: &mut Tracer, out: &mut TracedPass, j: &SweepJob) -> Result<FaultOutcome, String> {
    let wl = j.wl.as_ref();
    let make = |t: &mut Tracer| -> Box<dyn Program> {
        t.time("workloads.make_program", || {
            if j.baseline {
                wl.make_baseline_program()
            } else {
                wl.make_program()
            }
        })
    };
    let key = t.time("cache.key", || {
        cache::key(wl, &j.cfg, j.baseline, j.faulted)
    });
    if let Some(hit) = t.time("cache.load", || cache::load(&key, j.faulted)) {
        return Ok(hit);
    }
    let mut program = make(t);
    t.time("cgra.map", || {
        let fabric = Fabric::new(j.cfg.fabric.clone());
        program
            .task_types()
            .iter()
            .try_for_each(|tt| match &tt.kernel {
                TaskKernel::Dfg(d) => fabric.map_cached(d, j.cfg.seed).map(drop),
                TaskKernel::Native(_) => Ok(()),
            })
    })
    .map_err(|e| format!("{}: mapping failed: {e}", wl.name()))?;
    let run = t.time("accel.run", || {
        Accelerator::new(j.cfg.clone()).run(program.as_mut())
    });
    out.sims += 1;
    let outcome = match run {
        Ok(report) => {
            out.sim_cycles += report.cycles;
            out.profile.add(&report.profile);
            t.time("workloads.validate", || wl.validate(&report))
                .map_err(|e| format!("{}: wrong results: {e}", wl.name()))?;
            t.time("validate.conservation", || {
                report.check_conservation(j.cfg.tiles)
            })
            .map_err(|e| format!("{}: {e}", wl.name()))?;
            if j.faulted {
                let mut fresh = make(t);
                out.oracle_runs += 1;
                let truth = t
                    .time("oracle.execute", || oracle::execute_untimed(fresh.as_mut()))
                    .map_err(|e| format!("{}: oracle rejected the program: {e}", wl.name()))?;
                t.time("oracle.check", || {
                    oracle::check_equivalence(&report, &truth)
                })
                .map_err(|e| format!("{}: diverged from the oracle: {e}", wl.name()))?;
            }
            FaultOutcome::Completed(Box::new(report))
        }
        Err(RunError::Timeout { cycles, .. }) if j.faulted => {
            out.sim_cycles += cycles;
            FaultOutcome::Wedged { cycles }
        }
        Err(e) => return Err(format!("{}: {e}", wl.name())),
    };
    t.time("cache.store", || cache::store(&key, &outcome));
    Ok(outcome)
}

/// Runs one serial traced pass of `order`, with the same golden gate as
/// [`run_pass`].
pub fn run_traced_pass(scale: Scale, order: &[&'static str], goldens: &Goldens) -> TracedPass {
    let c0 = cache::stats();
    let (mh0, mm0) = ts_cgra::cache::stats();
    let mut out = TracedPass::default();
    let mut t = Tracer::default();
    let root = t.open("pass");
    for &id in order {
        t.experiment = Some(id);
        t.job = None;
        let exp = t.open("experiment");
        let mut plan = t.time("experiments.plan", || experiments::plan(id, scale));
        let jobs = std::mem::take(&mut plan.jobs);
        out.attempted += jobs.len() as u64 + 1;
        let mut outs = Vec::with_capacity(jobs.len());
        for (k, j) in jobs.iter().enumerate() {
            t.job = Some(k);
            let depth = t.depth();
            let res = catch_unwind(AssertUnwindSafe(|| traced_job(&mut t, &mut out, j)));
            t.unwind_to(depth);
            match res {
                Ok(Ok(o)) => outs.push(Some(o)),
                Ok(Err(msg)) => {
                    out.failures.push(format!("{id} job {k}: {msg}"));
                    outs.push(None);
                }
                Err(p) => {
                    out.failures
                        .push(format!("{id} job {k}: panicked: {}", panic_text(&p)));
                    outs.push(None);
                }
            }
        }
        t.job = None;
        let outcomes = outs.into_iter().collect::<Option<Vec<_>>>();
        let rendered = match &outcomes {
            None => {
                out.failures
                    .push(format!("{id}: not assembled, jobs failed"));
                None
            }
            Some(outs) => match t.time("experiments.finish", || finish(plan, outs)) {
                Ok(doc) => {
                    let text = t.time("experiments.render", || experiments::render_doc(&doc));
                    let bad = t.time("golden.check", || check_doc(goldens.get(id), &doc));
                    out.failures.extend(bad);
                    Some(text)
                }
                Err(msg) => {
                    out.failures.push(msg);
                    None
                }
            },
        };
        out.results.push(ExperimentResult {
            id,
            outcomes,
            rendered,
        });
        t.close(exp);
    }
    t.experiment = None;
    t.close(root);
    out.spans = t.into_spans();
    out.cache = cache_delta(c0);
    let (mh1, mm1) = ts_cgra::cache::stats();
    out.map_hits = mh1 - mh0;
    out.map_misses = mm1 - mm0;
    out
}
