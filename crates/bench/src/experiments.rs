//! The experiments: one planner per table/figure.
//!
//! Every experiment is split into two pure halves: **plan** —
//! materialize the full (workload × config × policy) grid into a
//! [`SweepJob`] list — and **assemble** — turn the order-preserved
//! outcomes back into the printable table. Between the halves sits one
//! call to [`crate::run_jobs`], so a whole-sweep driver
//! ([`run_docs`]) can concatenate *every* experiment's jobs into a
//! single global job list: a long `fig_faults` grid cell no longer
//! holds an entire experiment batch hostage while finished workers
//! idle — they claim the next cell of whatever experiment comes next.
//!
//! Per-job RNG seeds derive from [`SEED`] plus a stable job key
//! ([`derive_seed`]), never from execution order, so `repro --jobs N`
//! output is byte-identical to `--jobs 1` — and, with the result cache
//! on, to a warm re-run answered from disk.
//!
//! **Adding an experiment.** Write a `plan_<name>(scale) -> Plan`,
//! list its id in [`ALL`] and in [`plan`]'s match, and bless its
//! golden. Take stock workloads from the catalogue through `stocks`
//! (one shared `Arc` per scale and name, so a sweep fingerprints each
//! stock program once), and build jobs with the two seeded helpers:
//! `job` for one validated run at a design point (struct-update it for
//! a baseline or faulted run) and `delta_vs_static` for the headline
//! Delta-vs-static-parallel pair. A sweep of one knob over a few
//! workloads is a `Knob` handed to `plan_knob`.

use crate::golden::GoldenDoc;
use crate::{fmt_x, run_faulted, run_jobs, FaultOutcome, SweepJob, Table};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use taskstream_model::Policy;
use ts_delta::{
    area, DeltaConfig, DeltaConfigBuilder, DrainPolicy, FaultsConfig, Features, PartitionPolicy,
    RunReport, TenancyConfig,
};
use ts_sim::stats::geomean;
use ts_workloads::{
    request_server::RequestServer, spmv::Spmv, Scale, Workload, STREAMS_SUITE, SUITE,
};

/// Default experiment seed (all experiments are reproducible from it).
pub const SEED: u64 = 42;

/// Paper-scale tile count.
pub const TILES: usize = 8;

/// Stable per-job seed: folds a job key (the workload name) into the
/// experiment seed with FNV-1a, so a run's RNG streams depend on
/// *what* it is, not on where sweep iteration order placed it. This is
/// what makes a parallel sweep byte-identical to a serial one: no job
/// inherits RNG state from the jobs that happened to run before it.
///
/// The key is the workload name alone (not the design point), so every
/// design-point sweep over one workload shares a seed — and therefore
/// shares CGRA mapping-cache entries, which are keyed on
/// `(fabric, DFG, seed)`.
pub fn derive_seed(base: u64, key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ base.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A design point with the job's derived seed applied.
fn seeded(cfg: DeltaConfig, wl: &dyn Workload) -> DeltaConfig {
    cfg.to_builder().seed(derive_seed(SEED, wl.name())).build()
}

/// One validated job: `wl`'s natural program at design point `cfg`,
/// seeded for `wl`. Struct-update the result for a baseline or a
/// faulted run.
fn job(wl: &Arc<dyn Workload>, cfg: DeltaConfig) -> SweepJob {
    SweepJob::new(Arc::clone(wl), seeded(cfg, wl.as_ref()))
}

/// The evaluation's headline pair at `tiles`: Delta on `wl`'s natural
/// program, then the static-parallel design on its static formulation.
fn delta_vs_static(wl: &Arc<dyn Workload>, tiles: usize) -> [SweepJob; 2] {
    [
        job(wl, DeltaConfig::delta(tiles)),
        SweepJob {
            baseline: true,
            ..job(wl, DeltaConfig::static_parallel(tiles))
        },
    ]
}

/// The catalogue workload `name` at `scale`, seeded with [`SEED`] and
/// built on first use. Every plan gets the *same* `Arc`, so the sweep
/// runner computes each stock program's cache fingerprint once per
/// sweep instead of once per experiment. (Construction is seeded, so
/// sharing instances cannot change any result.)
fn stock(scale: Scale, name: &'static str) -> Arc<dyn Workload> {
    type Memo = Mutex<HashMap<(&'static str, &'static str), Arc<dyn Workload>>>;
    static MEMO: OnceLock<Memo> = OnceLock::new();
    let mut memo = MEMO
        .get_or_init(Memo::default)
        .lock()
        .expect("workload memo lock poisoned");
    memo.entry((scale_name(scale), name))
        .or_insert_with(|| Arc::from(ts_workloads::workload(name, scale, SEED)))
        .clone()
}

/// [`stock`] for each of `names`, in order.
fn stocks(scale: Scale, names: &[&'static str]) -> Vec<Arc<dyn Workload>> {
    names.iter().map(|&name| stock(scale, name)).collect()
}

/// The multi-tenant request server at `scale`: `tenants` query streams
/// arriving every `period` cycles (0 floods).
fn request_server(scale: Scale, tenants: usize, period: u64) -> RequestServer {
    match scale {
        Scale::Tiny => RequestServer::tiny(tenants, period, SEED),
        Scale::Small => RequestServer::small(tenants, period, SEED),
    }
}

/// The assembly half of an experiment: outcomes (in job order) to
/// (table, golden extras).
type Assemble = Box<dyn FnOnce(&[FaultOutcome]) -> (Table, Vec<(String, String)>) + Send>;

/// A planned experiment: its flattened job list plus the assembly that
/// rebuilds the table from order-preserved outcomes. Planning runs no
/// simulations; a driver is free to concatenate many plans' jobs into
/// one [`run_jobs`] pool and hand each plan back its slice.
pub struct Plan {
    /// Experiment id (`fig_overall`, ...).
    pub id: &'static str,
    /// Scale the plan was built for.
    pub scale: Scale,
    /// The materialized grid, one simulation per entry.
    pub jobs: Vec<SweepJob>,
    planned: usize,
    assemble: Assemble,
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("id", &self.id)
            .field("scale", &self.scale)
            .field("jobs", &self.jobs.len())
            .finish()
    }
}

impl Plan {
    fn new(
        id: &'static str,
        scale: Scale,
        jobs: Vec<SweepJob>,
        assemble: impl FnOnce(&[FaultOutcome]) -> (Table, Vec<(String, String)>) + Send + 'static,
    ) -> Self {
        Plan {
            id,
            scale,
            planned: jobs.len(),
            jobs,
            assemble: Box::new(assemble),
        }
    }

    /// A plan with no simulations (the analytical tables).
    fn immediate(id: &'static str, scale: Scale, table: Table) -> Self {
        Plan::new(id, scale, Vec::new(), move |_| (table, Vec::new()))
    }

    /// Assembles the experiment's golden document from its outcomes —
    /// exactly `self.jobs.len()` of them, in job order.
    ///
    /// # Panics
    ///
    /// Panics if the outcome count disagrees with the plan, or if a
    /// validated job came back wedged (impossible through
    /// [`run_jobs`]).
    pub fn finish(self, outcomes: &[FaultOutcome]) -> GoldenDoc {
        assert_eq!(
            outcomes.len(),
            self.planned,
            "{}: plan/outcome length mismatch",
            self.id
        );
        let (table, extras) = (self.assemble)(outcomes);
        GoldenDoc::new(self.id, scale_name(self.scale), &table, extras)
    }
}

/// Unwraps validated outcomes (every job of a fault-free experiment).
fn completed(outcomes: &[FaultOutcome]) -> Vec<&RunReport> {
    outcomes
        .iter()
        .map(|o| o.report().expect("validated sweep jobs always complete"))
        .collect()
}

/// `fig_overall` — the headline: Delta vs. the equivalent
/// static-parallel design, per workload. Extras carry the suite and
/// irregular-subset geomeans.
fn plan_overall(scale: Scale) -> Plan {
    let wls = stocks(scale, SUITE);
    let jobs = wls
        .iter()
        .flat_map(|wl| delta_vs_static(wl, TILES))
        .collect();
    Plan::new("fig_overall", scale, jobs, move |outcomes| {
        let results = completed(outcomes);
        let mut table = Table::new(&[
            "workload",
            "delta cyc",
            "static cyc",
            "speedup",
            "delta imb",
            "static imb",
        ]);
        let mut speedups = Vec::new();
        let mut irregular = Vec::new();
        for (wl, pair) in wls.iter().zip(results.chunks(2)) {
            let (d, s) = (pair[0], pair[1]);
            let sp = s.cycles as f64 / d.cycles as f64;
            speedups.push(sp);
            if matches!(
                wl.name(),
                "bfs" | "sssp" | "dtree" | "merge_sort" | "spmv" | "hash_join" | "tri_count"
            ) {
                irregular.push(sp);
            }
            table.row(vec![
                wl.name().into(),
                d.cycles.to_string(),
                s.cycles.to_string(),
                fmt_x(sp),
                format!("{:.2}", d.load_imbalance()),
                format!("{:.2}", s.load_imbalance()),
            ]);
        }
        let g = geomean(&speedups);
        let gi = geomean(&irregular);
        table.row(vec![
            "geomean".into(),
            "-".into(),
            "-".into(),
            fmt_x(g),
            "-".into(),
            "-".into(),
        ]);
        table.row(vec![
            "geomean (irregular)".into(),
            "-".into(),
            "-".into(),
            fmt_x(gi),
            "-".into(),
            "-".into(),
        ]);
        let extras = vec![
            ("geomean".to_string(), fmt_x(g)),
            ("irregular_geomean".to_string(), fmt_x(gi)),
        ];
        (table, extras)
    })
}

/// `fig_ablation` — cumulative mechanism breakdown. Speedups are
/// relative to the static-parallel design running the static program
/// formulation:
/// `+tasks` = task-parallel program on static placement;
/// `+balance` = work-aware placement; `+pipeline` = direct pipes;
/// `+multicast` = shared-read recovery (= Delta).
fn plan_ablation(scale: Scale) -> Plan {
    let pipelined = Features {
        pipelining: true,
        multicast: false,
    };
    let steps = [
        (Policy::StaticHash, Features::none()),
        (Policy::WorkAware, Features::none()),
        (Policy::WorkAware, pipelined),
        (Policy::WorkAware, Features::all()),
    ];
    let wls = stocks(scale, SUITE);
    let mut jobs = Vec::new();
    for wl in &wls {
        jobs.push(SweepJob {
            baseline: true,
            ..job(wl, DeltaConfig::static_parallel(TILES))
        });
        for (policy, features) in steps {
            let cfg = DeltaConfig::static_parallel(TILES)
                .with_policy(policy)
                .with_features(features);
            jobs.push(job(wl, cfg));
        }
    }
    let group_len = 1 + steps.len();
    Plan::new("fig_ablation", scale, jobs, move |outcomes| {
        let results = completed(outcomes);
        let mut table = Table::new(&[
            "workload",
            "static",
            "+tasks",
            "+balance",
            "+pipeline",
            "+multicast",
        ]);
        for (wl, group) in wls.iter().zip(results.chunks(group_len)) {
            let base = group[0];
            let mut cells = vec![wl.name().to_string(), "1.00x".to_string()];
            for r in &group[1..] {
                cells.push(fmt_x(base.cycles as f64 / r.cycles as f64));
            }
            table.row(cells);
        }
        (table, Vec::new())
    })
}

/// `fig_tiles` — tile-count scaling, Delta vs static-parallel.
fn plan_tiles(scale: Scale, tile_counts: &[usize]) -> Plan {
    let tile_counts = tile_counts.to_vec();
    let wls = stocks(scale, &["spmv", "bfs", "dtree", "gemm"]);
    let mut jobs = Vec::new();
    for wl in &wls {
        for &t in &tile_counts {
            jobs.extend(delta_vs_static(wl, t));
        }
    }
    Plan::new("fig_tiles", scale, jobs, move |outcomes| {
        let results = completed(outcomes);
        let mut table = Table::new(&["workload", "tiles", "delta cyc", "static cyc", "speedup"]);
        let mut res = results.iter();
        for wl in &wls {
            for &t in &tile_counts {
                let d = res.next().unwrap();
                let s = res.next().unwrap();
                table.row(vec![
                    wl.name().into(),
                    t.to_string(),
                    d.cycles.to_string(),
                    s.cycles.to_string(),
                    fmt_x(s.cycles as f64 / d.cycles as f64),
                ]);
            }
        }
        (table, Vec::new())
    })
}

/// `fig_grain` — task-granularity sweep (SpMV rows per task).
fn plan_grain(scale: Scale) -> Plan {
    let grains: &[usize] = &[1, 2, 4, 8, 16, 32, 64];
    let (n, max_row) = match scale {
        Scale::Tiny => (256, 64),
        Scale::Small => (2048, 2048),
    };
    let wls: Vec<Arc<dyn Workload>> = grains
        .iter()
        .map(|&g| Arc::new(Spmv::new(n, max_row, g, SEED)) as Arc<dyn Workload>)
        .collect();
    let tasks: Vec<u64> = wls.iter().map(|wl| wl.info().tasks).collect();
    let grains: Vec<usize> = grains.to_vec();
    let jobs = wls
        .iter()
        .flat_map(|wl| delta_vs_static(wl, TILES))
        .collect();
    Plan::new("fig_grain", scale, jobs, move |outcomes| {
        let results = completed(outcomes);
        let mut table = Table::new(&["rows/task", "tasks", "delta cyc", "static cyc", "speedup"]);
        for ((&g, &t), pair) in grains.iter().zip(&tasks).zip(results.chunks(2)) {
            let (d, s) = (pair[0], pair[1]);
            table.row(vec![
                g.to_string(),
                t.to_string(),
                d.cycles.to_string(),
                s.cycles.to_string(),
                fmt_x(s.cycles as f64 / d.cycles as f64),
            ]);
        }
        (table, Vec::new())
    })
}

/// `fig_imbalance` — per-tile busy cycles under both designs.
fn plan_imbalance(scale: Scale) -> Plan {
    let wls = stocks(scale, &["spmv", "bfs"]);
    let jobs = wls
        .iter()
        .flat_map(|wl| delta_vs_static(wl, TILES))
        .collect();
    Plan::new("fig_imbalance", scale, jobs, move |outcomes| {
        let results = completed(outcomes);
        let mut table = Table::new(&[
            "workload",
            "design",
            "per-tile busy (max/mean)",
            "imbalance",
        ]);
        let mut res = results.iter();
        for wl in &wls {
            for design in ["delta", "static"] {
                let r = res.next().unwrap();
                let busy = r.tile_busy();
                let max = busy.iter().cloned().fold(0.0f64, f64::max);
                let mean = busy.iter().sum::<f64>() / busy.len() as f64;
                table.row(vec![
                    wl.name().into(),
                    design.into(),
                    format!("{max:.0}/{mean:.0}"),
                    format!("{:.2}", r.load_imbalance()),
                ]);
            }
        }
        (table, Vec::new())
    })
}

/// `fig_noc` — DRAM words and NoC flit-hops with and without multicast.
fn plan_noc(scale: Scale) -> Plan {
    let wls = stocks(scale, &["dtree", "kmeans", "hash_join"]);
    let unicast = Features {
        pipelining: true,
        multicast: false,
    };
    let mut jobs = Vec::new();
    for wl in &wls {
        jobs.push(job(wl, DeltaConfig::delta(TILES)));
        jobs.push(job(wl, DeltaConfig::delta(TILES).with_features(unicast)));
    }
    Plan::new("fig_noc", scale, jobs, move |outcomes| {
        let results = completed(outcomes);
        let mut table = Table::new(&[
            "workload",
            "dram rd (mc)",
            "dram rd (uni)",
            "saved",
            "hops (mc)",
            "hops (uni)",
        ]);
        for (wl, pair) in wls.iter().zip(results.chunks(2)) {
            let (with, without) = (pair[0], pair[1]);
            let rd_mc = with.counters.dram.read_words as f64;
            let rd_uni = without.counters.dram.read_words as f64;
            table.row(vec![
                wl.name().into(),
                format!("{rd_mc:.0}"),
                format!("{rd_uni:.0}"),
                format!("{:.0}%", 100.0 * (1.0 - rd_mc / rd_uni.max(1.0))),
                format!("{:.0}", with.noc_hops()),
                format!("{:.0}", without.noc_hops()),
            ]);
        }
        (table, Vec::new())
    })
}

/// `fig_policy` — placement-policy comparison on skewed workloads
/// (other mechanisms held on). Cells are slowdown relative to
/// work-aware; `least-queued` isolates the value of the *work* hint
/// (it balances task counts but not task sizes).
fn plan_policy(scale: Scale) -> Plan {
    let wls = stocks(scale, &["spmv", "bfs"]);
    let mut jobs = Vec::new();
    for wl in &wls {
        for pol in std::iter::once(Policy::WorkAware).chain(Policy::ALL) {
            jobs.push(job(wl, DeltaConfig::delta(TILES).with_policy(pol)));
        }
    }
    Plan::new("fig_policy", scale, jobs, move |outcomes| {
        let results = completed(outcomes);
        let mut table = Table::new(&[
            "workload",
            "work-aware",
            "least-queued",
            "round-robin",
            "random",
            "static-hash",
        ]);
        for (wl, group) in wls.iter().zip(results.chunks(1 + Policy::ALL.len())) {
            let base = group[0];
            let mut cells = vec![wl.name().to_string()];
            for r in &group[1..] {
                cells.push(fmt_x(r.cycles as f64 / base.cycles as f64));
            }
            table.row(cells);
        }
        (table, Vec::new())
    })
}

/// A single-knob sweep over a few stock workloads: one table row per
/// (workload, swept value), with the cycles and their ratio to the
/// workload's base run.
struct Knob<K> {
    /// Catalogue names of the swept workloads.
    workloads: &'static [&'static str],
    /// A setting run first as every workload's base; its own row is not
    /// shown. Without one, the first swept value is the base.
    base: Option<K>,
    /// The swept settings, one row each.
    values: Vec<K>,
    /// Applies one setting to the Delta preset.
    set: fn(DeltaConfigBuilder, K) -> DeltaConfigBuilder,
    /// Column headers: workload, setting, cycles, ratio.
    headers: [&'static str; 4],
    /// The ratio column from (base cycles, row cycles).
    ratio: fn(f64, f64) -> f64,
}

/// Plans a [`Knob`] sweep: for each workload, the base job (if any) and
/// then one job per swept value.
fn plan_knob<K: Copy + ToString + Send + 'static>(
    id: &'static str,
    scale: Scale,
    knob: Knob<K>,
) -> Plan {
    let wls = stocks(scale, knob.workloads);
    let settings: Vec<K> = knob.base.iter().chain(&knob.values).copied().collect();
    let mut jobs = Vec::new();
    for wl in &wls {
        for &v in &settings {
            jobs.push(job(wl, (knob.set)(DeltaConfig::builder(TILES), v).build()));
        }
    }
    let lead = usize::from(knob.base.is_some());
    Plan::new(id, scale, jobs, move |outcomes| {
        let results = completed(outcomes);
        let mut table = Table::new(&knob.headers);
        for (wl, group) in wls.iter().zip(results.chunks(settings.len())) {
            let base = group[0].cycles as f64;
            for (&v, r) in knob.values.iter().zip(&group[lead..]) {
                table.row(vec![
                    wl.name().into(),
                    v.to_string(),
                    r.cycles.to_string(),
                    fmt_x((knob.ratio)(base, r.cycles as f64)),
                ]);
            }
        }
        (table, Vec::new())
    })
}

/// `fig_window` — dispatcher lookahead-window ablation (a design
/// choice of this implementation: how far into the pending queue the
/// dispatcher searches for ready/placeable tasks, multicast sharers and
/// pipe chains).
fn plan_window(scale: Scale) -> Plan {
    let knob = Knob {
        workloads: &["dtree", "bfs"],
        base: Some(32),
        values: vec![1, 4, 16, 32, 64],
        set: DeltaConfigBuilder::dispatch_window,
        headers: ["workload", "window", "cycles", "vs 32"],
        ratio: |base, cycles| base / cycles,
    };
    plan_knob("fig_window", scale, knob)
}

/// `fig_prefetch` — stream prefetch-depth ablation (how many queue
/// positions may issue DRAM streams; deep prefetch steals bandwidth
/// from the running task).
fn plan_prefetch(scale: Scale) -> Plan {
    let knob = Knob {
        workloads: &["spmv", "gemm"],
        base: Some(2),
        values: vec![1, 2, 4],
        set: DeltaConfigBuilder::prefetch_depth,
        headers: ["workload", "depth", "cycles", "vs 2"],
        ratio: |base, cycles| base / cycles,
    };
    plan_knob("fig_prefetch", scale, knob)
}

/// `fig_queue` — tile task-queue depth sensitivity (Delta).
fn plan_queue(scale: Scale) -> Plan {
    let knob = Knob {
        workloads: &["spmv", "hash_join"],
        base: Some(4),
        values: vec![1, 2, 4, 8],
        set: DeltaConfigBuilder::tile_queue,
        headers: ["workload", "depth", "cycles", "vs depth=4"],
        ratio: |base, cycles| base / cycles,
    };
    plan_knob("fig_queue", scale, knob)
}

/// `fig_batch` — multicast batching-window ablation (how long a shared
/// read waits for sharers to join before it starts streaming).
fn plan_batch(scale: Scale) -> Plan {
    let windows: Vec<u64> = vec![0, 8, 24, 64, 256];
    let wl = stock(scale, "dtree");
    let jobs = std::iter::once(24)
        .chain(windows.iter().copied())
        .map(|w| {
            job(
                &wl,
                DeltaConfig::builder(TILES).mcast_batch_window(w).build(),
            )
        })
        .collect();
    Plan::new("fig_batch", scale, jobs, move |outcomes| {
        let results = completed(outcomes);
        let mut table = Table::new(&["window cyc", "cycles", "dram reads", "vs 24"]);
        let base = results[0];
        for (&w, r) in windows.iter().zip(&results[1..]) {
            table.row(vec![
                w.to_string(),
                r.cycles.to_string(),
                r.counters.dram.read_words.to_string(),
                fmt_x(base.cycles as f64 / r.cycles as f64),
            ]);
        }
        (table, Vec::new())
    })
}

/// `fig_spawn` — task-creation overhead sensitivity (spawn + host
/// notification latency sweep). Dynamically spawning workloads feel
/// this; statically spawned ones shrug it off.
fn plan_spawn(scale: Scale) -> Plan {
    let knob = Knob {
        workloads: &["bfs", "spmv"],
        base: None,
        values: vec![0u64, 12, 48, 192, 768],
        set: |b, lat| b.spawn_latency(lat).host_latency(lat),
        headers: ["workload", "latency", "cycles", "slowdown"],
        ratio: |base, cycles| cycles / base,
    };
    plan_knob("fig_spawn", scale, knob)
}

/// `fig_reconfig` — reconfiguration-cost sensitivity (workloads with
/// multiple task types sharing tiles).
fn plan_reconfig(scale: Scale) -> Plan {
    let knob = Knob {
        workloads: &["hash_join", "merge_sort"],
        base: None,
        values: vec![0u64, 2, 8, 32, 128],
        set: DeltaConfigBuilder::fabric_config_per_pe,
        headers: ["workload", "cfg cyc/PE", "delta cyc", "slowdown"],
        ratio: |base, cycles| cycles / base,
    };
    plan_knob("fig_reconfig", scale, knob)
}

/// `fig_steal` — extension study: can tile-side work stealing replace
/// (or add to) work-aware dispatch? Columns are cycles under: static
/// placement, static + stealing, work-aware, work-aware + stealing.
fn plan_steal(scale: Scale) -> Plan {
    let combos = [
        (Policy::StaticHash, false),
        (Policy::StaticHash, true),
        (Policy::WorkAware, false),
        (Policy::WorkAware, true),
    ];
    let wls = stocks(scale, &["spmv", "bfs"]);
    let mut jobs = Vec::new();
    for wl in &wls {
        for (policy, steal) in combos {
            let cfg = DeltaConfig::builder(TILES)
                .policy(policy)
                .work_stealing(steal)
                .build();
            jobs.push(job(wl, cfg));
        }
    }
    Plan::new("fig_steal", scale, jobs, move |outcomes| {
        let results = completed(outcomes);
        let mut table = Table::new(&[
            "workload",
            "static",
            "static+steal",
            "work-aware",
            "work-aware+steal",
        ]);
        for (wl, group) in wls.iter().zip(results.chunks(combos.len())) {
            let mut cells = vec![wl.name().to_string()];
            for r in group {
                cells.push(r.cycles.to_string());
            }
            table.row(cells);
        }
        (table, Vec::new())
    })
}

/// `fig_lanes` — vector-lane sweep (an extension of the fabric model:
/// up to `lanes` firings retire per cycle). Compute-bound workloads
/// scale until the memory system becomes the wall.
fn plan_lanes(scale: Scale) -> Plan {
    let knob = Knob {
        workloads: &["gemm", "dtree", "spmv"],
        base: None,
        values: vec![1u32, 2, 4, 8],
        set: DeltaConfigBuilder::fabric_lanes,
        headers: ["workload", "lanes", "cycles", "speedup vs 1"],
        ratio: |base, cycles| base / cycles,
    };
    plan_knob("fig_lanes", scale, knob)
}

/// `fig_timeline` — tile-occupancy sparklines over the run (the classic
/// utilization figure): Delta keeps tiles busy; static placement shows
/// the straggler tail / sweep troughs.
fn plan_timeline(scale: Scale) -> Plan {
    let wls = stocks(scale, &["spmv", "bfs"]);
    let jobs = wls
        .iter()
        .flat_map(|wl| delta_vs_static(wl, TILES))
        .collect();
    Plan::new("fig_timeline", scale, jobs, move |outcomes| {
        let results = completed(outcomes);
        let mut table = Table::new(&["workload", "design", "occupancy over time"]);
        let mut res = results.iter();
        for wl in &wls {
            for design in ["delta", "static"] {
                let r = res.next().unwrap();
                table.row(vec![
                    wl.name().into(),
                    design.into(),
                    r.sparkline(TILES, 64),
                ]);
            }
        }
        (table, Vec::new())
    })
}

/// One `fig_faults` design point: the given preset with fault
/// injection scaled off a single knob — `rate` of the tiles fail-stop,
/// transient stalls hit each (tile, epoch) with the same probability,
/// and DRAM retries arrive at a quarter of it. Recovery is what the
/// experiment compares, so it is the one per-side difference.
fn fault_point(cfg: DeltaConfig, rate: f64, recovery: bool, window: u64) -> DeltaConfig {
    let faults = FaultsConfig {
        tile_fail_rate: rate,
        tile_fail_window: window,
        tile_stall_rate: rate,
        dram_retry_rate: rate / 4.0,
        recovery,
        watchdog_timeout: 8_000,
        ..FaultsConfig::none()
    };
    // Tight enough that a wedged baseline gives up quickly, loose
    // enough that recovery backoff (cap 4096) never trips it.
    cfg.to_builder().faults(faults).stall_limit(80_000).build()
}

/// The cycle window fail-stops are drawn from (1..=window) in fault
/// runs: inside the run at either scale, so every swept rate actually
/// injects.
fn fail_window(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 256,
        Scale::Small => 8192,
    }
}

/// `fig_faults` — graceful degradation under injected faults: Delta
/// with task-level recovery vs the static-parallel baseline, sweeping
/// the fault rate (see [`fault_point`]). Both sides see the *same*
/// seeded fault schedule; "lost" is the cycle cost relative to the
/// same design at rate 0. Delta routes around dead tiles and finishes
/// (every completed run also validates against the untimed oracle);
/// the baseline keeps hashing tasks onto a fail-stopped tile and
/// wedges, rendered as `wedged`.
fn plan_faults(scale: Scale) -> Plan {
    let rates: Vec<f64> = vec![0.0, 0.125, 0.25, 0.5];
    let (wl, window) = (stock(scale, "spmv"), fail_window(scale));
    let mut jobs = Vec::new();
    for &r in &rates {
        let delta = fault_point(DeltaConfig::delta(TILES), r, true, window);
        let baseline = fault_point(DeltaConfig::static_parallel(TILES), r, false, window);
        jobs.push(SweepJob {
            faulted: true,
            ..job(&wl, delta)
        });
        jobs.push(SweepJob {
            baseline: true,
            faulted: true,
            ..job(&wl, baseline)
        });
    }
    Plan::new("fig_faults", scale, jobs, move |outcomes| {
        let delta_base = outcomes[0]
            .report()
            .expect("fault-free delta run cannot wedge")
            .cycles;
        let static_base = outcomes[1]
            .report()
            .expect("fault-free baseline run cannot wedge")
            .cycles;
        let mut table = Table::new(&[
            "fail rate",
            "delta cyc",
            "delta lost",
            "redispatched",
            "static cyc",
            "static lost",
        ]);
        for (&r, pair) in rates.iter().zip(outcomes.chunks(2)) {
            let d = pair[0]
                .report()
                .expect("delta with recovery must not wedge");
            let (s_cyc, s_lost) = match &pair[1] {
                FaultOutcome::Completed(s) => (
                    s.cycles.to_string(),
                    s.cycles.saturating_sub(static_base).to_string(),
                ),
                FaultOutcome::Wedged { .. } => ("wedged".into(), "wedged".into()),
            };
            table.row(vec![
                format!("{r:.3}"),
                d.cycles.to_string(),
                d.cycles.saturating_sub(delta_base).to_string(),
                d.faults.tasks_redispatched.to_string(),
                s_cyc,
                s_lost,
            ]);
        }
        (table, Vec::new())
    })
}

/// `fig_tenancy` — multi-tenant co-residency QoS: tenant count ×
/// arrival rate under both partitioning policies, with the admission
/// gate on. Each grid point runs the co-resident request server plus
/// one isolated run per tenant (the same query stream, re-homed alone
/// on the machine), and reports per-tenant p50/p99 latency, the
/// slowdown each tenant pays for co-residency, and a per-config
/// fairness figure (min/max slowdown across tenants; 1.000 = every
/// tenant pays the same). Extras carry per-tenant deterministic
/// tallies (`tenant_*`) that the bench-json perf gate locks down.
fn plan_tenancy(scale: Scale) -> Plan {
    // paced rows use a period long enough that admission pacing (not
    // fabric contention) is the dominant queueing effect; flood rows
    // (period 0) exercise the admission gate under overload
    let (period, admit) = match scale {
        Scale::Tiny => (64, 6),
        Scale::Small => (192, 12),
    };
    let grid: Vec<(usize, u64)> = vec![(2, 0), (2, period), (4, 0), (4, period)];
    let parts = [PartitionPolicy::Shared, PartitionPolicy::Spatial];
    let mut jobs = Vec::new();
    let mut insts: Vec<(usize, u64, Arc<RequestServer>)> = Vec::new();
    for &(tenants, p) in &grid {
        let wl = Arc::new(request_server(scale, tenants, p));
        // isolated baselines: a lone tenant owns the whole machine
        // under either policy, so one (shared-fabric) run per tenant
        // serves both partitioning rows
        for t in 0..tenants {
            let iso = wl.isolated(t);
            let tenancy = iso.tenancy(PartitionPolicy::Shared, admit, DrainPolicy::Block);
            let iso: Arc<dyn Workload> = Arc::new(iso);
            jobs.push(job(
                &iso,
                DeltaConfig::builder(TILES).tenancy(tenancy).build(),
            ));
        }
        let co: Arc<dyn Workload> = wl.clone();
        for part in parts {
            let tenancy = wl.tenancy(part, admit, DrainPolicy::Block);
            jobs.push(job(
                &co,
                DeltaConfig::builder(TILES).tenancy(tenancy).build(),
            ));
        }
        insts.push((tenants, p, wl));
    }
    Plan::new("fig_tenancy", scale, jobs, move |outcomes| {
        let results = completed(outcomes);
        let mut table = Table::new(&[
            "tenants",
            "arrival",
            "partition",
            "tenant",
            "p50",
            "p99",
            "iso p50",
            "slowdown",
            "completed",
            "gate holds",
        ]);
        let mut extras = Vec::new();
        let mut off = 0;
        for (tenants, p, wl) in insts {
            let iso = &results[off..off + tenants];
            off += tenants;
            let arrival = if p == 0 {
                "flood".to_string()
            } else {
                format!("1/{p}")
            };
            for part in ["shared", "spatial"] {
                let co = results[off];
                off += 1;
                let mut slows = Vec::new();
                let mut done = Vec::new();
                let mut holds = Vec::new();
                for (t, iso_run) in iso.iter().enumerate() {
                    let stat = &co.counters.tenants[t];
                    let iso_p50 = iso_run.counters.tenants[0].p50_latency;
                    let p50 = stat.p50_latency;
                    let slow = p50 as f64 / iso_p50.max(1) as f64;
                    let completed = stat.completed;
                    assert_eq!(
                        completed as usize, wl.tenants[t].queries,
                        "tenant {t} starved under {part} ({arrival})"
                    );
                    table.row(vec![
                        tenants.to_string(),
                        arrival.clone(),
                        part.into(),
                        t.to_string(),
                        p50.to_string(),
                        stat.p99_latency.to_string(),
                        iso_p50.to_string(),
                        fmt_x(slow),
                        completed.to_string(),
                        stat.gate_holds.to_string(),
                    ]);
                    slows.push(slow);
                    done.push(completed.to_string());
                    holds.push(stat.gate_holds.to_string());
                }
                let worst = slows.iter().copied().fold(f64::MIN, f64::max);
                let best = slows.iter().copied().fold(f64::MAX, f64::min);
                let label = format!("{tenants}t.{arrival}.{part}");
                extras.push((format!("fairness.{label}"), format!("{:.3}", best / worst)));
                extras.push((format!("tenant_completed.{label}"), done.join(",")));
                extras.push((format!("tenant_gate_holds.{label}"), holds.join(",")));
            }
        }
        (table, extras)
    })
}

/// `fig_streams` — the second-generation streaming-graph workloads
/// (authored natively on the `ts-graph` declarative frontend): Delta
/// vs. the equivalent static-parallel design, with the direct/spilled
/// pipe split that shows how much of each chain the scheduler managed
/// to co-schedule.
fn plan_streams(scale: Scale) -> Plan {
    let wls = stocks(scale, STREAMS_SUITE);
    let jobs = wls
        .iter()
        .flat_map(|wl| delta_vs_static(wl, TILES))
        .collect();
    Plan::new("fig_streams", scale, jobs, move |outcomes| {
        let results = completed(outcomes);
        let mut table = Table::new(&[
            "workload",
            "delta cyc",
            "static cyc",
            "speedup",
            "pipes direct",
            "pipes spilled",
        ]);
        let mut speedups = Vec::new();
        for (wl, pair) in wls.iter().zip(results.chunks(2)) {
            let (d, s) = (pair[0], pair[1]);
            let sp = s.cycles as f64 / d.cycles as f64;
            speedups.push(sp);
            table.row(vec![
                wl.name().into(),
                d.cycles.to_string(),
                s.cycles.to_string(),
                fmt_x(sp),
                d.counters.tile_total().pipes_direct.to_string(),
                d.counters.tile_total().pipes_spilled.to_string(),
            ]);
        }
        let g = geomean(&speedups);
        table.row(vec![
            "geomean".into(),
            "-".into(),
            "-".into(),
            fmt_x(g),
            "-".into(),
            "-".into(),
        ]);
        let extras = vec![("geomean".to_string(), fmt_x(g))];
        (table, extras)
    })
}

/// `tbl_workloads` — workload characteristics (no simulations).
fn plan_workloads(scale: Scale) -> Plan {
    let mut table = Table::new(&["workload", "tasks", "elements", "grain", "stresses"]);
    for wl in stocks(scale, SUITE) {
        let i = wl.info();
        table.row(vec![
            i.name.into(),
            i.tasks.to_string(),
            i.elements.to_string(),
            i.grain.to_string(),
            i.stresses.into(),
        ]);
    }
    Plan::immediate("tbl_workloads", scale, table)
}

/// `tbl_config` — architecture parameters of the evaluated design
/// (no simulations).
fn plan_config(scale: Scale) -> Plan {
    let c = DeltaConfig::delta(TILES);
    let (w, h) = c.mesh_dims();
    let mut table = Table::new(&["parameter", "value"]);
    let mut kv = |k: &str, v: String| table.row(vec![k.into(), v]);
    kv("tiles", c.tiles.to_string());
    kv(
        "fabric per tile",
        format!(
            "{}x{} PEs, mul/div every {}",
            c.fabric.rows, c.fabric.cols, c.fabric.muldiv_every
        ),
    );
    kv(
        "fabric reconfig",
        format!("{} cycles", c.fabric.config_cycles()),
    );
    kv(
        "scratchpad",
        format!("{} KiB @ {} acc/cyc", c.spad_words * 8 / 1024, c.spad_bw),
    );
    kv(
        "mesh",
        format!("{w}x{h} (tiles + {} mem ctrls)", c.mem_ctrls),
    );
    kv(
        "dram",
        format!(
            "{} w/cyc, {} cyc latency, gather x{}",
            c.dram.words_per_cycle, c.dram.latency, c.dram.gather_cost
        ),
    );
    kv("task queue/tile", c.tile_queue.to_string());
    kv(
        "dispatch",
        format!("{}/cyc, window {}", c.dispatch_per_cycle, c.dispatch_window),
    );
    kv(
        "spawn/host latency",
        format!("{}/{} cycles", c.spawn_latency, c.host_latency),
    );
    kv(
        "multicast batch window",
        format!("{} cycles", c.mcast_batch_window),
    );
    Plan::immediate("tbl_config", scale, table)
}

/// `tbl_energy` — per-workload energy, Delta vs static-parallel
/// (analytical event-energy model; see `ts_delta::energy`).
fn plan_energy(scale: Scale) -> Plan {
    let wls = stocks(scale, SUITE);
    let jobs: Vec<SweepJob> = wls
        .iter()
        .flat_map(|wl| delta_vs_static(wl, TILES))
        .collect();
    let cfgs: Vec<DeltaConfig> = jobs.iter().map(|j| j.cfg.clone()).collect();
    Plan::new("tbl_energy", scale, jobs, move |outcomes| {
        let uj: Vec<f64> = completed(outcomes)
            .into_iter()
            .zip(&cfgs)
            .map(|(r, cfg)| ts_delta::energy::breakdown(cfg, r).total_uj())
            .collect();
        let mut table = Table::new(&["workload", "delta uJ", "static uJ", "savings"]);
        for (wl, pair) in wls.iter().zip(uj.chunks(2)) {
            let (de, se) = (pair[0], pair[1]);
            table.row(vec![
                wl.name().into(),
                format!("{de:.1}"),
                format!("{se:.1}"),
                format!("{:.0}%", 100.0 * (1.0 - de / se)),
            ]);
        }
        (table, Vec::new())
    })
}

/// `tbl_area` — analytical area breakdown and the TaskStream overhead
/// (no simulations).
fn plan_area(scale: Scale) -> Plan {
    let b = area::breakdown(&DeltaConfig::delta(TILES));
    let mut table = Table::new(&["component", "mm2", "taskstream"]);
    for item in &b.items {
        table.row(vec![
            item.name.into(),
            format!("{:.3}", item.mm2),
            if item.taskstream { "yes" } else { "" }.into(),
        ]);
    }
    table.row(vec![
        "total".into(),
        format!("{:.3}", b.total_mm2()),
        "".into(),
    ]);
    table.row(vec![
        "taskstream overhead".into(),
        format!("{:.1}%", 100.0 * b.taskstream_overhead()),
        "".into(),
    ]);
    Plan::immediate("tbl_area", scale, table)
}

/// All experiment ids, in report order.
pub const ALL: &[&str] = &[
    "tbl_config",
    "tbl_workloads",
    "fig_overall",
    "fig_ablation",
    "fig_tiles",
    "fig_grain",
    "fig_imbalance",
    "fig_noc",
    "fig_policy",
    "fig_queue",
    "fig_reconfig",
    "fig_window",
    "fig_prefetch",
    "fig_batch",
    "fig_spawn",
    "fig_steal",
    "fig_lanes",
    "fig_timeline",
    "fig_faults",
    "fig_tenancy",
    "fig_streams",
    "tbl_energy",
    "tbl_area",
];

/// The scale's name as recorded in golden documents.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
    }
}

/// Plans one experiment by id: materializes its job grid without
/// running anything. [`run_doc`] executes a single plan; [`run_docs`]
/// merges many plans into one flattened pool.
///
/// # Panics
///
/// Panics on an unknown id (the caller lists [`ALL`]).
pub fn plan(id: &str, scale: Scale) -> Plan {
    match id {
        "tbl_config" => plan_config(scale),
        "tbl_workloads" => plan_workloads(scale),
        "fig_overall" => plan_overall(scale),
        "fig_ablation" => plan_ablation(scale),
        "fig_tiles" => plan_tiles(scale, &[1, 2, 4, 8, 16]),
        "fig_grain" => plan_grain(scale),
        "fig_imbalance" => plan_imbalance(scale),
        "fig_noc" => plan_noc(scale),
        "fig_policy" => plan_policy(scale),
        "fig_queue" => plan_queue(scale),
        "fig_reconfig" => plan_reconfig(scale),
        "fig_window" => plan_window(scale),
        "fig_prefetch" => plan_prefetch(scale),
        "fig_batch" => plan_batch(scale),
        "fig_spawn" => plan_spawn(scale),
        "fig_steal" => plan_steal(scale),
        "fig_lanes" => plan_lanes(scale),
        "fig_timeline" => plan_timeline(scale),
        "fig_faults" => plan_faults(scale),
        "fig_tenancy" => plan_tenancy(scale),
        "fig_streams" => plan_streams(scale),
        "tbl_energy" => plan_energy(scale),
        "tbl_area" => plan_area(scale),
        other => panic!("unknown experiment '{other}' (known: {ALL:?})"),
    }
}

/// Runs one experiment by id and captures it as a diffable
/// [`GoldenDoc`]: headers, every cell, and any trailer values.
///
/// This is the canonical entry point — [`run`] is a rendering of the
/// returned document, and the golden regression gate serializes it.
///
/// # Panics
///
/// Panics on an unknown id (the caller lists [`ALL`]).
pub fn run_doc(id: &str, scale: Scale) -> GoldenDoc {
    let p = plan(id, scale);
    let outcomes = run_jobs(&p.jobs);
    p.finish(&outcomes)
}

/// What [`run_docs`] ran.
#[derive(Debug)]
pub struct Sweep {
    /// Each experiment's document with the outcomes of its own jobs, in
    /// the order the ids were given.
    pub docs: Vec<(GoldenDoc, Vec<FaultOutcome>)>,
    /// Wall-clock seconds of the one [`run_jobs`] call.
    pub run_secs: f64,
}

/// Runs a whole sweep as **one flattened job pool**: plans every id,
/// concatenates all jobs, executes them in a single [`run_jobs`] call
/// (every simulation an independent item), then hands each
/// plan its slice of the order-preserved outcomes. Output is
/// identical to mapping [`run_doc`] over `ids` — the flattening
/// changes wall-clock, never bytes.
///
/// # Panics
///
/// Panics on an unknown id (the caller lists [`ALL`]).
pub fn run_docs(ids: &[&str], scale: Scale) -> Sweep {
    let mut plans: Vec<Plan> = ids.iter().map(|id| plan(id, scale)).collect();
    let counts: Vec<usize> = plans.iter().map(|p| p.jobs.len()).collect();
    let jobs: Vec<SweepJob> = plans.iter_mut().flat_map(|p| p.jobs.drain(..)).collect();
    let t0 = std::time::Instant::now();
    let mut outcomes = run_jobs(&jobs).into_iter();
    let run_secs = t0.elapsed().as_secs_f64();
    let docs = plans
        .into_iter()
        .zip(counts)
        .map(|(p, n)| {
            let own: Vec<FaultOutcome> = outcomes.by_ref().take(n).collect();
            (p.finish(&own), own)
        })
        .collect();
    Sweep { docs, run_secs }
}

/// Renders a captured experiment exactly as [`run`] prints it.
pub fn render_doc(doc: &GoldenDoc) -> String {
    let table = doc.table();
    if doc.id == "fig_overall" {
        format!(
            "{}\n  headline: {} overall, {} on the irregular subset\n",
            table,
            doc.extra("geomean").unwrap_or("?"),
            doc.extra("irregular_geomean").unwrap_or("?")
        )
    } else {
        table.to_string()
    }
}

/// Runs one experiment by id and returns its rendered output.
///
/// # Panics
///
/// Panics on an unknown id (the caller lists [`ALL`]).
pub fn run(id: &str, scale: Scale) -> String {
    render_doc(&run_doc(id, scale))
}

/// The catalogue workload that `repro trace`, `faults` and `whatif` run
/// for experiment `id` (`fig_tenancy` runs its own request server): the
/// multicast-heavy experiments run `dtree`, the stealing experiment
/// `merge_sort`, the streaming-graph experiment `query_plan`, and
/// everything else `spmv`.
fn representative(id: &str) -> &'static str {
    match id {
        "fig_noc" | "fig_batch" => "dtree",
        "fig_steal" => "merge_sort",
        "fig_streams" => "query_plan",
        _ => "spmv",
    }
}

/// Output of `repro faults <experiment>`: one chaos-preset run of the
/// experiment's representative workload, completed, validated, and
/// summarized (see [`fault_run`]).
#[derive(Debug)]
pub struct FaultRun {
    /// The validated report, `report.faults` populated.
    pub report: RunReport,
    /// Name of the workload that ran.
    pub workload: String,
    /// Printable injection/recovery summary.
    pub summary: Table,
}

/// Runs one representative workload of experiment `id` under the
/// all-faults chaos preset ([`FaultsConfig::chaos`], every fault class
/// active, recovery on) and returns the validated report plus a
/// summary table. `fail_rate` overrides the preset's tile fail-stop
/// rate. The workload choice is [`trace_run`]'s.
///
/// # Panics
///
/// Panics on an unknown id, if the run wedges (recovery exists to
/// prevent exactly that), or if the completed run fails validation,
/// conservation, or oracle equivalence.
pub fn fault_run(id: &str, scale: Scale, fail_rate: Option<f64>) -> FaultRun {
    assert!(
        ALL.contains(&id),
        "unknown experiment '{id}' (known: {ALL:?})"
    );
    // fig_tenancy's chaos run is the fault-storm case: two flooding
    // co-resident tenants on a shared fabric with the admission gate
    // on, so one tenant's re-dispatch storm cannot starve its
    // neighbor — asserted below on per-tenant completion counts
    type StormSpec = (TenancyConfig, Vec<u64>);
    let (wl, tenancy): (Arc<dyn Workload>, Option<StormSpec>) = if id == "fig_tenancy" {
        let w = request_server(scale, 2, 0);
        let tc = w.tenancy(PartitionPolicy::Shared, 4, DrainPolicy::Block);
        let offered = w.tenants.iter().map(|l| l.queries as u64).collect();
        (Arc::new(w), Some((tc, offered)))
    } else {
        (stock(scale, representative(id)), None)
    };
    let faults = FaultsConfig {
        tile_fail_rate: fail_rate.unwrap_or(FaultsConfig::chaos().tile_fail_rate),
        // keep the fail-stop window inside the run at test scale so
        // the smoke actually exercises victimization and re-dispatch
        tile_fail_window: fail_window(scale),
        ..FaultsConfig::chaos()
    };
    let mut b = seeded(DeltaConfig::delta(TILES), wl.as_ref())
        .to_builder()
        .faults(faults)
        .stall_limit(200_000);
    if let Some((tc, _)) = &tenancy {
        b = b.tenancy(tc.clone());
    }
    let cfg = b.build();
    let report = match run_faulted(wl.as_ref(), cfg, false) {
        FaultOutcome::Completed(r) => *r,
        FaultOutcome::Wedged { cycles } => {
            panic!("chaos run of {id} wedged at cycle {cycles} despite recovery")
        }
    };
    let f = &report.faults;
    let mut summary = Table::new(&["metric", "value"]);
    let mut kv = |k: &str, v: String| summary.row(vec![k.into(), v]);
    kv("workload", wl.name().into());
    kv("cycles", report.cycles.to_string());
    kv("tasks completed", report.tasks_completed.to_string());
    kv("tile fail-stops", f.tile_fail_stops.to_string());
    kv("tile stalls", f.tile_stalls.to_string());
    kv(
        "noc flits lost",
        format!(
            "{} ({} dropped, {} corrupted)",
            f.noc_flits_dropped + f.noc_flits_corrupted,
            f.noc_flits_dropped,
            f.noc_flits_corrupted
        ),
    );
    kv("dram retries", f.dram_retries.to_string());
    kv("faults injected", f.injected().to_string());
    kv("watchdog fires", f.watchdog_fires.to_string());
    kv("tasks redispatched", f.tasks_redispatched.to_string());
    kv("pipe replays", f.pipe_replays.to_string());
    kv("backoff cycles", f.backoff_cycles.to_string());
    kv("wasted cycles", f.wasted_cycles.to_string());
    kv("cycles lost to recovery", f.cycles_lost().to_string());
    if let Some((_, offered)) = &tenancy {
        for (t, &want) in offered.iter().enumerate() {
            let got = report.counters.tenants[t].completed;
            assert_eq!(
                got, want,
                "tenant {t} starved under the fault storm ({got}/{want} queries)"
            );
            kv(&format!("tenant {t} completed"), format!("{got}/{want}"));
        }
    }
    FaultRun {
        workload: wl.name().to_string(),
        report,
        summary,
    }
}

/// A single traced simulation of an experiment's representative
/// workload (see [`trace_run`]).
#[derive(Debug)]
pub struct TraceRun {
    /// The validated report, with `report.trace` populated.
    pub report: RunReport,
    /// Name of the workload that ran.
    pub workload: String,
    /// The exact configuration used (mesh dims, tile count).
    pub cfg: DeltaConfig,
    /// The program's task-type names, indexed by the type indices that
    /// appear in the trace (for labelling what-if tables).
    pub type_names: Vec<String>,
}

/// Runs one representative workload of experiment `id` with event
/// tracing enabled and returns the traced, validated report.
///
/// Tracing a whole sweep grid would interleave streams meaninglessly,
/// so `repro --trace` records one simulation chosen to exercise what
/// the experiment is about: the multicast-heavy experiments trace
/// `dtree`, the stealing experiment traces `merge_sort` with stealing
/// on, everything else traces `spmv`. Traced runs never touch the
/// result cache.
///
/// # Panics
///
/// Panics on an unknown id (the caller lists [`ALL`]).
pub fn trace_run(id: &str, scale: Scale) -> TraceRun {
    assert!(
        ALL.contains(&id),
        "unknown experiment '{id}' (known: {ALL:?})"
    );
    let (wl, tenancy): (Arc<dyn Workload>, Option<TenancyConfig>) = if id == "fig_tenancy" {
        // trace the thing the experiment is about: co-resident
        // paced tenants (TaskTenant events tag every spawn)
        let period = match scale {
            Scale::Tiny => 64,
            Scale::Small => 192,
        };
        let w = request_server(scale, 2, period);
        let tc = w.tenancy(PartitionPolicy::Shared, 6, DrainPolicy::Block);
        (Arc::new(w), Some(tc))
    } else {
        (stock(scale, representative(id)), None)
    };
    let mut b = seeded(DeltaConfig::delta(TILES), wl.as_ref())
        .to_builder()
        .trace(true);
    if id == "fig_steal" {
        b = b.work_stealing(true);
    }
    if let Some(tc) = tenancy {
        b = b.tenancy(tc);
    }
    if id == "fig_faults" {
        // trace the thing the experiment is about: a run with live
        // fault injection and recovery (chaos preset)
        b = b.faults(FaultsConfig::chaos()).stall_limit(200_000);
    }
    let cfg = b.build();
    let type_names = wl
        .make_program()
        .task_types()
        .iter()
        .map(|t| t.name.clone())
        .collect();
    let report = crate::run_validated(wl.as_ref(), cfg.clone(), false);
    TraceRun {
        report,
        workload: wl.name().to_string(),
        cfg,
        type_names,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::parse_x;

    #[test]
    fn static_tables_render() {
        assert!(run("tbl_config", Scale::Tiny).contains("tiles"));
        assert!(run("tbl_area", Scale::Tiny).contains("taskstream overhead"));
        assert_eq!(run_doc("tbl_workloads", Scale::Tiny).rows.len(), 9);
    }

    #[test]
    fn overall_tiny_has_sane_shape() {
        let doc = run_doc("fig_overall", Scale::Tiny);
        let g = parse_x(doc.extra("geomean").expect("geomean extra")).expect("parsable");
        let gi = parse_x(doc.extra("irregular_geomean").expect("extra")).expect("parsable");
        assert!(g > 0.8, "geomean {g} collapsed");
        assert!(gi >= g * 0.9);
        assert_eq!(doc.rows.len(), 11); // 9 workloads + 2 geomean rows
    }

    #[test]
    fn flattened_sweep_matches_per_experiment_runs() {
        // The global-pool path must change wall-clock, never bytes.
        let ids = ["tbl_config", "fig_noc", "tbl_workloads"];
        let merged = run_docs(&ids, Scale::Tiny);
        for (id, (doc, outcomes)) in ids.iter().zip(&merged.docs) {
            assert_eq!(doc, &run_doc(id, Scale::Tiny));
            assert_eq!(outcomes.len(), plan(id, Scale::Tiny).jobs.len());
        }
    }

    /// Every tiny plan except the two that build their own instances
    /// (`fig_grain`'s re-grained SpMVs, `fig_tenancy`'s request
    /// servers) takes its workloads from the catalogue: each job holds
    /// the one shared `Arc` for its name, so a warm sweep fingerprints
    /// each stock program once.
    #[test]
    fn plans_share_the_catalogue_workloads() {
        for id in ALL {
            if matches!(*id, "fig_grain" | "fig_tenancy") {
                continue;
            }
            for j in plan(id, Scale::Tiny).jobs {
                let shared = stock(Scale::Tiny, j.wl.name());
                assert!(Arc::ptr_eq(&j.wl, &shared), "{id}: {}", j.wl.name());
            }
        }
    }

    #[test]
    fn run_rejects_unknown_id() {
        let err = std::panic::catch_unwind(|| run("nope", Scale::Tiny));
        assert!(err.is_err());
    }

    #[test]
    fn derive_seed_is_stable_and_key_sensitive() {
        assert_eq!(derive_seed(SEED, "spmv"), derive_seed(SEED, "spmv"));
        assert_ne!(derive_seed(SEED, "spmv"), derive_seed(SEED, "bfs"));
        assert_ne!(derive_seed(SEED, "spmv"), derive_seed(SEED + 1, "spmv"));
    }
}
