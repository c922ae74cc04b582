//! Causal validation of the what-if profiler.
//!
//! A virtual-speedup prediction is only worth printing if it agrees
//! with reality, so these tests close the loop: make a prediction from
//! one traced run, then actually re-run the workload with the
//! corresponding `DeltaConfig` change and compare the measured
//! speedup against the predicted one.
//!
//! Stated tolerance: the profiler's model treats queue contention and
//! overlap effects only through the calibrated Brent bound, so
//! predictions are accepted within 15% relative error of the measured
//! speedup (and the zero-query identity must be exact — the simulator
//! is deterministic).

use ts_bench::run_validated;
use ts_delta::whatif::{EdgeKind, Query, WhatIf};
use ts_delta::DeltaConfig;
use ts_workloads::{dtree::DTree, merge_sort::MergeSort, spmv::Spmv, Workload};

/// Relative error allowed between a predicted and a measured speedup.
const TOLERANCE: f64 = 0.15;

/// Traced run under `cfg`: the reconstructed DAG plus measured cycles.
fn profiled(wl: &dyn Workload, cfg: &DeltaConfig) -> (WhatIf, u64) {
    let cfg = DeltaConfig {
        trace: true,
        ..cfg.clone()
    };
    let report = run_validated(wl, cfg.clone(), false);
    assert_eq!(report.trace_dropped, 0, "trace ring overflowed");
    let w = WhatIf::from_trace(&report.trace, cfg.tiles, report.cycles);
    assert_eq!(
        w.clamped_segments, 0,
        "a real trace violated the segment identities"
    );
    (w, report.cycles)
}

fn assert_confirmed(label: &str, predicted: f64, measured: f64) {
    let err = (predicted - measured).abs() / measured;
    assert!(
        err <= TOLERANCE,
        "{label}: predicted {predicted:.3}x but measured {measured:.3}x \
         (relative error {:.1}% > {:.0}%)",
        err * 100.0,
        TOLERANCE * 100.0
    );
}

/// spmv with the spawn/host handoff made expensive, so the spawn path
/// carries real weight: the `SpawnScale` prediction must match a
/// re-run whose spawn and host latencies are actually halved.
#[test]
fn spawn_speedup_prediction_matches_a_reconfigured_run() {
    let wl = Spmv::tiny(42);
    let base = DeltaConfig {
        seed: 42,
        spawn_latency: 96,
        host_latency: 96,
        ..DeltaConfig::delta(8)
    };
    let (w, base_cycles) = profiled(&wl, &base);

    let predicted = w.evaluate(&[Query::SpawnScale { factor: 2.0 }]).speedup;
    let halved = DeltaConfig {
        spawn_latency: 48,
        host_latency: 48,
        ..base
    };
    let measured = base_cycles as f64 / run_validated(&wl, halved, false).cycles as f64;

    assert!(
        measured > 1.02,
        "the experiment is vacuous: halving spawn latency only gave {measured:.3}x"
    );
    assert_confirmed("spmv spawn/host 2x", predicted, measured);
}

/// dtree with slow DRAM, so tasks accumulate input stalls: the
/// `MemScale` prediction must match a re-run whose DRAM latency is
/// actually halved.
#[test]
fn memory_speedup_prediction_matches_a_reconfigured_run() {
    let wl = DTree::tiny(42);
    let mut base = DeltaConfig {
        seed: 42,
        ..DeltaConfig::delta(8)
    };
    base.dram.latency = 160;
    let (w, base_cycles) = profiled(&wl, &base);

    let predicted = w.evaluate(&[Query::MemScale { factor: 2.0 }]).speedup;
    let mut halved = base;
    halved.dram.latency = 80;
    let measured = base_cycles as f64 / run_validated(&wl, halved, false).cycles as f64;

    assert!(
        measured > 1.02,
        "the experiment is vacuous: halving DRAM latency only gave {measured:.3}x"
    );
    assert_confirmed("dtree memory 2x", predicted, measured);
}

/// Staged merge_sort (the steal-friendly, pipe-free tree) under static
/// placement with work stealing on, so leaves pile up behind hash
/// collisions and idle tiles pull them over: the reconstructed DAG
/// must carry steal edges for the landed steals, and the `SpawnScale`
/// prediction must stay causal on the steal-heavy trace — the
/// regression this guards against is the profiler omitting transfer
/// latency from critical paths through stolen tasks.
#[test]
fn steal_heavy_run_carries_steal_edges_and_stays_causal() {
    use taskstream_model::Policy;

    let wl = MergeSort::staged(32, 32, 42);
    let base = DeltaConfig {
        seed: 42,
        policy: Policy::StaticHash,
        work_stealing: true,
        prefetch_depth: 1,
        spawn_latency: 96,
        host_latency: 96,
        ..DeltaConfig::delta(8)
    };
    let (w, base_cycles) = profiled(&wl, &base);

    assert!(
        w.steals > 0,
        "the experiment is vacuous: no steal landed under static placement"
    );
    let steal_edges = w.edges.iter().filter(|e| e.kind == EdgeKind::Steal).count();
    assert!(
        steal_edges > 0,
        "{} steal(s) landed but the DAG has no steal edge",
        w.steals
    );

    let predicted = w.evaluate(&[Query::SpawnScale { factor: 2.0 }]).speedup;
    let halved = DeltaConfig {
        spawn_latency: 48,
        host_latency: 48,
        ..base
    };
    let measured = base_cycles as f64 / run_validated(&wl, halved, false).cycles as f64;
    assert!(
        measured > 1.02,
        "the experiment is vacuous: halving spawn latency only gave {measured:.3}x"
    );
    assert_confirmed("merge_sort+steal spawn/host 2x", predicted, measured);
}

/// The empty query is an identity, and the simulator is deterministic:
/// re-running the unchanged configuration must reproduce the cycle
/// count exactly, and the profiler must predict exactly 1.0x.
#[test]
fn null_prediction_is_exact_on_an_unchanged_rerun() {
    let wl = Spmv::tiny(7);
    let base = DeltaConfig {
        seed: 7,
        ..DeltaConfig::delta(8)
    };
    let (w, base_cycles) = profiled(&wl, &base);

    let p = w.evaluate(&[]);
    assert!((p.speedup - 1.0).abs() < 1e-9);
    let rerun = run_validated(&wl, base, false).cycles;
    assert_eq!(base_cycles, rerun, "determinism broke");
}
