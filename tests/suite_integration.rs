//! Cross-crate integration: every workload, both designs, end-to-end.

use taskstream::delta::{Accelerator, DeltaConfig, Features};
use taskstream::model::Policy;
use taskstream::sim::stats::geomean;
use taskstream::workloads::{suite, Scale, Workload};

fn run(wl: &dyn Workload, cfg: DeltaConfig, baseline: bool) -> taskstream::delta::RunReport {
    let mut p = if baseline {
        wl.make_baseline_program()
    } else {
        wl.make_program()
    };
    let r = Accelerator::new(cfg)
        .run(p.as_mut())
        .unwrap_or_else(|e| panic!("{}: {e}", wl.name()));
    wl.validate(&r)
        .unwrap_or_else(|e| panic!("{}: {e}", wl.name()));
    r
}

#[test]
fn every_workload_validates_on_delta() {
    for wl in suite(Scale::Tiny, 7) {
        run(wl.as_ref(), DeltaConfig::delta(8), false);
    }
}

#[test]
fn every_workload_validates_on_the_static_baseline() {
    for wl in suite(Scale::Tiny, 8) {
        run(wl.as_ref(), DeltaConfig::static_parallel(8), true);
    }
}

#[test]
fn every_workload_validates_with_each_mechanism_alone() {
    // work-aware placement alone, then each data-movement mechanism
    // alone on a work-oblivious placement
    let singles = [
        (Policy::WorkAware, Features::none()),
        (
            Policy::RoundRobin,
            Features {
                pipelining: true,
                multicast: false,
            },
        ),
        (
            Policy::RoundRobin,
            Features {
                pipelining: false,
                multicast: true,
            },
        ),
    ];
    for (policy, features) in singles {
        for wl in suite(Scale::Tiny, 9) {
            let cfg = DeltaConfig {
                policy,
                features,
                ..DeltaConfig::delta(4)
            };
            run(wl.as_ref(), cfg, false);
        }
    }
}

#[test]
fn suite_is_deterministic() {
    for wl in suite(Scale::Tiny, 10) {
        let a = run(wl.as_ref(), DeltaConfig::delta(4), false);
        let b = run(wl.as_ref(), DeltaConfig::delta(4), false);
        assert_eq!(a.cycles, b.cycles, "{} not deterministic", wl.name());
        assert_eq!(a.tasks_completed, b.tasks_completed);
    }
}

#[test]
fn delta_never_loses_to_the_baseline_meaningfully() {
    // Delta may tie the baseline on regular workloads but must never be
    // clearly slower anywhere.
    for wl in suite(Scale::Tiny, 11) {
        let d = run(wl.as_ref(), DeltaConfig::delta(8), false);
        let s = run(wl.as_ref(), DeltaConfig::static_parallel(8), true);
        assert!(
            (d.cycles as f64) <= s.cycles as f64 * 1.1,
            "{}: delta {} vs static {}",
            wl.name(),
            d.cycles,
            s.cycles
        );
    }
}

#[test]
fn headline_shape_holds_at_tiny_scale() {
    let mut speedups = Vec::new();
    for wl in suite(Scale::Tiny, 42) {
        let d = run(wl.as_ref(), DeltaConfig::delta(8), false);
        let s = run(wl.as_ref(), DeltaConfig::static_parallel(8), true);
        speedups.push(s.cycles as f64 / d.cycles as f64);
    }
    let g = geomean(&speedups);
    assert!(g >= 1.2, "geomean speedup collapsed to {g:.2}");
}

#[test]
fn workloads_scale_down_to_one_tile() {
    for wl in suite(Scale::Tiny, 13) {
        run(wl.as_ref(), DeltaConfig::delta(1), false);
    }
}

#[test]
fn workloads_scale_up_to_sixteen_tiles() {
    for wl in suite(Scale::Tiny, 14) {
        run(wl.as_ref(), DeltaConfig::delta(16), false);
    }
}

#[test]
fn more_tiles_never_hurt_much() {
    for wl in suite(Scale::Tiny, 15) {
        let two = run(wl.as_ref(), DeltaConfig::delta(2), false);
        let eight = run(wl.as_ref(), DeltaConfig::delta(8), false);
        assert!(
            (eight.cycles as f64) < two.cycles as f64 * 1.25,
            "{}: 8 tiles ({}) much slower than 2 ({})",
            wl.name(),
            eight.cycles,
            two.cycles
        );
    }
}
