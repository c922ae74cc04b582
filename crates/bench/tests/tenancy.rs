//! Multi-tenant dispatcher guarantees, end to end:
//!
//! - **Scheduler equivalence** — under tenancy the event-driven
//!   scheduler matches the dense reference (`Accelerator::run_dense`)
//!   bit-for-bit, over random tenant mixes × arrival schedules ×
//!   admission policies (the per-tenant due queues add wake sources
//!   the activity contracts must cover).
//! - **Fault determinism and oracle equivalence** — same-seed fault
//!   schedules replay identically under tenancy, and faulted runs
//!   stay functionally equivalent to the untimed oracle at every
//!   swept fail rate, under both partitioning policies.
//! - **Starvation regression** — under a flooding heavy neighbor, the
//!   admission gate strictly improves the light tenant's tail latency
//!   and nobody loses work either way.
//! - **One-tenant equivalence** — a one-tenant configuration runs the
//!   same machine as the inert default: single-tenant runs take the
//!   multi-tenant dispatcher path as its one-tenant case.

use proptest::prelude::*;
use ts_bench::{run_faulted, run_validated, FaultOutcome};
use ts_delta::{
    Accelerator, DeltaConfig, DrainPolicy, FaultsConfig, PartitionPolicy, RunReport, TenancyConfig,
    TenantSpec,
};
use ts_workloads::merge_sort::MergeSort;
use ts_workloads::request_server::{RequestServer, TenantLoad};
use ts_workloads::Workload;

/// Runs one config to completion: validated against the workload
/// reference and the conservation invariants, plus the untimed oracle
/// when faults are live.
fn run_cfg(wl: &RequestServer, cfg: ts_delta::DeltaConfig, chaos: bool) -> RunReport {
    if chaos {
        match run_faulted(wl, cfg, false) {
            FaultOutcome::Completed(r) => *r,
            FaultOutcome::Wedged { cycles } => {
                panic!("tenancy chaos run wedged at cycle {cycles} despite recovery")
            }
        }
    } else {
        run_validated(wl, cfg, false)
    }
}

/// The densely ticked reference run, validated against the workload
/// reference.
fn run_dense(wl: &RequestServer, cfg: DeltaConfig) -> RunReport {
    let r = Accelerator::new(cfg)
        .run_dense(wl.make_program().as_mut())
        .unwrap_or_else(|e| panic!("dense reference failed: {e}"));
    wl.validate(&r).unwrap();
    r
}

fn assert_tenants_served(r: &RunReport, wl: &RequestServer, what: &str) {
    for (t, load) in wl.tenants.iter().enumerate() {
        assert_eq!(
            r.counters.tenants[t].completed as usize, load.queries,
            "{what}: tenant {t} starved"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random tenant mixes × arrival schedules × admission policies ×
    /// fault schedules: the event-driven run must produce the same
    /// report, bit for bit, as dense ticking.
    #[test]
    fn random_tenant_mixes_match_the_dense_reference(
        loads in prop::collection::vec((1usize..8, 4usize..24, 0u64..300), 1..4),
        admit_limit in 0u64..6,
        spatial in prop::bool::ANY,
        hysteresis in prop::bool::ANY,
        chaos in prop::bool::ANY,
        seed in 0u64..1000,
        tiles in 2usize..6,
    ) {
        let loads: Vec<TenantLoad> = loads
            .iter()
            .map(|&(queries, rows_per_query, arrival_period)| TenantLoad {
                queries,
                rows_per_query,
                arrival_period,
            })
            .collect();
        let wl = RequestServer::new(loads, 256, seed);
        let partition = if spatial {
            PartitionPolicy::Spatial
        } else {
            PartitionPolicy::Shared
        };
        let drain = if hysteresis {
            DrainPolicy::Drain
        } else {
            DrainPolicy::Block
        };
        // spatial partitioning needs a tile per tenant
        let mut cfg = DeltaConfig {
            seed,
            tenancy: wl.tenancy(partition, admit_limit, drain),
            ..DeltaConfig::delta(tiles.max(wl.tenants.len()))
        };
        if chaos {
            cfg.faults = FaultsConfig {
                tile_fail_window: 256,
                ..FaultsConfig::chaos()
            };
            cfg.stall_limit = 200_000;
        }
        let reference = run_dense(&wl, cfg.clone());
        assert_tenants_served(&reference, &wl, "dense reference");
        let r = run_cfg(&wl, cfg, chaos);
        prop_assert_eq!(r.cycles, reference.cycles, "cycles diverged (chaos={})", chaos);
        prop_assert_eq!(r.tasks_completed, reference.tasks_completed);
        prop_assert_eq!(&r.counters, &reference.counters, "counters diverged (chaos={})", chaos);
        prop_assert_eq!(&r.timeline, &reference.timeline);
        prop_assert_eq!(&r.faults, &reference.faults, "faults diverged (chaos={})", chaos);
    }
}

/// Regression: under spatial tenancy a tenant whose whole partition
/// fail-stops used to wedge the run — its pending tasks could place
/// nowhere. They now spill onto the rest of the fabric, as recovery
/// re-dispatch already did, and both engines agree on the result.
#[test]
fn whole_partition_fail_stop_spills_instead_of_wedging() {
    let load = |queries, rows_per_query, arrival_period| TenantLoad {
        queries,
        rows_per_query,
        arrival_period,
    };
    let wl = RequestServer::new(
        vec![load(5, 23, 151), load(6, 20, 221), load(1, 8, 19)],
        256,
        550,
    );
    let cfg = DeltaConfig {
        seed: 550,
        tenancy: wl.tenancy(PartitionPolicy::Spatial, 1, DrainPolicy::Drain),
        faults: FaultsConfig {
            tile_fail_window: 256,
            ..FaultsConfig::chaos()
        },
        stall_limit: 200_000,
        ..DeltaConfig::delta(3)
    };
    let dense = run_dense(&wl, cfg.clone());
    let r = run_cfg(&wl, cfg, true);
    assert!(r.faults.tile_fail_stops > 0, "no tile fail-stopped");
    assert_tenants_served(&r, &wl, "spilled run");
    assert_eq!(r.cycles, dense.cycles);
    assert_eq!(r.counters, dense.counters);
    assert_eq!(r.faults, dense.faults);
}

/// Same-seed fault schedules replay identically under tenancy, the
/// completed runs match the untimed oracle (checked inside
/// [`run_faulted`]), and every tenant's queries land at every fail
/// rate, under both partitioning policies.
#[test]
fn per_tenant_oracle_equivalence_at_every_fault_rate() {
    for partition in [PartitionPolicy::Shared, PartitionPolicy::Spatial] {
        for rate in [0.0, 0.125, 0.25, 0.5] {
            let wl = RequestServer::tiny(2, 0, 11);
            let cfg = DeltaConfig {
                seed: 42,
                tenancy: wl.tenancy(partition, 4, DrainPolicy::Block),
                faults: FaultsConfig {
                    tile_fail_rate: rate,
                    tile_fail_window: 256,
                    ..FaultsConfig::chaos()
                },
                stall_limit: 200_000,
                ..DeltaConfig::delta(8)
            };
            let what = format!("{partition:?} @ fail rate {rate}");
            let a = run_cfg(&wl, cfg.clone(), true);
            let b = run_cfg(&wl, cfg, true);
            assert_eq!(a.cycles, b.cycles, "{what}: replay diverged");
            assert_eq!(
                a.counters, b.counters,
                "{what}: counters diverged on replay"
            );
            assert_eq!(a.faults, b.faults, "{what}: fault report diverged");
            assert_tenants_served(&a, &wl, &what);
        }
    }
}

/// The starvation regression the admission gate exists for: a heavy
/// tenant floods while a light tenant trickles. With admission off the
/// flood monopolizes dispatch and the light tenant's tail latency
/// balloons; capping the heavy tenant's in-flight share must strictly
/// improve the light tenant's p99 — without costing anyone completed
/// work.
#[test]
fn admission_gate_prevents_heavy_neighbor_starvation() {
    let wl = RequestServer::new(
        vec![
            TenantLoad {
                queries: 48,
                rows_per_query: 16,
                arrival_period: 0,
            },
            TenantLoad {
                queries: 8,
                rows_per_query: 16,
                arrival_period: 0,
            },
        ],
        512,
        9,
    );
    let run = |admit_limit: u64| {
        let cfg = DeltaConfig {
            seed: 42,
            tenancy: wl.tenancy(PartitionPolicy::Shared, admit_limit, DrainPolicy::Block),
            ..DeltaConfig::delta(4)
        };
        run_cfg(&wl, cfg, false)
    };
    let ungated = run(0);
    let gated = run(4);
    assert_tenants_served(&ungated, &wl, "admission off");
    assert_tenants_served(&gated, &wl, "admission on");
    let light_p99 = |r: &RunReport| r.counters.tenants[1].p99_latency;
    assert!(
        light_p99(&gated) < light_p99(&ungated),
        "admission gate did not improve the light tenant's p99: \
         gated {} vs ungated {}",
        light_p99(&gated),
        light_p99(&ungated)
    );
    assert!(
        gated.counters.tenants[0].gate_holds > 0,
        "the gate never engaged; the regression test is vacuous"
    );
}

/// One tenant is the inert default: a one-tenant configuration, under
/// either partitioning policy with work stealing on, gives the same
/// run as `TenancyConfig::none()`. Everything matches except that only
/// the configured run reports a tenant block.
#[test]
fn one_tenant_config_matches_the_inert_default() {
    // the request server's queries carry tenant tags 0 and 1; with one
    // configured tenant both clamp to tenant 0
    let workloads: [Box<dyn Workload>; 2] = [
        Box::new(RequestServer::tiny(2, 0, 7)),
        Box::new(MergeSort::tiny(3)),
    ];
    for wl in &workloads {
        let base = DeltaConfig {
            work_stealing: true,
            ..DeltaConfig::delta(4)
        };
        let inert = run_validated(wl.as_ref(), base.clone(), false);
        assert!(
            inert.counters.tenants.is_empty(),
            "{}: the inert default reported tenant counters",
            wl.name()
        );
        for partition in [PartitionPolicy::Shared, PartitionPolicy::Spatial] {
            let one = TenancyConfig {
                partition,
                ..TenancyConfig::shared(vec![TenantSpec::flood()])
            };
            let tenanted = DeltaConfig {
                tenancy: one,
                ..base.clone()
            };
            let r = run_validated(wl.as_ref(), tenanted, false);
            let what = format!("{} under {partition:?}", wl.name());
            assert_eq!(r.cycles, inert.cycles, "{what}: cycles");
            assert_eq!(r.tasks_completed, inert.tasks_completed, "{what}: tasks");
            assert_eq!(r.profile, inert.profile, "{what}: profile");
            assert_eq!(r.timeline, inert.timeline, "{what}: timeline");
            assert_eq!(r.dram_len(), inert.dram_len(), "{what}: DRAM size");
            assert!(
                r.dram_range(0, r.dram_len()) == inert.dram_range(0, inert.dram_len()),
                "{what}: DRAM image"
            );
            let mut untenanted = r.counters.clone();
            let tenants = std::mem::take(&mut untenanted.tenants);
            assert_eq!(tenants.len(), 1, "{what}: tenant blocks");
            assert_eq!(
                tenants[0].completed, inert.tasks_completed,
                "{what}: tenant 0 must own every task"
            );
            assert_eq!(untenanted, inert.counters, "{what}: counters");
        }
    }
}
