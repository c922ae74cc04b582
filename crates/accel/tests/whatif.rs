//! DAG-layer tests for the causal what-if profiler: exact answers on
//! hand-built traces, and invariants over random *real* programs —
//! the DAG is reconstructed from actual traced runs and reconciled
//! against the run's own report.

use proptest::prelude::*;
use taskstream_model::{
    CompletedTask, MemoryImage, Program, Spawner, TaskInstance, TaskKernel, TaskType, TaskTypeId,
};
use ts_delta::whatif::{EdgeKind, Query, WhatIf};
use ts_delta::{Accelerator, DeltaConfig, RunReport, TraceEvent, TraceRecord};
use ts_dfg::DfgBuilder;
use ts_mem::WriteMode;
use ts_stream::StreamDesc;

fn rec(cycle: u64, event: TraceEvent) -> TraceRecord {
    TraceRecord { cycle, event }
}

/// Hand-builds the trace of one task: spawned at `spawn` (by
/// `parent`), zero spawn latency, immediately dispatched, completing
/// after `dur` cycles on `tile`.
fn task(
    out: &mut Vec<TraceRecord>,
    id: u64,
    parent: Option<u64>,
    spawn: u64,
    dur: u64,
    tile: usize,
) {
    out.push(rec(
        spawn,
        TraceEvent::TaskSpawn {
            task: id,
            ty: 0,
            parent,
        },
    ));
    out.push(rec(spawn, TraceEvent::TaskReady { task: id }));
    out.push(rec(spawn, TraceEvent::TaskDispatch { task: id, tile }));
    out.push(rec(
        spawn + dur,
        TraceEvent::TaskStalls {
            task: id,
            input: 0,
            other: 0,
        },
    ));
    out.push(rec(
        spawn + dur,
        TraceEvent::TaskComplete { task: id, tile },
    ));
}

#[test]
fn serial_chain_span_equals_work() {
    // 4 tasks, each spawned by its predecessor with zero handoff
    // latency: the DAG is a chain, so span == total work.
    let mut t = Vec::new();
    let durs = [7u64, 13, 5, 25];
    let mut clock = 0;
    for (i, &d) in durs.iter().enumerate() {
        let parent = (i > 0).then(|| i as u64 - 1);
        task(&mut t, i as u64, parent, clock, d, 0);
        clock += d;
    }
    let w = WhatIf::from_trace(&t, 8, clock);
    assert_eq!(w.nodes.len(), 4);
    assert_eq!(w.edges.len(), 3);
    assert!(w.edges.iter().all(|e| e.kind == EdgeKind::Spawn));
    let work: u64 = durs.iter().sum();
    assert_eq!(w.work(), work);
    assert_eq!(w.span(), work, "a chain's critical path is all its work");
    assert!((w.parallelism() - 1.0).abs() < 1e-9);
}

#[test]
fn static_parallel_span_equals_max_task() {
    // 5 independent tasks spawned at cycle 0 on distinct tiles: span
    // is the longest task, work is the sum.
    let mut t = Vec::new();
    let durs = [9u64, 31, 14, 2, 27];
    for (i, &d) in durs.iter().enumerate() {
        task(&mut t, i as u64, None, 0, d, i);
    }
    let w = WhatIf::from_trace(&t, 8, 31);
    assert_eq!(w.nodes.len(), 5);
    assert_eq!(w.edges.len(), 0, "independent tasks share no edges");
    assert_eq!(w.work(), durs.iter().sum::<u64>());
    assert_eq!(w.span(), *durs.iter().max().unwrap());
}

#[test]
fn speeding_up_the_critical_type_beats_the_off_path_type() {
    // type 0: one long task (the span); type 1: several short ones.
    let mut t = Vec::new();
    task(&mut t, 0, None, 0, 100, 0);
    for i in 1..4u64 {
        t.push(rec(
            0,
            TraceEvent::TaskSpawn {
                task: i,
                ty: 1,
                parent: None,
            },
        ));
        t.push(rec(0, TraceEvent::TaskReady { task: i }));
        t.push(rec(
            0,
            TraceEvent::TaskDispatch {
                task: i,
                tile: i as usize,
            },
        ));
        t.push(rec(
            10,
            TraceEvent::TaskComplete {
                task: i,
                tile: i as usize,
            },
        ));
    }
    let w = WhatIf::from_trace(&t, 8, 100);
    let long = w.evaluate(&[Query::TypeSpeedup { ty: 0, pct: 50.0 }]);
    let short = w.evaluate(&[Query::TypeSpeedup { ty: 1, pct: 50.0 }]);
    assert!(
        long.speedup > short.speedup,
        "span-carrying type must dominate: {} vs {}",
        long.speedup,
        short.speedup
    );
    let b = w.bottlenecks();
    assert_eq!(b[0].ty, 0, "ranked table leads with the span carrier");
    assert!(b[0].crit_share > 0.9);
}

#[test]
fn quiescence_barrier_connects_phases() {
    // phase 1: two parallel tasks finishing at 20 and 30; phase 2: a
    // parentless task spawned at 30 (on_quiescent). The barrier edge
    // must serialize the phases: span ≈ 30 + 40, not max(30, 40).
    let mut t = Vec::new();
    task(&mut t, 0, None, 0, 20, 0);
    task(&mut t, 1, None, 0, 30, 1);
    task(&mut t, 2, None, 30, 40, 0);
    let w = WhatIf::from_trace(&t, 8, 70);
    assert!(
        w.edges.iter().any(|e| e.kind == EdgeKind::Barrier),
        "parentless mid-run spawn must hang off a barrier"
    );
    assert_eq!(w.span(), 70);
}

// ---------------------------------------------------------------- real runs

fn reduce_type(name: &str) -> TaskType {
    let mut b = DfgBuilder::new(name);
    let x = b.input();
    let s = b.acc(x);
    b.output_on_last(s);
    TaskType::new(name, TaskKernel::dfg(b.finish().unwrap()))
}

/// The same wave generator the equivalence suites use: `widths[i]`
/// parallel reductions per wave, each wave spawned from the previous
/// wave's completions.
#[derive(Clone)]
struct Waves {
    widths: Vec<usize>,
    stream_len: usize,
    wave: usize,
    outstanding: usize,
    spawned: u64,
}

impl Waves {
    fn new(widths: Vec<usize>, stream_len: usize) -> Self {
        Waves {
            widths,
            stream_len,
            wave: 0,
            outstanding: 0,
            spawned: 0,
        }
    }

    fn spawn_wave(&mut self, s: &mut Spawner) {
        let width = self.widths[self.wave];
        self.wave += 1;
        self.outstanding = width;
        for i in 0..width {
            let addr = 4096 + self.spawned;
            self.spawned += 1;
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_stream(StreamDesc::dram(0, self.stream_len as u64))
                    .affinity(i as u64)
                    .output_memory(StreamDesc::dram(addr, 1), WriteMode::Overwrite),
            );
        }
    }
}

impl Program for Waves {
    fn name(&self) -> &str {
        "waves"
    }
    fn task_types(&self) -> Vec<TaskType> {
        vec![reduce_type("wave")]
    }
    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new().dram_segment(0, (1..=64i64).collect::<Vec<_>>())
    }
    fn initial(&mut self, s: &mut Spawner) {
        self.spawn_wave(s);
    }
    fn on_complete(&mut self, _done: &CompletedTask, s: &mut Spawner) {
        self.outstanding -= 1;
        if self.outstanding == 0 && self.wave < self.widths.len() {
            self.spawn_wave(s);
        }
    }
}

fn traced_run(widths: Vec<usize>, stream_len: usize, tiles: usize, latency: u64) -> RunReport {
    let cfg = DeltaConfig {
        spawn_latency: latency,
        host_latency: latency,
        trace: true,
        ..DeltaConfig::delta(tiles)
    };
    Accelerator::new(cfg)
        .run(&mut Waves::new(widths, stream_len))
        .unwrap()
}

#[test]
fn real_trace_reconciles_with_the_report() {
    let r = traced_run(vec![3, 2, 4], 32, 4, 12);
    let w = WhatIf::from_trace(&r.trace, 4, r.cycles);
    assert_eq!(w.nodes.len() as u64, r.tasks_completed);
    let spawn_edges = w.edges.iter().filter(|e| e.kind == EdgeKind::Spawn).count();
    let with_parent = w.nodes.iter().filter(|n| n.parent.is_some()).count();
    assert_eq!(spawn_edges, with_parent);
    assert!(w.span() > 0 && w.work() > 0);
    assert!(w.span() <= w.serial_bound());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random wave programs, real traced runs: the profiler's core
    /// invariants must hold on every reconstruction.
    #[test]
    fn whatif_invariants_on_random_programs(
        widths in prop::collection::vec(1usize..5, 1..4),
        stream_len in 4usize..48,
        tiles in 1usize..6,
        latency in 1u64..200,
        k1 in 0u32..50,
        extra in 0u32..50,
    ) {
        let (k1, extra) = (f64::from(k1), f64::from(extra));
        let r = traced_run(widths, stream_len, tiles, latency);
        let w = WhatIf::from_trace(&r.trace, tiles, r.cycles);

        // node/edge counts reconcile with the report's task counters
        prop_assert_eq!(w.nodes.len() as u64, r.tasks_completed);
        let spawns = r.trace.iter().filter(
            |t| matches!(t.event, TraceEvent::TaskSpawn { .. })).count();
        prop_assert_eq!(w.nodes.len(), spawns);
        let with_parent = w.nodes.iter().filter(|n| n.parent.is_some()).count();
        prop_assert_eq!(
            w.edges.iter().filter(|e| e.kind == EdgeKind::Spawn).count(),
            with_parent
        );

        // critical path can never exceed the serialized execution
        prop_assert!(w.span() <= w.serial_bound());
        // ... and never undercuts the longest single node
        let longest = w.nodes.iter().map(|n| n.admit() + n.service()).max().unwrap_or(0);
        prop_assert!(w.span() >= longest);

        // the zero-speedup query is an identity
        let base = w.evaluate(&[]);
        let zero = w.evaluate(&[Query::TypeSpeedup { ty: 0, pct: 0.0 }]);
        prop_assert!((zero.speedup - 1.0).abs() < 1e-9);
        prop_assert!((zero.predicted_cycles - base.predicted_cycles).abs() < 1e-6);

        // virtual speedup is monotone in k (more speedup never hurts)
        let k2 = k1 + extra;
        let p1 = w.evaluate(&[Query::TypeSpeedup { ty: 0, pct: k1 }]);
        let p2 = w.evaluate(&[Query::TypeSpeedup { ty: 0, pct: k2 }]);
        prop_assert!(p2.predicted_cycles <= p1.predicted_cycles + 1e-6,
            "speedup must be monotone: k={} -> {}, k={} -> {}",
            k1, p1.predicted_cycles, k2, p2.predicted_cycles);
        prop_assert!(p1.predicted_cycles <= base.predicted_cycles + 1e-6);

        // the bottleneck table covers every completed type
        let b = w.bottlenecks();
        prop_assert_eq!(b.iter().map(|x| x.tasks).sum::<u64>(), r.tasks_completed);
        prop_assert!(b.iter().all(|x| x.speedup_at_50 >= 1.0 - 1e-9));
    }
}
