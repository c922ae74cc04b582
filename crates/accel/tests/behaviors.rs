//! Behavioural tests for accelerator mechanisms added on top of the
//! basic engine: multicast join windows, stall rotation, prefetch
//! depth, reconfiguration accounting, degenerate streams, and error
//! paths.

use taskstream_model::{
    CompletedTask, MemoryImage, Program, RegionId, Spawner, TaskInstance, TaskKernel, TaskType,
    TaskTypeId,
};
use ts_delta::{Accelerator, DeltaConfig, RunError, RunReport};
use ts_dfg::DfgBuilder;
use ts_mem::WriteMode;
use ts_stream::{DataSrc, StreamDesc};

fn reduce_type(name: &str) -> TaskType {
    let mut b = DfgBuilder::new(name);
    let x = b.input();
    let s = b.acc(x);
    b.output_on_last(s);
    TaskType::new(name, TaskKernel::dfg(b.finish().unwrap()))
}

/// N tasks sharing one region, spawned in one batch.
struct Sharers {
    n: usize,
    len: u64,
}

impl Program for Sharers {
    fn name(&self) -> &str {
        "sharers"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![reduce_type("reduce")]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new().dram_segment(0, (1..=self.len as i64).collect::<Vec<_>>())
    }

    fn initial(&mut self, s: &mut Spawner) {
        for i in 0..self.n {
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_shared(StreamDesc::dram(0, self.len), RegionId(7))
                    .output_discard()
                    .affinity(i as u64),
            );
        }
    }

    fn on_complete(&mut self, done: &CompletedTask, _s: &mut Spawner) {
        let n = self.len as i64;
        assert_eq!(done.outputs[0], vec![n * (n + 1) / 2]);
    }
}

/// Each conservation invariant catches a one-count drift in a counter
/// it reads, and names itself, alone, in the error.
#[test]
fn conservation_names_each_violated_invariant() {
    type Drift = fn(&mut RunReport);
    let drifts: [(&str, Drift); 9] = [
        ("tasks spawned = completed", |r| {
            r.counters.dispatch.tasks_spawned += 1
        }),
        ("tasks dispatched = completed", |r| {
            r.counters.dispatch.tasks_dispatched += 1
        }),
        ("tile completions = completed", |r| {
            r.counters.tiles[0].tasks_completed += 1
        }),
        ("flit branches injected = delivered", |r| {
            r.counters.noc.delivered += 1
        }),
        ("dram reads >= unique words read", |r| {
            r.counters.dram.read_words_unique = r.counters.dram.read_words + 1
        }),
        ("loop + jump cycles = cycles", |r| {
            r.profile.loop_cycles += 1
        }),
        ("mem ticks + skips = cycles", |r| r.profile.mem_ticks += 1),
        ("noc ticks + skips = cycles", |r| r.profile.noc_ticks += 1),
        ("tile ticks + skips + bulk = cycles x tiles", |r| {
            r.profile.tile_ticks += 1
        }),
    ];
    let tiles = 4;
    let run = Accelerator::new(DeltaConfig::delta(tiles))
        .run(&mut Sharers { n: 8, len: 64 })
        .unwrap();
    run.check_conservation(tiles).unwrap();
    for (invariant, drift) in drifts {
        let mut r = run.clone();
        drift(&mut r);
        let err = r.check_conservation(tiles).unwrap_err();
        let violated: Vec<&str> = err.lines().skip(1).map(str::trim).collect();
        assert_eq!(violated.len(), 1, "{err}");
        assert!(violated[0].starts_with(invariant), "{err}");
    }
}

#[test]
fn multicast_join_window_collects_batched_sharers() {
    let mut p = Sharers { n: 8, len: 256 };
    let r = Accelerator::new(DeltaConfig::delta(8)).run(&mut p).unwrap();
    // with a join window, 8 sharers dispatched over 4 cycles coalesce
    // into very few reads (ideally one group)
    let groups = r.counters.dispatch.multicast_groups;
    let joins = r.counters.dispatch.multicast_joins;
    assert!(groups <= 2, "sharers splintered into {groups} groups");
    assert!(joins >= 6, "only {joins} joins");
    assert!(r.counters.dram.read_words <= 2 * 256);
}

#[test]
fn zero_batch_window_still_correct_but_reads_more() {
    let run = |window: u64| {
        let mut p = Sharers { n: 8, len: 256 };
        let cfg = DeltaConfig::builder(8).mcast_batch_window(window).build();
        Accelerator::new(cfg)
            .run(&mut p)
            .unwrap()
            .counters
            .dram
            .read_words
    };
    let batched = run(24);
    let unbatched = run(0);
    assert!(batched <= unbatched);
}

/// Two task types strictly alternating on purpose-built affinities.
struct Alternating {
    tasks: usize,
}

impl Program for Alternating {
    fn name(&self) -> &str {
        "alternating"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![reduce_type("even"), reduce_type("odd")]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new().dram_segment(0, vec![1i64; 64])
    }

    fn initial(&mut self, s: &mut Spawner) {
        for i in 0..self.tasks {
            s.spawn(
                TaskInstance::new(TaskTypeId(i % 2))
                    .input_stream(StreamDesc::dram(0, 64))
                    .output_discard()
                    .affinity(0), // all on one tile: force type switching
            );
        }
    }

    fn on_complete(&mut self, _d: &CompletedTask, _s: &mut Spawner) {}
}

#[test]
fn alternating_types_pay_reconfiguration() {
    let mut p = Alternating { tasks: 8 };
    let cfg = DeltaConfig::static_parallel(2); // static: all on tile 0
    let r = Accelerator::new(cfg).run(&mut p).unwrap();
    let reconfigs = r.counters.tile_total().reconfigs;
    assert!(
        reconfigs >= 7,
        "expected a reconfig per type switch, saw {reconfigs}"
    );
}

#[test]
fn zero_reconfig_cost_is_supported() {
    let mut p = Alternating { tasks: 4 };
    let mut cfg = DeltaConfig::delta(2);
    cfg.fabric.config_per_pe = 0;
    let r = Accelerator::new(cfg).run(&mut p).unwrap();
    assert_eq!(r.counters.tile_total().reconfig_cycles, 0);
}

#[test]
fn prefetch_depth_one_still_correct() {
    let mut p = Sharers { n: 4, len: 128 };
    let cfg = DeltaConfig::builder(2).prefetch_depth(1).build();
    let r = Accelerator::new(cfg).run(&mut p).unwrap();
    assert_eq!(r.tasks_completed, 4);
}

/// Tasks over literal and iota streams (no memory traffic at all).
struct Generated;

impl Program for Generated {
    fn name(&self) -> &str {
        "generated"
    }

    fn task_types(&self) -> Vec<TaskType> {
        let mut b = DfgBuilder::new("zipsum");
        let a = b.input();
        let c = b.input();
        let s = b.add(a, c);
        let acc = b.acc(s);
        b.output_on_last(acc);
        vec![TaskType::new(
            "zipsum",
            TaskKernel::dfg(b.finish().unwrap()),
        )]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new().dram_segment(0, vec![0i64; 4])
    }

    fn initial(&mut self, s: &mut Spawner) {
        s.spawn(
            TaskInstance::new(TaskTypeId(0))
                .input_stream(StreamDesc::literal(vec![5; 10]))
                .input_stream(StreamDesc::iota(0, 1, 10))
                .output_memory(StreamDesc::dram(0, 1), WriteMode::Overwrite),
        );
    }

    fn on_complete(&mut self, _d: &CompletedTask, _s: &mut Spawner) {}
}

#[test]
fn literal_and_iota_streams_compute_exactly() {
    let mut p = Generated;
    let r = Accelerator::new(DeltaConfig::delta(1)).run(&mut p).unwrap();
    // sum of (5 + i) for i in 0..10 = 50 + 45
    assert_eq!(r.dram(0), 95);
    assert_eq!(r.counters.dram.read_words, 0);
}

/// A pipe whose producer emits nothing (fully filtered).
struct EmptyPipe;

impl Program for EmptyPipe {
    fn name(&self) -> &str {
        "empty_pipe"
    }

    fn task_types(&self) -> Vec<TaskType> {
        let mut f = DfgBuilder::new("filter_none");
        let x = f.input();
        let zero = f.constant(0);
        let never = f.lt(x, zero); // inputs are positive: never fires
        f.output_when(x, never);
        let mut r = DfgBuilder::new("count");
        let x = r.input();
        let one = r.constant(1);
        let y = r.add(x, one);
        let c = r.acc(y);
        b_out(&mut r, c);
        vec![
            TaskType::new("filter_none", TaskKernel::dfg(f.finish().unwrap())),
            TaskType::new("count", TaskKernel::dfg(r.finish().unwrap())),
        ]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new()
            .dram_segment(0, vec![3i64; 32])
            .dram_segment(100, vec![-1i64])
    }

    fn initial(&mut self, s: &mut Spawner) {
        let pipe = s.pipe(32);
        s.spawn(
            TaskInstance::new(TaskTypeId(0))
                .input_stream(StreamDesc::dram(0, 32))
                .output_pipe(pipe),
        );
        s.spawn(
            TaskInstance::new(TaskTypeId(1))
                .input_pipe(pipe)
                .output_memory(StreamDesc::dram(100, 1), WriteMode::Overwrite),
        );
    }

    fn on_complete(&mut self, _d: &CompletedTask, _s: &mut Spawner) {}
}

fn b_out(b: &mut DfgBuilder, node: ts_dfg::NodeId) {
    b.output_on_last(node);
}

#[test]
fn empty_pipes_complete_cleanly() {
    for pipelining in [true, false] {
        let mut cfg = DeltaConfig::delta(2);
        cfg.features.pipelining = pipelining;
        let mut p = EmptyPipe;
        let r = Accelerator::new(cfg).run(&mut p).unwrap();
        assert_eq!(r.tasks_completed, 2);
        // consumer fired zero times: its OnLast output never emitted,
        // the sentinel stays
        assert_eq!(r.dram(100), -1);
    }
}

/// Scatter into the local scratchpad.
struct SpadScatter;

impl Program for SpadScatter {
    fn name(&self) -> &str {
        "spad_scatter"
    }

    fn task_types(&self) -> Vec<TaskType> {
        let mut b = DfgBuilder::new("emit_pairs");
        let idx = b.input();
        let val = b.input();
        b.output(idx);
        b.output(val);
        vec![TaskType::new(
            "emit_pairs",
            TaskKernel::dfg(b.finish().unwrap()),
        )]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new()
            .dram_segment(0, vec![3, 1, 2]) // indices
            .dram_segment(10, vec![30, 10, 20]) // values
            .spad_segment(0, vec![0; 8])
    }

    fn initial(&mut self, s: &mut Spawner) {
        s.spawn(
            TaskInstance::new(TaskTypeId(0))
                .input_stream(StreamDesc::dram(0, 3))
                .input_stream(StreamDesc::dram(10, 3))
                .output_discard()
                .output_scatter(DataSrc::Spad, 0, 1, 0, WriteMode::Add),
        );
    }

    fn on_complete(&mut self, done: &CompletedTask, _s: &mut Spawner) {
        assert_eq!(done.outputs[1], vec![30, 10, 20]);
    }
}

#[test]
fn spad_scatter_completes() {
    let mut p = SpadScatter;
    let r = Accelerator::new(DeltaConfig::delta(1)).run(&mut p).unwrap();
    assert_eq!(r.tasks_completed, 1);
}

#[test]
fn undeclared_pipe_is_a_program_error() {
    struct Bad;
    impl Program for Bad {
        fn name(&self) -> &str {
            "bad"
        }
        fn task_types(&self) -> Vec<TaskType> {
            vec![reduce_type("r")]
        }
        fn memory_image(&self) -> MemoryImage {
            MemoryImage::new().dram_segment(0, vec![1i64; 4])
        }
        fn initial(&mut self, s: &mut Spawner) {
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_pipe(taskstream_model::PipeId(99))
                    .output_discard(),
            );
        }
        fn on_complete(&mut self, _d: &CompletedTask, _s: &mut Spawner) {}
    }
    let err = Accelerator::new(DeltaConfig::delta(1))
        .run(&mut Bad)
        .unwrap_err();
    assert!(matches!(err, RunError::Program(_)), "{err}");
}

#[test]
fn unknown_task_type_is_a_program_error() {
    struct Bad;
    impl Program for Bad {
        fn name(&self) -> &str {
            "bad"
        }
        fn task_types(&self) -> Vec<TaskType> {
            vec![reduce_type("r")]
        }
        fn memory_image(&self) -> MemoryImage {
            MemoryImage::new()
        }
        fn initial(&mut self, s: &mut Spawner) {
            s.spawn(TaskInstance::new(TaskTypeId(5)).output_discard());
        }
        fn on_complete(&mut self, _d: &CompletedTask, _s: &mut Spawner) {}
    }
    let err = Accelerator::new(DeltaConfig::delta(1))
        .run(&mut Bad)
        .unwrap_err();
    assert!(err.to_string().contains("unknown task type"), "{err}");
}

#[test]
fn oversized_kernel_is_a_map_error() {
    struct Huge;
    impl Program for Huge {
        fn name(&self) -> &str {
            "huge"
        }
        fn task_types(&self) -> Vec<TaskType> {
            let mut b = DfgBuilder::new("huge");
            let x = b.input();
            let mut cur = x;
            for i in 0..200 {
                let k = b.constant(i);
                cur = b.add(cur, k);
            }
            b.output(cur);
            vec![TaskType::new("huge", TaskKernel::dfg(b.finish().unwrap()))]
        }
        fn memory_image(&self) -> MemoryImage {
            MemoryImage::new()
        }
        fn initial(&mut self, _s: &mut Spawner) {}
        fn on_complete(&mut self, _d: &CompletedTask, _s: &mut Spawner) {}
    }
    let err = Accelerator::new(DeltaConfig::delta(1))
        .run(&mut Huge)
        .unwrap_err();
    assert!(matches!(err, RunError::Map(_)), "{err}");
}

#[test]
fn empty_program_finishes_immediately() {
    struct Nothing;
    impl Program for Nothing {
        fn name(&self) -> &str {
            "nothing"
        }
        fn task_types(&self) -> Vec<TaskType> {
            vec![]
        }
        fn memory_image(&self) -> MemoryImage {
            MemoryImage::new()
        }
        fn initial(&mut self, _s: &mut Spawner) {}
        fn on_complete(&mut self, _d: &CompletedTask, _s: &mut Spawner) {}
    }
    let r = Accelerator::new(DeltaConfig::delta(2))
        .run(&mut Nothing)
        .unwrap();
    assert_eq!(r.tasks_completed, 0);
}

#[test]
fn rotation_statistic_appears_under_contention() {
    // merge-tree-like contention: many pipe consumers on few tiles
    struct Chains;
    impl Program for Chains {
        fn name(&self) -> &str {
            "chains"
        }
        fn task_types(&self) -> Vec<TaskType> {
            let mut f = DfgBuilder::new("copy");
            let x = f.input();
            f.output(x);
            vec![
                TaskType::new("copy", TaskKernel::dfg(f.finish().unwrap())),
                reduce_type("r"),
            ]
        }
        fn memory_image(&self) -> MemoryImage {
            MemoryImage::new().dram_segment(0, vec![1i64; 2048])
        }
        fn initial(&mut self, s: &mut Spawner) {
            for i in 0..4 {
                let pipe = s.pipe(512);
                s.spawn(
                    TaskInstance::new(TaskTypeId(0))
                        .input_stream(StreamDesc::dram(i * 512, 512))
                        .output_pipe(pipe),
                );
                s.spawn(
                    TaskInstance::new(TaskTypeId(1))
                        .input_pipe(pipe)
                        .output_discard(),
                );
            }
        }
        fn on_complete(&mut self, _d: &CompletedTask, _s: &mut Spawner) {}
    }
    let mut p = Chains;
    let r = Accelerator::new(DeltaConfig::delta(2)).run(&mut p).unwrap();
    assert_eq!(r.tasks_completed, 8);
}

#[test]
fn work_stealing_rebalances_static_placement() {
    // all heavy tasks hash to one owner; stealing must spread them
    struct Lopsided;
    impl Program for Lopsided {
        fn name(&self) -> &str {
            "lopsided"
        }
        fn task_types(&self) -> Vec<TaskType> {
            vec![reduce_type("r")]
        }
        fn memory_image(&self) -> MemoryImage {
            MemoryImage::new()
        }
        fn initial(&mut self, s: &mut Spawner) {
            for _ in 0..12 {
                s.spawn(
                    TaskInstance::new(TaskTypeId(0))
                        .input_stream(StreamDesc::iota(0, 1, 2000))
                        .output_discard()
                        .affinity(0), // every task owned by tile 0
                );
            }
        }
        fn on_complete(&mut self, _d: &CompletedTask, _s: &mut Spawner) {}
    }
    let run = |steal: bool| {
        let cfg = DeltaConfig::static_parallel(4)
            .to_builder()
            .work_stealing(steal)
            .tile_queue(16)
            .build();
        Accelerator::new(cfg).run(&mut Lopsided).unwrap()
    };
    let without = run(false);
    let with = run(true);
    assert!(with.counters.dispatch.steals > 0);
    assert!(
        (with.cycles as f64) < without.cycles as f64 * 0.5,
        "stealing {} vs owner-bound {}",
        with.cycles,
        without.cycles
    );
}

#[test]
fn stealing_preserves_correctness_across_the_board() {
    // reuse the Sharers program (DRAM reductions) with stealing on
    let mut p = Sharers { n: 12, len: 128 };
    let cfg = DeltaConfig::builder(4).work_stealing(true).build();
    let r = Accelerator::new(cfg).run(&mut p).unwrap();
    assert_eq!(r.tasks_completed, 12);
}

#[test]
fn timeline_samples_occupancy() {
    let mut p = Sharers { n: 8, len: 2048 };
    let r = Accelerator::new(DeltaConfig::delta(4)).run(&mut p).unwrap();
    assert!(!r.timeline.is_empty(), "run long enough to sample");
    // samples are stride-aligned and within tile bounds
    for (cycle, busy) in &r.timeline {
        assert_eq!(cycle % ts_delta::RunReport::TIMELINE_STRIDE, 0);
        assert!(*busy <= 4);
    }
    // at least one sample saw multiple tiles busy
    assert!(r.timeline.iter().any(|&(_, b)| b >= 2));
    let spark = r.sparkline(4, 32);
    assert!(!spark.is_empty());
    assert!(spark.chars().count() <= 32);
}

#[test]
fn lanes_speed_up_compute_bound_tasks() {
    let run = |lanes: u32| {
        let mut cfg = DeltaConfig::delta(2);
        cfg.fabric.lanes = lanes;
        let mut p = Sharers { n: 4, len: 4096 };
        Accelerator::new(cfg).run(&mut p).unwrap().cycles
    };
    let one = run(1);
    let four = run(4);
    assert!(
        (four as f64) < one as f64 * 0.6,
        "4 lanes {four} should clearly beat 1 lane {one}"
    );
}
