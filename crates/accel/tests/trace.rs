//! Trace-subsystem tests: recording must never perturb the simulated
//! machine, and the recorded stream is part of the scheduler
//! equivalence contract — the event-driven run and the dense reference
//! (`Accelerator::run_dense`) must record the *identical* event
//! sequence.

use proptest::prelude::*;
use taskstream_model::{
    CompletedTask, MemoryImage, Program, Spawner, TaskInstance, TaskKernel, TaskType, TaskTypeId,
};
use ts_delta::{Accelerator, DeltaConfig, RunReport, TraceEvent};
use ts_dfg::DfgBuilder;
use ts_mem::WriteMode;
use ts_stream::StreamDesc;

fn reduce_type(name: &str) -> TaskType {
    let mut b = DfgBuilder::new(name);
    let x = b.input();
    let s = b.acc(x);
    b.output_on_last(s);
    TaskType::new(name, TaskKernel::dfg(b.finish().unwrap()))
}

fn inc_type(name: &str) -> TaskType {
    let mut b = DfgBuilder::new(name);
    let x = b.input();
    let one = b.constant(1);
    let y = b.add(x, one);
    b.output(y);
    TaskType::new(name, TaskKernel::dfg(b.finish().unwrap()))
}

/// Waves of parameterized width over a shared input stream — the same
/// generator the equivalence suites use, here checked for trace-stream
/// equality.
#[derive(Clone)]
struct Waves {
    widths: Vec<usize>,
    stream_len: usize,
    write_out: bool,
    wave: usize,
    outstanding: usize,
    spawned: u64,
}

impl Waves {
    const OUT_BASE: u64 = 4096;

    fn new(widths: Vec<usize>, stream_len: usize, write_out: bool) -> Self {
        Waves {
            widths,
            stream_len,
            write_out,
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
            let mut inst = TaskInstance::new(TaskTypeId(0))
                .input_stream(StreamDesc::dram(0, self.stream_len as u64))
                .affinity(i as u64);
            inst = if self.write_out {
                let addr = Self::OUT_BASE + self.spawned;
                inst.output_memory(StreamDesc::dram(addr, 1), WriteMode::Overwrite)
            } else {
                inst.output_discard()
            };
            self.spawned += 1;
            s.spawn(inst);
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

/// Pipelined increment chains connected by pipes (direct where the
/// dispatcher co-schedules, spilled where it cannot).
struct PipeChain {
    lanes: usize,
    stages: usize,
    seg_len: u64,
}

impl Program for PipeChain {
    fn name(&self) -> &str {
        "pipe-chain"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![inc_type("inc")]
    }

    fn memory_image(&self) -> MemoryImage {
        let words = (self.lanes as u64 * self.seg_len) as usize;
        MemoryImage::new().dram_segment(0, (1..=words as i64).collect::<Vec<_>>())
    }

    fn initial(&mut self, s: &mut Spawner) {
        for lane in 0..self.lanes {
            let base = lane as u64 * self.seg_len;
            let mut upstream = None;
            for stage in 0..self.stages {
                let mut inst = TaskInstance::new(TaskTypeId(0)).affinity(lane as u64);
                inst = match upstream {
                    None => inst.input_stream(StreamDesc::dram(base, self.seg_len)),
                    Some(p) => inst.input_pipe(p).work_hint(self.seg_len),
                };
                if stage + 1 == self.stages {
                    let out = 8192 + base;
                    inst = inst
                        .output_memory(StreamDesc::dram(out, self.seg_len), WriteMode::Overwrite);
                } else {
                    let p = s.pipe(self.seg_len);
                    inst = inst.output_pipe(p);
                    upstream = Some(p);
                }
                s.spawn(inst);
            }
        }
    }

    fn on_complete(&mut self, _done: &CompletedTask, _s: &mut Spawner) {}
}

fn run_traced<P: Program>(mut program: P, cfg: DeltaConfig) -> RunReport {
    Accelerator::new(cfg).run(&mut program).unwrap()
}

/// Asserts the event-driven run records the same stream as the dense
/// reference.
fn assert_trace_equal_across_engines<P, F>(make: F, cfg: DeltaConfig)
where
    P: Program,
    F: Fn() -> P,
{
    let mut accel = Accelerator::new(DeltaConfig { trace: true, ..cfg });
    let dense = accel.run_dense(&mut make()).unwrap();
    assert!(
        !dense.trace.is_empty(),
        "traced run recorded nothing; the test is vacuous"
    );
    let r = accel.run(&mut make()).unwrap();
    assert_eq!(r.cycles, dense.cycles);
    assert_eq!(
        r.trace, dense.trace,
        "trace diverged from the dense reference"
    );
    assert_eq!(r.trace_dropped, dense.trace_dropped);
}

#[test]
fn tracing_never_changes_the_report() {
    let mk = || Waves::new(vec![3, 2, 4], 32, true);
    let cfg = DeltaConfig {
        spawn_latency: 200,
        host_latency: 200,
        ..DeltaConfig::delta(4)
    };
    let off = run_traced(mk(), cfg.clone());
    let on = run_traced(mk(), DeltaConfig { trace: true, ..cfg });
    assert!(off.trace.is_empty() && off.trace_dropped == 0);
    assert!(!on.trace.is_empty());
    assert_eq!(on.cycles, off.cycles);
    assert_eq!(on.tasks_completed, off.tasks_completed);
    assert_eq!(on.timeline, off.timeline);
    assert_eq!(on.counters, off.counters);
    assert_eq!(on.dram_range(0, 64), off.dram_range(0, 64));
}

#[test]
fn trace_captures_the_task_lifecycle() {
    let r = run_traced(
        Waves::new(vec![2, 3], 24, true),
        DeltaConfig {
            trace: true,
            ..DeltaConfig::delta(4)
        },
    );
    let count = |f: &dyn Fn(&TraceEvent) -> bool| r.trace.iter().filter(|t| f(&t.event)).count();
    let n = r.tasks_completed as usize;
    assert_eq!(count(&|e| matches!(e, TraceEvent::TaskSpawn { .. })), n);
    assert_eq!(count(&|e| matches!(e, TraceEvent::TaskReady { .. })), n);
    assert_eq!(count(&|e| matches!(e, TraceEvent::TaskDispatch { .. })), n);
    assert_eq!(count(&|e| matches!(e, TraceEvent::TaskComplete { .. })), n);
    assert!(count(&|e| matches!(e, TraceEvent::TaskFire { .. })) >= n);
    // cycles never decrease along the stream
    assert!(r.trace.windows(2).all(|w| w[0].cycle <= w[1].cycle));
}

#[test]
fn trace_records_pipe_resolution() {
    // more lanes than tiles: some pipes resolve direct, some spill
    let r = run_traced(
        PipeChain {
            lanes: 4,
            stages: 3,
            seg_len: 16,
        },
        DeltaConfig {
            trace: true,
            ..DeltaConfig::delta(2)
        },
    );
    let direct = r
        .trace
        .iter()
        .filter(|t| matches!(t.event, TraceEvent::PipeDirect { .. }))
        .count();
    let spill = r
        .trace
        .iter()
        .filter(|t| matches!(t.event, TraceEvent::PipeSpill { .. }))
        .count();
    assert_eq!(
        direct + spill,
        4 * 2, // lanes * (stages - 1) pipes, each resolved exactly once
        "every pipe resolves exactly once (direct {direct}, spill {spill})"
    );
}

#[test]
fn trace_streams_match_across_engines_on_fixed_programs() {
    assert_trace_equal_across_engines(
        || Waves::new(vec![3, 2, 3], 32, true),
        DeltaConfig {
            spawn_latency: 200,
            host_latency: 200,
            ..DeltaConfig::delta(8)
        },
    );
    assert_trace_equal_across_engines(
        || PipeChain {
            lanes: 4,
            stages: 3,
            seg_len: 16,
        },
        DeltaConfig::delta(2),
    );
}

#[test]
fn trace_streams_match_across_engines_with_stealing() {
    assert_trace_equal_across_engines(
        || Waves::new(vec![5, 5, 5], 32, false),
        DeltaConfig {
            work_stealing: true,
            spawn_latency: 300,
            host_latency: 300,
            ..DeltaConfig::delta(4)
        },
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random wave programs on random machine shapes: the event-driven
    /// run and the dense reference must record identical streams.
    #[test]
    fn random_programs_trace_identically_across_engines(
        widths in prop::collection::vec(1usize..5, 1..4),
        stream_len in 4usize..64,
        tiles in 1usize..6,
        latency in 1u64..260,
        work_stealing in prop::bool::ANY,
        write_out in prop::bool::ANY,
    ) {
        let cfg = DeltaConfig {
            spawn_latency: latency,
            host_latency: latency,
            work_stealing,
            trace: true,
            ..DeltaConfig::delta(tiles)
        };
        let mut accel = Accelerator::new(cfg);
        let make = || Waves::new(widths.clone(), stream_len, write_out);
        let dense = accel.run_dense(&mut make()).unwrap();
        prop_assert!(!dense.trace.is_empty());
        let r = accel.run(&mut make()).unwrap();
        prop_assert_eq!(r.cycles, dense.cycles);
        prop_assert_eq!(&r.trace, &dense.trace, "trace diverged from the dense reference");
    }
}
