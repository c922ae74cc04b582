//! Differential tests: the timed cycle-level simulator and the untimed
//! functional oracle must agree on final DRAM contents and task counts
//! for every (race-free) program, on every machine shape — and every
//! timed report must satisfy the conservation invariants.

use proptest::prelude::*;
use taskstream_model::{
    CompletedTask, MemoryImage, PipeId, Program, Spawner, TaskInstance, TaskKernel, TaskType,
    TaskTypeId,
};
use ts_delta::oracle::{check_equivalence, execute_untimed};
use ts_delta::{Accelerator, DeltaConfig, RunReport};
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

fn inc_type(name: &str) -> TaskType {
    let mut b = DfgBuilder::new(name);
    let x = b.input();
    let one = b.constant(1);
    let y = b.add(x, one);
    b.output(y);
    TaskType::new(name, TaskKernel::dfg(b.finish().unwrap()))
}

/// A strictly serial chain: each completion spawns the next reduction,
/// writing its sum to a fresh DRAM word.
struct SerialChain {
    remaining: usize,
    next_out: u64,
}

impl SerialChain {
    const OUT_BASE: u64 = 4096;

    fn new(links: usize) -> Self {
        SerialChain {
            remaining: links,
            next_out: Self::OUT_BASE,
        }
    }

    fn link(&mut self, s: &mut Spawner) {
        self.remaining -= 1;
        s.spawn(
            TaskInstance::new(TaskTypeId(0))
                .input_stream(StreamDesc::dram(0, 64))
                .output_memory(StreamDesc::dram(self.next_out, 1), WriteMode::Overwrite),
        );
        self.next_out += 1;
    }
}

impl Program for SerialChain {
    fn name(&self) -> &str {
        "serial-chain"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![reduce_type("link")]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new().dram_segment(0, (1..=64i64).collect::<Vec<_>>())
    }

    fn initial(&mut self, s: &mut Spawner) {
        self.link(s);
    }

    fn on_complete(&mut self, done: &CompletedTask, s: &mut Spawner) {
        assert_eq!(done.outputs[0], vec![64 * 65 / 2]);
        if self.remaining > 0 {
            self.link(s);
        }
    }
}

/// Waves of parameterized width over a shared input stream, optionally
/// writing each task's reduction to a distinct DRAM word — the same
/// generator the scheduler equivalence suite uses, here pitted
/// against the untimed oracle.
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

/// Pipelined chains: each lane streams a DRAM segment through `stages`
/// increment tasks connected by pipes, writing the final stage to DRAM.
/// All tasks spawn up front, so the dispatcher co-schedules the chains
/// (direct pipes) where it can and spills where it cannot — both
/// transports must be functionally invisible.
struct PipeChain {
    lanes: usize,
    stages: usize,
    seg_len: u64,
}

impl PipeChain {
    const OUT_BASE: u64 = 8192;
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
                    let out = Self::OUT_BASE + base;
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

/// Runs the timed simulator, checks its conservation invariants, and
/// asserts final-state equivalence against the untimed oracle.
fn assert_oracle_agrees<P, F>(make: F, cfg: DeltaConfig)
where
    P: Program,
    F: Fn() -> P,
{
    let tiles = cfg.tiles;
    let timed: RunReport = Accelerator::new(cfg).run(&mut make()).unwrap();
    timed.check_conservation(tiles).unwrap();
    let oracle = execute_untimed(&mut make()).unwrap();
    check_equivalence(&timed, &oracle).unwrap();
}

#[test]
fn serial_chain_matches_oracle() {
    assert_oracle_agrees(|| SerialChain::new(6), DeltaConfig::delta(4));
}

#[test]
fn waves_match_oracle_with_multicast() {
    assert_oracle_agrees(
        || Waves::new(vec![3, 5, 2], 32, true),
        DeltaConfig::delta(4),
    );
}

#[test]
fn waves_match_oracle_on_static_parallel_baseline() {
    // the baseline serializes dependences through DRAM and unicasts
    // reads — a completely different timed path to the same answer
    assert_oracle_agrees(
        || Waves::new(vec![4, 2, 4], 24, true),
        DeltaConfig::static_parallel(4),
    );
}

#[test]
fn pipe_chains_match_oracle_direct_and_spilled() {
    // more lanes than tiles forces some chains to spill their pipes
    for tiles in [2, 8] {
        assert_oracle_agrees(
            || PipeChain {
                lanes: 4,
                stages: 3,
                seg_len: 16,
            },
            DeltaConfig::delta(tiles),
        );
    }
}

#[test]
fn pipe_chains_match_oracle_with_pipelining_disabled() {
    assert_oracle_agrees(
        || PipeChain {
            lanes: 3,
            stages: 2,
            seg_len: 8,
        },
        DeltaConfig::static_parallel(4),
    );
}

/// One task spawned by `spawn` over a 4-word DRAM image. Its types:
/// 0 `inc` (1 in, 1 out), 1 `split` (1 in; `x`, `x`), 2 `ragged` (1 in;
/// `x`, then the sum on the last firing), 3 `scaled` (`x * param 0`).
struct Contract {
    spawn: Spawn,
}

type Spawn = fn() -> TaskInstance;

impl Program for Contract {
    fn name(&self) -> &str {
        "contract"
    }
    fn task_types(&self) -> Vec<TaskType> {
        let mut split = DfgBuilder::new("split");
        let x = split.input();
        split.output(x);
        split.output(x);
        let mut ragged = DfgBuilder::new("ragged");
        let x = ragged.input();
        let sum = ragged.acc(x);
        ragged.output(x);
        ragged.output_on_last(sum);
        let mut scaled = DfgBuilder::new("scaled");
        let x = scaled.input();
        let k = scaled.param(0);
        let y = scaled.mul(x, k);
        scaled.output(y);
        let dfg = |b: DfgBuilder| TaskKernel::dfg(b.finish().unwrap());
        vec![
            inc_type("inc"),
            TaskType::new("split", dfg(split)),
            TaskType::new("ragged", dfg(ragged)),
            TaskType::new("scaled", dfg(scaled)),
        ]
    }
    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new().dram_segment(0, vec![1i64; 4])
    }
    fn initial(&mut self, s: &mut Spawner) {
        s.spawn((self.spawn)());
    }
    fn on_complete(&mut self, _d: &CompletedTask, _s: &mut Spawner) {}
}

/// Every program-contract violation is one check in the shared
/// functional core, so both engines reject it with the *same* message.
/// Each case also names a fragment of the message it must produce, so a
/// case that trips an earlier check fails.
#[test]
fn contract_errors_are_identical_in_both_engines() {
    fn ty(t: usize) -> TaskInstance {
        TaskInstance::new(TaskTypeId(t))
    }
    fn input() -> StreamDesc {
        StreamDesc::dram(0, 4)
    }
    const PHANTOM: PipeId = PipeId(7777);
    let cases: [(&str, Spawn); 12] = [
        ("unknown task type TaskTypeId(9)", || ty(9)),
        ("'inc' expects 1 inputs, got 0", || ty(0).output_discard()),
        ("'inc' expects 1 outputs, got 0", || {
            ty(0).input_stream(input())
        }),
        ("scatter on port 0 names invalid addr_port 2", || {
            ty(1)
                .input_stream(input())
                .output_scatter(DataSrc::Dram, 100, 1, 2, WriteMode::Add)
                .output_discard()
        }),
        ("scatter on port 0 names invalid addr_port 0", || {
            ty(1)
                .input_stream(input())
                .output_scatter(DataSrc::Dram, 100, 1, 0, WriteMode::Add)
                .output_discard()
        }),
        ("scatter addr_port 1 must be bound Discard", || {
            ty(1)
                .input_stream(input())
                .output_scatter(DataSrc::Dram, 100, 1, 1, WriteMode::Add)
                .output_memory(StreamDesc::dram(100, 4), WriteMode::Overwrite)
        }),
        (
            "task TaskId(0) uses undeclared input pipe PipeId(7777)",
            || ty(0).input_pipe(PHANTOM).output_discard(),
        ),
        (
            "task TaskId(0) uses undeclared output pipe PipeId(7777)",
            || ty(0).input_stream(input()).output_pipe(PHANTOM),
        ),
        ("output produced 4 words but descriptor covers 2", || {
            ty(0)
                .input_stream(input())
                .output_memory(StreamDesc::dram(100, 2), WriteMode::Overwrite)
        }),
        ("writes need an addressable descriptor, got Literal", || {
            ty(0)
                .input_stream(input())
                .output_memory(StreamDesc::literal(vec![0; 4]), WriteMode::Overwrite)
        }),
        ("ragged: scatter ports emit 4 values vs 1 indices", || {
            ty(2)
                .input_stream(input())
                .output_scatter(DataSrc::Dram, 100, 1, 1, WriteMode::Add)
                .output_discard()
        }),
        ("scaled: graph references 1 params but 0 supplied", || {
            ty(3).input_stream(input()).output_discard()
        }),
    ];
    for (want, spawn) in cases {
        let timed = Accelerator::new(DeltaConfig::delta(2)).run(&mut Contract { spawn });
        let Err(ts_delta::RunError::Program(timed_msg)) = timed else {
            panic!("{want}: expected a program error, got {timed:?}");
        };
        let oracle_msg = execute_untimed(&mut Contract { spawn }).unwrap_err();
        assert_eq!(timed_msg, oracle_msg, "engines disagree on the error");
        assert!(timed_msg.contains(want), "{want}: got {timed_msg}");
    }
}

/// The oracle's wedge error must say *which* tasks are stuck and on
/// *which* pipes, not just that a deadlock happened.
#[test]
fn oracle_deadlock_names_the_stuck_task_and_pipe() {
    struct Stuck;
    impl Program for Stuck {
        fn name(&self) -> &str {
            "stuck"
        }
        fn task_types(&self) -> Vec<TaskType> {
            vec![inc_type("inc")]
        }
        fn memory_image(&self) -> MemoryImage {
            MemoryImage::new()
        }
        fn initial(&mut self, s: &mut Spawner) {
            let p = s.pipe(4);
            // declared but never produced: ready() is false forever
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_pipe(p)
                    .output_discard(),
            );
        }
        fn on_complete(&mut self, _d: &CompletedTask, _s: &mut Spawner) {}
    }
    let err = execute_untimed(&mut Stuck).unwrap_err();
    assert!(err.contains("deadlock"), "unexpected: {err}");
    assert!(err.contains("TaskId(0)"), "no task named: {err}");
    assert!(err.contains("PipeId(0)"), "no pipe named: {err}");
    assert!(err.contains("'inc'"), "no type named: {err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random wave programs on random machine shapes: the timed run
    /// must satisfy conservation and match the oracle's final state.
    #[test]
    fn random_programs_match_oracle(
        widths in prop::collection::vec(1usize..5, 1..4),
        stream_len in 4usize..64,
        tiles in 1usize..6,
        latency in 1u64..260,
        work_stealing in prop::bool::ANY,
        write_out in prop::bool::ANY,
    ) {
        let cfg = DeltaConfig::builder(tiles)
            .spawn_latency(latency)
            .host_latency(latency)
            .work_stealing(work_stealing)
            .build();
        let timed = Accelerator::new(cfg)
            .run(&mut Waves::new(widths.clone(), stream_len, write_out))
            .unwrap();
        prop_assert!(timed.check_conservation(tiles).is_ok(),
            "conservation: {:?}", timed.check_conservation(tiles));
        let oracle = execute_untimed(&mut Waves::new(widths.clone(), stream_len, write_out))
            .unwrap();
        let eq = check_equivalence(&timed, &oracle);
        prop_assert!(eq.is_ok(), "equivalence: {:?}", eq);
    }
}
