//! Integration tests for the three TaskStream mechanisms and the
//! execution engine's contracts, using small hand-built programs.

use taskstream_model::{
    CompletedTask, MemoryImage, MergeKernel, Program, RegionId, Spawner, TaskInstance, TaskKernel,
    TaskType, TaskTypeId,
};
use ts_delta::{Accelerator, DeltaConfig, Features, RunReport};
use ts_dfg::DfgBuilder;
use ts_mem::WriteMode;
use ts_stream::{DataSrc, StreamDesc};

/// A program that runs `n_tasks` copy tasks over per-task DRAM slices of
/// wildly different lengths (task i processes `lens[i]` words).
struct SkewedCopies {
    lens: Vec<u64>,
    in_base: u64,
    out_base: u64,
}

impl SkewedCopies {
    fn new(lens: Vec<u64>) -> Self {
        SkewedCopies {
            lens,
            in_base: 0,
            out_base: 100_000,
        }
    }

    fn total(&self) -> u64 {
        self.lens.iter().sum()
    }
}

impl Program for SkewedCopies {
    fn name(&self) -> &str {
        "skewed_copies"
    }

    fn task_types(&self) -> Vec<TaskType> {
        let mut b = DfgBuilder::new("copy_inc");
        let x = b.input();
        let one = b.constant(1);
        let y = b.add(x, one);
        b.output(y);
        vec![TaskType::new(
            "copy_inc",
            TaskKernel::dfg(b.finish().unwrap()),
        )]
    }

    fn memory_image(&self) -> MemoryImage {
        let data: Vec<i64> = (0..self.total() as i64).collect();
        MemoryImage::new()
            .dram_segment(self.in_base, data)
            .dram_segment(self.out_base, vec![0; self.total() as usize])
    }

    fn initial(&mut self, s: &mut Spawner) {
        let mut off = 0;
        for (i, &len) in self.lens.iter().enumerate() {
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_stream(StreamDesc::dram(self.in_base + off, len))
                    .output_memory(
                        StreamDesc::dram(self.out_base + off, len),
                        WriteMode::Overwrite,
                    )
                    .affinity(i as u64),
            );
            off += len;
        }
    }

    fn on_complete(&mut self, _done: &CompletedTask, _s: &mut Spawner) {}
}

fn skewed_lens() -> Vec<u64> {
    // one giant task plus many small ones: poison for owner-computes
    let mut v = vec![4000u64];
    v.extend(std::iter::repeat_n(120, 28));
    v
}

/// Compute-bound skew: task i reduces an on-tile generated stream of
/// `lens[i]` elements — no memory traffic, so placement is the only
/// lever.
struct SkewedCompute {
    lens: Vec<u64>,
}

impl Program for SkewedCompute {
    fn name(&self) -> &str {
        "skewed_compute"
    }

    fn task_types(&self) -> Vec<TaskType> {
        let mut b = DfgBuilder::new("reduce");
        let x = b.input();
        let s = b.acc(x);
        b.output_on_last(s);
        vec![TaskType::new(
            "reduce",
            TaskKernel::dfg(b.finish().unwrap()),
        )]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new()
    }

    fn initial(&mut self, s: &mut Spawner) {
        for (i, &len) in self.lens.iter().enumerate() {
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_stream(StreamDesc::iota(0, 1, len))
                    .output_discard()
                    .affinity(i as u64),
            );
        }
    }

    fn on_complete(&mut self, _d: &CompletedTask, _s: &mut Spawner) {}
}

#[test]
fn results_are_correct_on_delta_and_baseline() {
    for cfg in [DeltaConfig::delta(4), DeltaConfig::static_parallel(4)] {
        let mut p = SkewedCopies::new(vec![64, 3, 17, 128, 1]);
        let report = Accelerator::new(cfg).run(&mut p).unwrap();
        for i in 0..p.total() {
            assert_eq!(report.dram(p.out_base + i), i as i64 + 1, "word {i} wrong");
        }
    }
}

#[test]
fn work_aware_beats_static_on_skew() {
    let mut p1 = SkewedCompute {
        lens: skewed_lens(),
    };
    let delta = Accelerator::new(DeltaConfig::delta(4))
        .run(&mut p1)
        .unwrap();
    let mut p2 = SkewedCompute {
        lens: skewed_lens(),
    };
    let baseline = Accelerator::new(DeltaConfig::static_parallel(4))
        .run(&mut p2)
        .unwrap();
    assert!(
        (delta.cycles as f64) < baseline.cycles as f64 * 0.9,
        "delta {} not clearly faster than baseline {}",
        delta.cycles,
        baseline.cycles
    );
    assert!(delta.load_imbalance() < baseline.load_imbalance());
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut p = SkewedCopies::new(skewed_lens());
        Accelerator::new(DeltaConfig::delta(4)).run(&mut p).unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.tasks_completed, b.tasks_completed);
}

#[test]
fn single_tile_works() {
    let mut p = SkewedCopies::new(vec![32, 32]);
    let r = Accelerator::new(DeltaConfig::delta(1)).run(&mut p).unwrap();
    assert_eq!(r.tasks_completed, 2);
}

// ---------------------------------------------------------------- pipes

/// Producer emits a scaled copy of a DRAM stream into a pipe; the
/// consumer merges it with a second sorted stream (native merge kernel)
/// and writes the result to DRAM.
struct PipeChain {
    n: u64,
}

impl Program for PipeChain {
    fn name(&self) -> &str {
        "pipe_chain"
    }

    fn task_types(&self) -> Vec<TaskType> {
        let mut b = DfgBuilder::new("scale2");
        let x = b.input();
        let two = b.constant(2);
        let y = b.mul(x, two);
        b.output(y);
        vec![
            TaskType::new("scale2", TaskKernel::dfg(b.finish().unwrap())),
            TaskType::new("merge", TaskKernel::native(MergeKernel)),
        ]
    }

    fn memory_image(&self) -> MemoryImage {
        let evens: Vec<i64> = (0..self.n as i64).map(|i| 2 * i).collect(); // producer doubles 0..n
        let odds: Vec<i64> = (0..self.n as i64).map(|i| 2 * i + 1).collect();
        MemoryImage::new()
            .dram_segment(0, (0..self.n as i64).collect::<Vec<_>>())
            .dram_segment(1000, odds)
            .dram_segment(2000, vec![0; 2 * self.n as usize])
            .dram_segment(5000, evens) // unused reference region
    }

    fn initial(&mut self, s: &mut Spawner) {
        let pipe = s.pipe(self.n);
        s.spawn(
            TaskInstance::new(TaskTypeId(0))
                .input_stream(StreamDesc::dram(0, self.n))
                .output_pipe(pipe),
        );
        s.spawn(
            TaskInstance::new(TaskTypeId(1))
                .input_pipe(pipe)
                .input_stream(StreamDesc::dram(1000, self.n))
                .output_memory(StreamDesc::dram(2000, 2 * self.n), WriteMode::Overwrite)
                .work_hint(2 * self.n),
        );
    }

    fn on_complete(&mut self, _done: &CompletedTask, _s: &mut Spawner) {}
}

#[test]
fn pipe_chain_is_correct_with_and_without_pipelining() {
    for cfg in [
        DeltaConfig::delta(4),
        DeltaConfig {
            features: Features {
                pipelining: false,
                multicast: true,
            },
            ..DeltaConfig::delta(4)
        },
        DeltaConfig::static_parallel(4),
    ] {
        let mut p = PipeChain { n: 64 };
        let r = Accelerator::new(cfg).run(&mut p).unwrap();
        let merged = r.dram_range(2000, 128);
        let expect: Vec<i64> = (0..128).collect();
        assert_eq!(merged, &expect[..]);
    }
}

#[test]
fn pipelining_overlaps_producer_and_consumer() {
    let run = |pipelining: bool| {
        let cfg = DeltaConfig {
            features: Features {
                pipelining,
                multicast: true,
            },
            ..DeltaConfig::delta(4)
        };
        let mut p = PipeChain { n: 512 };
        Accelerator::new(cfg).run(&mut p).unwrap()
    };
    let piped = run(true);
    let serial = run(false);
    assert!(
        piped.cycles < serial.cycles,
        "pipelined {} should beat serialized {}",
        piped.cycles,
        serial.cycles
    );
    assert!(piped.counters.tile_total().pipes_direct >= 1);
    assert!(serial.counters.tile_total().pipes_spilled >= 1);
    // spilling costs DRAM traffic
    assert!(serial.dram_words() > piped.dram_words());
}

// ------------------------------------------------------------- multicast

/// Many tasks read the same DRAM block (annotated shared) plus a private
/// slice, and reduce both into a single discarded sum.
struct SharedReaders {
    tasks: usize,
    shared_len: u64,
}

impl Program for SharedReaders {
    fn name(&self) -> &str {
        "shared_readers"
    }

    fn task_types(&self) -> Vec<TaskType> {
        let mut b = DfgBuilder::new("dotish");
        let shared = b.input();
        let private = b.input();
        let prod = b.mul(shared, private);
        let sum = b.acc(prod);
        b.output_on_last(sum);
        vec![TaskType::new(
            "dotish",
            TaskKernel::dfg(b.finish().unwrap()),
        )]
    }

    fn memory_image(&self) -> MemoryImage {
        let shared: Vec<i64> = (1..=self.shared_len as i64).collect();
        let private: Vec<i64> = vec![1; self.shared_len as usize * self.tasks];
        MemoryImage::new()
            .dram_segment(0, shared)
            .dram_segment(10_000, private)
    }

    fn initial(&mut self, s: &mut Spawner) {
        for t in 0..self.tasks {
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_shared(StreamDesc::dram(0, self.shared_len), RegionId(1))
                    .input_stream(StreamDesc::dram(
                        10_000 + (t as u64) * self.shared_len,
                        self.shared_len,
                    ))
                    .output_discard()
                    .affinity(t as u64),
            );
        }
    }

    fn on_complete(&mut self, done: &CompletedTask, _s: &mut Spawner) {
        let n = self.shared_len as i64;
        assert_eq!(done.outputs[0], vec![n * (n + 1) / 2]);
    }
}

#[test]
fn multicast_cuts_dram_reads_and_helps_performance() {
    let run = |multicast: bool| {
        let cfg = DeltaConfig {
            features: Features {
                pipelining: true,
                multicast,
            },
            ..DeltaConfig::delta(8)
        };
        let mut p = SharedReaders {
            tasks: 16,
            shared_len: 512,
        };
        Accelerator::new(cfg).run(&mut p).unwrap()
    };
    let with = run(true);
    let without = run(false);
    assert!(with.counters.dispatch.multicast_groups >= 1);
    assert_eq!(without.counters.dispatch.multicast_groups, 0);
    // 16 sharers of a 512-word block on 8 tiles: two groups of 8, so
    // shared traffic drops from 16x512 to 2x512 (private reads remain)
    let shared_unicast = 16 * 512;
    let saved = without
        .counters
        .dram
        .read_words
        .saturating_sub(with.counters.dram.read_words);
    assert!(
        saved * 5 >= shared_unicast * 4,
        "multicast saved only {saved} of {shared_unicast} shared words"
    );
    assert!(with.cycles <= without.cycles);
}

// --------------------------------------------------------------- scatter

/// Tasks relax `(dst, value)` pairs into a distance array with
/// scatter-min.
struct ScatterMin;

impl Program for ScatterMin {
    fn name(&self) -> &str {
        "scatter_min"
    }

    fn task_types(&self) -> Vec<TaskType> {
        let mut b = DfgBuilder::new("relax");
        let dst = b.input();
        let val = b.input();
        b.output(dst); // port 0: addresses
        b.output(val); // port 1: values
        vec![TaskType::new("relax", TaskKernel::dfg(b.finish().unwrap()))]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new()
            .dram_segment(0, vec![i64::MAX; 8]) // dist array
            .dram_segment(100, vec![3, 1, 3, 5]) // dsts
            .dram_segment(200, vec![30, 10, 7, 50]) // vals
    }

    fn initial(&mut self, s: &mut Spawner) {
        s.spawn(
            TaskInstance::new(TaskTypeId(0))
                .input_stream(StreamDesc::dram(100, 4))
                .input_stream(StreamDesc::dram(200, 4))
                .output_discard() // port 0 held by the scatter below
                .output_scatter(DataSrc::Dram, 0, 1, 0, WriteMode::Min),
        );
    }

    fn on_complete(&mut self, _d: &CompletedTask, _s: &mut Spawner) {}
}

#[test]
fn scatter_min_applies_rmw() {
    let mut p = ScatterMin;
    let r = Accelerator::new(DeltaConfig::delta(2)).run(&mut p).unwrap();
    assert_eq!(r.dram(1), 10);
    assert_eq!(r.dram(3), 7); // min(30, 7)
    assert_eq!(r.dram(5), 50);
    assert_eq!(r.dram(0), i64::MAX);
}

// --------------------------------------------------------- phase barrier

/// Uses `on_quiescent` to run two phases; phase 2 reads what phase 1
/// wrote.
struct TwoPhases {
    phase: usize,
}

impl Program for TwoPhases {
    fn name(&self) -> &str {
        "two_phases"
    }

    fn task_types(&self) -> Vec<TaskType> {
        let mut b = DfgBuilder::new("inc");
        let x = b.input();
        let one = b.constant(1);
        let y = b.add(x, one);
        b.output(y);
        vec![TaskType::new("inc", TaskKernel::dfg(b.finish().unwrap()))]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new()
            .dram_segment(0, vec![10; 16])
            .dram_segment(100, vec![0; 16])
            .dram_segment(200, vec![0; 16])
    }

    fn initial(&mut self, s: &mut Spawner) {
        s.spawn(
            TaskInstance::new(TaskTypeId(0))
                .input_stream(StreamDesc::dram(0, 16))
                .output_memory(StreamDesc::dram(100, 16), WriteMode::Overwrite),
        );
        self.phase = 1;
    }

    fn on_complete(&mut self, _d: &CompletedTask, _s: &mut Spawner) {}

    fn on_quiescent(&mut self, s: &mut Spawner) -> bool {
        if self.phase == 1 {
            self.phase = 2;
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_stream(StreamDesc::dram(100, 16))
                    .output_memory(StreamDesc::dram(200, 16), WriteMode::Overwrite),
            );
            true
        } else {
            false
        }
    }
}

#[test]
fn quiescent_phases_see_prior_writes() {
    let mut p = TwoPhases { phase: 0 };
    let r = Accelerator::new(DeltaConfig::delta(2)).run(&mut p).unwrap();
    assert_eq!(r.dram_range(200, 16), &[12i64; 16][..]);
}

// ----------------------------------------------------------- error paths

struct BadArity;

impl Program for BadArity {
    fn name(&self) -> &str {
        "bad_arity"
    }

    fn task_types(&self) -> Vec<TaskType> {
        let mut b = DfgBuilder::new("two_in");
        let x = b.input();
        let y = b.input();
        let s = b.add(x, y);
        b.output(s);
        vec![TaskType::new(
            "two_in",
            TaskKernel::dfg(b.finish().unwrap()),
        )]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new().dram_segment(0, vec![1, 2, 3])
    }

    fn initial(&mut self, s: &mut Spawner) {
        // only one input bound: must be rejected
        s.spawn(
            TaskInstance::new(TaskTypeId(0))
                .input_stream(StreamDesc::dram(0, 3))
                .output_discard(),
        );
    }

    fn on_complete(&mut self, _d: &CompletedTask, _s: &mut Spawner) {}
}

#[test]
fn arity_mismatch_is_a_program_error() {
    let err = Accelerator::new(DeltaConfig::delta(2))
        .run(&mut BadArity)
        .unwrap_err();
    assert!(err.to_string().contains("expects 2 inputs"));
}

#[test]
fn report_helpers_cover_tiles() {
    let mut p = SkewedCopies::new(vec![64; 8]);
    let r: RunReport = Accelerator::new(DeltaConfig::delta(4)).run(&mut p).unwrap();
    assert_eq!(r.tile_busy().len(), 4);
    assert!(r.load_imbalance() >= 1.0);
    assert!(r.dram_words() > 0.0);
    assert!(r.noc_hops() > 0.0);
}
