//! Fault-injection contract tests: faults perturb *timing only* (every
//! fault-enabled run still matches the plain reference semantics and
//! the untimed oracle), the whole subsystem is a pure function of the
//! seed (same seed → byte-identical `FaultReport`, whether the run is
//! event-driven or densely ticked), and with every rate at zero the subsystem
//! is inert down to the last report byte.

use proptest::prelude::*;
use taskstream_model::{
    CompletedTask, MemoryImage, Program, Spawner, TaskInstance, TaskKernel, TaskType, TaskTypeId,
};
use ts_delta::oracle::{check_equivalence, execute_untimed};
use ts_delta::{Accelerator, DeltaConfig, FaultReport, FaultsConfig, RunReport, TraceEvent};
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

/// The same wave generator the oracle and scheduler suites use:
/// parameterized waves of reductions over a shared DRAM stream, each
/// task writing its sum to a distinct DRAM word.
#[derive(Clone)]
struct Waves {
    widths: Vec<usize>,
    stream_len: usize,
    wave: usize,
    outstanding: usize,
    spawned: u64,
}

impl Waves {
    const OUT_BASE: u64 = 4096;

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
            let addr = Self::OUT_BASE + self.spawned;
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

/// Runs under faults and holds the result to the full bar: completes,
/// satisfies conservation, and matches the untimed oracle's final
/// state — the injected faults must not have corrupted anything.
fn run_checked<P: Program>(make: impl Fn() -> P, cfg: DeltaConfig) -> RunReport {
    let tiles = cfg.tiles;
    let report = Accelerator::new(cfg).run(&mut make()).unwrap();
    report.check_conservation(tiles).unwrap();
    let truth = execute_untimed(&mut make()).unwrap();
    check_equivalence(&report, &truth).unwrap();
    report
}

#[test]
fn zero_rates_leave_the_report_byte_identical() {
    let mk = || Waves::new(vec![4, 3, 5], 32);
    let plain = Accelerator::new(DeltaConfig::delta(4))
        .run(&mut mk())
        .unwrap();
    // All rates zero but recovery armed: the subsystem must not even
    // perturb the schedule, let alone the counts.
    let mut inert = FaultsConfig::none();
    inert.recovery = true;
    let armed = Accelerator::new(DeltaConfig::builder(4).faults(inert).build())
        .run(&mut mk())
        .unwrap();
    assert_eq!(armed.cycles, plain.cycles);
    assert_eq!(armed.tasks_completed, plain.tasks_completed);
    assert_eq!(armed.counters, plain.counters);
    assert_eq!(armed.timeline, plain.timeline);
    assert_eq!(armed.dram_range(0, 64), plain.dram_range(0, 64));
    assert_eq!(armed.faults, FaultReport::default());
    assert_eq!(plain.faults, FaultReport::default());
}

/// Everything at once, scaled for a short test run.
fn storm() -> FaultsConfig {
    FaultsConfig {
        tile_fail_rate: 0.25,
        tile_fail_window: 400,
        tile_stall_rate: 0.1,
        tile_stall_cycles: 60,
        tile_stall_epoch: 256,
        noc_drop_rate: 0.01,
        dram_retry_rate: 0.05,
        dram_retry_cycles: 40,
        recovery: true,
        watchdog_timeout: 2_000,
        ..FaultsConfig::none()
    }
}

#[test]
fn same_seed_same_fault_report_across_engines() {
    let mk = || Waves::new(vec![6, 5, 6], 32);
    let cfg = DeltaConfig::builder(4).faults(storm()).seed(11).build();
    let dense = Accelerator::new(cfg.clone()).run_dense(&mut mk()).unwrap();
    assert!(dense.faults.injected() > 0, "storm injected nothing");
    let r = Accelerator::new(cfg.clone()).run(&mut mk()).unwrap();
    assert_eq!(r.cycles, dense.cycles);
    assert_eq!(r.counters, dense.counters);
    assert_eq!(
        r.faults, dense.faults,
        "fault report diverged from the dense reference"
    );
    // And the trivial direction: the same exact config, twice.
    let again = Accelerator::new(cfg.clone()).run(&mut mk()).unwrap();
    let first = Accelerator::new(cfg).run(&mut mk()).unwrap();
    assert_eq!(again.faults, first.faults);
    assert_eq!(again.cycles, first.cycles);
}

#[test]
fn fail_stop_recovery_completes_and_matches_the_oracle() {
    let faults = FaultsConfig {
        tile_fail_rate: 0.5,
        tile_fail_window: 200,
        recovery: true,
        watchdog_timeout: 2_000,
        ..FaultsConfig::none()
    };
    let cfg = DeltaConfig::builder(4).faults(faults).seed(3).build();
    let r = run_checked(|| Waves::new(vec![6, 6, 6], 32), cfg);
    assert!(r.faults.tile_fail_stops >= 1, "no tile fail-stopped");
    assert!(
        r.faults.tasks_redispatched >= 1,
        "fail-stop evicted no queued work: {:?}",
        r.faults
    );
    assert_eq!(r.faults.recovered(), r.faults.tasks_redispatched);
    assert!(r.faults.cycles_lost() > 0);
}

#[test]
fn flit_loss_is_recovered_by_the_watchdog() {
    let faults = FaultsConfig {
        noc_drop_rate: 0.05,
        recovery: true,
        watchdog_timeout: 500,
        ..FaultsConfig::none()
    };
    let cfg = DeltaConfig::builder(4).faults(faults).seed(5).build();
    let r = run_checked(|| Waves::new(vec![5, 5, 5, 5], 48), cfg);
    assert!(
        r.faults.noc_flits_dropped + r.faults.noc_flits_corrupted > 0,
        "no flit faults landed: {:?}",
        r.faults
    );
}

#[test]
fn dram_retries_add_latency_but_never_corruption() {
    let mk = || Waves::new(vec![4, 4], 48);
    let clean = run_checked(mk, DeltaConfig::delta(4));
    let faults = FaultsConfig {
        dram_retry_rate: 0.2,
        dram_retry_cycles: 50,
        ..FaultsConfig::none()
    };
    let slow = run_checked(mk, DeltaConfig::builder(4).faults(faults).build());
    assert!(slow.faults.dram_retries > 0, "no retries fired");
    assert_eq!(slow.tasks_completed, clean.tasks_completed);
    assert!(
        slow.cycles > clean.cycles,
        "retry latency is free? {} vs {}",
        slow.cycles,
        clean.cycles
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random wave programs under random fault schedules: with
    /// recovery on the run must always complete, satisfy conservation,
    /// and agree with the untimed oracle — faults perturb timing,
    /// never function.
    #[test]
    fn random_fault_schedules_never_corrupt_function(
        widths in prop::collection::vec(1usize..6, 1..4),
        stream_len in 8usize..64,
        tiles in 2usize..6,
        fail_pct in 0u32..50,
        drop_mil in 0u32..30,
        retry_mil in 0u32..100,
        seed in 0u64..1000,
    ) {
        let faults = FaultsConfig {
            tile_fail_rate: f64::from(fail_pct) / 100.0,
            tile_fail_window: 300,
            tile_stall_rate: 0.05,
            tile_stall_cycles: 50,
            tile_stall_epoch: 256,
            noc_drop_rate: f64::from(drop_mil) / 1000.0,
            dram_retry_rate: f64::from(retry_mil) / 1000.0,
            dram_retry_cycles: 30,
            recovery: true,
            watchdog_timeout: 1_500,
            ..FaultsConfig::none()
        };
        let cfg = DeltaConfig::builder(tiles).faults(faults).seed(seed).build();
        let mk = || Waves::new(widths.clone(), stream_len);
        let timed = Accelerator::new(cfg).run(&mut mk()).unwrap();
        prop_assert!(timed.check_conservation(tiles).is_ok(),
            "conservation: {:?}", timed.check_conservation(tiles));
        let truth = execute_untimed(&mut mk()).unwrap();
        let eq = check_equivalence(&timed, &truth);
        prop_assert!(eq.is_ok(), "equivalence: {:?}", eq);
    }
}

/// Producer→consumer pipe pairs: each producer doubles a DRAM stream
/// into a pipe, and its consumer sums the pipe into its own DRAM word.
/// With pipelining each pair co-schedules on two tiles and the words
/// stream direct, tile to tile.
struct PipePairs {
    pairs: usize,
    len: u64,
}

impl Program for PipePairs {
    fn name(&self) -> &str {
        "pipe_pairs"
    }

    fn task_types(&self) -> Vec<TaskType> {
        let mut b = DfgBuilder::new("double");
        let x = b.input();
        let two = b.constant(2);
        let y = b.mul(x, two);
        b.output(y);
        vec![
            TaskType::new("double", TaskKernel::dfg(b.finish().unwrap())),
            reduce_type("sum"),
        ]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new().dram_segment(0, (1..=self.len as i64).collect::<Vec<_>>())
    }

    fn initial(&mut self, s: &mut Spawner) {
        for i in 0..self.pairs as u64 {
            let pipe = s.pipe(self.len);
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_stream(StreamDesc::dram(0, self.len))
                    .affinity(2 * i)
                    .output_pipe(pipe),
            );
            s.spawn(
                TaskInstance::new(TaskTypeId(1))
                    .input_pipe(pipe)
                    .affinity(2 * i + 1)
                    .output_memory(StreamDesc::dram(4096 + i, 1), WriteMode::Overwrite),
            );
        }
    }

    fn on_complete(&mut self, _done: &CompletedTask, _s: &mut Spawner) {}
}

/// Pipe consumers pulled off fail-stopped tiles while their producers
/// still stream direct to them: the re-dispatch demotes the pipe to a
/// spill buffer and re-reads it. Every seed must complete, conserve,
/// match the oracle and match dense ticking, and the sweep must reach
/// that demotion (a `PipeSpill` immediately before the consumer's
/// `TaskRedispatch`).
#[test]
fn pipe_consumers_redispatched_under_fail_stop() {
    let tiles = 6;
    let mk = || PipePairs { pairs: 3, len: 256 };
    let base = DeltaConfig::builder(tiles)
        .faults(FaultsConfig {
            tile_fail_rate: 0.5,
            tile_fail_window: 400,
            recovery: true,
            watchdog_timeout: 2_000,
            ..FaultsConfig::none()
        })
        .trace(true);
    let (mut replays, mut demotions) = (0, 0);
    for seed in 0..16 {
        let cfg = base.clone().seed(seed).build();
        let r = run_checked(mk, cfg.clone());
        let dense = Accelerator::new(cfg).run_dense(&mut mk()).unwrap();
        assert_eq!(r.cycles, dense.cycles, "seed {seed}: cycles");
        assert_eq!(r.counters, dense.counters, "seed {seed}: counters");
        assert_eq!(r.faults, dense.faults, "seed {seed}: fault report");
        let demoted = r
            .trace
            .windows(2)
            .filter(|w| {
                matches!(
                    (&w[0].event, &w[1].event),
                    (
                        TraceEvent::PipeSpill { .. },
                        TraceEvent::TaskRedispatch { .. }
                    )
                )
            })
            .count() as u64;
        assert!(
            r.faults.pipe_replays >= demoted,
            "seed {seed}: {demoted} demotions but {:?}",
            r.faults
        );
        replays += r.faults.pipe_replays;
        demotions += demoted;
    }
    assert!(replays > 0, "no seed replayed a pipe");
    assert!(
        demotions > 0,
        "no seed demoted a direct pipe on re-dispatch"
    );
}
