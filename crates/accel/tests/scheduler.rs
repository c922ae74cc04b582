//! Differential tests of the event-driven scheduler against the dense
//! reference: [`Accelerator::run`] jumps over quiescent stretches,
//! defers tiles whose next event is ahead (idle tiles and heads blocked
//! on stream data), and lets the memory controller and mesh sleep, then
//! replays every deferred stretch in closed form.
//! [`Accelerator::run_dense`] ticks every component on every cycle. The
//! two must agree bit for bit on every observable — cycles, tasks,
//! timeline, counters, DRAM image, trace stream and fault report — while
//! the event-driven run actually takes its shortcuts.

use proptest::prelude::*;
use std::collections::HashMap;
use taskstream_model::{
    CompletedTask, MemoryImage, Policy, Program, Spawner, TaskInstance, TaskKernel, TaskType,
    TaskTypeId,
};
use ts_delta::tenancy::tag_affinity;
use ts_delta::{
    Accelerator, DeltaConfig, FaultsConfig, Features, PartitionPolicy, RunReport, TenancyConfig,
    TenantSpec, TraceEvent,
};
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

/// Waves of parameterized width over a shared input stream (so the
/// dispatcher forms multicast groups), optionally writing each task's
/// reduction to a distinct DRAM word (exercising sink drains and the
/// write/ack path through controller and mesh). Each wave spawns the
/// next when its last task completes; width-1 waves make a strictly
/// serial chain whose spawn/host latency windows leave the whole
/// machine quiescent.
struct Waves {
    widths: Vec<usize>,
    stream_len: usize,
    write_out: bool,
    wave: usize,
    outstanding: usize,
    spawned: u64,
}

impl Waves {
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

    /// A serial chain of `n` reductions over the whole input image.
    fn chain(n: usize) -> Self {
        Waves::new(vec![1; n], 64, false)
    }

    /// Base of the per-task one-word output region (past the input
    /// image, far from anything the kernels read).
    const OUT_BASE: u64 = 4096;

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

    fn on_complete(&mut self, done: &CompletedTask, s: &mut Spawner) {
        let n = self.stream_len as i64;
        assert_eq!(done.outputs[0], vec![n * (n + 1) / 2]);
        self.outstanding -= 1;
        if self.outstanding == 0 && self.wave < self.widths.len() {
            self.spawn_wave(s);
        }
    }
}

/// `ticks + skipped == cycles` per component (tiles additionally fold
/// in bulk-advanced blocked cycles and sum over all tiles); loop
/// iterations plus jumped cycles must cover the whole run.
fn check_attribution(r: &RunReport, tiles: u64) -> Result<(), String> {
    let p = &r.profile;
    let identities = [
        ("loop + jump", p.loop_cycles + p.jump_cycles, r.cycles),
        (
            "tile ticks + skipped + bulk",
            p.tile_ticks + p.tile_skipped + p.tile_bulk_cycles,
            r.cycles * tiles,
        ),
        ("mem ticks + skipped", p.mem_ticks + p.mem_skipped, r.cycles),
        ("noc ticks + skipped", p.noc_ticks + p.noc_skipped, r.cycles),
    ];
    match identities.iter().find(|(_, got, want)| got != want) {
        Some((what, got, want)) => Err(format!("{what} = {got}, expected {want}")),
        None => Ok(()),
    }
}

/// Compares every observable of the event-driven report `ev` with the
/// dense reference `dn`, checks both profiles' cycle attribution, and
/// checks that `dn` really ticked densely while `ev` consulted the
/// tiles' next events. `skipped_cycles` and the profile are scheduler
/// bookkeeping, not observables, and are expected to differ.
fn compare(ev: &RunReport, dn: &RunReport, tiles: u64) -> Result<(), String> {
    if (ev.cycles, ev.tasks_completed) != (dn.cycles, dn.tasks_completed) {
        return Err(format!(
            "(cycles, tasks) diverged: event {:?} vs dense {:?}",
            (ev.cycles, ev.tasks_completed),
            (dn.cycles, dn.tasks_completed)
        ));
    }
    let observables = [
        ("timeline", ev.timeline == dn.timeline),
        ("counters", ev.counters == dn.counters),
        (
            "DRAM input image",
            ev.dram_range(0, 64) == dn.dram_range(0, 64),
        ),
        (
            "DRAM output region",
            ev.dram_range(Waves::OUT_BASE, 64) == dn.dram_range(Waves::OUT_BASE, 64),
        ),
        ("trace stream", ev.trace == dn.trace),
        ("trace drop count", ev.trace_dropped == dn.trace_dropped),
        ("fault report", ev.faults == dn.faults),
    ];
    if let Some((what, _)) = observables.iter().find(|(_, same)| !same) {
        return Err(format!("{what} diverged from the dense reference"));
    }
    check_attribution(ev, tiles).map_err(|e| format!("event: {e}"))?;
    check_attribution(dn, tiles).map_err(|e| format!("dense: {e}"))?;
    let p = &dn.profile;
    if dn.skipped_cycles != 0
        || p.loop_cycles != dn.cycles
        || p.tile_ticks != dn.cycles * tiles
        || p.mem_ticks != dn.cycles
        || p.noc_ticks != dn.cycles
        || p.tile_next_event_calls != 0
    {
        return Err(format!("dense reference skipped work: {p:?}"));
    }
    if ev.profile.tile_next_event_calls == 0 {
        return Err("next_event was never consulted; the test is vacuous".into());
    }
    Ok(())
}

/// Runs `make()` under both engines, asserts they agree (see
/// [`compare`]), and returns the event-driven report for per-test
/// checks that the interesting shortcut engaged.
fn assert_engines_agree<P: Program>(make: impl Fn() -> P, cfg: DeltaConfig) -> RunReport {
    let tiles = cfg.tiles as u64;
    let mut accel = Accelerator::new(cfg);
    let ev = accel.run(&mut make()).unwrap();
    let dn = accel.run_dense(&mut make()).unwrap();
    compare(&ev, &dn, tiles).unwrap_or_else(|e| panic!("{e}"));
    ev
}

#[test]
fn serial_chain_jumps_quiescent_windows() {
    // Long spawn/host latencies leave windows far wider than the
    // timeline stride, so sample backfill is exercised too.
    let cfg = DeltaConfig {
        spawn_latency: 700,
        host_latency: 700,
        ..DeltaConfig::delta(4)
    };
    let ev = assert_engines_agree(|| Waves::chain(6), cfg);
    assert!(ev.skipped_cycles > 0, "never jumped; the test is vacuous");
    assert!(ev.profile.tile_skipped > 0, "never deferred an idle tile");
}

#[test]
fn serial_chain_default_latencies_still_skip() {
    // Even the preset's 12-cycle latencies give quiescent windows.
    let ev = assert_engines_agree(|| Waves::chain(8), DeltaConfig::delta(2));
    assert!(ev.skipped_cycles > 0, "never jumped; the test is vacuous");
    assert!(ev.profile.tile_skipped > 0, "never deferred an idle tile");
}

#[test]
fn parallel_waves_jump_between_waves() {
    let cfg = DeltaConfig {
        spawn_latency: 400,
        host_latency: 400,
        ..DeltaConfig::delta(8)
    };
    let ev = assert_engines_agree(|| Waves::new(vec![6; 4], 32, false), cfg);
    assert!(ev.skipped_cycles > 0, "never jumped; the test is vacuous");
}

#[test]
fn partial_occupancy_defers_idle_tiles() {
    // Waves narrower than the machine: some tiles busy, some idle, so
    // the whole-machine jump rarely fires but idle tiles still sleep.
    let cfg = DeltaConfig {
        spawn_latency: 200,
        host_latency: 200,
        ..DeltaConfig::delta(8)
    };
    let ev = assert_engines_agree(|| Waves::new(vec![3, 2, 3], 32, true), cfg);
    assert!(ev.profile.tile_skipped > 0, "never deferred an idle tile");
}

#[test]
fn work_stealing_wakes_thieves_correctly() {
    for (latency, widths, stream_len) in [(300, vec![5, 5, 5], 32), (250, vec![6, 5, 6], 24)] {
        let cfg = DeltaConfig {
            work_stealing: true,
            spawn_latency: latency,
            host_latency: latency,
            ..DeltaConfig::delta(4)
        };
        let ev = assert_engines_agree(|| Waves::new(widths.clone(), stream_len, false), cfg);
        assert!(ev.profile.tile_skipped > 0 || ev.skipped_cycles > 0);
    }
}

#[test]
fn static_parallel_preset_agrees() {
    for (latency, widths) in [(150, vec![2, 4, 1]), (100, vec![3, 2, 3])] {
        let cfg = DeltaConfig {
            spawn_latency: latency,
            host_latency: latency,
            ..DeltaConfig::static_parallel(4)
        };
        let ev = assert_engines_agree(|| Waves::new(widths.clone(), 24, true), cfg);
        assert!(ev.profile.tile_skipped > 0, "never deferred an idle tile");
    }
}

#[test]
fn latency_bound_waves_bulk_advance_blocked_heads() {
    // Long memory latency leaves running heads input-blocked for long
    // known stretches: the bulk-advance regime must actually engage.
    let mut cfg = DeltaConfig {
        spawn_latency: 120,
        host_latency: 120,
        ..DeltaConfig::delta(4)
    };
    cfg.dram.latency = 60;
    let ev = assert_engines_agree(|| Waves::new(vec![3, 4, 2], 48, true), cfg);
    assert!(
        ev.profile.tile_bulk_cycles > 0,
        "latency-bound run never bulk-advanced a blocked tile"
    );
}

#[test]
fn traced_run_agrees() {
    let cfg = DeltaConfig {
        trace: true,
        spawn_latency: 90,
        host_latency: 90,
        ..DeltaConfig::delta(4)
    };
    let ev = assert_engines_agree(|| Waves::new(vec![4, 3], 32, true), cfg);
    assert!(!ev.trace.is_empty(), "traced run recorded nothing");
}

/// Drain-boundary regression: a tiny output buffer forces sinks to
/// drain word by word through the NoC, so the "drain at a known rate"
/// regime crosses many ack boundaries per task.
#[test]
fn drain_boundary_regression() {
    let cfg = DeltaConfig {
        out_buf: 2,
        noc_queue: 2,
        spawn_latency: 40,
        host_latency: 40,
        ..DeltaConfig::delta(2)
    };
    assert_engines_agree(|| Waves::new(vec![2; 4], 40, true), cfg);
}

/// Multicast-window regression: a one-cycle batching window splinters
/// shared reads into many small multicast groups, so group formation
/// and flit fan-out land on exact cycles the deferred tiles must
/// reproduce.
#[test]
fn multicast_window_regression() {
    let cfg = DeltaConfig {
        mcast_batch_window: 1,
        spawn_latency: 30,
        host_latency: 30,
        ..DeltaConfig::delta(4)
    };
    assert_engines_agree(|| Waves::new(vec![4; 3], 48, true), cfg);
}

#[test]
fn chaos_faults_with_recovery_agree() {
    // Fault injection (fail-stops, stalls, flit drops, DRAM retries,
    // recovery on) must draw per-(seed, site, time) identically when
    // tiles are deferred: watchdog strides and stall windows clamp the
    // jumps.
    let cfg = DeltaConfig {
        faults: FaultsConfig::chaos(),
        seed: 7,
        spawn_latency: 80,
        host_latency: 80,
        ..DeltaConfig::delta(4)
    };
    assert_engines_agree(|| Waves::new(vec![4, 3, 4], 32, true), cfg);
}

/// Regression: a jump taken on a watchdog-stride cycle skipped that
/// cycle's scan, so a stuck task's "unchanged since" stamp came one
/// stride late and the watchdog evicted it 64 cycles after the densely
/// ticked machine did.
#[test]
fn watchdog_scan_on_a_stride_cycle_is_never_jumped() {
    let mut cfg = DeltaConfig {
        spawn_latency: 117,
        host_latency: 117,
        work_stealing: true,
        faults: FaultsConfig::chaos(),
        seed: 671,
        ..DeltaConfig::delta(3)
    };
    cfg.dram.latency = 18;
    let ev = assert_engines_agree(|| Waves::new(vec![2, 4, 4], 39, true), cfg);
    assert!(ev.faults.watchdog_fires > 0, "the watchdog never fired");
}

/// Regression: an idle tile that fail-stops inside an all-idle jump was
/// traced at the jump's target instead of the cycle it failed on.
#[test]
fn traced_fail_stop_of_an_idle_tile_is_stamped_on_time() {
    let mut cfg = DeltaConfig {
        spawn_latency: 130,
        host_latency: 130,
        work_stealing: true,
        faults: FaultsConfig::chaos(),
        trace: true,
        seed: 849,
        ..DeltaConfig::delta(4)
    };
    cfg.dram.latency = 14;
    let ev = assert_engines_agree(|| Waves::new(vec![2, 4], 27, true), cfg);
    assert!(ev.faults.tile_fail_stops > 0, "no tile fail-stopped");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random wave programs × machine shapes × fault schedules, traced
    /// or not: the event-driven engine must match the dense reference
    /// bit for bit.
    #[test]
    fn random_programs_match_the_dense_reference(
        widths in prop::collection::vec(1usize..5, 1..4),
        stream_len in 4usize..64,
        tiles in 1usize..6,
        latency in 1u64..260,
        dram_latency in 1u64..80,
        work_stealing in prop::bool::ANY,
        write_out in prop::bool::ANY,
        chaos in prop::bool::ANY,
        trace in prop::bool::ANY,
        seed in 0u64..1000,
    ) {
        let mut cfg = DeltaConfig {
            spawn_latency: latency,
            host_latency: latency,
            work_stealing,
            trace,
            seed,
            ..DeltaConfig::delta(tiles)
        };
        cfg.dram.latency = dram_latency;
        if chaos {
            cfg.faults = FaultsConfig::chaos();
        }
        let mut accel = Accelerator::new(cfg);
        let make = || Waves::new(widths.clone(), stream_len, write_out);
        let ev = accel.run(&mut make()).unwrap();
        let dn = accel.run_dense(&mut make()).unwrap();
        let verdict = compare(&ev, &dn, tiles as u64);
        prop_assert!(verdict.is_ok(), "chaos={}, trace={}: {:?}", chaos, trace, verdict);
    }
}

/// One batch of tasks spawned up front, each writing one DRAM word at
/// `Waves::OUT_BASE + i`: plain reductions of the input image, or
/// producer → pipe → consumer pairs. Task `i` belongs to tenant
/// `tenant_of(i)`.
struct Batch {
    tasks: u64,
    pairs: bool,
    tenant_of: fn(u64) -> usize,
}

impl Batch {
    /// Words each task streams from the input image.
    const LEN: u64 = 48;

    fn reductions(tasks: u64) -> Self {
        Batch {
            tasks,
            pairs: false,
            tenant_of: |_| 0,
        }
    }

    fn pairs(tasks: u64) -> Self {
        Batch {
            pairs: true,
            ..Batch::reductions(tasks)
        }
    }
}

impl Program for Batch {
    fn name(&self) -> &str {
        "batch"
    }

    fn task_types(&self) -> Vec<TaskType> {
        let mut b = DfgBuilder::new("double");
        let x = b.input();
        let two = b.constant(2);
        let y = b.mul(x, two);
        b.output(y);
        vec![
            reduce_type("sum"),
            TaskType::new("double", TaskKernel::dfg(b.finish().unwrap())),
        ]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new().dram_segment(0, (1..=64i64).collect::<Vec<_>>())
    }

    fn initial(&mut self, s: &mut Spawner) {
        for i in 0..self.tasks {
            let tenant = (self.tenant_of)(i);
            let out = StreamDesc::dram(Waves::OUT_BASE + i, 1);
            let input = StreamDesc::dram(0, Self::LEN);
            let sum = TaskInstance::new(TaskTypeId(0)).affinity(tag_affinity(tenant, 2 * i + 1));
            if self.pairs {
                let pipe = s.pipe(Self::LEN);
                s.spawn(
                    TaskInstance::new(TaskTypeId(1))
                        .input_stream(input)
                        .affinity(tag_affinity(tenant, 2 * i))
                        .output_pipe(pipe),
                );
                s.spawn(
                    sum.input_pipe(pipe)
                        .output_memory(out, WriteMode::Overwrite),
                );
            } else {
                s.spawn(
                    sum.input_stream(input)
                        .output_memory(out, WriteMode::Overwrite),
                );
            }
        }
    }

    fn on_complete(&mut self, _done: &CompletedTask, _s: &mut Spawner) {}
}

/// The longest a task waited between becoming ready and being
/// dispatched, from the trace: a long wait means the dispatch scan
/// found nothing placeable over many consecutive cycles.
fn longest_ready_wait(r: &RunReport) -> u64 {
    let mut ready = HashMap::new();
    let mut longest = 0;
    for rec in &r.trace {
        match rec.event {
            TraceEvent::TaskReady { task } => {
                ready.insert(task, rec.cycle);
            }
            TraceEvent::TaskDispatch { task, .. } => {
                longest = longest.max(rec.cycle - ready[&task]);
            }
            _ => {}
        }
    }
    longest
}

/// Runs `make()` traced and untraced under both engines; the traced
/// run must show pending tasks blocked for at least `min_wait` cycles,
/// the stretches over which the dispatch scan is skipped. Returns the
/// traced event-driven report.
fn assert_blocked_dispatch_agrees<P: Program>(
    make: impl Fn() -> P,
    cfg: DeltaConfig,
    min_wait: u64,
) -> RunReport {
    assert_engines_agree(
        &make,
        DeltaConfig {
            trace: false,
            ..cfg.clone()
        },
    );
    let ev = assert_engines_agree(&make, DeltaConfig { trace: true, ..cfg });
    let wait = longest_ready_wait(&ev);
    assert!(
        wait >= min_wait,
        "longest ready-to-dispatch wait {wait} < {min_wait}; the test is vacuous"
    );
    ev
}

#[test]
fn consumers_blocked_on_producer_completion_agree() {
    // Without pipelining a consumer dispatches only once its producer
    // completed, so consumers sit pending while producers stream.
    let cfg = DeltaConfig {
        features: Features {
            pipelining: false,
            ..Features::all()
        },
        ..DeltaConfig::delta(4)
    };
    assert_blocked_dispatch_agrees(|| Batch::pairs(6), cfg, 100);
}

#[test]
fn full_tile_queues_agree() {
    // A batch far wider than the queues: pending tasks wait while every
    // tile queue is full, and completions free one slot at a time.
    let cfg = DeltaConfig {
        tile_queue: 1,
        ..DeltaConfig::delta(3)
    };
    assert_blocked_dispatch_agrees(|| Batch::reductions(14), cfg, 100);
}

#[test]
fn full_owner_queue_freed_by_a_steal_agrees() {
    // Static hashing sends every task to one owner tile; the other tile
    // idles and steals from it, and the pending tasks take the owner
    // slots those steals free.
    let cfg = DeltaConfig {
        policy: Policy::StaticHash,
        work_stealing: true,
        tile_queue: 3,
        ..DeltaConfig::delta(2)
    };
    assert_blocked_dispatch_agrees(|| Batch::reductions(12), cfg, 100);
}

#[test]
fn spatial_tenancy_agrees() {
    // Tenant 0 floods its half of the fabric while tenant 1's half
    // drains and idles: tenant 0's pending tasks stay unplaceable even
    // though idle tiles exist, and tenant 1's paced arrivals must still
    // place the cycle they are admitted.
    let cfg = DeltaConfig {
        tile_queue: 2,
        tenancy: TenancyConfig {
            partition: PartitionPolicy::Spatial,
            ..TenancyConfig::shared(vec![TenantSpec::flood(), TenantSpec::paced(150)])
        },
        ..DeltaConfig::delta(4)
    };
    let make = || Batch {
        tenant_of: |i| usize::from(i % 4 == 3),
        ..Batch::reductions(16)
    };
    assert_blocked_dispatch_agrees(make, cfg, 100);
}

#[test]
fn fail_stop_schedule_agrees() {
    // Under a fault schedule the scan runs every cycle (down-tile masks
    // change with time alone); pending pairs still block on full queues
    // and on producers while tiles fail and victims re-dispatch.
    let base = DeltaConfig {
        tile_queue: 2,
        features: Features {
            pipelining: false,
            ..Features::all()
        },
        faults: FaultsConfig {
            tile_fail_rate: 0.5,
            tile_fail_window: 600,
            recovery: true,
            watchdog_timeout: 2_000,
            ..FaultsConfig::none()
        },
        ..DeltaConfig::delta(4)
    };
    let mut stops = 0;
    for seed in 0..4 {
        let cfg = DeltaConfig {
            seed,
            ..base.clone()
        };
        let ev = assert_blocked_dispatch_agrees(|| Batch::pairs(6), cfg, 100);
        stops += ev.faults.tile_fail_stops;
    }
    assert!(stops > 0, "no tile fail-stopped");
}
