//! The accelerator: composition and main simulation loop.

use crate::config::DeltaConfig;
use crate::dispatch::{is_ready, PendingTask};
use crate::exec::{
    DramJobSpec, Feed, FeedKind, ProgressSig, Sink, SinkKind, TaskExec, Tile, TileIo,
};
use crate::faults::{FaultReport, FaultSchedule, FlitFault};
use crate::functional::{self, Memory, TaskResults};
use crate::memctrl::{MemCtrl, ReadReq};
use crate::msg::Msg;
use crate::pipes::{PipeMode, PipeTable};
use crate::report::{
    stretch_bucket, DispatchCounters, RunCounters, RunReport, SimProfile, TenantCounters,
    TileCounters,
};
use crate::tenancy::{self, DrainPolicy, PartitionPolicy};
use crate::trace::{TraceEvent, TraceSink};
use std::collections::VecDeque;
use std::fmt;
use taskstream_model::{
    CompletedTask, InputBinding, OutputBinding, PipeId, Program, Spawner, TaskId, TaskInstance,
    TaskKernel, TaskType, TilePicker, Value,
};
use ts_cgra::{Fabric, KernelTiming, MapError};
use ts_noc::Mesh;
use ts_sim::{Activity, FxHashMap};
use ts_stream::{DataSrc, StreamDesc};

/// Cycles between recovery-watchdog scans of in-flight tasks. A scan
/// walks every queued task, so it is strided; the timeout check uses
/// the cycle a signature was first seen, not the scan cycle, so the
/// stride only delays detection, never misses it.
const WATCHDOG_STRIDE: u64 = 64;

/// Failed re-dispatch attempts after which a victim is force-placed on
/// the least-loaded healthy tile (over-subscribing its queue) rather
/// than backing off again — the pressure valve that keeps recovery
/// from wedging when every healthy queue is full.
const FORCE_PLACE_RETRIES: u32 = 3;

/// Errors from [`Accelerator::run`].
#[derive(Debug)]
pub enum RunError {
    /// The cycle limit was exceeded, or the machine stopped making
    /// progress (a modelling deadlock).
    Timeout {
        /// Cycle at which the run gave up.
        cycles: u64,
        /// Human-readable state summary for debugging.
        diagnostics: String,
    },
    /// The program violated the model's contracts (arity mismatch,
    /// undeclared pipe, malformed scatter…).
    Program(String),
    /// A task type's dataflow graph does not fit the fabric.
    Map(MapError),
    /// The configuration is inconsistent (see [`DeltaConfig::validate`]);
    /// nothing was simulated.
    Config(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Timeout {
                cycles,
                diagnostics,
            } => {
                write!(f, "no progress by cycle {cycles}: {diagnostics}")
            }
            RunError::Program(msg) => write!(f, "program error: {msg}"),
            RunError::Map(e) => write!(f, "mapping error: {e}"),
            RunError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<MapError> for RunError {
    fn from(e: MapError) -> Self {
        RunError::Map(e)
    }
}

/// A program's task type with its kernel's timing on the fabric.
struct TypeInfo {
    ty: TaskType,
    timing: KernelTiming,
}

/// A Delta (or static-parallel baseline) instance, ready to run
/// programs.
///
/// Each [`Accelerator::run`] builds fresh machine state, so one
/// `Accelerator` can run many programs (or the same program at several
/// configurations) without interference.
#[derive(Debug, Clone)]
pub struct Accelerator {
    cfg: DeltaConfig,
}

impl Accelerator {
    /// Creates an accelerator from a configuration. An inconsistent
    /// configuration is reported by [`run`](Self::run), as
    /// [`RunError::Config`].
    pub fn new(cfg: DeltaConfig) -> Self {
        Accelerator { cfg }
    }

    /// The configuration in force.
    pub fn config(&self) -> &DeltaConfig {
        &self.cfg
    }

    /// Runs a program to completion.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on an inconsistent configuration (checked
    /// first, by [`DeltaConfig::validate`]), cycle-limit exhaustion,
    /// contract violations by the program, or unmappable kernels.
    pub fn run<P: Program + ?Sized>(&mut self, program: &mut P) -> Result<RunReport, RunError> {
        let mut state = RunState::build(&self.cfg, program)?;
        state.main_loop(program)
    }

    /// Runs a program by plain dense ticking: every component ticks on
    /// every cycle and nothing is jumped over or replayed in closed
    /// form. A slow reference that differential tests hold
    /// [`run`](Self::run) to; everything but [`RunReport::profile`] and
    /// [`RunReport::skipped_cycles`] must match exactly.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    #[doc(hidden)]
    pub fn run_dense<P: Program + ?Sized>(
        &mut self,
        program: &mut P,
    ) -> Result<RunReport, RunError> {
        let mut state = RunState::build(&self.cfg, program)?;
        state.dense = true;
        state.main_loop(program)
    }
}

/// DRAM words above the image set aside for pipe spill buffers. The
/// capacity covers them; the store allocates only what spills write.
const SPILL_RESERVE: u64 = 1 << 20;

struct RunState {
    cfg: DeltaConfig,
    /// Dense reference mode ([`Accelerator::run_dense`]): no jumps, and
    /// every tile, the memory controller and the mesh tick every cycle.
    /// The lazy-schedule markers below stay current, so nothing is ever
    /// deferred.
    dense: bool,
    types: Vec<TypeInfo>,
    tiles: Vec<Tile>,
    mesh: Mesh<Msg>,
    memctrl: MemCtrl,
    pipes: PipeTable,
    picker: TilePicker,
    pending: VecDeque<PendingTask>,
    /// Dispatch epoch: bumped wherever an input of the dispatch scan
    /// can change — `pending` grows, a task is placed, completes or is
    /// victimized, a steal moves one. See
    /// [`dispatch_cycle`](Self::dispatch_cycle).
    dispatch_epoch: u64,
    /// The dispatch epoch the last scan started at.
    scanned_epoch: u64,
    /// The first cycle at which the fault schedule can change what the
    /// last scan saw: the earliest tile fail-stop or stall-window edge
    /// after that scan started (`u64::MAX` when the scan reads no fault
    /// state).
    scan_horizon: u64,
    /// Tile of every dispatched task.
    task_tile: FxHashMap<TaskId, usize>,
    /// Open multicast reads by region (joinable until served).
    open_regions: FxHashMap<taskstream_model::RegionId, u64>,
    now: u64,
    next_task: u64,
    next_job: u64,
    next_pipe: u64,
    dispatch: DispatchCounters,
    tasks_completed: u64,
    last_progress: u64,
    timeline: Vec<(u64, u32)>,
    skipped_cycles: u64,
    /// Per-tile lazy-schedule marker: the count of cycles this tile has
    /// been advanced through (ticked or replayed). A ticked tile is kept
    /// at `now + 1`; a tile whose next event is still ahead falls behind
    /// and is caught up in closed form when it comes due or external
    /// state it observes changes.
    tile_synced: Vec<u64>,
    /// Per-tile cached activity: the clamped result of the tile's last
    /// post-tick [`Tile::next_event`] evaluation. Invalidated to
    /// `Activity::Now` by [`touch_tile`](Self::touch_tile) whenever
    /// external state the tile observes changes.
    tile_next: Vec<Activity>,
    /// Lazy-schedule marker for the memory controller.
    mem_synced: u64,
    /// Reusable tile-placement mask (see [`fill_mask`](Self::fill_mask)).
    mask_scratch: Vec<bool>,
    /// Lazy-schedule marker for the mesh.
    mesh_synced: u64,
    profile: SimProfile,
    /// Structured event recorder (no-op unless `cfg.trace`). Like
    /// `profile`, trace state never feeds back into the simulation.
    trace: TraceSink,
    /// Fault schedule, present only when `cfg.faults` is active; every
    /// query is a pure function of `(seed, site, time)`.
    fsched: Option<FaultSchedule>,
    /// Per tile: the fail-stop transition was observed (queue drained,
    /// event traced) — transitions are handled exactly once.
    fail_seen: Vec<bool>,
    /// Per tile: last stall epoch a `FaultTileDown` trace was emitted
    /// for (stored as epoch + 1 so 0 means "none"), keeping the trace
    /// at one event per stall window.
    stall_traced: Vec<u64>,
    /// Victimized tasks waiting out their re-dispatch backoff.
    recovery_q: Vec<Victim>,
    /// Recovery-watchdog state: last observed progress signature of
    /// each in-flight task and the cycle it was first seen.
    watch: FxHashMap<TaskId, (ProgressSig, u64)>,
    /// Injection and recovery tallies for the final report.
    freport: FaultReport,
    /// Per-tenant dispatcher state: admission, host and gate queues for
    /// `cfg.tenancy.tenant_count()` tenants. A single-tenant run is the
    /// one-tenant case of the same path.
    ten: TenancyState,
}

/// Per-tenant queues and tallies of the dispatcher. A
/// task's tenant rides in the high bits of its affinity (see
/// [`crate::tenancy`]), so it survives dispatch, steals, victimization
/// and re-dispatch without widening any queue entry.
struct TenancyState {
    /// Per-tenant admission queues (spawn latency plus arrival pacing);
    /// each is due-ordered on its own.
    admit_q: Vec<VecDeque<(u64, PendingTask)>>,
    /// Per-tenant host completion queues, each due-ordered.
    host_q: Vec<VecDeque<(u64, CompletedTask)>>,
    /// Tasks past their admission due time but held at the gate by the
    /// tenant's in-flight cap; released FIFO by that tenant's own
    /// completions, so a held queue is never the only wake source (a
    /// gated tenant always has in-flight work keeping the machine
    /// busy).
    held: Vec<VecDeque<PendingTask>>,
    /// Admitted-but-not-completed tasks per tenant.
    inflight: Vec<u64>,
    /// Earliest cycle the tenant's next arrival may come due.
    next_arrival: Vec<u64>,
    /// Hysteresis flag for [`DrainPolicy::Drain`]: set when the tenant
    /// hits its cap, cleared once it drains to half of it.
    draining: Vec<bool>,
    /// Spawn cycle of every live task, for completion latency. Filled
    /// only when tenancy is active, like the latencies it feeds.
    spawn_cycle: FxHashMap<TaskId, u64>,
    /// Admission, completion and gate-hold tallies per tenant; the
    /// latency fields are filled in from `latencies` at report time.
    counters: Vec<TenantCounters>,
    /// Spawn-to-completion latency of every finished task, per tenant.
    latencies: Vec<Vec<u64>>,
}

impl TenancyState {
    fn new(n: usize) -> Self {
        TenancyState {
            admit_q: (0..n).map(|_| VecDeque::new()).collect(),
            host_q: (0..n).map(|_| VecDeque::new()).collect(),
            held: (0..n).map(|_| VecDeque::new()).collect(),
            inflight: vec![0; n],
            next_arrival: vec![0; n],
            draining: vec![false; n],
            spawn_cycle: FxHashMap::default(),
            counters: vec![TenantCounters::default(); n],
            latencies: vec![Vec::new(); n],
        }
    }

    /// True when tenant `t`'s next admission must wait at the gate.
    fn gated(&self, t: usize, limit: u64, drain: DrainPolicy) -> bool {
        if limit == 0 {
            return false;
        }
        if self.inflight[t] >= limit {
            return true;
        }
        drain == DrainPolicy::Drain && self.draining[t] && self.inflight[t] > limit / 2
    }

    /// All per-tenant queues empty (the tenancy part of quiescence).
    fn is_idle(&self) -> bool {
        self.admit_q.iter().all(VecDeque::is_empty)
            && self.host_q.iter().all(VecDeque::is_empty)
            && self.held.iter().all(VecDeque::is_empty)
    }
}

/// A task pulled off a failed (or unresponsive) tile, waiting out its
/// backoff before re-dispatch. Carries the functional results of the
/// original dispatch: outputs were already applied to memory, and
/// re-running a non-idempotent kernel (`WriteMode::Add`) would corrupt
/// them, so recovery rebuilds *metering* state only.
struct Victim {
    /// Cycle at which re-dispatch may next be attempted.
    due: u64,
    /// Failed re-dispatch attempts so far (drives the backoff).
    retries: u32,
    id: TaskId,
    inst: TaskInstance,
    results: TaskResults,
}

impl RunState {
    fn build<P: Program + ?Sized>(cfg: &DeltaConfig, program: &mut P) -> Result<Self, RunError> {
        cfg.validate().map_err(RunError::Config)?;
        let fabric = Fabric::new(cfg.fabric.clone());
        let mut types = Vec::new();
        for tt in program.task_types() {
            let timing = match &tt.kernel {
                // Cached: sweeps rebuild the accelerator per design
                // point, but identical (fabric, DFG, seed) triples map
                // identically, so place-and-route is paid once per
                // distinct kernel across the whole process.
                TaskKernel::Dfg(d) => fabric.map_cached(d, cfg.seed)?.timing(),
                TaskKernel::Native(_) => KernelTiming {
                    ii: 1,
                    depth: 4,
                    config_cycles: cfg.fabric.config_cycles(),
                },
            };
            types.push(TypeInfo { ty: tt, timing });
        }

        let image = program.memory_image();
        let mut dram_cfg = cfg.dram.clone();
        let spill_base = image.dram_high_water().max(1);
        dram_cfg.words = dram_cfg
            .words
            .max((spill_base + SPILL_RESERVE + 4096) as usize);
        let mc_nodes: Vec<usize> = (0..cfg.mem_ctrls).map(|m| cfg.mc_node(m)).collect();
        let mut memctrl = MemCtrl::new(dram_cfg, mc_nodes, cfg.mesh_dims().0);
        let dram = memctrl.dram_mut().storage_mut();
        dram.reserve(spill_base as usize);
        for (base, words) in &image.dram {
            dram.load(*base, words);
        }

        let mut tiles: Vec<Tile> = (0..cfg.tiles)
            .map(|t| Tile::new(t, cfg.tile_node(t), cfg))
            .collect();
        for (base, words) in &image.spad {
            // every tile loads the scratchpad image, so it must fit one
            if base.saturating_add(words.len() as u64) > cfg.spad_words as u64 {
                return Err(RunError::Program(format!(
                    "Spad image segment at {base} ({} words) out of range (capacity {})",
                    words.len(),
                    cfg.spad_words
                )));
            }
            for tile in &mut tiles {
                tile.spad.storage_mut().load(*base, words);
            }
        }

        let (w, h) = cfg.mesh_dims();
        let mesh = Mesh::new(w, h, cfg.noc_queue);
        let picker = TilePicker::new(cfg.policy, cfg.tiles, cfg.seed);
        let pipes = PipeTable::new(spill_base, SPILL_RESERVE);

        let fsched = cfg
            .faults
            .is_active()
            .then(|| FaultSchedule::new(&cfg.faults, cfg.seed, cfg.tiles));
        if cfg.faults.dram_retry_rate > 0.0 {
            memctrl.dram_mut().set_fault_injection(
                cfg.faults.dram_retry_rate,
                cfg.faults.dram_retry_cycles,
                cfg.seed,
            );
        }

        let tile_synced = vec![0; cfg.tiles];
        let mut state = RunState {
            cfg: cfg.clone(),
            dense: false,
            types,
            tiles,
            mesh,
            memctrl,
            pipes,
            picker,
            pending: VecDeque::new(),
            dispatch_epoch: 1,
            scanned_epoch: 0,
            scan_horizon: u64::MAX,
            task_tile: FxHashMap::default(),
            open_regions: FxHashMap::default(),
            now: 0,
            next_task: 0,
            next_job: 0,
            next_pipe: 0,
            dispatch: DispatchCounters::default(),
            tasks_completed: 0,
            last_progress: 0,
            timeline: Vec::new(),
            skipped_cycles: 0,
            tile_synced,
            tile_next: vec![Activity::Idle; cfg.tiles],
            mem_synced: 0,
            mask_scratch: Vec::new(),
            mesh_synced: 0,
            profile: SimProfile::default(),
            trace: TraceSink::new(cfg.trace),
            fsched,
            fail_seen: vec![false; cfg.tiles],
            stall_traced: vec![0; cfg.tiles],
            recovery_q: Vec::new(),
            watch: FxHashMap::default(),
            freport: FaultReport::default(),
            ten: TenancyState::new(cfg.tenancy.tenant_count()),
        };

        let mut spawner = Spawner::new(state.next_pipe);
        program.initial(&mut spawner);
        state.absorb_spawner(spawner, None)?;
        Ok(state)
    }

    /// Absorbs everything a program handler spawned. `parent` is the
    /// task whose completion handler did the spawning (`None` for
    /// `initial`/`on_quiescent`); it only feeds the trace's spawn
    /// edges, never the schedule.
    fn absorb_spawner(&mut self, spawner: Spawner, parent: Option<TaskId>) -> Result<(), RunError> {
        self.next_pipe = spawner.next_pipe_id();
        let (tasks, pipes) = spawner.take();
        for decl in pipes {
            self.pipes.declare(decl);
        }
        for inst in tasks {
            let id = TaskId(self.next_task);
            // every pipe reference is checked before any is bound, so a
            // bad task leaves no partial producer/consumer registrations
            let ty = self
                .types
                .get(inst.ty.0)
                .map(|t| (t.ty.name.as_str(), &t.ty.kernel));
            functional::validate_spawn(id, &inst, ty, |p| self.pipes.contains(p))
                .map_err(RunError::Program)?;
            self.next_task += 1;
            self.trace.emit(
                self.now,
                TraceEvent::TaskSpawn {
                    task: id.0,
                    ty: inst.ty.0,
                    parent: parent.map(|p| p.0),
                },
            );
            let binds = inst.output_pipes().map(|p| (p, true));
            for (p, producer) in binds.chain(inst.input_pipes().map(|p| (p, false))) {
                if producer {
                    self.pipes.bind_producer(p, id);
                } else {
                    self.pipes.bind_consumer(p, id);
                }
                let ev = TraceEvent::PipeBind {
                    pipe: p.0,
                    task: id.0,
                    producer,
                };
                self.trace.emit(self.now, ev);
            }
            self.dispatch.tasks_spawned += 1;
            // per-tenant admission with arrival pacing: the tenant comes
            // from the affinity tag, and consecutive arrivals are spaced
            // at least `arrival_period` apart, so each tenant's queue
            // stays due-ordered (both `now` and `next_arrival` are
            // monotone)
            let t = self.tenant_of(&inst);
            if self.cfg.tenancy.is_active() {
                self.trace.emit(
                    self.now,
                    TraceEvent::TaskTenant {
                        task: id.0,
                        tenant: t as u64,
                    },
                );
                self.ten.spawn_cycle.insert(id, self.now);
            }
            let period = self
                .cfg
                .tenancy
                .tenants
                .get(t)
                .map_or(0, |s| s.arrival_period);
            let ten = &mut self.ten;
            let due = (self.now + self.cfg.spawn_latency).max(ten.next_arrival[t]);
            ten.next_arrival[t] = due + period;
            ten.admit_q[t].push_back((due, PendingTask { id, inst }));
        }
        Ok(())
    }

    // -------------------------------------------------------- tenancy

    /// Pops the next due host-queue completion: the first due front,
    /// scanning tenants in fixed order.
    fn pop_due_host(&mut self) -> Option<CompletedTask> {
        let now = self.now;
        self.ten
            .host_q
            .iter_mut()
            .find(|q| q.front().is_some_and(|(due, _)| *due <= now))
            .and_then(|q| q.pop_front())
            .map(|(_, done)| done)
    }

    /// Drains every tenant's due admissions through the gate: in-flight
    /// below the cap enters `pending`, at or above it the task is held
    /// (FIFO per tenant) until that tenant's completions release it in
    /// [`tenancy_release`](Self::tenancy_release).
    fn admit_step(&mut self) {
        let nt = self.cfg.tenancy.tenant_count();
        let limit = self.cfg.tenancy.admit_limit;
        let drain = self.cfg.tenancy.drain;
        for t in 0..nt {
            let ten = &mut self.ten;
            while ten.admit_q[t]
                .front()
                .is_some_and(|(due, _)| *due <= self.now)
            {
                let (_, p) = ten.admit_q[t].pop_front().expect("front exists");
                // the `held` check keeps the tenant's stream FIFO: once
                // anything waits at the gate, later arrivals queue
                // behind it even if the gate momentarily re-opened
                if ten.gated(t, limit, drain) || !ten.held[t].is_empty() {
                    ten.counters[t].gate_holds += 1;
                    if drain == DrainPolicy::Drain && ten.inflight[t] >= limit {
                        ten.draining[t] = true;
                    }
                    ten.held[t].push_back(p);
                    continue;
                }
                ten.inflight[t] += 1;
                ten.counters[t].admitted += 1;
                self.trace
                    .emit(self.now, TraceEvent::TaskReady { task: p.id.0 });
                self.pending.push_back(p);
                self.dispatch_epoch += 1;
            }
        }
    }

    /// Releases tenant `t`'s held tasks that now fit under the cap;
    /// called on each of its completions (the only event that lowers
    /// in-flight). Also clears the drain-hysteresis flag once the
    /// tenant is down to half its cap.
    fn tenancy_release(&mut self, t: usize) {
        let limit = self.cfg.tenancy.admit_limit;
        let drain = self.cfg.tenancy.drain;
        let ten = &mut self.ten;
        if ten.draining[t] && ten.inflight[t] <= limit / 2 {
            ten.draining[t] = false;
        }
        while !ten.held[t].is_empty() && !ten.gated(t, limit, drain) {
            let p = ten.held[t].pop_front().expect("nonempty");
            ten.inflight[t] += 1;
            ten.counters[t].admitted += 1;
            self.trace
                .emit(self.now, TraceEvent::TaskReady { task: p.id.0 });
            self.pending.push_back(p);
            self.dispatch_epoch += 1;
        }
    }

    /// The tenant owning a task (from its affinity tag, clamped so
    /// untagged tasks land in tenant 0).
    fn tenant_of(&self, inst: &TaskInstance) -> usize {
        tenancy::tenant_of_affinity(inst.affinity).min(self.cfg.tenancy.tenant_count() - 1)
    }

    /// The tile range a task may place (or steal) within: the owning
    /// tenant's partition under spatial tenancy (the whole fabric with
    /// one tenant), the whole fabric otherwise.
    fn partition_of(&self, inst: &TaskInstance) -> std::ops::Range<usize> {
        if self.cfg.tenancy.partition == PartitionPolicy::Spatial {
            self.cfg
                .tenancy
                .partition_range(self.tenant_of(inst), self.cfg.tiles)
        } else {
            0..self.cfg.tiles
        }
    }

    // ---------------------------------------------------------------- main

    fn main_loop<P: Program + ?Sized>(&mut self, program: &mut P) -> Result<RunReport, RunError> {
        loop {
            if self.now >= self.cfg.max_cycles
                || self.now - self.last_progress > self.cfg.stall_limit
            {
                return Err(RunError::Timeout {
                    cycles: self.now,
                    diagnostics: self.diagnostics(),
                });
            }

            // Idle-cycle skipping: when no component needs a dense tick
            // and every pending event is due at a known future cycle,
            // fast-forward to the earliest one instead of looping
            // through dead cycles.
            if !self.dense {
                if let Some(target) = self.skip_target() {
                    self.skip_idle_until(target);
                }
            }
            self.profile.loop_cycles += 1;

            // host sees completions (under tenancy, per-tenant queues
            // drain in fixed tenant order so reports cannot depend on
            // completion interleaving)
            while let Some(done) = self.pop_due_host() {
                let mut spawner = Spawner::new(self.next_pipe);
                program.on_complete(&done, &mut spawner);
                self.absorb_spawner(spawner, Some(done.id))?;
            }

            // spawn latency elapses; each tenant's due tasks pass (or
            // wait at) the admission gate
            self.admit_step();

            // fault bookkeeping: fail-stop transitions, the recovery
            // watchdog, and due victim re-dispatches — before the
            // dispatch scan so a freshly drained tile can take new work
            // this very cycle
            if self.fsched.is_some() {
                self.fault_step()?;
            }

            self.dispatch_cycle()?;

            // deliver NoC ejections; `on_msg` only touches queued-task
            // state, so delivering to a lazily skipped (idle) tile needs
            // no catch-up — but a *busy* tile deferred by the
            // event-driven scheduler must replay its blocked stretch
            // against the pre-arrival state before the words land
            if self.mesh.eject_pending() {
                for t in 0..self.tiles.len() {
                    let node = self.tiles[t].node;
                    while let Some(msg) = self.mesh.eject(node) {
                        // flit faults strike at ejection (after the NoC
                        // delivery accounting, so conservation holds):
                        // the payload is lost either way — a corrupted
                        // flit is detected and discarded, a dropped one
                        // simply never arrives
                        if let Some(fs) = &self.fsched {
                            let seq = self.mesh.ejected_total(node) - 1;
                            if let Some(fault) = fs.flit_fault(node, seq) {
                                match fault {
                                    FlitFault::Dropped => self.freport.noc_flits_dropped += 1,
                                    FlitFault::Corrupted => self.freport.noc_flits_corrupted += 1,
                                }
                                self.trace
                                    .emit(self.now, TraceEvent::FaultFlitDropped { node });
                                continue;
                            }
                        }
                        self.touch_tile(t, self.now);
                        self.tiles[t].on_msg(msg);
                    }
                }
                for m in 0..self.cfg.mem_ctrls {
                    let node = self.cfg.mc_node(m);
                    while let Some(msg) = self.mesh.eject(node) {
                        match msg {
                            Msg::DramWrite {
                                stream,
                                reply_to,
                                last,
                                gather,
                            } => self.memctrl.on_write_flit(stream, reply_to, last, gather),
                            other => unreachable!("unexpected message at controller: {other:?}"),
                        }
                    }
                }
            }

            // tiles execute: only tiles whose next event is due tick; a
            // deferred tile's marker freezes and its stretch is replayed
            // in closed form when it comes due or is touched
            let mut completed = Vec::new();
            {
                let (tiles, mesh, memctrl, pipes) = (
                    &mut self.tiles,
                    &mut self.mesh,
                    &mut self.memctrl,
                    &mut self.pipes,
                );
                let mut io = TileIo {
                    now: self.now,
                    mesh,
                    memctrl,
                    pipes,
                    next_job: &mut self.next_job,
                    trace: &mut self.trace,
                };
                for (t, tile) in tiles.iter_mut().enumerate() {
                    // skip tiles whose next interesting cycle is still
                    // ahead; on a due event, replay the deferred stretch
                    // in closed form before the tick
                    if !self.dense {
                        if !self.tile_next[t].is_active(self.now) {
                            continue;
                        }
                        let behind = self.now - self.tile_synced[t];
                        if behind > 0 {
                            replay_tile(tile, behind, &mut self.profile);
                            self.profile.tile_wakes += 1;
                        }
                    }
                    self.tile_synced[t] = self.now + 1;
                    // a failed or transiently stalled tile with queued
                    // work burns the cycle without executing (degenerate
                    // tick); an *idle* down tile follows the normal idle
                    // paths so the fast-path equivalence is untouched
                    if let Some(fs) = &self.fsched {
                        if !tile.is_idle() && fs.tile_down(t, self.now) {
                            tile.counters.fault_down_cycles += 1;
                            if !fs.tile_failed(t, self.now) {
                                // transient stall: trace once per window
                                let epoch = fs.stall_epoch(self.now) + 1;
                                if self.stall_traced[t] != epoch {
                                    self.stall_traced[t] = epoch;
                                    let fc = fs.config();
                                    let len = fc.tile_stall_epoch.max(1);
                                    let until = (epoch - 1) * len + fc.tile_stall_cycles.min(len);
                                    io.trace.emit(
                                        self.now,
                                        TraceEvent::FaultTileDown { tile: t, until },
                                    );
                                }
                            }
                            self.profile.tile_ticks += 1;
                            // down tiles stay dense: recovery decisions
                            // and stall-window edges are cycle-granular
                            self.tile_next[t] = Activity::Now;
                            continue;
                        }
                    }
                    completed.extend(tile.tick(&mut io, &self.cfg));
                    self.profile.tile_ticks += 1;
                    if self.dense {
                        continue;
                    }
                    // post-tick contract: cache where the next tick could
                    // matter, clamped to the tile's next possible fault
                    // transition so degenerate ticks and stall-window
                    // traces stay cycle-accurate
                    self.profile.tile_next_event_calls += 1;
                    let mut next = tile.next_event(self.now, io.pipes, self.cfg.prefetch_depth);
                    if let Some(fs) = &self.fsched {
                        if !tile.is_idle() {
                            if let Some(c) = fs.next_tile_transition(t, self.now) {
                                // even a blocked tile with no intrinsic
                                // event must take its degenerate ticks
                                // if it goes down mid-stretch
                                next = next.clamp_to(c);
                            }
                        }
                    }
                    self.tile_next[t] = next;
                }
            }
            for done in completed {
                self.finish_task(done);
            }

            if self.cfg.work_stealing {
                self.steal_cycle();
            }

            // memory controller: defer while its only pending state is
            // time-gated (in-flight DRAM words, not-yet-due requests)
            // or absent; a deferred stretch replays as bandwidth refill
            if self.dense || self.memctrl.activity().is_active(self.now) {
                let behind = self.now - self.mem_synced;
                if behind > 0 {
                    self.memctrl.replay_idle_cycles(behind);
                    self.profile.mem_skipped += behind;
                    self.profile.mem_wakes += 1;
                }
                self.memctrl.tick(self.now, &mut self.mesh);
                self.mem_synced = self.now + 1;
                self.profile.mem_ticks += 1;
            }

            // mesh: defer while no flit is in transit (pending ejections
            // need the consumers above, not the router sweep); a
            // deferred stretch replays as arbitration-rotation advance
            if self.dense || !self.mesh.is_idle() {
                let behind = self.now - self.mesh_synced;
                if behind > 0 {
                    self.mesh.replay_idle_cycles(behind);
                    self.profile.noc_skipped += behind;
                    self.profile.noc_wakes += 1;
                }
                self.mesh.tick();
                self.mesh_synced = self.now + 1;
                self.profile.noc_ticks += 1;
            }

            if self.now.is_multiple_of(RunReport::TIMELINE_STRIDE) {
                let busy = self.tiles.iter().filter(|t| !t.is_idle()).count() as u32;
                self.timeline.push((self.now, busy));
                self.sample_occupancy();
            }
            self.now += 1;

            // quiescence
            if self.pending.is_empty()
                && self.ten.is_idle()
                && self.recovery_q.is_empty()
                && self.tiles.iter().all(|t| t.is_idle())
                && self.memctrl.is_idle()
                && self.mesh.is_idle()
            {
                let mut spawner = Spawner::new(self.next_pipe);
                let more = program.on_quiescent(&mut spawner);
                let spawned = spawner.spawned_len() > 0;
                self.absorb_spawner(spawner, None)?;
                if !more && !spawned {
                    break;
                }
                self.last_progress = self.now;
            }
        }

        // settle every deferred component so final counters match the
        // densely ticked machine cycle for cycle
        self.catch_up();
        Ok(self.final_report())
    }

    /// The component activities folded into one machine-level need, plus
    /// the due-queue fronts. `Now` suppresses jumping; `At(t)` names the
    /// next event. Reads only queue contents, time-gated fronts and the
    /// cached per-tile next events, never budget levels.
    ///
    /// A blocked tile contributes its cached next event instead of a
    /// pessimistic `Now`, which is what lets the machine jump over
    /// stretches where every queued task is provably waiting on stream
    /// data.
    ///
    /// `Now` is absorbing, so the scan returns the moment any component
    /// reports it — this runs every densely ticked cycle, and on a busy
    /// machine the first tile usually answers.
    fn machine_activity(&self) -> Activity {
        let mut act = Activity::Idle;
        for &a in &self.tile_next {
            match a {
                Activity::Now => return Activity::Now,
                a => act = act.merge(a),
            }
        }
        match self.memctrl.activity() {
            Activity::Now => return Activity::Now,
            a => act = act.merge(a),
        }
        match self.mesh.activity() {
            Activity::Now => return Activity::Now,
            a => act = act.merge(a),
        }
        // per-tenant wake sources: every tenant's admit/host front is
        // an independent due event. Each queue is due-ordered (events
        // enqueue at `now + const latency` with `now` and the arrival
        // pacing monotone), so its front is its minimum. Gate-held tasks
        // add none — they are released only by their own tenant's
        // completions, and a gated tenant by construction has in-flight
        // work keeping tiles (or the recovery queue) active.
        let ten = &self.ten;
        for q in &ten.admit_q {
            debug_assert!(q.iter().is_sorted_by_key(|(due, _)| *due));
        }
        for q in &ten.host_q {
            debug_assert!(q.iter().is_sorted_by_key(|(due, _)| *due));
        }
        let admit_fronts = ten
            .admit_q
            .iter()
            .filter_map(|q| q.front())
            .map(|(d, _)| *d);
        let host_fronts = ten.host_q.iter().filter_map(|q| q.front()).map(|(d, _)| *d);
        act = act.merge(Activity::earliest_due(admit_fronts.chain(host_fronts)));
        // victims waiting out a backoff are a pending event too; a due
        // entry that could not place clamps to `now`, which suppresses
        // jumping without claiming a past event
        for v in &self.recovery_q {
            act = act.merge(Activity::At(v.due.max(self.now)));
        }
        act
    }

    /// The next cycle worth advancing to: the minimum over every
    /// component's next event (due spawn/host entries, admitted memory
    /// requests waiting out control latency, in-flight DRAM words),
    /// capped so the timeout check still fires on exactly the cycle it
    /// would under dense ticking. `None` when any component needs dense
    /// ticking (busy tile, in-transit flit, undrained ejection, unserved
    /// DRAM job) or nothing is due after `now`.
    fn skip_target(&self) -> Option<u64> {
        if !self.pending.is_empty() {
            return None;
        }
        let next_due = match self.machine_activity() {
            Activity::Now => return None,
            Activity::Idle => return None,
            Activity::At(t) => t,
        };
        let mut target = next_due
            .min(self.cfg.max_cycles)
            .min(self.last_progress + self.cfg.stall_limit + 1);
        // The machine may jump while tasks are still queued, which
        // exposes per-cycle machinery the all-idle case proves inert.
        // The steal scan acts (attempt traces, migrations) whenever an
        // idle tile coexists with a loaded one, and a transiently
        // stalled idle tile can become a thief mid-stretch — only a
        // fail-stopped tile provably never will.
        if self.cfg.work_stealing
            && self.tiles.iter().any(|t| t.queue.len() >= 2)
            && self.tiles.iter().enumerate().any(|(t, tile)| {
                tile.is_idle()
                    && !self
                        .fsched
                        .as_ref()
                        .is_some_and(|fs| fs.tile_failed(t, self.now))
            })
        {
            return None;
        }
        // Fault transitions (fail-stops, stall-window edges) and
        // recovery-watchdog scans happen in dense loop iterations; clamp
        // the jump so none is skipped while work is in flight. All-idle
        // jumps observe fail-stops of empty tiles late, which changes
        // nothing but the cycle of the `FaultTileDown` trace event, so
        // only a traced run stops at them.
        if let Some(fs) = &self.fsched {
            if self.trace.enabled() {
                for t in (0..self.tiles.len()).filter(|&t| !self.fail_seen[t]) {
                    if let Some(c) = fs.fail_at(t) {
                        target = target.min(c);
                    }
                }
            }
            if self.tiles.iter().any(|t| !t.is_idle()) {
                for t in 0..self.tiles.len() {
                    if let Some(c) = fs.next_tile_transition(t, self.now) {
                        target = target.min(c);
                    }
                }
                if fs.recovery() {
                    target = target.min(self.now.next_multiple_of(WATCHDOG_STRIDE));
                }
            }
        }
        (target > self.now).then_some(target)
    }

    /// Fast-forwards from `now` to `target`. The skipped window simply
    /// never executes: each component's marker stays put and its replay
    /// happens at the next wake (or in [`catch_up`](Self::catch_up)).
    /// The timeline samples are backfilled, so a skipped region is
    /// bit-identical to a densely ticked one.
    fn skip_idle_until(&mut self, target: u64) {
        let k = target - self.now;
        // Timeline samples at stride multiples in [now, target) all see
        // the frozen busy-tile count (the queues cannot change mid-jump).
        // Trace samples at the same points see the *frozen* component
        // state: a skippable stretch has no gated requests, no backlog,
        // no DRAM service work and an empty mesh (any of those forces
        // dense ticking), while the admission queue holds only
        // not-yet-due entries that dense ticking would leave untouched —
        // so backfilling from the current state reproduces the densely
        // ticked sample stream exactly.
        let stride = RunReport::TIMELINE_STRIDE;
        let busy = self.tiles.iter().filter(|t| !t.is_idle()).count() as u32;
        let mut t = self.now.next_multiple_of(stride);
        while t < target {
            self.timeline.push((t, busy));
            if self.trace.enabled() {
                let (admit, gated, backlog, dram_jobs, dram_inflight) = self.memctrl.queue_depths();
                debug_assert_eq!((gated, backlog, dram_jobs), (0, 0, 0));
                self.trace.emit(
                    t,
                    TraceEvent::QueueDepth {
                        admit,
                        gated,
                        backlog,
                        dram_jobs,
                        dram_inflight,
                    },
                );
                // NocLink samples are nonzero-only and the mesh is
                // provably empty here, so none are backfilled.
                debug_assert!(self.mesh.is_idle());
            }
            t += stride;
        }
        self.skipped_cycles += k;
        self.profile.jump_cycles += k;
        self.profile.jump_hist[stretch_bucket(k)] += 1;
        self.now = target;
    }

    /// Catches a deferred tile up to cycle `upto` (exclusive) *before*
    /// external state it can observe changes — a dispatch, a steal, an
    /// arriving flit, a recovery eviction, a producer completing. The
    /// deferred stretch replays in closed form (an idle skip when the
    /// queue is empty, a blocked-head bulk advance otherwise), and the
    /// cached next event drops to `Now` so the tile re-evaluates the
    /// changed state densely. The replay is a no-op for ticked tiles,
    /// whose markers are already current.
    fn touch_tile(&mut self, t: usize, upto: u64) {
        let behind = upto - self.tile_synced[t];
        if behind > 0 {
            replay_tile(&mut self.tiles[t], behind, &mut self.profile);
            self.tile_synced[t] = upto;
            self.profile.tile_wakes += 1;
        }
        self.tile_next[t] = Activity::Now;
    }

    /// Replays every component's outstanding skipped stretch (without
    /// waking it for new work) so component-local statistics — idle
    /// cycles, budget levels, arbitration rotation — match the densely
    /// ticked machine exactly. Called once, after the run completes.
    fn catch_up(&mut self) {
        for t in 0..self.tiles.len() {
            let behind = self.now - self.tile_synced[t];
            if behind > 0 {
                replay_tile(&mut self.tiles[t], behind, &mut self.profile);
                self.tile_synced[t] = self.now;
            }
        }
        let behind = self.now - self.mem_synced;
        if behind > 0 {
            self.memctrl.replay_idle_cycles(behind);
            self.mem_synced = self.now;
            self.profile.mem_skipped += behind;
        }
        let behind = self.now - self.mesh_synced;
        if behind > 0 {
            self.mesh.replay_idle_cycles(behind);
            self.mesh_synced = self.now;
            self.profile.noc_skipped += behind;
        }
    }

    /// Stride-sampled trace counters, emitted at the same loop point as
    /// the occupancy timeline sample so densely ticked and backfilled
    /// samples interleave identically with semantic events.
    fn sample_occupancy(&mut self) {
        if !self.trace.enabled() {
            return;
        }
        let (admit, gated, backlog, dram_jobs, dram_inflight) = self.memctrl.queue_depths();
        self.trace.emit(
            self.now,
            TraceEvent::QueueDepth {
                admit,
                gated,
                backlog,
                dram_jobs,
                dram_inflight,
            },
        );
        // Nonzero-only: idle stretches (which the fast paths skip, and
        // which leave the mesh empty) must contribute no link samples.
        let (w, h) = self.cfg.mesh_dims();
        for node in 0..w * h {
            for port in 0..Mesh::<Msg>::PORTS {
                let depth = self.mesh.queue_depth(node, port);
                if depth > 0 {
                    self.trace
                        .emit(self.now, TraceEvent::NocLink { node, port, depth });
                }
            }
        }
    }

    fn finish_task(&mut self, done: TaskExec) {
        self.tasks_completed += 1;
        self.last_progress = self.now;
        // the tile has room again, and consumers of its pipes may be
        // ready: the dispatch scan must look again
        self.dispatch_epoch += 1;
        // the finished exec is owned here, so the completion record
        // takes its params and outputs by move rather than by clone
        let TaskExec {
            id,
            ty,
            inst,
            results,
            stall_input,
            stall_other,
            ..
        } = done;
        let tile = self.task_tile[&id];
        self.watch.remove(&id);
        self.trace.emit(
            self.now,
            TraceEvent::TaskStalls {
                task: id.0,
                input: stall_input,
                other: stall_other,
            },
        );
        self.trace
            .emit(self.now, TraceEvent::TaskComplete { task: id.0, tile });
        self.picker.on_complete(tile, placement_hint(&inst));
        // completing a producer lets dispatched consumers issue their
        // spill reads: each such tile replays its deferred stretch
        // against the pre-completion state, then re-evaluates densely
        // (completions land after the tile-tick step, hence `now + 1`)
        for p in inst.output_pipes() {
            if let Some(cid) = self.pipes.get(p).consumer {
                if let Some(&ct) = self.task_tile.get(&cid) {
                    self.touch_tile(ct, self.now + 1);
                }
            }
        }
        for p in inst.output_pipes() {
            self.pipes.get_mut(p).producer_completed = true;
        }
        let t = self.tenant_of(&inst);
        let completed = CompletedTask {
            id,
            ty,
            params: inst.params,
            affinity: inst.affinity,
            outputs: results.outputs,
        };
        let ten = &mut self.ten;
        ten.inflight[t] -= 1;
        ten.counters[t].completed += 1;
        if self.cfg.tenancy.is_active() {
            let spawned = ten.spawn_cycle.remove(&id).unwrap_or(self.now);
            ten.latencies[t].push(self.now - spawned);
        }
        ten.host_q[t].push_back((self.now + self.cfg.host_latency, completed));
        // a completion is the only event that lowers in-flight, so it is
        // the release point for gate-held admissions
        self.tenancy_release(t);
    }

    fn diagnostics(&self) -> String {
        let queued: usize = self.tiles.iter().map(|t| t.queue.len()).sum();
        let mut out = format!(
            "pending={} queued={} mesh_idle={} mem_idle={} completed={}",
            self.pending.len(),
            queued,
            self.mesh.is_idle(),
            self.memctrl.is_idle(),
            self.tasks_completed,
        ) + &format!(" mem[{}]", self.memctrl.debug_state());
        let ten = &self.ten;
        for t in 0..ten.inflight.len() {
            out += &format!(
                "\n  tenant{t}: admit={} host={} held={} inflight={} completed={}",
                ten.admit_q[t].len(),
                ten.host_q[t].len(),
                ten.held[t].len(),
                ten.inflight[t],
                ten.counters[t].completed,
            );
        }
        // name the wedged tasks and the pipe each is waiting on — a
        // stuck run is almost always a dependence that can never
        // resolve, and "pending=3" alone says nothing actionable
        const MAX_LISTED: usize = 8;
        for p in self.pending.iter().take(MAX_LISTED) {
            let ty = self
                .types
                .get(p.inst.ty.0)
                .map(|t| t.ty.name.as_str())
                .unwrap_or("?");
            let waits: Vec<String> = p
                .inst
                .input_pipes()
                .map(|pp| self.pipes.debug_summary(pp))
                .collect();
            let waits = if waits.is_empty() {
                "no pipe inputs (placement-blocked)".to_string()
            } else {
                waits.join("; ")
            };
            out += &format!("\n  pending {:?} '{}' waits on: {}", p.id, ty, waits);
        }
        if self.pending.len() > MAX_LISTED {
            out += &format!("\n  … and {} more", self.pending.len() - MAX_LISTED);
        }
        out
    }

    fn final_report(&mut self) -> RunReport {
        let tiles = self
            .tiles
            .iter()
            .map(|tile| TileCounters {
                spad_accesses: tile.spad.access_count(),
                ..tile.counters
            })
            .collect();
        // per-tenant completion accounting, only when tenancy is active
        let tenants = if self.cfg.tenancy.is_active() {
            let ten = &mut self.ten;
            (0..ten.inflight.len())
                .map(|t| {
                    let lat = &mut ten.latencies[t];
                    lat.sort_unstable();
                    let pick = |p: u64| match lat.len() {
                        0 => 0,
                        n => lat[((n - 1) as u64 * p / 100) as usize],
                    };
                    TenantCounters {
                        p50_latency: pick(50),
                        p99_latency: pick(99),
                        max_latency: pick(100),
                        latency_sum: lat.iter().sum(),
                        ..ten.counters[t]
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        let counters = RunCounters {
            tiles,
            noc: self.mesh.counters(),
            dram: self.memctrl.dram().counters(),
            dispatch: self.dispatch,
            tenants,
        };
        debug_assert_eq!(
            self.profile.loop_cycles + self.profile.jump_cycles,
            self.now,
            "every cycle is either looped or jumped"
        );
        debug_assert_eq!(
            self.profile.tile_ticks + self.profile.tile_skipped + self.profile.tile_bulk_cycles,
            self.now * self.tiles.len() as u64,
            "per-tile ticks + skips + bulk advances must cover the whole run"
        );
        debug_assert_eq!(self.profile.mem_ticks + self.profile.mem_skipped, self.now);
        debug_assert_eq!(self.profile.noc_ticks + self.profile.noc_skipped, self.now);
        let trace = std::mem::replace(&mut self.trace, TraceSink::new(false));
        let trace_dropped = trace.dropped();
        // injection counts come from pure enumerations of the schedule
        // (not from per-cycle observation), so the report is identical
        // whichever scheduler fast paths ran
        if let Some(fs) = &self.fsched {
            self.freport.tile_fail_stops = fs.count_fail_stops(self.now);
            self.freport.tile_stalls = fs.count_stalls(self.now);
            self.freport.dram_retries = self.memctrl.dram().fault_retries();
        }
        RunReport::new(
            self.now,
            counters,
            // moved, not cloned: nothing reads the DRAM after the report
            self.memctrl.dram_mut().take_storage(),
            self.tasks_completed,
            std::mem::take(&mut self.timeline),
            self.skipped_cycles,
            self.profile,
            trace.into_records(),
            trace_dropped,
            self.freport,
        )
    }

    // ------------------------------------------------------- faults

    /// True when the fault schedule has tile `t` out of service now.
    fn tile_down_now(&self, t: usize) -> bool {
        self.fsched
            .as_ref()
            .is_some_and(|f| f.tile_down(t, self.now))
    }

    /// One cycle of fault bookkeeping: observe fail-stop transitions
    /// (evicting the victims' queued tasks when recovery is on), run
    /// the strided progress watchdog, and re-dispatch victims whose
    /// backoff has elapsed.
    fn fault_step(&mut self) -> Result<(), RunError> {
        let recovery = self.fsched.as_ref().is_some_and(|f| f.recovery());
        for t in 0..self.tiles.len() {
            if self.fail_seen[t]
                || !self
                    .fsched
                    .as_ref()
                    .is_some_and(|f| f.tile_failed(t, self.now))
            {
                continue;
            }
            self.fail_seen[t] = true;
            self.trace.emit(
                self.now,
                TraceEvent::FaultTileDown {
                    tile: t,
                    until: u64::MAX,
                },
            );
            if recovery {
                // the drain empties the queue: replay any deferred
                // blocked stretch against the pre-failure state first
                self.touch_tile(t, self.now);
                for exec in self.tiles[t].drain_queue() {
                    self.victimize(exec, t);
                }
            }
        }
        if recovery {
            if self.now.is_multiple_of(WATCHDOG_STRIDE) {
                self.watchdog_scan();
            }
            self.redispatch_due()?;
        }
        Ok(())
    }

    /// Progress watchdog: a queued task whose observable metering
    /// signature has not changed for `watchdog_timeout` cycles is
    /// pulled and re-dispatched. This is the recovery path for lost
    /// input flits — a dropped multicast branch or pipe word leaves a
    /// feed short forever, which no tile-local check can see.
    fn watchdog_scan(&mut self) {
        let timeout = self
            .fsched
            .as_ref()
            .expect("watchdog implies schedule")
            .config()
            .watchdog_timeout;
        let mut fired: Vec<(usize, TaskId)> = Vec::new();
        let mut fresh = FxHashMap::with_capacity_and_hasher(self.watch.len(), Default::default());
        for (t, tile) in self.tiles.iter().enumerate() {
            for task in &tile.queue {
                let sig = task.progress_sig();
                let since = match self.watch.get(&task.id) {
                    Some(&(old, at)) if old == sig => at,
                    _ => self.now,
                };
                if self.now - since > timeout {
                    fired.push((t, task.id));
                } else {
                    fresh.insert(task.id, (sig, since));
                }
            }
        }
        // rebuild rather than patch: entries for completed, stolen, or
        // already-victimized tasks drop out automatically
        self.watch = fresh;
        for (t, id) in fired {
            // eviction mutates the queue mid-stretch: catch the tile up
            // first so the closed-form replay sees the state it froze on
            self.touch_tile(t, self.now);
            if let Some(exec) = self.tiles[t].remove_task(id) {
                self.freport.watchdog_fires += 1;
                self.victimize(exec, t);
            }
        }
    }

    /// Pulls a task out of the machine for later re-dispatch, keeping
    /// the functional results of its original dispatch (see [`Victim`]).
    fn victimize(&mut self, exec: TaskExec, old_tile: usize) {
        let wasted = self.now - exec.dispatched_at;
        let id = exec.id;
        let inst = exec.inst;
        let results = exec.results;
        self.watch.remove(&id);
        self.picker.on_complete(old_tile, placement_hint(&inst));
        // the tile has room again, its load tally fell, and pipe modes
        // may reset below: the dispatch scan must look again
        self.dispatch_epoch += 1;
        self.freport.wasted_cycles += wasted;
        // a direct pipe this task produces must restart: its remaining
        // words would otherwise stream to a tile that no longer runs
        // the consumer (or from one that no longer runs this producer)
        for pp in inst.output_pipes() {
            let ps = self.pipes.get_mut(pp);
            if matches!(ps.mode, Some(PipeMode::Direct { .. })) {
                ps.mode = None;
                self.freport.pipe_replays += 1;
            }
        }
        let backoff = self.backoff(0);
        self.freport.backoff_cycles += backoff;
        self.trace.emit(
            self.now,
            TraceEvent::TaskVictim {
                task: id.0,
                tile: old_tile,
            },
        );
        self.recovery_q.push(Victim {
            due: self.now + backoff,
            retries: 0,
            id,
            inst,
            results,
        });
    }

    /// The re-dispatch backoff after `retries` failed attempts:
    /// exponential from `backoff_base`, capped at `backoff_cap`.
    fn backoff(&self, retries: u32) -> u64 {
        let fc = self
            .fsched
            .as_ref()
            .expect("victim implies schedule")
            .config();
        (fc.backoff_base << retries.min(16)).min(fc.backoff_cap)
    }

    /// Re-dispatches victims whose backoff has elapsed onto healthy
    /// tiles with queue space, backing off exponentially (bounded by
    /// `backoff_cap`) when none can take them; after
    /// [`FORCE_PLACE_RETRIES`] failures the least-loaded healthy tile
    /// takes the task over-subscribed rather than letting the run
    /// wedge.
    fn redispatch_due(&mut self) -> Result<(), RunError> {
        if self.recovery_q.is_empty() {
            return Ok(());
        }
        let mut i = 0;
        while i < self.recovery_q.len() {
            if self.recovery_q[i].due > self.now {
                i += 1;
                continue;
            }
            let now = self.now;
            let part = self.partition_of(&self.recovery_q[i].inst);
            // victims exist only under recovery, so the mask routes
            // around down tiles
            self.fill_mask(false, part.clone());
            let picked = self
                .picker
                .pick(&self.recovery_q[i].inst, &self.mask_scratch);
            let target = match picked {
                Some(t) => Some(t),
                None if self.recovery_q[i].retries >= FORCE_PLACE_RETRIES => {
                    // force-place inside the partition when it has any
                    // healthy tile; spill outside it only when the whole
                    // partition is down (re-dispatch must not wedge)
                    let least_loaded = |tiles: std::ops::Range<usize>| {
                        tiles
                            .filter(|&t| !self.tile_down_now(t))
                            .min_by_key(|&t| self.tiles[t].queue.len())
                    };
                    least_loaded(part).or_else(|| least_loaded(0..self.tiles.len()))
                }
                None => None,
            };
            match target {
                Some(tile) => {
                    let v = self.recovery_q.remove(i);
                    self.redispatch(v, tile)?;
                }
                None => {
                    let retries = self.recovery_q[i].retries + 1;
                    let backoff = self.backoff(retries);
                    let v = &mut self.recovery_q[i];
                    v.retries = retries;
                    v.due = now + backoff;
                    self.freport.backoff_cycles += backoff;
                    i += 1;
                }
            }
        }
        Ok(())
    }

    /// Re-places a victim on `tile`. Its results were computed — and
    /// applied to memory — at the original dispatch, so only the
    /// metering state (feeds, sinks, routes) is rebuilt, through the same
    /// [`place`](Self::place) as first dispatch.
    fn redispatch(&mut self, v: Victim, tile: usize) -> Result<(), RunError> {
        let Victim {
            id, inst, results, ..
        } = v;
        self.place(PendingTask { id, inst }, tile, results, true)?;
        self.trace
            .emit(self.now, TraceEvent::TaskRedispatch { task: id.0, tile });
        // deliberately NOT counted as `dispatch.tasks_dispatched`: that
        // counter must keep matching spawns and completions one-to-one
        self.freport.tasks_redispatched += 1;
        Ok(())
    }

    // ------------------------------------------------------------ dispatch

    /// One dispatch scan over the pending window.
    ///
    /// A scan that places nothing mutates nothing (no RNG draws, no
    /// counters, no trace events), so it stays a no-op until one of its
    /// inputs changes: the pending deque, a tile's queue, a pipe's
    /// producer state, the picker's load tallies. Every such change
    /// bumps the dispatch epoch — pending grows only at admission,
    /// tiles and pipes change only at placement, completion, eviction
    /// and steals, every placement goes through [`place`](Self::place)
    /// and every eviction through [`victimize`](Self::victimize) — so
    /// the scan is skipped while the epoch still equals the one the
    /// last scan started at. Under recovery the scan also reads the
    /// down-tile masks, which change with time alone, at fail-stops and
    /// stall-window edges: the skip then also ends at the first such
    /// edge after the last scan started (`scan_horizon`). Dense
    /// reference ticking scans every cycle, so differential tests check
    /// the skip.
    fn dispatch_cycle(&mut self) -> Result<(), RunError> {
        if self.pending.is_empty()
            || (!self.dense
                && self.scanned_epoch == self.dispatch_epoch
                && self.now < self.scan_horizon)
        {
            return Ok(());
        }
        self.scanned_epoch = self.dispatch_epoch;
        self.scan_horizon = self.next_mask_transition();
        // nothing can dispatch when no tile has queue space and none is
        // idle (sources need space, co-scheduled consumers need an idle
        // tile) — skip the window scans entirely
        if !self
            .tiles
            .iter()
            .any(|t| t.queue_space(&self.cfg) > 0 || t.is_idle())
        {
            return Ok(());
        }
        let mut budget = self.cfg.dispatch_per_cycle;

        // source tasks (no live pipe deps) fill tiles first so
        // co-scheduled consumers never starve their own producers;
        // within each class, scan the whole window so one unplaceable
        // task (e.g. a full owner queue under static hashing) does not
        // block younger placeable ones. Readiness is checked lazily at
        // visit time: a failed placement mutates nothing (the picker is
        // pure on `None`), so this matches an up-front scan exactly.
        'outer: while budget > 0 {
            let window = self.cfg.dispatch_window.min(self.pending.len());
            for consumers_pass in [false, true] {
                for pos in 0..window {
                    let inst = &self.pending[pos].inst;
                    if self.has_live_pipe_dep(inst) != consumers_pass
                        || !is_ready(inst, &self.pipes, self.cfg.features.pipelining)
                    {
                        continue;
                    }
                    if self.dispatch_one_at(pos)? {
                        budget -= 1;
                        continue 'outer;
                    }
                }
            }
            break;
        }

        // chase pipeline chains: consumers of freshly dispatched
        // producers co-dispatch without extra budget — but only once no
        // source task is waiting for a tile, so chains never starve
        // their own producers
        if self.cfg.features.pipelining {
            let window = self.cfg.dispatch_window.min(self.pending.len());
            let source_waiting = (0..window).any(|i| {
                is_ready(&self.pending[i].inst, &self.pipes, true)
                    && !self.has_live_pipe_dep(&self.pending[i].inst)
            });
            if !source_waiting {
                self.dispatch_chains()?;
            }
        }
        Ok(())
    }

    /// The earliest cycle after `now` at which a tile's down state can
    /// change, as [`fill_mask`](Self::fill_mask) and
    /// [`dispatch_one_at`](Self::dispatch_one_at) read it; `u64::MAX`
    /// without recovery, whose baseline places blind to faults.
    fn next_mask_transition(&self) -> u64 {
        let Some(fs) = self.fsched.as_ref().filter(|f| f.recovery()) else {
            return u64::MAX;
        };
        (0..self.tiles.len())
            .filter_map(|t| fs.next_tile_transition(t, self.now))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Extension: one steal per cycle — the emptiest idle tile takes an
    /// eligible queued task from the most loaded tile. Under spatial
    /// tenancy the scan runs per partition (one steal per partition per
    /// cycle): steals never cross a tenant boundary, so one tenant's
    /// backlog can never be drained onto a neighbor's tiles.
    fn steal_cycle(&mut self) {
        if self.cfg.tenancy.partition == PartitionPolicy::Spatial {
            for t in 0..self.cfg.tenancy.tenant_count() {
                let part = self.cfg.tenancy.partition_range(t, self.cfg.tiles);
                self.steal_once(part);
            }
        } else {
            self.steal_once(0..self.tiles.len());
        }
    }

    /// One steal attempt restricted to `part` (thief and victim both
    /// inside it).
    fn steal_once(&mut self, part: std::ops::Range<usize>) {
        // a down tile never steals (work moved onto it would just sit);
        // stealing *from* a down tile is fine and actively helpful
        let Some(thief) = part
            .clone()
            .find(|&t| self.tiles[t].is_idle() && !self.tile_down_now(t))
        else {
            return;
        };
        let victim = part
            .filter(|&t| t != thief)
            .max_by_key(|&t| self.tiles[t].queue.len());
        let Some(victim) = victim else { return };
        if self.tiles[victim].queue.len() < 2 {
            return;
        }
        // recorded only past the loaded-victim check: during idle
        // stretches (which next-event jumps skip) every queue is
        // empty, so the densely ticked machine emits nothing either
        self.trace
            .emit(self.now, TraceEvent::StealAttempt { thief, victim });
        let Some(qi) = self.tiles[victim].steal_candidate(self.cfg.prefetch_depth) else {
            return;
        };
        let mc = self.cfg.mc_node_for(self.cfg.tile_node(thief));
        // the steal mutates the victim's queue, so a lazily deferred
        // victim replays its blocked stretch (through `now` inclusive —
        // it already took its tick this cycle) before the task leaves
        self.touch_tile(victim, self.now + 1);
        let exec = self.tiles[victim].steal(qi, mc);
        let hint = placement_hint(&exec.inst);
        self.picker.on_complete(victim, hint);
        self.picker.on_dispatch(thief, hint);
        self.task_tile.insert(exec.id, thief);
        self.trace.emit(
            self.now,
            TraceEvent::Steal {
                task: exec.id.0,
                thief,
                victim,
            },
        );
        self.dispatch.steals += 1;
        // steals land after the tile-tick step, so the thief's current
        // cycle already counted as idle: catch it up through `now`
        // inclusive before it takes the task
        self.touch_tile(thief, self.now + 1);
        self.tiles[thief].enqueue(exec);
        self.dispatch_epoch += 1;
    }

    /// Fills the reusable placement mask: tiles with queue space, or —
    /// for consumers whose producers are still live — tiles with
    /// nothing queued (they must run *concurrently* with their
    /// producers to pipeline, not queue behind other work). `part`
    /// restricts candidates to the task's tenant partition under
    /// spatial tenancy (the full fabric otherwise).
    fn fill_mask(&mut self, idle_only: bool, part: std::ops::Range<usize>) {
        self.mask_scratch.clear();
        // under recovery the dispatcher routes around down tiles; the
        // no-recovery baseline keeps placing onto them (and wedges) —
        // that asymmetry is exactly the fault experiment's comparison
        let fs = self.fsched.as_ref().filter(|f| f.recovery());
        let now = self.now;
        self.mask_scratch
            .extend(self.tiles.iter().enumerate().map(|(t, tile)| {
                let fits = if idle_only {
                    tile.is_idle()
                } else {
                    tile.queue_space(&self.cfg) > 0
                };
                fits && part.contains(&t) && !fs.is_some_and(|f| f.tile_down(t, now))
            }));
    }

    /// True when the task consumes a pipe whose producer has dispatched
    /// but not completed (a live, potentially-direct dependence).
    fn has_live_pipe_dep(&self, inst: &TaskInstance) -> bool {
        inst.input_pipes().any(|p| {
            let ps = self.pipes.get(p);
            ps.producer_dispatched && !ps.producer_completed
        })
    }

    /// Dispatches the pending task at `pos`; returns false when no tile
    /// can take it.
    fn dispatch_one_at(&mut self, pos: usize) -> Result<bool, RunError> {
        let idle_only = self.has_live_pipe_dep(&self.pending[pos].inst);
        let mut part = self.partition_of(&self.pending[pos].inst);
        // under recovery, a task whose whole partition has fail-stopped
        // spills onto the rest of the fabric, as re-dispatch does;
        // otherwise it could never place and the run would wedge
        if let Some(fs) = self.fsched.as_ref().filter(|f| f.recovery()) {
            if part.clone().all(|t| fs.tile_failed(t, self.now)) {
                part = 0..self.cfg.tiles;
            }
        }
        self.fill_mask(idle_only, part);
        let Some(tile) = self
            .picker
            .pick(&self.pending[pos].inst, &self.mask_scratch)
        else {
            return Ok(false);
        };
        let p = self.pending.remove(pos).expect("index in range");
        self.dispatch_to(p, tile)?;
        Ok(true)
    }

    /// Resolves the multicast transport for a shared input at dispatch:
    /// join an open (not-yet-serving) read of the same region, or open a
    /// new one with a batching window during which later sharers may
    /// join — the multicast table of the paper's memory controllers.
    fn shared_read_job(
        &mut self,
        region: taskstream_model::RegionId,
        desc: &StreamDesc,
        tile_node: usize,
    ) -> Result<u64, RunError> {
        if let Some(&job) = self.open_regions.get(&region) {
            if self.memctrl.try_join(job, tile_node) {
                self.trace.emit(
                    self.now,
                    TraceEvent::McastJoin {
                        job,
                        region: region.0,
                        node: tile_node,
                    },
                );
                self.dispatch.multicast_joins += 1;
                return Ok(job);
            }
            self.open_regions.remove(&region);
        }
        let StreamDesc::Affine {
            src: DataSrc::Dram,
            pattern,
        } = desc
        else {
            return Err(RunError::Program(format!(
                "shared inputs must be affine DRAM streams, got {desc:?}"
            )));
        };
        let job = self.next_job;
        self.next_job += 1;
        self.memctrl.submit_read(
            ReadReq {
                job,
                addrs: pattern.iter().collect(),
                gather: false,
                dsts: vec![tile_node],
                after: None,
            },
            self.now + self.cfg.mem_req_latency + self.cfg.mcast_batch_window,
        );
        self.open_regions.insert(region, job);
        self.trace.emit(
            self.now,
            TraceEvent::McastOpen {
                job,
                region: region.0,
                node: tile_node,
            },
        );
        self.dispatch.multicast_groups += 1;
        Ok(job)
    }

    fn dispatch_chains(&mut self) -> Result<(), RunError> {
        // keep dispatching ready pipe-consumers of already-dispatched
        // producers, bounded to avoid runaway chains
        for _ in 0..self.cfg.tiles * 2 {
            let window = self.cfg.dispatch_window.min(self.pending.len());
            let Some(pos) = (0..window).find(|&i| {
                let inst = &self.pending[i].inst;
                inst.input_pipes().next().is_some() && is_ready(inst, &self.pipes, true)
            }) else {
                return Ok(());
            };
            if !self.dispatch_one_at(pos)? {
                return Ok(());
            }
            self.dispatch.chain_dispatches += 1;
        }
        Ok(())
    }

    /// Places a task on a tile: functional execution, then its metering
    /// state through [`place`](Self::place).
    fn dispatch_to(&mut self, p: PendingTask, tile: usize) -> Result<(), RunError> {
        let PendingTask { id, inst } = p;
        let ty = &self.types[inst.ty.0].ty;
        let mut mem = Memory {
            dram: self.memctrl.dram_mut().storage_mut(),
            spad: self.tiles[tile].spad.storage_mut(),
        };
        let pipes = &self.pipes;
        let mut run = functional::run_task(&mut mem, &ty.name, &ty.kernel, &inst, |pp| {
            Ok(pipes
                .get(pp)
                .data
                .clone()
                .expect("producer dispatched before consumer"))
        })
        .map_err(RunError::Program)?;
        for (b, values) in inst.outputs.iter().zip(&run.outputs) {
            if let OutputBinding::Pipe(pp) = b {
                let ps = self.pipes.get_mut(*pp);
                ps.data = Some(values.clone());
                ps.producer_dispatched = true;
            }
        }
        run.native_cycles = run.native_cycles.map(|c| c.max(1));
        self.place(PendingTask { id, inst }, tile, run, false)?;
        self.trace
            .emit(self.now, TraceEvent::TaskDispatch { task: id.0, tile });
        self.dispatch.tasks_dispatched += 1;
        Ok(())
    }

    /// Builds a task's metering state on `tile` (feeds, sinks, routes)
    /// around the results of its functional execution, and queues it
    /// there. First dispatch and fault re-dispatch (`redispatch`) share
    /// it; see [`build_feeds`](Self::build_feeds) for where they differ.
    fn place(
        &mut self,
        p: PendingTask,
        tile: usize,
        results: TaskResults,
        redispatch: bool,
    ) -> Result<(), RunError> {
        let PendingTask { id, inst } = p;
        let feeds = self.build_feeds(id, &inst, tile, redispatch)?;
        let sinks = self.build_sinks(&inst, &results.outputs, tile);
        let timing = self.types[inst.ty.0].timing;
        let exec = TaskExec::new(
            id,
            inst.ty,
            inst,
            timing,
            feeds,
            results,
            sinks,
            self.cfg.out_buf,
            self.cfg.fabric.lanes,
            self.now,
        );
        let work = placement_hint(&exec.inst);
        // a lazily skipped tile replays its idle stretch before the
        // queue stops being empty (the closed-form replay requires it)
        self.touch_tile(tile, self.now);
        self.tiles[tile].enqueue(exec);
        self.task_tile.insert(id, tile);
        self.picker.on_dispatch(tile, work);
        self.dispatch_epoch += 1;
        Ok(())
    }

    /// Builds a task's input feeds on `tile` and registers there the
    /// multicast-job and direct-pipe routes its words arrive by (a
    /// deferred tile's replay never reads routes, so they may land
    /// before [`touch_tile`](Self::touch_tile)). On first dispatch a
    /// shared input joins (or opens) a multicast read. A re-dispatch
    /// re-reads it as a fresh unicast stream, the replay of a lost
    /// multicast branch, and demotes a pipe its producer is still
    /// streaming direct to the consumer's old tile
    /// ([`demote_direct_pipe`](Self::demote_direct_pipe)).
    fn build_feeds(
        &mut self,
        id: TaskId,
        inst: &TaskInstance,
        tile: usize,
        redispatch: bool,
    ) -> Result<Vec<Feed>, RunError> {
        let tile_node = self.cfg.tile_node(tile);
        for pp in inst.input_pipes() {
            self.pipes.get_mut(pp).consumer_node = Some(tile_node);
        }
        let multicast = self.cfg.features.multicast && !redispatch;
        let mut feeds = Vec::with_capacity(inst.inputs.len());
        for (port, b) in inst.inputs.iter().enumerate() {
            let feed = match b {
                InputBinding::Shared { desc, region } if multicast => {
                    let job = self.shared_read_job(*region, desc, tile_node)?;
                    let routes = self.tiles[tile].job_routes.entry(job).or_default();
                    routes.push((id, port));
                    Feed {
                        total: desc.len(),
                        remaining: 0,
                        kind: FeedKind::Dram { spec: None },
                    }
                }
                InputBinding::Stream(desc) | InputBinding::Shared { desc, .. } => {
                    self.build_stream_feed(desc, tile)?
                }
                InputBinding::Pipe(pp) => {
                    let pp = *pp;
                    let total = self
                        .pipes
                        .get(pp)
                        .data
                        .as_ref()
                        .map(|d| d.len() as u64)
                        .expect("producer data recorded");
                    let spill = FeedKind::PipeSpill {
                        pipe: pp,
                        issued: false,
                    };
                    let kind = match self.pipes.get(pp).mode {
                        // producer dispatched this very batch: direct
                        None => {
                            self.tiles[tile].pipe_routes.insert(pp, (id, port));
                            FeedKind::PipeDirect
                        }
                        Some(PipeMode::Spill { .. }) => spill,
                        Some(PipeMode::Direct { .. }) if redispatch => {
                            self.demote_direct_pipe(pp, total);
                            spill
                        }
                        Some(PipeMode::Direct { .. }) => {
                            unreachable!("a pipe's single consumer is this task")
                        }
                    };
                    Feed {
                        total,
                        remaining: 0,
                        kind,
                    }
                }
            };
            feeds.push(feed);
        }
        Ok(feeds)
    }

    /// Demotes pipe `pp`, whose producer is mid-stream towards the old
    /// tile of a re-dispatched consumer, to a spill buffer: the
    /// producer's remaining words land there (its drain re-reads the
    /// mode every cycle) and the consumer re-reads the whole stream.
    fn demote_direct_pipe(&mut self, pp: PipeId, total: u64) {
        let base = self.pipes.alloc_spill(total);
        self.pipes.get_mut(pp).mode = Some(PipeMode::Spill { base });
        self.freport.pipe_replays += 1;
        self.trace
            .emit(self.now, TraceEvent::PipeSpill { pipe: pp.0, base });
        // a producer that already pushed its last word direct would now
        // wait forever for the spill ack it nominally needs
        let Some(pid) = self.pipes.get(pp).producer else {
            return;
        };
        let Some(&pt) = self.task_tile.get(&pid) else {
            return;
        };
        // the ack can complete a producer head that was sleeping on it:
        // catch the tile up and wake it first
        self.touch_tile(pt, self.now);
        if let Some(prod) = self.tiles[pt].find_task(pid) {
            for s in &mut prod.sinks {
                if matches!(s.kind, SinkKind::Pipe { pipe } if pipe == pp) && s.sent == s.total {
                    s.acked = true;
                }
            }
        }
    }

    /// Builds a task's output sinks on `tile`. Sinks meter word counts
    /// only: the functional writes landed when the task first
    /// dispatched.
    fn build_sinks(
        &self,
        inst: &TaskInstance,
        out_values: &[Vec<Value>],
        tile: usize,
    ) -> Vec<Sink> {
        let mc_node = self.cfg.mc_node_for(self.cfg.tile_node(tile));
        let mut sinks: Vec<Sink> = Vec::with_capacity(inst.outputs.len());
        for (port, binding) in inst.outputs.iter().enumerate() {
            let total = out_values[port].len() as u64;
            let kind = match binding {
                OutputBinding::Discard => SinkKind::Discard,
                OutputBinding::Memory {
                    desc:
                        StreamDesc::Affine {
                            src: DataSrc::Spad, ..
                        }
                        | StreamDesc::Indirect {
                            src: DataSrc::Spad, ..
                        },
                    ..
                } => SinkKind::Spad,
                OutputBinding::Memory { desc, .. } => SinkKind::DramWrite {
                    gather: desc.is_indirect(),
                    mc_node,
                },
                OutputBinding::Scatter { src, addr_port, .. } => SinkKind::Scatter {
                    addr_port: *addr_port,
                    to_dram: *src == DataSrc::Dram,
                    mc_node,
                },
                OutputBinding::Pipe(pp) => SinkKind::Pipe { pipe: *pp },
            };
            sinks.push(Sink {
                kind,
                total,
                sent: 0,
                acked: false,
                held: false,
            });
        }
        // mark scatter-managed address ports
        for port in 0..sinks.len() {
            if let SinkKind::Scatter { addr_port, .. } = sinks[port].kind {
                sinks[addr_port].held = true;
            }
        }
        sinks
    }

    fn build_stream_feed(&mut self, desc: &StreamDesc, tile: usize) -> Result<Feed, RunError> {
        let total = desc.len();
        let dram = |spec: DramJobSpec| Feed {
            total,
            remaining: 0,
            kind: FeedKind::Dram {
                spec: (total > 0).then_some(spec),
            },
        };
        let feed = match desc {
            StreamDesc::Literal(_) | StreamDesc::Iota { .. } => Feed {
                total,
                remaining: total,
                kind: FeedKind::Instant,
            },
            StreamDesc::Affine {
                src: DataSrc::Spad, ..
            } => Feed {
                total,
                remaining: total,
                kind: FeedKind::Spad { per_word: 1 },
            },
            StreamDesc::Affine {
                src: DataSrc::Dram,
                pattern,
            } => dram(DramJobSpec {
                addrs: pattern.iter().collect(),
                gather: false,
                extra_delay: 0,
                index_phantom: None,
            }),
            StreamDesc::Indirect {
                src: DataSrc::Spad,
                index,
                index_src,
                ..
            } => match index_src {
                DataSrc::Spad => Feed {
                    total,
                    remaining: total,
                    kind: FeedKind::Spad { per_word: 2 },
                },
                // indices stream from DRAM and gate the port; the
                // scratchpad gather overlaps with index arrival
                DataSrc::Dram => dram(DramJobSpec {
                    addrs: index.iter().collect(),
                    gather: false,
                    extra_delay: 0,
                    index_phantom: None,
                }),
            },
            StreamDesc::Indirect {
                src: DataSrc::Dram,
                index,
                index_src,
                ..
            } => {
                // functional index values give the gather addresses, read
                // after the task's own outputs landed
                let mem = Memory {
                    dram: self.memctrl.dram_mut().storage_mut(),
                    spad: self.tiles[tile].spad.storage_mut(),
                };
                let (_, addrs) =
                    functional::addresses(&mem, desc, total as usize).map_err(RunError::Program)?;
                match index_src {
                    // spad index reads delay the gather issue
                    DataSrc::Spad => dram(DramJobSpec {
                        addrs,
                        gather: true,
                        extra_delay: (total as f64 / self.cfg.spad_bw).ceil() as u64,
                        index_phantom: None,
                    }),
                    // two-phase: stream indices (phantom), then gather
                    DataSrc::Dram => dram(DramJobSpec {
                        addrs,
                        gather: true,
                        extra_delay: 0,
                        index_phantom: Some(index.iter().collect()),
                    }),
                }
            }
        };
        Ok(feed)
    }
}

/// Replays `behind` deferred cycles of `tile` in closed form: an idle
/// skip when its queue is empty, a blocked-head bulk advance otherwise.
fn replay_tile(tile: &mut Tile, behind: u64, profile: &mut SimProfile) {
    if tile.is_idle() {
        tile.skip_idle_cycles(behind);
        profile.tile_skipped += behind;
    } else {
        tile.bulk_advance(behind);
        profile.tile_bulk_cycles += behind;
    }
    profile.tile_stretch_hist[stretch_bucket(behind)] += 1;
}

/// The work estimate the dispatcher tracks for placement. Tasks fed
/// entirely by pipes execute *concurrently* with their producers (in
/// direct mode their fabric time overlaps the producers' runtime), so
/// counting their full hint would double-count work and repel unrelated
/// tasks from their tile; they are discounted instead.
fn placement_hint(inst: &TaskInstance) -> u64 {
    let all_pipes = !inst.inputs.is_empty()
        && inst
            .inputs
            .iter()
            .all(|b| matches!(b, InputBinding::Pipe(_)));
    if all_pipes {
        inst.work_hint / 8
    } else {
        inst.work_hint
    }
}
