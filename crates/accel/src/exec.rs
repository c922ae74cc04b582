//! Per-tile task execution: feeds, firing, staging, sinks.
//!
//! A tile runs one task at a time from its dispatched-task queue. All
//! *functional* results were computed at dispatch (dispatch order is the
//! deterministic serialization point); the tile's job is to *meter* the
//! task's timing faithfully:
//!
//! * **feeds** deliver input-word *counts* into per-port availability
//!   counters — from the scratchpad (budgeted), from DRAM (words arrive
//!   as NoC flits), or from pipes (direct flits or spill reads). Local
//!   feeds take a cycle's words in closed form;
//! * the **fabric** retires one dataflow firing per initiation interval
//!   when every input port has a word and the output buffers have room;
//! * emitted words sit in a **staging** delay line for the pipeline
//!   depth, then move to bounded output buffers. Both hold *counts*:
//!   the delay line keeps `(ready, words)` runs and each buffer a word
//!   count, because the values were resolved at dispatch and nothing
//!   reads them after emission;
//! * **sinks** drain output buffers into the scratchpad, DRAM write
//!   flits, pipe words, or nowhere (discard), and wait for write acks.
//!   Discard and scratchpad sinks drain in closed form; DRAM-write,
//!   scatter and pipe sinks move one word at a time, because their
//!   flits (or paired accesses) are modelled traffic.
//!
//! A task completes when its firings are done, buffers are drained, and
//! every sink is acknowledged.

use crate::config::DeltaConfig;
use crate::functional::TaskResults;
use crate::memctrl::{MemCtrl, ReadReq};
use crate::msg::Msg;
use crate::pipes::{PipeMode, PipeTable};
use crate::report::TileCounters;
use crate::trace::{TraceEvent, TraceSink};
use std::collections::VecDeque;
use taskstream_model::{PipeId, TaskId, TaskInstance, TaskTypeId};
use ts_cgra::KernelTiming;
use ts_mem::Spad;
use ts_noc::Mesh;
use ts_sim::{Activity, FxHashMap, TokenBucket};
use ts_stream::Addr;

/// A task's observable metering progress (firings, native advance,
/// words arrived, words drained) — the recovery watchdog victimizes a
/// task whose signature stops changing.
pub(crate) type ProgressSig = (u64, u64, u64, u64);

/// A deferred DRAM read, issued by the tile when the owning task enters
/// the prefetch window (so prefetch never starves the running task's
/// streams).
#[derive(Debug)]
pub(crate) struct DramJobSpec {
    /// Gather addresses (delivery order).
    pub addrs: Vec<Addr>,
    /// Random-access pattern flag.
    pub gather: bool,
    /// Extra issue delay (e.g. scratchpad index-fetch time).
    pub extra_delay: u64,
    /// Addresses of an index stream that must be fetched (as a phantom
    /// job) before the gather may start (two-phase indirect reads).
    pub index_phantom: Option<Vec<Addr>>,
}

/// How one input port receives its words.
#[derive(Debug)]
pub(crate) enum FeedKind {
    /// Literal/iota: generated locally at the engine rate.
    Instant,
    /// Scratchpad stream; `per_word` accesses of the tile budget per
    /// element (1 affine, 2 indirect).
    Spad {
        /// Scratchpad accesses charged per delivered word.
        per_word: u64,
    },
    /// DRAM stream; the read job is issued when the task enters the
    /// prefetch window (`spec` still pending) — words then arrive as
    /// [`Msg::DramData`] flits routed by the tile's job table. Multicast
    /// group reads are issued at dispatch and arrive with `spec: None`.
    Dram {
        /// Deferred job, present until issued.
        spec: Option<DramJobSpec>,
    },
    /// Direct pipe: words arrive as [`Msg::PipeWord`] flits (routed by
    /// the tile's pipe table).
    PipeDirect,
    /// Spilled pipe: once the producer completes, issue a DRAM read of
    /// the spill buffer.
    PipeSpill {
        /// The pipe.
        pipe: PipeId,
        /// Whether the spill read job has been issued.
        issued: bool,
    },
}

/// One input port's feed state.
#[derive(Debug)]
pub(crate) struct Feed {
    /// Words this feed will deliver in total.
    pub total: u64,
    /// Words not yet delivered (local kinds only; NoC kinds count via
    /// flit arrivals).
    pub remaining: u64,
    /// Transport.
    pub kind: FeedKind,
}

/// Where one output port's words go.
#[derive(Debug)]
pub(crate) enum SinkKind {
    /// Values only visible to the host.
    Discard,
    /// Budgeted scratchpad writes (functional effect already applied at
    /// dispatch).
    Spad,
    /// DRAM write stream: one flit per word to a controller node (the
    /// functional effect was applied at dispatch).
    DramWrite {
        /// Random-access pattern flag.
        gather: bool,
        /// Destination controller node.
        mc_node: usize,
    },
    /// Scatter: pairs this port's values with a sibling port's emitted
    /// indices.
    Scatter {
        /// Sibling output port supplying one index per value.
        addr_port: usize,
        /// Scatter into DRAM (true) or the local scratchpad (false).
        to_dram: bool,
        /// Destination controller node (DRAM scatters).
        mc_node: usize,
    },
    /// Pipe output; transport resolved from the pipe table at drain
    /// time (Direct → pipe words, Spill → DRAM write stream).
    Pipe {
        /// The pipe.
        pipe: PipeId,
    },
}

/// One output port's sink state.
#[derive(Debug)]
pub(crate) struct Sink {
    /// Transport.
    pub kind: SinkKind,
    /// Words this sink must move (the port's functional output count).
    pub total: u64,
    /// Words moved so far.
    pub sent: u64,
    /// Write-stream acknowledgement received.
    pub acked: bool,
    /// Drained by a sibling Scatter sink rather than by itself.
    pub held: bool,
}

impl Sink {
    fn needs_ack(&self, pipes: &PipeTable) -> bool {
        match &self.kind {
            SinkKind::DramWrite { .. } => self.total > 0,
            SinkKind::Scatter { to_dram, .. } => *to_dram && self.total > 0,
            SinkKind::Pipe { pipe } => {
                matches!(pipes.get(*pipe).mode, Some(PipeMode::Spill { .. })) && self.total > 0
            }
            _ => false,
        }
    }

    fn is_done(&self, pipes: &PipeTable) -> bool {
        self.sent == self.total && (!self.needs_ack(pipes) || self.acked)
    }
}

/// A dispatched task with all its metering state.
#[derive(Debug)]
pub(crate) struct TaskExec {
    pub id: TaskId,
    pub ty: TaskTypeId,
    pub inst: TaskInstance,
    pub timing: KernelTiming,
    /// The functional results the metering replays, computed at
    /// dispatch. `native_cycles` is `Some(total_cycles)` for native
    /// kernels (rate-based model); `emit_firings` is DFG only.
    pub results: TaskResults,
    pub native_progress: u64,
    pub firings_total: u64,
    pub firings_done: u64,
    /// Slot credit: gains `lanes` per cycle, each firing costs `ii`.
    fire_credit: u64,
    /// Vector lanes of the fabric.
    lanes: u64,
    /// Per input port: words delivered and not yet consumed.
    pub in_avail: Vec<u64>,
    pub in_total: Vec<u64>,
    pub feeds: Vec<Feed>,
    /// Next value to emit per output port.
    pub out_cursor: Vec<usize>,
    /// Pipeline-depth delay line per port: runs of `(ready_at, words)`
    /// emitted on the same cycle, oldest first.
    staging: Vec<VecDeque<(u64, usize)>>,
    /// Words in each port's delay line.
    staged: Vec<usize>,
    /// Words in each port's bounded output buffer.
    out_buf: Vec<usize>,
    pub sinks: Vec<Sink>,
    pub dispatched_at: u64,
    /// Output-buffer capacity (from config, stored to avoid threading
    /// the config through hot paths).
    pub out_buf_cap: usize,
    /// Native model: cumulative words consumed per input port.
    pub native_consumed: Vec<u64>,
    /// Head-of-queue cycles with no compute progress because an input
    /// port was exhausted. Mirrors the tile-level `fire_stall_input`
    /// statistic, attributed to this task; reported via
    /// [`TraceEvent::TaskStalls`](crate::TraceEvent::TaskStalls).
    pub stall_input: u64,
    /// Head-of-queue cycles with no compute progress for any other
    /// reason (mirrors `fire_stall_other`).
    pub stall_other: u64,
}

impl TaskExec {
    /// Builds the metering state for a freshly dispatched task.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: TaskId,
        ty: TaskTypeId,
        inst: TaskInstance,
        timing: KernelTiming,
        feeds: Vec<Feed>,
        results: TaskResults,
        sinks: Vec<Sink>,
        out_buf_cap: usize,
        lanes: u32,
        now: u64,
    ) -> Self {
        let in_total: Vec<u64> = feeds.iter().map(|f| f.total).collect();
        let firings_total = match results.native_cycles {
            None => in_total.iter().copied().min().unwrap_or(0),
            Some(_) => 0,
        };
        let ports_out = results.outputs.len();
        let ports_in = in_total.len();
        TaskExec {
            id,
            ty,
            inst,
            timing,
            results,
            native_progress: 0,
            firings_total,
            firings_done: 0,
            fire_credit: 0,
            lanes: lanes.max(1) as u64,
            in_avail: vec![0; ports_in],
            in_total,
            feeds,
            out_cursor: vec![0; ports_out],
            staging: (0..ports_out).map(|_| VecDeque::new()).collect(),
            staged: vec![0; ports_out],
            out_buf: vec![0; ports_out],
            sinks,
            dispatched_at: now,
            out_buf_cap,
            native_consumed: vec![0; ports_in],
            stall_input: 0,
            stall_other: 0,
        }
    }

    fn ports_in(&self) -> usize {
        self.in_total.len()
    }

    fn ports_out(&self) -> usize {
        self.results.outputs.len()
    }

    /// Observable metering progress, used by the recovery watchdog: any
    /// firing, native advance, word arrival, or sink drain changes it.
    pub(crate) fn progress_sig(&self) -> ProgressSig {
        (
            self.firings_done,
            self.native_progress,
            self.in_avail.iter().sum(),
            self.sinks.iter().map(|s| s.sent).sum(),
        )
    }

    /// Stages `words` words on output port `p`, due at `ready`.
    fn stage(&mut self, p: usize, ready: u64, words: usize) {
        match self.staging[p].back_mut() {
            Some((at, n)) if *at == ready => *n += words,
            _ => self.staging[p].push_back((ready, words)),
        }
        self.staged[p] += words;
    }

    fn compute_done(&self) -> bool {
        match self.results.native_cycles {
            Some(c) => self.native_progress >= c,
            None => self.firings_done >= self.firings_total,
        }
    }

    fn fully_done(&self, pipes: &PipeTable) -> bool {
        self.compute_done()
            && self.staging.iter().all(|s| s.is_empty())
            && self.out_buf.iter().all(|&b| b == 0)
            && self
                .out_cursor
                .iter()
                .zip(&self.results.outputs)
                .all(|(c, v)| *c == v.len())
            && self.sinks.iter().all(|s| s.is_done(pipes))
    }
}

/// What a tile is doing with its queue head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Reconfig { left: u64 },
    Starting { left: u64 },
    Running,
}

/// External resources a tile touches during its tick.
pub(crate) struct TileIo<'a> {
    pub now: u64,
    pub mesh: &'a mut Mesh<Msg>,
    pub memctrl: &'a mut MemCtrl,
    pub pipes: &'a mut PipeTable,
    pub next_job: &'a mut u64,
    pub trace: &'a mut TraceSink,
}

/// One compute tile.
#[derive(Debug)]
pub(crate) struct Tile {
    pub id: usize,
    pub node: usize,
    pub spad: Spad,
    pub configured: Option<TaskTypeId>,
    phase: Phase,
    pub queue: VecDeque<TaskExec>,
    /// DRAM read job → (task, port) routes at this tile.
    pub job_routes: FxHashMap<u64, Vec<(TaskId, usize)>>,
    /// Pipe → (consumer task, port) for direct pipes ending here.
    pub pipe_routes: FxHashMap<PipeId, (TaskId, usize)>,
    engine: TokenBucket,
    /// Cycles the current queue head has made no observable progress.
    head_stall: u64,
    head_sig: (u64, u64, u64, u64),
    /// Fault runs only: tolerate stale NoC messages (flits for a task
    /// that was victimized away, duplicates of a re-sent stream) by
    /// dropping them instead of panicking on an unknown route.
    fault_tolerant: bool,
    /// The queue changed (a task arrived, left or rotated) since the
    /// last DRAM issue sweep, so the prefetch window may hold unissued
    /// streams. While clear, that sweep has nothing to do.
    queue_changed: bool,
    /// Queued spill-pipe feeds whose read is not yet issued. While
    /// zero, the spill issue sweep has nothing to do.
    spills_unissued: usize,
    /// The tile's counters; `spad_accesses` is filled in from the
    /// scratchpad at report time.
    pub counters: TileCounters,
}

/// Spill-pipe feeds of `task` whose read is not yet issued.
fn unissued_spills(task: &TaskExec) -> usize {
    task.feeds
        .iter()
        .filter(|f| matches!(f.kind, FeedKind::PipeSpill { issued: false, .. }))
        .count()
}

/// Cycles of zero progress after which a stalled head task yields the
/// fabric to the next queued task (the task unit's stall-rotation,
/// which prevents a co-scheduled consumer from head-of-line blocking
/// its own producers).
const STALL_ROTATE: u64 = 48;

impl Tile {
    pub(crate) fn new(id: usize, node: usize, cfg: &DeltaConfig) -> Self {
        Tile {
            id,
            node,
            spad: Spad::new(cfg.spad_words, cfg.spad_bw),
            configured: None,
            phase: Phase::Idle,
            queue: VecDeque::new(),
            job_routes: FxHashMap::default(),
            pipe_routes: FxHashMap::default(),
            engine: TokenBucket::per_cycle(cfg.engine_rate),
            head_stall: 0,
            head_sig: (0, 0, 0, 0),
            fault_tolerant: cfg.faults.is_active(),
            queue_changed: false,
            spills_unissued: 0,
            counters: TileCounters::default(),
        }
    }

    /// Space in the dispatched-task queue.
    pub(crate) fn queue_space(&self, cfg: &DeltaConfig) -> usize {
        cfg.tile_queue.saturating_sub(self.queue.len())
    }

    /// True when nothing is queued or running.
    pub(crate) fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// The tile's activity contract: computes the next cycle at which a
    /// [`tick`](Tile::tick) could do anything a
    /// [`bulk_advance`](Tile::bulk_advance) cannot reproduce in closed
    /// form. An empty queue has no pending event at all —
    /// [`on_msg`](Tile::on_msg) only touches queued-task state, so only
    /// a dispatch or a steal can wake the tile.
    ///
    /// The contract is **post-tick**: callers evaluate this immediately
    /// after a dense tick, and the answer stays valid until either the
    /// returned cycle arrives or external state the tile observes changes
    /// (an arriving flit, a dispatch or steal, a producer completing, a
    /// recovery eviction) — every such mutation must be preceded by a
    /// catch-up (`touch`) so the deferred stretch replays against the
    /// state the tile actually saw.
    ///
    /// Post-tick, a clear queue-changed flag means the tick's DRAM issue
    /// sweep left no unissued stream in the prefetch window, and a zero
    /// unissued-spill count means no queued task waits on a spill read;
    /// with both, the walk over every queued feed is skipped.
    ///
    /// Returns [`Activity::Now`] whenever the resident tasks are outside
    /// a provably inert regime:
    ///
    /// * a queued task inside the prefetch window still holds an unissued
    ///   DRAM stream, or an unissued spill read whose producer has
    ///   completed — next tick issues a memory job;
    /// * the tile is mid-reconfiguration or start-up — the phase machine
    ///   advances every cycle;
    /// * the head still owes instant/scratchpad feed words, can fire
    ///   (inputs available), holds drained words in an output buffer, or
    ///   has a pipe sink whose transport mode is still unresolved.
    ///
    /// Otherwise the head is blocked waiting on stream data and the only
    /// intrinsic future events are staged emissions maturing and the
    /// head-of-line rotation deadline, both known in closed form:
    /// [`Activity::At`] their minimum, or [`Activity::Idle`] when the
    /// blocked head has neither (it can only be woken externally).
    pub(crate) fn next_event(
        &self,
        now: u64,
        pipes: &PipeTable,
        prefetch_depth: usize,
    ) -> Activity {
        if self.queue.is_empty() {
            return Activity::Idle;
        }
        if self.phase != Phase::Running {
            return Activity::Now;
        }
        debug_assert_eq!(
            self.spills_unissued,
            self.queue.iter().map(unissued_spills).sum::<usize>(),
            "unissued-spill count diverged from the queued feeds"
        );
        if self.queue_changed || self.spills_unissued > 0 {
            let depth = prefetch_depth.max(1).min(self.queue.len());
            for (qi, task) in self.queue.iter().enumerate() {
                for feed in &task.feeds {
                    match &feed.kind {
                        FeedKind::Dram { spec: Some(_) } if qi < depth => return Activity::Now,
                        FeedKind::PipeSpill {
                            pipe,
                            issued: false,
                        } if pipes.get(*pipe).producer_completed => {
                            return Activity::Now;
                        }
                        _ => {}
                    }
                }
            }
        }
        let head = &self.queue[0];
        for feed in &head.feeds {
            if matches!(feed.kind, FeedKind::Instant | FeedKind::Spad { .. }) && feed.remaining > 0
            {
                return Activity::Now;
            }
        }
        if !head.compute_done() {
            let blocked = match head.results.native_cycles {
                None => (0..head.ports_in()).any(|p| head.in_total[p] > 0 && head.in_avail[p] == 0),
                Some(c) => {
                    let p1 = head.native_progress + 1;
                    (0..head.ports_in()).any(|port| {
                        let need = (head.in_total[port] * p1).div_ceil(c);
                        head.in_avail[port] < need.saturating_sub(head.native_consumed[port])
                    })
                }
            };
            if !blocked {
                return Activity::Now;
            }
        }
        if head.out_buf.iter().any(|&b| b > 0) {
            return Activity::Now;
        }
        for sink in &head.sinks {
            if let SinkKind::Pipe { pipe } = &sink.kind {
                if sink.sent < sink.total && pipes.get(*pipe).mode.is_none() {
                    return Activity::Now;
                }
            }
        }
        let mut event: Option<u64> = None;
        for staged in &head.staging {
            if let Some(&(ready, _)) = staged.front() {
                if ready <= now {
                    return Activity::Now;
                }
                event = Some(event.map_or(ready, |e| e.min(ready)));
            }
        }
        if self.queue.len() > 1 {
            if self.head_stall > STALL_ROTATE {
                return Activity::Now;
            }
            // `head_stall` increments each blocked tick the signature
            // holds still, so the rotation lands at a known cycle.
            let rotate = now + (STALL_ROTATE + 1 - self.head_stall);
            event = Some(event.map_or(rotate, |e| e.min(rotate)));
        }
        match event {
            Some(t) => Activity::At(t),
            None => Activity::Idle,
        }
    }

    /// Fast-forwards `n` idle cycles. Mirrors the empty-queue path of
    /// [`tick`](Tile::tick) exactly: scratchpad and engine budget
    /// refills (saturating, so they collapse to one closed-form add),
    /// the `idle_cycles` counter, and the phase reset. The DRAM/spill
    /// issue sweeps run over an empty queue and are no-ops.
    pub(crate) fn skip_idle_cycles(&mut self, n: u64) {
        debug_assert!(self.queue.is_empty(), "skip with queued work");
        self.spad.skip_cycles(n);
        self.engine.refill_n(n);
        self.counters.idle_cycles += n;
        self.phase = Phase::Idle;
    }

    /// Fast-forwards `k` cycles of a *blocked* running head — the regime
    /// [`next_event`](Tile::next_event) vouched for. Reproduces exactly
    /// what `k` dense ticks would have done to a head that cannot feed,
    /// fire, drain, or complete:
    ///
    /// * scratchpad and engine budget refills (saturating closed form);
    /// * the `busy_cycles` counter;
    /// * the fire-stall counter the no-progress path records each tick,
    ///   keyed off the head's (frozen) starvation state;
    /// * the dataflow fire-credit accumulator, whose per-tick saturating
    ///   add collapses to one saturating multiply-add;
    /// * the head-of-line stall counter, which grows one per tick while
    ///   the head signature holds still — `next_event` bounded the
    ///   stretch so it never crosses the rotation deadline.
    pub(crate) fn bulk_advance(&mut self, k: u64) {
        debug_assert!(!self.queue.is_empty(), "bulk advance with an empty queue");
        debug_assert_eq!(self.phase, Phase::Running, "bulk advance outside Running");
        self.spad.skip_cycles(k);
        self.engine.refill_n(k);
        self.counters.busy_cycles += k;
        let head = self.queue.front_mut().expect("nonempty queue");
        if !head.compute_done() {
            // per-task attribution: the head is frozen for the whole
            // stretch, so k dense ticks would each have bumped the same
            // counter on the same task
            if (0..head.ports_in()).any(|p| head.in_total[p] > 0 && head.in_avail[p] == 0) {
                self.counters.fire_stall_input += k;
                head.stall_input += k;
            } else {
                self.counters.fire_stall_other += k;
                head.stall_other += k;
            }
        }
        if head.results.native_cycles.is_none() {
            head.fire_credit =
                (head.fire_credit + head.lanes * k).min(2 * head.lanes.max(head.timing.ii as u64));
        }
        if self.queue.len() > 1 {
            let head = &self.queue[0];
            debug_assert_eq!(
                (
                    head.firings_done,
                    head.native_progress,
                    head.sinks.iter().map(|s| s.sent).sum::<u64>(),
                    0
                ),
                self.head_sig,
                "bulk advance with an unsettled head signature"
            );
            self.head_stall += k;
            debug_assert!(
                self.head_stall <= STALL_ROTATE,
                "bulk advance across a rotation deadline"
            );
        }
    }

    /// Accepts a dispatched task.
    pub(crate) fn enqueue(&mut self, exec: TaskExec) {
        self.counters.tasks_dispatched += 1;
        self.spills_unissued += unissued_spills(&exec);
        self.queue.push_back(exec);
        self.queue_changed = true;
    }

    /// Takes the task at `qi` out of the queue, keeping the issue-sweep
    /// bookkeeping in step.
    fn take_task(&mut self, qi: usize) -> TaskExec {
        let t = self.queue.remove(qi).expect("queue index valid");
        self.spills_unissued -= unissued_spills(&t);
        self.queue_changed = true;
        t
    }

    /// Index of the last queued task that can migrate to another tile:
    /// outside the prefetch window, no issued/shared DRAM streams, no
    /// pipes, and no scratchpad side effects.
    pub(crate) fn steal_candidate(&self, prefetch_depth: usize) -> Option<usize> {
        let start = prefetch_depth.max(1);
        (start..self.queue.len()).rev().find(|&qi| {
            let t = &self.queue[qi];
            let feeds_ok = t.feeds.iter().all(|f| match &f.kind {
                FeedKind::Instant | FeedKind::Spad { .. } => true,
                FeedKind::Dram { spec } => spec.is_some(),
                FeedKind::PipeDirect | FeedKind::PipeSpill { .. } => false,
            });
            let outputs_ok = t.inst.outputs.iter().all(|o| {
                use taskstream_model::OutputBinding as OB;
                match o {
                    OB::Discard => true,
                    OB::Memory { desc, .. } => !matches!(
                        desc,
                        ts_stream::StreamDesc::Affine {
                            src: ts_stream::DataSrc::Spad,
                            ..
                        } | ts_stream::StreamDesc::Indirect {
                            src: ts_stream::DataSrc::Spad,
                            ..
                        }
                    ),
                    OB::Scatter { src, .. } => *src == ts_stream::DataSrc::Dram,
                    OB::Pipe(_) => false,
                }
            });
            feeds_ok && outputs_ok && t.inst.input_pipes().next().is_none()
        })
    }

    /// Removes a queued task for migration and retargets its sinks'
    /// controller homing to the thief's controller `mc_node`.
    pub(crate) fn steal(&mut self, qi: usize, mc_node: usize) -> TaskExec {
        let mut t = self.take_task(qi);
        for sink in &mut t.sinks {
            match &mut sink.kind {
                SinkKind::DramWrite { mc_node: m, .. } | SinkKind::Scatter { mc_node: m, .. } => {
                    *m = mc_node;
                }
                _ => {}
            }
        }
        self.counters.tasks_stolen_away += 1;
        t
    }

    pub(crate) fn find_task(&mut self, id: TaskId) -> Option<&mut TaskExec> {
        self.queue.iter_mut().find(|t| t.id == id)
    }

    /// Fail-stop recovery: evicts every queued task for re-dispatch
    /// elsewhere, leaving the tile idle.
    pub(crate) fn drain_queue(&mut self) -> Vec<TaskExec> {
        self.phase = Phase::Idle;
        self.head_stall = 0;
        self.spills_unissued = 0;
        self.queue_changed = true;
        std::mem::take(&mut self.queue).into()
    }

    /// Watchdog recovery: evicts one queued task by id.
    pub(crate) fn remove_task(&mut self, id: TaskId) -> Option<TaskExec> {
        let qi = self.queue.iter().position(|t| t.id == id)?;
        let t = self.take_task(qi);
        if qi == 0 {
            self.phase = Phase::Idle;
            self.head_stall = 0;
        }
        Some(t)
    }

    /// Routes one ejected NoC message into task state.
    pub(crate) fn on_msg(&mut self, msg: Msg) {
        match msg {
            Msg::DramData {
                job,
                words,
                last: _,
            } => {
                // routes stay registered for the whole run: words of one
                // job may arrive out of order across controller nodes,
                // so the `last` flag cannot be used for cleanup
                let routes = match self.job_routes.get(&job) {
                    Some(r) => r,
                    None if self.fault_tolerant => return,
                    None => panic!("tile {}: unknown read job {job}", self.id),
                };
                for &(task, port) in routes {
                    if let Some(t) = self.queue.iter_mut().find(|t| t.id == task) {
                        t.in_avail[port] += words as u64;
                    }
                }
            }
            Msg::PipeWord { pipe, last } => {
                let (task, port) = match self.pipe_routes.get(&pipe) {
                    Some(&r) => r,
                    None if self.fault_tolerant => return,
                    None => panic!("tile {}: unknown pipe {pipe:?}", self.id),
                };
                if let Some(t) = self.find_task(task) {
                    t.in_avail[port] += 1;
                }
                if last {
                    self.pipe_routes.remove(&pipe);
                }
            }
            Msg::WriteAck {
                stream: (task, port),
            } => {
                if let Some(t) = self.find_task(task) {
                    t.sinks[port].acked = true;
                }
            }
            Msg::DramWrite { .. } => {
                unreachable!("write flits terminate at memory controllers")
            }
        }
    }

    /// Advances the tile one cycle; returns tasks that completed.
    pub(crate) fn tick(&mut self, io: &mut TileIo<'_>, cfg: &DeltaConfig) -> Vec<TaskExec> {
        self.spad.begin_cycle();
        self.engine.refill();

        // issue deferred DRAM reads for tasks inside the prefetch
        // window, and spill-pipe reads whose producer is now done; each
        // sweep runs only when it can find something to issue
        if self.queue_changed {
            self.queue_changed = false;
            self.issue_dram_reads(io, cfg);
        }
        if self.spills_unissued > 0 {
            self.issue_spill_reads(io, cfg);
        }

        if self.queue.is_empty() {
            self.counters.idle_cycles += 1;
            self.phase = Phase::Idle;
            return Vec::new();
        }
        self.counters.busy_cycles += 1;

        // phase machine for the queue head
        match self.phase {
            Phase::Idle => {
                let ty = self.queue[0].ty;
                let cost = self.queue[0].timing.config_cycles;
                if self.configured == Some(ty) || cost == 0 {
                    self.configured = Some(ty);
                    self.phase = Phase::Starting {
                        left: cfg.task_start_overhead,
                    };
                } else {
                    self.counters.reconfigs += 1;
                    self.phase = Phase::Reconfig { left: cost };
                }
            }
            Phase::Reconfig { left } => {
                self.counters.reconfig_cycles += 1;
                if left <= 1 {
                    self.configured = Some(self.queue[0].ty);
                    self.phase = Phase::Starting {
                        left: cfg.task_start_overhead,
                    };
                } else {
                    self.phase = Phase::Reconfig { left: left - 1 };
                }
            }
            Phase::Starting { left } => {
                if left <= 1 {
                    self.phase = Phase::Running;
                } else {
                    self.phase = Phase::Starting { left: left - 1 };
                }
            }
            Phase::Running => {}
        }

        if self.phase != Phase::Running {
            return Vec::new();
        }

        // --- running task ------------------------------------------------
        self.run_feeds();
        let before = {
            let t = &self.queue[0];
            (t.firings_done, t.native_progress)
        };
        self.advance_compute(io.now);
        {
            let t = &self.queue[0];
            // first compute progress of this task: busy tiles tick in
            // every scheduling mode, so this fires identically whether
            // idle neighbours are skipped or not
            if before == (0, 0) && (t.firings_done, t.native_progress) != before {
                io.trace.emit(
                    io.now,
                    TraceEvent::TaskFire {
                        task: t.id.0,
                        tile: self.id,
                    },
                );
            }
            if (t.firings_done, t.native_progress) == before && !t.compute_done() {
                let starved =
                    (0..t.in_total.len()).any(|p| t.in_total[p] > 0 && t.in_avail[p] == 0);
                if starved {
                    self.counters.fire_stall_input += 1;
                } else {
                    self.counters.fire_stall_other += 1;
                }
                // per-task attribution rides the exact same branch, so
                // it stays identical across the scheduler fast paths
                // (bulk_advance applies the frozen-head equivalent)
                let t = &mut self.queue[0];
                if starved {
                    t.stall_input += 1;
                } else {
                    t.stall_other += 1;
                }
            }
        }
        self.drain_staging(io.now);
        self.drain_sinks(io, cfg);

        // completion
        let done = {
            let t = &self.queue[0];
            t.fully_done(io.pipes)
        };
        if done {
            let t = self.take_task(0);
            let latency = io.now - t.dispatched_at;
            self.counters.tasks_completed += 1;
            self.counters.task_latency_sum += latency;
            self.counters.task_latency_max = self.counters.task_latency_max.max(latency);
            self.phase = Phase::Idle;
            self.head_stall = 0;
            return vec![t];
        }

        // stall rotation: a head making no progress (e.g. a consumer
        // whose producers are queued elsewhere) yields to the next task
        if self.queue.len() > 1 {
            let t = &self.queue[0];
            let sig = (
                t.firings_done,
                t.native_progress,
                t.sinks.iter().map(|s| s.sent).sum::<u64>(),
                0,
            );
            if sig == self.head_sig {
                self.head_stall += 1;
                if self.head_stall > STALL_ROTATE {
                    self.queue.rotate_left(1);
                    self.queue_changed = true;
                    self.phase = Phase::Idle;
                    self.head_stall = 0;
                    self.counters.task_rotations += 1;
                }
            } else {
                self.head_sig = sig;
                self.head_stall = 0;
            }
        }
        Vec::new()
    }

    fn issue_dram_reads(&mut self, io: &mut TileIo<'_>, cfg: &DeltaConfig) {
        let node = self.node;
        let depth = cfg.prefetch_depth.max(1).min(self.queue.len());
        for qi in 0..depth {
            for pi in 0..self.queue[qi].feeds.len() {
                let FeedKind::Dram { spec } = &mut self.queue[qi].feeds[pi].kind else {
                    continue;
                };
                let Some(spec) = spec.take() else { continue };
                let after = spec.index_phantom.map(|idx_addrs| {
                    let idx_job = *io.next_job;
                    *io.next_job += 1;
                    io.memctrl.submit_read(
                        crate::memctrl::ReadReq {
                            job: idx_job,
                            addrs: idx_addrs,
                            gather: false,
                            dsts: vec![],
                            after: None,
                        },
                        io.now + cfg.mem_req_latency,
                    );
                    idx_job
                });
                let job = *io.next_job;
                *io.next_job += 1;
                io.memctrl.submit_read(
                    crate::memctrl::ReadReq {
                        job,
                        addrs: spec.addrs,
                        gather: spec.gather,
                        dsts: vec![node],
                        after,
                    },
                    io.now + cfg.mem_req_latency + spec.extra_delay,
                );
                let tid = self.queue[qi].id;
                self.job_routes.entry(job).or_default().push((tid, pi));
            }
        }
    }

    fn issue_spill_reads(&mut self, io: &mut TileIo<'_>, cfg: &DeltaConfig) {
        let node = self.node;
        for qi in 0..self.queue.len() {
            for pi in 0..self.queue[qi].feeds.len() {
                let (pipe, total) = match &self.queue[qi].feeds[pi].kind {
                    FeedKind::PipeSpill {
                        pipe,
                        issued: false,
                    } => (*pipe, self.queue[qi].feeds[pi].total),
                    _ => continue,
                };
                let ps = io.pipes.get(pipe);
                if !ps.producer_completed {
                    continue;
                }
                self.spills_unissued -= 1;
                if total == 0 {
                    if let FeedKind::PipeSpill { issued, .. } = &mut self.queue[qi].feeds[pi].kind {
                        *issued = true;
                    }
                    continue;
                }
                let base = match ps.mode {
                    Some(PipeMode::Spill { base }) => base,
                    other => panic!("spill feed on pipe with mode {other:?}"),
                };
                let job = *io.next_job;
                *io.next_job += 1;
                io.memctrl.submit_read(
                    ReadReq {
                        job,
                        addrs: (base..base + total).collect(),
                        gather: false,
                        dsts: vec![node],
                        after: None,
                    },
                    io.now + cfg.mem_req_latency,
                );
                let tid = self.queue[qi].id;
                self.job_routes.entry(job).or_default().push((tid, pi));
                if let FeedKind::PipeSpill { issued, .. } = &mut self.queue[qi].feeds[pi].kind {
                    *issued = true;
                }
                self.counters.spill_reads += 1;
            }
        }
    }

    fn run_feeds(&mut self) {
        let t = self.queue.front_mut().expect("running task");
        for (port, feed) in t.feeds.iter_mut().enumerate() {
            match feed.kind {
                FeedKind::Instant => {
                    let words = self.engine.take_up_to(feed.remaining);
                    feed.remaining -= words;
                    t.in_avail[port] += words;
                }
                FeedKind::Spad { per_word } => {
                    // the words the budget covers in full; a word it
                    // covers only in part still spends what is left,
                    // since the engine charges access by access
                    let words = match self.spad.budget().checked_div(per_word) {
                        Some(covered) => covered.min(feed.remaining),
                        None => feed.remaining,
                    };
                    self.spad.charge_up_to(words * per_word);
                    if words < feed.remaining {
                        self.spad.charge_up_to(per_word);
                    }
                    feed.remaining -= words;
                    t.in_avail[port] += words;
                }
                // NoC-fed kinds count via on_msg
                FeedKind::Dram { .. } | FeedKind::PipeDirect | FeedKind::PipeSpill { .. } => {}
            }
        }
    }

    fn advance_compute(&mut self, now: u64) {
        let t = self.queue.front_mut().expect("running task");
        match t.results.native_cycles {
            None => Self::advance_dfg(t, now),
            Some(c) => {
                for _ in 0..t.lanes {
                    Self::advance_native(t, now, c);
                }
            }
        }
    }

    fn advance_dfg(t: &mut TaskExec, now: u64) {
        // slot credit: `lanes` per cycle, `ii` per firing (capped at one
        // cycle's worth so idle periods don't bank throughput)
        t.fire_credit = (t.fire_credit + t.lanes).min(2 * t.lanes.max(t.timing.ii as u64));
        while t.firings_done < t.firings_total && t.fire_credit >= t.timing.ii as u64 {
            // inputs available on every port?
            for p in 0..t.ports_in() {
                if t.in_total[p] > 0 && t.in_avail[p] == 0 {
                    return;
                }
            }
            // output space for this firing's emissions?
            let trace = t.results.emit_firings.as_ref().expect("dfg trace");
            let cap_hit = (0..t.ports_out()).any(|p| {
                let emits = trace[p]
                    .get(t.out_cursor[p])
                    .is_some_and(|&f| f == t.firings_done);
                emits && t.staged[p] + t.out_buf[p] >= t.out_buf_capacity()
            });
            if cap_hit {
                return;
            }
            // fire
            for p in 0..t.ports_in() {
                if t.in_total[p] > 0 {
                    t.in_avail[p] -= 1;
                }
            }
            for p in 0..t.ports_out() {
                let cur = t.out_cursor[p];
                let emits = t.results.emit_firings.as_ref().expect("dfg trace")[p]
                    .get(cur)
                    .is_some_and(|&f| f == t.firings_done);
                if emits {
                    t.stage(p, now + t.timing.depth as u64, 1);
                    t.out_cursor[p] = cur + 1;
                }
            }
            t.firings_done += 1;
            t.fire_credit -= t.timing.ii as u64;
        }
    }

    fn advance_native(t: &mut TaskExec, now: u64, total_cycles: u64) {
        if t.native_progress >= total_cycles {
            return;
        }
        let p1 = t.native_progress + 1;
        // inputs: cumulative need at progress p1 (ceiling so the final
        // step needs the full stream)
        for port in 0..t.ports_in() {
            let need = (t.in_total[port] * p1).div_ceil(total_cycles);
            let consumed = t.consumed_native(port);
            let delta = need.saturating_sub(consumed);
            if t.in_avail[port] < delta {
                return;
            }
        }
        // output space
        for port in 0..t.ports_out() {
            let due = (t.results.outputs[port].len() as u64 * p1) / total_cycles;
            let new = due.saturating_sub(t.out_cursor[port] as u64);
            if new > 0 && t.staged[port] + t.out_buf[port] + new as usize > t.out_buf_capacity() {
                return;
            }
        }
        // consume + emit
        for port in 0..t.ports_in() {
            let need = (t.in_total[port] * p1).div_ceil(total_cycles);
            let consumed = t.consumed_native(port);
            let delta = need.saturating_sub(consumed);
            t.in_avail[port] -= delta;
            t.set_consumed_native(port, need);
        }
        for port in 0..t.ports_out() {
            let due = ((t.results.outputs[port].len() as u64 * p1) / total_cycles) as usize;
            if t.out_cursor[port] < due {
                t.stage(port, now + 1, due - t.out_cursor[port]);
                t.out_cursor[port] = due;
            }
        }
        t.native_progress = p1;
    }

    fn drain_staging(&mut self, now: u64) {
        let t = self.queue.front_mut().expect("running task");
        for p in 0..t.ports_out() {
            let cap = t.out_buf_capacity();
            while t.out_buf[p] < cap {
                match t.staging[p].front_mut() {
                    Some((ready, n)) if *ready <= now => {
                        let k = (*n).min(cap - t.out_buf[p]);
                        *n -= k;
                        if *n == 0 {
                            t.staging[p].pop_front();
                        }
                        t.staged[p] -= k;
                        t.out_buf[p] += k;
                    }
                    _ => break,
                }
            }
        }
    }

    fn drain_sinks(&mut self, io: &mut TileIo<'_>, cfg: &DeltaConfig) {
        let node = self.node;
        let t = self.queue.front_mut().expect("running task");
        for p in 0..t.sinks.len() {
            if t.sinks[p].held {
                continue; // drained by its scatter manager
            }
            loop {
                if t.sinks[p].sent >= t.sinks[p].total {
                    break;
                }
                let progressed = match &t.sinks[p].kind {
                    SinkKind::Discard | SinkKind::Spad => {
                        let sink = &mut t.sinks[p];
                        let mut n = (t.out_buf[p] as u64).min(sink.total - sink.sent);
                        if matches!(sink.kind, SinkKind::Spad) {
                            n = self.spad.charge_up_to(n);
                        }
                        t.out_buf[p] -= n as usize;
                        sink.sent += n;
                        n > 0
                    }
                    SinkKind::DramWrite { gather, mc_node } => {
                        if t.out_buf[p] > 0 {
                            let msg = Msg::DramWrite {
                                stream: (t.id, p),
                                reply_to: node,
                                last: t.sinks[p].sent + 1 == t.sinks[p].total,
                                gather: *gather,
                            };
                            if io.mesh.inject(node, &[*mc_node], msg).is_ok() {
                                t.out_buf[p] -= 1;
                                t.sinks[p].sent += 1;
                                true
                            } else {
                                false
                            }
                        } else {
                            false
                        }
                    }
                    SinkKind::Scatter {
                        addr_port,
                        to_dram,
                        mc_node,
                    } => {
                        let (ap, to_dram, mc_node) = (*addr_port, *to_dram, *mc_node);
                        if t.out_buf[p] == 0 || t.out_buf[ap] == 0 {
                            false
                        } else {
                            let ok = if to_dram {
                                let msg = Msg::DramWrite {
                                    stream: (t.id, p),
                                    reply_to: node,
                                    last: t.sinks[p].sent + 1 == t.sinks[p].total,
                                    gather: true,
                                };
                                io.mesh.inject(node, &[mc_node], msg).is_ok()
                            } else {
                                // spad RMW: two accesses
                                self.spad.try_charge() && self.spad.try_charge()
                            };
                            if ok {
                                t.out_buf[p] -= 1;
                                t.out_buf[ap] -= 1;
                                t.sinks[p].sent += 1;
                                t.sinks[ap].sent += 1;
                                true
                            } else {
                                false
                            }
                        }
                    }
                    SinkKind::Pipe { pipe } => {
                        let pipe = *pipe;
                        // resolve the transport on the first drain
                        // attempt: direct if the consumer is already
                        // co-scheduled, spill otherwise
                        if io.pipes.get(pipe).mode.is_none() {
                            let consumer = io.pipes.get(pipe).consumer_node;
                            let mode = match consumer {
                                Some(cn) if cfg.features.pipelining => {
                                    self.counters.pipes_direct += 1;
                                    io.trace.emit(
                                        io.now,
                                        TraceEvent::PipeDirect {
                                            pipe: pipe.0,
                                            consumer_node: cn,
                                        },
                                    );
                                    PipeMode::Direct { consumer_node: cn }
                                }
                                _ => {
                                    self.counters.pipes_spilled += 1;
                                    let base = io.pipes.alloc_spill(t.sinks[p].total);
                                    io.trace
                                        .emit(io.now, TraceEvent::PipeSpill { pipe: pipe.0, base });
                                    PipeMode::Spill { base }
                                }
                            };
                            io.pipes.get_mut(pipe).mode = Some(mode);
                        }
                        match io.pipes.get(pipe).mode {
                            Some(PipeMode::Direct { consumer_node }) => {
                                if t.out_buf[p] == 0 {
                                    false
                                } else {
                                    let msg = Msg::PipeWord {
                                        pipe,
                                        last: t.sinks[p].sent + 1 == t.sinks[p].total,
                                    };
                                    if io.mesh.inject(node, &[consumer_node], msg).is_ok() {
                                        t.out_buf[p] -= 1;
                                        t.sinks[p].sent += 1;
                                        true
                                    } else {
                                        false
                                    }
                                }
                            }
                            Some(PipeMode::Spill { .. }) => {
                                if t.out_buf[p] > 0 {
                                    let msg = Msg::DramWrite {
                                        stream: (t.id, p),
                                        reply_to: node,
                                        last: t.sinks[p].sent + 1 == t.sinks[p].total,
                                        gather: false,
                                    };
                                    let mc = cfg.mc_node_for(node);
                                    if io.mesh.inject(node, &[mc], msg).is_ok() {
                                        t.out_buf[p] -= 1;
                                        t.sinks[p].sent += 1;
                                        true
                                    } else {
                                        false
                                    }
                                } else {
                                    false
                                }
                            }
                            None => unreachable!("mode resolved above"),
                        }
                    }
                };
                if !progressed {
                    break;
                }
            }
        }
    }
}

impl TaskExec {
    fn out_buf_capacity(&self) -> usize {
        self.out_buf_cap
    }

    fn consumed_native(&self, port: usize) -> u64 {
        self.native_consumed[port]
    }

    fn set_consumed_native(&mut self, port: usize, v: u64) {
        self.native_consumed[port] = v;
    }
}
