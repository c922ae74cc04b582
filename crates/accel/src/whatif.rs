//! Causal what-if profiling over recorded traces.
//!
//! In the style of TASKPROF (*A Fast Causal Profiler for Task Parallel
//! Programs*), this module reconstructs the **task dependence DAG**
//! from a [`TraceRecord`] stream — spawn edges from
//! [`TraceEvent::TaskSpawn`]'s parent field, producer→consumer edges
//! from [`TraceEvent::PipeBind`] pairs, steal edges from landed
//! [`TraceEvent::Steal`] events, and quiescence barriers for
//! phased programs — computes per-task-type **work** and the
//! **critical path** (span), and answers *virtual speedup* queries:
//! "if task type T were k% faster", "if memory/NoC stalls were k×
//! cheaper", "if spawn/host handoff were free", "if recovery
//! re-dispatches were free". A query re-weights the affected node
//! segments and recomputes the critical path; the predicted runtime is
//! read off Brent's bound and calibrated against the measured run.
//!
//! # Model
//!
//! Each completed task contributes one DAG node whose measured
//! lifetime splits into additive segments (all in cycles):
//!
//! * `admit` — spawn → ready (the configured spawn latency);
//! * `queue` — ready → dispatch (dispatcher contention; *excluded*
//!   from node durations, since an ideal scheduler overlaps it);
//! * `service` — dispatch → complete: tile residency, which further
//!   splits into `compute` (progress was being made or the tile was
//!   reconfiguring/starting), `stall_input` / `stall_other` (the
//!   per-task counters from [`TraceEvent::TaskStalls`]), and
//!   `redispatch_gap` (fault-recovery limbo between victimization and
//!   re-dispatch).
//!
//! Edges carry latencies: a spawn edge costs the measured
//! parent-complete → child-spawn handoff (the host latency), pipe and
//! barrier edges are free, and a steal edge charges the measured
//! window between the thief tile going idle and the steal landing —
//! without it, critical paths through stolen tasks would omit the
//! transfer latency entirely. The span is the longest es+duration path
//! through the weighted DAG; total work is the sum of service times.
//! The runtime model is Brent's bound `T ≈ max(span, work / tiles)`,
//! and a query's **predicted cycles** are
//! `measured × model(query) / model(baseline)` — the ratio form
//! cancels the model's constant bias, which is what makes the
//! prediction causally testable against a re-configured real run.
//!
//! Service time is tile *residency*, so tasks queued behind one
//! another on a tile overcount raw work; the calibration above absorbs
//! that bias for predictions, and the bottleneck ranking only compares
//! types against each other under the same measure.

use std::collections::HashMap;

use crate::trace::{TraceEvent, TraceRecord};

/// One reconstructed task node with its measured segment breakdown.
#[derive(Debug, Clone)]
pub struct TaskNode {
    /// Task id from the trace.
    pub id: u64,
    /// Task type index (into the program's type table).
    pub ty: usize,
    /// Spawning task (spawn edge source), if any.
    pub parent: Option<u64>,
    /// Cycle the task was absorbed from the spawner.
    pub spawn: u64,
    /// Cycle the spawn latency elapsed.
    pub ready: u64,
    /// Cycle the dispatcher placed the task on a tile (first
    /// dispatch; re-dispatches after faults don't reset this).
    pub dispatch: u64,
    /// Cycle of first compute progress, if the task ever fired.
    pub fire: Option<u64>,
    /// Cycle the task retired.
    pub complete: u64,
    /// Tile the task completed on.
    pub tile: usize,
    /// Head cycles starved of input data (from [`TraceEvent::TaskStalls`]).
    pub stall_input: u64,
    /// Head cycles blocked on anything else.
    pub stall_other: u64,
    /// Cycles spent victimized (between `TaskVictim` and the matching
    /// `TaskRedispatch`), summed over recovery episodes.
    pub redispatch_gap: u64,
    /// The task moved tiles via work stealing.
    pub stolen: bool,
}

impl TaskNode {
    /// Spawn-latency segment.
    pub fn admit(&self) -> u64 {
        self.ready.saturating_sub(self.spawn)
    }

    /// Tile-residency segment (dispatch → complete).
    pub fn service(&self) -> u64 {
        self.complete.saturating_sub(self.dispatch)
    }

    /// Service cycles not attributed to stalls or recovery limbo.
    pub fn compute(&self) -> u64 {
        self.service()
            .saturating_sub(self.stall_input)
            .saturating_sub(self.stall_other)
            .saturating_sub(self.redispatch_gap)
    }

    /// Number of segment identities this node violates: the event
    /// cycles must be monotone (`spawn ≤ ready ≤ dispatch ≤ complete`)
    /// and the attributed service parts must fit inside the service
    /// window. The segment accessors above stay total by clamping at
    /// zero, but a clamp means the trace's event ordering drifted from
    /// the model — [`WhatIf::from_trace`] counts these per run (and
    /// debug-asserts none occur) so the drift is visible instead of
    /// silently absorbed.
    pub fn clamps(&self) -> u64 {
        let mut c = 0;
        if self.ready < self.spawn {
            c += 1;
        }
        if self.dispatch < self.ready {
            c += 1;
        }
        if self.complete < self.dispatch {
            c += 1;
        }
        if self.stall_input + self.stall_other + self.redispatch_gap > self.service() {
            c += 1;
        }
        c
    }
}

/// A directed dependence edge with its measured latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Parent's completion handler spawned the child (host handoff).
    Spawn,
    /// Producer feeds the consumer through a declared pipe.
    Pipe,
    /// Quiescence barrier: the child was spawned by
    /// `Program::on_quiescent`, which only runs once every earlier
    /// task has drained.
    Barrier,
    /// A landed work steal: the thief tile's previous completion freed
    /// it to pull the stolen task, and the edge latency is the
    /// measured idle-scan + transfer window.
    Steal,
}

/// One edge of the reconstructed DAG (`src` must finish before `dst`
/// can finish; `latency` is paid between them).
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Source node index into [`WhatIf::nodes`].
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Edge class.
    pub kind: EdgeKind,
    /// Measured handoff latency in cycles.
    pub latency: u64,
}

/// A virtual-speedup query: a hypothetical change to the machine or
/// the program, expressed as a re-weighting of node segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// "If task type `ty` were `pct`% faster": scales the compute
    /// segment of that type's nodes by `1 - pct/100`. `pct` may be
    /// negative (a slowdown) but not ≥ 100 disabled entirely; 100
    /// means the compute segment vanishes.
    TypeSpeedup {
        /// Task type index.
        ty: usize,
        /// Percent reduction of the compute segment, in `[0, 100]`.
        pct: f64,
    },
    /// "If task *instance* `task` were `pct`% faster": scales the
    /// compute segment of that one node. Sharper than
    /// [`Query::TypeSpeedup`] when a single straggler (the longest
    /// merge, the root reduction) dominates the span while its type's
    /// other instances are cheap. Ids that never completed re-weight
    /// nothing and the query degenerates to the baseline.
    InstanceSpeedup {
        /// Task id as recorded in the trace.
        task: u64,
        /// Percent reduction of the compute segment, in `[0, 100]`.
        pct: f64,
    },
    /// "If the NoC were `factor`× wider / DRAM `factor`× faster":
    /// divides every input-starved stall segment by `factor`.
    MemScale {
        /// Stall-cycle divisor (> 0; 2.0 halves input stalls).
        factor: f64,
    },
    /// "If spawn/host handoff were `factor`× cheaper": divides admit
    /// segments and spawn-edge latencies by `factor`.
    SpawnScale {
        /// Handoff-cycle divisor (> 0).
        factor: f64,
    },
    /// "If steals/redispatches were free": removes every
    /// victimization→redispatch gap from the affected tasks.
    FreeRedispatch,
}

/// Per-node durations after a query's re-weighting.
#[derive(Debug, Clone, Copy)]
struct Weighted {
    admit: f64,
    service: f64,
}

/// The result of evaluating one query set against the baseline.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Span (critical path) under the query, in cycles.
    pub span: f64,
    /// Total work under the query, in cycles.
    pub work: f64,
    /// Brent's-bound runtime model `max(span, work/tiles)`.
    pub model: f64,
    /// Predicted wall cycles: measured × model / baseline model.
    pub predicted_cycles: f64,
    /// Predicted speedup of the whole run (baseline model / model).
    pub speedup: f64,
}

/// One row of the ranked bottleneck table.
#[derive(Debug, Clone)]
pub struct Bottleneck {
    /// Task type index.
    pub ty: usize,
    /// Completed tasks of this type.
    pub tasks: u64,
    /// Σ service cycles (work) of this type.
    pub work: u64,
    /// Share of total work, in `[0, 1]`.
    pub work_share: f64,
    /// Σ service cycles of this type's nodes on one critical path.
    pub crit: u64,
    /// Share of the span attributable to this type, in `[0, 1]`.
    pub crit_share: f64,
    /// Share of this type's service spent input-starved.
    pub stall_input_share: f64,
    /// Predicted whole-run speedup if this type were 50% faster.
    pub speedup_at_50: f64,
}

/// The reconstructed DAG plus everything needed to answer queries.
#[derive(Debug, Clone)]
pub struct WhatIf {
    /// Completed-task nodes, in trace completion order.
    pub nodes: Vec<TaskNode>,
    /// Dependence edges (indices into `nodes`).
    pub edges: Vec<Edge>,
    /// Tiles of the machine that recorded the trace.
    pub tiles: usize,
    /// Measured wall cycles of the traced run.
    pub measured_cycles: u64,
    /// Successful steals observed.
    pub steals: u64,
    /// Multicast window joins observed (co-scheduling, not edges).
    pub mcast_joins: u64,
    /// Segment identities the trace violated (see [`TaskNode::clamps`]).
    /// Nonzero means event ordering drifted from the segment model and
    /// some durations were clamped at zero; a healthy trace has none.
    pub clamped_segments: u64,
    /// Node indices in topological order (computed once).
    topo: Vec<usize>,
}

impl WhatIf {
    /// Reconstructs the DAG from a recorded trace.
    ///
    /// Only tasks that completed contribute nodes (a validated run
    /// completes every task). `tiles` and `measured_cycles` come from
    /// the run's config and report.
    pub fn from_trace(records: &[TraceRecord], tiles: usize, measured_cycles: u64) -> Self {
        #[derive(Default, Clone)]
        struct Partial {
            ty: usize,
            parent: Option<u64>,
            spawn: u64,
            ready: u64,
            dispatch: Option<u64>,
            fire: Option<u64>,
            complete: Option<u64>,
            tile: usize,
            stall_input: u64,
            stall_other: u64,
            victim_at: Option<u64>,
            redispatch_gap: u64,
            stolen: bool,
        }
        let mut partials: HashMap<u64, Partial> = HashMap::new();
        // pipe id -> (producer task, consumer task)
        let mut pipes: HashMap<u64, (Option<u64>, Option<u64>)> = HashMap::new();
        let mut order: Vec<u64> = Vec::new();
        let mut steals = 0u64;
        // landed steals as (cycle, task, thief), for steal edges below
        let mut steal_events: Vec<(u64, u64, usize)> = Vec::new();
        let mut mcast_joins = 0u64;
        for r in records {
            let c = r.cycle;
            match r.event {
                TraceEvent::TaskSpawn { task, ty, parent } => {
                    let p = partials.entry(task).or_default();
                    p.ty = ty;
                    p.parent = parent;
                    p.spawn = c;
                    p.ready = c;
                }
                TraceEvent::PipeBind {
                    pipe,
                    task,
                    producer,
                } => {
                    let e = pipes.entry(pipe).or_default();
                    if producer {
                        e.0 = Some(task);
                    } else {
                        e.1 = Some(task);
                    }
                }
                TraceEvent::TaskReady { task } => {
                    partials.entry(task).or_default().ready = c;
                }
                TraceEvent::TaskDispatch { task, tile } => {
                    let p = partials.entry(task).or_default();
                    if p.dispatch.is_none() {
                        p.dispatch = Some(c);
                    }
                    p.tile = tile;
                }
                TraceEvent::TaskFire { task, tile } => {
                    let p = partials.entry(task).or_default();
                    if p.fire.is_none() {
                        p.fire = Some(c);
                    }
                    p.tile = tile;
                }
                TraceEvent::TaskStalls { task, input, other } => {
                    let p = partials.entry(task).or_default();
                    p.stall_input = input;
                    p.stall_other = other;
                }
                TraceEvent::TaskComplete { task, tile } => {
                    let p = partials.entry(task).or_default();
                    if p.complete.is_none() {
                        order.push(task);
                    }
                    p.complete = Some(c);
                    p.tile = tile;
                }
                TraceEvent::Steal { task, thief, .. } => {
                    steals += 1;
                    steal_events.push((c, task, thief));
                    let p = partials.entry(task).or_default();
                    p.stolen = true;
                    p.tile = thief;
                }
                TraceEvent::TaskVictim { task, .. } => {
                    partials.entry(task).or_default().victim_at = Some(c);
                }
                TraceEvent::TaskRedispatch { task, tile } => {
                    let p = partials.entry(task).or_default();
                    if let Some(v) = p.victim_at.take() {
                        p.redispatch_gap += c.saturating_sub(v);
                    }
                    p.tile = tile;
                    if p.dispatch.is_none() {
                        p.dispatch = Some(c);
                    }
                }
                TraceEvent::McastJoin { .. } => mcast_joins += 1,
                _ => {}
            }
        }

        let mut nodes: Vec<TaskNode> = Vec::with_capacity(order.len());
        let mut id_index: HashMap<u64, usize> = HashMap::with_capacity(order.len());
        let mut clamped_segments = 0u64;
        for id in order {
            let p = partials.get(&id).expect("completion implies an entry");
            let complete = p.complete.expect("ordered by completion");
            id_index.insert(id, nodes.len());
            let node = TaskNode {
                id,
                ty: p.ty,
                parent: p.parent,
                spawn: p.spawn,
                ready: p.ready,
                dispatch: p.dispatch.unwrap_or(p.ready),
                fire: p.fire,
                complete,
                tile: p.tile,
                stall_input: p.stall_input,
                stall_other: p.stall_other,
                redispatch_gap: p.redispatch_gap,
                stolen: p.stolen,
            };
            let clamps = node.clamps();
            debug_assert!(
                clamps == 0,
                "task {id}: {clamps} segment(s) clamped \
                 (spawn {} ready {} dispatch {} complete {}, \
                 stalls {}+{} gap {})",
                node.spawn,
                node.ready,
                node.dispatch,
                node.complete,
                node.stall_input,
                node.stall_other,
                node.redispatch_gap,
            );
            clamped_segments += clamps;
            nodes.push(node);
        }

        let mut edges: Vec<Edge> = Vec::new();
        for (ni, n) in nodes.iter().enumerate() {
            if let Some(pid) = n.parent {
                if let Some(&pi) = id_index.get(&pid) {
                    edges.push(Edge {
                        src: pi,
                        dst: ni,
                        kind: EdgeKind::Spawn,
                        latency: n.spawn.saturating_sub(nodes[pi].complete),
                    });
                }
            }
        }
        for (&producer, &consumer) in pipes
            .values()
            .filter_map(|(p, c)| Some((p.as_ref()?, c.as_ref()?)))
        {
            if let (Some(&pi), Some(&ci)) = (id_index.get(&producer), id_index.get(&consumer)) {
                edges.push(Edge {
                    src: pi,
                    dst: ci,
                    kind: EdgeKind::Pipe,
                    latency: 0,
                });
            }
        }
        // Steal edges: a landed steal moved a queued task to a thief
        // tile that had just gone idle, so the stolen task's execution
        // is ordered after whatever freed the thief. Connect the
        // thief's latest completion at or before the steal to the
        // stolen task; the latency is the measured window between that
        // completion and the steal landing (idle scan + transfer).
        if !steal_events.is_empty() {
            // per tile: node indices in completion order (the node
            // vector itself is completion-ordered, so each list is
            // sorted by `complete`)
            let mut by_tile: HashMap<usize, Vec<usize>> = HashMap::new();
            for (ni, n) in nodes.iter().enumerate() {
                by_tile.entry(n.tile).or_default().push(ni);
            }
            for &(cycle, task, thief) in &steal_events {
                let Some(&ti) = id_index.get(&task) else {
                    continue;
                };
                let Some(list) = by_tile.get(&thief) else {
                    continue;
                };
                let k = list.partition_point(|&ni| nodes[ni].complete <= cycle);
                let Some(&si) = k.checked_sub(1).and_then(|k| list.get(k)) else {
                    continue;
                };
                if si == ti {
                    continue;
                }
                edges.push(Edge {
                    src: si,
                    dst: ti,
                    kind: EdgeKind::Steal,
                    latency: cycle - nodes[si].complete,
                });
            }
        }
        // Quiescence barriers: a parentless task spawned after cycle 0
        // was spawned by `on_quiescent`, which only runs once every
        // earlier task drained — connect each task to the next barrier
        // after its completion, and chain the barriers, so phased
        // programs don't degenerate into disconnected components.
        let mut barrier_cycles: Vec<u64> = nodes
            .iter()
            .filter(|n| n.parent.is_none() && n.spawn > 0)
            .map(|n| n.spawn)
            .collect();
        barrier_cycles.sort_unstable();
        barrier_cycles.dedup();
        if !barrier_cycles.is_empty() {
            // per barrier: the latest-finishing task completing at or
            // before it becomes the representative source; every
            // parentless task at that barrier gets an edge from it
            for &b in &barrier_cycles {
                let src = nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| n.complete <= b)
                    .max_by_key(|(_, n)| (n.complete, n.id));
                let Some((si, _)) = src else { continue };
                for (ni, n) in nodes.iter().enumerate() {
                    if n.parent.is_none() && n.spawn == b && ni != si {
                        edges.push(Edge {
                            src: si,
                            dst: ni,
                            kind: EdgeKind::Barrier,
                            latency: n.spawn.saturating_sub(nodes[si].complete),
                        });
                    }
                }
            }
        }

        let topo = topo_order(nodes.len(), &edges);
        WhatIf {
            nodes,
            edges,
            tiles: tiles.max(1),
            measured_cycles,
            steals,
            mcast_joins,
            clamped_segments,
            topo,
        }
    }

    /// Total work: Σ service cycles over all nodes.
    pub fn work(&self) -> u64 {
        self.nodes.iter().map(TaskNode::service).sum()
    }

    /// Baseline span (critical path length) in cycles.
    pub fn span(&self) -> u64 {
        self.evaluate(&[]).span.round() as u64
    }

    /// Available parallelism: work / span (≥ 1 for nonempty DAGs).
    pub fn parallelism(&self) -> f64 {
        let span = self.evaluate(&[]).span;
        if span <= 0.0 {
            return 0.0;
        }
        self.work() as f64 / span
    }

    /// An upper bound no path can exceed: Σ node durations + Σ edge
    /// latencies. Useful as a sanity invariant (`span ≤ serial_bound`).
    pub fn serial_bound(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.admit() + n.service())
            .sum::<u64>()
            + self.edges.iter().map(|e| e.latency).sum::<u64>()
    }

    /// Applies `queries` (all of them, composed) and evaluates the
    /// runtime model. An empty slice is the baseline.
    pub fn evaluate(&self, queries: &[Query]) -> Prediction {
        let weights = self.weigh(queries);
        let span = self.span_of(&weights, queries);
        let work: f64 = weights.iter().map(|w| w.service).sum();
        let model = span.max(work / self.tiles as f64).max(1.0);
        let base = if queries.is_empty() {
            model
        } else {
            let bw = self.weigh(&[]);
            let bspan = self.span_of(&bw, &[]);
            let bwork: f64 = bw.iter().map(|w| w.service).sum();
            bspan.max(bwork / self.tiles as f64).max(1.0)
        };
        Prediction {
            span,
            work,
            model,
            predicted_cycles: self.measured_cycles as f64 * model / base,
            speedup: base / model,
        }
    }

    /// The ranked bottleneck table: per task type, work vs. span
    /// contribution, stall share, and the predicted payoff of making
    /// the type 50% faster. Sorted by critical-path share, then work.
    pub fn bottlenecks(&self) -> Vec<Bottleneck> {
        let total_work = self.work().max(1);
        let weights = self.weigh(&[]);
        let (span, crit_nodes) = self.span_path(&weights, &[]);
        let span = span.max(1.0);

        let mut by_ty: HashMap<usize, Bottleneck> = HashMap::new();
        for n in &self.nodes {
            let b = by_ty.entry(n.ty).or_insert(Bottleneck {
                ty: n.ty,
                tasks: 0,
                work: 0,
                work_share: 0.0,
                crit: 0,
                crit_share: 0.0,
                stall_input_share: 0.0,
                speedup_at_50: 1.0,
            });
            b.tasks += 1;
            b.work += n.service();
            // reuse the field as a Σ stall accumulator; normalized below
            b.stall_input_share += n.stall_input as f64;
        }
        for &ni in &crit_nodes {
            let n = &self.nodes[ni];
            if let Some(b) = by_ty.get_mut(&n.ty) {
                b.crit += n.service();
            }
        }
        let mut out: Vec<Bottleneck> = by_ty.into_values().collect();
        for b in &mut out {
            b.work_share = b.work as f64 / total_work as f64;
            b.crit_share = (b.crit as f64 / span).min(1.0);
            b.stall_input_share = if b.work > 0 {
                b.stall_input_share / b.work as f64
            } else {
                0.0
            };
            b.speedup_at_50 = self
                .evaluate(&[Query::TypeSpeedup {
                    ty: b.ty,
                    pct: 50.0,
                }])
                .speedup;
        }
        out.sort_by(|a, b| (b.crit, b.work, a.ty).cmp(&(a.crit, a.work, b.ty)));
        out
    }

    // ---------------------------------------------------------- internals

    /// Per-node weighted durations under a query set.
    fn weigh(&self, queries: &[Query]) -> Vec<Weighted> {
        let mut type_scale: HashMap<usize, f64> = HashMap::new();
        let mut instance_scale: HashMap<u64, f64> = HashMap::new();
        let mut mem_scale = 1.0f64;
        let mut spawn_scale = 1.0f64;
        let mut free_redispatch = false;
        for q in queries {
            match *q {
                Query::TypeSpeedup { ty, pct } => {
                    let s = (1.0 - pct / 100.0).max(0.0);
                    let e = type_scale.entry(ty).or_insert(1.0);
                    *e *= s;
                }
                Query::InstanceSpeedup { task, pct } => {
                    let s = (1.0 - pct / 100.0).max(0.0);
                    let e = instance_scale.entry(task).or_insert(1.0);
                    *e *= s;
                }
                Query::MemScale { factor } => mem_scale *= factor.max(f64::MIN_POSITIVE),
                Query::SpawnScale { factor } => spawn_scale *= factor.max(f64::MIN_POSITIVE),
                Query::FreeRedispatch => free_redispatch = true,
            }
        }
        self.nodes
            .iter()
            .map(|n| {
                let ts = type_scale.get(&n.ty).copied().unwrap_or(1.0)
                    * instance_scale.get(&n.id).copied().unwrap_or(1.0);
                let gap = if free_redispatch {
                    0.0
                } else {
                    n.redispatch_gap as f64
                };
                Weighted {
                    admit: n.admit() as f64 / spawn_scale,
                    service: n.compute() as f64 * ts
                        + n.stall_input as f64 / mem_scale
                        + n.stall_other as f64
                        + gap,
                }
            })
            .collect()
    }

    fn spawn_scale_of(queries: &[Query]) -> f64 {
        queries.iter().fold(1.0, |acc, q| match *q {
            Query::SpawnScale { factor } => acc * factor.max(f64::MIN_POSITIVE),
            _ => acc,
        })
    }

    fn span_of(&self, weights: &[Weighted], queries: &[Query]) -> f64 {
        self.span_path(weights, queries).0
    }

    /// Longest weighted path; returns its length and the node indices
    /// on one argmax path (for span attribution).
    fn span_path(&self, weights: &[Weighted], queries: &[Query]) -> (f64, Vec<usize>) {
        if self.nodes.is_empty() {
            return (0.0, Vec::new());
        }
        let spawn_scale = Self::spawn_scale_of(queries);
        let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (ei, e) in self.edges.iter().enumerate() {
            in_edges[e.dst].push(ei);
        }
        let mut finish = vec![0.0f64; self.nodes.len()];
        let mut pred: Vec<Option<usize>> = vec![None; self.nodes.len()];
        for &ni in &self.topo {
            let mut start = 0.0f64;
            for &ei in &in_edges[ni] {
                let e = &self.edges[ei];
                let lat = match e.kind {
                    EdgeKind::Spawn => e.latency as f64 / spawn_scale,
                    EdgeKind::Pipe | EdgeKind::Barrier | EdgeKind::Steal => e.latency as f64,
                };
                let cand = finish[e.src] + lat;
                if cand > start {
                    start = cand;
                    pred[ni] = Some(e.src);
                }
            }
            finish[ni] = start + weights[ni].admit + weights[ni].service;
        }
        let (mut at, span) = finish
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("durations are finite"))
            .expect("nonempty");
        let mut path = vec![at];
        while let Some(p) = pred[at] {
            path.push(p);
            at = p;
        }
        path.reverse();
        (span, path)
    }
}

/// Kahn topological order over the edge list. Nodes on a cycle (which
/// a real execution cannot produce, but a hand-built trace might) are
/// appended in index order with their unresolved in-edges ignored, so
/// the analysis stays total and deterministic.
fn topo_order(n: usize, edges: &[Edge]) -> Vec<usize> {
    let mut indeg = vec![0usize; n];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in edges {
        indeg[e.dst] += 1;
        out[e.src].push(e.dst);
    }
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    ready.sort_unstable_by(|a, b| b.cmp(a)); // pop() yields smallest
    let mut seen = vec![false; n];
    while let Some(i) = ready.pop() {
        if seen[i] {
            continue;
        }
        seen[i] = true;
        order.push(i);
        for &d in &out[i] {
            indeg[d] -= 1;
            if indeg[d] == 0 {
                // keep determinism: insert preserving descending order
                let pos = ready.partition_point(|&x| x > d);
                ready.insert(pos, d);
            }
        }
    }
    for (i, was_seen) in seen.iter().enumerate().take(n) {
        if !was_seen {
            order.push(i);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cycle: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { cycle, event }
    }

    /// A 2-task serial chain: spawn → run 10 → complete, child spawned
    /// by the parent, runs 20.
    fn chain_trace() -> Vec<TraceRecord> {
        vec![
            rec(
                0,
                TraceEvent::TaskSpawn {
                    task: 0,
                    ty: 0,
                    parent: None,
                },
            ),
            rec(0, TraceEvent::TaskReady { task: 0 }),
            rec(0, TraceEvent::TaskDispatch { task: 0, tile: 0 }),
            rec(
                10,
                TraceEvent::TaskStalls {
                    task: 0,
                    input: 2,
                    other: 0,
                },
            ),
            rec(10, TraceEvent::TaskComplete { task: 0, tile: 0 }),
            rec(
                12,
                TraceEvent::TaskSpawn {
                    task: 1,
                    ty: 1,
                    parent: Some(0),
                },
            ),
            rec(12, TraceEvent::TaskReady { task: 1 }),
            rec(12, TraceEvent::TaskDispatch { task: 1, tile: 1 }),
            rec(
                32,
                TraceEvent::TaskStalls {
                    task: 1,
                    input: 0,
                    other: 0,
                },
            ),
            rec(32, TraceEvent::TaskComplete { task: 1, tile: 1 }),
        ]
    }

    #[test]
    fn chain_reconstructs_nodes_and_edges() {
        let w = WhatIf::from_trace(&chain_trace(), 4, 32);
        assert_eq!(w.nodes.len(), 2);
        assert_eq!(w.edges.len(), 1);
        assert_eq!(w.edges[0].kind, EdgeKind::Spawn);
        assert_eq!(w.edges[0].latency, 2);
        assert_eq!(w.work(), 30);
        // span: 10 + 2 (handoff) + 20 = 32 == work + handoff
        assert_eq!(w.span(), 32);
        assert!(w.span() <= w.serial_bound());
    }

    #[test]
    fn zero_query_is_identity_and_speedup_helps() {
        let w = WhatIf::from_trace(&chain_trace(), 4, 32);
        let base = w.evaluate(&[]);
        assert!((base.speedup - 1.0).abs() < 1e-12);
        assert!((base.predicted_cycles - 32.0).abs() < 1e-9);
        let q = w.evaluate(&[Query::TypeSpeedup { ty: 1, pct: 50.0 }]);
        assert!(q.speedup > 1.0);
        assert!(q.predicted_cycles < 32.0);
    }

    #[test]
    fn bottlenecks_rank_the_long_type_first() {
        let w = WhatIf::from_trace(&chain_trace(), 4, 32);
        let b = w.bottlenecks();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].ty, 1, "type 1 carries 20 of 30 work cycles");
        assert!(b[0].work_share > b[1].work_share);
        assert!(b[0].speedup_at_50 > b[1].speedup_at_50);
    }

    #[test]
    fn instance_speedup_targets_one_node() {
        let w = WhatIf::from_trace(&chain_trace(), 4, 32);
        // task 1 (service 20) alone: same payoff as speeding its type
        let by_instance = w.evaluate(&[Query::InstanceSpeedup { task: 1, pct: 50.0 }]);
        let by_type = w.evaluate(&[Query::TypeSpeedup { ty: 1, pct: 50.0 }]);
        assert!((by_instance.speedup - by_type.speedup).abs() < 1e-12);
        // an id that never completed re-weights nothing
        let noop = w.evaluate(&[Query::InstanceSpeedup {
            task: 99,
            pct: 50.0,
        }]);
        assert!((noop.speedup - 1.0).abs() < 1e-12);
        // instance and type scales compose on the shared node
        let both = w.evaluate(&[
            Query::InstanceSpeedup { task: 1, pct: 50.0 },
            Query::TypeSpeedup { ty: 1, pct: 50.0 },
        ]);
        assert!(both.speedup > by_instance.speedup);
    }

    #[test]
    fn mem_scale_only_touches_input_stalls() {
        let w = WhatIf::from_trace(&chain_trace(), 4, 32);
        let q = w.evaluate(&[Query::MemScale { factor: 2.0 }]);
        // task 0 had 2 input-stall cycles; halving them shaves 1 cycle
        // off both work and the critical path
        assert!((q.work - 29.0).abs() < 1e-9);
        assert!((q.span - 31.0).abs() < 1e-9);
    }

    /// Three parentless tasks: 0 and 2 dispatched to tile 0 (2 queued
    /// behind 0), 1 to tile 1. Tile 1 drains at cycle 8, steals task 2
    /// at cycle 12, which then runs there until 25.
    fn steal_trace() -> Vec<TraceRecord> {
        let spawn = |task, ty| TraceEvent::TaskSpawn {
            task,
            ty,
            parent: None,
        };
        let stalls = |task| TraceEvent::TaskStalls {
            task,
            input: 0,
            other: 0,
        };
        vec![
            rec(0, spawn(0, 0)),
            rec(0, TraceEvent::TaskReady { task: 0 }),
            rec(0, TraceEvent::TaskDispatch { task: 0, tile: 0 }),
            rec(0, spawn(1, 0)),
            rec(0, TraceEvent::TaskReady { task: 1 }),
            rec(0, TraceEvent::TaskDispatch { task: 1, tile: 1 }),
            rec(0, spawn(2, 1)),
            rec(0, TraceEvent::TaskReady { task: 2 }),
            rec(0, TraceEvent::TaskDispatch { task: 2, tile: 0 }),
            rec(8, stalls(1)),
            rec(8, TraceEvent::TaskComplete { task: 1, tile: 1 }),
            rec(10, stalls(0)),
            rec(10, TraceEvent::TaskComplete { task: 0, tile: 0 }),
            rec(
                12,
                TraceEvent::Steal {
                    task: 2,
                    thief: 1,
                    victim: 0,
                },
            ),
            rec(25, stalls(2)),
            rec(25, TraceEvent::TaskComplete { task: 2, tile: 1 }),
        ]
    }

    #[test]
    fn landed_steals_contribute_edges_with_the_transfer_window() {
        let w = WhatIf::from_trace(&steal_trace(), 4, 25);
        assert_eq!(w.nodes.len(), 3);
        assert_eq!(w.steals, 1);
        assert_eq!(w.edges.len(), 1, "only the steal edge: {:?}", w.edges);
        assert_eq!(w.edges[0].kind, EdgeKind::Steal);
        // thief tile 1 went idle at 8, the steal landed at 12
        assert_eq!(w.edges[0].latency, 4);
        let src = &w.nodes[w.edges[0].src];
        let dst = &w.nodes[w.edges[0].dst];
        assert_eq!(src.id, 1, "the thief's freeing completion");
        assert_eq!(dst.id, 2, "the stolen task");
        assert!(dst.stolen);
        // the critical path now runs through the steal: 8 (task 1)
        // + 4 (transfer window) + 25 (task 2 service) = 37, where the
        // edge-free reconstruction used to report just task 2's 25.
        assert_eq!(w.span(), 37);
        assert!(w.span() <= w.serial_bound());
    }

    #[test]
    fn healthy_traces_have_no_clamped_segments() {
        assert_eq!(
            WhatIf::from_trace(&chain_trace(), 4, 32).clamped_segments,
            0
        );
        assert_eq!(
            WhatIf::from_trace(&steal_trace(), 4, 25).clamped_segments,
            0
        );
    }

    /// A trace whose stall counters exceed the service window violates
    /// the segment identities: debug builds refuse it outright, and
    /// release builds count the clamp instead of absorbing it.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "segment(s) clamped"))]
    fn corrupt_segments_are_counted_not_absorbed() {
        let records = vec![
            rec(
                0,
                TraceEvent::TaskSpawn {
                    task: 0,
                    ty: 0,
                    parent: None,
                },
            ),
            rec(0, TraceEvent::TaskReady { task: 0 }),
            rec(0, TraceEvent::TaskDispatch { task: 0, tile: 0 }),
            rec(
                10,
                TraceEvent::TaskStalls {
                    task: 0,
                    input: 50,
                    other: 0,
                },
            ),
            rec(10, TraceEvent::TaskComplete { task: 0, tile: 0 }),
        ];
        let w = WhatIf::from_trace(&records, 4, 10);
        assert_eq!(w.clamped_segments, 1);
        assert_eq!(w.nodes[0].compute(), 0, "clamped at zero, not negative");
    }

    #[test]
    fn empty_trace_is_harmless() {
        let w = WhatIf::from_trace(&[], 4, 0);
        assert_eq!(w.nodes.len(), 0);
        assert_eq!(w.span(), 0);
        assert!(w.bottlenecks().is_empty());
        let p = w.evaluate(&[Query::MemScale { factor: 2.0 }]);
        assert!((p.speedup - 1.0).abs() < 1e-12);
    }
}
