//! The mesh router model.

use crate::NodeId;
use std::fmt;
use std::sync::Arc;
use ts_sim::counter_table;
use ts_sim::{Activity, Fifo};

/// Error returned by [`Mesh::inject`] when the source router's injection
/// queue is full; carries the payload back for retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectError<P>(pub P);

impl<P> fmt::Display for InjectError<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "source router injection queue is full")
    }
}

impl<P: fmt::Debug> std::error::Error for InjectError<P> {}

/// A flit's payload, shared across multicast branches instead of being
/// deep-cloned per send: unicast flits carry the sole copy and move it
/// intact hop to hop; the first divergence promotes it to a shared
/// allocation, and the final reference is unwrapped back into a move at
/// delivery.
#[derive(Debug, Clone)]
enum Load<P> {
    /// Sole copy (the unicast common case — never allocates).
    One(P),
    /// Fanned out across branches of a multicast tree.
    Shared(Arc<P>),
    /// Transient placeholder used only inside [`Load::share`]; never
    /// observable outside that call.
    Hole,
}

impl<P: Clone> Load<P> {
    /// A handle for one more branch, promoting the sole copy to a
    /// shared allocation on first divergence.
    fn share(&mut self) -> Load<P> {
        if let Load::One(_) = self {
            let Load::One(p) = std::mem::replace(self, Load::Hole) else {
                unreachable!("just matched One");
            };
            *self = Load::Shared(Arc::new(p));
        }
        match self {
            Load::Shared(a) => Load::Shared(Arc::clone(a)),
            Load::One(_) | Load::Hole => unreachable!("promoted to Shared above"),
        }
    }

    /// The payload value; the last reference to a shared payload gets a
    /// move, earlier ones a clone.
    fn into_inner(self) -> P {
        match self {
            Load::One(p) => p,
            Load::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()),
            Load::Hole => unreachable!("holes never escape Load::share"),
        }
    }
}

/// A flit's destination set. Unicast flits, the common case, carry
/// their one destination inline; only a multicast holds a heap list.
#[derive(Debug, Clone)]
enum Dsts {
    One(NodeId),
    /// Two or more destinations (see [`Dsts::from_vec`]).
    Many(Vec<NodeId>),
}

impl Dsts {
    /// Wraps a duplicate-free list, moving a single destination inline.
    fn from_vec(v: Vec<NodeId>) -> Self {
        match v[..] {
            [d] => Dsts::One(d),
            _ => Dsts::Many(v),
        }
    }

    fn as_slice(&self) -> &[NodeId] {
        match self {
            Dsts::One(d) => std::slice::from_ref(d),
            Dsts::Many(v) => v,
        }
    }
}

#[derive(Debug, Clone)]
struct Flit<P> {
    dsts: Dsts,
    payload: Load<P>,
}

/// Output direction of a router. Also used (via [`opposite`]) to name
/// the input port a flit arrives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    East,
    West,
    North,
    South,
    Eject,
}

const OUT_DIRS: [Dir; 5] = [Dir::East, Dir::West, Dir::North, Dir::South, Dir::Eject];
/// Input-port count: four neighbours plus local injection.
const PORTS: usize = 5;
const INJECT_PORT: usize = 4;

fn dir_index(d: Dir) -> usize {
    match d {
        Dir::East => 0,
        Dir::West => 1,
        Dir::North => 2,
        Dir::South => 3,
        Dir::Eject => 4,
    }
}

/// The input port at the receiver for a flit sent in direction `d`.
fn opposite(d: Dir) -> usize {
    match d {
        Dir::East => dir_index(Dir::West),
        Dir::West => dir_index(Dir::East),
        Dir::North => dir_index(Dir::South),
        Dir::South => dir_index(Dir::North),
        Dir::Eject => unreachable!("ejected flits do not re-enter"),
    }
}

/// A width × height mesh of wormhole-ish routers with per-input-port
/// buffers, dimension-ordered (XY) routing, and destination-set
/// multicast.
///
/// Timing model:
/// * each router has five input queues (four neighbours + local
///   injection); per cycle, each queue's *head* flit may claim output
///   links;
/// * each directed link and each ejection port carries one flit per
///   cycle;
/// * a hop takes one cycle.
///
/// XY routing with per-port buffering is deadlock-free (no turn cycles),
/// which the property tests exercise under saturating random traffic.
/// Router and port service order rotate every cycle to avoid positional
/// bias.
#[derive(Debug)]
pub struct Mesh<P> {
    width: usize,
    height: usize,
    /// `queues[node][port]`.
    queues: Vec<Vec<Fifo<Flit<P>>>>,
    eject: Vec<Fifo<P>>,
    /// Flits currently sitting in router queues (O(1) idleness checks).
    queued: usize,
    /// Per-node share of `queued`, so the tick sweep skips routers with
    /// nothing buffered without probing all five port queues.
    node_queued: Vec<u32>,
    /// Payloads currently sitting in ejection buffers.
    ejected: usize,
    /// Payloads ever ejected per node, in ejection order. Gives every
    /// delivered flit a deterministic per-node sequence number, which
    /// fault injectors use as a stable draw point for flit faults.
    ejected_seq: Vec<u64>,
    rotate: usize,
    /// Per-node output-link occupancy scratch, reused across ticks so
    /// the hot loop does not allocate.
    link_used: Vec<[bool; 5]>,
    /// Staging area for flits that advanced this cycle, reused across
    /// ticks so the hot loop does not allocate.
    moved: Vec<(NodeId, usize, Flit<P>)>,
    counters: NocCounters,
}

counter_table! {
    /// Mesh traffic counters. With every ejection buffer drained,
    /// `delivered == injected_branches`: each branch of a multicast
    /// tree ends in exactly one ejection.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct NocCounters {
        /// Flits injected, one per `inject` call.
        pub injected: u64,
        /// Deduplicated destinations over all injected flits.
        pub injected_branches: u64,
        /// Flit branches ejected at their destination.
        pub delivered: u64,
        /// Link traversals.
        pub flit_hops: u64,
        /// Flit-cycles spent blocked on a busy link or full buffer.
        pub stall_cycles: u64,
    }
}

impl<P: Clone> Mesh<P> {
    /// Input ports per router: E, W, N, S neighbours plus local
    /// injection (index [`Mesh::PORTS`]` - 1`). Exposed so occupancy
    /// samplers can sweep `0..PORTS` with [`Mesh::queue_depth`].
    pub const PORTS: usize = PORTS;

    /// Creates a mesh with the given dimensions and per-port queue
    /// capacity (also used for ejection buffers).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize, queue_cap: usize) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        let n = width * height;
        Mesh {
            width,
            height,
            queues: (0..n)
                .map(|_| (0..PORTS).map(|_| Fifo::new(queue_cap)).collect())
                .collect(),
            eject: (0..n).map(|_| Fifo::new(queue_cap)).collect(),
            queued: 0,
            node_queued: vec![0; n],
            ejected: 0,
            ejected_seq: vec![0; n],
            rotate: 0,
            link_used: vec![[false; 5]; n],
            moved: Vec::new(),
            counters: NocCounters::default(),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// Mesh width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mesh height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Manhattan distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = (a % self.width, a / self.width);
        let (bx, by) = (b % self.width, b / self.width);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// Injects a flit at `src` destined for every node in `dsts`
    /// (duplicates are ignored; a destination equal to `src` is delivered
    /// through the local ejection port like any other). A single
    /// destination, the common case, allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns the payload if the injection queue is full (retry next
    /// cycle).
    ///
    /// # Panics
    ///
    /// Panics if `src` or any destination is out of range, or `dsts` is
    /// empty.
    pub fn inject(
        &mut self,
        src: NodeId,
        dsts: &[NodeId],
        payload: P,
    ) -> Result<(), InjectError<P>> {
        assert!(src < self.nodes(), "source {src} out of range");
        assert!(!dsts.is_empty(), "flit needs at least one destination");
        let d = match *dsts {
            [one] => Dsts::One(one),
            _ => {
                let mut d = dsts.to_vec();
                d.sort_unstable();
                d.dedup();
                Dsts::from_vec(d)
            }
        };
        for &dst in d.as_slice() {
            assert!(dst < self.nodes(), "destination {dst} out of range");
        }
        let branches = d.as_slice().len() as u64;
        let flit = Flit {
            dsts: d,
            payload: Load::One(payload),
        };
        match self.queues[src][INJECT_PORT].push(flit) {
            Ok(()) => {
                self.queued += 1;
                self.node_queued[src] += 1;
                self.counters.injected += 1;
                // one branch per (deduplicated) destination: the
                // conservation invariant `delivered == injected_branches`
                // holds at quiescence because every branch of a
                // multicast tree ends in exactly one ejection
                self.counters.injected_branches += branches;
                Ok(())
            }
            Err(e) => Err(InjectError(e.0.payload.into_inner())),
        }
    }

    /// Removes the oldest delivered payload at `node`, if any.
    pub fn eject(&mut self, node: NodeId) -> Option<P> {
        let p = self.eject[node].pop();
        if p.is_some() {
            self.ejected -= 1;
            self.ejected_seq[node] += 1;
        }
        p
    }

    /// Payloads ever ejected at `node` (a deterministic per-node flit
    /// sequence counter; after [`Mesh::eject`] returns `Some`, the
    /// returned payload's sequence number is `ejected_total(node) - 1`).
    pub fn ejected_total(&self, node: NodeId) -> u64 {
        self.ejected_seq[node]
    }

    /// Number of payloads waiting in the ejection buffer at `node`.
    pub fn eject_len(&self, node: NodeId) -> usize {
        self.eject[node].len()
    }

    /// Flits waiting in one router input queue (`port` in
    /// `0..`[`Mesh::PORTS`]), for link-occupancy sampling.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `port` is out of range.
    pub fn queue_depth(&self, node: NodeId, port: usize) -> usize {
        self.queues[node][port].len()
    }

    /// True when no flit is queued anywhere (ejection buffers may still
    /// hold undrained payloads). O(1) via the queued-flit counter.
    pub fn is_idle(&self) -> bool {
        debug_assert_eq!(
            self.queued == 0,
            self.queues
                .iter()
                .all(|ports| ports.iter().all(|q| q.is_empty())),
            "queued-flit counter diverged from queue contents"
        );
        self.queued == 0
    }

    /// True when any ejection buffer holds an undrained payload. O(1)
    /// via the ejected-payload counter.
    pub fn eject_pending(&self) -> bool {
        debug_assert_eq!(
            self.ejected == 0,
            self.eject.iter().all(|q| q.is_empty()),
            "ejected-payload counter diverged from buffer contents"
        );
        self.ejected > 0
    }

    /// The mesh's activity contract: it must tick while flits are in
    /// transit, its consumers must drain while ejections are pending,
    /// and otherwise it sleeps until the next injection wakes it.
    pub fn activity(&self) -> Activity {
        if self.queued > 0 || self.ejected > 0 {
            Activity::Now
        } else {
            Activity::Idle
        }
    }

    /// Replays `n` idle ticks for a lazily scheduled mesh catching up
    /// on wake. An idle tick's only state change is the round-robin
    /// arbitration rotation (the port sweep finds every queue empty and
    /// bumps no statistic), so the replay advances the rotation by the
    /// same amount to keep arbitration identical to the ticked path.
    /// The mesh may already hold freshly injected flits — the caller
    /// guarantees the *elapsed* `n` cycles carried none.
    pub fn replay_idle_cycles(&mut self, n: u64) {
        let m = self.nodes().max(1) as u64;
        self.rotate = (self.rotate + (n % m) as usize) % m as usize;
    }

    /// Traffic counters since construction.
    pub fn counters(&self) -> NocCounters {
        self.counters
    }

    fn xy_next(&self, here: NodeId, dst: NodeId) -> Dir {
        let (hx, hy) = (here % self.width, here / self.width);
        let (dx, dy) = (dst % self.width, dst / self.width);
        if dx > hx {
            Dir::East
        } else if dx < hx {
            Dir::West
        } else if dy > hy {
            Dir::South
        } else if dy < hy {
            Dir::North
        } else {
            Dir::Eject
        }
    }

    fn neighbour(&self, here: NodeId, dir: Dir) -> NodeId {
        match dir {
            Dir::East => here + 1,
            Dir::West => here - 1,
            Dir::South => here + self.width,
            Dir::North => here - self.width,
            Dir::Eject => here,
        }
    }

    /// Advances the mesh one cycle.
    pub fn tick(&mut self) {
        let n = self.nodes();
        if self.queued == 0 {
            // nothing in transit: the sweep below would find every
            // queue empty, so only the arbitration rotation advances
            self.rotate = (self.rotate + 1) % n.max(1);
            return;
        }
        // per-node output-link occupancy for this cycle: [E, W, N, S, Eject]
        for used in &mut self.link_used {
            *used = [false; 5];
        }
        // flits that moved this cycle are appended after the sweep so a
        // flit cannot traverse two hops in one cycle; the buffer lives
        // on the mesh so steady-state ticks reuse its capacity
        let mut moved = std::mem::take(&mut self.moved);

        for i in 0..n {
            let node = (i + self.rotate) % n;
            if self.node_queued[node] == 0 {
                continue;
            }
            for p in 0..PORTS {
                let port = (p + self.rotate) % PORTS;
                let Some(head) = self.queues[node][port].front() else {
                    continue;
                };

                // unicast fast path: one destination means one output
                // direction, so the flit either claims that link whole
                // (moving with its destination intact) or stalls in
                // place — no destination grouping, no payload sharing,
                // no allocation
                if let Dsts::One(dst) = head.dsts {
                    let dir = self.xy_next(node, dst);
                    let di = dir_index(dir);
                    if self.link_used[node][di] {
                        self.counters.stall_cycles += 1;
                        continue;
                    }
                    match dir {
                        Dir::Eject => {
                            if self.eject[node].is_full() {
                                self.counters.stall_cycles += 1;
                                continue;
                            }
                            self.link_used[node][di] = true;
                            let flit = self.queues[node][port].pop().expect("head exists");
                            self.queued -= 1;
                            self.node_queued[node] -= 1;
                            if self.eject[node].push(flit.payload.into_inner()).is_err() {
                                unreachable!("ejection space was checked");
                            }
                            self.ejected += 1;
                            self.counters.delivered += 1;
                        }
                        _ => {
                            let next = self.neighbour(node, dir);
                            let in_port = opposite(dir);
                            let pending_here = moved
                                .iter()
                                .filter(|(t, ip, _)| *t == next && *ip == in_port)
                                .count();
                            if self.queues[next][in_port].free_space() <= pending_here {
                                self.counters.stall_cycles += 1;
                                continue;
                            }
                            self.link_used[node][di] = true;
                            let flit = self.queues[node][port].pop().expect("head exists");
                            self.queued -= 1;
                            self.node_queued[node] -= 1;
                            moved.push((next, in_port, flit));
                            self.counters.flit_hops += 1;
                        }
                    }
                    continue;
                }
                let head = self.queues[node][port].front().expect("head exists");

                // group destinations by required output direction
                let mut groups: [Vec<NodeId>; 5] = Default::default();
                for &dst in head.dsts.as_slice() {
                    groups[dir_index(self.xy_next(node, dst))].push(dst);
                }

                // plan which direction groups can claim their output
                // link this cycle; execution below then knows the full
                // fan-out, so branches share the payload allocation and
                // the last send of a fully consumed flit gets the move
                let mut remaining: Vec<NodeId> = Vec::new();
                let mut sends: Vec<Dir> = Vec::new();
                for dir in OUT_DIRS {
                    let di = dir_index(dir);
                    if groups[di].is_empty() {
                        continue;
                    }
                    if self.link_used[node][di] {
                        remaining.extend_from_slice(&groups[di]);
                        continue;
                    }
                    match dir {
                        Dir::Eject => {
                            if self.eject[node].is_full() {
                                remaining.extend_from_slice(&groups[di]);
                                continue;
                            }
                        }
                        _ => {
                            let next = self.neighbour(node, dir);
                            let in_port = opposite(dir);
                            // reserve space conservatively: queue space
                            // minus flits already moved there this cycle
                            let pending_here = moved
                                .iter()
                                .filter(|(t, ip, _)| *t == next && *ip == in_port)
                                .count();
                            if self.queues[next][in_port].free_space() <= pending_here {
                                remaining.extend_from_slice(&groups[di]);
                                continue;
                            }
                        }
                    }
                    self.link_used[node][di] = true;
                    sends.push(dir);
                }

                let mut owned: Option<Load<P>> = if remaining.is_empty() {
                    // fully consumed: take the flit and own its payload
                    self.queued -= 1;
                    self.node_queued[node] -= 1;
                    Some(self.queues[node][port].pop().expect("head exists").payload)
                } else {
                    if sends.is_empty() {
                        self.counters.stall_cycles += 1;
                    }
                    self.queues[node][port]
                        .front_mut()
                        .expect("head exists")
                        .dsts = Dsts::from_vec(remaining);
                    None
                };

                for (k, &dir) in sends.iter().enumerate() {
                    let load = match &mut owned {
                        // last branch of a consumed flit gets the move
                        Some(_) if k + 1 == sends.len() => owned.take().expect("moved once"),
                        Some(l) => l.share(),
                        None => self.queues[node][port]
                            .front_mut()
                            .expect("head exists")
                            .payload
                            .share(),
                    };
                    match dir {
                        Dir::Eject => {
                            if self.eject[node].push(load.into_inner()).is_err() {
                                unreachable!("ejection space was checked");
                            }
                            self.ejected += 1;
                            self.counters.delivered += 1;
                        }
                        _ => {
                            moved.push((
                                self.neighbour(node, dir),
                                opposite(dir),
                                Flit {
                                    dsts: Dsts::from_vec(std::mem::take(
                                        &mut groups[dir_index(dir)],
                                    )),
                                    payload: load,
                                },
                            ));
                            self.counters.flit_hops += 1;
                        }
                    }
                }
            }
        }

        for (node, port, flit) in moved.drain(..) {
            if self.queues[node][port].push(flit).is_err() {
                unreachable!("queue space was reserved");
            }
            self.queued += 1;
            self.node_queued[node] += 1;
        }
        self.moved = moved;
        self.rotate = (self.rotate + 1) % n.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(mesh: &mut Mesh<u64>, max_cycles: usize) {
        for _ in 0..max_cycles {
            mesh.tick();
            if mesh.is_idle() {
                return;
            }
        }
        panic!("mesh did not drain in {max_cycles} cycles");
    }

    #[test]
    fn unicast_delivery() {
        let mut m: Mesh<u64> = Mesh::new(4, 4, 4);
        m.inject(0, &[15], 99).unwrap();
        drain_all(&mut m, 100);
        assert_eq!(m.eject(15), Some(99));
        assert_eq!(m.eject(15), None);
    }

    #[test]
    fn hop_latency_matches_distance() {
        let mut m: Mesh<u64> = Mesh::new(4, 1, 4);
        m.inject(0, &[3], 1).unwrap();
        let mut cycles = 0;
        while m.eject_len(3) == 0 {
            m.tick();
            cycles += 1;
            assert!(cycles < 50);
        }
        // 3 hops + 1 ejection
        assert_eq!(cycles, 4);
    }

    #[test]
    fn self_delivery_through_ejection() {
        let mut m: Mesh<u64> = Mesh::new(2, 2, 4);
        m.inject(1, &[1], 5).unwrap();
        m.tick();
        assert_eq!(m.eject(1), Some(5));
    }

    #[test]
    fn multicast_reaches_all_and_saves_hops() {
        // one row: 0 -> {1,2,3}: tree multicast shares the common prefix
        let mut m: Mesh<u64> = Mesh::new(4, 1, 8);
        m.inject(0, &[1, 2, 3], 7).unwrap();
        drain_all(&mut m, 100);
        for node in [1, 2, 3] {
            assert_eq!(m.eject(node), Some(7), "node {node}");
        }
        let mc_hops = m.counters().flit_hops;
        // unicasts would cost 1+2+3 = 6 hops; tree costs 3
        assert_eq!(mc_hops, 3);
    }

    #[test]
    fn multicast_forks_on_divergence() {
        // 3x3, from center (4) to all four corners
        let mut m: Mesh<u64> = Mesh::new(3, 3, 8);
        m.inject(4, &[0, 2, 6, 8], 1).unwrap();
        drain_all(&mut m, 100);
        for node in [0, 2, 6, 8] {
            assert_eq!(m.eject(node), Some(1), "corner {node}");
        }
    }

    #[test]
    fn duplicate_destinations_deliver_once() {
        let mut m: Mesh<u64> = Mesh::new(2, 1, 4);
        m.inject(0, &[1, 1, 1], 3).unwrap();
        drain_all(&mut m, 50);
        assert_eq!(m.eject(1), Some(3));
        assert_eq!(m.eject(1), None);
    }

    #[test]
    fn unicast_and_duplicated_unicast_deliver_once() {
        for dsts in [&[1usize][..], &[1, 1][..]] {
            let mut m: Mesh<u64> = Mesh::new(2, 1, 4);
            m.inject(0, dsts, 4).unwrap();
            assert!(matches!(
                m.queues[0][INJECT_PORT].front().unwrap().dsts,
                Dsts::One(1)
            ));
            drain_all(&mut m, 50);
            assert_eq!(m.eject(1), Some(4));
            assert_eq!(m.eject(1), None, "{dsts:?}");
            let s = m.counters();
            assert_eq!(s.injected, 1);
            assert_eq!(s.injected_branches, 1);
            assert_eq!(s.delivered, 1);
        }
    }

    #[test]
    fn multicast_narrowed_to_one_destination_delivers_every_branch() {
        // 2x1, ejection buffers of one: fill node 0's buffer, then
        // multicast to {0, 1} — the east branch leaves, the local one
        // stalls on the full buffer and the flit narrows to a unicast
        let mut m: Mesh<u64> = Mesh::new(2, 1, 1);
        m.inject(0, &[0], 10).unwrap();
        m.tick();
        assert_eq!(m.eject_len(0), 1);
        m.inject(0, &[1, 0], 20).unwrap();
        m.tick();
        let head = m.queues[0][INJECT_PORT]
            .front()
            .expect("local branch stalled");
        assert!(matches!(head.dsts, Dsts::One(0)));
        m.tick();
        assert_eq!(m.eject(0), Some(10));
        drain_all(&mut m, 50);
        assert_eq!(m.eject(0), Some(20));
        assert_eq!(m.eject(1), Some(20));
        assert!(!m.eject_pending());
        let s = m.counters();
        assert_eq!(s.injected_branches, 3);
        assert_eq!(s.delivered, 3);
        assert!(s.stall_cycles > 0);
    }

    #[test]
    fn backpressure_on_full_source_queue() {
        let mut m: Mesh<u64> = Mesh::new(2, 1, 1);
        m.inject(0, &[1], 1).unwrap();
        let err = m.inject(0, &[1], 2).unwrap_err();
        assert_eq!(err.0, 2);
    }

    #[test]
    fn link_capacity_serializes_flits() {
        // 2-node row, 10 flits across one link: needs >= 10 cycles to
        // deliver them all
        let mut m: Mesh<u64> = Mesh::new(2, 1, 16);
        for i in 0..10 {
            m.inject(0, &[1], i).unwrap();
        }
        let mut cycles = 0;
        while m.eject_len(1) < 10 {
            m.tick();
            cycles += 1;
            assert!(cycles < 100);
        }
        assert!(cycles >= 10, "10 flits crossed 1 link in {cycles} cycles");
    }

    #[test]
    fn ordering_preserved_point_to_point() {
        let mut m: Mesh<u64> = Mesh::new(3, 1, 16);
        for i in 0..5 {
            m.inject(0, &[2], i).unwrap();
        }
        drain_all(&mut m, 100);
        let got: Vec<u64> = std::iter::from_fn(|| m.eject(2)).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_ejection_buffer_stalls_but_recovers() {
        let mut m: Mesh<u64> = Mesh::new(2, 1, 2);
        for i in 0..4 {
            m.inject(0, &[1], i).unwrap();
            for _ in 0..4 {
                m.tick();
            }
        }
        // ejection buffer (cap 2) full; rest stuck in queues
        assert_eq!(m.eject_len(1), 2);
        assert_eq!(m.eject(1), Some(0));
        assert_eq!(m.eject(1), Some(1));
        drain_all(&mut m, 50);
        assert_eq!(m.eject(1), Some(2));
        assert_eq!(m.eject(1), Some(3));
    }

    #[test]
    fn opposing_saturated_flows_do_not_deadlock() {
        // the single-queue design this replaced deadlocked here: full
        // opposing queues between two adjacent nodes
        let mut m: Mesh<u64> = Mesh::new(1, 2, 2);
        let mut pending: Vec<(usize, u64)> = (0..20).map(|i| (i as usize % 2, i)).collect();
        let mut delivered = 0;
        let mut cycles = 0;
        while delivered < 20 {
            pending.retain(|(src, v)| m.inject(*src, &[1 - *src], *v).is_err());
            m.tick();
            for node in 0..2 {
                while m.eject(node).is_some() {
                    delivered += 1;
                }
            }
            cycles += 1;
            assert!(cycles < 500, "deadlock: {delivered}/20 after {cycles}");
        }
    }

    #[test]
    fn activity_tracks_transit_and_ejections() {
        let mut m: Mesh<u64> = Mesh::new(2, 1, 4);
        assert_eq!(m.activity(), Activity::Idle);
        m.inject(0, &[1], 9).unwrap();
        assert_eq!(m.activity(), Activity::Now);
        drain_all(&mut m, 50);
        // delivered but undrained: consumers still have work
        assert!(m.is_idle() && m.eject_pending());
        assert_eq!(m.activity(), Activity::Now);
        assert_eq!(m.eject(1), Some(9));
        assert_eq!(m.activity(), Activity::Idle);
    }

    #[test]
    fn counters_track_queue_contents_under_load() {
        let mut m: Mesh<u64> = Mesh::new(3, 3, 2);
        for i in 0..6 {
            let _ = m.inject(i % 9, &[(i * 5 + 3) % 9], i as u64);
        }
        for _ in 0..40 {
            m.tick();
            // is_idle/eject_pending debug-assert counter consistency
            let _ = (m.is_idle(), m.eject_pending());
            for node in 0..9 {
                let _ = m.eject(node);
            }
        }
        assert!(m.is_idle() && !m.eject_pending());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_destination_panics() {
        let mut m: Mesh<u64> = Mesh::new(2, 2, 2);
        let _ = m.inject(0, &[9], 0);
    }
}
