//! Memory-controller nodes: the bridge between the mesh and the DRAM.

use crate::msg::{Msg, StreamKey};
use std::collections::VecDeque;
use ts_mem::{Dram, DramConfig, DramOut, JobKind};
use ts_noc::Mesh;
use ts_sim::{Activity, FxHashMap, FxHashSet};
use ts_stream::Addr;

/// A DRAM read request as the dispatcher/stream engines see it.
#[derive(Debug, Clone)]
pub(crate) struct ReadReq {
    /// Globally unique read-job id (assigned by the accelerator).
    pub job: u64,
    /// Addresses, in delivery order.
    pub addrs: Vec<Addr>,
    /// Random-access pattern (pays gather cost).
    pub gather: bool,
    /// Mesh nodes to deliver data to. Empty = phantom job (traffic is
    /// modelled, data is dropped — used for index-fetch phases whose
    /// values the issuer already has functionally).
    pub dsts: Vec<usize>,
    /// Serve only after this job has fully completed (two-phase
    /// indirect reads).
    pub after: Option<u64>,
}

/// Where a staged response goes: every destination of a read job
/// (looked up in the job table at injection, never copied per burst),
/// or the one tile a write ack returns to.
#[derive(Debug, Clone, Copy)]
enum Dest {
    Job(u64),
    Node(usize),
}

#[derive(Debug)]
struct WriteTrack {
    outstanding: u64,
    saw_last: bool,
    reply_to: usize,
}

/// All memory controllers plus the DRAM they front.
///
/// Read jobs are admitted after a control-path latency, served by the
/// shared [`Dram`], and their response words injected as [`Msg::DramData`]
/// flits from the controller node the job was assigned to (round-robin).
/// Write words arrive as flits, are applied at DRAM bandwidth, and are
/// acknowledged per stream.
#[derive(Debug)]
pub(crate) struct MemCtrl {
    dram: Dram,
    mc_nodes: Vec<usize>,
    mesh_width: usize,
    /// Requests waiting out their control latency: `(ready_at, req)`.
    admit: VecDeque<(u64, ReadReq)>,
    /// Requests admitted but gated on `after` jobs.
    gated: Vec<ReadReq>,
    /// Read job → destination mesh nodes.
    job_dsts: FxHashMap<u64, Vec<usize>>,
    /// Read job → injecting controller (index into `mc_nodes`).
    job_ctrl: FxHashMap<u64, usize>,
    /// Read jobs fully served (for `after` gating).
    done_jobs: FxHashSet<u64>,
    /// Write bookkeeping per stream.
    writes: FxHashMap<StreamKey, WriteTrack>,
    /// Write-job tag → (stream, word was last).
    wtags: FxHashMap<u64, (StreamKey, bool)>,
    next_wtag: u64,
    /// Responses waiting for injection, per controller (parallel to
    /// `mc_nodes`).
    backlog: Vec<VecDeque<(Dest, Msg)>>,
    /// Total staged responses across all controller nodes (O(1)
    /// idleness checks; burst coalescing mutates entries in place and
    /// leaves the count unchanged).
    backlog_len: usize,
    rr: usize,
    /// DRAM output runs of the current tick; the buffer is reused
    /// across ticks so the serve path does not allocate.
    dram_out: Vec<DramOut>,
}

/// Read-job tags occupy the low range; write tags have this bit set.
const WRITE_TAG: u64 = 1 << 63;

/// Words per staged [`Msg::DramData`] flit (one row-buffer burst).
const BURST: u16 = 8;

impl MemCtrl {
    pub(crate) fn new(dram_cfg: DramConfig, mc_nodes: Vec<usize>, mesh_width: usize) -> Self {
        assert!(!mc_nodes.is_empty(), "need at least one controller node");
        assert!(mesh_width > 0, "mesh width must be positive");
        MemCtrl {
            dram: Dram::new(dram_cfg),
            backlog: (0..mc_nodes.len()).map(|_| VecDeque::new()).collect(),
            mc_nodes,
            mesh_width,
            admit: VecDeque::new(),
            gated: Vec::new(),
            job_dsts: FxHashMap::default(),
            job_ctrl: FxHashMap::default(),
            done_jobs: FxHashSet::default(),
            writes: FxHashMap::default(),
            wtags: FxHashMap::default(),
            next_wtag: 0,
            backlog_len: 0,
            rr: 0,
            dram_out: Vec::new(),
        }
    }

    /// Functional access to DRAM contents.
    pub(crate) fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Mutable functional access to DRAM contents.
    pub(crate) fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    /// Queues a read request; it reaches the DRAM after the control
    /// latency (`ready_at`).
    pub(crate) fn submit_read(&mut self, req: ReadReq, ready_at: u64) {
        assert!(!req.addrs.is_empty(), "read request must cover >= 1 word");
        self.job_dsts.insert(req.job, req.dsts.clone());
        // responses inject from the controller in the destination's
        // mesh column (column-affine homing keeps traffic contention-
        // free); phantom and multicast jobs round-robin
        let ctrl = match req.dsts.as_slice() {
            [single] => (single % self.mesh_width) % self.mc_nodes.len(),
            _ => {
                self.rr += 1;
                (self.rr - 1) % self.mc_nodes.len()
            }
        };
        self.job_ctrl.insert(req.job, ctrl);
        self.admit.push_back((ready_at, req));
    }

    /// Adds a destination to a read job that has not yet reached the
    /// DRAM (a sharer joining a multicast while it waits out its
    /// batching window). Returns false once the job is already being
    /// served.
    pub(crate) fn try_join(&mut self, job: u64, node: usize) -> bool {
        let in_admit = self.admit.iter_mut().find(|(_, r)| r.job == job);
        let in_gated = self.gated.iter_mut().find(|r| r.job == job);
        let req = match (in_admit, in_gated) {
            (Some((_, r)), _) => r,
            (None, Some(r)) => r,
            (None, None) => return false,
        };
        if !req.dsts.contains(&node) {
            req.dsts.push(node);
        }
        let dsts = self.job_dsts.get_mut(&job).expect("job registered");
        if !dsts.contains(&node) {
            dsts.push(node);
        }
        true
    }

    /// True once read job `job` has served its last word.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn job_done(&self, job: u64) -> bool {
        self.done_jobs.contains(&job)
    }

    /// Handles a write flit delivered to a controller node. The word's
    /// functional effect was applied at dispatch, so the DRAM job only
    /// meters bandwidth and latency.
    pub(crate) fn on_write_flit(
        &mut self,
        stream: StreamKey,
        reply_to: usize,
        last: bool,
        gather: bool,
    ) {
        let track = self.writes.entry(stream).or_insert(WriteTrack {
            outstanding: 0,
            saw_last: false,
            reply_to,
        });
        track.outstanding += 1;
        track.saw_last |= last;
        let tag = WRITE_TAG | self.next_wtag;
        self.next_wtag += 1;
        self.wtags.insert(tag, (stream, last));
        self.dram
            .submit(JobKind::MeterWrite { gather }, tag)
            .expect("single-word write job is never empty");
    }

    /// One simulation cycle: admit due reads, advance the DRAM, stage
    /// responses, and inject staged responses into the mesh.
    pub(crate) fn tick(&mut self, now: u64, mesh: &mut Mesh<Msg>) {
        // admit requests whose control latency elapsed
        while let Some((ready, _)) = self.admit.front() {
            if *ready > now {
                break;
            }
            let (_, req) = self.admit.pop_front().expect("front exists");
            self.gated.push(req);
        }
        // release gated requests whose prerequisite job completed, in
        // order (`gated` keeps its capacity across ticks)
        let done_jobs = &self.done_jobs;
        let released = self
            .gated
            .extract_if(.., |req| req.after.is_none_or(|j| done_jobs.contains(&j)));
        for req in released {
            self.dram
                .submit(
                    JobKind::Read {
                        addrs: req.addrs,
                        gather: req.gather,
                    },
                    req.job,
                )
                .expect("read request validated non-empty");
        }

        // advance DRAM and stage outputs
        let mut outs = std::mem::take(&mut self.dram_out);
        self.dram.tick_into(now, &mut outs);
        for out in outs.drain(..) {
            if out.tag & WRITE_TAG != 0 {
                let (stream, was_last) = self.wtags.remove(&out.tag).expect("write tag known");
                let track = self.writes.get_mut(&stream).expect("stream tracked");
                track.outstanding -= 1;
                track.saw_last |= was_last;
                if track.saw_last && track.outstanding == 0 {
                    let reply = track.reply_to;
                    self.writes.remove(&stream);
                    // ack injected from the controller handling this stream
                    let ctrl = (stream.0 .0 as usize) % self.mc_nodes.len();
                    self.backlog[ctrl].push_back((Dest::Node(reply), Msg::WriteAck { stream }));
                    self.backlog_len += 1;
                }
            } else {
                if out.last {
                    self.done_jobs.insert(out.tag);
                }
                let dsts = self.job_dsts.get(&out.tag).expect("read job known");
                if dsts.is_empty() {
                    continue; // phantom job: traffic counted, data dropped
                }
                let ctrl = *self.job_ctrl.get(&out.tag).expect("job controller known");
                let q = &mut self.backlog[ctrl];
                // a run tops up the newest staged flit of its job, then
                // fills fresh flits of up to `BURST` words; a job's
                // destinations are fixed once the DRAM serves it
                // (`try_join` fails from then on), so words of one job
                // always share a destination set
                let mut left = out.words;
                if let Some((_, Msg::DramData { job, words, last })) = q.back_mut() {
                    if *job == out.tag && *words < BURST {
                        let k = left.min((BURST - *words) as u64);
                        *words += k as u16;
                        left -= k;
                        *last |= out.last && left == 0;
                    }
                }
                while left > 0 {
                    let k = left.min(BURST as u64);
                    left -= k;
                    q.push_back((
                        Dest::Job(out.tag),
                        Msg::DramData {
                            job: out.tag,
                            words: k as u16,
                            last: out.last && left == 0,
                        },
                    ));
                    self.backlog_len += 1;
                }
            }
        }

        self.dram_out = outs;

        // inject staged responses, bounded by each node's queue space
        for (&node, q) in self.mc_nodes.iter().zip(&mut self.backlog) {
            while let Some((dest, msg)) = q.front() {
                let dsts = match dest {
                    Dest::Job(job) => &self.job_dsts[job][..],
                    Dest::Node(n) => std::slice::from_ref(n),
                };
                if mesh.inject(node, dsts, msg.clone()).is_err() {
                    break;
                }
                q.pop_front();
                self.backlog_len -= 1;
            }
        }
    }

    /// Debug summary for timeout diagnostics.
    pub(crate) fn debug_state(&self) -> String {
        format!(
            "admit={} gated={:?} dram_pending={} backlog={:?}",
            self.admit.len(),
            self.gated
                .iter()
                .map(|r| (r.job, r.after))
                .collect::<Vec<_>>(),
            self.dram.pending_jobs(),
            self.mc_nodes
                .iter()
                .zip(&self.backlog)
                .map(|(n, q)| (*n, q.len()))
                .collect::<Vec<_>>(),
        )
    }

    /// Queue depths for trace sampling: `(admit, gated, backlog,
    /// dram_jobs, dram_inflight)`. Reads only state that is identical
    /// whether the controller is ticked densely or lazily, so sampled
    /// values agree across scheduler fast paths.
    pub(crate) fn queue_depths(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.admit.len(),
            self.gated.len(),
            self.backlog_len,
            self.dram.pending_jobs(),
            self.dram.inflight_words(),
        )
    }

    /// True when no request, job, or staged response remains.
    pub(crate) fn is_idle(&self) -> bool {
        debug_assert_eq!(
            self.backlog_len == 0,
            self.backlog.iter().all(|q| q.is_empty()),
            "backlog counter diverged from backlog contents"
        );
        self.admit.is_empty()
            && self.gated.is_empty()
            && self.dram.is_idle()
            && self.backlog_len == 0
    }

    /// The controller's activity contract. Gated requests, unserved
    /// DRAM jobs, and staged responses all need dense ticking (their
    /// timing depends on bandwidth and mesh backpressure); with only
    /// time-gated state left — admitted-but-not-due requests and
    /// in-flight DRAM words — the next observable event is the earliest
    /// of the two queue fronts, and every tick before it is idle.
    pub(crate) fn activity(&self) -> Activity {
        if !self.gated.is_empty() || self.dram.has_service_work() || self.backlog_len > 0 {
            return Activity::Now;
        }
        let mut at = Activity::Idle;
        // Admission is head-of-line FIFO (`tick` only pops the front
        // once due), so even though batching windows make `ready_at`
        // non-monotone, nothing behind the front can admit earlier —
        // the front's due time is the next event.
        if let Some((ready, _)) = self.admit.front() {
            at = at.merge(Activity::At(*ready));
        }
        if let Some(ready) = self.dram.next_output_ready() {
            at = at.merge(Activity::At(ready));
        }
        at
    }

    /// Replays `n` elapsed idle cycles. The caller guarantees the
    /// controller reported no activity over those cycles (each tick
    /// would only have refilled the DRAM bandwidth bucket: the admit
    /// front was not yet due and no in-flight word came due), but work
    /// may have *just* arrived — a write flit this cycle, a read
    /// request now due — so only the states that change exclusively
    /// inside [`tick`](MemCtrl::tick) can be asserted quiet.
    pub(crate) fn replay_idle_cycles(&mut self, n: u64) {
        debug_assert!(
            self.gated.is_empty() && self.backlog_len == 0,
            "replay with controller work in flight"
        );
        self.dram.replay_idle_cycles(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskstream_model::TaskId;

    fn mk() -> (MemCtrl, Mesh<Msg>) {
        let cfg = DramConfig {
            words: 1024,
            words_per_cycle: 4.0,
            latency: 5,
            gather_cost: 4,
            max_active_jobs: 8,
            burst_words: 4,
        };
        // 2x2 mesh: tiles at 0..2, controllers at 2..4
        (MemCtrl::new(cfg, vec![2, 3], 2), Mesh::new(2, 2, 8))
    }

    fn run(mc: &mut MemCtrl, mesh: &mut Mesh<Msg>, cycles: u64) -> Vec<(usize, Msg)> {
        let mut got = Vec::new();
        for now in 0..cycles {
            mc.tick(now, mesh);
            mesh.tick();
            for node in 0..4 {
                while let Some(m) = mesh.eject(node) {
                    got.push((node, m));
                }
            }
        }
        got
    }

    #[test]
    fn read_job_delivers_words_to_tile() {
        let (mut mc, mut mesh) = mk();
        mc.dram_mut().storage_mut().load(0, &[1, 2, 3]);
        mc.submit_read(
            ReadReq {
                job: 7,
                addrs: vec![0, 1, 2],
                gather: false,
                dsts: vec![0],
                after: None,
            },
            0,
        );
        let got = run(&mut mc, &mut mesh, 50);
        let words: u64 = got
            .iter()
            .filter(|(n, _)| *n == 0)
            .map(|(_, m)| match m {
                Msg::DramData { words, .. } => *words as u64,
                _ => 0,
            })
            .sum();
        assert_eq!(words, 3);
        let saw_last = got
            .iter()
            .any(|(_, m)| matches!(m, Msg::DramData { last: true, .. }));
        assert!(saw_last);
        assert!(mc.job_done(7));
        assert!(mc.is_idle());
    }

    #[test]
    fn a_run_stages_as_full_bursts_with_last_on_the_final_flit() {
        // 16 words/cycle and 16-word DRAM bursts: the first cycle serves
        // one 16-word run, the second the remaining 4 words
        let cfg = DramConfig {
            words: 1024,
            words_per_cycle: 16.0,
            latency: 5,
            gather_cost: 4,
            max_active_jobs: 8,
            burst_words: 16,
        };
        let (mut mc, mut mesh) = (MemCtrl::new(cfg, vec![2, 3], 2), Mesh::new(2, 2, 8));
        mc.submit_read(
            ReadReq {
                job: 4,
                addrs: (0..20).collect(),
                gather: false,
                dsts: vec![0],
                after: None,
            },
            0,
        );
        let flits: Vec<(u16, bool)> = run(&mut mc, &mut mesh, 50)
            .into_iter()
            .map(|(node, m)| match m {
                Msg::DramData {
                    job: 4,
                    words,
                    last,
                } if node == 0 => (words, last),
                other => panic!("unexpected {other:?} at node {node}"),
            })
            .collect();
        assert_eq!(flits, vec![(8, false), (8, false), (4, true)]);
        assert!(mc.job_done(4) && mc.is_idle());
    }

    #[test]
    fn multicast_read_reaches_all_tiles() {
        let (mut mc, mut mesh) = mk();
        mc.submit_read(
            ReadReq {
                job: 1,
                addrs: vec![0, 1],
                gather: false,
                dsts: vec![0, 1],
                after: None,
            },
            0,
        );
        let got = run(&mut mc, &mut mesh, 50);
        for tile in [0usize, 1] {
            let words: u64 = got
                .iter()
                .filter(|(node, _)| *node == tile)
                .map(|(_, m)| match m {
                    Msg::DramData { words, .. } => *words as u64,
                    _ => 0,
                })
                .sum();
            assert_eq!(words, 2, "tile {tile}");
        }
        // DRAM read each word once despite two destinations
        assert_eq!(mc.dram().counters().read_words, 2);
    }

    #[test]
    fn phantom_job_counts_traffic_but_delivers_nothing() {
        let (mut mc, mut mesh) = mk();
        mc.submit_read(
            ReadReq {
                job: 2,
                addrs: vec![0, 1, 2, 3],
                gather: false,
                dsts: vec![],
                after: None,
            },
            0,
        );
        let got = run(&mut mc, &mut mesh, 50);
        assert!(got.is_empty());
        assert_eq!(mc.dram().counters().read_words, 4);
        assert!(mc.job_done(2));
    }

    #[test]
    fn after_gating_orders_two_phase_reads() {
        let (mut mc, mut mesh) = mk();
        mc.submit_read(
            ReadReq {
                job: 11,
                addrs: vec![0; 8],
                gather: false,
                dsts: vec![],
                after: None,
            },
            0,
        );
        mc.submit_read(
            ReadReq {
                job: 12,
                addrs: vec![1],
                gather: true,
                dsts: vec![0],
                after: Some(11),
            },
            0,
        );
        let mut first_data_cycle = None;
        let mut idx_done_cycle = None;
        for now in 0..200 {
            mc.tick(now, &mut mesh);
            mesh.tick();
            if mc.job_done(11) && idx_done_cycle.is_none() {
                idx_done_cycle = Some(now);
            }
            if mesh.eject(0).is_some() && first_data_cycle.is_none() {
                first_data_cycle = Some(now);
            }
        }
        let (idx, data) = (idx_done_cycle.unwrap(), first_data_cycle.unwrap());
        assert!(data > idx, "gather data at {data} before indices at {idx}");
    }

    #[test]
    fn write_stream_acked_once_after_last_word() {
        let (mut mc, mut mesh) = mk();
        let stream: StreamKey = (TaskId(5), 0);
        for i in 0..4u64 {
            mc.on_write_flit(stream, 1, i == 3, false);
        }
        let got = run(&mut mc, &mut mesh, 100);
        let acks: Vec<_> = got
            .iter()
            .filter(|(n, m)| *n == 1 && matches!(m, Msg::WriteAck { .. }))
            .collect();
        assert_eq!(acks.len(), 1);
        // write flits meter timing only; the functional effect happened
        // at dispatch, so storage is untouched here
        assert!((0..1024).all(|a| mc.dram().storage().read(a) == 0));
        assert_eq!(mc.dram().counters().write_words, 4);
        assert!(mc.is_idle());
    }
}
