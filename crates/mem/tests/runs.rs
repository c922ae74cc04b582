//! The run-based DRAM against a word-at-a-time reference model.
//!
//! [`Reference`] is the DRAM's serve loop written the direct way: every
//! word takes its own tokens, draws its own fault retry and sits in the
//! in-flight queue on its own. Random job mixes driven through both must
//! release the same words, in the same order, on the same cycles.

use proptest::prelude::*;
use std::collections::VecDeque;
use ts_mem::{Dram, DramConfig, DramOut, JobKind, WriteMode};
use ts_sim::TokenBucket;

/// One word leaving the DRAM: `(tag, word index, cycle, last, write
/// ack)`; the cycle is its ready cycle while in flight and its release
/// cycle once out.
type Word = (u64, u64, u64, bool, bool);

struct RefJob {
    tag: u64,
    kind: JobKind,
    next_word: usize,
}

fn job_words(kind: &JobKind) -> usize {
    match kind {
        JobKind::Read { addrs, .. } | JobKind::Write { addrs, .. } => addrs.len(),
        JobKind::MeterWrite { .. } => 1,
    }
}

fn job_gather(kind: &JobKind) -> bool {
    match kind {
        JobKind::Read { gather, .. }
        | JobKind::Write { gather, .. }
        | JobKind::MeterWrite { gather } => *gather,
    }
}

/// The same splitmix64 draw the DRAM uses for transient errors.
fn fault_draw(seed: u64, index: u64) -> f64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ seed;
    h ^= index;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Word-at-a-time DRAM timing: one token take, one fault draw and one
/// in-flight entry per word.
struct Reference {
    cfg: DramConfig,
    bw: TokenBucket,
    waiting: VecDeque<RefJob>,
    active: VecDeque<RefJob>,
    inflight: VecDeque<Word>,
    storage: Vec<i64>,
    fault: (f64, u64, u64),
    served: u64,
}

impl Reference {
    fn new(cfg: DramConfig, fault: (f64, u64, u64)) -> Self {
        let bw = TokenBucket::with_burst(
            cfg.words_per_cycle,
            cfg.words_per_cycle.max(cfg.gather_cost as f64) + 1.0,
        );
        Reference {
            storage: vec![0; cfg.words],
            cfg,
            bw,
            waiting: VecDeque::new(),
            active: VecDeque::new(),
            inflight: VecDeque::new(),
            fault,
            served: 0,
        }
    }

    fn submit(&mut self, kind: JobKind, tag: u64) {
        self.waiting.push_back(RefJob {
            tag,
            kind,
            next_word: 0,
        });
    }

    fn tick(&mut self, now: u64, out: &mut Vec<Word>) {
        self.bw.refill();
        while self.active.len() < self.cfg.max_active_jobs {
            match self.waiting.pop_front() {
                Some(j) => self.active.push_back(j),
                None => break,
            }
        }
        let mut served_any = true;
        while served_any && !self.active.is_empty() {
            served_any = false;
            let mut remaining = self.active.len();
            while remaining > 0 {
                remaining -= 1;
                let mut job = self.active.pop_front().expect("counted");
                let total = job_words(&job.kind);
                let cost = if job_gather(&job.kind) {
                    self.cfg.gather_cost
                } else {
                    1
                };
                let mut served_words = 0;
                let mut finished = false;
                while served_words < self.cfg.burst_words.max(1) {
                    if self.bw.available() < cost {
                        break;
                    }
                    assert_eq!(self.bw.take_up_to(cost), cost);
                    served_any = true;
                    served_words += 1;
                    let w = job.next_word;
                    job.next_word += 1;
                    let last = job.next_word == total;
                    let mut ready = now + self.cfg.latency;
                    let (rate, retry, seed) = self.fault;
                    if rate > 0.0 {
                        self.served += 1;
                        if fault_draw(seed, self.served) < rate {
                            ready += retry;
                        }
                    }
                    match &job.kind {
                        JobKind::Read { .. } => {
                            self.inflight
                                .push_back((job.tag, w as u64, ready, last, false));
                        }
                        kind => {
                            if let JobKind::Write {
                                addrs,
                                data,
                                mode: WriteMode::Overwrite,
                                apply: true,
                                ..
                            } = kind
                            {
                                self.storage[addrs[w] as usize] = data[w];
                            }
                            if last {
                                self.inflight
                                    .push_back((job.tag, w as u64, ready, true, true));
                            }
                        }
                    }
                    if last {
                        finished = true;
                        break;
                    }
                }
                if served_words == 0 {
                    self.active.push_front(job);
                    remaining = 0;
                    continue;
                }
                if !finished {
                    self.active.push_back(job);
                }
            }
        }
        // front-gated release, stamped with the release cycle
        while let Some(&(tag, w, ready, last, ack)) = self.inflight.front() {
            if ready > now {
                break;
            }
            out.push((tag, w, now, last, ack));
            self.inflight.pop_front();
        }
    }
}

/// Expands runs released at `now` into words.
fn expand(runs: &[DramOut], now: u64) -> Vec<Word> {
    let mut words = Vec::new();
    for r in runs {
        assert!(r.words > 0, "empty run");
        for w in r.first..r.first + r.words {
            let last = r.last && w + 1 == r.first + r.words;
            words.push((r.tag, w, now, last, r.is_write_ack));
        }
    }
    words
}

/// A job to submit: `(cycle, kind, gather, addresses)`, where kind 0
/// reads, 1 meters a write and 2 applies a write.
fn job_strategy() -> impl Strategy<Value = (u64, u8, bool, Vec<u64>)> {
    (
        0u64..40,
        0u8..3,
        prop::bool::ANY,
        prop::collection::vec(0u64..48, 1..40),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Runs expand to exactly the reference's words, released on the
    /// same cycles, and the in-flight word count agrees every cycle.
    #[test]
    fn runs_match_the_per_word_reference(
        jobs in prop::collection::vec(job_strategy(), 1..12),
        serve in (1u32..40, 0u64..14, 0usize..3, 1usize..5),
        timing in (0u64..20, prop::bool::ANY, 1u64..30, 0u64..1000),
    ) {
        let (bw_quarters, gather_cost, burst_pick, max_active) = serve;
        let (latency, faulty, retry, seed) = timing;
        let cfg = DramConfig {
            words: 48,
            words_per_cycle: bw_quarters as f64 / 4.0,
            latency,
            gather_cost,
            max_active_jobs: max_active,
            burst_words: [0, 1, 8][burst_pick],
        };
        let fault = (if faulty { 0.3 } else { 0.0 }, retry, seed);
        let mut dram = Dram::new(cfg.clone());
        dram.set_fault_injection(fault.0, fault.1, fault.2);
        let mut reference = Reference::new(cfg, fault);
        let mut jobs = jobs;
        jobs.sort_by_key(|j| j.0);
        let mut pending: VecDeque<_> = jobs.into_iter().enumerate().collect();

        let mut runs = Vec::new();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut now = 0;
        while !pending.is_empty() || !dram.is_idle() {
            while pending.front().is_some_and(|(_, j)| j.0 <= now) {
                let (tag, (_, kind, gather, addrs)) = pending.pop_front().expect("front");
                let kind = match kind {
                    0 => JobKind::Read { addrs, gather },
                    1 => JobKind::MeterWrite { gather },
                    _ => JobKind::Write {
                        data: addrs.iter().map(|&a| a as i64 * 7 + tag as i64).collect(),
                        addrs,
                        gather,
                        mode: WriteMode::Overwrite,
                        apply: true,
                    },
                };
                reference.submit(kind.clone(), tag as u64);
                dram.submit(kind, tag as u64).expect("non-empty job");
            }
            runs.clear();
            dram.tick_into(now, &mut runs);
            got.extend(expand(&runs, now));
            reference.tick(now, &mut want);
            prop_assert_eq!(&got, &want, "cycle {}", now);
            let ref_inflight = reference.inflight.len();
            prop_assert_eq!(dram.inflight_words(), ref_inflight, "cycle {}", now);
            now += 1;
            prop_assert!(now < 200_000, "dram wedged");
        }
        prop_assert!(reference.inflight.is_empty() && reference.active.is_empty());
        for (a, &v) in reference.storage.iter().enumerate() {
            prop_assert_eq!(dram.storage().read(a as u64), v, "address {}", a);
        }
    }
}
