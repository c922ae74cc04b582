//! Property tests for the DRAM model: conservation and correctness of
//! served words under arbitrary job mixes.

use proptest::prelude::*;
use ts_mem::{Dram, DramConfig, JobKind, WriteMode};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every submitted read word is served exactly once, in order
    /// within its job, and `last` fires exactly once per job, on the
    /// final word.
    #[test]
    fn reads_conserve_words(
        jobs in prop::collection::vec(prop::collection::vec(0u64..64, 1..30), 1..10),
        bw_num in 1u32..12,
        gather in prop::bool::ANY,
        latency in 0u64..30,
    ) {
        let mut dram = Dram::new(DramConfig {
            words: 64,
            words_per_cycle: bw_num as f64 / 2.0,
            latency,
            gather_cost: 4,
            max_active_jobs: 3,
            burst_words: 4,
        });
        let mut expected = std::collections::HashMap::new();
        for (i, addrs) in jobs.iter().enumerate() {
            let tag = i as u64;
            expected.insert(tag, addrs.len() as u64);
            dram.submit(JobKind::Read { addrs: addrs.clone(), gather }, tag).unwrap();
        }
        // per job: (words seen so far, runs that carried `last`)
        let mut got: std::collections::HashMap<u64, (u64, u64)> =
            std::collections::HashMap::new();
        let mut now = 0;
        while !dram.is_idle() {
            for run in dram.tick(now) {
                prop_assert!(!run.is_write_ack && run.words > 0);
                let seen = got.entry(run.tag).or_default();
                prop_assert_eq!(run.first, seen.0, "job {} out of order", run.tag);
                seen.0 += run.words;
                if run.last {
                    seen.1 += 1;
                    prop_assert_eq!(seen.0, expected[&run.tag], "last before the final word");
                }
            }
            now += 1;
            prop_assert!(now < 1_000_000, "dram wedged");
        }
        let total: u64 = expected.values().sum();
        prop_assert_eq!(dram.counters().read_words, total);
        for (tag, words) in expected {
            let (seen, lasts) = got.remove(&tag).expect("job produced output");
            prop_assert_eq!(seen, words);
            prop_assert_eq!(lasts, 1, "last flag fired {} times", lasts);
        }
    }

    /// Write jobs ack exactly once and (when applied) land every word.
    #[test]
    fn writes_ack_once(
        words in prop::collection::vec((0u64..32, -100i64..100), 1..20),
        apply in prop::bool::ANY,
    ) {
        let mut dram = Dram::new(DramConfig {
            words: 32,
            words_per_cycle: 2.0,
            latency: 5,
            gather_cost: 4,
            max_active_jobs: 4,
            burst_words: 4,
        });
        let (addrs, data): (Vec<u64>, Vec<i64>) = words.iter().cloned().unzip();
        dram.submit(
            JobKind::Write {
                addrs: addrs.clone(),
                data: data.clone(),
                gather: true,
                mode: WriteMode::Overwrite,
                apply,
            },
            9,
        )
        .unwrap();
        let mut acks = 0;
        let mut now = 0;
        while !dram.is_idle() {
            for out in dram.tick(now) {
                prop_assert!(out.is_write_ack);
                acks += 1;
            }
            now += 1;
            prop_assert!(now < 100_000);
        }
        prop_assert_eq!(acks, 1);
        if apply {
            // last write to each address wins
            let mut expect = std::collections::HashMap::new();
            for (a, v) in words {
                expect.insert(a, v);
            }
            for (a, v) in expect {
                prop_assert_eq!(dram.storage().read(a), v);
            }
        } else {
            for a in addrs {
                prop_assert_eq!(dram.storage().read(a), 0);
            }
        }
    }
}
