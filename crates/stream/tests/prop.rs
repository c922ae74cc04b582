//! Property tests for stream descriptors.

use proptest::prelude::*;
use ts_stream::{Affine, DataSrc, StreamDesc};

fn affine_strategy() -> impl Strategy<Value = Affine> {
    (0u64..10_000, -16i64..17, 1u64..20, -64i64..65, 1u64..8).prop_filter_map(
        "must stay non-negative",
        |(base, s0, l0, s1, l1)| {
            let worst = (l0 as i64 - 1) * s0.min(0) + (l1 as i64 - 1) * s1.min(0);
            if base as i64 + worst < 0 {
                None
            } else {
                Some(Affine::dims2(base, s1, l1, s0, l0))
            }
        },
    )
}

/// A random 1-3-D pattern: negative strides, length-0 and length-1
/// dimensions, and bases at the bottom, middle and very top of the
/// address space (placed so every generated address is in range).
fn nest_strategy() -> impl Strategy<Value = Affine> {
    (
        1usize..4,
        prop::collection::vec(-1000i64..1001, 3..4),
        prop::collection::vec(0u64..6, 3..4),
        (0u8..2, 0u8..3),
        0u64..1 << 20,
    )
        .prop_map(|(dims, strides, lens, (wide, place), slack)| {
            let scale = if wide == 1 { 1i64 << 32 } else { 1 };
            let stride = [strides[0] * scale, strides[1] * scale, strides[2] * scale];
            let mut len = [lens[0], lens[1], lens[2]];
            for l in &mut len[dims..] {
                *l = 1;
            }
            let (mut lo, mut hi) = (0i128, 0i128);
            for d in 0..3 {
                let span = (len[d].max(1) as i128 - 1) * stride[d] as i128;
                if span < 0 {
                    lo += span;
                } else {
                    hi += span;
                }
            }
            let base = match place {
                0 => (-lo) as u64 + slack,
                1 => (1u64 << 63) + slack,
                _ => u64::MAX - hi as u64 - slack,
            };
            Affine::new(base, stride, len)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The incremental walker yields exactly `addr_of` over every
    /// index, and its size hint stays exact however far it has run.
    #[test]
    fn walker_matches_addr_of(a in nest_strategy(), stop in 0u64..300) {
        let want: Vec<u64> = (0..a.len()).map(|i| a.addr_of(i)).collect();
        let mut it = a.iter();
        let mut got = Vec::new();
        for taken in 0..=a.len() {
            let left = (a.len() - taken) as usize;
            prop_assert_eq!(it.size_hint(), (left, Some(left)));
            if taken == stop.min(a.len()) {
                // a clone picked up mid-walk resumes in step
                let rest: Vec<u64> = it.clone().collect();
                prop_assert_eq!(&rest[..], &want[taken as usize..]);
            }
            match it.next() {
                Some(addr) => got.push(addr),
                None => prop_assert_eq!(taken, a.len()),
            }
        }
        prop_assert_eq!(it.next(), None);
        prop_assert_eq!(it.size_hint(), (0, Some(0)));
        prop_assert_eq!(got, want);
    }

    /// `addr_of(i)` agrees with the iterator, for every element.
    #[test]
    fn addr_of_matches_iter(a in affine_strategy()) {
        let addrs: Vec<u64> = a.iter().collect();
        prop_assert_eq!(addrs.len() as u64, a.len());
        for (i, &addr) in addrs.iter().enumerate() {
            prop_assert_eq!(a.addr_of(i as u64), addr);
        }
    }

    /// Every generated address lies inside the reported span, and the
    /// span's extremes are actually touched.
    #[test]
    fn span_is_tight(a in affine_strategy()) {
        let (lo, hi) = a.span().expect("non-empty");
        let addrs: Vec<u64> = a.iter().collect();
        for &addr in &addrs {
            prop_assert!((lo..hi).contains(&addr), "{addr} outside {lo}..{hi}");
        }
        prop_assert_eq!(*addrs.iter().min().unwrap(), lo);
        prop_assert_eq!(*addrs.iter().max().unwrap(), hi - 1);
    }

    /// Traffic accounting is consistent with length and placement.
    #[test]
    fn traffic_matches_len(a in affine_strategy(), in_dram in prop::bool::ANY) {
        let src = if in_dram { DataSrc::Dram } else { DataSrc::Spad };
        let d = StreamDesc::affine(src, a);
        prop_assert_eq!(d.dram_words() + d.spad_words(), d.len());
        let ind = StreamDesc::Indirect {
            src,
            base: 0,
            scale: 1,
            index: a,
            index_src: DataSrc::Dram,
        };
        // indirect: index fetch + data fetch
        prop_assert_eq!(ind.dram_words() + ind.spad_words(), 2 * ind.len());
    }
}
