//! Property tests: the mesh delivers everything, exactly once, to
//! exactly the requested destinations.

#![allow(clippy::needless_range_loop)] // node indexes parallel count arrays

use proptest::prelude::*;
use ts_noc::Mesh;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random traffic: every injected flit is eventually delivered to
    /// each of its destinations exactly once.
    #[test]
    fn all_traffic_delivered(
        w in 1usize..5,
        h in 1usize..5,
        msgs in prop::collection::vec((0usize..25, prop::collection::vec(0usize..25, 1..4)), 1..30),
    ) {
        let n = w * h;
        let mut mesh: Mesh<usize> = Mesh::new(w, h, 8);
        let mut expected = vec![0usize; n]; // deliveries per node
        let mut pending: Vec<(usize, Vec<usize>, usize)> = Vec::new();
        for (tag, (src, dsts)) in msgs.into_iter().enumerate() {
            let src = src % n;
            let mut dsts: Vec<usize> = dsts.into_iter().map(|d| d % n).collect();
            dsts.sort_unstable();
            dsts.dedup();
            pending.push((src, dsts, tag));
        }

        let mut delivered = vec![0usize; n];
        let mut cycle = 0;
        while !pending.is_empty() || !mesh.is_idle() {
            // inject as many as backpressure allows
            pending.retain(|(src, dsts, tag)| {
                if mesh.inject(*src, dsts, *tag).is_ok() {
                    for &d in dsts {
                        expected[d] += 1;
                    }
                    false
                } else {
                    true
                }
            });
            mesh.tick();
            for node in 0..n {
                while mesh.eject(node).is_some() {
                    delivered[node] += 1;
                }
            }
            cycle += 1;
            prop_assert!(cycle < 10_000, "mesh wedged");
        }
        for node in 0..n {
            while mesh.eject(node).is_some() {
                delivered[node] += 1;
            }
        }
        prop_assert_eq!(delivered, expected);
    }

    /// Tree multicast on an idle mesh costs at least the farthest
    /// destination's distance and at most the sum of all unicast
    /// distances (it can only share hops, never add them).
    #[test]
    fn multicast_hops_bounded(
        w in 2usize..6,
        h in 2usize..6,
        src in 0usize..36,
        dsts in prop::collection::vec(0usize..36, 1..6),
    ) {
        let n = w * h;
        let src = src % n;
        let mut dsts: Vec<usize> = dsts.into_iter().map(|d| d % n).collect();
        dsts.sort_unstable();
        dsts.dedup();
        let mut mesh: Mesh<u8> = Mesh::new(w, h, 8);
        mesh.inject(src, &dsts, 1).unwrap();
        let mut cycles = 0;
        while !mesh.is_idle() {
            mesh.tick();
            cycles += 1;
            prop_assert!(cycles < 10_000);
        }
        for &d in &dsts {
            prop_assert_eq!(mesh.eject(d), Some(1), "destination {} missed", d);
        }
        let hops = mesh.counters().flit_hops;
        let sum: usize = dsts.iter().map(|&d| mesh.distance(src, d)).sum();
        let max = dsts.iter().map(|&d| mesh.distance(src, d)).max().unwrap();
        prop_assert!(hops as usize <= sum, "tree used {} > unicast sum {}", hops, sum);
        prop_assert!(hops as usize >= max, "tree used {} < farthest {}", hops, max);
    }

    /// Unicast latency on an idle mesh equals Manhattan distance plus
    /// one ejection cycle.
    #[test]
    fn idle_latency_is_distance(w in 1usize..6, h in 1usize..6, src in 0usize..36, dst in 0usize..36) {
        let n = w * h;
        let (src, dst) = (src % n, dst % n);
        let mut mesh: Mesh<u8> = Mesh::new(w, h, 4);
        mesh.inject(src, &[dst], 1).unwrap();
        let dist = mesh.distance(src, dst);
        let mut cycles = 0;
        while mesh.eject_len(dst) == 0 {
            mesh.tick();
            cycles += 1;
            prop_assert!(cycles < 1000);
        }
        prop_assert_eq!(cycles, dist + 1);
    }
}
