//! Native kernels for data-dependent computations.
//!
//! These model fabric configurations whose *control* is data-dependent
//! (sorting networks, tree walkers, nearest-centroid search) and
//! therefore cannot be expressed as a static-rate dataflow graph: each
//! provides an exact functional result plus an element-rate cycle cost
//! (see DESIGN.md's substitution notes). The streaming two-way merge
//! lives in `taskstream_model::MergeKernel`.

use taskstream_model::{NativeKernel, NativeOutcome, Value};

/// Sorts one chunk in-fabric. Cost model: a systolic bitonic sorter
/// with `log n` lanes of comparators sustains `n·⌈log₂n⌉/2 + n` cycles
/// per chunk.
#[derive(Debug, Clone, Copy, Default)]
pub struct SortKernel;

impl NativeKernel for SortKernel {
    fn name(&self) -> &str {
        "sort_chunk"
    }

    fn input_count(&self) -> usize {
        1
    }

    fn output_count(&self) -> usize {
        1
    }

    fn run(&self, _params: &[Value], inputs: &[Vec<Value>]) -> NativeOutcome {
        let mut out = inputs[0].clone();
        out.sort_unstable();
        let n = out.len() as u64;
        let log = (64 - n.max(1).leading_zeros() as u64).max(1);
        let cycles = (n * log) / 2 + n;
        NativeOutcome {
            outputs: vec![out],
            compute_cycles: cycles,
        }
    }
}

/// Decision-tree batch inference over one tree.
///
/// Inputs: port 0 = points (`n × d`, point-major), port 1 = tree nodes
/// (`[feature, threshold, left, right]` per node; `feature == -1` marks
/// a leaf whose `threshold` is the prediction). Param 0 = `d`.
/// Output: one prediction per point. Cost: two cycles per traversal
/// step (node fetch + compare).
#[derive(Debug, Clone, Copy, Default)]
pub struct DTreeKernel;

impl NativeKernel for DTreeKernel {
    fn name(&self) -> &str {
        "dtree_infer"
    }

    fn input_count(&self) -> usize {
        2
    }

    fn output_count(&self) -> usize {
        1
    }

    fn run(&self, params: &[Value], inputs: &[Vec<Value>]) -> NativeOutcome {
        let d = params[0] as usize;
        assert!(d > 0, "dimension param must be positive");
        let points = &inputs[0];
        let nodes = &inputs[1];
        assert_eq!(points.len() % d, 0, "points not a multiple of d");
        assert_eq!(nodes.len() % 4, 0, "tree nodes are 4 words each");
        let n_pts = points.len() / d;
        let mut preds = Vec::with_capacity(n_pts);
        let mut steps = 0u64;
        for p in 0..n_pts {
            let pt = &points[p * d..(p + 1) * d];
            let mut node = 0usize;
            loop {
                steps += 1;
                let feat = nodes[node * 4];
                let thresh = nodes[node * 4 + 1];
                if feat < 0 {
                    preds.push(thresh);
                    break;
                }
                let go_left = pt[feat as usize] <= thresh;
                node = if go_left {
                    nodes[node * 4 + 2] as usize
                } else {
                    nodes[node * 4 + 3] as usize
                };
            }
        }
        NativeOutcome {
            outputs: vec![preds],
            compute_cycles: steps * 2,
        }
    }
}

/// K-means assignment over one point chunk.
///
/// Inputs: port 0 = points (`n × d`), port 1 = centroids (`k × d`).
/// Params: `[d, k]`. Outputs: port 0 = one centroid index per point;
/// port 1 = partial update `[sum(k=0,dim=0..d), …, sum(k=K-1), count(0..k)]`
/// of length `k·d + k`. Cost: one cycle per (point, centroid, dim)
/// distance term.
#[derive(Debug, Clone, Copy, Default)]
pub struct KMeansAssignKernel;

impl NativeKernel for KMeansAssignKernel {
    fn name(&self) -> &str {
        "kmeans_assign"
    }

    fn input_count(&self) -> usize {
        2
    }

    fn output_count(&self) -> usize {
        2
    }

    fn run(&self, params: &[Value], inputs: &[Vec<Value>]) -> NativeOutcome {
        let d = params[0] as usize;
        let k = params[1] as usize;
        assert!(d > 0 && k > 0, "d and k must be positive");
        let points = &inputs[0];
        let cents = &inputs[1];
        assert_eq!(points.len() % d, 0, "points not a multiple of d");
        assert_eq!(cents.len(), k * d, "centroid stream must be k*d");
        let n_pts = points.len() / d;
        let mut assign = Vec::with_capacity(n_pts);
        let mut partial = vec![0i64; k * d + k];
        for p in 0..n_pts {
            let pt = &points[p * d..(p + 1) * d];
            let mut best = 0usize;
            let mut best_dist = i64::MAX;
            for c in 0..k {
                let mut dist = 0i64;
                for dim in 0..d {
                    let diff = pt[dim].wrapping_sub(cents[c * d + dim]);
                    dist = dist.wrapping_add(diff.wrapping_mul(diff));
                }
                if dist < best_dist {
                    best_dist = dist;
                    best = c;
                }
            }
            assign.push(best as i64);
            for dim in 0..d {
                partial[best * d + dim] = partial[best * d + dim].wrapping_add(pt[dim]);
            }
            partial[k * d + best] += 1;
        }
        NativeOutcome {
            outputs: vec![assign, partial],
            compute_cycles: (n_pts * k * d) as u64 + 1,
        }
    }
}

/// Segmented sparse-row dot products against a shared dense vector.
///
/// Inputs: port 0 = CSR values for a chunk of rows, port 1 = matching
/// column indices, port 2 = the dense vector (multicast-shared across
/// the chunk tasks). Params: one row length per row in the chunk — the
/// *dynamic shape* that varies task to task. Output: one dot product
/// per row. Cost: one multiply-accumulate per non-zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct SparseRowKernel;

impl NativeKernel for SparseRowKernel {
    fn name(&self) -> &str {
        "sparse_rows"
    }

    fn input_count(&self) -> usize {
        3
    }

    fn output_count(&self) -> usize {
        1
    }

    fn run(&self, params: &[Value], inputs: &[Vec<Value>]) -> NativeOutcome {
        let (vals, cols, x) = (&inputs[0], &inputs[1], &inputs[2]);
        assert_eq!(vals.len(), cols.len(), "values and columns must pair up");
        let nnz: usize = params.iter().map(|&l| l as usize).sum();
        assert_eq!(vals.len(), nnz, "row lengths must cover the chunk");
        let mut dots = Vec::with_capacity(params.len());
        let mut k = 0;
        for &len in params {
            let mut acc = 0i64;
            for _ in 0..len {
                acc = acc.wrapping_add(vals[k].wrapping_mul(x[cols[k] as usize]));
                k += 1;
            }
            dots.push(acc);
        }
        NativeOutcome {
            outputs: vec![dots],
            compute_cycles: (nnz as u64).max(1),
        }
    }
}

/// Sorted-set intersection size (graph-mining primitive).
///
/// Inputs: two sorted streams. Output: one word, `|A ∩ B|`. Cost: the
/// two-pointer walk, one comparison per cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntersectKernel;

impl NativeKernel for IntersectKernel {
    fn name(&self) -> &str {
        "intersect"
    }

    fn input_count(&self) -> usize {
        2
    }

    fn output_count(&self) -> usize {
        1
    }

    fn run(&self, _params: &[Value], inputs: &[Vec<Value>]) -> NativeOutcome {
        let (a, b) = (&inputs[0], &inputs[1]);
        let (mut i, mut j) = (0usize, 0usize);
        let mut count = 0i64;
        let mut steps = 0u64;
        while i < a.len() && j < b.len() {
            steps += 1;
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        NativeOutcome {
            outputs: vec![vec![count]],
            compute_cycles: steps.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The result cache keys a native kernel by its name alone (the
    /// executable salt covers its code). That stays alias-free only
    /// while no native kernel carries configuration in its struct, so
    /// all six must stay zero-sized.
    #[test]
    fn native_kernels_carry_no_state() {
        fn size<K: NativeKernel>() -> usize {
            std::mem::size_of::<K>()
        }
        assert_eq!(
            [
                size::<taskstream_model::MergeKernel>(),
                size::<SortKernel>(),
                size::<DTreeKernel>(),
                size::<KMeansAssignKernel>(),
                size::<SparseRowKernel>(),
                size::<IntersectKernel>(),
            ],
            [0; 6]
        );
    }

    #[test]
    fn sort_kernel_sorts() {
        let r = SortKernel.run(&[], &[vec![5, 1, 4, 2, 3]]);
        assert_eq!(r.outputs[0], vec![1, 2, 3, 4, 5]);
        assert!(r.compute_cycles >= 5);
    }

    #[test]
    fn sort_kernel_empty_chunk() {
        let r = SortKernel.run(&[], &[vec![]]);
        assert!(r.outputs[0].is_empty());
    }

    #[test]
    fn dtree_kernel_walks_tree() {
        // root: feature 0 <= 5 ? node1 : node2; node1 -> leaf 100,
        // node2 -> leaf 200
        let nodes = vec![
            0, 5, 1, 2, //
            -1, 100, 0, 0, //
            -1, 200, 0, 0,
        ];
        let points = vec![3, 9, 7, 1]; // d=2: points (3,9) and (7,1)
        let r = DTreeKernel.run(&[2], &[points, nodes]);
        assert_eq!(r.outputs[0], vec![100, 200]);
        assert_eq!(r.compute_cycles, 2 * 2 * 2); // two points, two steps
    }

    #[test]
    fn kmeans_kernel_assigns_nearest() {
        // centroids at (0,0) and (10,10); points near each
        let cents = vec![0, 0, 10, 10];
        let points = vec![1, 1, 9, 9, 0, 2];
        let r = KMeansAssignKernel.run(&[2, 2], &[points, cents]);
        assert_eq!(r.outputs[0], vec![0, 1, 0]);
        // partials: cluster0 sums (1+0, 1+2), cluster1 sums (9,9),
        // counts (2,1)
        assert_eq!(r.outputs[1], vec![1, 3, 9, 9, 2, 1]);
    }

    #[test]
    fn sparse_row_kernel_dots_each_row() {
        // rows of lengths 2, 0, 1 against x = [1, 10, 100]
        let r = SparseRowKernel.run(
            &[2, 0, 1],
            &[vec![3, 4, 5], vec![0, 2, 1], vec![1, 10, 100]],
        );
        assert_eq!(r.outputs[0], vec![3 + 400, 0, 50]);
        assert_eq!(r.compute_cycles, 3);
    }

    #[test]
    #[should_panic(expected = "row lengths must cover")]
    fn sparse_row_kernel_rejects_short_lengths() {
        let _ = SparseRowKernel.run(&[1], &[vec![1, 2], vec![0, 1], vec![1, 1]]);
    }

    #[test]
    fn intersect_kernel_counts_common_elements() {
        let r = IntersectKernel.run(&[], &[vec![1, 3, 5, 7], vec![2, 3, 5, 8, 9]]);
        assert_eq!(r.outputs[0], vec![2]);
        assert!(r.compute_cycles >= 4);
    }

    #[test]
    fn intersect_kernel_empty_sides() {
        let r = IntersectKernel.run(&[], &[vec![], vec![1, 2]]);
        assert_eq!(r.outputs[0], vec![0]);
    }

    #[test]
    #[should_panic(expected = "multiple of d")]
    fn kmeans_rejects_ragged_points() {
        let _ = KMeansAssignKernel.run(&[2, 1], &[vec![1, 2, 3], vec![0, 0]]);
    }
}
