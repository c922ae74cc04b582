//! Reduction tree with data-dependent fanout.
//!
//! A sum-reduction over an *irregular* tree: leaves fold input chunks
//! into per-node partials, and every internal node folds its
//! children's partials — but the fanout of each node (2–4) is derived
//! from the data itself, so the tree's shape is unknowable to a static
//! schedule. Authored on the declarative frontend as a `PerElement`
//! leaf stage plus a [`ts_graph::SpawnRule::DataDependent`] node stage
//! triggered over [`ts_graph::Link::Staged`] edges (including a
//! node → node self-edge): each completion decrements the parent's
//! outstanding-children counter and the parent spawns the moment the
//! last child lands, regardless of arrival order.
//!
//! Every node writes its partial to a DRAM cell, so validation checks
//! the *entire* tree of partials, not just the root.

use crate::{check_range, Workload, WorkloadInfo};
use taskstream_model::{MemoryImage, Program, TaskKernel, Value};
use ts_delta::RunReport;
use ts_dfg::{Dfg, DfgBuilder};
use ts_graph::{GraphSpec, Link, SpawnRule, Stage, TaskSketch};
use ts_mem::WriteMode;
use ts_sim::rng::SimRng;
use ts_stream::StreamDesc;

const IN_BASE: u64 = 0;

/// A seeded irregular-reduction instance.
#[derive(Debug, Clone)]
pub struct ReduceTree {
    /// Leaf chunks.
    pub leaves: usize,
    /// Elements per leaf chunk.
    pub chunk: usize,
    /// The input and the zeroed per-node buffers, built once and shared
    /// by every program.
    image: MemoryImage,
    /// Fanout per internal node, in node-creation order.
    fanouts: Vec<usize>,
    /// First child id per internal node (children are consecutive).
    child_lo: Vec<usize>,
    /// Parent *internal index* per node id; `-1` marks the root.
    parent: Vec<i64>,
    /// Reference partial per node id (leaves first, then internals).
    node_ref: Vec<i64>,
}

impl ReduceTree {
    /// Builds an instance. The tree is grown bottom-up: the frontier
    /// of pending nodes is grouped left-to-right into runs whose width
    /// is derived from the leading child's partial sum (2–4 children),
    /// so the shape depends on the generated data.
    pub fn new(leaves: usize, chunk: usize, seed: u64) -> Self {
        assert!(leaves > 0 && chunk > 0, "empty reduction instance");
        let mut rng = SimRng::seed(seed ^ 0x4E_D7);
        let data: Vec<i64> = (0..leaves * chunk)
            .map(|_| rng.range_i64(-100, 100))
            .collect();
        let mut node_ref: Vec<i64> = data
            .chunks(chunk)
            .map(|c| c.iter().fold(0i64, |a, &b| a.wrapping_add(b)))
            .collect();

        let mut fanouts = Vec::new();
        let mut child_lo = Vec::new();
        let mut parent = vec![-1i64; leaves];
        let mut frontier: Vec<usize> = (0..leaves).collect();
        let mut next_id = leaves;
        while frontier.len() > 1 {
            let mut next = Vec::new();
            let mut i = 0;
            while i < frontier.len() {
                let rem = frontier.len() - i;
                // data-dependent width, never stranding a lone child
                let f = if rem <= 4 {
                    rem
                } else if rem == 5 {
                    3
                } else {
                    2 + node_ref[frontier[i]].rem_euclid(3) as usize
                };
                let internal = fanouts.len() as i64;
                fanouts.push(f);
                child_lo.push(frontier[i]);
                let sum = frontier[i..i + f]
                    .iter()
                    .fold(0i64, |a, &c| a.wrapping_add(node_ref[c]));
                for &c in &frontier[i..i + f] {
                    parent[c] = internal;
                }
                node_ref.push(sum);
                parent.push(-1);
                next.push(next_id);
                next_id += 1;
                i += f;
            }
            frontier = next;
        }
        let mut w = ReduceTree {
            leaves,
            chunk,
            image: MemoryImage::new(),
            fanouts,
            child_lo,
            parent,
            node_ref,
        };
        w.image = MemoryImage::new()
            .dram_segment(IN_BASE, data)
            .dram_segment(w.buf_base(), vec![0; w.total_nodes()]);
        w
    }

    /// Test-sized instance.
    pub fn tiny(seed: u64) -> Self {
        Self::new(12, 16, seed)
    }

    /// Evaluation-sized instance.
    pub fn small(seed: u64) -> Self {
        Self::new(256, 256, seed)
    }

    /// Total elements.
    pub fn n(&self) -> usize {
        self.leaves * self.chunk
    }

    fn total_nodes(&self) -> usize {
        self.leaves + self.fanouts.len()
    }

    fn buf_base(&self) -> u64 {
        IN_BASE + self.n() as u64
    }

    /// The reduction as a declarative graph. The leaf stage is static;
    /// the node stage spawns at run time, its scratch state holding one
    /// outstanding-children counter per internal node.
    fn graph_spec(&self) -> GraphSpec {
        let chunk = self.chunk as u64;
        let leaves = self.leaves;
        let buf_base = self.buf_base();
        let fanouts = self.fanouts.clone();
        let child_lo = self.child_lo.clone();
        let parent = self.parent.clone();
        let mut g = GraphSpec::new("reduce_tree").memory(self.image.clone());
        let leaf = g.stage(Stage::new(
            "leaf_sum",
            TaskKernel::dfg(sum_dfg("leaf_sum")),
            SpawnRule::PerElement { count: leaves },
            move |cx| {
                TaskSketch::new()
                    .params([cx.index as Value])
                    .input_stream(StreamDesc::dram(IN_BASE + cx.index as u64 * chunk, chunk))
                    .output_memory(
                        StreamDesc::dram(buf_base + cx.index as u64, 1),
                        WriteMode::Overwrite,
                    )
                    .affinity(cx.index as u64)
            },
        ));
        let node = g.stage(Stage::new(
            "node_sum",
            TaskKernel::dfg(sum_dfg("node_sum")),
            SpawnRule::DataDependent {
                state: self.fanouts.iter().map(|&f| f as Value).collect(),
                ready: std::sync::Arc::new(move |done, state| {
                    let id = done.params[0] as usize;
                    let p = parent[id];
                    if p < 0 {
                        return Vec::new(); // the root has no parent
                    }
                    state[p as usize] -= 1;
                    if state[p as usize] == 0 {
                        vec![p as usize]
                    } else {
                        Vec::new()
                    }
                }),
            },
            move |cx| {
                let node_id = (leaves + cx.index) as u64;
                let lo = child_lo[cx.index] as u64;
                let f = fanouts[cx.index] as u64;
                TaskSketch::new()
                    .params([node_id as Value])
                    .input_stream(StreamDesc::dram(buf_base + lo, f))
                    .output_memory(
                        StreamDesc::dram(buf_base + node_id, 1),
                        WriteMode::Overwrite,
                    )
                    .affinity(node_id)
            },
        ));
        g.edge(leaf, node, Link::Staged);
        g.edge(node, node, Link::Staged);
        g
    }
}

/// The fold kernel both stages share: running sum, emitted at end.
fn sum_dfg(name: &str) -> Dfg {
    let mut b = DfgBuilder::new(name);
    let x = b.input();
    let s = b.acc(x);
    b.output_on_last(s);
    b.finish().expect("sum kernel is valid")
}

impl Workload for ReduceTree {
    fn name(&self) -> &'static str {
        "reduce_tree"
    }

    fn make_program(&self) -> Box<dyn Program> {
        Box::new(
            self.graph_spec()
                .compile()
                .expect("reduce_tree GraphSpec is valid"),
        )
    }

    fn validate(&self, report: &RunReport) -> Result<(), String> {
        check_range(report, self.buf_base(), &self.node_ref, "partial")
    }

    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "reduce_tree",
            description: "irregular sum tree, fanout 2-4 derived from data",
            pattern: "data-dependent reduction tree",
            stresses: "dynamic spawning, completion-order independence",
            tasks: self.total_nodes() as u64,
            elements: self.n() as u64,
            grain: self.chunk as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_delta::oracle::{check_equivalence, execute_untimed};
    use ts_delta::{Accelerator, DeltaConfig};

    #[test]
    fn tree_shape_is_irregular_and_consistent() {
        let w = ReduceTree::new(64, 8, 3);
        assert!(
            w.fanouts.iter().any(|&f| f != w.fanouts[0]),
            "expected mixed fanouts, got uniform {}",
            w.fanouts[0]
        );
        assert!(w.fanouts.iter().all(|&f| (2..=4).contains(&f)));
        // the root partial is the whole input's sum
        let total = w.image.dram[0]
            .1
            .iter()
            .fold(0i64, |a, &b| a.wrapping_add(b));
        assert_eq!(*w.node_ref.last().unwrap(), total);
        // every non-root node has a parent; exactly one root
        let roots = w.parent.iter().filter(|&&p| p < 0).count();
        assert_eq!(roots, 1);
    }

    #[test]
    fn validates_on_delta_and_baseline() {
        for cfg in [DeltaConfig::delta(4), DeltaConfig::static_parallel(4)] {
            let w = ReduceTree::tiny(8);
            let mut p = w.make_program();
            let r = Accelerator::new(cfg).run(p.as_mut()).unwrap();
            w.validate(&r).unwrap();
        }
    }

    #[test]
    fn agrees_with_untimed_oracle() {
        let w = ReduceTree::tiny(5);
        let mut p = w.make_program();
        let timed = Accelerator::new(DeltaConfig::delta(4))
            .run(p.as_mut())
            .unwrap();
        let oracle = execute_untimed(w.make_program().as_mut()).unwrap();
        check_equivalence(&timed, &oracle).unwrap();
    }

    #[test]
    fn single_leaf_is_just_a_fold() {
        let w = ReduceTree::new(1, 16, 4);
        assert!(w.fanouts.is_empty());
        let mut p = w.make_program();
        let r = Accelerator::new(DeltaConfig::delta(2))
            .run(p.as_mut())
            .unwrap();
        w.validate(&r).unwrap();
    }

    #[test]
    fn spawns_every_internal_node_exactly_once() {
        let w = ReduceTree::new(32, 4, 9);
        let mut p = w.make_program();
        let r = Accelerator::new(DeltaConfig::delta(4))
            .run(p.as_mut())
            .unwrap();
        w.validate(&r).unwrap();
        assert_eq!(r.counters.dispatch.tasks_spawned as usize, w.total_nodes());
    }
}
