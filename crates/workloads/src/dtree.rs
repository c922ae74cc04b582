//! Random-forest inference: the multicast showcase.
//!
//! Every tree must read every point: T tree-tasks per point chunk all
//! carry the *same* input descriptor, annotated with the chunk's region
//! id. TaskStream's dispatcher groups them and serves the chunk with a
//! single DRAM read multicast to all tiles; the static design fetches
//! the chunk once per tree.

use crate::kernels::DTreeKernel;
use crate::{check_range, Workload, WorkloadInfo};
use taskstream_model::{
    CompletedTask, MemoryImage, Program, RegionId, Spawner, TaskInstance, TaskKernel, TaskType,
    TaskTypeId,
};
use ts_delta::RunReport;
use ts_mem::WriteMode;
use ts_sim::rng::SimRng;
use ts_stream::StreamDesc;

const POINTS_BASE: u64 = 0;

/// One generated decision tree (4 words per node).
#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<i64>,
}

fn gen_tree(rng: &mut SimRng, depth: usize, d: usize) -> Tree {
    // complete binary tree of the given depth; leaves hold predictions
    let inner = (1 << depth) - 1;
    let total = (1 << (depth + 1)) - 1;
    let mut nodes = Vec::with_capacity(total * 4);
    for i in 0..total {
        if i < inner {
            nodes.extend_from_slice(&[
                rng.index(d) as i64,
                rng.range_i64(-50, 51),
                (2 * i + 1) as i64,
                (2 * i + 2) as i64,
            ]);
        } else {
            nodes.extend_from_slice(&[-1, rng.range_i64(0, 16), 0, 0]);
        }
    }
    Tree { nodes }
}

fn tree_predict(tree: &Tree, pt: &[i64]) -> i64 {
    let mut node = 0usize;
    loop {
        let feat = tree.nodes[node * 4];
        let thresh = tree.nodes[node * 4 + 1];
        if feat < 0 {
            return thresh;
        }
        node = if pt[feat as usize] <= thresh {
            tree.nodes[node * 4 + 2] as usize
        } else {
            tree.nodes[node * 4 + 3] as usize
        };
    }
}

/// A seeded random-forest inference instance.
#[derive(Debug, Clone)]
pub struct DTree {
    /// Trees in the forest.
    pub trees: usize,
    /// Points to classify.
    pub points: usize,
    /// Feature dimension.
    pub d: usize,
    /// Points per chunk (multicast group granularity).
    pub chunk: usize,
    forest: Vec<Tree>,
    data: Vec<i64>,
    preds_ref: Vec<i64>, // trees * points
}

impl DTree {
    /// Builds a forest of `trees` trees with depths in `[2, max_depth]`
    /// over `points` points of dimension `d`, processed `chunk` points
    /// per task.
    pub fn new(
        trees: usize,
        points: usize,
        d: usize,
        max_depth: usize,
        chunk: usize,
        seed: u64,
    ) -> Self {
        assert!(
            trees > 0 && points > 0 && d > 0 && chunk > 0,
            "degenerate forest"
        );
        assert!(max_depth >= 2, "trees need depth >= 2");
        let mut rng = SimRng::seed(seed ^ 0xD7EE);
        let forest: Vec<Tree> = (0..trees)
            .map(|_| {
                let depth = 2 + rng.index(max_depth - 1);
                gen_tree(&mut rng, depth, d)
            })
            .collect();
        let data: Vec<i64> = (0..points * d).map(|_| rng.range_i64(-100, 101)).collect();
        let mut preds_ref = Vec::with_capacity(trees * points);
        for tree in &forest {
            for p in 0..points {
                preds_ref.push(tree_predict(tree, &data[p * d..(p + 1) * d]));
            }
        }
        DTree {
            trees,
            points,
            d,
            chunk,
            forest,
            data,
            preds_ref,
        }
    }

    /// Test-sized instance.
    pub fn tiny(seed: u64) -> Self {
        Self::new(6, 64, 4, 4, 32, seed)
    }

    /// Evaluation-sized instance.
    pub fn small(seed: u64) -> Self {
        Self::new(32, 2048, 32, 3, 256, seed)
    }

    fn preds_base(&self) -> u64 {
        POINTS_BASE + (self.points * self.d) as u64
    }

    fn tree_spad_base(&self, t: usize) -> u64 {
        let mut base = 0u64;
        for tree in &self.forest[..t] {
            base += tree.nodes.len() as u64;
        }
        base
    }

    fn n_chunks(&self) -> usize {
        self.points.div_ceil(self.chunk)
    }
}

struct DTreeProgram {
    wl: DTree,
}

impl Program for DTreeProgram {
    fn name(&self) -> &str {
        "dtree"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![TaskType::new(
            "dtree_infer",
            TaskKernel::native(DTreeKernel),
        )]
    }

    fn memory_image(&self) -> MemoryImage {
        let mut spad: Vec<i64> = Vec::new();
        for tree in &self.wl.forest {
            spad.extend_from_slice(&tree.nodes);
        }
        MemoryImage::new()
            .dram_segment(POINTS_BASE, self.wl.data.clone())
            .dram_segment(
                self.wl.preds_base(),
                vec![0; self.wl.trees * self.wl.points],
            )
            .spad_segment(0, spad)
    }

    fn initial(&mut self, s: &mut Spawner) {
        let d = self.wl.d as u64;
        for c in 0..self.wl.n_chunks() {
            let lo = c * self.wl.chunk;
            let pts = self.wl.chunk.min(self.wl.points - lo) as u64;
            let chunk_desc = StreamDesc::dram(POINTS_BASE + (lo as u64) * d, pts * d);
            for t in 0..self.wl.trees {
                let nodes = self.wl.forest[t].nodes.len() as u64;
                s.spawn(
                    TaskInstance::new(TaskTypeId(0))
                        .params([self.wl.d as i64])
                        .input_shared(chunk_desc.clone(), RegionId(c as u64))
                        .input_stream(StreamDesc::spad(self.wl.tree_spad_base(t), nodes))
                        .output_memory(
                            StreamDesc::dram(
                                self.wl.preds_base() + (t * self.wl.points + lo) as u64,
                                pts,
                            ),
                            WriteMode::Overwrite,
                        )
                        .work_hint(pts * d)
                        .affinity((c * self.wl.trees + t) as u64),
                );
            }
        }
    }

    fn on_complete(&mut self, _done: &CompletedTask, _s: &mut Spawner) {}
}

impl Workload for DTree {
    fn name(&self) -> &'static str {
        "dtree"
    }

    fn make_program(&self) -> Box<dyn Program> {
        Box::new(DTreeProgram { wl: self.clone() })
    }

    fn validate(&self, report: &RunReport) -> Result<(), String> {
        check_range(report, self.preds_base(), &self.preds_ref, "pred")
    }

    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "dtree",
            description: "random-forest batch inference, trees x chunks",
            pattern: "all trees share every point chunk",
            stresses: "read-sharing recovery (multicast)",
            tasks: (self.trees * self.n_chunks()) as u64,
            elements: (self.points * self.d * self.trees) as u64,
            grain: (self.chunk * self.d) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_delta::{Accelerator, DeltaConfig, Features};

    #[test]
    fn validates_on_delta_and_baseline() {
        for cfg in [DeltaConfig::delta(4), DeltaConfig::static_parallel(4)] {
            let w = DTree::tiny(1);
            let mut p = w.make_program();
            let r = Accelerator::new(cfg).run(p.as_mut()).unwrap();
            w.validate(&r).unwrap();
        }
    }

    #[test]
    fn multicast_reduces_point_reads() {
        let run = |multicast: bool| {
            let w = DTree::tiny(6);
            let mut p = w.make_program();
            let r = Accelerator::new(DeltaConfig::delta(4).with_features(Features {
                work_aware: true,
                pipelining: true,
                multicast,
            }))
            .run(p.as_mut())
            .unwrap();
            w.validate(&r).unwrap();
            r.counters.dram.read_words
        };
        let with = run(true);
        let without = run(false);
        assert!(
            with < without,
            "multicast reads {with} should undercut unicast {without}"
        );
    }

    #[test]
    fn trees_have_varied_depth() {
        let w = DTree::small(0);
        let sizes: Vec<usize> = w.forest.iter().map(|t| t.nodes.len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max > min, "all trees identical, no path-length variance");
    }
}
