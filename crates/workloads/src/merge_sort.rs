//! Merge sort: a static task *tree* connected by pipes.
//!
//! Leaves sort chunks in-fabric; every inner node is a streaming
//! two-way merge whose inputs are the pipes of its children. With
//! TaskStream, adjacent tree levels are co-scheduled and stream
//! tile-to-tile; the static-parallel design serializes every level
//! through DRAM.
//!
//! The piped tree is authored declaratively as a [`ts_graph::GraphSpec`]
//! — a `PerElement` sort stage feeding a `Tree { fanout: 2 }` merge
//! stage over one pipe edge — which is the canonical way to write
//! workloads in this suite. The hand-assembled `Spawner` original is
//! kept behind a test-only path, and a differential test proves the
//! compiled program is byte-identical to it (same task types, memory
//! image, spawn order and pipe ids), so the goldens cannot move.
//!
//! The [`MergeSort::staged`] variant builds the same tree *without*
//! pipes: every node writes a DRAM staging buffer and each merge is
//! spawned from `on_complete` once both children land. Pipe-bound
//! tasks are pinned to their routes and can never migrate, so the
//! piped tree is invisible to work stealing — the staged tree is the
//! steal-friendly twin used to exercise stealing on a task tree.

use crate::kernels::SortKernel;
use crate::{check_range, Workload, WorkloadInfo};
use taskstream_model::{
    CompletedTask, MemoryImage, MergeKernel, Program, Spawner, TaskInstance, TaskKernel, TaskType,
    TaskTypeId,
};
use ts_delta::RunReport;
use ts_graph::{GraphSpec, Link, SpawnRule, Stage, TaskSketch};
use ts_mem::WriteMode;
use ts_sim::rng::SimRng;
use ts_stream::StreamDesc;

#[cfg(test)]
use taskstream_model::PipeId;

const IN_BASE: u64 = 0;

/// A seeded merge-sort instance of `leaves × chunk` elements
/// (`leaves` must be a power of two).
#[derive(Debug, Clone)]
pub struct MergeSort {
    /// Number of leaf chunks (power of two).
    pub leaves: usize,
    /// Elements per leaf chunk.
    pub chunk: usize,
    /// Serialize levels through DRAM staging buffers instead of pipes.
    staged: bool,
    /// The input, the zeroed output and (staged) the zeroed staging
    /// buffers, built once and shared by every program.
    image: MemoryImage,
    sorted_ref: Vec<i64>,
}

impl MergeSort {
    /// Builds an instance.
    ///
    /// # Panics
    ///
    /// Panics unless `leaves` is a power of two and both dimensions are
    /// positive.
    pub fn new(leaves: usize, chunk: usize, seed: u64) -> Self {
        assert!(leaves.is_power_of_two() && leaves > 0, "leaves must be 2^k");
        assert!(chunk > 0, "chunk must be positive");
        let mut rng = SimRng::seed(seed ^ 0x50_47);
        let n = leaves * chunk;
        let data: Vec<i64> = (0..n).map(|_| rng.range_i64(-10_000, 10_000)).collect();
        let mut sorted_ref = data.clone();
        sorted_ref.sort_unstable();
        let mut w = MergeSort {
            leaves,
            chunk,
            staged: false,
            image: MemoryImage::new(),
            sorted_ref,
        };
        w.image = MemoryImage::new()
            .dram_segment(IN_BASE, data)
            .dram_segment(w.out_base(), vec![0; n]);
        w
    }

    /// The steal-friendly twin: the same tree with every level
    /// serialized through DRAM staging buffers and each merge spawned
    /// from `on_complete` once both children complete. No task touches
    /// a pipe, so every queued task is a legal steal candidate.
    pub fn staged(leaves: usize, chunk: usize, seed: u64) -> Self {
        let mut wl = Self::new(leaves, chunk, seed);
        wl.staged = true;
        let levels = leaves.ilog2() as usize + 1;
        let stage = (wl.stage_base(), vec![0; wl.n() * levels]);
        wl.image = wl.image.dram_segment(stage.0, stage.1);
        wl
    }

    /// Test-sized instance.
    pub fn tiny(seed: u64) -> Self {
        Self::new(4, 32, seed)
    }

    /// Evaluation-sized instance.
    pub fn small(seed: u64) -> Self {
        Self::new(4, 2048, seed)
    }

    /// Total elements.
    pub fn n(&self) -> usize {
        self.leaves * self.chunk
    }

    fn out_base(&self) -> u64 {
        IN_BASE + self.n() as u64
    }

    fn task_count(&self) -> usize {
        2 * self.leaves - 1
    }

    /// First DRAM word of the staged variant's staging region.
    fn stage_base(&self) -> u64 {
        self.out_base() + self.n() as u64
    }

    /// Elements a heap node covers: the root (node 1) spans `n`, each
    /// level below halves it down to `chunk` at the leaves.
    fn span_of(&self, node: usize) -> u64 {
        (self.n() >> node.ilog2()) as u64
    }

    /// The staged variant's DRAM buffer for a heap node. Each tree
    /// level packs to exactly `n` words, so level `l` starts at
    /// `stage_base + l * n` and node `i` sits at its within-level
    /// offset.
    fn stage_buf(&self, node: usize) -> u64 {
        let level = node.ilog2();
        let within = (node - (1 << level)) as u64;
        self.stage_base() + u64::from(level) * self.n() as u64 + within * self.span_of(node)
    }

    /// The piped tree as a declarative graph: a `PerElement` stage of
    /// leaf sorts feeding a binary `Tree` of streaming merges over one
    /// pipe edge. Leaf `i` reads its chunk and pipes onward; a merge at
    /// tree level `l` spans `chunk << l` words, pipes to its parent
    /// with that capacity, and the root sinks the sorted array to
    /// DRAM. The degenerate single-leaf instance expands to a tree
    /// with no merges, so the leaf writes the output directly.
    fn graph_spec(&self) -> GraphSpec {
        let chunk = self.chunk as u64;
        let leaves = self.leaves;
        let n = self.n() as u64;
        let out_base = self.out_base();
        let mut g = GraphSpec::new("merge_sort").memory(self.image.clone());
        let sort = g.stage(Stage::new(
            "sort_chunk",
            TaskKernel::native(SortKernel),
            SpawnRule::PerElement { count: leaves },
            move |cx| {
                let sk = TaskSketch::new()
                    .input_stream(StreamDesc::dram(IN_BASE + cx.index as u64 * chunk, chunk));
                if leaves == 1 {
                    sk.output_memory(StreamDesc::dram(out_base, chunk), WriteMode::Overwrite)
                } else {
                    sk.output_downstream().affinity(cx.index as u64)
                }
            },
        ));
        let merge = g.stage(Stage::new(
            "merge2",
            TaskKernel::native(MergeKernel),
            SpawnRule::Tree { fanout: 2 },
            move |cx| {
                let span = chunk << cx.level;
                let sk = TaskSketch::new()
                    .input_upstream(0)
                    .input_upstream(1)
                    .work_hint(span)
                    .affinity(leaves as u64 + cx.index as u64);
                if cx.is_root {
                    sk.output_memory(StreamDesc::dram(out_base, n), WriteMode::Overwrite)
                } else {
                    sk.output_downstream_cap(span)
                }
            },
        ));
        g.edge(sort, merge, Link::Pipe { capacity: chunk });
        g
    }
}

/// The hand-assembled original of the piped tree, kept test-only so
/// the differential test can prove [`MergeSort::graph_spec`] compiles
/// to the byte-identical program.
#[cfg(test)]
struct MergeSortProgram {
    wl: MergeSort,
}

#[cfg(test)]
impl Program for MergeSortProgram {
    fn name(&self) -> &str {
        "merge_sort"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![
            TaskType::new("sort_chunk", TaskKernel::native(SortKernel)),
            TaskType::new("merge2", TaskKernel::native(MergeKernel)),
        ]
    }

    fn memory_image(&self) -> MemoryImage {
        self.wl.image.clone()
    }

    fn initial(&mut self, s: &mut Spawner) {
        let chunk = self.wl.chunk as u64;
        if self.wl.leaves == 1 {
            // degenerate tree: the single sort writes straight to DRAM
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_stream(StreamDesc::dram(IN_BASE, chunk))
                    .output_memory(
                        StreamDesc::dram(self.wl.out_base(), chunk),
                        WriteMode::Overwrite,
                    ),
            );
            return;
        }
        // level 0: leaf sorts, each feeding a pipe
        let mut level: Vec<PipeId> = Vec::with_capacity(self.wl.leaves);
        for leaf in 0..self.wl.leaves {
            let pipe = s.pipe(chunk);
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_stream(StreamDesc::dram(IN_BASE + leaf as u64 * chunk, chunk))
                    .output_pipe(pipe)
                    .affinity(leaf as u64),
            );
            level.push(pipe);
        }
        // inner levels: pairwise merges
        let mut span = chunk;
        let mut affinity = self.wl.leaves as u64;
        while level.len() > 1 {
            span *= 2;
            let is_root = level.len() == 2;
            let mut next: Vec<PipeId> = Vec::with_capacity(level.len() / 2);
            for pair in level.chunks(2) {
                let t = TaskInstance::new(TaskTypeId(1))
                    .input_pipe(pair[0])
                    .input_pipe(pair[1])
                    .work_hint(span)
                    .affinity(affinity);
                affinity += 1;
                if is_root {
                    s.spawn(t.output_memory(
                        StreamDesc::dram(self.wl.out_base(), self.wl.n() as u64),
                        WriteMode::Overwrite,
                    ));
                } else {
                    let pipe = s.pipe(span);
                    s.spawn(t.output_pipe(pipe));
                    next.push(pipe);
                }
            }
            level = next;
        }
    }

    fn on_complete(&mut self, _done: &CompletedTask, _s: &mut Spawner) {}
}

/// The staged tree: heap-indexed nodes (root 1, node `i`'s children
/// `2i`/`2i+1`, leaves `L..2L`), each writing its own DRAM staging
/// buffer. Merges spawn from `on_complete` once both children are
/// down, which both enforces the level ordering without pipes and
/// gives the what-if DAG real spawn edges.
struct StagedMergeSortProgram {
    wl: MergeSort,
    /// Completed children per internal heap node.
    child_done: Vec<u8>,
}

impl StagedMergeSortProgram {
    /// The merge task for internal heap node `node`, reading both
    /// children's staged buffers; the root writes the final output.
    fn merge_task(&self, node: usize) -> TaskInstance {
        let wl = &self.wl;
        let (lo, hi) = (2 * node, 2 * node + 1);
        let t = TaskInstance::new(TaskTypeId(1))
            .input_stream(StreamDesc::dram(wl.stage_buf(lo), wl.span_of(lo)))
            .input_stream(StreamDesc::dram(wl.stage_buf(hi), wl.span_of(hi)))
            .work_hint(wl.span_of(node))
            .params(vec![node as i64])
            .affinity(node as u64);
        let out = if node == 1 {
            StreamDesc::dram(wl.out_base(), wl.n() as u64)
        } else {
            StreamDesc::dram(wl.stage_buf(node), wl.span_of(node))
        };
        t.output_memory(out, WriteMode::Overwrite)
    }
}

impl Program for StagedMergeSortProgram {
    fn name(&self) -> &str {
        "merge_sort_staged"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![
            TaskType::new("sort_chunk", TaskKernel::native(SortKernel)),
            TaskType::new("merge2", TaskKernel::native(MergeKernel)),
        ]
    }

    fn memory_image(&self) -> MemoryImage {
        self.wl.image.clone()
    }

    fn initial(&mut self, s: &mut Spawner) {
        let wl = &self.wl;
        let chunk = wl.chunk as u64;
        if wl.leaves == 1 {
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_stream(StreamDesc::dram(IN_BASE, chunk))
                    .output_memory(StreamDesc::dram(wl.out_base(), chunk), WriteMode::Overwrite),
            );
            return;
        }
        for leaf in 0..wl.leaves {
            let node = wl.leaves + leaf;
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_stream(StreamDesc::dram(IN_BASE + leaf as u64 * chunk, chunk))
                    .output_memory(
                        StreamDesc::dram(wl.stage_buf(node), chunk),
                        WriteMode::Overwrite,
                    )
                    .params(vec![node as i64])
                    .affinity(node as u64),
            );
        }
    }

    fn on_complete(&mut self, done: &CompletedTask, s: &mut Spawner) {
        let Some(&node) = done.params.first() else {
            return;
        };
        let node = node as usize;
        if node <= 1 {
            return; // the root wrote the final output
        }
        let parent = node / 2;
        self.child_done[parent] += 1;
        if self.child_done[parent] == 2 {
            s.spawn(self.merge_task(parent));
        }
    }
}

impl Workload for MergeSort {
    fn name(&self) -> &'static str {
        if self.staged {
            "merge_sort_staged"
        } else {
            "merge_sort"
        }
    }

    fn make_program(&self) -> Box<dyn Program> {
        if self.staged {
            Box::new(StagedMergeSortProgram {
                wl: self.clone(),
                child_done: vec![0; 2 * self.leaves],
            })
        } else {
            Box::new(
                self.graph_spec()
                    .compile()
                    .expect("merge_sort GraphSpec is valid"),
            )
        }
    }

    fn validate(&self, report: &RunReport) -> Result<(), String> {
        check_range(report, self.out_base(), &self.sorted_ref, "sorted")
    }

    fn info(&self) -> WorkloadInfo {
        let (name, description, pattern, stresses) = if self.staged {
            (
                "merge_sort_staged",
                "leaf sorts + merge tree staged through DRAM",
                "dynamic task tree spawned level by level",
                "work stealing over migratable tasks",
            )
        } else {
            (
                "merge_sort",
                "leaf sorts + streaming merge tree over pipes",
                "static task tree with pipelined levels",
                "pipelined inter-task dependences",
            )
        };
        WorkloadInfo {
            name,
            description,
            pattern,
            stresses,
            tasks: self.task_count() as u64,
            elements: self.n() as u64,
            grain: self.chunk as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_delta::{Accelerator, DeltaConfig, Features};

    #[test]
    fn graph_spec_matches_hand_assembled_program() {
        for (leaves, chunk) in [(1, 16), (2, 8), (4, 32), (4, 2048), (8, 16)] {
            let w = MergeSort::new(leaves, chunk, 8);
            let mut hand = MergeSortProgram { wl: w.clone() };
            let mut compiled = w.make_program();
            assert_eq!(
                crate::program_signature(&mut hand),
                crate::program_signature(compiled.as_mut()),
                "leaves={leaves} chunk={chunk}"
            );
        }
    }

    #[test]
    fn graph_spec_runs_identically_to_hand_assembled() {
        let w = MergeSort::tiny(8);
        let run = |p: &mut dyn Program| Accelerator::new(DeltaConfig::delta(4)).run(p).unwrap();
        let hand = run(&mut MergeSortProgram { wl: w.clone() });
        let compiled = run(w.make_program().as_mut());
        assert_eq!(hand.cycles, compiled.cycles);
        assert_eq!(
            hand.dram_range(w.out_base(), w.n()),
            compiled.dram_range(w.out_base(), w.n())
        );
    }

    #[test]
    fn single_leaf_is_just_a_sort() {
        let w = MergeSort::new(1, 16, 3);
        let mut p = w.make_program();
        let r = Accelerator::new(DeltaConfig::delta(2))
            .run(p.as_mut())
            .unwrap();
        w.validate(&r).unwrap();
    }

    #[test]
    fn validates_on_delta_and_baseline() {
        for cfg in [DeltaConfig::delta(4), DeltaConfig::static_parallel(4)] {
            let w = MergeSort::tiny(8);
            let mut p = w.make_program();
            let r = Accelerator::new(cfg).run(p.as_mut()).unwrap();
            w.validate(&r).unwrap();
        }
    }

    #[test]
    fn pipelining_beats_serialized_levels() {
        let run = |pipelining: bool| {
            let w = MergeSort::new(4, 512, 5);
            let mut p = w.make_program();
            let r = Accelerator::new(DeltaConfig {
                features: Features {
                    pipelining,
                    multicast: true,
                },
                ..DeltaConfig::delta(8)
            })
            .run(p.as_mut())
            .unwrap();
            w.validate(&r).unwrap();
            r.cycles
        };
        let piped = run(true);
        let serial = run(false);
        assert!(
            piped < serial,
            "pipelined {piped} should beat serialized {serial}"
        );
    }

    #[test]
    fn task_count_is_tree_size() {
        assert_eq!(MergeSort::new(8, 4, 0).task_count(), 15);
    }

    #[test]
    fn staged_variant_validates_and_is_steal_friendly() {
        use taskstream_model::Policy;

        for (leaves, chunk) in [(1, 16), (4, 32), (8, 16)] {
            let w = MergeSort::staged(leaves, chunk, 11);
            let mut p = w.make_program();
            let r = Accelerator::new(DeltaConfig::delta(4))
                .run(p.as_mut())
                .unwrap();
            w.validate(&r).unwrap();
        }
        // static placement piles leaves onto colliding tiles; with
        // stealing on, idle tiles must be able to pull them over —
        // the piped tree can't do this (pipes pin tasks), the staged
        // tree exists exactly so that it can.
        let w = MergeSort::staged(16, 32, 11);
        let mut p = w.make_program();
        let cfg = DeltaConfig {
            policy: Policy::StaticHash,
            work_stealing: true,
            prefetch_depth: 1,
            ..DeltaConfig::delta(4)
        };
        let r = Accelerator::new(cfg).run(p.as_mut()).unwrap();
        w.validate(&r).unwrap();
        assert!(
            r.counters.dispatch.steals > 0,
            "no steal landed on the staged tree"
        );
    }
}
