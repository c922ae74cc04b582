//! Breadth-first search: dynamically spawned per-vertex tasks.
//!
//! The quintessential task-parallel irregular workload: tasks are
//! created as the frontier is discovered, their grain is a vertex's
//! degree (power-law — heavy skew), and each level is a phase barrier.
//! Each task streams one vertex's adjacency list, gathers the distance
//! of every neighbour, filters the unvisited ones, scatter-writes their
//! level, and reports them to the host, which spawns the next level's
//! tasks at quiescence.

use crate::{check_range, Workload, WorkloadInfo};
use std::collections::VecDeque;
use std::iter::repeat_n;
use taskstream_model::{
    CompletedTask, MemoryImage, Program, Spawner, TaskInstance, TaskKernel, TaskType, TaskTypeId,
};
use ts_delta::RunReport;
use ts_dfg::{Dfg, DfgBuilder};
use ts_mem::WriteMode;
use ts_sim::rng::SimRng;
use ts_stream::{Affine, DataSrc, StreamDesc};

const ADJ_BASE: u64 = 0;

/// A seeded BFS instance over a random power-law graph.
#[derive(Debug, Clone)]
pub struct Bfs {
    /// Vertex count.
    pub n: usize,
    offsets: Vec<usize>,
    /// Adjacency and initial distances, built once and shared by every
    /// program; the baseline's adds the sweep's source-vertex list.
    image: MemoryImage,
    baseline_image: MemoryImage,
    dist_ref: Vec<i64>,
}

impl Bfs {
    /// Builds a graph of `n` vertices with power-law out-degrees up to
    /// `max_deg` and runs the reference BFS from vertex 0.
    pub fn new(n: usize, max_deg: u64, seed: u64) -> Self {
        assert!(n > 1, "graph needs at least two vertices");
        let mut rng = SimRng::seed(seed ^ 0xBF5);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adj: Vec<i64> = Vec::new();
        offsets.push(0);
        for v in 0..n {
            let deg = rng.power_law(max_deg, 1.5) as usize;
            for _ in 0..deg {
                let mut u = rng.index(n);
                if u == v {
                    u = (u + 1) % n;
                }
                adj.push(u as i64);
            }
            offsets.push(adj.len());
        }
        // make vertex 0 reach a good fraction of the graph: link a chain
        // of hubs
        for h in 0..(n / 64).max(1) {
            let hub = (h * 61) % n;
            let pos = offsets[hub];
            if offsets[hub + 1] > pos {
                adj[pos] = ((h + 1) * 61 % n) as i64;
            }
        }

        // reference BFS
        let mut dist_ref = vec![-1i64; n];
        dist_ref[0] = 0;
        let mut q = VecDeque::from([0usize]);
        while let Some(v) = q.pop_front() {
            for &nb in &adj[offsets[v]..offsets[v + 1]] {
                let u = nb as usize;
                if dist_ref[u] < 0 {
                    dist_ref[u] = dist_ref[v] + 1;
                    q.push_back(u);
                }
            }
        }
        let mut w = Bfs {
            n,
            offsets,
            image: MemoryImage::new(),
            baseline_image: MemoryImage::new(),
            dist_ref,
        };
        let mut dist = vec![-1i64; n];
        dist[0] = 0;
        w.image = MemoryImage::new()
            .dram_segment(ADJ_BASE, adj)
            .dram_segment(w.dist_base(), dist);
        w.with_baseline_image()
    }

    /// Test-sized instance.
    pub fn tiny(seed: u64) -> Self {
        Self::new(128, 24, seed)
    }

    /// Evaluation-sized instance.
    pub fn small(seed: u64) -> Self {
        Self::new(1024, 96, seed)
    }

    /// Edge count.
    pub fn m(&self) -> usize {
        self.offsets[self.n]
    }

    /// The dynamic program's image plus, above `dist`, each edge's
    /// source vertex, which the static sweep streams.
    fn with_baseline_image(mut self) -> Self {
        let us: Vec<i64> = (0..self.n)
            .flat_map(|v| repeat_n(v as i64, self.offsets[v + 1] - self.offsets[v]))
            .collect();
        self.baseline_image = self
            .image
            .clone()
            .dram_segment(self.dist_base() + self.n as u64, us);
        self
    }

    fn dist_base(&self) -> u64 {
        ADJ_BASE + self.m() as u64
    }
}

/// Frontier-expansion kernel: filter unvisited neighbours.
fn expand_dfg() -> Dfg {
    let mut b = DfgBuilder::new("bfs_expand");
    let nb = b.input(); // neighbour ids
    let dv = b.input(); // gathered dist[neighbour]
    let unseen = b.constant(-1);
    let fresh = b.eq(dv, unseen);
    let level = b.param(0); // this task's level + 1
    b.output_when(nb, fresh); // port 0: new frontier (scatter addresses)
    b.output_when(level, fresh); // port 1: their distance
    b.finish().expect("bfs kernel is valid")
}

struct BfsProgram {
    wl: Bfs,
    discovered: Vec<bool>,
    next_frontier: Vec<usize>,
    level: i64,
}

impl BfsProgram {
    fn spawn_vertex(&self, v: usize, level: i64, s: &mut Spawner) {
        let lo = self.wl.offsets[v];
        let hi = self.wl.offsets[v + 1];
        let deg = (hi - lo) as u64;
        if deg == 0 {
            return;
        }
        let nbrs = Affine::contiguous(ADJ_BASE + lo as u64, deg);
        s.spawn(
            TaskInstance::new(TaskTypeId(0))
                .params([level + 1])
                .input_stream(StreamDesc::affine(DataSrc::Dram, nbrs))
                .input_stream(StreamDesc::Indirect {
                    src: DataSrc::Dram,
                    base: self.wl.dist_base(),
                    scale: 1,
                    index: nbrs,
                    index_src: DataSrc::Dram,
                })
                .output_discard() // port 0 held by the scatter
                .output_scatter(
                    DataSrc::Dram,
                    self.wl.dist_base(),
                    1,
                    0,
                    WriteMode::Overwrite,
                )
                .work_hint(2 * deg)
                .affinity(v as u64),
        );
    }
}

impl Program for BfsProgram {
    fn name(&self) -> &str {
        "bfs"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![TaskType::new("bfs_expand", TaskKernel::dfg(expand_dfg()))]
    }

    fn memory_image(&self) -> MemoryImage {
        self.wl.image.clone()
    }

    fn initial(&mut self, s: &mut Spawner) {
        self.discovered = vec![false; self.wl.n];
        self.discovered[0] = true;
        self.level = 0;
        self.spawn_vertex(0, 0, s);
    }

    fn on_complete(&mut self, done: &CompletedTask, _s: &mut Spawner) {
        for &nb in &done.outputs[0] {
            let nb = nb as usize;
            if !self.discovered[nb] {
                self.discovered[nb] = true;
                self.next_frontier.push(nb);
            }
        }
    }

    fn on_quiescent(&mut self, s: &mut Spawner) -> bool {
        if self.next_frontier.is_empty() {
            return false;
        }
        self.level += 1;
        let frontier = std::mem::take(&mut self.next_frontier);
        for v in frontier {
            self.spawn_vertex(v, self.level, s);
        }
        true
    }
}

/// The static-parallel formulation: a design without dynamic task
/// creation sweeps *every* edge each level (`dist[u] == L && dist[v] < 0
/// → dist[v] = L+1`), the standard dense level-synchronous BFS on
/// static dataflow hardware.
struct BfsSweepProgram {
    wl: Bfs,
    level: i64,
    changed: bool,
    chunk: usize,
}

impl BfsSweepProgram {
    fn spawn_sweep(&self, s: &mut Spawner) {
        let m = self.wl.m();
        let us_base = self.wl.dist_base() + self.wl.n as u64;
        for (c, lo) in (0..m).step_by(self.chunk).enumerate() {
            let len = self.chunk.min(m - lo) as u64;
            let u_idx = Affine::contiguous(us_base + lo as u64, len);
            let v_idx = Affine::contiguous(ADJ_BASE + lo as u64, len);
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .params([self.level])
                    .input_stream(StreamDesc::Indirect {
                        src: DataSrc::Dram,
                        base: self.wl.dist_base(),
                        scale: 1,
                        index: u_idx,
                        index_src: DataSrc::Dram,
                    })
                    .input_stream(StreamDesc::Indirect {
                        src: DataSrc::Dram,
                        base: self.wl.dist_base(),
                        scale: 1,
                        index: v_idx,
                        index_src: DataSrc::Dram,
                    })
                    .input_stream(StreamDesc::dram(ADJ_BASE + lo as u64, len))
                    .output_discard() // port 0 held by the scatter
                    .output_scatter(
                        DataSrc::Dram,
                        self.wl.dist_base(),
                        1,
                        0,
                        WriteMode::Overwrite,
                    )
                    .work_hint(3 * len)
                    .affinity(c as u64),
            );
        }
    }
}

/// Dense sweep kernel: emit `(v, L+1)` where `dist[u] == L` and
/// `dist[v] < 0`.
fn sweep_dfg() -> Dfg {
    let mut b = DfgBuilder::new("bfs_sweep");
    let du = b.input(); // gathered dist[u]
    let dv = b.input(); // gathered dist[v]
    let v = b.input(); // destination vertex ids
    let level = b.param(0);
    let on_frontier = b.eq(du, level);
    let unseen = b.constant(-1);
    let fresh = b.eq(dv, unseen);
    let take = b.and(on_frontier, fresh);
    let one = b.constant(1);
    let next = b.add(level, one);
    b.output_when(v, take); // port 0: scatter addresses
    b.output_when(next, take); // port 1: new distances
    b.finish().expect("sweep kernel is valid")
}

impl Program for BfsSweepProgram {
    fn name(&self) -> &str {
        "bfs_sweep"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![TaskType::new("bfs_sweep", TaskKernel::dfg(sweep_dfg()))]
    }

    fn memory_image(&self) -> MemoryImage {
        self.wl.baseline_image.clone()
    }

    fn initial(&mut self, s: &mut Spawner) {
        self.level = 0;
        self.changed = false;
        self.spawn_sweep(s);
    }

    fn on_complete(&mut self, done: &CompletedTask, _s: &mut Spawner) {
        if !done.outputs[0].is_empty() {
            self.changed = true;
        }
    }

    fn on_quiescent(&mut self, s: &mut Spawner) -> bool {
        if !self.changed || self.level >= self.wl.n as i64 {
            return false;
        }
        self.changed = false;
        self.level += 1;
        self.spawn_sweep(s);
        true
    }
}

impl Workload for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn make_program(&self) -> Box<dyn Program> {
        Box::new(BfsProgram {
            wl: self.clone(),
            discovered: Vec::new(),
            next_frontier: Vec::new(),
            level: 0,
        })
    }

    fn make_baseline_program(&self) -> Box<dyn Program> {
        Box::new(BfsSweepProgram {
            wl: self.clone(),
            level: 0,
            changed: false,
            chunk: 512,
        })
    }

    fn validate(&self, report: &RunReport) -> Result<(), String> {
        check_range(report, self.dist_base(), &self.dist_ref, "dist")
    }

    fn info(&self) -> WorkloadInfo {
        let reachable = self.dist_ref.iter().filter(|&&d| d >= 0).count() as u64;
        WorkloadInfo {
            name: "bfs",
            description: "level-synchronous BFS, task per frontier vertex",
            pattern: "dynamically spawned tasks, phase barriers",
            stresses: "load balance under degree skew, spawning",
            tasks: reachable,
            elements: self.m() as u64,
            grain: (self.m() as u64) / (self.n as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_delta::{Accelerator, DeltaConfig};

    #[test]
    fn reference_reaches_a_useful_fraction() {
        let w = Bfs::tiny(1);
        let reached = w.dist_ref.iter().filter(|&&d| d >= 0).count();
        assert!(
            reached > w.n / 4,
            "BFS from 0 reached only {reached}/{}",
            w.n
        );
    }

    #[test]
    fn validates_on_delta() {
        let w = Bfs::tiny(7);
        let mut p = w.make_program();
        let r = Accelerator::new(DeltaConfig::delta(4))
            .run(p.as_mut())
            .unwrap();
        w.validate(&r).unwrap();
    }

    #[test]
    fn validates_on_baseline() {
        let w = Bfs::tiny(13);
        let mut p = w.make_program();
        let r = Accelerator::new(DeltaConfig::static_parallel(4))
            .run(p.as_mut())
            .unwrap();
        w.validate(&r).unwrap();
    }

    #[test]
    fn unreachable_vertices_stay_unvisited() {
        let w = Bfs::tiny(21);
        if w.dist_ref.iter().all(|&d| d >= 0) {
            return; // everything reachable in this instance
        }
        let mut p = w.make_program();
        let r = Accelerator::new(DeltaConfig::delta(2))
            .run(p.as_mut())
            .unwrap();
        for (v, &d) in w.dist_ref.iter().enumerate() {
            if d < 0 {
                assert_eq!(r.dram(w.dist_base() + v as u64), -1, "vertex {v}");
            }
        }
    }
}
