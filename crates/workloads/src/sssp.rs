//! Single-source shortest paths: label-correcting relaxation with
//! dynamically spawned per-vertex tasks.
//!
//! Like BFS but weighted: whenever a vertex's distance improves, a task
//! is spawned to relax its out-edges (streaming its adjacency and
//! weights, gathering `dist[v]`, scatter-`min`-ing improvements). Task
//! grain is the vertex's out-degree — power-law skewed — and rounds are
//! phase barriers, so the workload stresses both work-aware balancing
//! and dynamic task creation.

use crate::{check_range, Workload, WorkloadInfo};
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
/// "Infinity" far above any reachable distance but safe to add weights
/// to without overflow.
const INF: i64 = i64::MAX / 4;

/// A seeded SSSP instance over a random power-law digraph.
#[derive(Debug, Clone)]
pub struct Sssp {
    /// Vertex count.
    pub n: usize,
    offsets: Vec<usize>,
    /// Adjacency, weights and initial distances, built once and shared
    /// by every program; the baseline's adds the sweep's source-vertex
    /// list.
    image: MemoryImage,
    baseline_image: MemoryImage,
    dist_ref: Vec<i64>,
}

impl Sssp {
    /// Builds a graph of `n` vertices with power-law out-degrees up to
    /// `max_deg`, positive weights, and a spanning chain for
    /// reachability; computes the Bellman–Ford reference from vertex 0.
    pub fn new(n: usize, max_deg: u64, seed: u64) -> Self {
        assert!(n > 1, "graph needs at least two vertices");
        let mut rng = SimRng::seed(seed ^ 0x555);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adj: Vec<i64> = Vec::new();
        let mut weights: Vec<i64> = Vec::new();
        offsets.push(0);
        for v in 0..n {
            let deg = rng.power_law(max_deg, 1.5) as usize;
            // spanning chain edge first
            if v + 1 < n {
                adj.push((v + 1) as i64);
                weights.push(rng.range_i64(1, 64));
            }
            for _ in 0..deg {
                let mut u = rng.index(n);
                if u == v {
                    u = (u + 1) % n;
                }
                adj.push(u as i64);
                weights.push(rng.range_i64(1, 64));
            }
            offsets.push(adj.len());
        }

        // Bellman–Ford reference
        let mut dist_ref = vec![INF; n];
        dist_ref[0] = 0;
        loop {
            let mut changed = false;
            for v in 0..n {
                if dist_ref[v] >= INF {
                    continue;
                }
                for e in offsets[v]..offsets[v + 1] {
                    let u = adj[e] as usize;
                    let cand = dist_ref[v] + weights[e];
                    if cand < dist_ref[u] {
                        dist_ref[u] = cand;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let mut w = Sssp {
            n,
            offsets,
            image: MemoryImage::new(),
            baseline_image: MemoryImage::new(),
            dist_ref,
        };
        let mut dist = vec![INF; n];
        dist[0] = 0;
        w.image = MemoryImage::new()
            .dram_segment(ADJ_BASE, adj)
            .dram_segment(w.weights_base(), weights)
            .dram_segment(w.dist_base(), dist);
        w.with_baseline_image()
    }

    /// Test-sized instance.
    pub fn tiny(seed: u64) -> Self {
        Self::new(96, 16, seed)
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

    fn weights_base(&self) -> u64 {
        ADJ_BASE + self.m() as u64
    }

    fn dist_base(&self) -> u64 {
        self.weights_base() + self.m() as u64
    }
}

/// Relaxation kernel: `cand = dist[u] + w`; improved if `cand < dist[v]`.
/// `dist[u]` is the spawning task's parameter (the improvement that
/// triggered this relaxation).
fn relax_dfg() -> Dfg {
    let mut b = DfgBuilder::new("sssp_relax");
    let nb = b.input(); // neighbour ids
    let w = b.input(); // edge weights
    let dv = b.input(); // gathered dist[neighbour]
    let du = b.param(0);
    let cand = b.add(du, w);
    let better = b.lt(cand, dv);
    b.output_when(nb, better); // port 0: scatter addresses
    b.output_when(cand, better); // port 1: improved distances
    b.finish().expect("relax kernel is valid")
}

struct SsspProgram {
    wl: Sssp,
    /// Best distance the host has spawned a relaxation for.
    best: Vec<i64>,
    /// `(vertex, distance)` improvements found this round.
    improved: Vec<(usize, i64)>,
    rounds: usize,
}

impl SsspProgram {
    fn spawn_vertex(&self, v: usize, dist_v: i64, s: &mut Spawner) {
        let lo = self.wl.offsets[v];
        let hi = self.wl.offsets[v + 1];
        let deg = (hi - lo) as u64;
        if deg == 0 {
            return;
        }
        let nbrs = Affine::contiguous(ADJ_BASE + lo as u64, deg);
        s.spawn(
            TaskInstance::new(TaskTypeId(0))
                .params([dist_v])
                .input_stream(StreamDesc::affine(DataSrc::Dram, nbrs))
                .input_stream(StreamDesc::dram(self.wl.weights_base() + lo as u64, deg))
                .input_stream(StreamDesc::Indirect {
                    src: DataSrc::Dram,
                    base: self.wl.dist_base(),
                    scale: 1,
                    index: nbrs,
                    index_src: DataSrc::Dram,
                })
                .output_discard() // port 0 held by the scatter
                .output_scatter(DataSrc::Dram, self.wl.dist_base(), 1, 0, WriteMode::Min)
                .work_hint(3 * deg)
                .affinity(v as u64),
        );
    }
}

impl Program for SsspProgram {
    fn name(&self) -> &str {
        "sssp"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![TaskType::new("sssp_relax", TaskKernel::dfg(relax_dfg()))]
    }

    fn memory_image(&self) -> MemoryImage {
        self.wl.image.clone()
    }

    fn initial(&mut self, s: &mut Spawner) {
        self.best = vec![INF; self.wl.n];
        self.best[0] = 0;
        self.improved.clear();
        self.rounds = 0;
        self.spawn_vertex(0, 0, s);
    }

    fn on_complete(&mut self, done: &CompletedTask, _s: &mut Spawner) {
        for (nb, cand) in done.outputs[0].iter().zip(&done.outputs[1]) {
            let nb = *nb as usize;
            if *cand < self.best[nb] {
                self.best[nb] = *cand;
                self.improved.push((nb, *cand));
            }
        }
    }

    fn on_quiescent(&mut self, s: &mut Spawner) -> bool {
        if self.improved.is_empty() || self.rounds >= self.wl.n {
            return false;
        }
        self.rounds += 1;
        let mut frontier = std::mem::take(&mut self.improved);
        // one relaxation per vertex per round, at its best-known distance
        frontier.sort_unstable();
        frontier.dedup_by_key(|(v, _)| *v);
        for (v, _) in frontier {
            self.spawn_vertex(v, self.best[v], s);
        }
        true
    }
}

/// The static-parallel formulation: full-edge Bellman–Ford rounds
/// (every edge relaxed every round until a round changes nothing) — a
/// design without dynamic task creation cannot follow the frontier.
struct SsspSweepProgram {
    wl: Sssp,
    changed: bool,
    rounds: usize,
    chunk: usize,
}

/// Sweep relaxation kernel: gathers both endpoints' distances.
fn sweep_relax_dfg() -> Dfg {
    let mut b = DfgBuilder::new("sssp_sweep");
    let du = b.input(); // gathered dist[u]
    let dv = b.input(); // gathered dist[v]
    let w = b.input(); // weights
    let v = b.input(); // destination ids
    let cand = b.add(du, w);
    let better = b.lt(cand, dv);
    b.output_when(v, better);
    b.output_when(cand, better);
    b.finish().expect("sweep kernel is valid")
}

impl SsspSweepProgram {
    fn spawn_round(&self, s: &mut Spawner) {
        let m = self.wl.m();
        let us_base = self.wl.dist_base() + self.wl.n as u64;
        for (c, lo) in (0..m).step_by(self.chunk).enumerate() {
            let len = self.chunk.min(m - lo) as u64;
            let u_idx = Affine::contiguous(us_base + lo as u64, len);
            let v_idx = Affine::contiguous(ADJ_BASE + lo as u64, len);
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
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
                    .input_stream(StreamDesc::dram(self.wl.weights_base() + lo as u64, len))
                    .input_stream(StreamDesc::dram(ADJ_BASE + lo as u64, len))
                    .output_discard()
                    .output_scatter(DataSrc::Dram, self.wl.dist_base(), 1, 0, WriteMode::Min)
                    .work_hint(4 * len)
                    .affinity(c as u64),
            );
        }
    }
}

impl Program for SsspSweepProgram {
    fn name(&self) -> &str {
        "sssp_sweep"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![TaskType::new(
            "sssp_sweep",
            TaskKernel::dfg(sweep_relax_dfg()),
        )]
    }

    fn memory_image(&self) -> MemoryImage {
        self.wl.baseline_image.clone()
    }

    fn initial(&mut self, s: &mut Spawner) {
        self.changed = false;
        self.rounds = 1;
        self.spawn_round(s);
    }

    fn on_complete(&mut self, done: &CompletedTask, _s: &mut Spawner) {
        if !done.outputs[0].is_empty() {
            self.changed = true;
        }
    }

    fn on_quiescent(&mut self, s: &mut Spawner) -> bool {
        if !self.changed || self.rounds >= self.wl.n {
            return false;
        }
        self.changed = false;
        self.rounds += 1;
        self.spawn_round(s);
        true
    }
}

impl Workload for Sssp {
    fn name(&self) -> &'static str {
        "sssp"
    }

    fn make_program(&self) -> Box<dyn Program> {
        Box::new(SsspProgram {
            wl: self.clone(),
            best: Vec::new(),
            improved: Vec::new(),
            rounds: 0,
        })
    }

    fn make_baseline_program(&self) -> Box<dyn Program> {
        Box::new(SsspSweepProgram {
            wl: self.clone(),
            changed: false,
            rounds: 0,
            chunk: 512,
        })
    }

    fn validate(&self, report: &RunReport) -> Result<(), String> {
        check_range(report, self.dist_base(), &self.dist_ref, "dist")
    }

    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "sssp",
            description: "label-correcting SSSP, task per improved vertex",
            pattern: "dynamically spawned tasks, fixed-point rounds",
            stresses: "load balance under degree skew, scatter-min",
            tasks: self.n as u64, // lower bound (re-relaxations add more)
            elements: self.m() as u64,
            grain: (self.m() / self.n) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_delta::{Accelerator, DeltaConfig};

    #[test]
    fn reference_chain_distances_are_finite() {
        let w = Sssp::tiny(2);
        assert!(
            w.dist_ref.iter().all(|&d| d < INF),
            "chain guarantees reachability"
        );
        assert_eq!(w.dist_ref[0], 0);
    }

    #[test]
    fn validates_on_delta() {
        let w = Sssp::tiny(3);
        let mut p = w.make_program();
        let r = Accelerator::new(DeltaConfig::delta(4))
            .run(p.as_mut())
            .unwrap();
        w.validate(&r).unwrap();
    }

    #[test]
    fn validates_on_baseline() {
        let w = Sssp::tiny(4);
        let mut p = w.make_program();
        let r = Accelerator::new(DeltaConfig::static_parallel(4))
            .run(p.as_mut())
            .unwrap();
        w.validate(&r).unwrap();
    }

    #[test]
    fn degrees_are_skewed() {
        let w = Sssp::small(1);
        let degs: Vec<usize> = (0..w.n).map(|v| w.offsets[v + 1] - w.offsets[v]).collect();
        let max = *degs.iter().max().unwrap();
        let mean = w.m() / w.n;
        assert!(max > 4 * mean, "max degree {max} vs mean {mean}");
    }
}
