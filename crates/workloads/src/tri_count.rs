//! Triangle counting: per-edge set-intersection tasks.
//!
//! The graph-mining pattern: for every edge `(u, v)` with `u < v`, count
//! `|N(u) ∩ N(v)|` over sorted adjacency lists and sum across edges.
//! Tasks are *tiny and wildly skewed* (cost `|N(u)| + |N(v)|`, power-law
//! degrees), making this the stress test for task-creation overhead and
//! work-aware balancing; the intersection itself is a data-dependent
//! two-pointer walk (a native kernel, like merge).

use crate::kernels::IntersectKernel;
use crate::{check_range, Workload, WorkloadInfo};
use taskstream_model::{
    CompletedTask, MemoryImage, Program, Spawner, TaskInstance, TaskKernel, TaskType, TaskTypeId,
};
use ts_delta::RunReport;
use ts_mem::WriteMode;
use ts_sim::rng::SimRng;
use ts_stream::StreamDesc;

const ADJ_BASE: u64 = 0;

/// A seeded triangle-counting instance over an undirected power-law
/// graph with sorted adjacency lists.
#[derive(Debug, Clone)]
pub struct TriCount {
    /// Vertex count.
    pub n: usize,
    /// Edges per counting task.
    pub edges_per_task: usize,
    offsets: Vec<usize>,
    /// Adjacency lists and zeroed counts, built once and shared by
    /// every program.
    image: MemoryImage,
    /// Edges (u, v) with u < v, in task order.
    edges: Vec<(usize, usize)>,
    counts_ref: Vec<i64>,
    total_ref: i64,
}

impl TriCount {
    /// Builds a random undirected graph of `n` vertices with power-law
    /// degrees up to `max_deg`, and computes the reference counts.
    pub fn new(n: usize, max_deg: u64, edges_per_task: usize, seed: u64) -> Self {
        assert!(n > 2 && edges_per_task > 0, "degenerate instance");
        let mut rng = SimRng::seed(seed ^ 0x7C1);
        // sample undirected edges, dedup
        let mut pairs = std::collections::BTreeSet::new();
        for u in 0..n {
            let deg = rng.power_law(max_deg, 1.5) as usize;
            for _ in 0..deg {
                let mut v = rng.index(n);
                if v == u {
                    v = (v + 1) % n;
                }
                pairs.insert((u.min(v), u.max(v)));
            }
        }
        // CSR with sorted neighbours (both directions)
        let mut nbrs: Vec<Vec<i64>> = vec![Vec::new(); n];
        for &(u, v) in &pairs {
            nbrs[u].push(v as i64);
            nbrs[v].push(u as i64);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adj = Vec::new();
        offsets.push(0);
        for list in &mut nbrs {
            list.sort_unstable();
            adj.extend_from_slice(list);
            offsets.push(adj.len());
        }

        let edges: Vec<(usize, usize)> = pairs.into_iter().collect();
        // reference: per-edge intersection sizes
        let counts_ref: Vec<i64> = edges
            .iter()
            .map(|&(u, v)| {
                let (mut i, mut j) = (0, 0);
                let (a, b) = (&nbrs[u], &nbrs[v]);
                let mut c = 0i64;
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            c += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                c
            })
            .collect();
        let total_ref = counts_ref.iter().sum::<i64>() / 3; // each triangle hits 3 edges
        let mut w = TriCount {
            n,
            edges_per_task,
            offsets,
            image: MemoryImage::new(),
            edges,
            counts_ref,
            total_ref,
        };
        w.image = MemoryImage::new()
            .dram_segment(ADJ_BASE, adj)
            .dram_segment(w.counts_base(), vec![0; w.m()]);
        w
    }

    /// Test-sized instance.
    pub fn tiny(seed: u64) -> Self {
        Self::new(64, 16, 8, seed)
    }

    /// Evaluation-sized instance.
    pub fn small(seed: u64) -> Self {
        Self::new(512, 64, 16, seed)
    }

    /// Edge count (undirected, deduplicated).
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Reference triangle total.
    pub fn triangles(&self) -> i64 {
        self.total_ref
    }

    /// Words of adjacency (each undirected edge listed at both ends).
    fn adj_len(&self) -> usize {
        self.offsets[self.n]
    }

    fn counts_base(&self) -> u64 {
        ADJ_BASE + self.adj_len() as u64
    }
}

struct TriCountProgram {
    wl: TriCount,
}

impl Program for TriCountProgram {
    fn name(&self) -> &str {
        "tri_count"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![TaskType::new(
            "intersect",
            TaskKernel::native(IntersectKernel),
        )]
    }

    fn memory_image(&self) -> MemoryImage {
        self.wl.image.clone()
    }

    fn initial(&mut self, s: &mut Spawner) {
        // one task per edge; chunking happens through affinity so the
        // static baseline partitions comparably
        for (e, &(u, v)) in self.wl.edges.iter().enumerate() {
            let (ul, uh) = (self.wl.offsets[u] as u64, self.wl.offsets[u + 1] as u64);
            let (vl, vh) = (self.wl.offsets[v] as u64, self.wl.offsets[v + 1] as u64);
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_stream(StreamDesc::dram(ADJ_BASE + ul, uh - ul))
                    .input_stream(StreamDesc::dram(ADJ_BASE + vl, vh - vl))
                    .output_memory(
                        StreamDesc::dram(self.wl.counts_base() + e as u64, 1),
                        WriteMode::Overwrite,
                    )
                    .affinity((e / self.wl.edges_per_task) as u64),
            );
        }
    }

    fn on_complete(&mut self, _done: &CompletedTask, _s: &mut Spawner) {}
}

impl Workload for TriCount {
    fn name(&self) -> &'static str {
        "tri_count"
    }

    fn make_program(&self) -> Box<dyn Program> {
        Box::new(TriCountProgram { wl: self.clone() })
    }

    fn validate(&self, report: &RunReport) -> Result<(), String> {
        check_range(report, self.counts_base(), &self.counts_ref, "edge_count")?;
        let total: i64 = report
            .dram_range(self.counts_base(), self.m())
            .iter()
            .sum::<i64>()
            / 3;
        if total != self.total_ref {
            return Err(format!(
                "triangle total {total} != reference {}",
                self.total_ref
            ));
        }
        Ok(())
    }

    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "tri_count",
            description: "per-edge adjacency intersection (graph mining)",
            pattern: "many tiny skewed tasks",
            stresses: "task overhead + work-aware balancing",
            tasks: self.m() as u64,
            elements: self.adj_len() as u64,
            grain: (2 * self.adj_len() / self.m().max(1)) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_delta::{Accelerator, DeltaConfig};

    #[test]
    fn reference_is_self_consistent() {
        let w = TriCount::tiny(1);
        // brute-force triangle count
        let mut adj = vec![vec![false; w.n]; w.n];
        for &(u, v) in &w.edges {
            adj[u][v] = true;
            adj[v][u] = true;
        }
        let mut brute = 0i64;
        for a in 0..w.n {
            for b in (a + 1)..w.n {
                if !adj[a][b] {
                    continue;
                }
                for (ac, bc) in adj[a].iter().zip(&adj[b]).skip(b + 1) {
                    if *ac && *bc {
                        brute += 1;
                    }
                }
            }
        }
        assert_eq!(w.triangles(), brute);
    }

    #[test]
    fn validates_on_delta_and_baseline() {
        for cfg in [DeltaConfig::delta(4), DeltaConfig::static_parallel(4)] {
            let w = TriCount::tiny(5);
            let mut p = w.make_program();
            let r = Accelerator::new(cfg).run(p.as_mut()).unwrap();
            w.validate(&r).unwrap();
        }
    }

    #[test]
    fn task_grain_is_small_and_skewed() {
        let w = TriCount::small(2);
        let i = w.info();
        assert!(i.grain < 200, "grain {} too coarse", i.grain);
        assert!(i.tasks > 500);
    }
}
