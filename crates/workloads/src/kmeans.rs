//! K-means clustering: iterative assignment with shared centroids.
//!
//! Every assignment task reads the (small) centroid array — a shared
//! region served by one multicast per dispatch group. Tiny per-cluster
//! *update* tasks recompute centroids between rounds, so every memory
//! write in the algorithm stays on the accelerator.

use crate::kernels::KMeansAssignKernel;
use crate::{check_range, Workload, WorkloadInfo};
use taskstream_model::{
    CompletedTask, MemoryImage, Program, RegionId, Spawner, TaskInstance, TaskKernel, TaskType,
    TaskTypeId,
};
use ts_delta::RunReport;
use ts_dfg::{Dfg, DfgBuilder};
use ts_mem::WriteMode;
use ts_sim::rng::SimRng;
use ts_stream::StreamDesc;

const POINTS_BASE: u64 = 0;
const ASSIGN_TYPE: TaskTypeId = TaskTypeId(0);
const UPDATE_TYPE: TaskTypeId = TaskTypeId(1);

/// A seeded k-means instance (fixed iteration count, integer
/// arithmetic, deterministic).
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Points.
    pub n: usize,
    /// Dimensions.
    pub d: usize,
    /// Clusters.
    pub k: usize,
    /// Lloyd iterations.
    pub iters: usize,
    /// Points per assignment task.
    pub chunk: usize,
    /// Points, initial centroids and zeroed outputs, built once and
    /// shared by every program.
    image: MemoryImage,
    init_cents: Vec<i64>,
    cents_ref: Vec<i64>,
    assign_ref: Vec<i64>,
}

impl KMeans {
    /// Builds an instance and runs the integer-Lloyd reference.
    pub fn new(n: usize, d: usize, k: usize, iters: usize, chunk: usize, seed: u64) -> Self {
        assert!(
            n >= k && k > 0 && d > 0 && iters > 0 && chunk > 0,
            "degenerate kmeans"
        );
        let mut rng = SimRng::seed(seed ^ 0x63A9);
        // clustered data around k true centers
        let centers: Vec<i64> = (0..k * d).map(|_| rng.range_i64(-500, 501)).collect();
        let mut data = Vec::with_capacity(n * d);
        for _ in 0..n {
            let c = rng.index(k);
            for dim in 0..d {
                data.push(centers[c * d + dim] + rng.range_i64(-40, 41));
            }
        }
        let init_cents: Vec<i64> = data[..k * d].to_vec();

        // reference: integer Lloyd iterations matching the kernels
        let mut cents = init_cents.clone();
        let mut assign = vec![0i64; n];
        for _ in 0..iters {
            let mut sums = vec![0i64; k * d];
            let mut counts = vec![0i64; k];
            for p in 0..n {
                let pt = &data[p * d..(p + 1) * d];
                let mut best = 0usize;
                let mut best_dist = i64::MAX;
                for c in 0..k {
                    let mut dist = 0i64;
                    for dim in 0..d {
                        let diff = pt[dim] - cents[c * d + dim];
                        dist += diff * diff;
                    }
                    if dist < best_dist {
                        best_dist = dist;
                        best = c;
                    }
                }
                assign[p] = best as i64;
                for dim in 0..d {
                    sums[best * d + dim] += pt[dim];
                }
                counts[best] += 1;
            }
            for c in 0..k {
                if counts[c] > 0 {
                    for dim in 0..d {
                        cents[c * d + dim] = sums[c * d + dim] / counts[c];
                    }
                }
            }
        }

        let mut w = KMeans {
            n,
            d,
            k,
            iters,
            chunk,
            image: MemoryImage::new(),
            init_cents,
            cents_ref: cents,
            assign_ref: assign,
        };
        w.image = MemoryImage::new()
            .dram_segment(POINTS_BASE, data)
            .dram_segment(w.cents_base(), w.init_cents.clone())
            .dram_segment(w.assign_base(), vec![0; n])
            .dram_segment(w.partial_base(), vec![0; w.n_chunks() * w.partial_len()]);
        w
    }

    /// Test-sized instance.
    pub fn tiny(seed: u64) -> Self {
        Self::new(96, 4, 4, 2, 32, seed)
    }

    /// Evaluation-sized instance.
    pub fn small(seed: u64) -> Self {
        Self::new(1024, 8, 8, 3, 128, seed)
    }

    fn cents_base(&self) -> u64 {
        POINTS_BASE + (self.n * self.d) as u64
    }

    fn assign_base(&self) -> u64 {
        self.cents_base() + (self.k * self.d) as u64
    }

    fn partial_base(&self) -> u64 {
        self.assign_base() + self.n as u64
    }

    fn partial_len(&self) -> usize {
        self.k * self.d + self.k
    }

    fn n_chunks(&self) -> usize {
        self.n.div_ceil(self.chunk)
    }
}

/// Centroid update: `cent[dim] = sum[dim] / count` (division by zero
/// yields zero and is guarded by the host keeping the old centroid).
fn update_dfg() -> Dfg {
    let mut b = DfgBuilder::new("kmeans_update");
    let sum = b.input();
    let count = b.input();
    let q = b.div(sum, count);
    b.output(q);
    b.finish().expect("update kernel is valid")
}

struct KMeansProgram {
    wl: KMeans,
    round: usize,
    sums: Vec<i64>,
    counts: Vec<i64>,
    cents: Vec<i64>,
    phase_is_assign: bool,
}

impl KMeansProgram {
    fn spawn_assign_round(&mut self, s: &mut Spawner) {
        let wl = &self.wl;
        let d = wl.d as u64;
        self.sums = vec![0; wl.k * wl.d];
        self.counts = vec![0; wl.k];
        for c in 0..wl.n_chunks() {
            let lo = c * wl.chunk;
            let pts = wl.chunk.min(wl.n - lo) as u64;
            s.spawn(
                TaskInstance::new(ASSIGN_TYPE)
                    .params([wl.d as i64, wl.k as i64])
                    .input_stream(StreamDesc::dram(POINTS_BASE + (lo as u64) * d, pts * d))
                    .input_shared(
                        StreamDesc::dram(wl.cents_base(), (wl.k * wl.d) as u64),
                        RegionId(1000 + self.round as u64),
                    )
                    .output_memory(
                        StreamDesc::dram(wl.assign_base() + lo as u64, pts),
                        WriteMode::Overwrite,
                    )
                    .output_memory(
                        StreamDesc::dram(
                            wl.partial_base() + (c * wl.partial_len()) as u64,
                            wl.partial_len() as u64,
                        ),
                        WriteMode::Overwrite,
                    )
                    .work_hint(pts * d * wl.k as u64)
                    .affinity(c as u64),
            );
        }
    }

    fn spawn_update_tasks(&mut self, s: &mut Spawner) {
        let wl = &self.wl;
        for c in 0..wl.k {
            let count = self.counts[c];
            if count == 0 {
                continue; // empty cluster keeps its centroid
            }
            let sums: Vec<i64> = self.sums[c * wl.d..(c + 1) * wl.d].to_vec();
            // host mirrors the division for the next round's grouping
            for (dim, s) in sums.iter().enumerate() {
                self.cents[c * wl.d + dim] = s / count;
            }
            s.spawn(
                TaskInstance::new(UPDATE_TYPE)
                    .input_stream(StreamDesc::literal(sums))
                    .input_stream(StreamDesc::literal(vec![count; wl.d]))
                    .output_memory(
                        StreamDesc::dram(wl.cents_base() + (c * wl.d) as u64, wl.d as u64),
                        WriteMode::Overwrite,
                    )
                    .affinity(c as u64),
            );
        }
    }
}

impl Program for KMeansProgram {
    fn name(&self) -> &str {
        "kmeans"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![
            TaskType::new("kmeans_assign", TaskKernel::native(KMeansAssignKernel)),
            TaskType::new("kmeans_update", TaskKernel::dfg(update_dfg())),
        ]
    }

    fn memory_image(&self) -> MemoryImage {
        self.wl.image.clone()
    }

    fn initial(&mut self, s: &mut Spawner) {
        self.round = 0;
        self.cents = self.wl.init_cents.clone();
        self.phase_is_assign = true;
        self.spawn_assign_round(s);
    }

    fn on_complete(&mut self, done: &CompletedTask, _s: &mut Spawner) {
        if done.ty == ASSIGN_TYPE {
            let wl = &self.wl;
            let partial = &done.outputs[1];
            for c in 0..wl.k {
                for dim in 0..wl.d {
                    self.sums[c * wl.d + dim] += partial[c * wl.d + dim];
                }
                self.counts[c] += partial[wl.k * wl.d + c];
            }
        }
    }

    fn on_quiescent(&mut self, s: &mut Spawner) -> bool {
        if self.phase_is_assign {
            // assignment round done → recompute centroids
            self.phase_is_assign = false;
            self.spawn_update_tasks(s);
            true
        } else {
            self.round += 1;
            if self.round >= self.wl.iters {
                return false;
            }
            self.phase_is_assign = true;
            self.spawn_assign_round(s);
            true
        }
    }
}

impl Workload for KMeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn make_program(&self) -> Box<dyn Program> {
        Box::new(KMeansProgram {
            wl: self.clone(),
            round: 0,
            sums: Vec::new(),
            counts: Vec::new(),
            cents: Vec::new(),
            phase_is_assign: true,
        })
    }

    fn validate(&self, report: &RunReport) -> Result<(), String> {
        check_range(report, self.cents_base(), &self.cents_ref, "centroid")?;
        check_range(report, self.assign_base(), &self.assign_ref, "assign")
    }

    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "kmeans",
            description: "integer Lloyd iterations, shared centroid reads",
            pattern: "chunk tasks + per-cluster update tasks per round",
            stresses: "read-sharing recovery (multicast), phase loops",
            tasks: (self.iters * (self.n_chunks() + self.k)) as u64,
            elements: (self.n * self.d * self.iters) as u64,
            grain: (self.chunk * self.d) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_delta::{Accelerator, DeltaConfig};

    #[test]
    fn validates_on_delta_and_baseline() {
        for cfg in [DeltaConfig::delta(4), DeltaConfig::static_parallel(4)] {
            let w = KMeans::tiny(2);
            let mut p = w.make_program();
            let r = Accelerator::new(cfg).run(p.as_mut()).unwrap();
            w.validate(&r).unwrap();
        }
    }

    #[test]
    fn reference_assignment_is_plausible() {
        let w = KMeans::tiny(4);
        // after two iterations on well-separated clusters, every cluster
        // id in range
        assert!(w.assign_ref.iter().all(|&a| (a as usize) < w.k));
    }

    #[test]
    fn multiple_rounds_spawn_update_tasks() {
        let w = KMeans::tiny(5);
        let mut p = w.make_program();
        let r = Accelerator::new(DeltaConfig::delta(4))
            .run(p.as_mut())
            .unwrap();
        // assign chunks * iters + update tasks
        assert!(r.tasks_completed > (w.n_chunks() * w.iters) as u64);
        w.validate(&r).unwrap();
    }
}
