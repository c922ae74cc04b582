//! Dense tiled matrix multiply — the *regular* control workload.
//!
//! Every task computes one row-block × column-panel product with
//! identical work, so static owner-computes placement is already
//! optimal; the paper's comparison expects Delta ≈ 1× here (TaskStream
//! must not hurt regular workloads).

use crate::{check_range, Workload, WorkloadInfo};
use taskstream_model::{
    CompletedTask, MemoryImage, Program, Spawner, TaskInstance, TaskKernel, TaskType, TaskTypeId,
};
use ts_delta::RunReport;
use ts_dfg::{Dfg, DfgBuilder};
use ts_mem::WriteMode;
use ts_sim::rng::SimRng;
use ts_stream::{Affine, DataSrc, StreamDesc};

const A_BASE: u64 = 0;

/// A seeded GEMM instance: `C = A × B`, all `n × n`.
#[derive(Debug, Clone)]
pub struct Gemm {
    /// Matrix dimension.
    pub n: usize,
    /// Rows of C per task.
    pub rows_per_task: usize,
    /// A, B and the zeroed C, built once and shared by every program.
    image: MemoryImage,
    c_ref: Vec<i64>,
}

impl Gemm {
    /// Builds an `n × n` GEMM with `rows_per_task` C-rows per task.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `rows_per_task` does not divide work
    /// sensibly (must be positive).
    pub fn new(n: usize, rows_per_task: usize, seed: u64) -> Self {
        assert!(n > 0 && rows_per_task > 0, "empty gemm instance");
        let mut rng = SimRng::seed(seed ^ 0x6E33);
        let a: Vec<i64> = (0..n * n).map(|_| rng.range_i64(-4, 5)).collect();
        let b: Vec<i64> = (0..n * n).map(|_| rng.range_i64(-4, 5)).collect();
        Self::with_matrices(n, rows_per_task, a, b)
    }

    /// Builds the instance computing `a × b`, both `n × n` row-major.
    fn with_matrices(n: usize, rows_per_task: usize, a: Vec<i64>, b: Vec<i64>) -> Self {
        let mut c_ref = vec![0i64; n * n];
        for i in 0..n {
            for k in 0..n {
                let aik = a[i * n + k];
                if aik == 0 {
                    continue;
                }
                for j in 0..n {
                    c_ref[i * n + j] =
                        c_ref[i * n + j].wrapping_add(aik.wrapping_mul(b[k * n + j]));
                }
            }
        }
        let mut w = Gemm {
            n,
            rows_per_task,
            image: MemoryImage::new(),
            c_ref,
        };
        w.image = MemoryImage::new()
            .dram_segment(A_BASE, a)
            .dram_segment(w.b_base(), b)
            .dram_segment(w.c_base(), vec![0; n * n]);
        w
    }

    /// Test-sized instance.
    pub fn tiny(seed: u64) -> Self {
        Self::new(12, 3, seed)
    }

    /// Evaluation-sized instance.
    pub fn small(seed: u64) -> Self {
        Self::new(48, 4, seed)
    }

    fn b_base(&self) -> u64 {
        A_BASE + (self.n * self.n) as u64
    }

    fn c_base(&self) -> u64 {
        self.b_base() + (self.n * self.n) as u64
    }

    fn task_count(&self) -> usize {
        // one task per (row-block, output column)
        self.n.div_ceil(self.rows_per_task) * self.n
    }
}

/// Dot-product kernel: segmented MAC over the shared k dimension.
fn gemm_dfg() -> Dfg {
    let mut b = DfgBuilder::new("gemm_dot");
    let a = b.input(); // A row elements
    let bb = b.input(); // B column elements
    let last = b.input(); // 1 at each dot product's end
    let prod = b.mul(a, bb);
    let sum = b.acc_gate(prod, last);
    b.output_when(sum, last);
    b.finish().expect("gemm kernel is valid")
}

struct GemmProgram {
    wl: Gemm,
}

impl Program for GemmProgram {
    fn name(&self) -> &str {
        "gemm"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![TaskType::new("gemm_dot", TaskKernel::dfg(gemm_dfg()))]
    }

    fn memory_image(&self) -> MemoryImage {
        self.wl.image.clone()
    }

    fn initial(&mut self, s: &mut Spawner) {
        let n = self.wl.n as u64;
        let mut affinity = 0u64;
        let mut i = 0usize;
        while i < self.wl.n {
            let rows = self.wl.rows_per_task.min(self.wl.n - i) as u64;
            for j in 0..n {
                // A rows i..i+rows (each n long), B column j repeated
                let a_pat = Affine::dims2(A_BASE + (i as u64) * n, n as i64, rows, 1, n);
                let b_pat = Affine::dims2(self.wl.b_base() + j, 0, rows, n as i64, n);
                let mut flags = Vec::with_capacity((rows * n) as usize);
                for _ in 0..rows {
                    for k in 0..n {
                        flags.push(i64::from(k + 1 == n));
                    }
                }
                s.spawn(
                    TaskInstance::new(TaskTypeId(0))
                        .input_stream(StreamDesc::affine(DataSrc::Dram, a_pat))
                        .input_stream(StreamDesc::affine(DataSrc::Dram, b_pat))
                        .input_stream(StreamDesc::literal(flags))
                        .output_memory(
                            StreamDesc::affine(
                                DataSrc::Dram,
                                Affine::dims1(
                                    self.wl.c_base() + (i as u64) * n + j,
                                    n as i64,
                                    rows,
                                ),
                            ),
                            WriteMode::Overwrite,
                        )
                        .work_hint(rows * n)
                        .affinity(affinity),
                );
                affinity += 1;
            }
            i += self.wl.rows_per_task;
        }
    }

    fn on_complete(&mut self, _done: &CompletedTask, _s: &mut Spawner) {}
}

impl Workload for Gemm {
    fn name(&self) -> &'static str {
        "gemm"
    }

    fn make_program(&self) -> Box<dyn Program> {
        Box::new(GemmProgram { wl: self.clone() })
    }

    fn validate(&self, report: &RunReport) -> Result<(), String> {
        check_range(report, self.c_base(), &self.c_ref, "C")
    }

    fn info(&self) -> WorkloadInfo {
        let elements = (self.n * self.n * self.n) as u64;
        WorkloadInfo {
            name: "gemm",
            description: "dense tiled matrix multiply (regular control)",
            pattern: "uniform independent block tasks",
            stresses: "nothing — baseline parity check",
            tasks: self.task_count() as u64,
            elements,
            grain: elements / self.task_count() as u64,
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
            let w = Gemm::tiny(5);
            let mut p = w.make_program();
            let r = Accelerator::new(cfg).run(p.as_mut()).unwrap();
            w.validate(&r).unwrap();
        }
    }

    #[test]
    fn identity_times_matrix_is_matrix() {
        // hand-built identity check through the same program machinery
        let identity = vec![
            1, 0, 0, 0, //
            0, 1, 0, 0, //
            0, 0, 1, 0, //
            0, 0, 0, 1,
        ];
        let b: Vec<i64> = (-8..8).collect();
        let w = Gemm::with_matrices(4, 2, identity, b.clone());
        assert_eq!(w.c_ref, b);
        let mut p = w.make_program();
        let r = Accelerator::new(DeltaConfig::delta(2))
            .run(p.as_mut())
            .unwrap();
        w.validate(&r).unwrap();
        assert_eq!(r.dram_range(w.c_base(), 16), &b[..]);
    }

    #[test]
    fn task_count_matches_blocks() {
        let w = Gemm::new(12, 3, 0);
        assert_eq!(w.task_count(), 4 * 12);
    }
}
