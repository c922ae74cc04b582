//! Dynamic-shape sparse-dense chain: CSR row chunks → scaled output.
//!
//! A two-stage chain whose task *shapes* vary at run time: each sparse
//! task streams a chunk of CSR rows with power-law lengths (so its
//! value/column streams differ in length task to task) and dots them
//! against a dense vector that every task shares through one multicast
//! group, then pipes the per-row dots to a scale stage that writes
//! `y = alpha * dot`. Authored on the declarative frontend; the
//! multicast group comes from [`ts_graph::GraphSpec::group`] and the
//! varying shapes flow through per-instance binding and
//! [`ts_graph::OutputSlot::DownstreamCap`] capacity hints.

use crate::kernels::SparseRowKernel;
use crate::{check_range, Workload, WorkloadInfo};
use taskstream_model::{MemoryImage, Program, TaskKernel, Value};
use ts_delta::RunReport;
use ts_dfg::{Dfg, DfgBuilder};
use ts_graph::{Emission, GraphSpec, Link, SpawnRule, Stage, TaskSketch};
use ts_mem::WriteMode;
use ts_sim::rng::SimRng;
use ts_stream::StreamDesc;

const VALS: u64 = 0;

/// A seeded sparse-dense chain instance.
#[derive(Debug, Clone)]
pub struct SparseChain {
    /// CSR rows (also the dense-vector length; the matrix is square).
    pub n: usize,
    /// Rows per sparse task.
    pub rows_per_task: usize,
    /// The scale factor applied by the second stage.
    pub alpha: i64,
    row_lens: Vec<u64>,
    vals: Vec<i64>,
    cols: Vec<i64>,
    x: Vec<i64>,
    y_ref: Vec<i64>,
}

impl SparseChain {
    /// Builds an instance: `n` rows with power-law lengths up to
    /// `max_row`, chunked `rows_per_task` rows per task.
    pub fn new(n: usize, max_row: u64, rows_per_task: usize, seed: u64) -> Self {
        assert!(n > 0 && rows_per_task > 0, "empty chain instance");
        let mut rng = SimRng::seed(seed ^ 0xC5_A1);
        let row_lens: Vec<u64> = (0..n).map(|_| rng.power_law(max_row, 1.25)).collect();
        let nnz: usize = row_lens.iter().map(|&l| l as usize).sum();
        let vals: Vec<i64> = (0..nnz).map(|_| rng.range_i64(-8, 9)).collect();
        let cols: Vec<i64> = (0..nnz).map(|_| rng.index(n) as i64).collect();
        let x: Vec<i64> = (0..n).map(|_| rng.range_i64(-16, 17)).collect();
        let alpha = rng.range_i64(2, 9);

        let mut y_ref = vec![0i64; n];
        let mut k = 0;
        for (r, &len) in row_lens.iter().enumerate() {
            let mut acc = 0i64;
            for _ in 0..len {
                acc = acc.wrapping_add(vals[k].wrapping_mul(x[cols[k] as usize]));
                k += 1;
            }
            y_ref[r] = alpha.wrapping_mul(acc);
        }
        SparseChain {
            n,
            rows_per_task,
            alpha,
            row_lens,
            vals,
            cols,
            x,
            y_ref,
        }
    }

    /// Test-sized instance. Four chunks of two stages each — eight
    /// tasks — so the chains co-schedule (and the pipes go direct) on
    /// the eight-tile evaluation fabric.
    pub fn tiny(seed: u64) -> Self {
        Self::new(64, 24, 16, seed)
    }

    /// Evaluation-sized instance (same four-chain shape, deeper chunks).
    pub fn small(seed: u64) -> Self {
        Self::new(1024, 2048, 256, seed)
    }

    /// Total non-zeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    fn n_chunks(&self) -> usize {
        self.n.div_ceil(self.rows_per_task)
    }

    fn cols_base(&self) -> u64 {
        VALS + self.nnz() as u64
    }

    fn x_base(&self) -> u64 {
        self.cols_base() + self.nnz() as u64
    }

    fn y_base(&self) -> u64 {
        self.x_base() + self.n as u64
    }

    /// The chain as a declarative graph: a `PerElement` sparse stage
    /// (row lengths as params — the dynamic shape) piping per-row dots
    /// to a `PerElement` scale stage, with the dense vector multicast
    /// across the sparse tasks through one sharing group.
    fn graph_spec(&self) -> GraphSpec {
        let rpt = self.rows_per_task;
        let n = self.n;
        let alpha = self.alpha;
        let (cols_base, x_base, y_base) = (self.cols_base(), self.x_base(), self.y_base());
        let row_lens = self.row_lens.clone();
        // per-chunk geometry: first row, row count, first non-zero, nnz
        let mut nz_starts = Vec::with_capacity(self.n_chunks());
        let mut off = 0u64;
        for c in 0..self.n_chunks() {
            nz_starts.push(off);
            let rows = rpt.min(n - c * rpt);
            off += row_lens[c * rpt..c * rpt + rows].iter().sum::<u64>();
        }
        let mut g = GraphSpec::new("sparse_chain")
            .memory(
                MemoryImage::new()
                    .dram_segment(VALS, self.vals.clone())
                    .dram_segment(cols_base, self.cols.clone())
                    .dram_segment(x_base, self.x.clone())
                    .dram_segment(y_base, vec![0; n]),
            )
            .emission(Emission::ElementMajor);
        let x_group = g.group();
        let sparse = g.stage(Stage::new(
            "sparse_rows",
            TaskKernel::native(SparseRowKernel),
            SpawnRule::PerElement {
                count: self.n_chunks(),
            },
            move |cx| {
                let rows = rpt.min(n - cx.index * rpt);
                let lens = &row_lens[cx.index * rpt..cx.index * rpt + rows];
                let nnz: u64 = lens.iter().sum();
                let nz = nz_starts[cx.index];
                TaskSketch::new()
                    .params(lens.iter().map(|&l| l as Value).collect::<Vec<_>>())
                    .input_stream(StreamDesc::dram(VALS + nz, nnz))
                    .input_stream(StreamDesc::dram(cols_base + nz, nnz))
                    .input_shared(StreamDesc::dram(x_base, n as u64), x_group)
                    .output_downstream_cap(rows as u64)
                    .work_hint(nnz.max(1))
                    .affinity(cx.index as u64)
            },
        ));
        let scale = g.stage(Stage::new(
            "scale",
            TaskKernel::dfg(scale_dfg(alpha)),
            SpawnRule::PerElement {
                count: self.n_chunks(),
            },
            move |cx| {
                let rows = rpt.min(n - cx.index * rpt);
                TaskSketch::new()
                    .input_upstream(0)
                    .output_memory(
                        StreamDesc::dram(y_base + (cx.index * rpt) as u64, rows as u64),
                        WriteMode::Overwrite,
                    )
                    .work_hint(rows as u64)
                    .affinity(cx.index as u64 + 1)
            },
        ));
        g.edge(
            sparse,
            scale,
            Link::Pipe {
                capacity: rpt as u64,
            },
        );
        g
    }
}

/// The scale kernel: `alpha * dot`, element-wise.
fn scale_dfg(alpha: i64) -> Dfg {
    let mut b = DfgBuilder::new("scale");
    let dot = b.input();
    let a = b.constant(alpha);
    let y = b.mul(dot, a);
    b.output(y);
    b.finish().expect("scale kernel is valid")
}

impl Workload for SparseChain {
    fn name(&self) -> &'static str {
        "sparse_chain"
    }

    fn make_program(&self) -> Box<dyn Program> {
        Box::new(
            self.graph_spec()
                .compile()
                .expect("sparse_chain GraphSpec is valid"),
        )
    }

    fn validate(&self, report: &RunReport) -> Result<(), String> {
        check_range(report, self.y_base(), &self.y_ref, "y")
    }

    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "sparse_chain",
            description: "CSR row dots piped into a dense scale stage",
            pattern: "sparse→dense per-chunk task chains",
            stresses: "dynamic shapes, multicast, pipelining",
            tasks: 2 * self.n_chunks() as u64,
            elements: self.nnz() as u64,
            grain: (self.nnz() / self.n_chunks().max(1)) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_delta::oracle::{check_equivalence, execute_untimed};
    use ts_delta::{Accelerator, DeltaConfig, Features};

    #[test]
    fn shapes_vary_across_tasks() {
        // fine-grained chunking so per-task nnz skew is visible
        let w = SparseChain::new(1024, 2048, 16, 1);
        let chunk_nnz: Vec<u64> = (0..w.n_chunks())
            .map(|c| {
                let rows = w.rows_per_task.min(w.n - c * w.rows_per_task);
                w.row_lens[c * w.rows_per_task..c * w.rows_per_task + rows]
                    .iter()
                    .sum()
            })
            .collect();
        let (min, max) = (
            chunk_nnz.iter().min().unwrap(),
            chunk_nnz.iter().max().unwrap(),
        );
        assert!(max > &(min * 2), "expected skewed shapes, {min}..{max}");
    }

    #[test]
    fn validates_on_delta_and_baseline() {
        for cfg in [DeltaConfig::delta(4), DeltaConfig::static_parallel(4)] {
            let w = SparseChain::tiny(9);
            let mut p = w.make_program();
            let r = Accelerator::new(cfg).run(p.as_mut()).unwrap();
            w.validate(&r).unwrap();
        }
    }

    #[test]
    fn agrees_with_untimed_oracle() {
        let w = SparseChain::tiny(5);
        let mut p = w.make_program();
        let timed = Accelerator::new(DeltaConfig::delta(4))
            .run(p.as_mut())
            .unwrap();
        let oracle = execute_untimed(w.make_program().as_mut()).unwrap();
        check_equivalence(&timed, &oracle).unwrap();
    }

    #[test]
    fn tail_chunk_is_handled() {
        // 30 rows in chunks of 8 leaves a 6-row tail
        let w = SparseChain::new(30, 16, 8, 7);
        let mut p = w.make_program();
        let r = Accelerator::new(DeltaConfig::delta(4))
            .run(p.as_mut())
            .unwrap();
        w.validate(&r).unwrap();
    }

    #[test]
    fn multicast_shares_the_dense_vector() {
        let w = SparseChain::tiny(4);
        let run = |multicast: bool| {
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
}
