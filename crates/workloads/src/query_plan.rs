//! Pipelined query plan: scan → filter → join → aggregate.
//!
//! The hot loop of an analytical query over a chunked fact table,
//! written as a four-stage [`ts_graph::GraphSpec`] chain — the first
//! workload authored *natively* on the declarative frontend rather
//! than re-expressed from a hand-assembled program. Per chunk: a scan
//! projects revenue (`price * disc`), a filter masks it by a selection
//! flag (misses become zeros so cardinality stays static and every
//! pipe is one-to-one), a join multiplies by a dimension rate gathered
//! through a precomputed key column, and an aggregate folds the chunk
//! into one sum word. Three pipe edges per chunk make this the deepest
//! pipelined dependence chain in the suite.

use crate::{check_range, Workload, WorkloadInfo};
use taskstream_model::{MemoryImage, Program, TaskKernel};
use ts_delta::RunReport;
use ts_dfg::{Dfg, DfgBuilder};
use ts_graph::{Emission, GraphSpec, Link, SpawnRule, Stage, TaskSketch};
use ts_mem::WriteMode;
use ts_sim::rng::SimRng;
use ts_stream::{Affine, DataSrc, StreamDesc};

const PRICE: u64 = 0;

/// A seeded query-plan instance.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Fact-table rows.
    pub rows: usize,
    /// Rows per chunk (one pipeline of four tasks per chunk).
    pub chunk: usize,
    /// Dimension-table rows.
    n_dim: usize,
    /// The fact columns, the rate table and the zeroed sums, built once
    /// and shared by every program.
    image: MemoryImage,
    sums_ref: Vec<i64>,
}

impl QueryPlan {
    /// Builds an instance: `rows` fact tuples in chunks of `chunk`,
    /// joining against an `n_dim`-row dimension table. Roughly half
    /// the tuples pass the filter.
    pub fn new(rows: usize, chunk: usize, n_dim: usize, seed: u64) -> Self {
        assert!(rows > 0 && chunk > 0 && n_dim > 0, "empty query instance");
        let mut rng = SimRng::seed(seed ^ 0x9C_E1);
        let price: Vec<i64> = (0..rows).map(|_| rng.range_i64(1, 50)).collect();
        let disc: Vec<i64> = (0..rows).map(|_| rng.range_i64(1, 10)).collect();
        let flag: Vec<i64> = (0..rows).map(|_| i64::from(rng.chance(0.5))).collect();
        let key: Vec<i64> = (0..rows).map(|_| rng.index(n_dim) as i64).collect();
        let rates: Vec<i64> = (0..n_dim).map(|_| rng.range_i64(1, 20)).collect();

        let n_chunks = rows.div_ceil(chunk);
        let mut sums_ref = vec![0i64; n_chunks];
        for i in 0..rows {
            if flag[i] == 1 {
                let rev = price[i].wrapping_mul(disc[i]);
                let contrib = rev.wrapping_mul(rates[key[i] as usize]);
                sums_ref[i / chunk] = sums_ref[i / chunk].wrapping_add(contrib);
            }
        }
        let mut w = QueryPlan {
            rows,
            chunk,
            n_dim,
            image: MemoryImage::new(),
            sums_ref,
        };
        w.image = MemoryImage::new()
            .dram_segment(PRICE, price)
            .dram_segment(w.disc_base(), disc)
            .dram_segment(w.flag_base(), flag)
            .dram_segment(w.key_base(), key)
            .dram_segment(w.rates_base(), rates)
            .dram_segment(w.sums_base(), vec![0; n_chunks]);
        w
    }

    /// Test-sized instance. Two chunks of four stages each — eight
    /// tasks — so the chains co-schedule (and the pipes go direct) on
    /// the eight-tile evaluation fabric.
    pub fn tiny(seed: u64) -> Self {
        Self::new(128, 64, 16, seed)
    }

    /// Evaluation-sized instance (same two-chain shape, deeper chunks).
    pub fn small(seed: u64) -> Self {
        Self::new(4096, 2048, 256, seed)
    }

    fn n_chunks(&self) -> usize {
        self.rows.div_ceil(self.chunk)
    }

    fn disc_base(&self) -> u64 {
        PRICE + self.rows as u64
    }

    fn flag_base(&self) -> u64 {
        self.disc_base() + self.rows as u64
    }

    fn key_base(&self) -> u64 {
        self.flag_base() + self.rows as u64
    }

    fn rates_base(&self) -> u64 {
        self.key_base() + self.rows as u64
    }

    fn sums_base(&self) -> u64 {
        self.rates_base() + self.n_dim as u64
    }

    /// The plan as a declarative graph: four `PerElement` stages
    /// chained by three pipe edges, emitted element-major so each
    /// chunk's pipeline stays adjacent.
    fn graph_spec(&self) -> GraphSpec {
        let chunk = self.chunk;
        let rows = self.rows;
        let (flag_base, key_base) = (self.flag_base(), self.key_base());
        let (rates_base, sums_base) = (self.rates_base(), self.sums_base());
        let disc_base = self.disc_base();
        let n_chunks = self.n_chunks();
        let len_of = move |c: usize| (chunk.min(rows - c * chunk)) as u64;
        let mut g = GraphSpec::new("query_plan")
            .memory(self.image.clone())
            .emission(Emission::ElementMajor);
        let scan = g.stage(Stage::new(
            "q_scan",
            TaskKernel::dfg(scan_dfg()),
            SpawnRule::PerElement { count: n_chunks },
            move |cx| {
                let lo = (cx.index * chunk) as u64;
                let len = len_of(cx.index);
                TaskSketch::new()
                    .input_stream(StreamDesc::dram(PRICE + lo, len))
                    .input_stream(StreamDesc::dram(disc_base + lo, len))
                    .output_downstream_cap(len)
                    .affinity(cx.index as u64)
            },
        ));
        let filter = g.stage(Stage::new(
            "q_filter",
            TaskKernel::dfg(filter_dfg()),
            SpawnRule::PerElement { count: n_chunks },
            move |cx| {
                let lo = (cx.index * chunk) as u64;
                let len = len_of(cx.index);
                TaskSketch::new()
                    .input_upstream(0)
                    .input_stream(StreamDesc::dram(flag_base + lo, len))
                    .output_downstream_cap(len)
                    .affinity(cx.index as u64 + 1)
            },
        ));
        let join = g.stage(Stage::new(
            "q_join",
            TaskKernel::dfg(join_dfg()),
            SpawnRule::PerElement { count: n_chunks },
            move |cx| {
                let lo = (cx.index * chunk) as u64;
                let len = len_of(cx.index);
                TaskSketch::new()
                    .input_upstream(0)
                    .input_stream(StreamDesc::Indirect {
                        src: DataSrc::Dram,
                        base: rates_base,
                        scale: 1,
                        index: Affine::contiguous(key_base + lo, len),
                        index_src: DataSrc::Dram,
                    })
                    .output_downstream_cap(len)
                    .work_hint(2 * len)
                    .affinity(cx.index as u64 + 2)
            },
        ));
        let agg = g.stage(Stage::new(
            "q_agg",
            TaskKernel::dfg(agg_dfg()),
            SpawnRule::PerElement { count: n_chunks },
            move |cx| {
                TaskSketch::new()
                    .input_upstream(0)
                    .output_memory(
                        StreamDesc::dram(sums_base + cx.index as u64, 1),
                        WriteMode::Overwrite,
                    )
                    .work_hint(len_of(cx.index))
                    .affinity(cx.index as u64 + 3)
            },
        ));
        let cap = chunk as u64;
        g.edge(scan, filter, Link::Pipe { capacity: cap });
        g.edge(filter, join, Link::Pipe { capacity: cap });
        g.edge(join, agg, Link::Pipe { capacity: cap });
        g
    }
}

/// Scan/projection kernel: revenue per tuple.
fn scan_dfg() -> Dfg {
    let mut b = DfgBuilder::new("q_scan");
    let price = b.input();
    let disc = b.input();
    let rev = b.mul(price, disc);
    b.output(rev);
    b.finish().expect("scan kernel is valid")
}

/// Filter kernel: keep revenue where the flag is set, else zero (the
/// zero keeps cardinality static so the downstream pipes stay
/// one-to-one).
fn filter_dfg() -> Dfg {
    let mut b = DfgBuilder::new("q_filter");
    let rev = b.input();
    let flag = b.input();
    let one = b.constant(1);
    let zero = b.constant(0);
    let hit = b.eq(flag, one);
    let kept = b.select(hit, rev, zero);
    b.output(kept);
    b.finish().expect("filter kernel is valid")
}

/// Join kernel: multiply by the gathered dimension rate.
fn join_dfg() -> Dfg {
    let mut b = DfgBuilder::new("q_join");
    let rev = b.input();
    let rate = b.input();
    let contrib = b.mul(rev, rate);
    b.output(contrib);
    b.finish().expect("join kernel is valid")
}

/// Aggregate kernel: running sum, emitted once at end of chunk.
fn agg_dfg() -> Dfg {
    let mut b = DfgBuilder::new("q_agg");
    let x = b.input();
    let s = b.acc(x);
    b.output_on_last(s);
    b.finish().expect("agg kernel is valid")
}

impl Workload for QueryPlan {
    fn name(&self) -> &'static str {
        "query_plan"
    }

    fn make_program(&self) -> Box<dyn Program> {
        Box::new(
            self.graph_spec()
                .compile()
                .expect("query_plan GraphSpec is valid"),
        )
    }

    fn validate(&self, report: &RunReport) -> Result<(), String> {
        check_range(report, self.sums_base(), &self.sums_ref, "chunk_sum")
    }

    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "query_plan",
            description: "scan-filter-join-aggregate query pipeline",
            pattern: "four-stage per-chunk task chains",
            stresses: "deep pipelined dependence chains, gathers",
            tasks: 4 * self.n_chunks() as u64,
            elements: self.rows as u64,
            grain: self.chunk as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_delta::oracle::{check_equivalence, execute_untimed};
    use ts_delta::{Accelerator, DeltaConfig, Features};

    #[test]
    fn reference_mixes_hits_and_misses() {
        let w = QueryPlan::tiny(2);
        let flag = &w.image.dram[2].1;
        let hits = flag.iter().filter(|&&f| f == 1).count();
        assert!(hits > 0 && hits < w.rows, "filter is degenerate");
        assert!(w.sums_ref.iter().any(|&s| s != 0));
    }

    #[test]
    fn validates_on_delta_and_baseline() {
        for cfg in [DeltaConfig::delta(4), DeltaConfig::static_parallel(4)] {
            let w = QueryPlan::tiny(9);
            let mut p = w.make_program();
            let r = Accelerator::new(cfg).run(p.as_mut()).unwrap();
            w.validate(&r).unwrap();
        }
    }

    #[test]
    fn agrees_with_untimed_oracle() {
        let w = QueryPlan::tiny(5);
        let mut p = w.make_program();
        let timed = Accelerator::new(DeltaConfig::delta(4))
            .run(p.as_mut())
            .unwrap();
        let oracle = execute_untimed(w.make_program().as_mut()).unwrap();
        check_equivalence(&timed, &oracle).unwrap();
    }

    #[test]
    fn tail_chunk_is_handled() {
        // 100 rows in chunks of 32 leaves a 4-row tail
        let w = QueryPlan::new(100, 32, 8, 7);
        let mut p = w.make_program();
        let r = Accelerator::new(DeltaConfig::delta(4))
            .run(p.as_mut())
            .unwrap();
        w.validate(&r).unwrap();
    }

    #[test]
    fn pipelining_beats_spilled_chains() {
        let run = |pipelining: bool| {
            let w = QueryPlan::small(5);
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
        let spilled = run(false);
        assert!(
            piped < spilled,
            "pipelined {piped} should beat spilled {spilled}"
        );
    }
}
