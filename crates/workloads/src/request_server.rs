//! Request server: streams of small independent queries, the
//! multi-tenant co-residency workload.
//!
//! Each tenant offers an open-loop stream of queries; a query is one
//! independent task that scans a contiguous slice of a shared DRAM
//! table and reduces it to a single result word. There are no
//! inter-task dependences, so the workload isolates exactly the
//! dispatcher behaviors multi-tenancy changes: admission pacing and
//! gating, placement partitioning, steal filtering, and per-tenant
//! completion accounting.
//!
//! Tasks carry their tenant in the affinity tag
//! ([`ts_delta::tenancy::tag_affinity`]); run the program under a
//! [`DeltaConfig`](ts_delta::DeltaConfig) whose
//! [`TenancyConfig`](ts_delta::TenancyConfig) names the same tenants
//! (see [`RequestServer::tenancy`]), or under a plain single-tenant
//! config where the tags are simply placement hints.

use crate::{check_range, Workload, WorkloadInfo};
use std::sync::Arc;
use taskstream_model::{
    CompletedTask, MemoryImage, Program, Spawner, TaskInstance, TaskKernel, TaskType, TaskTypeId,
};
use ts_delta::tenancy::tag_affinity;
use ts_delta::{DrainPolicy, PartitionPolicy, RunReport, TenancyConfig, TenantSpec};
use ts_dfg::{Dfg, DfgBuilder};
use ts_mem::WriteMode;
use ts_sim::rng::SimRng;
use ts_stream::StreamDesc;

/// The shared query table lives at the bottom of DRAM.
const TABLE: u64 = 0;

/// One tenant's offered load.
#[derive(Debug, Clone, Copy)]
pub struct TenantLoad {
    /// Queries this tenant issues.
    pub queries: usize,
    /// Table words each query scans.
    pub rows_per_query: usize,
    /// Minimum cycles between consecutive query admissions (0 = flood).
    pub arrival_period: u64,
}

/// A seeded request-server instance: a shared table plus per-tenant
/// query streams.
#[derive(Debug, Clone)]
pub struct RequestServer {
    /// Per-tenant load specs (tenant index = position).
    pub tenants: Vec<TenantLoad>,
    table_words: usize,
    /// The table and zeroed result slots, built once and shared by
    /// every program.
    image: MemoryImage,
    /// Per tenant, per query: the scan's start offset in the table.
    starts: Vec<Vec<u64>>,
    /// Per tenant, per query: the expected result.
    refs: Vec<Vec<i64>>,
}

impl RequestServer {
    /// Builds an instance over a `table_words`-word table. Query start
    /// offsets draw from a per-tenant generator, so a tenant's stream
    /// is identical whether it runs co-resident or isolated.
    pub fn new(tenants: Vec<TenantLoad>, table_words: usize, seed: u64) -> Self {
        assert!(!tenants.is_empty(), "request server needs a tenant");
        let mut table_rng = SimRng::seed(seed ^ 0x7AB1E);
        let table: Vec<i64> = (0..table_words)
            .map(|_| table_rng.range_i64(-8, 9))
            .collect();
        let mut starts = Vec::with_capacity(tenants.len());
        let mut refs = Vec::with_capacity(tenants.len());
        for (t, load) in tenants.iter().enumerate() {
            assert!(load.queries > 0, "tenant {t} issues no queries");
            assert!(
                0 < load.rows_per_query && load.rows_per_query < table_words,
                "tenant {t} scan does not fit the table"
            );
            let mut rng = SimRng::seed(seed ^ 0x9E37 ^ ((t as u64 + 1) << 20));
            let t_starts: Vec<u64> = (0..load.queries)
                .map(|_| rng.index(table_words - load.rows_per_query) as u64)
                .collect();
            let t_refs: Vec<i64> = t_starts
                .iter()
                .map(|&s| {
                    table[s as usize..s as usize + load.rows_per_query]
                        .iter()
                        .fold(0i64, |a, &b| a.wrapping_add(b))
                })
                .collect();
            starts.push(t_starts);
            refs.push(t_refs);
        }
        RequestServer {
            tenants,
            table_words,
            image: MemoryImage::new(),
            starts,
            refs,
        }
        .with_image(table.into())
    }

    fn with_image(mut self, table: Arc<[i64]>) -> Self {
        self.image = MemoryImage::new()
            .dram_segment(TABLE, table)
            .dram_segment(self.results_base(0), vec![0; self.total_queries()]);
        self
    }

    /// Test-sized instance: `tenants` homogeneous tenants at
    /// `arrival_period`, the first one offering double load (the QoS
    /// experiments need one heavy neighbor).
    pub fn tiny(tenants: usize, arrival_period: u64, seed: u64) -> Self {
        Self::skewed(tenants, 12, 16, arrival_period, 512, seed)
    }

    /// Evaluation-sized instance (same shape, more and bigger queries).
    pub fn small(tenants: usize, arrival_period: u64, seed: u64) -> Self {
        Self::skewed(tenants, 48, 64, arrival_period, 4096, seed)
    }

    /// `tenants` tenants of `queries` × `rows` each, except tenant 0
    /// which offers 2× the queries at half the arrival period.
    fn skewed(
        tenants: usize,
        queries: usize,
        rows: usize,
        arrival_period: u64,
        table_words: usize,
        seed: u64,
    ) -> Self {
        let loads = (0..tenants)
            .map(|t| TenantLoad {
                queries: if t == 0 { queries * 2 } else { queries },
                rows_per_query: rows,
                arrival_period: if t == 0 {
                    arrival_period / 2
                } else {
                    arrival_period
                },
            })
            .collect();
        Self::new(loads, table_words, seed)
    }

    /// Tenant `t` running alone: the same table and the exact same
    /// query stream, re-homed as the only tenant. The QoS experiments
    /// use these runs as each tenant's isolation baseline.
    pub fn isolated(&self, t: usize) -> Self {
        RequestServer {
            tenants: vec![self.tenants[t]],
            table_words: self.table_words,
            image: MemoryImage::new(),
            starts: vec![self.starts[t].clone()],
            refs: vec![self.refs[t].clone()],
        }
        .with_image(self.image.dram[0].1.clone())
    }

    /// The tenancy configuration matching this instance's tenants.
    pub fn tenancy(
        &self,
        partition: PartitionPolicy,
        admit_limit: u64,
        drain: DrainPolicy,
    ) -> TenancyConfig {
        TenancyConfig {
            tenants: self
                .tenants
                .iter()
                .map(|l| TenantSpec::paced(l.arrival_period))
                .collect(),
            partition,
            admit_limit,
            drain,
        }
    }

    /// Result slot base for tenant `t` (one word per query, grouped by
    /// tenant above the table).
    fn results_base(&self, t: usize) -> u64 {
        TABLE
            + self.table_words as u64
            + self.tenants[..t]
                .iter()
                .map(|l| l.queries as u64)
                .sum::<u64>()
    }

    fn total_queries(&self) -> usize {
        self.tenants.iter().map(|l| l.queries).sum()
    }

    fn total_rows(&self) -> usize {
        self.tenants
            .iter()
            .map(|l| l.queries * l.rows_per_query)
            .sum()
    }
}

/// The query kernel: sum a streamed slice into one word.
fn query_dfg() -> Dfg {
    let mut b = DfgBuilder::new("query_scan");
    let v = b.input(); // table words
    let last = b.input(); // 1 on the final word
    let sum = b.acc_gate(v, last);
    b.output_when(sum, last);
    b.finish().expect("query kernel is valid")
}

struct RequestServerProgram {
    wl: RequestServer,
}

impl Program for RequestServerProgram {
    fn name(&self) -> &str {
        "request_server"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![TaskType::new("query_scan", TaskKernel::dfg(query_dfg()))]
    }

    fn memory_image(&self) -> MemoryImage {
        self.wl.image.clone()
    }

    fn initial(&mut self, s: &mut Spawner) {
        // Queries are fully independent, so all of them spawn upfront;
        // under tenancy the dispatcher paces each tenant's admissions
        // to its arrival period, turning the batch into the open-loop
        // request stream the workload models.
        for (t, load) in self.wl.tenants.iter().enumerate() {
            let rows = load.rows_per_query as u64;
            let results = self.wl.results_base(t);
            for (q, &start) in self.wl.starts[t].iter().enumerate() {
                let mut flags = vec![0i64; load.rows_per_query];
                flags[load.rows_per_query - 1] = 1;
                s.spawn(
                    TaskInstance::new(TaskTypeId(0))
                        .input_stream(StreamDesc::dram(TABLE + start, rows))
                        .input_stream(StreamDesc::literal(flags))
                        .output_memory(
                            StreamDesc::dram(results + q as u64, 1),
                            WriteMode::Overwrite,
                        )
                        .work_hint(rows)
                        .affinity(tag_affinity(t, q as u64)),
                );
            }
        }
    }

    fn on_complete(&mut self, _done: &CompletedTask, _s: &mut Spawner) {}
}

impl Workload for RequestServer {
    fn name(&self) -> &'static str {
        "request_server"
    }

    fn make_program(&self) -> Box<dyn Program> {
        Box::new(RequestServerProgram { wl: self.clone() })
    }

    fn validate(&self, report: &RunReport) -> Result<(), String> {
        for t in 0..self.tenants.len() {
            check_range(
                report,
                self.results_base(t),
                &self.refs[t],
                &format!("tenant{t} results"),
            )?;
        }
        Ok(())
    }

    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "request_server",
            description: "co-resident tenants issuing independent table-scan queries",
            pattern: "per-tenant open-loop query streams",
            stresses: "multi-tenant admission, partitioning and QoS",
            tasks: self.total_queries() as u64,
            elements: self.total_rows() as u64,
            grain: (self.total_rows() / self.total_queries().max(1)) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_delta::{Accelerator, DeltaConfig};

    #[test]
    fn validates_single_tenant_config() {
        let w = RequestServer::tiny(2, 0, 7);
        let mut p = w.make_program();
        let r = Accelerator::new(DeltaConfig::delta(4))
            .run(p.as_mut())
            .unwrap();
        w.validate(&r).unwrap();
    }

    #[test]
    fn validates_under_shared_and_spatial_tenancy() {
        let w = RequestServer::tiny(2, 200, 3);
        for partition in [PartitionPolicy::Shared, PartitionPolicy::Spatial] {
            let cfg = DeltaConfig {
                tenancy: w.tenancy(partition, 4, DrainPolicy::Block),
                ..DeltaConfig::delta(4)
            };
            let mut p = w.make_program();
            let r = Accelerator::new(cfg).run(p.as_mut()).unwrap();
            w.validate(&r).unwrap();
            for (t, load) in w.tenants.iter().enumerate() {
                assert_eq!(
                    r.counters.tenants[t].completed as usize, load.queries,
                    "tenant {t} under {partition:?}"
                );
            }
        }
    }

    #[test]
    fn isolated_reuses_the_exact_query_stream() {
        let w = RequestServer::tiny(3, 100, 5);
        let iso = w.isolated(1);
        assert_eq!(iso.starts[0], w.starts[1]);
        assert_eq!(iso.refs[0], w.refs[1]);
        let mut p = iso.make_program();
        let r = Accelerator::new(DeltaConfig::delta(4))
            .run(p.as_mut())
            .unwrap();
        iso.validate(&r).unwrap();
    }

    #[test]
    fn tenant_zero_is_the_heavy_neighbor() {
        let w = RequestServer::tiny(2, 400, 0);
        assert_eq!(w.tenants[0].queries, 2 * w.tenants[1].queries);
        assert!(w.tenants[0].arrival_period < w.tenants[1].arrival_period);
        let i = w.info();
        assert_eq!(i.tasks, w.total_queries() as u64);
        assert!(i.grain > 0);
    }
}
