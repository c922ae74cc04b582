//! Hash join (probe side) with pipelined aggregation.
//!
//! The build table is constructed host-side into the DRAM image (open
//! addressing, linear probing); the accelerated region is the probe
//! pipeline, the hot loop of analytical queries. Each probe task gathers
//! the candidate slot for a chunk of probe tuples, filters matches, and
//! **pipes** the matched products to an aggregation task — a recovered
//! pipelined inter-task dependence.
//!
//! Substitution note (see DESIGN.md): probe slots are precomputed by the
//! generator (the slot where linear probing terminates), because the
//! stream engines issue gathers from memory-resident index streams —
//! they cannot chase fabric-computed addresses. Traffic and compute per
//! tuple (gather + compare + filter) match the real pipeline.
//!
//! The pipeline is authored declaratively as a [`ts_graph::GraphSpec`]
//! — two `PerElement` stages (probe, aggregate) joined by one pipe
//! edge, emitted element-major so each chunk's pipe/probe/agg triplet
//! stays adjacent — which is the canonical way to write workloads in
//! this suite. The hand-assembled `Spawner` original is kept behind a
//! test-only path, and a differential test proves the compiled program
//! is byte-identical to it, so the goldens cannot move.

use crate::{check_range, Workload, WorkloadInfo};
#[cfg(test)]
use taskstream_model::{CompletedTask, Spawner, TaskInstance, TaskType, TaskTypeId};
use taskstream_model::{MemoryImage, Program, TaskKernel};
use ts_delta::RunReport;
use ts_dfg::{Dfg, DfgBuilder};
use ts_graph::{Emission, GraphSpec, Link, SpawnRule, Stage, TaskSketch};
use ts_mem::WriteMode;
use ts_sim::rng::SimRng;
use ts_stream::{Affine, DataSrc, StreamDesc};

/// A seeded hash-join instance.
#[derive(Debug, Clone)]
pub struct HashJoin {
    /// Probe tuples.
    pub ns: usize,
    /// Probe tuples per task.
    pub chunk: usize,
    skeys: Vec<i64>,
    spay: Vec<i64>,
    haddr: Vec<i64>,
    tkeys: Vec<i64>,
    tvals: Vec<i64>,
    sums_ref: Vec<i64>,
}

const SKEYS: u64 = 0;

impl HashJoin {
    /// Builds an instance with `nr` build tuples, `ns` probe tuples and
    /// `chunk` probe tuples per task. Roughly half the probes match.
    pub fn new(nr: usize, ns: usize, chunk: usize, seed: u64) -> Self {
        assert!(nr > 0 && ns > 0 && chunk > 0, "empty join instance");
        let mut rng = SimRng::seed(seed ^ 0x70_1A);
        let table_size = (2 * nr).next_power_of_two();
        let mask = table_size as u64 - 1;
        let hash = |k: i64| -> usize { ((k as u64).wrapping_mul(0x9E37_79B9) & mask) as usize };

        // build side: distinct keys in [0, 4*nr)
        let mut keys: Vec<i64> = (0..4 * nr as i64).collect();
        rng.shuffle(&mut keys);
        keys.truncate(nr);
        let mut tkeys = vec![-1i64; table_size];
        let mut tvals = vec![0i64; table_size];
        for &k in &keys {
            let mut slot = hash(k);
            while tkeys[slot] >= 0 {
                slot = (slot + 1) % table_size;
            }
            tkeys[slot] = k;
            tvals[slot] = rng.range_i64(1, 100);
        }

        // probe side: ~half hit, half miss (keys >= 4*nr never match)
        let mut skeys = Vec::with_capacity(ns);
        let mut spay = Vec::with_capacity(ns);
        let mut haddr = Vec::with_capacity(ns);
        for _ in 0..ns {
            let key = if rng.chance(0.5) {
                keys[rng.index(nr)]
            } else {
                4 * nr as i64 + rng.range_i64(0, 1 << 20)
            };
            skeys.push(key);
            spay.push(rng.range_i64(1, 50));
            // precomputed probe slot: where linear probing terminates
            let mut slot = hash(key);
            while tkeys[slot] >= 0 && tkeys[slot] != key {
                slot = (slot + 1) % table_size;
            }
            haddr.push(slot as i64);
        }

        // reference: per-chunk sum of s.pay * r.val over matches
        let n_chunks = ns.div_ceil(chunk);
        let mut sums_ref = vec![0i64; n_chunks];
        for i in 0..ns {
            let slot = haddr[i] as usize;
            if tkeys[slot] == skeys[i] {
                sums_ref[i / chunk] =
                    sums_ref[i / chunk].wrapping_add(spay[i].wrapping_mul(tvals[slot]));
            }
        }

        HashJoin {
            ns,
            chunk,
            skeys,
            spay,
            haddr,
            tkeys,
            tvals,
            sums_ref,
        }
    }

    /// Test-sized instance.
    pub fn tiny(seed: u64) -> Self {
        Self::new(64, 128, 32, seed)
    }

    /// Evaluation-sized instance.
    pub fn small(seed: u64) -> Self {
        Self::new(1024, 4096, 1024, seed)
    }

    fn n_chunks(&self) -> usize {
        self.ns.div_ceil(self.chunk)
    }

    fn spay_base(&self) -> u64 {
        SKEYS + self.ns as u64
    }

    fn haddr_base(&self) -> u64 {
        self.spay_base() + self.ns as u64
    }

    fn tkeys_base(&self) -> u64 {
        self.haddr_base() + self.ns as u64
    }

    fn tvals_base(&self) -> u64 {
        self.tkeys_base() + self.tkeys.len() as u64
    }

    fn sums_base(&self) -> u64 {
        self.tvals_base() + self.tvals.len() as u64
    }

    /// The probe pipeline as a declarative graph: a `PerElement` probe
    /// stage (two direct streams plus two gathers per chunk) piping
    /// matched products to a `PerElement` aggregate stage that sinks
    /// one sum word per chunk. Element-major emission keeps each
    /// chunk's pipe/probe/agg triplet adjacent, and the tail chunk
    /// shortens its streams and pipe capacity to the remaining tuples.
    fn graph_spec(&self) -> GraphSpec {
        let chunk = self.chunk;
        let ns = self.ns;
        let (spay_base, haddr_base) = (self.spay_base(), self.haddr_base());
        let (tkeys_base, tvals_base, sums_base) =
            (self.tkeys_base(), self.tvals_base(), self.sums_base());
        let len_of = move |c: usize| (chunk.min(ns - c * chunk)) as u64;
        let mut g = GraphSpec::new("hash_join")
            .memory(
                MemoryImage::new()
                    .dram_segment(SKEYS, self.skeys.clone())
                    .dram_segment(spay_base, self.spay.clone())
                    .dram_segment(haddr_base, self.haddr.clone())
                    .dram_segment(tkeys_base, self.tkeys.clone())
                    .dram_segment(tvals_base, self.tvals.clone())
                    .dram_segment(sums_base, vec![0; self.n_chunks()]),
            )
            .emission(Emission::ElementMajor);
        let probe = g.stage(Stage::new(
            "join_probe",
            TaskKernel::dfg(probe_dfg()),
            SpawnRule::PerElement {
                count: self.n_chunks(),
            },
            move |cx| {
                let lo = (cx.index * chunk) as u64;
                let len = len_of(cx.index);
                let idx = Affine::contiguous(haddr_base + lo, len);
                TaskSketch::new()
                    .input_stream(StreamDesc::dram(SKEYS + lo, len))
                    .input_stream(StreamDesc::dram(spay_base + lo, len))
                    .input_stream(StreamDesc::Indirect {
                        src: DataSrc::Dram,
                        base: tkeys_base,
                        scale: 1,
                        index: idx,
                        index_src: DataSrc::Dram,
                    })
                    .input_stream(StreamDesc::Indirect {
                        src: DataSrc::Dram,
                        base: tvals_base,
                        scale: 1,
                        index: idx,
                        index_src: DataSrc::Dram,
                    })
                    .output_downstream_cap(len)
                    .work_hint(4 * len)
                    .affinity(cx.index as u64)
            },
        ));
        let agg = g.stage(Stage::new(
            "join_agg",
            TaskKernel::dfg(agg_dfg()),
            SpawnRule::PerElement {
                count: self.n_chunks(),
            },
            move |cx| {
                TaskSketch::new()
                    .input_upstream(0)
                    .output_memory(
                        StreamDesc::dram(sums_base + cx.index as u64, 1),
                        WriteMode::Overwrite,
                    )
                    .work_hint(len_of(cx.index))
                    .affinity(cx.index as u64 + 1)
            },
        ));
        g.edge(
            probe,
            agg,
            Link::Pipe {
                capacity: chunk as u64,
            },
        );
        g
    }
}

/// Probe kernel: gather candidate, compare, emit matched product.
fn probe_dfg() -> Dfg {
    let mut b = DfgBuilder::new("join_probe");
    let skey = b.input();
    let spay = b.input();
    let tkey = b.input(); // gathered table key
    let tval = b.input(); // gathered table value
    let hit = b.eq(skey, tkey);
    let contrib = b.mul(spay, tval);
    b.output_when(contrib, hit);
    b.finish().expect("probe kernel is valid")
}

/// Aggregation kernel: running sum of matched products.
fn agg_dfg() -> Dfg {
    let mut b = DfgBuilder::new("join_agg");
    let x = b.input();
    let s = b.acc(x);
    b.output_on_last(s);
    b.finish().expect("agg kernel is valid")
}

/// The hand-assembled original, kept test-only so the differential
/// test can prove [`HashJoin::graph_spec`] compiles to the
/// byte-identical program.
#[cfg(test)]
struct HashJoinProgram {
    wl: HashJoin,
}

#[cfg(test)]
impl Program for HashJoinProgram {
    fn name(&self) -> &str {
        "hash_join"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![
            TaskType::new("join_probe", TaskKernel::dfg(probe_dfg())),
            TaskType::new("join_agg", TaskKernel::dfg(agg_dfg())),
        ]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new()
            .dram_segment(SKEYS, self.wl.skeys.clone())
            .dram_segment(self.wl.spay_base(), self.wl.spay.clone())
            .dram_segment(self.wl.haddr_base(), self.wl.haddr.clone())
            .dram_segment(self.wl.tkeys_base(), self.wl.tkeys.clone())
            .dram_segment(self.wl.tvals_base(), self.wl.tvals.clone())
            .dram_segment(self.wl.sums_base(), vec![0; self.wl.n_chunks()])
    }

    fn initial(&mut self, s: &mut Spawner) {
        for c in 0..self.wl.n_chunks() {
            let lo = (c * self.wl.chunk) as u64;
            let len = self.wl.chunk.min(self.wl.ns - c * self.wl.chunk) as u64;
            let idx = Affine::contiguous(self.wl.haddr_base() + lo, len);
            let pipe = s.pipe(len);
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_stream(StreamDesc::dram(SKEYS + lo, len))
                    .input_stream(StreamDesc::dram(self.wl.spay_base() + lo, len))
                    .input_stream(StreamDesc::Indirect {
                        src: DataSrc::Dram,
                        base: self.wl.tkeys_base(),
                        scale: 1,
                        index: idx,
                        index_src: DataSrc::Dram,
                    })
                    .input_stream(StreamDesc::Indirect {
                        src: DataSrc::Dram,
                        base: self.wl.tvals_base(),
                        scale: 1,
                        index: idx,
                        index_src: DataSrc::Dram,
                    })
                    .output_pipe(pipe)
                    .work_hint(4 * len)
                    .affinity(c as u64),
            );
            s.spawn(
                TaskInstance::new(TaskTypeId(1))
                    .input_pipe(pipe)
                    .output_memory(
                        StreamDesc::dram(self.wl.sums_base() + c as u64, 1),
                        WriteMode::Overwrite,
                    )
                    .work_hint(len)
                    .affinity(c as u64 + 1),
            );
        }
    }

    fn on_complete(&mut self, _done: &CompletedTask, _s: &mut Spawner) {}
}

impl Workload for HashJoin {
    fn name(&self) -> &'static str {
        "hash_join"
    }

    fn make_program(&self) -> Box<dyn Program> {
        Box::new(
            self.graph_spec()
                .compile()
                .expect("hash_join GraphSpec is valid"),
        )
    }

    fn validate(&self, report: &RunReport) -> Result<(), String> {
        check_range(report, self.sums_base(), &self.sums_ref, "chunk_sum")
    }

    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "hash_join",
            description: "hash-join probe with pipelined aggregation",
            pattern: "probe→aggregate task chains",
            stresses: "pipelined inter-task dependences, gathers",
            tasks: 2 * self.n_chunks() as u64,
            elements: self.ns as u64,
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
        // (64,128,32) and (1024,4096,1024) are the tiny/small presets;
        // (64,100,32) forces a short tail chunk
        for (nr, ns, chunk) in [(64, 128, 32), (64, 100, 32), (1024, 4096, 1024)] {
            let w = HashJoin::new(nr, ns, chunk, 6);
            let mut hand = HashJoinProgram { wl: w.clone() };
            let mut compiled = w.make_program();
            assert_eq!(
                crate::program_signature(&mut hand),
                crate::program_signature(compiled.as_mut()),
                "nr={nr} ns={ns} chunk={chunk}"
            );
        }
    }

    #[test]
    fn graph_spec_runs_identically_to_hand_assembled() {
        let w = HashJoin::tiny(6);
        let run = |p: &mut dyn Program| Accelerator::new(DeltaConfig::delta(4)).run(p).unwrap();
        let hand = run(&mut HashJoinProgram { wl: w.clone() });
        let compiled = run(w.make_program().as_mut());
        assert_eq!(hand.cycles, compiled.cycles);
        assert_eq!(
            hand.dram_range(w.sums_base(), w.n_chunks()),
            compiled.dram_range(w.sums_base(), w.n_chunks())
        );
    }

    #[test]
    fn reference_sums_only_matches() {
        let w = HashJoin::tiny(2);
        // every probe with a matching key contributes; misses don't
        let mut total_hits = 0;
        for i in 0..w.ns {
            if w.tkeys[w.haddr[i] as usize] == w.skeys[i] {
                total_hits += 1;
            }
        }
        assert!(total_hits > 0, "no matches generated");
        assert!(total_hits < w.ns, "everything matched");
    }

    #[test]
    fn validates_on_delta_and_baseline() {
        for cfg in [DeltaConfig::delta(4), DeltaConfig::static_parallel(4)] {
            let w = HashJoin::tiny(9);
            let mut p = w.make_program();
            let r = Accelerator::new(cfg).run(p.as_mut()).unwrap();
            w.validate(&r).unwrap();
        }
    }

    #[test]
    fn pipelining_uses_direct_pipes_when_tiles_outnumber_sources() {
        // 2 probe+agg chains on 8 tiles: consumers co-schedule onto
        // idle tiles and the pipes go direct
        let w = HashJoin::new(64, 64, 32, 4);
        let mut p = w.make_program();
        let r = Accelerator::new(DeltaConfig::delta(8))
            .run(p.as_mut())
            .unwrap();
        w.validate(&r).unwrap();
        assert!(r.counters.tile_total().pipes_direct > 0);
    }

    #[test]
    fn baseline_spills_pipes() {
        let w = HashJoin::tiny(4);
        let mut p = w.make_program();
        let r = Accelerator::new(DeltaConfig::delta(4).with_features(Features {
            work_aware: true,
            pipelining: false,
            multicast: true,
        }))
        .run(p.as_mut())
        .unwrap();
        let tiles = r.counters.tile_total();
        assert_eq!(tiles.pipes_direct, 0);
        assert!(tiles.pipes_spilled > 0);
        w.validate(&r).unwrap();
    }
}
