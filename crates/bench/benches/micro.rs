//! Criterion microbenchmarks of the simulator's hot substrates: the
//! DFG interpreter, the CGRA mapper, the NoC, the DRAM model, and a
//! full tiny accelerator run; plus the `scheduler` group, which times
//! the main loop on the regimes its event-driven scheduling must
//! straddle: a busy grid with nothing to skip, a latency-bound chain
//! whose heads sit blocked on DRAM, and a sparse chain that leaves the
//! machine quiescent between spawns.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use taskstream_model::{
    CompletedTask, MemoryImage, Program, Spawner, TaskInstance, TaskKernel, TaskType, TaskTypeId,
};
use ts_cgra::{Fabric, FabricConfig};
use ts_delta::{Accelerator, DeltaConfig};
use ts_dfg::{interp, DfgBuilder};
use ts_mem::{Dram, DramConfig, JobKind};
use ts_noc::Mesh;
use ts_stream::StreamDesc;
use ts_workloads::{spmv::Spmv, Workload};

fn dfg_interpreter(c: &mut Criterion) {
    let mut b = DfgBuilder::new("mac");
    let x = b.input();
    let y = b.input();
    let last = b.input();
    let prod = b.mul(x, y);
    let acc = b.acc_gate(prod, last);
    b.output_when(acc, last);
    let g = b.finish().unwrap();
    let xs: Vec<i64> = (0..1024).collect();
    let ys: Vec<i64> = (0..1024).rev().collect();
    let flags: Vec<i64> = (0..1024).map(|i| i64::from(i % 16 == 15)).collect();
    c.bench_function("dfg_interp_1k_mac", |bench| {
        bench.iter(|| interp::execute(&g, &[], &[xs.clone(), ys.clone(), flags.clone()]).unwrap())
    });
}

fn cgra_mapper(c: &mut Criterion) {
    let mut b = DfgBuilder::new("chain");
    let x = b.input();
    let mut cur = x;
    for i in 0..12 {
        let k = b.constant(i);
        cur = if i % 3 == 0 {
            b.mul(cur, k)
        } else {
            b.add(cur, k)
        };
    }
    b.output(cur);
    let g = b.finish().unwrap();
    let fabric = Fabric::new(FabricConfig::default());
    c.bench_function("cgra_map_12op", |bench| {
        bench.iter(|| fabric.map(black_box(&g), 7).unwrap())
    });
}

fn noc_saturation(c: &mut Criterion) {
    c.bench_function("noc_4x3_1k_flits", |bench| {
        bench.iter(|| {
            let mut mesh: Mesh<u64> = Mesh::new(4, 3, 8);
            let mut sent = 0u64;
            let mut done = 0usize;
            while done < 1000 {
                while sent < 1000 && mesh.inject(0, &[11], sent).is_ok() {
                    sent += 1;
                }
                mesh.tick();
                while mesh.eject(11).is_some() {
                    done += 1;
                }
            }
            black_box(done)
        })
    });
}

fn dram_streaming(c: &mut Criterion) {
    c.bench_function("dram_stream_4k_words", |bench| {
        bench.iter(|| {
            let mut d = Dram::new(DramConfig {
                words: 8192,
                latency: 20,
                ..DramConfig::default()
            });
            d.submit(
                JobKind::Read {
                    addrs: (0..4096).collect(),
                    gather: false,
                },
                0,
            )
            .unwrap();
            let mut now = 0;
            while !d.is_idle() {
                black_box(d.tick(now));
                now += 1;
            }
            now
        })
    });
}

fn full_run(c: &mut Criterion) {
    c.bench_function("accel_spmv_tiny", |bench| {
        let wl = Spmv::tiny(3);
        bench.iter(|| {
            let mut p = wl.make_program();
            Accelerator::new(DeltaConfig::delta(4))
                .run(p.as_mut())
                .unwrap()
                .cycles
        })
    });
}

fn reduce_type(name: &str) -> TaskType {
    let mut b = DfgBuilder::new(name);
    let x = b.input();
    let s = b.acc(x);
    b.output_on_last(s);
    TaskType::new(name, TaskKernel::dfg(b.finish().unwrap()))
}

/// Waves of `width` parallel reductions over a `words`-long DRAM row;
/// each wave spawns the next when its last task completes.
struct Waves {
    width: usize,
    words: u64,
    waves: usize,
    outstanding: usize,
}

impl Waves {
    fn spawn_wave(&mut self, s: &mut Spawner) {
        self.waves -= 1;
        self.outstanding = self.width;
        for i in 0..self.width {
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_stream(StreamDesc::dram(0, self.words))
                    .output_discard()
                    .affinity(i as u64),
            );
        }
    }
}

impl Program for Waves {
    fn name(&self) -> &str {
        "waves"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![reduce_type("reduce")]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new().dram_segment(0, (1..=self.words as i64).collect::<Vec<_>>())
    }

    fn initial(&mut self, s: &mut Spawner) {
        self.spawn_wave(s);
    }

    fn on_complete(&mut self, _done: &CompletedTask, s: &mut Spawner) {
        self.outstanding -= 1;
        if self.outstanding == 0 && self.waves > 0 {
            self.spawn_wave(s);
        }
    }
}

/// Busy grid: waves as wide as the machine keep every tile's head
/// firing at its initiation interval, so the scheduler pays
/// `next_event` on every ticked cycle and has nothing to skip.
fn gemm_grid(c: &mut Criterion) {
    c.bench_function("sched_gemm_grid", |bench| {
        bench.iter(|| {
            let cfg = DeltaConfig::builder(16)
                .spawn_latency(40)
                .host_latency(40)
                .build();
            let mut p = Waves {
                width: 16,
                words: 256,
                waves: 12,
                outstanding: 0,
            };
            Accelerator::new(cfg).run(&mut p).unwrap().cycles
        })
    });
}

/// Latency-bound chain: one task at a time streams a row through a slow
/// DRAM, so the resident head spends most cycles provably blocked on
/// stream arrivals and is bulk-advanced in closed form.
fn spmv_chain(c: &mut Criterion) {
    c.bench_function("sched_spmv_chain", |bench| {
        bench.iter(|| {
            let cfg = DeltaConfig::builder(4)
                .dram_latency(80)
                .spawn_latency(60)
                .host_latency(60)
                .build();
            let mut p = Waves {
                width: 1,
                words: 128,
                waves: 40,
                outstanding: 0,
            };
            Accelerator::new(cfg).run(&mut p).unwrap().cycles
        })
    });
}

/// Sparse chain: long spawn/host latency windows leave the machine
/// quiescent most of the time, which the next-event jump skips.
fn sparse_chain(c: &mut Criterion) {
    c.bench_function("sched_sparse_chain", |bench| {
        bench.iter(|| {
            let cfg = DeltaConfig::builder(4)
                .spawn_latency(600)
                .host_latency(600)
                .build();
            let mut p = Waves {
                width: 1,
                words: 64,
                waves: 40,
                outstanding: 0,
            };
            Accelerator::new(cfg).run(&mut p).unwrap().cycles
        })
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = dfg_interpreter, cgra_mapper, noc_saturation, dram_streaming, full_run
);
criterion_group!(
    name = scheduler;
    config = Criterion::default().sample_size(20);
    targets = gemm_grid, spmv_chain, sparse_chain
);
criterion_main!(micro, scheduler);
