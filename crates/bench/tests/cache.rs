//! Integration tests of the persistent result cache: a warm re-run
//! answers every job from disk with byte-identical output, the
//! content-addressed key misses whenever the configuration, the seed,
//! the program or the build salt changes, and a damaged entry is a
//! miss.
//!
//! The cache is process-global state (enabled flag, directory
//! override, counters), so every test takes `LOCK` and scopes its
//! enablement with [`CacheGuard`].

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use taskstream_model::{
    CompletedTask, InputBinding, MemoryImage, MergeKernel, OutputBinding, PipeId, Policy, Program,
    RegionId, Spawner, TaskInstance, TaskKernel, TaskType, TaskTypeId,
};
use ts_bench::{cache, experiments, run_jobs, FaultOutcome, SweepJob};
use ts_cgra::FabricConfig;
use ts_delta::{
    DeltaConfig, DeltaConfigBuilder, FaultsConfig, Features, RunReport, TenancyConfig, TenantSpec,
};
use ts_dfg::{Dfg, DfgBuilder};
use ts_mem::{DramConfig, WriteMode};
use ts_stream::{Affine, DataSrc, StreamDesc};
use ts_workloads::{sparse_chain::SparseChain, spmv::Spmv, Scale, Workload, WorkloadInfo};

static LOCK: Mutex<()> = Mutex::new(());

/// Points the cache at a fresh scratch directory and enables it; on
/// drop, disables the cache again and removes the directory, so tests
/// can't see each other's entries (or litter the repo).
struct CacheGuard {
    dir: PathBuf,
    _held: MutexGuard<'static, ()>,
}

impl CacheGuard {
    fn new(tag: &str) -> Self {
        let held = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("ts-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        cache::set_dir(dir.clone());
        cache::set_enabled(true);
        cache::reset_stats();
        CacheGuard { dir, _held: held }
    }
}

impl Drop for CacheGuard {
    fn drop(&mut self) {
        cache::set_enabled(false);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn warm_rerun_is_byte_identical_and_served_from_disk() {
    let _guard = CacheGuard::new("warm");

    // Reference: what the experiment produces with no cache at all.
    cache::set_enabled(false);
    let reference = experiments::run_doc("fig_noc", Scale::Tiny);
    cache::set_enabled(true);

    // Cold: every job simulates and stores.
    let cold = experiments::run_doc("fig_noc", Scale::Tiny);
    let after_cold = cache::stats();
    assert_eq!(cold, reference, "caching must never change results");
    assert_eq!(after_cold.hits, 0, "scratch dir cannot produce hits");
    assert!(after_cold.stores > 0, "cold run must populate the cache");
    let sims = after_cold.stores;

    // Warm: every job answers from disk, byte-identical.
    cache::reset_stats();
    let warm = experiments::run_doc("fig_noc", Scale::Tiny);
    let after_warm = cache::stats();
    assert_eq!(warm, reference, "warm run must be byte-identical");
    assert_eq!(after_warm.hits, sims, "every job must hit");
    assert_eq!(after_warm.misses, 0);
    assert_eq!(after_warm.stores, 0);
}

#[test]
fn faulted_outcomes_roundtrip_through_the_cache() {
    let _guard = CacheGuard::new("faulted");

    let cache_off = || {
        cache::set_enabled(false);
        let doc = experiments::run_doc("fig_faults", Scale::Tiny);
        cache::set_enabled(true);
        doc
    };
    let reference = cache_off();

    let cold = experiments::run_doc("fig_faults", Scale::Tiny);
    assert_eq!(cold, reference);
    assert!(cache::stats().stores > 0);

    cache::reset_stats();
    let warm = experiments::run_doc("fig_faults", Scale::Tiny);
    assert_eq!(warm, reference, "faulted outcomes must replay exactly");
    assert!(cache::stats().hits > 0, "warm fault sweep must hit");
    assert_eq!(cache::stats().misses, 0);
}

#[test]
fn key_changes_with_config_seed_and_salt() {
    let wl = Spmv::tiny(experiments::SEED);
    let cfg = DeltaConfig::delta(8);
    let base = cache::key_with_salt(&wl, &cfg, false, false, 1);

    // Every config knob participates in the key: each builder setter,
    // applied alone, must produce a key distinct from the base and from
    // every other perturbation. The key hashes the config's byte
    // encoding, so a field left out of it would alias distinct configs.
    type Setter = fn(DeltaConfigBuilder) -> DeltaConfigBuilder;
    let setters: [(&str, Setter); 29] = [
        ("mem_ctrls", |b| b.mem_ctrls(2)),
        ("fabric", |b| {
            b.fabric(FabricConfig {
                rows: 5,
                ..FabricConfig::default()
            })
        }),
        ("fabric_lanes", |b| b.fabric_lanes(3)),
        ("fabric_config_per_pe", |b| b.fabric_config_per_pe(9)),
        ("spad_words", |b| b.spad_words(1024)),
        ("spad_bw", |b| b.spad_bw(2.5)),
        ("dram", |b| {
            b.dram(DramConfig {
                gather_cost: 9,
                ..DeltaConfig::delta(8).dram
            })
        }),
        ("dram_latency", |b| b.dram_latency(61)),
        ("noc_queue", |b| b.noc_queue(3)),
        ("tile_queue", |b| b.tile_queue(7)),
        ("out_buf", |b| b.out_buf(5)),
        ("engine_rate", |b| b.engine_rate(3.0)),
        ("dispatch_per_cycle", |b| b.dispatch_per_cycle(3)),
        ("dispatch_window", |b| b.dispatch_window(9)),
        ("spawn_latency", |b| b.spawn_latency(13)),
        ("host_latency", |b| b.host_latency(13)),
        ("task_start_overhead", |b| b.task_start_overhead(7)),
        ("mem_req_latency", |b| b.mem_req_latency(9)),
        ("mcast_batch_window", |b| b.mcast_batch_window(25)),
        ("prefetch_depth", |b| b.prefetch_depth(3)),
        ("policy", |b| b.policy(Policy::RoundRobin)),
        ("features", |b| {
            b.features(Features {
                multicast: false,
                ..Features::all()
            })
        }),
        ("work_stealing", |b| b.work_stealing(true)),
        ("trace", |b| b.trace(true)),
        ("faults", |b| b.faults(FaultsConfig::chaos())),
        ("tenancy", |b| {
            b.tenancy(TenancyConfig::shared(vec![
                TenantSpec::flood(),
                TenantSpec::paced(4),
            ]))
        }),
        ("seed", |b| b.seed(12345)),
        ("max_cycles", |b| b.max_cycles(1_000_000)),
        ("stall_limit", |b| b.stall_limit(1_000)),
    ];
    let mut keys = HashSet::from([base.clone()]);
    for (name, set) in setters {
        let perturbed = set(cfg.clone().to_builder()).build();
        assert!(
            keys.insert(cache::key_with_salt(&wl, &perturbed, false, false, 1)),
            "changing {name} must miss"
        );
    }

    // A different build salt addresses a disjoint slice of the cache.
    assert_ne!(
        base,
        cache::key_with_salt(&wl, &cfg, false, false, 2),
        "salt change must miss"
    );

    // Different run modes never share entries.
    assert_ne!(
        base,
        cache::key_with_salt(&wl, &cfg, false, true, 1),
        "validated and faulted entries must not collide"
    );

    // The workload's program content is the workload identity: a
    // different instance (different seed → different matrix) misses.
    let other = Spmv::tiny(experiments::SEED + 1);
    assert_ne!(
        base,
        cache::key_with_salt(&other, &cfg, false, false, 1),
        "workload content change must miss"
    );

    // And the key is stable where it should be: same inputs, same key.
    assert_eq!(base, cache::key_with_salt(&wl, &cfg, false, false, 1));
    assert_eq!(base.len(), 64, "sha-256 hex");
}

/// Two programs that differ only in a DFG constant are two programs:
/// `sparse_chain`'s scale kernel bakes `alpha` into the graph, and
/// nothing else in the program carries it.
#[test]
fn dfg_constants_reach_the_key() {
    let cfg = DeltaConfig::delta(4);
    let wl = SparseChain::tiny(experiments::SEED);
    let mut other = wl.clone();
    other.alpha += 1;
    assert_ne!(
        cache::key_with_salt(&wl, &cfg, false, false, 1),
        cache::key_with_salt(&other, &cfg, false, false, 1),
        "a changed DFG constant must miss"
    );
}

/// A small hand-written program, never run, only hashed: two task
/// types, a DRAM and a scratchpad segment, two pipes, and two tasks
/// that between them use every input and output binding and every
/// stream descriptor variant.
#[derive(Clone)]
struct Handmade {
    types: Vec<TaskType>,
    image: MemoryImage,
    /// Capacity hints of the pipes `initial` declares, ids from 0.
    pipes: Vec<u64>,
    tasks: Vec<TaskInstance>,
}

/// `x * c + param0` (or `- param0` with `sub`): one input, one constant,
/// one parameter.
fn axpy(c: i64, sub: bool) -> Dfg {
    let mut b = DfgBuilder::new("axpy");
    let x = b.input();
    let k = b.constant(c);
    let p = b.param(0);
    let m = b.mul(x, k);
    let y = if sub { b.sub(m, p) } else { b.add(m, p) };
    b.output(y);
    b.finish().expect("axpy is valid")
}

impl Handmade {
    fn new() -> Self {
        let (p0, p1) = (PipeId(0), PipeId(1));
        let producer = TaskInstance::new(TaskTypeId(0))
            .params([7])
            .input_stream(StreamDesc::affine(
                DataSrc::Dram,
                Affine::new(16, [1, 4, 8], [2, 2, 2]),
            ))
            .input_shared(
                StreamDesc::Indirect {
                    src: DataSrc::Dram,
                    base: 100,
                    scale: 2,
                    index: Affine::contiguous(0, 4),
                    index_src: DataSrc::Spad,
                },
                RegionId(1),
            )
            .output_memory(StreamDesc::dram(200, 4), WriteMode::Overwrite)
            .output_scatter(DataSrc::Dram, 300, 1, 0, WriteMode::Add)
            .output_pipe(p0)
            .output_discard()
            .affinity(5);
        let consumer = TaskInstance::new(TaskTypeId(1))
            .input_pipe(p0)
            .input_stream(StreamDesc::literal([1, 2, 3]))
            .input_stream(StreamDesc::iota(0, 1, 8))
            .output_pipe(p1);
        Handmade {
            types: vec![
                TaskType::new("axpy", TaskKernel::dfg(axpy(3, false))),
                TaskType::new("merge", TaskKernel::native(MergeKernel)),
            ],
            image: MemoryImage::new()
                .dram_segment(0, vec![1, 2, 3, 4])
                .spad_segment(0, vec![5, 6]),
            pipes: vec![64, 32],
            tasks: vec![producer, consumer],
        }
    }
}

impl Program for Handmade {
    fn name(&self) -> &str {
        "handmade"
    }

    fn task_types(&self) -> Vec<TaskType> {
        self.types.clone()
    }

    fn memory_image(&self) -> MemoryImage {
        self.image.clone()
    }

    fn initial(&mut self, s: &mut Spawner) {
        for &hint in &self.pipes {
            s.pipe(hint);
        }
        for t in &self.tasks {
            s.spawn(t.clone());
        }
    }

    fn on_complete(&mut self, _: &CompletedTask, _: &mut Spawner) {}
}

impl Workload for Handmade {
    fn name(&self) -> &'static str {
        "handmade"
    }

    fn make_program(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }

    fn validate(&self, _: &RunReport) -> Result<(), String> {
        Ok(())
    }

    fn info(&self) -> WorkloadInfo {
        WorkloadInfo {
            name: "handmade",
            description: "hashed, never run",
            pattern: "-",
            stresses: "-",
            tasks: 2,
            elements: 0,
            grain: 0,
        }
    }
}

/// The program-side twin of `key_changes_with_config_seed_and_salt`:
/// each perturbation changes one thing the program hands the
/// accelerator, and must give a key distinct from the base and from
/// every other perturbation.
#[test]
fn every_program_field_reaches_the_key() {
    fn input(h: &mut Handmade, task: usize, port: usize) -> &mut InputBinding {
        &mut h.tasks[task].inputs[port]
    }
    fn output(h: &mut Handmade, task: usize, port: usize) -> &mut OutputBinding {
        &mut h.tasks[task].outputs[port]
    }
    /// The producer's affine input, rebuilt with one argument changed.
    fn affine(h: &mut Handmade, base: u64, stride: [i64; 3], len: [u64; 3]) {
        *input(h, 0, 0) = InputBinding::Stream(StreamDesc::affine(
            DataSrc::Dram,
            Affine::new(base, stride, len),
        ));
    }
    fn indirect(h: &mut Handmade) -> &mut StreamDesc {
        match input(h, 0, 1) {
            InputBinding::Shared { desc, .. } => desc,
            other => panic!("producer port 1 is {other:?}"),
        }
    }
    fn scatter(h: &mut Handmade) -> &mut OutputBinding {
        output(h, 0, 1)
    }
    type Perturb = fn(&mut Handmade);
    let perturbations: [(&str, Perturb); 42] = [
        // TaskInstance fields.
        ("ty", |h| h.tasks[1].ty = TaskTypeId(0)),
        ("params", |h| h.tasks[0].params[0] = 8),
        ("inputs", |h| {
            h.tasks[1].inputs.pop();
        }),
        ("outputs", |h| {
            h.tasks[1].outputs.push(OutputBinding::Discard)
        }),
        ("work_hint", |h| h.tasks[0].work_hint += 1),
        ("affinity", |h| h.tasks[0].affinity = 6),
        // InputBinding variants and fields.
        ("Stream -> Shared", |h| {
            let InputBinding::Stream(desc) = input(h, 0, 0).clone() else {
                unreachable!()
            };
            *input(h, 0, 0) = InputBinding::Shared {
                desc,
                region: RegionId(0),
            };
        }),
        ("Shared.region", |h| {
            if let InputBinding::Shared { region, .. } = input(h, 0, 1) {
                *region = RegionId(2);
            }
        }),
        ("Shared -> Stream", |h| {
            let desc = indirect(h).clone();
            *input(h, 0, 1) = InputBinding::Stream(desc);
        }),
        ("input Pipe id", |h| {
            *input(h, 1, 0) = InputBinding::Pipe(PipeId(1))
        }),
        // OutputBinding variants and fields.
        ("Memory.desc", |h| {
            *output(h, 0, 0) = OutputBinding::Memory {
                desc: StreamDesc::dram(201, 4),
                mode: WriteMode::Overwrite,
            };
        }),
        ("Memory.mode", |h| {
            *output(h, 0, 0) = OutputBinding::Memory {
                desc: StreamDesc::dram(200, 4),
                mode: WriteMode::Min,
            };
        }),
        ("Scatter.src", |h| {
            if let OutputBinding::Scatter { src, .. } = scatter(h) {
                *src = DataSrc::Spad;
            }
        }),
        ("Scatter.base", |h| {
            if let OutputBinding::Scatter { base, .. } = scatter(h) {
                *base += 1;
            }
        }),
        ("Scatter.scale", |h| {
            if let OutputBinding::Scatter { scale, .. } = scatter(h) {
                *scale = 2;
            }
        }),
        ("Scatter.addr_port", |h| {
            if let OutputBinding::Scatter { addr_port, .. } = scatter(h) {
                *addr_port = 2;
            }
        }),
        ("Scatter.mode", |h| {
            if let OutputBinding::Scatter { mode, .. } = scatter(h) {
                *mode = WriteMode::Min;
            }
        }),
        ("output Pipe id", |h| {
            *output(h, 0, 2) = OutputBinding::Pipe(PipeId(1))
        }),
        ("Discard -> Pipe", |h| {
            *output(h, 0, 3) = OutputBinding::Pipe(PipeId(0))
        }),
        // StreamDesc variants and fields.
        ("Affine.src", |h| {
            *input(h, 0, 0) = InputBinding::Stream(StreamDesc::affine(
                DataSrc::Spad,
                Affine::new(16, [1, 4, 8], [2, 2, 2]),
            ));
        }),
        ("Affine.base", |h| affine(h, 17, [1, 4, 8], [2, 2, 2])),
        ("Affine.stride[0]", |h| affine(h, 16, [2, 4, 8], [2, 2, 2])),
        ("Affine.stride[1]", |h| affine(h, 16, [1, 5, 8], [2, 2, 2])),
        ("Affine.stride[2]", |h| affine(h, 16, [1, 4, 9], [2, 2, 2])),
        ("Affine.len[0]", |h| affine(h, 16, [1, 4, 8], [3, 2, 2])),
        ("Affine.len[1]", |h| affine(h, 16, [1, 4, 8], [2, 3, 2])),
        ("Affine.len[2]", |h| affine(h, 16, [1, 4, 8], [2, 2, 3])),
        ("Indirect.src", |h| {
            if let StreamDesc::Indirect { src, .. } = indirect(h) {
                *src = DataSrc::Spad;
            }
        }),
        ("Indirect.base", |h| {
            if let StreamDesc::Indirect { base, .. } = indirect(h) {
                *base += 1;
            }
        }),
        ("Indirect.scale", |h| {
            if let StreamDesc::Indirect { scale, .. } = indirect(h) {
                *scale = 3;
            }
        }),
        ("Indirect.index", |h| {
            if let StreamDesc::Indirect { index, .. } = indirect(h) {
                *index = Affine::contiguous(1, 4);
            }
        }),
        ("Indirect.index_src", |h| {
            if let StreamDesc::Indirect { index_src, .. } = indirect(h) {
                *index_src = DataSrc::Dram;
            }
        }),
        ("Literal word", |h| {
            *input(h, 1, 1) = InputBinding::Stream(StreamDesc::literal([1, 2, 4]));
        }),
        ("Iota.start", |h| {
            *input(h, 1, 2) = InputBinding::Stream(StreamDesc::iota(1, 1, 8));
        }),
        ("Iota.step", |h| {
            *input(h, 1, 2) = InputBinding::Stream(StreamDesc::iota(0, 2, 8));
        }),
        ("Iota.len", |h| {
            *input(h, 1, 2) = InputBinding::Stream(StreamDesc::iota(0, 1, 9));
        }),
        // Pipes, memory image and kernels.
        ("capacity_hint", |h| h.pipes[0] = 65),
        ("DRAM word", |h| h.image.dram[0].1[2] = 9),
        ("scratchpad word", |h| h.image.spad[0].1[1] = 9),
        ("DFG constant", |h| {
            h.types[0].kernel = TaskKernel::dfg(axpy(4, false));
        }),
        ("DFG op", |h| {
            h.types[0].kernel = TaskKernel::dfg(axpy(3, true))
        }),
        ("task type name", |h| h.types[1].name = "merge'".into()),
    ];
    let cfg = DeltaConfig::delta(4);
    let key = |h: &Handmade| cache::key_with_salt(h, &cfg, false, false, 1);
    let base = key(&Handmade::new());
    assert_eq!(base, key(&Handmade::new()), "the key is deterministic");
    let mut keys = HashSet::from([base]);
    for (name, perturb) in perturbations {
        let mut h = Handmade::new();
        perturb(&mut h);
        assert!(keys.insert(key(&h)), "changing {name} must miss");
    }
}

#[test]
fn clear_and_disk_stats_track_the_store() {
    let guard = CacheGuard::new("clear");

    experiments::run_doc("fig_noc", Scale::Tiny);
    let stored = cache::stats().stores;
    assert!(stored > 0);

    let (entries, bytes) = cache::disk_stats().expect("scratch dir readable");
    assert_eq!(entries, stored, "one file per stored outcome");
    assert!(bytes > 0);

    // Stale files the cache still owns: an entry written by a format-1
    // build and the temp file of a store killed before its rename.
    let stale = [
        ("0123abcd.json", &b"{\"format\": \"1\"}"[..]),
        (".tmp-999-0-deadbeef", &b"partial"[..]),
    ];
    for (name, body) in stale {
        std::fs::write(guard.dir.join(name), body).expect("plant stale file");
    }
    let (with_stale, stale_bytes) = cache::disk_stats().expect("still readable");
    assert_eq!(with_stale, stored + 2, "stale files are counted");
    let planted: usize = stale.iter().map(|(_, body)| body.len()).sum();
    assert_eq!(stale_bytes, bytes + planted as u64);

    let removed = cache::clear().expect("clear succeeds");
    assert_eq!(removed, stored + 2);
    let (entries, bytes) = cache::disk_stats().expect("still readable");
    assert_eq!((entries, bytes), (0, 0));
    assert_eq!(
        std::fs::read_dir(&guard.dir).expect("dir kept").count(),
        0,
        "nothing is left behind"
    );

    // A cleared cache is a cold cache, not an error.
    cache::reset_stats();
    experiments::run_doc("fig_noc", Scale::Tiny);
    assert_eq!(cache::stats().hits, 0);
    assert!(cache::stats().stores > 0);
}

/// Stores `job`'s outcome alone in the (empty) cache directory and
/// returns the entry's path and bytes.
fn only_entry(dir: &Path, job: &SweepJob) -> (PathBuf, Vec<u8>) {
    run_jobs(std::slice::from_ref(job));
    let files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("cache dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(files.len(), 1, "one job stores one entry");
    let bytes = std::fs::read(&files[0]).expect("entry readable");
    (files[0].clone(), bytes)
}

/// Every truncation and every single-byte flip of a real completed
/// entry and a real wedged one loads as a miss: no panic, no hit.
#[test]
fn damaged_entries_load_as_misses() {
    let guard = CacheGuard::new("damaged");
    let jobs = experiments::plan("fig_faults", Scale::Tiny).jobs;
    let outcomes = run_jobs(&jobs);
    let pick = |wedged: bool| {
        let i = outcomes
            .iter()
            .position(|o| matches!(o, FaultOutcome::Wedged { .. }) == wedged)
            .expect("fig_faults has both outcomes");
        &jobs[i]
    };

    for job in [pick(false), pick(true)] {
        let key = cache::key(job.wl.as_ref(), &job.cfg, job.baseline, job.faulted);
        cache::clear().expect("clear succeeds");
        let (path, good) = only_entry(&guard.dir, job);
        cache::reset_stats();
        assert!(
            cache::load(&key, job.faulted).is_some(),
            "intact entry hits"
        );

        let mut damaged = 0;
        let mut check = |bytes: &[u8]| {
            std::fs::write(&path, bytes).expect("rewrite entry");
            assert!(
                cache::load(&key, job.faulted).is_none(),
                "damaged entry hit"
            );
            damaged += 1;
        };
        for len in 0..good.len() {
            check(&good[..len]);
        }
        let mut flipped = good.clone();
        for i in 0..good.len() {
            flipped[i] ^= 0x5a;
            check(&flipped);
            flipped[i] = good[i];
        }
        let s = cache::stats();
        assert_eq!(
            (s.hits, s.misses),
            (1, damaged),
            "every damaged load is a miss"
        );
    }
}

#[test]
fn disabled_cache_touches_nothing() {
    let _guard = CacheGuard::new("disabled");
    cache::set_enabled(false);

    experiments::run_doc("fig_noc", Scale::Tiny);
    let s = cache::stats();
    assert_eq!((s.hits, s.misses, s.stores), (0, 0, 0));
    assert!(
        cache::disk_stats().map(|(n, _)| n).unwrap_or(0) == 0,
        "no entries may be written while disabled"
    );
}
