//! Accelerator configuration: presets, the typed builder, and the
//! fault-injection knobs.
//!
//! [`DeltaConfig`]'s fields stay readable, but the sanctioned way to
//! *customize* a configuration is the fluent surface: start from a
//! named preset ([`DeltaConfig::delta`], [`DeltaConfig::static_baseline`],
//! [`DeltaConfig::ablation`]) or from [`DeltaConfig::builder`], chain
//! setters, and [`DeltaConfigBuilder::build`] validates the result.

use crate::faults::FaultsConfig;
use crate::tenancy::TenancyConfig;
use std::hash::{Hash, Hasher};
use taskstream_model::Policy;
use ts_cgra::FabricConfig;
use ts_mem::DramConfig;

/// The three TaskStream mechanisms, individually toggleable (the
/// ablation axes of the evaluation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Features {
    /// Work-aware load balancing (vs. the configured fallback policy).
    pub work_aware: bool,
    /// Pipelined inter-task dependences (vs. serializing through DRAM).
    pub pipelining: bool,
    /// Multicast of shared reads (vs. one DRAM read per sharer).
    pub multicast: bool,
}

impl Features {
    /// All mechanisms on (Delta).
    pub fn all() -> Self {
        Features {
            work_aware: true,
            pipelining: true,
            multicast: true,
        }
    }

    /// All mechanisms off (the static-parallel design).
    pub fn none() -> Self {
        Features {
            work_aware: false,
            pipelining: false,
            multicast: false,
        }
    }
}

/// Full configuration of a Delta (or baseline) instance.
#[derive(Debug, Clone)]
pub struct DeltaConfig {
    /// Number of compute tiles.
    pub tiles: usize,
    /// Number of memory-controller nodes on the mesh.
    pub mem_ctrls: usize,
    /// Per-tile CGRA fabric.
    pub fabric: FabricConfig,
    /// Per-tile scratchpad size in words.
    pub spad_words: usize,
    /// Per-tile scratchpad accesses per cycle.
    pub spad_bw: f64,
    /// Shared DRAM model (capacity is grown automatically to cover the
    /// program image plus spill space).
    pub dram: DramConfig,
    /// Per-port router queue capacity.
    pub noc_queue: usize,
    /// Dispatched-task queue depth per tile.
    pub tile_queue: usize,
    /// Output-port buffer depth (words) per port.
    pub out_buf: usize,
    /// Engine rate for locally generated streams (words/cycle).
    pub engine_rate: f64,
    /// Tasks the dispatcher can place per cycle.
    pub dispatch_per_cycle: usize,
    /// How far into the pending queue the dispatcher looks for ready
    /// tasks, multicast groups and pipeline chains.
    pub dispatch_window: usize,
    /// Cycles from a spawn decision to the task entering the pending
    /// queue (task-creation message cost).
    pub spawn_latency: u64,
    /// Cycles from task completion to the host seeing it.
    pub host_latency: u64,
    /// Fixed per-task startup cost at a tile (descriptor decode, port
    /// setup).
    pub task_start_overhead: u64,
    /// Control-path latency from a stream engine to a memory controller.
    pub mem_req_latency: u64,
    /// Extra cycles a shared read waits at the controller so later
    /// sharers can join the multicast (the multicast table's batching
    /// window).
    pub mcast_batch_window: u64,
    /// Queue positions (from the head) whose DRAM streams may prefetch.
    /// Depth 1 = only the running task; higher values overlap stream
    /// setup with the previous task at the cost of contending with it.
    pub prefetch_depth: usize,
    /// Placement policy used when `features.work_aware` is false; when
    /// it is true the policy is forced to [`Policy::WorkAware`].
    pub policy: Policy,
    /// TaskStream mechanism toggles.
    pub features: Features,
    /// Extension (off in both paper designs): idle tiles steal queued
    /// tasks from the most loaded tile. Only tasks whose streams have
    /// not started (outside the prefetch window, no pipes, no
    /// scratchpad side effects) are eligible.
    pub work_stealing: bool,
    /// Record a structured event trace of the run (task lifecycle,
    /// steals, pipe resolution, multicast windows, sampled queue
    /// depths) into [`RunReport::trace`](crate::RunReport::trace).
    /// Off by default: a disabled trace costs one branch per emit
    /// point and the report is bit-identical either way.
    pub trace: bool,
    /// Fault injection and task-level recovery (see
    /// [`crate::faults`]). Inert by default; fault schedules derive
    /// from [`seed`](DeltaConfig::seed), so same seed → byte-identical
    /// [`FaultReport`](crate::FaultReport).
    pub faults: FaultsConfig,
    /// Multi-tenant co-residency (see [`crate::tenancy`]). Inert by
    /// default ([`TenancyConfig::none`]): with no tenants configured
    /// the dispatcher runs as its one-tenant case, and reports carry
    /// no per-tenant counters.
    pub tenancy: TenancyConfig,
    /// Seed for mapper restarts, randomized policies, and fault
    /// schedules.
    pub seed: u64,
    /// Hard cycle limit (a wedged model errors instead of spinning).
    pub max_cycles: u64,
    /// Cycles without any task completion before the run is declared
    /// wedged and errors out (the "no progress" watchdog of the whole
    /// machine, distinct from the per-task recovery watchdog).
    pub stall_limit: u64,
}

impl DeltaConfig {
    /// The Delta preset: all TaskStream mechanisms on, work-aware
    /// placement.
    pub fn delta(tiles: usize) -> Self {
        DeltaConfig {
            tiles,
            mem_ctrls: (tiles / 2).clamp(1, 8),
            fabric: FabricConfig::default(),
            spad_words: 16 * 1024,
            spad_bw: 4.0,
            dram: DramConfig {
                words: 1 << 20,
                words_per_cycle: (2.0 * tiles as f64).clamp(2.0, 16.0),
                latency: 60,
                gather_cost: 4,
                // small enough that the oldest streams (the running
                // tasks') get near-full rate instead of fair-share
                // starvation across every prefetching queued task
                max_active_jobs: (2 * tiles).clamp(4, 16),
                burst_words: 8,
            },
            noc_queue: 8,
            tile_queue: 4,
            out_buf: 16,
            engine_rate: 4.0,
            dispatch_per_cycle: 2,
            dispatch_window: 32,
            spawn_latency: 12,
            host_latency: 12,
            task_start_overhead: 6,
            mem_req_latency: 8,
            mcast_batch_window: 24,
            prefetch_depth: 2,
            policy: Policy::WorkAware,
            features: Features::all(),
            work_stealing: false,
            trace: false,
            faults: FaultsConfig::none(),
            tenancy: TenancyConfig::none(),
            seed: 0xDE17A,
            max_cycles: 200_000_000,
            stall_limit: 3_000_000,
        }
    }

    /// The paper's comparison point: the *same hardware* with the
    /// TaskStream mechanisms disabled and owner-computes placement.
    pub fn static_parallel(tiles: usize) -> Self {
        let mut cfg = Self::delta(tiles);
        cfg.policy = Policy::StaticHash;
        cfg.features = Features::none();
        cfg
    }

    /// Canonical name for the static-parallel comparison point
    /// (alias of [`DeltaConfig::static_parallel`]).
    pub fn static_baseline(tiles: usize) -> Self {
        Self::static_parallel(tiles)
    }

    /// An ablation point: the Delta preset with a chosen subset of the
    /// TaskStream mechanisms (policy synced to `work_aware`).
    pub fn ablation(tiles: usize, features: Features) -> Self {
        Self::delta(tiles).with_features(features)
    }

    /// Starts a fluent builder from the Delta preset.
    pub fn builder(tiles: usize) -> DeltaConfigBuilder {
        DeltaConfigBuilder {
            cfg: Self::delta(tiles),
        }
    }

    /// Re-opens this configuration for fluent modification.
    pub fn to_builder(self) -> DeltaConfigBuilder {
        DeltaConfigBuilder { cfg: self }
    }

    /// Default 8-tile Delta (the paper-scale configuration).
    pub fn delta_8_tiles() -> Self {
        Self::delta(8)
    }

    /// Default 8-tile static-parallel baseline.
    pub fn static_parallel_8_tiles() -> Self {
        Self::static_parallel(8)
    }

    /// Returns a copy with a different placement policy (and
    /// `work_aware` synced to whether that policy is
    /// [`Policy::WorkAware`]).
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self.features.work_aware = policy == Policy::WorkAware;
        self
    }

    /// Returns a copy with different feature toggles (policy synced for
    /// `work_aware`).
    pub fn with_features(mut self, features: Features) -> Self {
        self.features = features;
        if features.work_aware {
            self.policy = Policy::WorkAware;
        } else if self.policy == Policy::WorkAware {
            self.policy = Policy::RoundRobin;
        }
        self
    }

    /// The effective placement policy.
    pub fn effective_policy(&self) -> Policy {
        if self.features.work_aware {
            Policy::WorkAware
        } else {
            self.policy
        }
    }

    /// Mesh dimensions `(width, height)` fitting tiles + memory
    /// controllers.
    pub fn mesh_dims(&self) -> (usize, usize) {
        let nodes = self.tiles + self.mem_ctrls;
        let w = (nodes as f64).sqrt().ceil() as usize;
        let h = nodes.div_ceil(w);
        (w.max(1), h.max(1))
    }

    /// Mesh node of tile `t` (tiles occupy the first nodes).
    pub fn tile_node(&self, t: usize) -> usize {
        t
    }

    /// Mesh node of memory controller `m` (controllers occupy the last
    /// nodes).
    pub fn mc_node(&self, m: usize) -> usize {
        self.tiles + m
    }

    /// The controller node serving a given mesh node, chosen by mesh
    /// column so response/write traffic stays in its own column and
    /// never contends across destinations.
    pub fn mc_node_for(&self, node: usize) -> usize {
        let (w, _) = self.mesh_dims();
        self.mc_node((node % w) % self.mem_ctrls)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configurations (zero tiles, zero queues…).
    pub fn validate(&self) {
        assert!(self.tiles > 0, "need at least one tile");
        assert!(self.mem_ctrls > 0, "need at least one memory controller");
        assert!(self.tile_queue > 0, "tile queue must be positive");
        assert!(self.out_buf > 0, "output buffer must be positive");
        assert!(
            self.dispatch_per_cycle > 0,
            "dispatch rate must be positive"
        );
        assert!(self.dispatch_window > 0, "dispatch window must be positive");
        assert!(self.stall_limit > 0, "stall limit must be positive");
        let (w, h) = self.mesh_dims();
        assert!(w * h >= self.tiles + self.mem_ctrls, "mesh too small");
        self.faults.validate();
        self.tenancy.validate(self.tiles);
    }
}

/// Hashes every field, each rate by its bits: the result cache keys a
/// run by this hash. Destructured without `..`, so a new field does not
/// compile until it is hashed here.
impl Hash for DeltaConfig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let DeltaConfig {
            tiles,
            mem_ctrls,
            fabric,
            spad_words,
            spad_bw,
            dram,
            noc_queue,
            tile_queue,
            out_buf,
            engine_rate,
            dispatch_per_cycle,
            dispatch_window,
            spawn_latency,
            host_latency,
            task_start_overhead,
            mem_req_latency,
            mcast_batch_window,
            prefetch_depth,
            policy,
            features,
            work_stealing,
            trace,
            faults,
            tenancy,
            seed,
            max_cycles,
            stall_limit,
        } = self;
        (
            tiles,
            mem_ctrls,
            fabric,
            spad_words,
            spad_bw.to_bits(),
            dram,
            noc_queue,
            tile_queue,
            out_buf,
            engine_rate.to_bits(),
            dispatch_per_cycle,
            dispatch_window,
        )
            .hash(state);
        (
            spawn_latency,
            host_latency,
            task_start_overhead,
            mem_req_latency,
            mcast_batch_window,
            prefetch_depth,
            policy,
            features,
            work_stealing,
            trace,
            faults,
            tenancy,
        )
            .hash(state);
        (seed, max_cycles, stall_limit).hash(state);
    }
}

/// Fluent construction surface for [`DeltaConfig`]: every knob the
/// experiments and tests tune goes through one named setter instead of
/// bare struct mutation. Obtain one from [`DeltaConfig::builder`] or
/// [`DeltaConfig::to_builder`]; [`DeltaConfigBuilder::build`] validates
/// and returns the finished configuration.
///
/// ```
/// use ts_delta::{DeltaConfig, FaultsConfig};
///
/// let cfg = DeltaConfig::builder(4)
///     .tile_queue(8)
///     .work_stealing(true)
///     .faults(FaultsConfig::chaos())
///     .seed(7)
///     .build();
/// assert_eq!(cfg.tiles, 4);
/// assert!(cfg.faults.recovery);
/// ```
#[derive(Debug, Clone)]
pub struct DeltaConfigBuilder {
    cfg: DeltaConfig,
}

impl DeltaConfigBuilder {
    /// Number of memory-controller nodes on the mesh.
    pub fn mem_ctrls(mut self, n: usize) -> Self {
        self.cfg.mem_ctrls = n;
        self
    }

    /// Replaces the per-tile CGRA fabric wholesale.
    pub fn fabric(mut self, fabric: FabricConfig) -> Self {
        self.cfg.fabric = fabric;
        self
    }

    /// Vector lanes of the per-tile fabric.
    pub fn fabric_lanes(mut self, lanes: u32) -> Self {
        self.cfg.fabric.lanes = lanes;
        self
    }

    /// Configuration cost per PE of the per-tile fabric.
    pub fn fabric_config_per_pe(mut self, cycles: u64) -> Self {
        self.cfg.fabric.config_per_pe = cycles;
        self
    }

    /// Per-tile scratchpad size in words.
    pub fn spad_words(mut self, words: usize) -> Self {
        self.cfg.spad_words = words;
        self
    }

    /// Per-tile scratchpad accesses per cycle.
    pub fn spad_bw(mut self, bw: f64) -> Self {
        self.cfg.spad_bw = bw;
        self
    }

    /// Replaces the shared DRAM model wholesale.
    pub fn dram(mut self, dram: DramConfig) -> Self {
        self.cfg.dram = dram;
        self
    }

    /// DRAM access latency in cycles.
    pub fn dram_latency(mut self, cycles: u64) -> Self {
        self.cfg.dram.latency = cycles;
        self
    }

    /// Per-port router queue capacity.
    pub fn noc_queue(mut self, depth: usize) -> Self {
        self.cfg.noc_queue = depth;
        self
    }

    /// Dispatched-task queue depth per tile.
    pub fn tile_queue(mut self, depth: usize) -> Self {
        self.cfg.tile_queue = depth;
        self
    }

    /// Output-port buffer depth (words) per port.
    pub fn out_buf(mut self, words: usize) -> Self {
        self.cfg.out_buf = words;
        self
    }

    /// Engine rate for locally generated streams (words/cycle).
    pub fn engine_rate(mut self, rate: f64) -> Self {
        self.cfg.engine_rate = rate;
        self
    }

    /// Tasks the dispatcher can place per cycle.
    pub fn dispatch_per_cycle(mut self, n: usize) -> Self {
        self.cfg.dispatch_per_cycle = n;
        self
    }

    /// Pending-queue lookahead of the dispatcher.
    pub fn dispatch_window(mut self, n: usize) -> Self {
        self.cfg.dispatch_window = n;
        self
    }

    /// Cycles from a spawn decision to dispatch eligibility.
    pub fn spawn_latency(mut self, cycles: u64) -> Self {
        self.cfg.spawn_latency = cycles;
        self
    }

    /// Cycles from task completion to the host seeing it.
    pub fn host_latency(mut self, cycles: u64) -> Self {
        self.cfg.host_latency = cycles;
        self
    }

    /// Fixed per-task startup cost at a tile.
    pub fn task_start_overhead(mut self, cycles: u64) -> Self {
        self.cfg.task_start_overhead = cycles;
        self
    }

    /// Control-path latency from a stream engine to a controller.
    pub fn mem_req_latency(mut self, cycles: u64) -> Self {
        self.cfg.mem_req_latency = cycles;
        self
    }

    /// Multicast-table batching window.
    pub fn mcast_batch_window(mut self, cycles: u64) -> Self {
        self.cfg.mcast_batch_window = cycles;
        self
    }

    /// Queue positions whose DRAM streams may prefetch.
    pub fn prefetch_depth(mut self, depth: usize) -> Self {
        self.cfg.prefetch_depth = depth;
        self
    }

    /// Placement policy (syncs `features.work_aware`, like
    /// [`DeltaConfig::with_policy`]).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.cfg = self.cfg.with_policy(policy);
        self
    }

    /// Feature toggles (syncs the policy, like
    /// [`DeltaConfig::with_features`]).
    pub fn features(mut self, features: Features) -> Self {
        self.cfg = self.cfg.with_features(features);
        self
    }

    /// Idle tiles steal queued tasks from the most loaded tile.
    pub fn work_stealing(mut self, on: bool) -> Self {
        self.cfg.work_stealing = on;
        self
    }

    /// Record a structured event trace of the run.
    pub fn trace(mut self, on: bool) -> Self {
        self.cfg.trace = on;
        self
    }

    /// Fault injection and recovery policy.
    pub fn faults(mut self, faults: FaultsConfig) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Multi-tenant co-residency policy.
    pub fn tenancy(mut self, tenancy: TenancyConfig) -> Self {
        self.cfg.tenancy = tenancy;
        self
    }

    /// Seed for mapper restarts, randomized policies, and fault
    /// schedules.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Hard cycle limit.
    pub fn max_cycles(mut self, cycles: u64) -> Self {
        self.cfg.max_cycles = cycles;
        self
    }

    /// Whole-machine no-progress limit before the run errors out.
    pub fn stall_limit(mut self, cycles: u64) -> Self {
        self.cfg.stall_limit = cycles;
        self
    }

    /// Validates and returns the finished configuration.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configurations, like
    /// [`DeltaConfig::validate`].
    pub fn build(self) -> DeltaConfig {
        self.cfg.validate();
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_features_only_plus_policy() {
        let d = DeltaConfig::delta(8);
        let s = DeltaConfig::static_parallel(8);
        assert_eq!(d.tiles, s.tiles);
        assert_eq!(d.dram.words_per_cycle, s.dram.words_per_cycle);
        assert_eq!(d.features, Features::all());
        assert_eq!(s.features, Features::none());
        assert_eq!(s.effective_policy(), Policy::StaticHash);
        assert_eq!(d.effective_policy(), Policy::WorkAware);
    }

    #[test]
    fn mesh_fits_all_nodes() {
        for tiles in [1, 2, 4, 8, 16] {
            let c = DeltaConfig::delta(tiles);
            c.validate();
            let (w, h) = c.mesh_dims();
            assert!(w * h >= tiles + c.mem_ctrls);
            assert!(c.mc_node(c.mem_ctrls - 1) < w * h);
        }
    }

    #[test]
    fn with_features_syncs_policy() {
        let c = DeltaConfig::delta(4).with_features(Features {
            work_aware: false,
            pipelining: true,
            multicast: true,
        });
        assert_eq!(c.effective_policy(), Policy::RoundRobin);
        let d = DeltaConfig::static_parallel(4).with_features(Features::all());
        assert_eq!(d.effective_policy(), Policy::WorkAware);
    }

    #[test]
    fn with_policy_syncs_work_aware() {
        let c = DeltaConfig::delta(4).with_policy(Policy::Random);
        assert!(!c.features.work_aware);
        assert_eq!(c.effective_policy(), Policy::Random);
    }

    #[test]
    fn builder_roundtrips_the_preset() {
        // an untouched builder is exactly the preset (so goldens
        // cannot drift from the migration to the fluent surface)
        let a = DeltaConfig::delta(8);
        let b = DeltaConfig::builder(8).build();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = DeltaConfig::static_baseline(8);
        let d = DeltaConfig::static_parallel(8);
        assert_eq!(format!("{c:?}"), format!("{d:?}"));
    }

    #[test]
    fn builder_setters_land_and_sync() {
        let c = DeltaConfig::builder(4)
            .tile_queue(9)
            .policy(Policy::StaticHash)
            .work_stealing(true)
            .stall_limit(1234)
            .faults(FaultsConfig::chaos())
            .build();
        assert_eq!(c.tile_queue, 9);
        assert!(!c.features.work_aware);
        assert_eq!(c.effective_policy(), Policy::StaticHash);
        assert!(c.work_stealing);
        assert_eq!(c.stall_limit, 1234);
        assert!(c.faults.is_active());

        let d = DeltaConfig::ablation(
            4,
            Features {
                work_aware: false,
                pipelining: true,
                multicast: true,
            },
        );
        assert_eq!(d.effective_policy(), Policy::RoundRobin);

        let e = d.to_builder().features(Features::all()).build();
        assert_eq!(e.effective_policy(), Policy::WorkAware);
    }

    #[test]
    fn builder_tenancy_lands_and_preset_stays_inert() {
        use crate::tenancy::{PartitionPolicy, TenancyConfig, TenantSpec};

        assert!(!DeltaConfig::delta(4).tenancy.is_active());
        let c = DeltaConfig::builder(4)
            .tenancy(TenancyConfig::shared(vec![TenantSpec::paced(100); 2]))
            .build();
        assert!(c.tenancy.is_active());
        assert_eq!(c.tenancy.tenant_count(), 2);
        assert_eq!(c.tenancy.partition, PartitionPolicy::Shared);
    }

    #[test]
    #[should_panic(expected = "at least one tile per tenant")]
    fn builder_build_validates_tenancy() {
        use crate::tenancy::{PartitionPolicy, TenancyConfig, TenantSpec};

        let mut t = TenancyConfig::shared(vec![TenantSpec::flood(); 3]);
        t.partition = PartitionPolicy::Spatial;
        let _ = DeltaConfig::builder(2).tenancy(t).build();
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn builder_build_validates_faults() {
        let mut f = FaultsConfig::none();
        f.noc_drop_rate = 2.0;
        let _ = DeltaConfig::builder(2).faults(f).build();
    }
}
