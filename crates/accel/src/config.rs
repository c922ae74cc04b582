//! Accelerator configuration: the design-point presets and the
//! fault-injection and tenancy knobs.
//!
//! A design point is a named preset ([`DeltaConfig::delta`],
//! [`DeltaConfig::static_parallel`]) plus plain field writes, usually
//! in struct-update syntax:
//!
//! ```
//! use ts_delta::{DeltaConfig, FaultsConfig};
//!
//! let cfg = DeltaConfig {
//!     tile_queue: 8,
//!     work_stealing: true,
//!     faults: FaultsConfig::chaos(),
//!     seed: 7,
//!     ..DeltaConfig::delta(4)
//! };
//! assert_eq!(cfg.tiles, 4);
//! assert!(cfg.validate().is_ok());
//! ```
//!
//! [`Accelerator::run`](crate::Accelerator::run) validates the
//! configuration before it simulates, so an inconsistent one comes
//! back as [`RunError::Config`](crate::RunError::Config).

use crate::faults::FaultsConfig;
use crate::tenancy::TenancyConfig;
use std::hash::{Hash, Hasher};
use taskstream_model::Policy;
use ts_cgra::FabricConfig;
use ts_mem::DramConfig;

/// The two TaskStream data-movement mechanisms, individually
/// toggleable. With the placement [`Policy`] (work-aware or not) they
/// are the ablation axes of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Features {
    /// Pipelined inter-task dependences (vs. serializing through DRAM).
    pub pipelining: bool,
    /// Multicast of shared reads (vs. one DRAM read per sharer).
    pub multicast: bool,
}

impl Features {
    /// All mechanisms on (Delta).
    pub fn all() -> Self {
        Features {
            pipelining: true,
            multicast: true,
        }
    }

    /// All mechanisms off (the static-parallel design).
    pub fn none() -> Self {
        Features {
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
    /// Placement policy ([`Policy::WorkAware`] is TaskStream's
    /// work-aware load balancing).
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
    /// # Errors
    ///
    /// Names the first nonsensical setting (zero tiles, zero queues…),
    /// including those of [`faults`](Self::faults) and
    /// [`tenancy`](Self::tenancy).
    pub fn validate(&self) -> Result<(), String> {
        ensure(self.tiles > 0, "need at least one tile")?;
        ensure(self.mem_ctrls > 0, "need at least one memory controller")?;
        ensure(self.tile_queue > 0, "tile queue must be positive")?;
        ensure(self.out_buf > 0, "output buffer must be positive")?;
        ensure(
            self.dispatch_per_cycle > 0,
            "dispatch rate must be positive",
        )?;
        ensure(self.dispatch_window > 0, "dispatch window must be positive")?;
        ensure(self.stall_limit > 0, "stall limit must be positive")?;
        ensure(self.noc_queue > 0, "NoC queue must be positive")?;
        let f = &self.fabric;
        ensure(f.rows > 0 && f.cols > 0, "fabric must be non-empty")?;
        ensure(f.ops_per_pe > 0, "fabric ops_per_pe must be positive")?;
        ensure(f.lanes > 0, "fabric must have at least one lane")?;
        ensure(self.dram.burst_words > 0, "DRAM burst must be positive")?;
        // a zero rate would never serve a word, a non-finite one cannot
        // meter at all
        ensure(
            self.engine_rate.is_finite() && self.engine_rate > 0.0,
            "engine rate must be finite and positive",
        )?;
        ensure(
            self.spad_bw.is_finite() && self.spad_bw > 0.0,
            "scratchpad bandwidth must be finite and positive",
        )?;
        // either would leave every DRAM word unserved, so any run that
        // reads DRAM would end in a stall-limit timeout
        ensure(
            self.dram.words_per_cycle.is_finite() && self.dram.words_per_cycle > 0.0,
            "DRAM bandwidth must be finite and positive",
        )?;
        ensure(
            self.dram.max_active_jobs >= 1,
            "DRAM must serve at least one job at a time",
        )?;
        let (w, h) = self.mesh_dims();
        ensure(w * h >= self.tiles + self.mem_ctrls, "mesh too small")?;
        self.faults.validate()?;
        self.tenancy.validate(self.tiles)
    }
}

/// One validation check: `Err(msg)` unless `ok`.
pub(crate) fn ensure(ok: bool, msg: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg.to_string())
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
        assert_eq!(s.policy, Policy::StaticHash);
        assert_eq!(d.policy, Policy::WorkAware);
    }

    #[test]
    fn mesh_fits_all_nodes() {
        for tiles in [1, 2, 4, 8, 16] {
            let c = DeltaConfig::delta(tiles);
            assert_eq!(c.validate(), Ok(()));
            let (w, h) = c.mesh_dims();
            assert!(w * h >= tiles + c.mem_ctrls);
            assert!(c.mc_node(c.mem_ctrls - 1) < w * h);
        }
    }

    #[test]
    fn preset_tenancy_is_inert_and_shared_tenants_validate() {
        use crate::tenancy::{TenancyConfig, TenantSpec};

        assert!(!DeltaConfig::delta(4).tenancy.is_active());
        let c = DeltaConfig {
            tenancy: TenancyConfig::shared(vec![TenantSpec::paced(100); 2]),
            ..DeltaConfig::delta(4)
        };
        assert!(c.tenancy.is_active());
        assert_eq!(c.validate(), Ok(()));
    }

    /// The message `validate` rejects `c` with.
    fn rejection(c: &DeltaConfig) -> String {
        c.validate().expect_err("an invalid config validated")
    }

    #[test]
    fn validate_rejects_more_spatial_tenants_than_tiles() {
        use crate::tenancy::{PartitionPolicy, TenancyConfig, TenantSpec};

        let c = DeltaConfig {
            tenancy: TenancyConfig {
                partition: PartitionPolicy::Spatial,
                ..TenancyConfig::shared(vec![TenantSpec::flood(); 3])
            },
            ..DeltaConfig::delta(2)
        };
        assert!(rejection(&c).contains("at least one tile per tenant"));
    }

    #[test]
    fn validate_rejects_zero_dram_bandwidth() {
        let mut c = DeltaConfig::delta(2);
        c.dram.words_per_cycle = 0.0;
        assert_eq!(rejection(&c), "DRAM bandwidth must be finite and positive");
    }

    #[test]
    fn validate_rejects_zero_active_dram_jobs() {
        let mut c = DeltaConfig::delta(2);
        c.dram.max_active_jobs = 0;
        assert_eq!(rejection(&c), "DRAM must serve at least one job at a time");
    }

    #[test]
    fn validate_rejects_an_out_of_range_fault_rate() {
        let mut c = DeltaConfig::delta(2);
        c.faults.noc_drop_rate = 2.0;
        assert_eq!(rejection(&c), "noc_drop_rate must be in [0, 1]");
        c.faults.noc_drop_rate = f64::NAN;
        assert_eq!(rejection(&c), "noc_drop_rate must be in [0, 1]");
    }
}
