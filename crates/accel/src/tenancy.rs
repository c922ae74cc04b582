//! Multi-tenant co-residency: several independent task graphs sharing
//! one Delta fabric.
//!
//! A [`TenancyConfig`] names the co-resident tenants and the isolation
//! policy between them. The dispatcher keeps **per-tenant host and
//! admission queues** for [`TenancyConfig::tenant_count`] tenants, paces each tenant's task arrivals to its
//! configured period (an open-loop request stream rather than a batch
//! flood), gates admission to a per-tenant in-flight cap, and — under
//! [`PartitionPolicy::Spatial`] — restricts placement, work stealing,
//! and fault re-dispatch to the tenant's contiguous tile partition.
//!
//! A single-tenant run is the one-tenant case of the same path: with
//! the tenant list empty (the default, [`TenancyConfig::none`]) every
//! task belongs to tenant 0, which owns the whole fabric and is neither
//! paced nor capped. Per-tenant counter blocks and trace events appear
//! only when tenants are configured ([`TenancyConfig::is_active`]).
//!
//! Tasks carry their tenant in the **high bits of the affinity word**
//! ([`tag_affinity`] / [`tenant_of_affinity`]): the tag survives every
//! hand-off a task can take — dispatch, steal, victimization, and
//! re-dispatch — without widening any queue entry or trace payload.

/// Bit position of the tenant id inside a task's affinity word. The
/// low 48 bits remain the workload's placement affinity; the high 16
/// carry the tenant. Untagged affinities (all existing workloads) read
/// back as tenant 0.
pub const TENANT_SHIFT: u32 = 48;

/// Packs a tenant id into the high bits of a placement affinity.
///
/// Panics if the affinity already uses the tenant bits.
pub fn tag_affinity(tenant: usize, affinity: u64) -> u64 {
    assert!(tenant < (1 << (64 - TENANT_SHIFT)), "tenant id overflow");
    assert_eq!(
        affinity >> TENANT_SHIFT,
        0,
        "affinity {affinity:#x} collides with the tenant tag bits"
    );
    ((tenant as u64) << TENANT_SHIFT) | affinity
}

/// Reads the tenant id back out of a tagged affinity. Untagged
/// affinities map to tenant 0.
pub fn tenant_of_affinity(affinity: u64) -> usize {
    (affinity >> TENANT_SHIFT) as usize
}

/// Strips the tenant tag, leaving the workload's placement affinity.
pub fn base_affinity(affinity: u64) -> u64 {
    affinity & ((1u64 << TENANT_SHIFT) - 1)
}

/// One tenant's offered load, as the admission path sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantSpec {
    /// Minimum cycles between consecutive task admissions for this
    /// tenant (0 = no pacing; tasks become admissible as soon as their
    /// spawn latency elapses, i.e. batch admission).
    pub arrival_period: u64,
}

impl TenantSpec {
    /// An open-flood tenant: no arrival pacing.
    pub fn flood() -> Self {
        TenantSpec { arrival_period: 0 }
    }

    /// A paced tenant admitting at most one task per `period` cycles.
    pub fn paced(period: u64) -> Self {
        TenantSpec {
            arrival_period: period,
        }
    }
}

/// How tenants share the tile fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionPolicy {
    /// All tenants place and steal across the whole fabric.
    Shared,
    /// Each tenant owns a contiguous tile range: placement masks,
    /// steal pairs, and fault re-dispatch stay inside it (re-dispatch
    /// falls back to any healthy tile only when the whole partition is
    /// down, rather than wedging the run).
    Spatial,
}

/// What happens when a tenant reaches its in-flight cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DrainPolicy {
    /// Hold further admissions until in-flight drops below the cap.
    Block,
    /// Hysteresis drain: once a tenant hits its cap, hold admissions
    /// until it drains to half the cap, then re-admit. Long-running
    /// tenants burst in batches instead of hovering at the cap, which
    /// lengthens the clean windows their neighbors see.
    Drain,
}

/// Co-residency configuration threaded through the dispatcher.
///
/// `Hash` feeds the persistent result-cache key, so every field here
/// invalidates cached sweeps when it changes.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct TenancyConfig {
    /// Co-resident tenants; empty means one implicit, unpaced tenant
    /// with no per-tenant counter block.
    pub tenants: Vec<TenantSpec>,
    /// Spatial partitioning vs. shared-fabric stealing.
    pub partition: PartitionPolicy,
    /// Per-tenant in-flight task cap enforced at admission (0 = off).
    pub admit_limit: u64,
    /// Re-admission behavior for capped tenants.
    pub drain: DrainPolicy,
}

impl TenancyConfig {
    /// Single-tenant mode: one implicit tenant owning every task and the
    /// whole fabric, with no pacing and no admission cap. This is the
    /// `DeltaConfig` preset default.
    pub fn none() -> Self {
        TenancyConfig {
            tenants: Vec::new(),
            partition: PartitionPolicy::Shared,
            admit_limit: 0,
            drain: DrainPolicy::Block,
        }
    }

    /// A shared-fabric config for `specs` with admission gating off.
    pub fn shared(specs: Vec<TenantSpec>) -> Self {
        TenancyConfig {
            tenants: specs,
            ..TenancyConfig::none()
        }
    }

    /// True when tenants are configured: the run reports per-tenant
    /// counters and traces each task's tenant.
    pub fn is_active(&self) -> bool {
        !self.tenants.is_empty()
    }

    /// Number of logical tenants the dispatcher tracks (at least one:
    /// untagged tasks all land in tenant 0).
    pub fn tenant_count(&self) -> usize {
        self.tenants.len().max(1)
    }

    /// The contiguous tile range tenant `t` owns under
    /// [`PartitionPolicy::Spatial`] on a `tiles`-tile fabric: tiles
    /// are split as evenly as possible, earlier tenants taking the
    /// remainder, so every tenant owns at least one tile whenever
    /// `tiles >= tenants` (which [`TenancyConfig::validate`] enforces).
    pub fn partition_range(&self, tenant: usize, tiles: usize) -> std::ops::Range<usize> {
        let n = self.tenant_count();
        debug_assert!(tenant < n);
        let lo = tenant * tiles / n;
        let hi = (tenant + 1) * tiles / n;
        lo..hi
    }

    /// Panics on configurations the dispatcher cannot honor.
    pub fn validate(&self, tiles: usize) {
        if !self.is_active() {
            return;
        }
        if self.partition == PartitionPolicy::Spatial {
            assert!(
                self.tenants.len() <= tiles,
                "spatial partitioning needs at least one tile per tenant \
                 ({} tenants > {tiles} tiles)",
                self.tenants.len()
            );
        }
        assert!(
            self.tenants.len() < (1 << (64 - TENANT_SHIFT)),
            "too many tenants for the affinity tag bits"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_tags_roundtrip_and_untagged_reads_as_tenant_zero() {
        for t in [0usize, 1, 3, 15] {
            let a = tag_affinity(t, 0x1234);
            assert_eq!(tenant_of_affinity(a), t);
            assert_eq!(base_affinity(a), 0x1234);
        }
        assert_eq!(tenant_of_affinity(0xFFFF_FFFF), 0);
        assert_eq!(base_affinity(7), 7);
    }

    #[test]
    #[should_panic(expected = "collides with the tenant tag bits")]
    fn tagging_a_tagged_affinity_panics() {
        tag_affinity(1, tag_affinity(1, 0));
    }

    #[test]
    fn partitions_cover_the_fabric_without_overlap() {
        let cfg = TenancyConfig {
            tenants: vec![TenantSpec::flood(); 3],
            partition: PartitionPolicy::Spatial,
            ..TenancyConfig::none()
        };
        let tiles = 8;
        cfg.validate(tiles);
        let mut seen = vec![false; tiles];
        for t in 0..3 {
            let r = cfg.partition_range(t, tiles);
            assert!(!r.is_empty(), "tenant {t} owns no tile");
            for tile in r {
                assert!(!seen[tile], "tile {tile} owned twice");
                seen[tile] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some tile is unowned");
    }

    #[test]
    fn inert_default_validates_on_any_fabric() {
        TenancyConfig::none().validate(1);
        assert!(!TenancyConfig::none().is_active());
        assert_eq!(TenancyConfig::none().tenant_count(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one tile per tenant")]
    fn spatial_with_more_tenants_than_tiles_panics() {
        let cfg = TenancyConfig {
            tenants: vec![TenantSpec::flood(); 5],
            partition: PartitionPolicy::Spatial,
            ..TenancyConfig::none()
        };
        cfg.validate(4);
    }
}
