//! Analytical area model.
//!
//! The paper reports Delta's task hardware as a small single-digit
//! percentage of total accelerator area. We reproduce that *table*, not
//! a synthesis flow: per-component area constants calibrated against the
//! paper family's published 28 nm numbers, summed over a configuration.
//! The interesting output is the **TaskStream overhead** — the area of
//! everything that exists only to support the task execution model
//! (per-tile task units, the global dispatcher, the multicast table and
//! the NoC's multicast support).

use crate::config::DeltaConfig;

/// Area constants in mm² at 28 nm.
mod unit {
    /// Simple ALU-only processing element (FU + local config + pipeline
    /// registers).
    pub const PE_ALU: f64 = 0.012;
    /// Additional multiplier/divider on a PE.
    pub const PE_MULDIV: f64 = 0.011;
    /// Inter-PE switch per PE position.
    pub const SWITCH: f64 = 0.006;
    /// Scratchpad SRAM per KiB (including banking overhead).
    pub const SPAD_PER_KIB: f64 = 0.0065;
    /// One stream engine (address generators + request queues).
    pub const STREAM_ENGINE: f64 = 0.03;
    /// Stream engines per tile.
    pub const STREAM_ENGINES_PER_TILE: f64 = 4.0;
    /// One mesh router (5-port, word-wide).
    pub const ROUTER: f64 = 0.018;
    /// One memory-controller front-end.
    pub const MEM_CTRL: f64 = 0.09;
    // ---- TaskStream-specific hardware ----
    /// Per-tile task unit: task queue SRAM, dependence tracking,
    /// descriptor decode.
    pub const TASK_UNIT: f64 = 0.045;
    /// Global dispatcher: pending queue, work-estimate table, policy
    /// logic.
    pub const DISPATCHER: f64 = 0.09;
    /// Multicast group table at the memory controllers.
    pub const MCAST_TABLE: f64 = 0.012;
    /// Router multicast support (destination-set fork logic), per
    /// router.
    pub const ROUTER_MCAST: f64 = 0.002;
}

/// One line of the area table.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaItem {
    /// Component name.
    pub name: &'static str,
    /// Total area in mm².
    pub mm2: f64,
    /// Whether the component exists only for TaskStream.
    pub taskstream: bool,
}

/// Full area breakdown of a configuration.
#[derive(Debug, Clone)]
pub struct AreaBreakdown {
    /// Per-component lines.
    pub items: Vec<AreaItem>,
}

impl AreaBreakdown {
    /// Total area in mm².
    pub fn total_mm2(&self) -> f64 {
        self.items.iter().map(|i| i.mm2).sum()
    }

    /// Area of TaskStream-only hardware in mm².
    pub fn taskstream_mm2(&self) -> f64 {
        self.items
            .iter()
            .filter(|i| i.taskstream)
            .map(|i| i.mm2)
            .sum()
    }

    /// TaskStream hardware as a fraction of total area.
    pub fn taskstream_overhead(&self) -> f64 {
        self.taskstream_mm2() / self.total_mm2()
    }
}

/// Computes the area breakdown of a configuration.
///
/// # Examples
///
/// ```
/// use ts_delta::{area, DeltaConfig};
///
/// let a = area::breakdown(&DeltaConfig::delta(8));
/// // the paper family reports small single-digit-% task-HW overhead
/// assert!(a.taskstream_overhead() < 0.06);
/// ```
pub fn breakdown(cfg: &DeltaConfig) -> AreaBreakdown {
    let tiles = cfg.tiles as f64;
    let pes = cfg.fabric.pes() as f64;
    let muldiv_pes = (0..cfg.fabric.pes())
        .filter(|&i| cfg.fabric.pe_has_muldiv(i))
        .count() as f64;
    let spad_kib = (cfg.spad_words * 8) as f64 / 1024.0;
    let routers = {
        let (w, h) = cfg.mesh_dims();
        (w * h) as f64
    };

    let items = vec![
        AreaItem {
            name: "PEs (ALU)",
            mm2: tiles * pes * unit::PE_ALU,
            taskstream: false,
        },
        AreaItem {
            name: "PEs (mul/div extension)",
            mm2: tiles * muldiv_pes * unit::PE_MULDIV,
            taskstream: false,
        },
        AreaItem {
            name: "fabric switches",
            mm2: tiles * pes * unit::SWITCH,
            taskstream: false,
        },
        AreaItem {
            name: "scratchpads",
            mm2: tiles * spad_kib * unit::SPAD_PER_KIB,
            taskstream: false,
        },
        AreaItem {
            name: "stream engines",
            mm2: tiles * unit::STREAM_ENGINES_PER_TILE * unit::STREAM_ENGINE,
            taskstream: false,
        },
        AreaItem {
            name: "NoC routers",
            mm2: routers * unit::ROUTER,
            taskstream: false,
        },
        AreaItem {
            name: "memory controllers",
            mm2: cfg.mem_ctrls as f64 * unit::MEM_CTRL,
            taskstream: false,
        },
        AreaItem {
            name: "task units (per tile)",
            mm2: tiles * unit::TASK_UNIT,
            taskstream: true,
        },
        AreaItem {
            name: "global dispatcher",
            mm2: unit::DISPATCHER,
            taskstream: true,
        },
        AreaItem {
            name: "multicast table",
            mm2: unit::MCAST_TABLE,
            taskstream: true,
        },
        AreaItem {
            name: "router multicast support",
            mm2: routers * unit::ROUTER_MCAST,
            taskstream: true,
        },
    ];
    AreaBreakdown { items }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_matches_paper_band() {
        let a = breakdown(&DeltaConfig::delta(8));
        let ovh = a.taskstream_overhead();
        assert!(
            (0.02..=0.06).contains(&ovh),
            "task-HW overhead {ovh:.3} outside the paper's single-digit-% band"
        );
    }

    #[test]
    fn totals_are_positive_and_consistent() {
        let a = breakdown(&DeltaConfig::delta(4));
        assert!(a.total_mm2() > 0.0);
        assert!(a.taskstream_mm2() > 0.0);
        assert!(a.taskstream_mm2() < a.total_mm2());
        let sum: f64 = a.items.iter().map(|i| i.mm2).sum();
        assert!((sum - a.total_mm2()).abs() < 1e-9);
    }

    #[test]
    fn overhead_shrinks_with_bigger_spads() {
        let small = breakdown(&DeltaConfig {
            spad_words: 16 * 1024,
            ..DeltaConfig::delta(8)
        });
        let big = breakdown(&DeltaConfig {
            spad_words: 256 * 1024,
            ..DeltaConfig::delta(8)
        });
        assert!(big.taskstream_overhead() < small.taskstream_overhead());
    }
}
