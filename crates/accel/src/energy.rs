//! Analytical energy model.
//!
//! Companion to [`crate::area`]: per-event energy constants (28 nm
//! class) applied to a run's event counters. Like the area model this
//! reproduces the paper family's energy *tables*, not a power-signoff
//! flow — its purpose is the comparison: Delta saves energy over the
//! static-parallel design both by finishing sooner (less static energy)
//! and by moving fewer words (multicast, pipelined handoff instead of
//! DRAM round trips).

use crate::config::DeltaConfig;
use crate::report::RunReport;

/// Per-event dynamic energy constants, in picojoules.
mod unit {
    /// One dataflow firing (FU ops + local routing for one element).
    pub const FIRING: f64 = 6.0;
    /// One scratchpad access.
    pub const SPAD_ACCESS: f64 = 1.2;
    /// One DRAM word (streamed).
    pub const DRAM_WORD: f64 = 25.0;
    /// One NoC flit-hop (word-wide link + router traversal).
    pub const NOC_HOP: f64 = 1.5;
    /// One fabric reconfiguration cycle (config-bit streaming).
    pub const RECONFIG_CYCLE: f64 = 3.0;
    /// One task dispatch (queue write + table lookups).
    pub const DISPATCH: f64 = 4.0;
    /// Static power per tile, picojoules per cycle.
    pub const TILE_LEAK_PER_CYCLE: f64 = 2.0;
}

/// One line of the energy table.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyItem {
    /// Component name.
    pub name: &'static str,
    /// Energy in microjoules.
    pub uj: f64,
}

/// Energy breakdown of one run.
#[derive(Debug, Clone)]
pub struct EnergyBreakdown {
    /// Per-component lines.
    pub items: Vec<EnergyItem>,
}

impl EnergyBreakdown {
    /// Total energy in microjoules.
    pub fn total_uj(&self) -> f64 {
        self.items.iter().map(|i| i.uj).sum()
    }
}

const PJ_TO_UJ: f64 = 1e-6;

/// Computes the energy breakdown of a finished run.
///
/// # Examples
///
/// ```
/// use ts_delta::{energy, Accelerator, DeltaConfig};
/// use taskstream_model::{MemoryImage, Program, Spawner, CompletedTask,
///     TaskInstance, TaskKernel, TaskType, TaskTypeId};
/// use ts_dfg::DfgBuilder;
/// use ts_stream::StreamDesc;
///
/// struct Tiny;
/// impl Program for Tiny {
///     fn name(&self) -> &str { "tiny" }
///     fn task_types(&self) -> Vec<TaskType> {
///         let mut b = DfgBuilder::new("id");
///         let x = b.input();
///         b.output(x);
///         vec![TaskType::new("id", TaskKernel::dfg(b.finish().unwrap()))]
///     }
///     fn memory_image(&self) -> MemoryImage {
///         MemoryImage::new().dram_segment(0, vec![1, 2, 3, 4])
///     }
///     fn initial(&mut self, s: &mut Spawner) {
///         s.spawn(TaskInstance::new(TaskTypeId(0))
///             .input_stream(StreamDesc::dram(0, 4))
///             .output_discard());
///     }
///     fn on_complete(&mut self, _: &CompletedTask, _: &mut Spawner) {}
/// }
///
/// let cfg = DeltaConfig::delta(2);
/// let report = Accelerator::new(cfg.clone()).run(&mut Tiny).unwrap();
/// let e = energy::breakdown(&cfg, &report);
/// assert!(e.total_uj() > 0.0);
/// ```
pub fn breakdown(cfg: &DeltaConfig, report: &RunReport) -> EnergyBreakdown {
    let c = &report.counters;
    let tiles = c.tile_total();
    let spad = tiles.spad_accesses as f64;
    let dram = report.dram_words();
    let hops = report.noc_hops();
    let reconfig = tiles.reconfig_cycles as f64;
    let dispatches = c.dispatch.tasks_dispatched as f64;
    // fabric activity: busy cycles approximate firing slots
    let busy = tiles.busy_cycles as f64;
    let leak = report.cycles as f64 * cfg.tiles as f64 * unit::TILE_LEAK_PER_CYCLE;

    let items = vec![
        EnergyItem {
            name: "fabric (busy cycles)",
            uj: busy * unit::FIRING * PJ_TO_UJ,
        },
        EnergyItem {
            name: "scratchpads",
            uj: spad * unit::SPAD_ACCESS * PJ_TO_UJ,
        },
        EnergyItem {
            name: "DRAM words",
            uj: dram * unit::DRAM_WORD * PJ_TO_UJ,
        },
        EnergyItem {
            name: "NoC flit-hops",
            uj: hops * unit::NOC_HOP * PJ_TO_UJ,
        },
        EnergyItem {
            name: "reconfiguration",
            uj: reconfig * unit::RECONFIG_CYCLE * PJ_TO_UJ,
        },
        EnergyItem {
            name: "task dispatch",
            uj: dispatches * unit::DISPATCH * PJ_TO_UJ,
        },
        EnergyItem {
            name: "static (leakage)",
            uj: leak * PJ_TO_UJ,
        },
    ];
    EnergyBreakdown { items }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Accelerator;
    use taskstream_model::{
        CompletedTask, MemoryImage, Program, Spawner, TaskInstance, TaskKernel, TaskType,
        TaskTypeId,
    };
    use ts_dfg::DfgBuilder;
    use ts_stream::StreamDesc;

    /// `n` identity tasks, each streaming 256 words from DRAM or,
    /// with `spad`, from the tile's scratchpad.
    struct Copies {
        n: usize,
        spad: bool,
    }

    impl Program for Copies {
        fn name(&self) -> &str {
            "copies"
        }
        fn task_types(&self) -> Vec<TaskType> {
            let mut b = DfgBuilder::new("id");
            let x = b.input();
            b.output(x);
            vec![TaskType::new("id", TaskKernel::dfg(b.finish().unwrap()))]
        }
        fn memory_image(&self) -> MemoryImage {
            MemoryImage::new()
                .dram_segment(0, vec![7i64; 256])
                .spad_segment(0, vec![7i64; 256])
        }
        fn initial(&mut self, s: &mut Spawner) {
            for i in 0..self.n {
                s.spawn(
                    TaskInstance::new(TaskTypeId(0))
                        .input_stream(if self.spad {
                            StreamDesc::spad(0, 256)
                        } else {
                            StreamDesc::dram(0, 256)
                        })
                        .output_discard()
                        .affinity(i as u64),
                );
            }
        }
        fn on_complete(&mut self, _d: &CompletedTask, _s: &mut Spawner) {}
    }

    #[test]
    fn energy_scales_with_work() {
        let cfg = DeltaConfig::delta(2);
        let small = {
            let r = Accelerator::new(cfg.clone())
                .run(&mut Copies { n: 2, spad: false })
                .unwrap();
            breakdown(&cfg, &r).total_uj()
        };
        let large = {
            let r = Accelerator::new(cfg.clone())
                .run(&mut Copies { n: 8, spad: false })
                .unwrap();
            breakdown(&cfg, &r).total_uj()
        };
        assert!(large > small * 1.5, "large {large} vs small {small}");
    }

    #[test]
    fn breakdown_components_are_nonnegative_and_sum() {
        let cfg = DeltaConfig::delta(2);
        let r = Accelerator::new(cfg.clone())
            .run(&mut Copies { n: 4, spad: false })
            .unwrap();
        let e = breakdown(&cfg, &r);
        assert!(e.items.iter().all(|i| i.uj >= 0.0));
        let sum: f64 = e.items.iter().map(|i| i.uj).sum();
        assert!((sum - e.total_uj()).abs() < 1e-12);
        // dram words must contribute: the copies stream 256 words each
        let dram = e.items.iter().find(|i| i.name == "DRAM words").unwrap();
        assert!(dram.uj > 0.0);
    }

    #[test]
    fn scratchpad_streams_cost_scratchpad_energy() {
        let cfg = DeltaConfig::delta(2);
        let r = Accelerator::new(cfg.clone())
            .run(&mut Copies { n: 4, spad: true })
            .unwrap();
        assert!(r.counters.tile_total().spad_accesses >= 4 * 256);
        let e = breakdown(&cfg, &r);
        let spad = e.items.iter().find(|i| i.name == "scratchpads").unwrap();
        assert!(spad.uj > 0.0, "{e:?}");
    }
}
