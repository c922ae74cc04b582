//! Run results.

use crate::faults::FaultReport;
use crate::trace::TraceRecord;
use std::borrow::Cow;
use taskstream_model::Value;
use ts_mem::{DramCounters, Storage};
use ts_noc::NocCounters;
use ts_sim::counter_table;
use ts_stream::Addr;

/// Number of buckets in the per-component stretch-length histograms.
pub const STRETCH_BUCKETS: usize = 5;

/// Human-readable labels for the stretch-length histogram buckets.
pub const STRETCH_BUCKET_LABELS: [&str; STRETCH_BUCKETS] =
    ["1-4", "5-16", "17-64", "65-256", "257+"];

/// Bucket index for a skipped/bulk-advanced stretch of `len` cycles.
pub fn stretch_bucket(len: u64) -> usize {
    match len {
        0..=4 => 0,
        5..=16 => 1,
        17..=64 => 2,
        65..=256 => 3,
        _ => 4,
    }
}

counter_table! {
    /// Cycle-attribution profile of one run: how many cycles each
    /// component was actually ticked versus replayed in closed form, and
    /// how often it was woken from a skipped stretch. Simulator
    /// bookkeeping, not a modelled quantity — like
    /// [`RunReport::skipped_cycles`] it is kept out of
    /// [`RunReport::counters`] so reports stay bit-identical to a densely
    /// ticked run ([`Accelerator::run_dense`](crate::Accelerator::run_dense)).
    /// The invariant `ticks + skipped == cycles` holds per component
    /// (tile counters additionally fold in `tile_bulk_cycles` and sum
    /// over all tiles, so theirs is `ticks + skipped + bulk == cycles ×
    /// tiles`). Its field order is the result cache's on-disk layout.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SimProfile {
        /// Densely ticked tile-cycles, summed over all tiles.
        pub tile_ticks: u64,
        /// Idle (empty-queue) tile-cycles replayed in closed form, summed
        /// over all tiles.
        pub tile_skipped: u64,
        /// Blocked busy tile-cycles replayed in closed form by the
        /// event-driven tile scheduler, summed over all tiles.
        pub tile_bulk_cycles: u64,
        /// Times a tile was woken out of a skipped stretch.
        pub tile_wakes: u64,
        /// `Tile::next_event` evaluations performed by the event-driven
        /// scheduler.
        pub tile_next_event_calls: u64,
        /// Densely ticked memory-controller cycles.
        pub mem_ticks: u64,
        /// Memory-controller cycles replayed in closed form.
        pub mem_skipped: u64,
        /// Times the memory controller was woken out of a skipped stretch.
        pub mem_wakes: u64,
        /// Densely ticked mesh cycles.
        pub noc_ticks: u64,
        /// Mesh cycles replayed in closed form.
        pub noc_skipped: u64,
        /// Times the mesh was woken out of a skipped stretch.
        pub noc_wakes: u64,
        /// Cycles covered by whole-loop next-event jumps.
        pub jump_cycles: u64,
        /// Main-loop iterations actually executed (densely ticked cycles).
        pub loop_cycles: u64,
        /// Histogram of whole-loop jump lengths, bucketed by
        /// [`stretch_bucket`].
        pub jump_hist: [u64; STRETCH_BUCKETS],
        /// Histogram of per-tile replayed stretch lengths (idle skips and
        /// bulk advances), bucketed by [`stretch_bucket`].
        pub tile_stretch_hist: [u64; STRETCH_BUCKETS],
    }
}

counter_table! {
    /// One tile's counters over a run.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TileCounters {
        /// Tasks the dispatcher placed on this tile.
        pub tasks_dispatched: u64,
        /// Tasks this tile ran to completion.
        pub tasks_completed: u64,
        /// Queued tasks another tile stole from this one.
        pub tasks_stolen_away: u64,
        /// Stalled head tasks rotated to the back of the queue.
        pub task_rotations: u64,
        /// Dispatch-to-completion cycles, summed over completed tasks
        /// (the sample count is `tasks_completed`).
        pub task_latency_sum: u64,
        /// Longest dispatch-to-completion latency.
        pub task_latency_max: u64,
        /// Fabric reconfigurations started.
        pub reconfigs: u64,
        /// Cycles spent reconfiguring the fabric.
        pub reconfig_cycles: u64,
        /// Cycles with a queued task.
        pub busy_cycles: u64,
        /// Cycles with an empty queue.
        pub idle_cycles: u64,
        /// Running cycles without a firing because an input port was
        /// starved.
        pub fire_stall_input: u64,
        /// Running cycles without a firing for any other reason.
        pub fire_stall_other: u64,
        /// Spilled pipe values read back from DRAM.
        pub spill_reads: u64,
        /// Pipe dependences served producer-to-consumer over the NoC.
        pub pipes_direct: u64,
        /// Pipe dependences spilled through DRAM.
        pub pipes_spilled: u64,
        /// Metered scratchpad accesses, reads and writes.
        pub spad_accesses: u64,
        /// Cycles the tile was down under an injected fault.
        pub fault_down_cycles: u64,
    }
}

counter_table! {
    /// The dispatcher's counters over a run.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DispatchCounters {
        /// Tasks the host spawned.
        pub tasks_spawned: u64,
        /// Task placements on a tile.
        pub tasks_dispatched: u64,
        /// Queued tasks moved to an idle tile.
        pub steals: u64,
        /// Shared-read multicast groups formed.
        pub multicast_groups: u64,
        /// Tasks that joined a multicast group after its leader.
        pub multicast_joins: u64,
        /// Pipe consumers dispatched next to their producer.
        pub chain_dispatches: u64,
    }
}

counter_table! {
    /// One tenant's completion accounting over a multi-tenant run.
    /// Latencies run from spawn to completion; the percentiles are the
    /// nearest rank on the sorted samples, so they golden cleanly.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TenantCounters {
        /// Tasks admitted past the tenancy gate.
        pub admitted: u64,
        /// Tasks completed (also the latency sample count).
        pub completed: u64,
        /// Admissions the gate held back.
        pub gate_holds: u64,
        /// Median task latency.
        pub p50_latency: u64,
        /// 99th-percentile task latency.
        pub p99_latency: u64,
        /// Longest task latency.
        pub max_latency: u64,
        /// Task latencies summed.
        pub latency_sum: u64,
    }
}

/// Every modelled counter of a run, one typed block per component.
/// Equal blocks mean equal modelled behaviour, which is how the
/// event-driven and densely ticked engines are compared.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// One block per tile, in tile order.
    pub tiles: Vec<TileCounters>,
    /// The mesh.
    pub noc: NocCounters,
    /// DRAM traffic.
    pub dram: DramCounters,
    /// The dispatcher.
    pub dispatch: DispatchCounters,
    /// One block per tenant; empty when tenancy is off.
    pub tenants: Vec<TenantCounters>,
}

impl RunCounters {
    /// Every tile's counters added together (`task_latency_max` too,
    /// so read that one per tile).
    pub fn tile_total(&self) -> TileCounters {
        let mut total = TileCounters::default();
        self.tiles.iter().for_each(|t| total.add(t));
        total
    }
}

impl SimProfile {
    /// One-line human rendering: what fraction of each component's
    /// cycles were densely ticked, and how much of the run was jumped
    /// outright. Tile cycles replayed as blocked bulk advances count as
    /// skipped (they never ran the dense tick) and are broken out
    /// separately when present.
    pub fn summary(&self) -> String {
        let pct = |ticks: u64, skipped: u64| {
            let total = ticks + skipped;
            if total == 0 {
                0.0
            } else {
                100.0 * ticks as f64 / total as f64
            }
        };
        let cycles = self.loop_cycles + self.jump_cycles;
        let bulk = if self.tile_bulk_cycles > 0 {
            format!(" [{} bulk]", self.tile_bulk_cycles)
        } else {
            String::new()
        };
        format!(
            "tiles {:.1}% ticked ({} wakes){}, mem {:.1}% ({} wakes), noc {:.1}% ({} wakes), {:.1}% of {} cycles jumped",
            pct(self.tile_ticks, self.tile_skipped + self.tile_bulk_cycles),
            self.tile_wakes,
            bulk,
            pct(self.mem_ticks, self.mem_skipped),
            self.mem_wakes,
            pct(self.noc_ticks, self.noc_skipped),
            self.noc_wakes,
            if cycles == 0 { 0.0 } else { 100.0 * self.jump_cycles as f64 / cycles as f64 },
            cycles,
        )
    }
}

/// Everything a finished run hands back: cycle count, every
/// component's counters, and a snapshot of final DRAM contents for
/// validation.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Every component's modelled counters: per tile, mesh, DRAM,
    /// dispatcher and per tenant.
    pub counters: RunCounters,
    /// Final DRAM contents, or `None` once
    /// [released](RunReport::release_dram). The sweep releases the
    /// image as soon as a run is checked, since nothing after the
    /// checks reads DRAM; cache-loaded reports never carry one.
    dram: Option<Storage>,
    /// Tasks completed over the run.
    pub tasks_completed: u64,
    /// Sampled occupancy: `(cycle, busy tiles)` every
    /// [`RunReport::TIMELINE_STRIDE`] cycles.
    pub timeline: Vec<(u64, u32)>,
    /// Cycles covered by next-event jumps instead of dense ticking.
    /// Simulator bookkeeping, not a modelled quantity — kept out of
    /// [`RunReport::counters`] so reports are bit-identical to a densely
    /// ticked run.
    pub skipped_cycles: u64,
    /// Per-component cycle attribution (ticked vs skipped vs woken).
    /// Simulator bookkeeping, excluded from equivalence comparisons.
    pub profile: SimProfile,
    /// Structured event trace, empty unless `DeltaConfig::trace` was
    /// set. Observability output, not a modelled quantity — kept out of
    /// [`RunReport::counters`] so tracing never perturbs goldens. The
    /// stream itself is identical under dense ticking.
    pub trace: Vec<TraceRecord>,
    /// Trace records evicted because the trace ring overflowed.
    pub trace_dropped: u64,
    /// Injected-fault and recovery tallies. All-zero (and inert) when
    /// fault injection is disabled; like `profile`, kept out of
    /// [`RunReport::counters`] so faults-off reports stay byte-identical
    /// to builds that predate fault injection.
    pub faults: FaultReport,
}

impl RunReport {
    /// Cycles between occupancy samples in [`RunReport::timeline`].
    pub const TIMELINE_STRIDE: u64 = 256;

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cycles: u64,
        counters: RunCounters,
        dram: Storage,
        tasks_completed: u64,
        timeline: Vec<(u64, u32)>,
        skipped_cycles: u64,
        profile: SimProfile,
        trace: Vec<TraceRecord>,
        trace_dropped: u64,
        faults: FaultReport,
    ) -> Self {
        RunReport {
            cycles,
            counters,
            dram: Some(dram),
            tasks_completed,
            timeline,
            skipped_cycles,
            profile,
            trace,
            trace_dropped,
            faults,
        }
    }

    /// Renders the occupancy timeline as a unicode sparkline
    /// (one glyph per sample, `█` = all tiles busy), at most `width`
    /// glyphs (downsampled by striding).
    pub fn sparkline(&self, tiles: usize, width: usize) -> String {
        const RAMP: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.timeline.is_empty() || tiles == 0 || width == 0 {
            return String::new();
        }
        let stride = self.timeline.len().div_ceil(width);
        self.timeline
            .chunks(stride)
            .map(|chunk| {
                let avg: f64 =
                    chunk.iter().map(|&(_, b)| b as f64).sum::<f64>() / chunk.len() as f64;
                let level = ((avg / tiles as f64) * 8.0).round() as usize;
                RAMP[level.min(8)]
            })
            .collect()
    }

    /// The final DRAM image. A released image panics rather than read
    /// as zeros.
    fn image(&self) -> &Storage {
        self.dram
            .as_ref()
            .expect("the report's final DRAM image was released (RunReport::release_dram)")
    }

    /// Reads one word of the final DRAM image.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range, or if the image was
    /// [released](RunReport::release_dram).
    pub fn dram(&self, addr: Addr) -> Value {
        self.image().read(addr)
    }

    /// Reads a contiguous range of the final DRAM image; words past the
    /// highest one the run wrote read as zero (see [`Storage::read_range`]).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds, or if the image was
    /// [released](RunReport::release_dram).
    pub fn dram_range(&self, base: Addr, len: usize) -> Cow<'_, [Value]> {
        self.image().read_range(base, len)
    }

    /// Size of the final DRAM image, in words.
    ///
    /// # Panics
    ///
    /// Panics if the image was [released](RunReport::release_dram).
    pub fn dram_len(&self) -> usize {
        self.image().len()
    }

    /// Whether the final DRAM image was [released](RunReport::release_dram).
    pub fn dram_released(&self) -> bool {
        self.dram.is_none()
    }

    /// Drops the final DRAM image. The sweep calls this once a run has
    /// passed its reference, conservation and (for faulted runs) oracle
    /// checks: nothing after them reads DRAM, and the sweep holds every
    /// outcome until it ends. Every other field stays; DRAM reads panic
    /// from here on.
    pub fn release_dram(&mut self) {
        self.dram = None;
    }

    /// Reassembles a report from externally persisted parts — the
    /// constructor behind the bench harness's content-addressed result
    /// cache. The result carries no DRAM image (it is
    /// [released](RunReport::release_dram), as the sweep leaves every
    /// report it stores) and no event trace (`trace` is observability
    /// output, never persisted; cached runs come back with an empty
    /// one).
    #[allow(clippy::too_many_arguments)]
    pub fn from_cached_parts(
        cycles: u64,
        counters: RunCounters,
        tasks_completed: u64,
        timeline: Vec<(u64, u32)>,
        skipped_cycles: u64,
        profile: SimProfile,
        faults: FaultReport,
    ) -> Self {
        RunReport {
            cycles,
            counters,
            dram: None,
            tasks_completed,
            timeline,
            skipped_cycles,
            profile,
            trace: Vec::new(),
            trace_dropped: 0,
            faults,
        }
    }

    /// Busy cycles of each tile that did any work, in tile order.
    /// Tiles with zero busy cycles are left out, so an idle tile does
    /// not dilute [`load_imbalance`](Self::load_imbalance).
    pub fn tile_busy(&self) -> Vec<f64> {
        self.counters
            .tiles
            .iter()
            .filter(|t| t.busy_cycles > 0)
            .map(|t| t.busy_cycles as f64)
            .collect()
    }

    /// Load imbalance: max over mean of per-tile busy cycles (1.0 =
    /// perfectly balanced).
    pub fn load_imbalance(&self) -> f64 {
        let busy = self.tile_busy();
        if busy.is_empty() {
            return 1.0;
        }
        let max = busy.iter().cloned().fold(0.0f64, f64::max);
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Total DRAM words moved (reads + writes).
    pub fn dram_words(&self) -> f64 {
        let d = &self.counters.dram;
        (d.read_words + d.write_words) as f64
    }

    /// Total NoC flit-hops.
    pub fn noc_hops(&self) -> f64 {
        self.counters.noc.flit_hops as f64
    }

    /// Checks the run's conservation invariants: quantities that must
    /// balance at quiescence whatever the configuration or policy, and
    /// whether the run was event-driven or densely ticked.
    ///
    /// * every spawned task was dispatched and completed (host,
    ///   dispatcher, and tile counts all agree);
    /// * every injected NoC flit branch was ejected (`noc.delivered ==
    ///   noc.injected_branches` — each branch of a multicast tree ends
    ///   in exactly one ejection);
    /// * total DRAM reads cover at least the distinct words read
    ///   (`dram.read_words >= dram.read_words_unique`);
    /// * the cycle-attribution profile covers the run exactly
    ///   (`ticks + skipped == cycles` per component, `cycles × tiles`
    ///   for the tile counters).
    ///
    /// # Errors
    ///
    /// Returns a message naming every violated invariant.
    pub fn check_conservation(&self, tiles: usize) -> Result<(), String> {
        let c = &self.counters;
        let p = &self.profile;
        let completed = self.tasks_completed;
        let cycles = self.cycles;
        let equal = [
            (
                "tasks spawned = completed",
                c.dispatch.tasks_spawned,
                completed,
            ),
            (
                "tasks dispatched = completed",
                c.dispatch.tasks_dispatched,
                completed,
            ),
            (
                "tile completions = completed",
                c.tile_total().tasks_completed,
                completed,
            ),
            (
                "flit branches injected = delivered",
                c.noc.injected_branches,
                c.noc.delivered,
            ),
            (
                "loop + jump cycles = cycles",
                p.loop_cycles + p.jump_cycles,
                cycles,
            ),
            (
                "mem ticks + skips = cycles",
                p.mem_ticks + p.mem_skipped,
                cycles,
            ),
            (
                "noc ticks + skips = cycles",
                p.noc_ticks + p.noc_skipped,
                cycles,
            ),
            (
                "tile ticks + skips + bulk = cycles x tiles",
                p.tile_ticks + p.tile_skipped + p.tile_bulk_cycles,
                cycles * tiles as u64,
            ),
        ];
        let mut violations: Vec<String> = equal
            .iter()
            .filter(|(_, lhs, rhs)| lhs != rhs)
            .map(|(name, lhs, rhs)| format!("{name}: {lhs} == {rhs} violated"))
            .collect();
        if c.dram.read_words < c.dram.read_words_unique {
            violations.push(format!(
                "dram reads >= unique words read: {} >= {} violated",
                c.dram.read_words, c.dram.read_words_unique
            ));
        }

        if violations.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "conservation violated:\n  {}",
                violations.join("\n  ")
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report whose DRAM of `capacity` words starts with `words`.
    fn report_with(words: &[Value], capacity: usize) -> RunReport {
        let mut dram = Storage::new(capacity);
        dram.load(0, words);
        RunReport::new(
            7,
            RunCounters::default(),
            dram,
            0,
            Vec::new(),
            0,
            SimProfile::default(),
            Vec::new(),
            0,
            FaultReport::default(),
        )
    }

    #[test]
    fn summary_renders_ticked_shares() {
        let p = SimProfile {
            tile_ticks: 3,
            tile_skipped: 5,
            mem_ticks: 2,
            mem_skipped: 6,
            jump_cycles: 4,
            loop_cycles: 4,
            ..Default::default()
        };
        let s = p.summary();
        assert!(s.contains("tiles 37.5% ticked"), "{s}");
        assert!(s.contains("mem 25.0%"), "{s}");
        assert!(s.contains("50.0% of 8 cycles jumped"), "{s}");
        assert!(!s.contains("bulk"), "{s}");
    }

    #[test]
    fn summary_breaks_out_bulk_advances() {
        let p = SimProfile {
            tile_ticks: 2,
            tile_skipped: 2,
            tile_bulk_cycles: 4,
            ..Default::default()
        };
        let s = p.summary();
        assert!(s.contains("tiles 25.0% ticked"), "{s}");
        assert!(s.contains("[4 bulk]"), "{s}");
    }

    #[test]
    fn counter_tables_add_and_roundtrip_word_by_word() {
        let mut p = SimProfile::from_words(&std::array::from_fn(|i| i as u64));
        assert_eq!(p.tile_ticks, 0);
        assert_eq!(p.tile_stretch_hist[4], 22);
        let words = p.to_words();
        p.add(&SimProfile::from_words(&words));
        assert_eq!(p.to_words(), words.map(|w| 2 * w));
        assert_eq!(SimProfile::NAMES.len(), p.counters().count());
        let f = FaultReport::from_words(&[1; FaultReport::WORDS]);
        assert_eq!(f.injected(), 5);
        assert_eq!(FaultReport::NAMES.len(), FaultReport::WORDS);
    }

    /// The message of the panic `f` raises.
    fn panic_message(f: impl FnOnce()) -> String {
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("the call panics");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn ranges_over_the_unwritten_tail_read_zeros() {
        let r = report_with(&[5, 6], 8);
        assert_eq!(r.dram_len(), 8, "the length is the capacity");
        assert_eq!(r.dram_range(0, 8), &[5, 6, 0, 0, 0, 0, 0, 0][..]);
        assert_eq!(r.dram_range(6, 2), &[0, 0][..]);
        assert_eq!(r.dram(7), 0);
    }

    #[test]
    fn a_released_image_panics_instead_of_reading_zeros() {
        let mut r = report_with(&[0, 4, 0], 3);
        assert_eq!((r.dram_len(), r.dram(1)), (3, 4));
        assert!(!r.dram_released());
        r.release_dram();
        assert!(r.dram_released());
        assert_eq!(r.cycles, 7, "the rest of the report stays");
        for msg in [
            panic_message(|| {
                r.dram(1);
            }),
            panic_message(|| {
                r.dram_range(0, 3);
            }),
            panic_message(|| {
                r.dram_len();
            }),
        ] {
            assert!(msg.contains("DRAM image was released"), "{msg}");
        }
    }
}
