//! Run results.

use crate::faults::FaultReport;
use crate::trace::TraceRecord;
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
    /// Final DRAM contents — dense from the simulator until
    /// [`RunReport::compact_dram`], encoded for cache-loaded reports,
    /// and expanded on first read in both of those cases (the sweep
    /// pipeline reads only the counters once a run is checked, so it
    /// should neither hold nor rebuild an image it never looks at).
    dram: LazyDram,
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

/// DRAM image that is either dense (fresh simulation) or the compact
/// encoding a result-cache entry carries (see
/// [`RunReport::encode_dram_image`]), expanded on first read. A
/// cache-loaded or compacted report whose image is never inspected
/// keeps only the encoded bytes. When both forms are present they hold
/// the same words: a report never writes its image.
#[derive(Debug, Clone)]
struct LazyDram {
    dense: std::sync::OnceLock<Storage>,
    /// `(total words, encoded image)`; present for cache-loaded
    /// reports, whose image was checked by [`walk_image`] on arrival,
    /// and for compacted ones, which encoded it themselves.
    encoded: Option<(usize, Vec<u8>)>,
}

impl LazyDram {
    fn dense(storage: Storage) -> Self {
        let cell = std::sync::OnceLock::new();
        let _ = cell.set(storage);
        LazyDram {
            dense: cell,
            encoded: None,
        }
    }

    /// Encodes the dense image if it is not encoded yet, then drops it.
    fn compact(&mut self) {
        if self.encoded.is_none() {
            let s = self.get();
            let mut bytes = Vec::new();
            encode_image(s.len(), s.read_range(0, s.touched()), &mut bytes);
            self.encoded = Some((s.len(), bytes));
        }
        self.dense = std::sync::OnceLock::new();
    }

    fn get(&self) -> &Storage {
        self.dense.get_or_init(|| {
            let (len, bytes) = self
                .encoded
                .as_ref()
                .expect("report holds either a dense image or an encoded one");
            let mut s = Storage::new(*len);
            walk_image(bytes, |addr, v| s.write(addr as Addr, v))
                .expect("encoded image was checked when the report was built");
            s
        })
    }
}

/// Appends `v` as an LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one LEB128 varint off the front of `rest`; `None` if it is
/// cut short or does not fit 64 bits.
fn get_varint(rest: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let (&b, tail) = rest.split_first()?;
        *rest = tail;
        if shift == 63 && b > 1 {
            return None;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Zig-zag mapping: small negative words encode as short varints too.
fn zigzag(v: Value) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> Value {
    (u >> 1) as Value ^ -((u & 1) as Value)
}

/// Encodes a DRAM image of `len` words as `varint(len)` followed by
/// one `varint(gap) varint(n) zigzag-varint(word) × n` record per
/// maximal non-zero segment, where `gap` counts the zero words since
/// the end of the previous segment. Zero words are never written, so
/// `words` need only be a prefix of the image that holds every non-zero
/// word ([`Storage::touched`] long): the zeros past it encode as
/// nothing, and the bytes match those of a scan over all `len` words.
fn encode_image(len: usize, words: &[Value], out: &mut Vec<u8>) {
    debug_assert!(words.len() <= len, "prefix longer than the image");
    put_varint(out, len as u64);
    let mut rest = words;
    while let Some(gap) = rest.iter().position(|&w| w != 0) {
        let seg = &rest[gap..];
        let n = seg.iter().position(|&w| w == 0).unwrap_or(seg.len());
        put_varint(out, gap as u64);
        put_varint(out, n as u64);
        for &w in &seg[..n] {
            put_varint(out, zigzag(w));
        }
        rest = &seg[n..];
    }
}

/// Walks an image written by [`encode_image`], checking every varint
/// and bound, and hands each segment word to `word(addr, value)`.
/// Returns the image's total word count.
fn walk_image(mut rest: &[u8], mut word: impl FnMut(usize, Value)) -> Result<usize, String> {
    let len = get_varint(&mut rest).ok_or("dram image: bad word count")?;
    let mut addr = 0u64;
    while !rest.is_empty() {
        let gap = get_varint(&mut rest).ok_or("dram image: bad segment gap")?;
        let n = get_varint(&mut rest).ok_or("dram image: bad segment length")?;
        let start = addr.checked_add(gap).filter(|&s| s <= len);
        let end = start.and_then(|s| s.checked_add(n)).filter(|&e| e <= len);
        let (Some(start), Some(end)) = (start, end) else {
            return Err("dram image: segment runs past the image".into());
        };
        for a in start..end {
            let v = get_varint(&mut rest).ok_or("dram image: bad word")?;
            word(a as usize, unzigzag(v));
        }
        addr = end;
    }
    usize::try_from(len).map_err(|_| "dram image: word count overflows".into())
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
            dram: LazyDram::dense(dram),
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

    /// Reads one word of the final DRAM image.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn dram(&self, addr: Addr) -> Value {
        self.dram.get().read(addr)
    }

    /// Reads a contiguous range of the final DRAM image.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn dram_range(&self, base: Addr, len: usize) -> &[Value] {
        self.dram.get().read_range(base, len)
    }

    /// Size of the final DRAM image, in words.
    pub fn dram_len(&self) -> usize {
        match (self.dram.dense.get(), &self.dram.encoded) {
            (Some(s), _) => s.len(),
            (None, Some((len, _))) => *len,
            (None, None) => unreachable!("report holds either a dense image or an encoded one"),
        }
    }

    /// Appends the final DRAM image in its compact encoding, the form
    /// the bench harness's result cache persists: the word count, then
    /// each maximal run of non-zero words as its offset from the
    /// previous run, its length and its words as zig-zag varints. Zero
    /// words cost nothing, so a multi-megaword image that is mostly
    /// untouched encodes in a few kilobytes. A dense image is walked
    /// only up to its [`Storage::touched`] mark, so the cost follows
    /// the words the run wrote, not the DRAM capacity. A cache-loaded
    /// or [compacted](RunReport::compact_dram) report copies its
    /// encoded bytes unchanged.
    pub fn encode_dram_image(&self, out: &mut Vec<u8>) {
        match &self.dram.encoded {
            Some((_, bytes)) => out.extend_from_slice(bytes),
            None => {
                let s = self.dram.get();
                encode_image(s.len(), s.read_range(0, s.touched()), out);
            }
        }
    }

    /// Swaps a dense final DRAM image for its compact encoding (the
    /// bytes [`RunReport::encode_dram_image`] appends), freeing the
    /// dense store. Reads still work: the first [`RunReport::dram`] or
    /// [`RunReport::dram_range`] expands the image again. The sweep
    /// calls this once a run has been checked, so the outcomes it holds
    /// until the end cost their encoded size rather than every page the
    /// run touched, and a cache store then copies the bytes. A no-op on
    /// an encoded report.
    pub fn compact_dram(&mut self) {
        self.dram.compact();
    }

    /// Reassembles a report from externally persisted parts — the
    /// constructor behind the bench harness's content-addressed result
    /// cache. `dram_image` is the output of
    /// [`RunReport::encode_dram_image`]. Its structure is checked here,
    /// but it is expanded only on the first [`RunReport::dram`] or
    /// [`RunReport::dram_range`] call. The sweep pipeline never makes
    /// one, so a warm cache hit skips the multi-megabyte materialize,
    /// and storing the report again copies `dram_image` as is. The
    /// result is in the same state as a
    /// [compacted](RunReport::compact_dram) fresh report.
    /// Carries no event trace (`trace` is observability output, never
    /// persisted; cached runs come back with an empty one).
    ///
    /// # Errors
    ///
    /// Returns a message if `dram_image` is not a well-formed image.
    #[allow(clippy::too_many_arguments)]
    pub fn from_cached_parts(
        cycles: u64,
        counters: RunCounters,
        dram_image: Vec<u8>,
        tasks_completed: u64,
        timeline: Vec<(u64, u32)>,
        skipped_cycles: u64,
        profile: SimProfile,
        faults: FaultReport,
    ) -> Result<Self, String> {
        let len = walk_image(&dram_image, |_, _| {})?;
        Ok(RunReport {
            cycles,
            counters,
            dram: LazyDram {
                dense: std::sync::OnceLock::new(),
                encoded: Some((len, dram_image)),
            },
            tasks_completed,
            timeline,
            skipped_cycles,
            profile,
            trace: Vec::new(),
            trace_dropped: 0,
            faults,
        })
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
    use ts_mem::WriteMode;

    fn report_with(words: &[Value]) -> RunReport {
        let mut dram = Storage::new(words.len());
        dram.load(0, words);
        report_of(dram)
    }

    fn report_of(dram: Storage) -> RunReport {
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

    #[test]
    fn dram_images_roundtrip_through_the_lazy_report() {
        let images: [Vec<Value>; 5] = [
            Vec::new(),
            vec![0; 300],
            vec![i64::MIN, i64::MAX, -1, 1, 0, -64, 64],
            (0..1000)
                .map(|i| if i % 7 < 3 { 0 } else { i * -37 })
                .collect(),
            vec![0, 0, 0, 9],
        ];
        for words in &images {
            let mut bytes = Vec::new();
            report_with(words).encode_dram_image(&mut bytes);
            let lazy = RunReport::from_cached_parts(
                7,
                RunCounters::default(),
                bytes.clone(),
                0,
                Vec::new(),
                0,
                SimProfile::default(),
                FaultReport::default(),
            )
            .expect("encoded image is well formed");
            assert_eq!(lazy.dram_len(), words.len());
            let mut again = Vec::new();
            lazy.encode_dram_image(&mut again);
            assert_eq!(again, bytes, "unexpanded image re-encodes as is");
            assert_eq!(lazy.dram_range(0, words.len()), &words[..]);
        }
    }

    /// The image encoder as it was before it learned the touched
    /// prefix: a scan over every word of the capacity. Kept as the
    /// reference the prefix encoder must match byte for byte.
    fn full_scan_reference(words: &[Value]) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, words.len() as u64);
        let mut rest = words;
        while let Some(gap) = rest.iter().position(|&w| w != 0) {
            let seg = &rest[gap..];
            let n = seg.iter().position(|&w| w == 0).unwrap_or(seg.len());
            put_varint(&mut out, gap as u64);
            put_varint(&mut out, n as u64);
            for &w in &seg[..n] {
                put_varint(&mut out, zigzag(w));
            }
            rest = &seg[n..];
        }
        out
    }

    /// Encodes `s` through a report, dense and then compacted, checks
    /// both against the full-capacity reference, and checks the
    /// compacted report still reads back every word.
    fn assert_encodes_like_a_full_scan(s: Storage) {
        let all = s.read_range(0, s.len()).to_vec();
        let want = full_scan_reference(&all);
        let mut report = report_of(s);
        let mut dense = Vec::new();
        report.encode_dram_image(&mut dense);
        assert_eq!(dense, want, "touched-prefix encoding");
        report.compact_dram();
        assert!(
            report.dram.dense.get().is_none(),
            "compaction drops the store"
        );
        let mut compacted = Vec::new();
        report.encode_dram_image(&mut compacted);
        assert_eq!(compacted, want, "compacted encoding");
        assert_eq!(report.dram_len(), all.len());
        assert_eq!(report.dram_range(0, all.len()), &all[..]);
        report.compact_dram();
        let mut again = Vec::new();
        report.encode_dram_image(&mut again);
        assert_eq!(again, want, "compacting twice changes nothing");
    }

    #[test]
    fn touched_prefix_encoding_matches_a_full_capacity_scan() {
        // xorshift64: random sparse images without a dependency
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..300 {
            let len = 1 + (next() % 4096) as usize;
            let mut s = Storage::new(len);
            for _ in 0..next() % 48 {
                let addr = (next() % len as u64) as Addr;
                let small = (next() % 9) as Value - 4;
                match next() % 5 {
                    0 => s.write(addr, 0),
                    1 => s.write(addr, next() as Value >> (next() % 64)),
                    2 => s.update(addr, small, WriteMode::Add),
                    3 => s.update(addr, small, WriteMode::Min),
                    _ => s.load(addr, &[small; 3][..(len - addr as usize).min(3)]),
                }
            }
            assert_encodes_like_a_full_scan(s);
        }

        // a write to the last word
        let mut s = Storage::new(1000);
        s.write(999, -5);
        assert_eq!(s.touched(), 1000);
        assert_encodes_like_a_full_scan(s);

        // Add and Min updates that leave zero words behind the mark
        let mut s = Storage::new(1000);
        s.write(10, 3);
        s.update(700, 4, WriteMode::Add);
        s.update(700, -4, WriteMode::Add);
        s.update(800, 0, WriteMode::Min);
        assert_eq!(s.touched(), 801);
        assert_encodes_like_a_full_scan(s);

        // an empty load at a high base touches nothing
        let mut s = Storage::new(1000);
        s.write(2, 1);
        s.load(990, &[]);
        assert_eq!(s.touched(), 3);
        assert_encodes_like_a_full_scan(s);

        // nothing touched at all
        assert_encodes_like_a_full_scan(Storage::new(1 << 16));
    }

    #[test]
    fn zero_words_cost_nothing() {
        let mut bytes = Vec::new();
        report_with(&[0; 100_000]).encode_dram_image(&mut bytes);
        assert_eq!(bytes.len(), 3, "just the varint word count");
    }

    #[test]
    fn malformed_images_are_errors() {
        let ok = |b: &[u8]| walk_image(b, |_, _| {}).is_ok();
        assert!(ok(&[2, 0, 2, 1, 1]));
        assert!(!ok(&[]), "missing word count");
        assert!(!ok(&[2, 1, 2, 1, 1]), "segment past the end");
        assert!(!ok(&[2, 0, 2, 1]), "missing word");
        assert!(!ok(&[2, 0]), "missing segment length");
        assert!(!ok(&[0x80]), "truncated varint");
        let mut overflow = vec![0xff; 9];
        overflow.push(0x02);
        assert!(!ok(&overflow), "varint past 64 bits");
        let mut max = vec![0xff; 9];
        max.push(0x01);
        assert!(ok(&max), "u64::MAX words, no segments");
    }
}
