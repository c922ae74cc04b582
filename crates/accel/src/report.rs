//! Run results.

use crate::faults::FaultReport;
use crate::trace::TraceRecord;
use taskstream_model::Value;
use ts_mem::Storage;
use ts_sim::stats::Report;
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

/// Cycle-attribution profile of one run: how many cycles each component
/// was actually ticked versus replayed in closed form, and how often it
/// was woken from a skipped stretch. Simulator bookkeeping, not a
/// modelled quantity — like [`RunReport::skipped_cycles`] it is kept
/// out of [`RunReport::stats`] so reports stay bit-identical to a densely
/// ticked run ([`Accelerator::run_dense`](crate::Accelerator::run_dense)).
/// The invariant `ticks + skipped ==
/// cycles` holds per component (tile counters additionally fold in
/// `tile_bulk_cycles` and sum over all tiles, so theirs is
/// `ticks + skipped + bulk == cycles × tiles`).
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

impl SimProfile {
    /// Fraction of tile-cycles that were skipped rather than ticked
    /// (0.0 when the run had no cycles).
    pub fn tile_skip_ratio(&self) -> f64 {
        let total = self.tile_ticks + self.tile_skipped + self.tile_bulk_cycles;
        if total == 0 {
            0.0
        } else {
            (self.tile_skipped + self.tile_bulk_cycles) as f64 / total as f64
        }
    }

    /// Accumulates another run's counters into this one (used by the
    /// benchmark harness to aggregate a whole sweep).
    pub fn add(&mut self, other: &SimProfile) {
        self.tile_ticks += other.tile_ticks;
        self.tile_skipped += other.tile_skipped;
        self.tile_bulk_cycles += other.tile_bulk_cycles;
        self.tile_wakes += other.tile_wakes;
        self.tile_next_event_calls += other.tile_next_event_calls;
        self.mem_ticks += other.mem_ticks;
        self.mem_skipped += other.mem_skipped;
        self.mem_wakes += other.mem_wakes;
        self.noc_ticks += other.noc_ticks;
        self.noc_skipped += other.noc_skipped;
        self.noc_wakes += other.noc_wakes;
        self.jump_cycles += other.jump_cycles;
        self.loop_cycles += other.loop_cycles;
        for b in 0..STRETCH_BUCKETS {
            self.jump_hist[b] += other.jump_hist[b];
            self.tile_stretch_hist[b] += other.tile_stretch_hist[b];
        }
    }
}

/// Everything a finished run hands back: cycle count, merged statistics,
/// and a snapshot of final DRAM contents for validation.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Merged statistics from every component (`tileN.*`, `noc.*`,
    /// `dram.*`, `dispatch.*`).
    pub stats: Report,
    /// Final DRAM contents — materialized eagerly by the simulator,
    /// lazily for cache-loaded reports (the sweep pipeline reads only
    /// `stats`, so a warm cache hit should not pay for an image it
    /// never looks at).
    dram: LazyDram,
    /// Tasks completed over the run.
    pub tasks_completed: u64,
    /// Sampled occupancy: `(cycle, busy tiles)` every
    /// [`RunReport::TIMELINE_STRIDE`] cycles.
    pub timeline: Vec<(u64, u32)>,
    /// Cycles covered by next-event jumps instead of dense ticking.
    /// Simulator bookkeeping, not a modelled quantity — kept out of
    /// [`RunReport::stats`] so reports are bit-identical to a densely
    /// ticked run.
    pub skipped_cycles: u64,
    /// Per-component cycle attribution (ticked vs skipped vs woken).
    /// Simulator bookkeeping, excluded from equivalence comparisons.
    pub profile: SimProfile,
    /// Structured event trace, empty unless `DeltaConfig::trace` was
    /// set. Observability output, not a modelled quantity — kept out of
    /// [`RunReport::stats`] so tracing never perturbs goldens. The
    /// stream itself is identical under dense ticking.
    pub trace: Vec<TraceRecord>,
    /// Trace records evicted because the trace ring overflowed.
    pub trace_dropped: u64,
    /// Injected-fault and recovery tallies. All-zero (and inert) when
    /// fault injection is disabled; like `profile`, kept out of
    /// [`RunReport::stats`] so faults-off reports stay byte-identical
    /// to builds that predate fault injection.
    pub faults: FaultReport,
}

/// DRAM image that is either dense (fresh simulation) or the compact
/// encoding a result-cache entry carries (see
/// [`RunReport::encode_dram_image`]), expanded on first read. A
/// cache-loaded report whose image is never inspected keeps only the
/// encoded bytes.
#[derive(Debug, Clone)]
struct LazyDram {
    dense: std::sync::OnceLock<Storage>,
    /// `(total words, encoded image)`; present only for cache-loaded
    /// reports, whose image was checked by [`walk_image`] on arrival.
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

/// Encodes a DRAM image as `varint(words)` followed by one
/// `varint(gap) varint(n) zigzag-varint(word) × n` record per maximal
/// non-zero segment, where `gap` counts the zero words since the end of
/// the previous segment. Zero words are never written.
fn encode_image(words: &[Value], out: &mut Vec<u8>) {
    put_varint(out, words.len() as u64);
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
        stats: Report,
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
            stats,
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
    /// untouched encodes in a few kilobytes. A cache-loaded report that
    /// was never expanded hands back its encoded bytes unchanged.
    pub fn encode_dram_image(&self, out: &mut Vec<u8>) {
        match (self.dram.dense.get(), &self.dram.encoded) {
            (None, Some((_, bytes))) => out.extend_from_slice(bytes),
            _ => {
                let s = self.dram.get();
                encode_image(s.read_range(0, s.len()), out);
            }
        }
    }

    /// Reassembles a report from externally persisted parts — the
    /// constructor behind the bench harness's content-addressed result
    /// cache. `dram_image` is the output of
    /// [`RunReport::encode_dram_image`]. Its structure is checked here,
    /// but it is expanded only on the first [`RunReport::dram`] or
    /// [`RunReport::dram_range`] call. The sweep pipeline never makes
    /// one, so a warm cache hit skips the multi-megabyte materialize.
    /// Carries no event trace (`trace` is observability output, never
    /// persisted; cached runs come back with an empty one).
    ///
    /// # Errors
    ///
    /// Returns a message if `dram_image` is not a well-formed image.
    #[allow(clippy::too_many_arguments)]
    pub fn from_cached_parts(
        cycles: u64,
        stats: Report,
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
            stats,
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

    /// Per-tile busy cycles, in tile order.
    pub fn tile_busy(&self) -> Vec<f64> {
        let mut v: Vec<(usize, f64)> = self
            .stats
            .matching(".busy_cycles")
            .into_iter()
            .filter_map(|(k, val)| {
                let n: usize = k.strip_prefix("tile")?.split('.').next()?.parse().ok()?;
                Some((n, val))
            })
            .collect();
        v.sort_by_key(|(n, _)| *n);
        v.into_iter().map(|(_, val)| val).collect()
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
        self.stats.get_or_zero("dram.read_words") + self.stats.get_or_zero("dram.write_words")
    }

    /// Total NoC flit-hops.
    pub fn noc_hops(&self) -> f64 {
        self.stats.get_or_zero("noc.flit_hops")
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
    /// Returns a message listing every violated invariant.
    pub fn check_conservation(&self, tiles: usize) -> Result<(), String> {
        let mut violations = Vec::new();
        let mut check = |name: &str, lhs: f64, rhs: f64, op: &str| {
            let ok = match op {
                "==" => lhs == rhs,
                ">=" => lhs >= rhs,
                _ => unreachable!("unknown op {op}"),
            };
            if !ok {
                violations.push(format!("{name}: {lhs} {op} {rhs} violated"));
            }
        };

        let completed = self.tasks_completed as f64;
        check(
            "tasks spawned = completed",
            self.stats.get_or_zero("dispatch.tasks_spawned"),
            completed,
            "==",
        );
        check(
            "tasks dispatched = completed",
            self.stats.get_or_zero("dispatch.tasks_dispatched"),
            completed,
            "==",
        );
        check(
            "tile completions = completed",
            self.stats.sum_matching(".tasks_completed"),
            completed,
            "==",
        );
        check(
            "flit branches injected = delivered",
            self.stats.get_or_zero("noc.injected_branches"),
            self.stats.get_or_zero("noc.delivered"),
            "==",
        );
        check(
            "dram reads >= unique words read",
            self.stats.get_or_zero("dram.read_words"),
            self.stats.get_or_zero("dram.read_words_unique"),
            ">=",
        );

        let cycles = self.cycles as f64;
        let p = &self.profile;
        check(
            "loop + jump cycles = cycles",
            (p.loop_cycles + p.jump_cycles) as f64,
            cycles,
            "==",
        );
        check(
            "mem ticks + skips = cycles",
            (p.mem_ticks + p.mem_skipped) as f64,
            cycles,
            "==",
        );
        check(
            "noc ticks + skips = cycles",
            (p.noc_ticks + p.noc_skipped) as f64,
            cycles,
            "==",
        );
        check(
            "tile ticks + skips + bulk = cycles x tiles",
            (p.tile_ticks + p.tile_skipped + p.tile_bulk_cycles) as f64,
            cycles * tiles as f64,
            "==",
        );

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

    fn report_with(words: &[Value]) -> RunReport {
        let mut dram = Storage::new(words.len());
        dram.load(0, words);
        RunReport::new(
            7,
            Report::new(),
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
                Report::new(),
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
