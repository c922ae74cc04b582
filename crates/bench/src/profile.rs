//! Sweep-wide cycle-attribution accumulator.
//!
//! Every simulation that goes through [`run_validated`](crate::run_validated)
//! folds its [`SimProfile`] into this process-global tally (atomics, so
//! parallel sweeps just work). The `repro` driver snapshots it around
//! each experiment to attribute ticked vs skipped cycles per figure,
//! and at the end of the whole run (`repro --profile`).

use std::sync::atomic::{AtomicU64, Ordering};
use ts_delta::{SimProfile, STRETCH_BUCKETS};

static TILE_TICKS: AtomicU64 = AtomicU64::new(0);
static TILE_SKIPPED: AtomicU64 = AtomicU64::new(0);
static TILE_BULK_CYCLES: AtomicU64 = AtomicU64::new(0);
static TILE_WAKES: AtomicU64 = AtomicU64::new(0);
static TILE_NEXT_EVENT_CALLS: AtomicU64 = AtomicU64::new(0);
static MEM_TICKS: AtomicU64 = AtomicU64::new(0);
static MEM_SKIPPED: AtomicU64 = AtomicU64::new(0);
static MEM_WAKES: AtomicU64 = AtomicU64::new(0);
static NOC_TICKS: AtomicU64 = AtomicU64::new(0);
static NOC_SKIPPED: AtomicU64 = AtomicU64::new(0);
static NOC_WAKES: AtomicU64 = AtomicU64::new(0);
static JUMP_CYCLES: AtomicU64 = AtomicU64::new(0);
static LOOP_CYCLES: AtomicU64 = AtomicU64::new(0);
static JUMP_HIST: [AtomicU64; STRETCH_BUCKETS] = [const { AtomicU64::new(0) }; STRETCH_BUCKETS];
static TILE_STRETCH_HIST: [AtomicU64; STRETCH_BUCKETS] =
    [const { AtomicU64::new(0) }; STRETCH_BUCKETS];
static RUNS: AtomicU64 = AtomicU64::new(0);

/// Adds one run's counters to the global tally.
pub fn record(p: &SimProfile) {
    TILE_TICKS.fetch_add(p.tile_ticks, Ordering::Relaxed);
    TILE_SKIPPED.fetch_add(p.tile_skipped, Ordering::Relaxed);
    TILE_BULK_CYCLES.fetch_add(p.tile_bulk_cycles, Ordering::Relaxed);
    TILE_WAKES.fetch_add(p.tile_wakes, Ordering::Relaxed);
    TILE_NEXT_EVENT_CALLS.fetch_add(p.tile_next_event_calls, Ordering::Relaxed);
    MEM_TICKS.fetch_add(p.mem_ticks, Ordering::Relaxed);
    MEM_SKIPPED.fetch_add(p.mem_skipped, Ordering::Relaxed);
    MEM_WAKES.fetch_add(p.mem_wakes, Ordering::Relaxed);
    NOC_TICKS.fetch_add(p.noc_ticks, Ordering::Relaxed);
    NOC_SKIPPED.fetch_add(p.noc_skipped, Ordering::Relaxed);
    NOC_WAKES.fetch_add(p.noc_wakes, Ordering::Relaxed);
    JUMP_CYCLES.fetch_add(p.jump_cycles, Ordering::Relaxed);
    LOOP_CYCLES.fetch_add(p.loop_cycles, Ordering::Relaxed);
    for b in 0..STRETCH_BUCKETS {
        JUMP_HIST[b].fetch_add(p.jump_hist[b], Ordering::Relaxed);
        TILE_STRETCH_HIST[b].fetch_add(p.tile_stretch_hist[b], Ordering::Relaxed);
    }
    RUNS.fetch_add(1, Ordering::Relaxed);
}

fn load_hist(h: &[AtomicU64; STRETCH_BUCKETS]) -> [u64; STRETCH_BUCKETS] {
    std::array::from_fn(|b| h[b].load(Ordering::Relaxed))
}

/// Current tally plus the number of runs that contributed to it.
pub fn snapshot() -> (SimProfile, u64) {
    (
        SimProfile {
            tile_ticks: TILE_TICKS.load(Ordering::Relaxed),
            tile_skipped: TILE_SKIPPED.load(Ordering::Relaxed),
            tile_bulk_cycles: TILE_BULK_CYCLES.load(Ordering::Relaxed),
            tile_wakes: TILE_WAKES.load(Ordering::Relaxed),
            tile_next_event_calls: TILE_NEXT_EVENT_CALLS.load(Ordering::Relaxed),
            mem_ticks: MEM_TICKS.load(Ordering::Relaxed),
            mem_skipped: MEM_SKIPPED.load(Ordering::Relaxed),
            mem_wakes: MEM_WAKES.load(Ordering::Relaxed),
            noc_ticks: NOC_TICKS.load(Ordering::Relaxed),
            noc_skipped: NOC_SKIPPED.load(Ordering::Relaxed),
            noc_wakes: NOC_WAKES.load(Ordering::Relaxed),
            jump_cycles: JUMP_CYCLES.load(Ordering::Relaxed),
            loop_cycles: LOOP_CYCLES.load(Ordering::Relaxed),
            jump_hist: load_hist(&JUMP_HIST),
            tile_stretch_hist: load_hist(&TILE_STRETCH_HIST),
        },
        RUNS.load(Ordering::Relaxed),
    )
}

/// Counter-wise `after - before`, for attributing one experiment's
/// share of the tally from two snapshots.
pub fn delta(before: &SimProfile, after: &SimProfile) -> SimProfile {
    let hist_delta = |b: &[u64; STRETCH_BUCKETS], a: &[u64; STRETCH_BUCKETS]| {
        std::array::from_fn(|i| a[i] - b[i])
    };
    SimProfile {
        tile_ticks: after.tile_ticks - before.tile_ticks,
        tile_skipped: after.tile_skipped - before.tile_skipped,
        tile_bulk_cycles: after.tile_bulk_cycles - before.tile_bulk_cycles,
        tile_wakes: after.tile_wakes - before.tile_wakes,
        tile_next_event_calls: after.tile_next_event_calls - before.tile_next_event_calls,
        mem_ticks: after.mem_ticks - before.mem_ticks,
        mem_skipped: after.mem_skipped - before.mem_skipped,
        mem_wakes: after.mem_wakes - before.mem_wakes,
        noc_ticks: after.noc_ticks - before.noc_ticks,
        noc_skipped: after.noc_skipped - before.noc_skipped,
        noc_wakes: after.noc_wakes - before.noc_wakes,
        jump_cycles: after.jump_cycles - before.jump_cycles,
        loop_cycles: after.loop_cycles - before.loop_cycles,
        jump_hist: hist_delta(&before.jump_hist, &after.jump_hist),
        tile_stretch_hist: hist_delta(&before.tile_stretch_hist, &after.tile_stretch_hist),
    }
}

/// One-line human rendering: what fraction of each component's cycles
/// were densely ticked, and how much of the run was jumped outright.
/// Tile cycles replayed as blocked bulk advances count as skipped (they
/// never ran the dense tick) and are broken out separately when present.
pub fn summarize(p: &SimProfile) -> String {
    let pct = |ticks: u64, skipped: u64| {
        let total = ticks + skipped;
        if total == 0 {
            0.0
        } else {
            100.0 * ticks as f64 / total as f64
        }
    };
    let cycles = p.loop_cycles + p.jump_cycles;
    let bulk = if p.tile_bulk_cycles > 0 {
        format!(" [{} bulk]", p.tile_bulk_cycles)
    } else {
        String::new()
    };
    format!(
        "tiles {:.1}% ticked ({} wakes){}, mem {:.1}% ({} wakes), noc {:.1}% ({} wakes), {:.1}% of {} cycles jumped",
        pct(p.tile_ticks, p.tile_skipped + p.tile_bulk_cycles),
        p.tile_wakes,
        bulk,
        pct(p.mem_ticks, p.mem_skipped),
        p.mem_wakes,
        pct(p.noc_ticks, p.noc_skipped),
        p.noc_wakes,
        if cycles == 0 { 0.0 } else { 100.0 * p.jump_cycles as f64 / cycles as f64 },
        cycles,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_snapshot_delta_roundtrip() {
        let (before, runs_before) = snapshot();
        let p = SimProfile {
            tile_ticks: 3,
            tile_skipped: 5,
            tile_bulk_cycles: 0,
            tile_wakes: 1,
            tile_next_event_calls: 2,
            mem_ticks: 2,
            mem_skipped: 6,
            mem_wakes: 1,
            noc_ticks: 1,
            noc_skipped: 7,
            noc_wakes: 1,
            jump_cycles: 4,
            loop_cycles: 4,
            jump_hist: [1, 0, 0, 0, 0],
            tile_stretch_hist: [0, 1, 0, 0, 0],
        };
        record(&p);
        let (after, runs_after) = snapshot();
        assert_eq!(delta(&before, &after), p);
        assert_eq!(runs_after - runs_before, 1);
        let s = summarize(&p);
        assert!(s.contains("tiles 37.5% ticked"), "{s}");
        assert!(s.contains("50.0% of 8 cycles jumped"), "{s}");
    }

    #[test]
    fn summarize_breaks_out_bulk_advances() {
        let p = SimProfile {
            tile_ticks: 2,
            tile_skipped: 2,
            tile_bulk_cycles: 4,
            ..Default::default()
        };
        let s = summarize(&p);
        assert!(s.contains("tiles 25.0% ticked"), "{s}");
        assert!(s.contains("[4 bulk]"), "{s}");
    }
}
