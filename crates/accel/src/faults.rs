//! Deterministic, seeded fault injection and recovery accounting.
//!
//! The simulator's functional/timing split means faults can only ever
//! perturb *timing*: every task's outputs are computed once at dispatch
//! and applied to the modelled memories immediately, so a dead tile, a
//! dropped flit, or a DRAM retry can strand metering state or delay a
//! word count, but never corrupt a value. Recovery therefore consists
//! of rebuilding a victim task's *metering* state on a healthy tile
//! (re-requesting its streams, re-sending its write flits) — the run
//! still validates against the plain-Rust reference and the untimed
//! oracle at any fault rate.
//!
//! Three fault classes are modelled:
//!
//! * **tile fail-stop** — a chosen subset of tiles stops executing at a
//!   seeded cycle and never comes back (at least one tile always
//!   survives);
//! * **tile transient stalls** — a tile freezes for a bounded window at
//!   the start of seeded epochs, then resumes;
//! * **NoC flit faults** — a flit arriving at a tile is dropped, or
//!   corrupted-and-discarded (detected by a link-level check); either
//!   way the word never lands and recovery must re-request it;
//! * **DRAM transient errors** — a served word is detected bad and
//!   retried, adding retry latency in the (in-order) return path.
//!
//! Every fault is a pure function of `(seed, site, time)`: the same
//! seed yields the same schedule, the same recovery decisions, and a
//! byte-identical [`FaultReport`] — whatever the scheduler fast paths
//! in force. With every rate at zero the subsystem is inert and all
//! reports are byte-identical to a build without it.

use std::hash::{Hash, Hasher};
use ts_sim::counter_table;

/// Fault-injection knobs and the recovery policy, carried by
/// `DeltaConfig::faults`. The default ([`FaultsConfig::none`]) injects
/// nothing and changes no behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsConfig {
    /// Fraction of tiles that fail-stop during the run. The victim
    /// count is `ceil(rate × tiles)`, capped at `tiles − 1` so at
    /// least one tile survives; which tiles fail and when is derived
    /// from the run seed.
    pub tile_fail_rate: f64,
    /// Fail-stop cycles are drawn uniformly from `1..=window`.
    pub tile_fail_window: u64,
    /// Per-(tile, epoch) probability that the tile freezes for
    /// [`tile_stall_cycles`](FaultsConfig::tile_stall_cycles) at the
    /// start of that epoch.
    pub tile_stall_rate: f64,
    /// Length of one transient stall (clamped to the epoch length).
    pub tile_stall_cycles: u64,
    /// Length of one stall epoch.
    pub tile_stall_epoch: u64,
    /// Per-flit probability that a flit arriving at a *tile* is lost
    /// (dropped outright, or corrupted and discarded by the link-level
    /// check — functionally identical, counted separately).
    pub noc_drop_rate: f64,
    /// Restrict flit faults to one victim mesh node (`None` = every
    /// tile's ingress link is faulty).
    pub noc_victim_node: Option<usize>,
    /// Per-word probability that DRAM detects a transient error on a
    /// served word and retries it.
    pub dram_retry_rate: f64,
    /// Extra latency added to a retried DRAM word.
    pub dram_retry_cycles: u64,
    /// Enable task-level recovery: the dispatcher watchdogs in-flight
    /// tasks, drains fail-stopped tiles, and re-dispatches victims to
    /// healthy tiles with bounded exponential backoff. Off, faults are
    /// injected but nothing routes around them (the static-parallel
    /// story).
    pub recovery: bool,
    /// Cycles without observable task progress before the watchdog
    /// victimizes an in-flight task.
    pub watchdog_timeout: u64,
    /// First re-dispatch backoff; doubles per retry of the same task.
    pub backoff_base: u64,
    /// Upper bound on the re-dispatch backoff.
    pub backoff_cap: u64,
}

impl FaultsConfig {
    /// No faults, no recovery: the subsystem is inert and reports are
    /// byte-identical to a faultless build.
    pub fn none() -> Self {
        FaultsConfig {
            tile_fail_rate: 0.0,
            tile_fail_window: 8192,
            tile_stall_rate: 0.0,
            tile_stall_cycles: 400,
            tile_stall_epoch: 4096,
            noc_drop_rate: 0.0,
            noc_victim_node: None,
            dram_retry_rate: 0.0,
            dram_retry_cycles: 80,
            recovery: false,
            watchdog_timeout: 50_000,
            backoff_base: 64,
            backoff_cap: 4096,
        }
    }

    /// A modest all-faults preset with recovery on, used by the chaos
    /// smoke test and `repro faults`: one tile in eight fail-stops,
    /// occasional transient stalls, sparse flit loss, and rare DRAM
    /// retries.
    pub fn chaos() -> Self {
        FaultsConfig {
            tile_fail_rate: 0.125,
            tile_stall_rate: 0.02,
            tile_stall_cycles: 400,
            tile_stall_epoch: 4096,
            noc_drop_rate: 0.002,
            dram_retry_rate: 0.01,
            dram_retry_cycles: 80,
            recovery: true,
            watchdog_timeout: 4000,
            ..Self::none()
        }
    }

    /// True when any fault class has a nonzero rate (recovery alone
    /// does not activate the subsystem).
    pub fn is_active(&self) -> bool {
        self.tile_fail_rate > 0.0
            || self.tile_stall_rate > 0.0
            || self.noc_drop_rate > 0.0
            || self.dram_retry_rate > 0.0
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical values (rates outside `[0, 1]`, zero
    /// windows with nonzero rates…).
    pub fn validate(&self) {
        for (name, r) in [
            ("tile_fail_rate", self.tile_fail_rate),
            ("tile_stall_rate", self.tile_stall_rate),
            ("noc_drop_rate", self.noc_drop_rate),
            ("dram_retry_rate", self.dram_retry_rate),
        ] {
            assert!((0.0..=1.0).contains(&r), "{name} must be in [0, 1]");
        }
        if self.tile_fail_rate > 0.0 {
            assert!(self.tile_fail_window > 0, "fail window must be positive");
        }
        if self.tile_stall_rate > 0.0 {
            assert!(self.tile_stall_epoch > 0, "stall epoch must be positive");
            assert!(self.tile_stall_cycles > 0, "stall length must be positive");
        }
        if self.recovery {
            assert!(
                self.watchdog_timeout > 0,
                "watchdog timeout must be positive"
            );
            assert!(self.backoff_base > 0, "backoff base must be positive");
            assert!(
                self.backoff_cap >= self.backoff_base,
                "backoff cap below base"
            );
        }
    }
}

/// Hashes every field, each rate by its bits. Destructured without
/// `..`, so a new field does not compile until it is hashed here.
impl Hash for FaultsConfig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let FaultsConfig {
            tile_fail_rate,
            tile_fail_window,
            tile_stall_rate,
            tile_stall_cycles,
            tile_stall_epoch,
            noc_drop_rate,
            noc_victim_node,
            dram_retry_rate,
            dram_retry_cycles,
            recovery,
            watchdog_timeout,
            backoff_base,
            backoff_cap,
        } = self;
        (
            tile_fail_rate.to_bits(),
            tile_fail_window,
            tile_stall_rate.to_bits(),
            tile_stall_cycles,
            tile_stall_epoch,
            noc_drop_rate.to_bits(),
            noc_victim_node,
            dram_retry_rate.to_bits(),
            dram_retry_cycles,
            recovery,
        )
            .hash(state);
        (watchdog_timeout, backoff_base, backoff_cap).hash(state);
    }
}

impl Default for FaultsConfig {
    fn default() -> Self {
        Self::none()
    }
}

counter_table! {
    /// Fault and recovery accounting for one run, carried in
    /// `RunReport::faults`. Like the trace and the profile it lives
    /// *outside* `RunReport::counters`, so faultless reports stay
    /// byte-identical. Same seed → same counts, field for field. Its
    /// field order is the result cache's on-disk layout.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FaultReport {
        /// Tiles that fail-stopped during the run.
        pub tile_fail_stops: u64,
        /// Transient tile-stall windows that fell inside the run.
        pub tile_stalls: u64,
        /// Flits dropped at tile ingress.
        pub noc_flits_dropped: u64,
        /// Flits corrupted and discarded at tile ingress.
        pub noc_flits_corrupted: u64,
        /// DRAM words that took a detected-error retry.
        pub dram_retries: u64,
        /// Watchdog firings (a task victimized for lack of progress).
        pub watchdog_fires: u64,
        /// Task re-dispatches onto a healthy tile (one task may count
        /// several times if it is victimized repeatedly).
        pub tasks_redispatched: u64,
        /// Pipe transports replayed or rerouted for a victim (direct
        /// streams re-sent or converted to spill).
        pub pipe_replays: u64,
        /// Cycles victims spent in re-dispatch backoff.
        pub backoff_cycles: u64,
        /// Metering progress thrown away by victimization: cycles between
        /// each victim's dispatch and its eviction, summed.
        pub wasted_cycles: u64,
    }
}

impl FaultReport {
    /// Total fault events injected into the run.
    pub fn injected(&self) -> u64 {
        self.tile_fail_stops
            + self.tile_stalls
            + self.noc_flits_dropped
            + self.noc_flits_corrupted
            + self.dram_retries
    }

    /// Fault events the machine *detected* and reacted to (fail-stops
    /// drained, watchdog firings, DRAM retries; dropped flits are only
    /// ever detected indirectly, through the watchdog).
    pub fn detected(&self) -> u64 {
        self.tile_fail_stops + self.watchdog_fires + self.dram_retries
    }

    /// Tasks recovered by re-dispatch.
    pub fn recovered(&self) -> u64 {
        self.tasks_redispatched
    }

    /// Cycles lost to recovery: discarded metering progress plus
    /// backoff waits. The headline "graceful degradation" metric of
    /// `fig_faults`.
    pub fn cycles_lost(&self) -> u64 {
        self.wasted_cycles + self.backoff_cycles
    }
}

/// What happened to one flit at tile ingress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlitFault {
    /// Lost outright.
    Dropped,
    /// Corrupted in flight, detected by the link check, discarded.
    Corrupted,
}

const SALT_FAIL_PICK: u64 = 0xF1;
const SALT_FAIL_CYCLE: u64 = 0xF2;
const SALT_STALL: u64 = 0xF3;
const SALT_NOC: u64 = 0xF4;

/// splitmix64-style avalanche over a word sequence. Cheap, stateless,
/// and good enough to decorrelate (seed, site, time) draw points.
fn mix(parts: &[u64]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for &p in parts {
        h ^= p;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

/// Uniform draw in `[0, 1)` from a draw point.
fn draw(parts: &[u64]) -> f64 {
    (mix(parts) >> 11) as f64 / (1u64 << 53) as f64
}

/// The per-run fault schedule: a set of pure functions of
/// `(seed, site, time)` plus the precomputed fail-stop assignment.
/// Queries never mutate, so any component may consult it at any cycle
/// and all scheduler fast paths see identical faults.
#[derive(Debug)]
pub(crate) struct FaultSchedule {
    cfg: FaultsConfig,
    seed: u64,
    /// Per tile: the cycle it fail-stops, if it is a victim.
    fail_at: Vec<Option<u64>>,
    /// Stall length clamped to the epoch, so "inside a stall window"
    /// depends only on the current epoch.
    stall_dur: u64,
}

impl FaultSchedule {
    pub(crate) fn new(cfg: &FaultsConfig, seed: u64, tiles: usize) -> Self {
        let n_fail = if cfg.tile_fail_rate > 0.0 && tiles > 1 {
            ((cfg.tile_fail_rate * tiles as f64).ceil() as usize).min(tiles - 1)
        } else {
            0
        };
        let mut order: Vec<(u64, usize)> = (0..tiles)
            .map(|t| (mix(&[seed, SALT_FAIL_PICK, t as u64]), t))
            .collect();
        order.sort_unstable();
        let mut fail_at = vec![None; tiles];
        for &(_, t) in order.iter().take(n_fail) {
            let window = cfg.tile_fail_window.max(1);
            fail_at[t] = Some(1 + mix(&[seed, SALT_FAIL_CYCLE, t as u64]) % window);
        }
        FaultSchedule {
            stall_dur: cfg.tile_stall_cycles.min(cfg.tile_stall_epoch.max(1)),
            cfg: cfg.clone(),
            seed,
            fail_at,
        }
    }

    /// Recovery policy shorthand.
    pub(crate) fn recovery(&self) -> bool {
        self.cfg.recovery
    }

    pub(crate) fn config(&self) -> &FaultsConfig {
        &self.cfg
    }

    /// The cycle tile `t` fail-stops at, if it ever does.
    pub(crate) fn fail_at(&self, t: usize) -> Option<u64> {
        self.fail_at[t]
    }

    /// True once tile `t` has fail-stopped.
    pub(crate) fn tile_failed(&self, t: usize, now: u64) -> bool {
        self.fail_at[t].is_some_and(|c| now >= c)
    }

    /// The stall epoch containing `now`.
    pub(crate) fn stall_epoch(&self, now: u64) -> u64 {
        now / self.cfg.tile_stall_epoch.max(1)
    }

    /// True while tile `t` is inside a transient stall window.
    pub(crate) fn tile_stalled(&self, t: usize, now: u64) -> bool {
        if self.cfg.tile_stall_rate <= 0.0 || self.stall_dur == 0 {
            return false;
        }
        let epoch_len = self.cfg.tile_stall_epoch.max(1);
        let epoch = now / epoch_len;
        now - epoch * epoch_len < self.stall_dur
            && draw(&[self.seed, SALT_STALL, t as u64, epoch]) < self.cfg.tile_stall_rate
    }

    /// True while tile `t` is not executing: fail-stopped or inside a
    /// transient stall.
    pub(crate) fn tile_down(&self, t: usize, now: u64) -> bool {
        self.tile_failed(t, now) || self.tile_stalled(t, now)
    }

    /// Earliest cycle strictly after `now` at which tile `t`'s
    /// up/down status *could* change, or `None` when no transition is
    /// pending. Used by the event-driven scheduler to bound how far a
    /// tile (or a machine-level jump) may fast-forward without risking
    /// skipping a fail-stop or a stall-window edge.
    ///
    /// Deliberately conservative: for transient stalls it returns the
    /// next window boundary (window end inside a window, next epoch
    /// start outside one) regardless of whether the per-epoch draw will
    /// actually stall the tile — an earlier bound only forces an extra
    /// dense evaluation, never an incorrect skip.
    pub(crate) fn next_tile_transition(&self, t: usize, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        if let Some(c) = self.fail_at[t] {
            if c > now {
                next = Some(c);
            }
        }
        if self.cfg.tile_stall_rate > 0.0 && self.stall_dur > 0 {
            let epoch_len = self.cfg.tile_stall_epoch.max(1);
            let epoch = now / epoch_len;
            let window_end = epoch * epoch_len + self.stall_dur;
            let boundary = if now < window_end {
                window_end
            } else {
                (epoch + 1) * epoch_len
            };
            next = Some(next.map_or(boundary, |n| n.min(boundary)));
        }
        next
    }

    /// Fate of the `seq`-th flit ever ejected at mesh node `node`.
    pub(crate) fn flit_fault(&self, node: usize, seq: u64) -> Option<FlitFault> {
        if self.cfg.noc_drop_rate <= 0.0 {
            return None;
        }
        if let Some(v) = self.cfg.noc_victim_node {
            if node != v {
                return None;
            }
        }
        let h = mix(&[self.seed, SALT_NOC, node as u64, seq]);
        if (h >> 11) as f64 / ((1u64 << 53) as f64) < self.cfg.noc_drop_rate {
            Some(if h & 1 == 0 {
                FlitFault::Dropped
            } else {
                FlitFault::Corrupted
            })
        } else {
            None
        }
    }

    /// Tiles that fail-stopped within `cycles` — a pure enumeration, so
    /// the count is identical whichever fast paths ran.
    pub(crate) fn count_fail_stops(&self, cycles: u64) -> u64 {
        self.fail_at
            .iter()
            .filter(|c| c.is_some_and(|c| c <= cycles))
            .count() as u64
    }

    /// Stall windows that began within `cycles` on tiles that had not
    /// yet fail-stopped — again a pure enumeration over epochs.
    pub(crate) fn count_stalls(&self, cycles: u64) -> u64 {
        if self.cfg.tile_stall_rate <= 0.0 || self.stall_dur == 0 {
            return 0;
        }
        let epoch_len = self.cfg.tile_stall_epoch.max(1);
        let mut n = 0;
        for t in 0..self.fail_at.len() {
            let horizon = self.fail_at[t].unwrap_or(u64::MAX).min(cycles);
            let mut start = 0u64;
            let mut epoch = 0u64;
            while start < horizon {
                if draw(&[self.seed, SALT_STALL, t as u64, epoch]) < self.cfg.tile_stall_rate {
                    n += 1;
                }
                epoch += 1;
                start = epoch * epoch_len;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_by_default() {
        let f = FaultsConfig::none();
        assert!(!f.is_active());
        f.validate();
        assert_eq!(f, FaultsConfig::default());
    }

    #[test]
    fn chaos_is_active_and_valid() {
        let f = FaultsConfig::chaos();
        assert!(f.is_active());
        assert!(f.recovery);
        f.validate();
    }

    #[test]
    fn schedule_is_seed_deterministic() {
        let f = FaultsConfig::chaos();
        let a = FaultSchedule::new(&f, 42, 8);
        let b = FaultSchedule::new(&f, 42, 8);
        let c = FaultSchedule::new(&f, 43, 8);
        assert_eq!(a.fail_at, b.fail_at);
        for t in 0..8 {
            for now in [0, 100, 5000, 60_000] {
                assert_eq!(a.tile_down(t, now), b.tile_down(t, now));
            }
        }
        // a different seed moves at least one fail cycle
        assert_ne!(a.fail_at, c.fail_at);
    }

    #[test]
    fn at_least_one_tile_survives() {
        let mut f = FaultsConfig::none();
        f.tile_fail_rate = 1.0;
        for tiles in [1, 2, 4, 8] {
            let s = FaultSchedule::new(&f, 7, tiles);
            let alive = (0..tiles).filter(|&t| !s.tile_failed(t, u64::MAX)).count();
            assert!(alive >= 1, "{tiles} tiles: no survivor");
            if tiles > 1 {
                assert_eq!(alive, 1);
            }
        }
    }

    #[test]
    fn fail_counts_match_pure_enumeration() {
        let mut f = FaultsConfig::none();
        f.tile_fail_rate = 0.5;
        f.tile_stall_rate = 0.3;
        let s = FaultSchedule::new(&f, 11, 8);
        assert_eq!(s.count_fail_stops(0), 0);
        let all = s.count_fail_stops(u64::MAX);
        assert_eq!(all, 4);
        // stalls: windows begin at epoch starts only
        let one_epoch = s.count_stalls(f.tile_stall_epoch);
        let two_epochs = s.count_stalls(2 * f.tile_stall_epoch);
        assert!(two_epochs >= one_epoch);
    }

    #[test]
    fn flit_faults_respect_victim_filter() {
        let mut f = FaultsConfig::none();
        f.noc_drop_rate = 0.5;
        f.noc_victim_node = Some(3);
        let s = FaultSchedule::new(&f, 5, 8);
        assert!((0..10_000u64).all(|seq| s.flit_fault(2, seq).is_none()));
        assert!((0..10_000u64).any(|seq| s.flit_fault(3, seq).is_some()));
    }

    #[test]
    fn report_rollups() {
        let r = FaultReport {
            tile_fail_stops: 1,
            tile_stalls: 2,
            noc_flits_dropped: 3,
            noc_flits_corrupted: 1,
            dram_retries: 5,
            watchdog_fires: 2,
            tasks_redispatched: 4,
            pipe_replays: 1,
            backoff_cycles: 100,
            wasted_cycles: 900,
        };
        assert_eq!(r.injected(), 12);
        assert_eq!(r.detected(), 8);
        assert_eq!(r.recovered(), 4);
        assert_eq!(r.cycles_lost(), 1000);
        assert_eq!(FaultReport::default().injected(), 0);
    }
}
