//! Per-tile scratchpad model.

use crate::storage::Storage;
use ts_sim::TokenBucket;

/// A tile-local software-managed scratchpad.
///
/// Scratchpads are one-cycle SRAM with a private per-tile bandwidth
/// budget: the tile's stream engines call [`Spad::begin_cycle`] once per
/// cycle and then [`Spad::try_charge`] per access (or
/// [`Spad::charge_up_to`] for a batch) until the budget runs out. The
/// functional reads and writes go through [`Spad::storage`],
/// so the budget meters timing and [`Spad::access_count`] feeds the
/// energy model.
///
/// # Examples
///
/// ```
/// use ts_mem::Spad;
///
/// let mut spad = Spad::new(64, 2.0); // 64 words, 2 accesses/cycle
/// spad.begin_cycle();
/// assert!(spad.try_charge());
/// assert!(spad.try_charge());
/// assert!(!spad.try_charge()); // out of bandwidth this cycle
/// assert_eq!(spad.access_count(), 2);
/// ```
#[derive(Debug)]
pub struct Spad {
    storage: Storage,
    bw: TokenBucket,
    accesses: u64,
}

impl Spad {
    /// Creates a scratchpad with `words` capacity and `accesses_per_cycle`
    /// bandwidth.
    pub fn new(words: usize, accesses_per_cycle: f64) -> Self {
        Spad {
            storage: Storage::new(words),
            bw: TokenBucket::per_cycle(accesses_per_cycle),
            accesses: 0,
        }
    }

    /// Functional access (no bandwidth charge) — for preloading images
    /// and validation.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Mutable functional access (no bandwidth charge).
    pub fn storage_mut(&mut self) -> &mut Storage {
        &mut self.storage
    }

    /// Refills this cycle's access budget.
    pub fn begin_cycle(&mut self) {
        self.bw.refill();
    }

    /// Fast-forwards `n` cycles in which no access is made — equivalent
    /// to `n` [`begin_cycle`](Spad::begin_cycle) calls with no
    /// intervening accesses.
    pub fn skip_cycles(&mut self, n: u64) {
        self.bw.refill_n(n);
    }

    /// Consumes one access of this cycle's budget, returning whether
    /// bandwidth remained. The access's functional effect is applied
    /// through [`storage`](Spad::storage) or elsewhere.
    pub fn try_charge(&mut self) -> bool {
        if self.bw.try_take() {
            self.accesses += 1;
            true
        } else {
            false
        }
    }

    /// Consumes up to `n` accesses of this cycle's budget, returning how
    /// many were granted: exactly as many as `n` calls to
    /// [`try_charge`](Spad::try_charge) would grant.
    pub fn charge_up_to(&mut self, n: u64) -> u64 {
        let granted = self.bw.take_up_to(n);
        self.accesses += granted;
        granted
    }

    /// Total metered accesses (reads and writes) since construction.
    pub fn access_count(&self) -> u64 {
        self.accesses
    }

    /// Remaining access budget in the current cycle.
    pub fn budget(&self) -> u64 {
        self.bw.available()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_limits_accesses_per_cycle() {
        let mut s = Spad::new(16, 2.0);
        s.begin_cycle();
        assert!(s.try_charge());
        assert!(s.try_charge());
        assert!(!s.try_charge());
        s.begin_cycle();
        assert!(s.try_charge());
        assert_eq!(s.access_count(), 3, "a refused access is not counted");
    }

    #[test]
    fn charge_up_to_matches_repeated_try_charge() {
        for want in 0..6 {
            let (mut bulk, mut single) = (Spad::new(16, 2.5), Spad::new(16, 2.5));
            for _ in 0..3 {
                bulk.begin_cycle();
                single.begin_cycle();
                let granted = bulk.charge_up_to(want);
                let expected = (0..want).filter(|_| single.try_charge()).count() as u64;
                assert_eq!(granted, expected, "want {want}");
                assert_eq!(bulk.budget(), single.budget());
                assert_eq!(bulk.access_count(), single.access_count());
            }
        }
    }

    #[test]
    fn functional_access_is_free() {
        let mut s = Spad::new(16, 1.0);
        s.storage_mut().load_shared(0, &vec![9, 8, 7].into());
        assert_eq!(s.storage().read(1), 8);
        assert_eq!(s.access_count(), 0);
    }
}
