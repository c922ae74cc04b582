//! `ts-pool` — the host-side parallel map behind the sweep harness.
//!
//! A sweep is one flat, ordered list of independent simulation jobs
//! whose durations vary by more than an order of magnitude, and no job
//! spawns another. A static split would leave every worker idling
//! behind the one that drew the stragglers; instead, [`map`] keeps the
//! list in one shared queue and each idle worker claims the next item,
//! in input order, so the work balances itself without per-worker
//! deques or stealing. This is the host-side mirror of the paper's own
//! thesis: exploit the structure you can recover (here, a flat list)
//! rather than pay for generality nobody uses.
//!
//! - [`map`]: an order-preserving parallel map at the configured
//!   width — the sweep harness's one entry point.
//! - [`configure`] / [`current_threads`]: the process-global width.
//! - [`PoolStats`] / [`pool_stats`]: kept for callers that record
//!   host counters; a shared queue neither steals nor parks, so both
//!   fields always read 0.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// Process-global pool width (`0` = one worker per available core).
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-global pool width used by [`current_threads`]
/// (`0` restores the default: one worker per available core).
///
/// [`map`] reads the width once on entry, so a call in flight finishes
/// at the width it started with and the next call sees the new one.
pub fn configure(threads: usize) {
    THREADS.store(threads, Relaxed);
}

/// The configured pool width, with `0` resolved to the number of
/// available cores (at least 1).
pub fn current_threads() -> usize {
    match THREADS.load(Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Order-preserving parallel map at the configured width
/// ([`current_threads`]). The items sit in one shared queue; each of
/// `min(width, items)` scoped workers claims the next item in input
/// order whenever it is idle, so a long item never holds up the short
/// ones queued behind it. The output is in input order whichever
/// worker ran which item. With one thread (or one item) it maps in
/// place, spawning nothing.
///
/// If an item panics, no worker starts another item, the items not yet
/// started are dropped unrun, every worker is joined, and the panicking
/// item's own payload resumes on the caller.
///
/// # Examples
///
/// ```
/// let squares = ts_pool::map(0..100u64, |x| x * x);
/// assert_eq!(squares[9], 81);
/// ```
pub fn map<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let items: Vec<T> = items.into_iter().collect();
    let threads = current_threads().min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let failed = AtomicBool::new(false);
    let work = || {
        let mut done = Vec::new();
        while !failed.load(Relaxed) {
            // the guard is a temporary, so the lock is released before `f` runs
            let Some((i, item)) = queue.lock().expect("job queue poisoned").next() else {
                break;
            };
            match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(out) => done.push((i, out)),
                Err(payload) => {
                    failed.store(true, Relaxed);
                    resume_unwind(payload);
                }
            }
        }
        done
    };
    let mut results = Vec::new();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(work)).collect();
        // Join explicitly: a worker's own panic payload only survives
        // through its handle (an unjoined panicking scoped thread makes
        // `thread::scope` raise a generic panic of its own instead).
        let mut panic = None;
        for worker in workers {
            match worker.join() {
                Ok(done) => results.extend(done),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, out)| out).collect()
}

/// Cumulative host-pool counters since process start.
///
/// Both fields always read 0: [`map`]'s shared queue has no deques to
/// steal from and no idle workers to park. The struct stays because
/// the repository benchmark still records the two counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks taken from another worker's deque (always 0).
    pub steals: u64,
    /// Times a worker went to sleep after a fruitless search (always 0).
    pub parks: u64,
}

/// Current [`PoolStats`] snapshot (all zero; see [`PoolStats`]).
pub fn pool_stats() -> PoolStats {
    PoolStats::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    /// Serializes tests that set the global width (the test harness
    /// runs tests concurrently).
    static WIDTH_LOCK: Mutex<()> = Mutex::new(());

    fn lock_width() -> std::sync::MutexGuard<'static, ()> {
        WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn configure_swaps_width_and_zero_means_auto() {
        let _guard = lock_width();
        configure(3);
        assert_eq!(current_threads(), 3);
        configure(0);
        assert!(current_threads() >= 1);
    }

    #[test]
    fn map_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        assert_eq!(
            map(v.clone(), |x| x * 2),
            (0..1000).map(|x| x * 2).collect::<Vec<_>>()
        );
        assert_eq!(map(&v, |&x| x + 1), (1..1001).collect::<Vec<_>>());
    }

    #[test]
    fn map_at_width_one_runs_in_place() {
        let _guard = lock_width();
        configure(1);
        assert_eq!(current_threads(), 1);
        let caller = std::thread::current().id();
        let out = map(vec![3u32, 1, 4], |x| {
            assert_eq!(std::thread::current().id(), caller);
            x * 10
        });
        assert_eq!(out, vec![30, 10, 40]);
        configure(0);
    }

    #[test]
    fn parallel_map_runs_every_job_once() {
        let _guard = lock_width();
        configure(4);
        let counter = AtomicUsize::new(0);
        let out = map(0..257, |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 257);
        assert_eq!(out, (0..257).collect::<Vec<_>>());
        configure(0);
    }

    #[test]
    fn repeated_configure_takes_effect_at_the_next_map() {
        let _guard = lock_width();
        // Flip the width back and forth around real parallel work;
        // every call must complete fully at *some* width and results
        // must stay order-preserving throughout.
        for n in [1usize, 8, 2, 8, 1] {
            configure(n);
            assert_eq!(current_threads(), n);
            assert_eq!(
                map(0..97, |x| x * 3),
                (0..97).map(|x| x * 3).collect::<Vec<_>>()
            );
        }
        configure(0);
    }

    #[test]
    fn a_panicking_item_resumes_its_own_payload_on_the_caller() {
        let _guard = lock_width();
        configure(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map(0..64u32, |x| {
                if x == 3 {
                    panic!("item {x} failed");
                }
                x
            })
        }));
        configure(0);
        let payload = caught.expect_err("the panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .expect("the item's own String payload");
        assert_eq!(msg, "item 3 failed");
    }
}
