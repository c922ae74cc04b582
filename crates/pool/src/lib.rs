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
//! - A process-global thread-count configuration ([`configure`]) that
//!   the vendored `rayon` stand-in exposes as
//!   `ThreadPoolBuilder::build_global`: reconfiguration *drains* —
//!   it waits for in-flight scopes to finish, then swaps the count —
//!   so repeated calls are safe and later scopes see the new width.
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

    #[test]
    fn configure_swaps_width_and_zero_means_auto() {
        // Serialize against other tests that touch the global gate.
        configure(3);
        assert_eq!(current_threads(), 3);
        configure(0);
        assert!(current_threads() >= 1);
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
