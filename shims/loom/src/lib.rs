//! Offline shim for the `loom` model checker (see shims/README.md).
//!
//! The real loom exhaustively explores thread interleavings of a bounded
//! concurrent program. This environment cannot download crates, so this
//! shim implements the same *API* as a **bounded seeded stress model**:
//! [`model`] runs the closure many times over real OS threads, and
//! [`thread::yield_now`] (also injected at spawn boundaries) perturbs
//! the schedule differently on every iteration using a deterministic
//! per-iteration seed. This explores many — not all — interleavings;
//! tests written against it remain valid loom models and get exhaustive
//! checking the day the real crate is swapped back in (a one-line diff
//! in the root manifest).
//!
//! `LOOM_MAX_ITER` overrides the iteration count (default 64).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Seed for the current [`model`] iteration; `0` = perturbation off
/// (outside a model run).
static ITER_SEED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread schedule-perturbation RNG state.
    static RNG: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` repeatedly (default 64 iterations, `LOOM_MAX_ITER`
/// overrides), perturbing the thread schedule differently each time.
/// Panics from `f` propagate, failing the test on the iteration that
/// exposed the bug.
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    let iters: u64 = std::env::var("LOOM_MAX_ITER")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    for i in 0..iters.max(1) {
        // Odd seeds only so the xorshift state is never zero.
        ITER_SEED.store(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1, Ordering::SeqCst);
        seed_thread();
        f();
    }
    ITER_SEED.store(0, Ordering::SeqCst);
}

/// (Re)seeds the calling thread's perturbation RNG from the iteration
/// seed and the thread identity.
fn seed_thread() {
    let base = ITER_SEED.load(Ordering::SeqCst);
    if base == 0 {
        RNG.with(|r| r.set(0));
        return;
    }
    let tid = {
        use std::hash::BuildHasher;
        std::hash::RandomState::new().hash_one(std::thread::current().id())
    };
    RNG.with(|r| r.set((base ^ tid) | 1));
}

/// One xorshift64 step; returns the new state (never 0 once seeded).
fn next_rand() -> u64 {
    RNG.with(|r| {
        let mut x = r.get();
        if x == 0 {
            return 0;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        r.set(x);
        x
    })
}

/// Thread primitives with schedule perturbation.
pub mod thread {
    pub use std::thread::JoinHandle;

    /// Spawns a real thread; the child is seeded for perturbation and
    /// starts with a randomized yield so spawn order alone does not fix
    /// the schedule.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        std::thread::spawn(move || {
            super::seed_thread();
            yield_now();
            f()
        })
    }

    /// Perturbation point: depending on the iteration seed, does
    /// nothing, yields, or parks briefly — shuffling which thread wins
    /// the next race.
    pub fn yield_now() {
        match super::next_rand() % 4 {
            0 => {}
            1 | 2 => std::thread::yield_now(),
            _ => std::thread::sleep(std::time::Duration::from_nanos(200)),
        }
    }
}

/// Synchronization primitives (std re-exports; perturbation happens at
/// the [`thread::yield_now`] points the model under test places).
pub mod sync {
    #[allow(
        clippy::disallowed_types,
        reason = "loom's API names std's locks; models run outside lock::Rank"
    )]
    pub use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};

    pub mod atomic {
        pub use std::sync::atomic::{
            fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering,
        };
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn model_runs_and_perturbs() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static RUNS: AtomicU64 = AtomicU64::new(0);
        super::model(|| {
            RUNS.fetch_add(1, Ordering::SeqCst);
            let h = super::thread::spawn(|| {
                super::thread::yield_now();
                7
            });
            assert_eq!(h.join().ok(), Some(7));
        });
        assert!(RUNS.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn iteration_count_from_env_shape() {
        // Not asserting on the env var itself (tests run in parallel);
        // just exercise the default path.
        static RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        super::model(|| {
            RUNS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        assert!(RUNS.load(std::sync::atomic::Ordering::SeqCst) >= 1);
    }
}
