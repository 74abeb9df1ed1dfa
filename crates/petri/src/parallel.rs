//! How many threads may work on independent jobs at once.
//!
//! Every single query of the crate — reachability, coverability,
//! Karp–Miller, a resume — runs on one thread: the breadth-first fixpoints
//! number their discoveries in scan order, and splitting one scan over
//! workers cost more in coordination than it saved. Cores are spent where
//! the work is independent instead, and [`Parallelism::map`] is the one
//! fan-out that spends them: across the jobs of one round in
//! [`Batch`](crate::batch::Batch)'s runner, across inputs in
//! `pp_population::verify`, and across trials in `pp_sim`'s convergence
//! experiments. [`Parallelism`] says how many threads it may use:
//!
//! * [`Parallelism::Sequential`] — the calling thread runs every item.
//! * [`Parallelism::Parallel`]`(n)` — up to `n` threads (the calling thread
//!   included) claim independent items; `Parallel(1)` behaves like
//!   `Sequential`.
//!
//! Results never depend on the choice. [`Parallelism::auto`] picks
//! `Parallel(available_parallelism)` on multi-core hosts and `Sequential`
//! on single-core ones; a caller that wants another count passes the
//! [`Parallelism`] value itself, since the count is a parameter and no
//! environment variable overrides it.
//!
//! The module also holds [`Lock`], the one wrapper over the standard
//! library's lock types (the root `clippy.toml` bans them everywhere
//! else). The workspace has three locks — `map`'s queue below and the
//! analysis server's books and connection table — and none is ever
//! taken while another is held. In debug builds [`Lock`] checks that
//! rule on every acquisition, so a nested lock panics in the test suite
//! instead of waiting for a deadlock.

pub use lock::{Lock, LockGuard};

/// How many threads may work on independent jobs at once.
///
/// See the [module documentation](self) for the semantics; no result
/// depends on the chosen mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// The calling thread runs every job.
    Sequential,
    /// Up to this many threads, the calling thread included. Values below
    /// 1 behave like 1.
    Parallel(usize),
}

impl Parallelism {
    /// Auto-detected parallelism: `Parallel(n)` for `n` available hardware
    /// threads (at least 2), [`Sequential`](Self::Sequential) otherwise.
    ///
    /// The count is [`std::thread::available_parallelism`], which honours
    /// the process's CPU affinity and cgroup quota on Linux.
    #[must_use]
    pub fn auto() -> Self {
        let n = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        if n <= 1 {
            Parallelism::Sequential
        } else {
            Parallelism::Parallel(n)
        }
    }

    /// The number of threads (1 for the sequential mode).
    #[must_use]
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Parallel(n) => n.max(1),
        }
    }

    /// Maps `f` over `items` on up to [`workers`](Self::workers) threads and
    /// returns the results in input order.
    ///
    /// The calling thread is one of the workers, and each worker claims one
    /// item at a time, so one slow item never holds up a fixed share of the
    /// rest. No thread is spawned for a single worker or for at most one
    /// item. A panic in `f` is re-raised on the caller once every worker
    /// has stopped.
    pub fn map<T: Send, R: Send>(self, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
        let workers = self.workers().min(items.len());
        if workers <= 1 {
            return items.into_iter().map(f).collect();
        }
        let queue = Lock::new(items.into_iter().enumerate());
        // Captures only shared references, so it is `Copy`: every worker
        // runs its own copy of the same claiming loop.
        let work = || {
            let mut done = Vec::new();
            loop {
                // The guard is a temporary of this statement, so the queue
                // is unlocked before `f` runs and no panic can poison it.
                let next = queue
                    .lock()
                    .expect("the queue is never held across `f`")
                    .next();
                let Some((index, item)) = next else {
                    return done;
                };
                done.push((index, f(item)));
            }
        };
        let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut done = work();
            for handle in handles {
                let theirs = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                done.extend(theirs);
            }
            done
        });
        done.sort_unstable_by_key(|&(index, _)| index);
        done.into_iter().map(|(_, result)| result).collect()
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "the one wrapper over the std lock types: it checks that locks never nest"
)]
mod lock {
    use std::ops::{Deref, DerefMut};
    use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError};

    /// A mutex with a condition variable, for locks that are never
    /// nested.
    ///
    /// In debug builds every acquisition checks a per-thread "a lock is
    /// held" flag and panics if it is set: no thread ever takes a second
    /// lock while holding one, so no two threads can wait on each other.
    /// A [`wait_while`](Self::wait_while) keeps the flag set, since the
    /// thread holds the lock again when the wait returns. In release
    /// builds the wrapper is a plain pass-through.
    pub struct Lock<T> {
        mutex: Mutex<T>,
        changed: Condvar,
    }

    /// The guard of a [`Lock`]; the lock is released when it drops.
    pub struct LockGuard<'a, T> {
        guard: MutexGuard<'a, T>,
        _held: Held,
    }

    impl<T> Lock<T> {
        /// A lock around `value`.
        pub fn new(value: T) -> Self {
            Lock {
                mutex: Mutex::new(value),
                changed: Condvar::new(),
            }
        }

        /// Blocks until the lock is free and takes it. Like
        /// [`Mutex::lock`], the result is an error if a thread panicked
        /// while holding the lock.
        ///
        /// # Panics
        /// In debug builds, if the calling thread already holds a lock.
        pub fn lock(&self) -> LockResult<LockGuard<'_, T>> {
            let held = Held::take();
            wrap(self.mutex.lock(), held)
        }

        /// Releases the lock and sleeps until a
        /// [`notify_all`](Self::notify_all) finds `condition` false, then
        /// returns holding the lock again. Returns at once if `condition`
        /// is already false.
        pub fn wait_while<'a>(
            &'a self,
            guard: LockGuard<'a, T>,
            condition: impl FnMut(&mut T) -> bool,
        ) -> LockResult<LockGuard<'a, T>> {
            let LockGuard { guard, _held: held } = guard;
            wrap(self.changed.wait_while(guard, condition), held)
        }

        /// Wakes every thread parked in [`wait_while`](Self::wait_while).
        pub fn notify_all(&self) {
            self.changed.notify_all();
        }
    }

    fn wrap<T>(result: LockResult<MutexGuard<'_, T>>, held: Held) -> LockResult<LockGuard<'_, T>> {
        match result {
            Ok(guard) => Ok(LockGuard { guard, _held: held }),
            Err(poisoned) => Err(PoisonError::new(LockGuard {
                guard: poisoned.into_inner(),
                _held: held,
            })),
        }
    }

    impl<T> Deref for LockGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.guard
        }
    }

    impl<T> DerefMut for LockGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.guard
        }
    }

    /// The calling thread's claim on its one lock: set by
    /// [`Held::take`], cleared on drop (after the guard beside it has
    /// unlocked).
    struct Held;

    #[cfg(debug_assertions)]
    thread_local! {
        static HELD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    impl Held {
        fn take() -> Held {
            #[cfg(debug_assertions)]
            HELD.with(|held| {
                assert!(
                    !held.replace(true),
                    "a lock was taken while this thread holds another: locks never nest"
                );
            });
            Held
        }
    }

    #[cfg(debug_assertions)]
    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with(|held| held.set(false));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_are_at_least_one() {
        assert_eq!(Parallelism::Sequential.workers(), 1);
        assert_eq!(Parallelism::Parallel(0).workers(), 1);
        assert_eq!(Parallelism::Parallel(5).workers(), 5);
        assert!(Parallelism::auto().workers() >= 1);
    }

    const MODES: [Parallelism; 4] = [
        Parallelism::Sequential,
        Parallelism::Parallel(1),
        Parallelism::Parallel(3),
        Parallelism::Parallel(64),
    ];

    #[test]
    fn map_keeps_input_order_in_every_mode() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::time::{Duration, Instant};
        for parallelism in MODES {
            for len in [0u64, 1, 200] {
                // The first `workers` items wait until all of them have
                // started, so each runs on its own worker and every worker
                // hands back results of its own.
                let workers = parallelism.workers().min(len as usize) as u64;
                let started = AtomicU64::new(0);
                let deadline = Instant::now() + Duration::from_secs(10);
                let items: Vec<u64> = (0..len).collect();
                let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
                let mapped = parallelism.map(items, |x| {
                    if x < workers {
                        started.fetch_add(1, Ordering::SeqCst);
                        while started.load(Ordering::SeqCst) < workers {
                            assert!(
                                Instant::now() < deadline,
                                "{parallelism:?} did not run {workers} items at once"
                            );
                            std::thread::yield_now();
                        }
                    }
                    x * 3 + 1
                });
                assert_eq!(mapped, expected, "{parallelism:?} on {len} items");
            }
        }
    }

    #[test]
    fn map_calls_f_exactly_once_per_item() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for parallelism in MODES {
            let calls: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
            let indices: Vec<usize> = (0..calls.len()).collect();
            // relaxed: each counter is read only after `map` has joined
            // every worker, and the join orders those reads after the adds.
            let _ = parallelism.map(indices, |i| calls[i].fetch_add(1, Ordering::Relaxed));
            for (i, count) in calls.iter().enumerate() {
                // relaxed: see above; every worker has been joined.
                let count = count.load(Ordering::Relaxed);
                assert_eq!(count, 1, "{parallelism:?}: item {i} mapped {count} times");
            }
        }
    }

    #[test]
    #[should_panic(expected = "item 17")]
    fn map_reraises_a_panic_on_the_caller() {
        let items: Vec<usize> = (0..200).collect();
        let _ = Parallelism::Parallel(3).map(items, |i| {
            assert!(i != 17, "item 17");
            i
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "locks never nest")]
    fn taking_a_lock_while_holding_another_panics() {
        let (outer, inner) = (Lock::new(0), Lock::new(0));
        let _outer = outer.lock().expect("fresh lock");
        let _inner = inner.lock();
    }

    #[test]
    fn locks_taken_one_at_a_time_do_not_panic() {
        let (first, second) = (Lock::new(0), Lock::new(0));
        *first.lock().expect("fresh lock") += 1;
        *second.lock().expect("fresh lock") += 1;
        let guard = first.lock().expect("fresh lock");
        // A satisfied wait returns at once, still holding the lock.
        let guard = first.wait_while(guard, |n| *n == 0).expect("fresh lock");
        assert_eq!(*guard, 1);
        drop(guard);
        assert_eq!(*second.lock().expect("fresh lock"), 1);
    }
}
