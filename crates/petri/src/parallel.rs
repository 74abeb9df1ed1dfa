//! The parallelism knob of the state-space engine.
//!
//! The forward fixpoints of the suite (exploration and Karp–Miller
//! construction) take a [`Parallelism`] describing how many OS threads may
//! cooperate on one build; backward coverability saturation has one
//! sequential path and does not take it. Results are *identical*
//! across modes and worker counts — the parallel paths renumber or merge
//! deterministically — so the knob is purely a performance choice:
//!
//! * [`Parallelism::Sequential`] — the classic single-threaded loops. The
//!   right choice for small inputs, where thread coordination would cost
//!   more than it saves, and for callers that already parallelize at a
//!   coarser grain (e.g. `pp_population::verify` fanning out over inputs).
//! * [`Parallelism::Parallel`]`(n)` — the sharded level-synchronous engine
//!   with `n` cooperating workers (the calling thread included).
//!   `Parallel(1)` spawns no worker, so it never promotes a level to the
//!   pipelined regime: every level runs the direct regime, one fused
//!   sequential step per frontier. The single-thread CI job pins it via
//!   `PP_PETRI_THREADS=1`.
//!
//! [`Parallelism::auto`] picks `Parallel(available_parallelism)` on
//! multi-core hosts and `Sequential` on single-core ones; the
//! `PP_PETRI_THREADS` environment variable overrides the detected count:
//! `0` forces `Sequential`, `n ≥ 1` forces `Parallel(n)`, and anything
//! that does not parse as an integer (after trimming whitespace) falls
//! back to hardware detection.

/// How many threads a state-space fixpoint may use.
///
/// See the [module documentation](self) for the semantics; the result of
/// every build is independent of the chosen mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Single-threaded classic path (no sharding, no coordination).
    Sequential,
    /// Sharded level-synchronous path with this many cooperating workers,
    /// the calling thread included. Values below 1 behave like 1.
    Parallel(usize),
}

impl Parallelism {
    /// Auto-detected parallelism: `Parallel(n)` for `n` available hardware
    /// threads (at least 2), [`Sequential`](Self::Sequential) otherwise.
    ///
    /// The `PP_PETRI_THREADS` environment variable overrides detection:
    /// `0` forces `Sequential` (the classic loops, no sharding at all),
    /// a positive integer `n` forces `Parallel(n)` —
    /// `PP_PETRI_THREADS=1` is the spawn-free direct regime used by the
    /// single-thread CI job — and a value that does not parse as an
    /// integer falls back to hardware detection.
    #[must_use]
    pub fn auto() -> Self {
        if let Some(parallelism) = crate::gates::read(crate::gates::PP_PETRI_THREADS)
            .and_then(|value| Self::from_env_value(&value))
        {
            return parallelism;
        }
        let n = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        if n <= 1 {
            Parallelism::Sequential
        } else {
            Parallelism::Parallel(n)
        }
    }

    /// Parses a `PP_PETRI_THREADS` value: `Some(Sequential)` for `0`,
    /// `Some(Parallel(n))` for a positive integer (surrounding whitespace
    /// tolerated), `None` for anything else — including the empty string —
    /// so [`auto`](Self::auto) falls back to hardware detection instead of
    /// silently ignoring the knob's intent.
    #[must_use]
    pub fn from_env_value(value: &str) -> Option<Self> {
        match value.trim().parse::<usize>() {
            Ok(0) => Some(Parallelism::Sequential),
            Ok(n) => Some(Parallelism::Parallel(n)),
            Err(_) => None,
        }
    }

    /// The number of cooperating workers (1 for the sequential mode).
    #[must_use]
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Parallel(n) => n.max(1),
        }
    }

    /// Returns `true` if the sharded level-synchronous path is requested
    /// (even with a single worker).
    #[must_use]
    pub fn is_parallel(self) -> bool {
        matches!(self, Parallelism::Parallel(_))
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
        assert!(!Parallelism::Sequential.is_parallel());
        assert!(Parallelism::Parallel(1).is_parallel());
        assert!(Parallelism::auto().workers() >= 1);
    }

    #[test]
    fn env_value_zero_means_sequential() {
        assert_eq!(
            Parallelism::from_env_value("0"),
            Some(Parallelism::Sequential)
        );
        assert_eq!(
            Parallelism::from_env_value(" 0\t"),
            Some(Parallelism::Sequential)
        );
    }

    #[test]
    fn env_value_positive_means_parallel() {
        assert_eq!(
            Parallelism::from_env_value("1"),
            Some(Parallelism::Parallel(1))
        );
        assert_eq!(
            Parallelism::from_env_value("  3 "),
            Some(Parallelism::Parallel(3))
        );
        assert_eq!(
            Parallelism::from_env_value("16"),
            Some(Parallelism::Parallel(16))
        );
    }

    #[test]
    fn env_value_garbage_falls_back_to_detection() {
        for garbage in ["", "   ", "two", "-1", "3.5", "0x4", "1 2"] {
            assert_eq!(Parallelism::from_env_value(garbage), None, "{garbage:?}");
        }
    }
}
