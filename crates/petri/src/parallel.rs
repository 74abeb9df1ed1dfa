//! How many threads may work on independent jobs at once.
//!
//! Every single query of the crate — reachability, coverability,
//! Karp–Miller, a resume — runs on one thread: the breadth-first fixpoints
//! number their discoveries in scan order, and splitting one scan over
//! workers cost more in coordination than it saved. Cores are spent where
//! the work is independent instead: across the jobs of one round in
//! [`Batch`](crate::batch::Batch)'s runner, and across inputs in
//! `pp_population::verify`. [`Parallelism`] is the knob for those runners:
//!
//! * [`Parallelism::Sequential`] — the calling thread runs every job.
//! * [`Parallelism::Parallel`]`(n)` — up to `n` threads (the calling thread
//!   included) claim independent jobs; `Parallel(1)` behaves like
//!   `Sequential`.
//!
//! Results never depend on the choice. [`Parallelism::auto`] picks
//! `Parallel(available_parallelism)` on multi-core hosts and `Sequential`
//! on single-core ones; the `PP_PETRI_THREADS` environment variable
//! overrides the detected count: `0` forces `Sequential`, `n ≥ 1` forces
//! `Parallel(n)`, and anything that does not parse as an integer (after
//! trimming whitespace) falls back to hardware detection.

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
    /// The `PP_PETRI_THREADS` environment variable overrides detection:
    /// `0` forces `Sequential`, a positive integer `n` forces
    /// `Parallel(n)`, and a value that does not parse as an integer falls
    /// back to hardware detection.
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

    /// The number of threads (1 for the sequential mode).
    #[must_use]
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Parallel(n) => n.max(1),
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
