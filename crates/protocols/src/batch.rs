//! The catalog as a batch workload.
//!
//! The batch service layer (`pp_petri::batch`, fronted for protocols by
//! `pp_statecomplexity::batch`) wants realistic multi-net job fleets;
//! the catalog *is* one. This module turns [`catalog::all`] into job
//! lists and runs the whole catalog as a single batch — the entry point
//! behind the `batch_analysis` example.
//!
//! ```
//! use pp_petri::Parallelism;
//!
//! // The full catalog for n = 2, every protocol explored from 4 agents,
//! // as one batch on one runner thread.
//! let report = pp_protocols::batch::run_catalog(2, 4, None, Parallelism::Sequential);
//! assert!(report.jobs.len() >= 6);
//! assert!(report.all_complete());
//! ```

use crate::catalog;
use pp_multiset::Multiset;
use pp_petri::batch::{Batch, BatchJob, BatchReport};
use pp_petri::{ExplorationLimits, Parallelism};
use pp_population::{Protocol, StateId};

/// The initial configuration `ρ_L + agents` input agents, spread as
/// evenly as possible over the protocol's initial states (in state-id
/// order, earlier states taking the remainder) — the single-initial-state
/// case degenerates to [`Protocol::initial_config_with_count`].
#[must_use]
pub fn spread_input(protocol: &Protocol, agents: u64) -> Multiset<StateId> {
    let initials: Vec<StateId> = protocol.initial_states().iter().copied().collect();
    let k = initials.len() as u64;
    let mut config = protocol.leaders().clone();
    for (rank, &state) in initials.iter().enumerate() {
        let share = agents / k + u64::from((rank as u64) < agents % k);
        if share > 0 {
            config.add_to(state, share);
        }
    }
    config
}

/// One reachability job per entry of [`catalog::all`]`(n)`: the entry's
/// protocol explored from `ρ_L +` `agents` input agents
/// ([`spread_input`]) under `limits`.
///
/// Entries sharing a net (none do today, but job lists may be
/// concatenated across thresholds) deduplicate inside the batch runner.
///
/// # Panics
///
/// Panics if `n` is zero.
#[must_use]
pub fn catalog_jobs(n: u64, agents: u64, limits: ExplorationLimits) -> Vec<BatchJob<StateId>> {
    catalog::all(n)
        .into_iter()
        .map(|entry| {
            let initial = spread_input(&entry.protocol, agents);
            BatchJob::reachability(
                format!("{}(n={n})[{agents}]", entry.family),
                entry.protocol.net().clone(),
                [initial],
            )
            .limits(limits)
        })
        .collect()
}

/// Runs the full catalog for threshold `n` as one batch: one reachability
/// job per entry at `agents` agents, optionally under a shared budget
/// `pool`, with the given runner [`Parallelism`].
///
/// Every job's result is bit-identical to a solo run at its final budget
/// (the batch layer's determinism contract, checked on the catalog by
/// `tests/batch_fairness.rs`).
///
/// # Panics
///
/// Panics if `n` is zero.
#[must_use]
pub fn run_catalog(
    n: u64,
    agents: u64,
    pool: Option<usize>,
    parallelism: Parallelism,
) -> BatchReport<StateId> {
    let mut batch = Batch::new()
        .jobs(catalog_jobs(n, agents, ExplorationLimits::default()))
        .parallelism(parallelism);
    if let Some(tokens) = pool {
        batch = batch.pool(tokens);
    }
    batch.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_catalog_runs_as_one_batch() {
        let report = run_catalog(2, 4, None, Parallelism::Sequential);
        assert_eq!(report.jobs.len(), catalog::all(2).len());
        assert!(report.all_complete());
        // Protocols are distinct, but two entries may share an id-identical
        // net (state ids are per-protocol), in which case the batch layer
        // legitimately dedups the compile.
        assert!(report.distinct_nets >= report.jobs.len() - 1);
        for job in &report.jobs {
            assert!(job.outcome.as_reachability().is_some(), "{}", job.name);
            assert!(job.explored > 0, "{}", job.name);
        }
    }

    #[test]
    fn a_pooled_catalog_batch_is_deterministic_across_runners() {
        let pool = Some(200);
        let sequential = run_catalog(2, 6, pool, Parallelism::Sequential);
        let parallel = run_catalog(2, 6, pool, Parallelism::Parallel(3));
        for (s, p) in sequential.jobs.iter().zip(&parallel.jobs) {
            assert_eq!(s.final_limits, p.final_limits, "{}", s.name);
            let (a, b) = (
                s.outcome.as_reachability().unwrap(),
                p.outcome.as_reachability().unwrap(),
            );
            assert!(a.identical_to(b), "{}", s.name);
        }
    }
}
