//! The catalog as a batch workload.
//!
//! The batch service layer (`pp_petri::batch`) wants realistic multi-net
//! job fleets; the catalog *is* one. This module turns [`catalog::all`]
//! into job lists, with every protocol's net taken from
//! [`Protocol::net`] as is.
//!
//! ```
//! use pp_petri::{Batch, ExplorationLimits};
//! use pp_protocols::batch::catalog_jobs;
//!
//! // The full catalog for n = 2, every protocol explored from 4 agents,
//! // as one batch on one runner thread.
//! let report = Batch::new()
//!     .jobs(catalog_jobs(2, 4, ExplorationLimits::default()))
//!     .run();
//! assert!(report.jobs.len() >= 6);
//! assert!(report.all_complete());
//! ```

use crate::catalog;
use pp_multiset::Multiset;
use pp_petri::batch::BatchJob;
use pp_petri::ExplorationLimits;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaders_n::example_4_2;
    use pp_petri::{Batch, Parallelism};

    #[test]
    fn the_catalog_runs_as_one_batch() {
        let report = Batch::new()
            .jobs(catalog_jobs(2, 4, ExplorationLimits::default()))
            .run();
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
        let run = |parallelism| {
            Batch::new()
                .jobs(catalog_jobs(2, 6, ExplorationLimits::default()))
                .parallelism(parallelism)
                .run()
        };
        let sequential = run(Parallelism::Sequential);
        let parallel = run(Parallelism::Parallel(3));
        for (s, p) in sequential.jobs.iter().zip(&parallel.jobs) {
            assert_eq!(s.explored, p.explored, "{}", s.name);
            let (a, b) = (
                s.outcome.as_reachability().unwrap(),
                p.outcome.as_reachability().unwrap(),
            );
            assert!(a.identical_to(b), "{}", s.name);
        }
    }

    #[test]
    fn a_mixed_protocol_batch_reports_every_shape() {
        let protocol = example_4_2(1);
        let net = protocol.net().clone();
        let i = protocol.state_id("i").unwrap();
        let p = protocol.state_id("p").unwrap();
        let q = protocol.state_id("q").unwrap();
        let report = Batch::new()
            .job(BatchJob::reachability(
                "reach",
                net.clone(),
                [protocol.initial_config_with_count(3)],
            ))
            .job(BatchJob::coverability(
                "cover",
                net.clone(),
                Multiset::from_pairs([(p, 1u64), (q, 1)]),
            ))
            .job(
                BatchJob::karp_miller("km", net.clone(), protocol.initial_config_with_count(2))
                    .limits(ExplorationLimits::with_max_configurations(10_000)),
            )
            .job(BatchJob::covering_word(
                "word",
                net,
                protocol.initial_config_with_count(2),
                Multiset::unit(p),
            ))
            .run();
        assert_eq!(report.jobs.len(), 4);
        assert_eq!(report.distinct_nets, 1, "one compile for the whole batch");
        assert_eq!(report.compile_cache_hits, 3);
        assert!(report.all_complete());
        let reach = report.job("reach").unwrap();
        assert!(reach.outcome.as_reachability().unwrap().len() > 1);
        let km = report.job("km").unwrap();
        assert!(km.outcome.as_karp_miller().unwrap().place_is_bounded(&i));
    }
}
