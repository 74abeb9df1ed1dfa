//! Fairness of the batch layer's shared budget pool.
//!
//! The acceptance contract of `pp_petri::batch` (and the protocol front
//! door `pp_statecomplexity::batch`): under a shared token pool, every
//! job's final budget is a deterministic function of the job set and the
//! pool, and its result is **bit-identical** to a solo run at that final
//! budget — for the sequential and the parallel batch runner alike. The
//! property tests here drive a batch of N identical jobs (the fair-share
//! shape: everyone must end at the same grant, ±1 remainder token) and
//! mixed batches where completed jobs refund budget that still-running
//! jobs pick up; the catalog tests run protocol fleets, pooled and not.

use pp_multiset::Multiset;
use pp_petri::batch::{Batch, BatchJob, BatchQuery, BatchReport};
use pp_petri::{Analysis, ExplorationLimits, Parallelism, PetriNet, Transition};
use pp_population::StateId;
use pp_protocols::batch::catalog_jobs;
use pp_statecomplexity::batch::ProtocolBatch;
use proptest::prelude::*;

fn doubling_net() -> PetriNet<&'static str> {
    PetriNet::from_transitions([
        Transition::pairwise("a", "a", "a", "b"),
        Transition::pairwise("a", "b", "b", "b"),
    ])
}

fn ms(pairs: &[(&'static str, u64)]) -> Multiset<&'static str> {
    Multiset::from_pairs(pairs.iter().copied())
}

const RUNNERS: [Parallelism; 2] = [Parallelism::Sequential, Parallelism::Parallel(3)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // N identical jobs under a pool too small for all of them: each ends
    // at the deterministic fair share and its graph is `identical_to` a
    // solo run at its final budget, under both runner modes.
    #[test]
    fn identical_jobs_fair_share_matches_solo_runs(
        jobs in 2usize..5,
        agents in 6u64..12,
        pool_per_job in 2usize..7,
    ) {
        let net = doubling_net();
        let start = ms(&[("a", agents)]);
        let demand = ExplorationLimits::with_max_configurations(200);
        for runner in RUNNERS {
            let mut batch = Batch::new().pool(pool_per_job * jobs).parallelism(runner);
            for k in 0..jobs {
                batch = batch.job(
                    BatchJob::reachability(format!("job-{k}"), net.clone(), [start.clone()])
                        .limits(demand),
                );
            }
            let report = batch.run();
            prop_assert_eq!(report.jobs.len(), jobs);
            // One net, one compile.
            prop_assert_eq!(report.distinct_nets, 1);
            prop_assert_eq!(report.compile_cache_hits, jobs - 1);
            for job in &report.jobs {
                // Fair share: identical demands mean identical final
                // budgets (the pool divides evenly by construction).
                prop_assert!(
                    job.final_limits.max_configurations
                        == report.jobs[0].final_limits.max_configurations,
                    "{} diverged from the fair share under {:?}", job.name, runner
                );
                let solo = Analysis::new(&net)
                    .reachability([start.clone()])
                    .limits(job.final_limits)
                    .run();
                let graph = job.outcome.as_reachability().unwrap();
                prop_assert!(
                    graph.identical_to(&solo),
                    "{} != solo at {:?} under {:?}", job.name, job.final_limits, runner
                );
            }
        }
    }

    // Mixed batches: a small job that completes early refunds budget that
    // the pool redistributes — and every job, settled or truncated, still
    // matches a solo run at its final budget under both runners.
    #[test]
    fn redistributed_budgets_still_match_solo_runs(
        small_agents in 2u64..5,
        big_agents in 20u64..40,
        pool in 10usize..40,
    ) {
        let net = doubling_net();
        let demand = ExplorationLimits::with_max_configurations(100);
        let starts = [ms(&[("a", small_agents)]), ms(&[("a", big_agents)])];
        let mut finals: Option<Vec<ExplorationLimits>> = None;
        for runner in RUNNERS {
            let mut batch = Batch::new().pool(pool).parallelism(runner);
            for (k, start) in starts.iter().enumerate() {
                batch = batch.job(
                    BatchJob::reachability(format!("job-{k}"), net.clone(), [start.clone()])
                        .limits(demand),
                );
            }
            let report = batch.run();
            let these: Vec<ExplorationLimits> =
                report.jobs.iter().map(|j| j.final_limits).collect();
            // The scheduler's grants are runner-independent.
            match &finals {
                Some(first) => prop_assert_eq!(first, &these),
                None => finals = Some(these),
            }
            for (job, start) in report.jobs.iter().zip(&starts) {
                let solo = Analysis::new(&net)
                    .reachability([start.clone()])
                    .limits(job.final_limits)
                    .run();
                prop_assert!(
                    job.outcome.as_reachability().unwrap().identical_to(&solo),
                    "{} != solo at {:?} under {:?}", job.name, job.final_limits, runner
                );
            }
        }
    }
}

/// The protocol-level front door under a pool: N identical catalog jobs
/// split fairly and match solo session queries, for both runner modes.
#[test]
fn protocol_batch_fair_share_matches_solo_runs() {
    let protocol = pp_protocols::flock::flock_of_birds_unary(3);
    let agents = 8u64;
    let jobs = 4usize;
    for runner in RUNNERS {
        let mut batch = ProtocolBatch::new().pool(60).parallelism(runner);
        for _ in 0..jobs {
            batch = batch.reachability(&protocol, agents);
        }
        let report = batch.run();
        assert_eq!(report.jobs.len(), jobs);
        assert_eq!(report.distinct_nets, 1);
        for job in &report.jobs {
            assert_eq!(
                job.final_limits.max_configurations, report.jobs[0].final_limits.max_configurations,
                "fair share diverged under {runner:?}"
            );
            let solo = Analysis::new(protocol.net())
                .reachability([protocol.initial_config_with_count(agents)])
                .limits(job.final_limits)
                .run();
            assert!(
                job.outcome.as_reachability().unwrap().identical_to(&solo),
                "{} != solo under {:?}",
                job.name,
                runner
            );
        }
    }
}

/// Every job of `report` is `identical_to` a solo session query at the
/// job's final limits.
fn assert_matches_solo_runs(
    jobs: &[BatchJob<StateId>],
    report: &BatchReport<StateId>,
    label: &str,
) {
    assert_eq!(report.jobs.len(), jobs.len());
    for (job, job_report) in jobs.iter().zip(&report.jobs) {
        let BatchQuery::Reachability { initials } = &job.query else {
            unreachable!("catalog jobs are reachability jobs");
        };
        let solo = Analysis::new(&job.net)
            .reachability(initials.iter().cloned())
            .limits(job_report.final_limits)
            .run();
        assert!(
            job_report
                .outcome
                .as_reachability()
                .unwrap()
                .identical_to(&solo),
            "{label}: {} != solo at {:?}",
            job_report.name,
            job_report.final_limits
        );
    }
}

/// A serving-shaped catalog fleet: every entry at 10 agents twice (the
/// duplicate clients share one result) and at 12 agents (same nets, other
/// question). Unpooled, and pooled at half the total demand, every job
/// matches a solo run at its final budget, and the final budgets agree
/// between the sequential and the parallel runner.
#[test]
fn catalog_fleet_matches_solo_runs_pooled_and_unpooled() {
    let limits = ExplorationLimits::default();
    for n in [2u64, 4] {
        let mut jobs = catalog_jobs(n, 10, limits);
        jobs.extend(catalog_jobs(n, 10, limits));
        jobs.extend(catalog_jobs(n, 12, limits));

        let unpooled = Batch::new().jobs(jobs.iter().cloned()).run();
        assert_matches_solo_runs(&jobs, &unpooled, &format!("n={n} unpooled"));

        let total: usize = unpooled.jobs.iter().map(|job| job.explored).sum();
        let pool = (total / 2).max(1);
        let pooled: Vec<BatchReport<StateId>> = [Parallelism::Sequential, Parallelism::Parallel(2)]
            .into_iter()
            .map(|runner| {
                let report = Batch::new()
                    .jobs(jobs.iter().cloned())
                    .pool(pool)
                    .parallelism(runner)
                    .run();
                assert_matches_solo_runs(&jobs, &report, &format!("n={n} pooled {runner:?}"));
                report
            })
            .collect();
        for (sequential, parallel) in pooled[0].jobs.iter().zip(&pooled[1].jobs) {
            assert_eq!(
                sequential.final_limits, parallel.final_limits,
                "n={n}: {} final budgets diverge across runners",
                sequential.name
            );
        }
    }
}
