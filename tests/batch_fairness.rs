//! The batch layer's contract on a serving-shaped catalog fleet: every
//! job's result is **bit-identical** to a solo session query at the job's
//! own limits, whatever the runner parallelism, with compile dedup and
//! result sharing in play.

use pp_petri::batch::{Batch, BatchJob, BatchQuery, BatchReport};
use pp_petri::{Analysis, ExplorationLimits, Parallelism};
use pp_population::StateId;
use pp_protocols::batch::catalog_jobs;

/// Every job of `report` is `identical_to` a solo session query at the
/// job's own limits.
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
            .limits(job.limits)
            .run();
        assert!(
            job_report
                .outcome
                .as_reachability()
                .unwrap()
                .identical_to(&solo),
            "{label}: {} != solo at {:?}",
            job_report.name,
            job.limits
        );
    }
}

/// A serving-shaped catalog fleet: every entry at 10 agents twice (the
/// duplicate clients share one result), at 12 agents (same nets, other
/// question), and at 12 agents under a budget that truncates the larger
/// entries. At the sequential and the parallel runner, every job matches
/// a solo run at its own limits.
#[test]
fn catalog_fleet_matches_solo_runs_pooled_and_unpooled() {
    let limits = ExplorationLimits::default();
    for n in [2u64, 4] {
        let mut jobs = catalog_jobs(n, 10, limits);
        jobs.extend(catalog_jobs(n, 10, limits));
        jobs.extend(catalog_jobs(n, 12, limits));
        jobs.extend(catalog_jobs(
            n,
            12,
            ExplorationLimits::with_max_configurations(20),
        ));
        for runner in [Parallelism::Sequential, Parallelism::Parallel(2)] {
            let report = Batch::new()
                .jobs(jobs.iter().cloned())
                .parallelism(runner)
                .run();
            // At least the second copy of the 10-agent list shares results.
            assert!(report.result_cache_hits >= jobs.len() / 4, "n={n}");
            assert!(
                report.jobs.iter().any(|job| !job.completion.is_complete()),
                "n={n}: the budget of 20 truncates some entry"
            );
            assert_matches_solo_runs(&jobs, &report, &format!("n={n} {runner:?}"));
        }
    }
}
