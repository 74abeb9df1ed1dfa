//! Batch analysis: run a fleet of protocol queries as one scheduled batch.
//!
//! The batch layer (`pp_petri::batch`) is the front door for many-query
//! workloads: jobs over equal nets share one compiled engine, identical
//! jobs share one result, and every job's result is bit-identical to a
//! solo run at its own limits. A protocol's job is a `BatchJob` on
//! `protocol.net()`.
//!
//! Run with: `cargo run --example batch_analysis`

use pp_petri::{Batch, BatchJob, ExplorationLimits, Parallelism};
use pp_protocols::leaders_n::example_4_2;
use pp_protocols::{batch::catalog_jobs, flock};

fn main() {
    // ---- 1. A mixed batch over two protocol families --------------------
    // Example 4.2's net does not depend on n, so all three reachability
    // jobs (and the coverability job) compile exactly one engine; the
    // flock family brings a second net. One `run()` answers everything.
    let e42 = example_4_2(2);
    let e43 = example_4_2(3);
    let flock = flock::flock_of_birds_unary(4);
    let p = e42.state_id("p").unwrap();
    let q = e42.state_id("q").unwrap();
    let both = pp_multiset::Multiset::from_pairs([(p, 1u64), (q, 1)]);
    let reach = |protocol: &pp_population::Protocol, agents: u64| {
        BatchJob::reachability(
            format!("{}/reach[{agents}]", protocol.name()),
            protocol.net().clone(),
            [protocol.initial_config_with_count(agents)],
        )
    };

    let report = Batch::new()
        .job(reach(&e42, 6))
        .job(reach(&e43, 6)) // same net, other leader count
        .job(reach(&flock, 8))
        .job(BatchJob::coverability(
            format!("{}/cover[{}]", e42.name(), e42.display_config(&both)),
            e42.net().clone(),
            both,
        ))
        .job(
            BatchJob::karp_miller(
                format!("{}/km[6]", flock.name()),
                flock.net().clone(),
                flock.initial_config_with_count(6),
            )
            .limits(ExplorationLimits::with_max_configurations(50_000)),
        )
        .run();

    println!("## Mixed batch\n");
    println!(
        "{} jobs, {} distinct nets, {} compile cache hits\n",
        report.jobs.len(),
        report.distinct_nets,
        report.compile_cache_hits,
    );
    for job in &report.jobs {
        println!(
            "  {:<28} {:<10} explored {:>6}  shared-compile {}",
            job.name,
            format!("{}", job.completion),
            job.explored,
            job.shared_compile,
        );
    }

    // ---- 2. The full catalog as one batch -------------------------------
    // Every construction of the catalog for n = 4, explored from 6 agents,
    // scheduled as a single batch.
    let catalog = Batch::new()
        .jobs(catalog_jobs(4, 6, ExplorationLimits::default()))
        .parallelism(Parallelism::Parallel(2))
        .run();
    println!("\n## Catalog batch (n = 4, 6 agents)\n");
    for job in &catalog.jobs {
        println!(
            "  {:<28} {:<10} {:>6} configurations",
            job.name,
            format!("{}", job.completion),
            job.explored,
        );
    }
    println!(
        "\n{} catalog jobs in {:?} ({} compile cache hits)",
        catalog.jobs.len(),
        catalog.elapsed,
        catalog.compile_cache_hits,
    );
}
