//! Session-reuse ablation: cold one-shot queries vs warm session re-queries
//! vs resumed-budget queries.
//!
//! The `Analysis` session exists so that serving-shaped workloads stop
//! paying the compile-and-re-explore tax on every query. This bench
//! quantifies the three tiers on the catalog's protocols:
//!
//! * **cold** — a fresh session per query: compile the net, explore from
//!   scratch (the historical one-shot entry points).
//! * **warm** — the same query against a session that already ran it: a
//!   cache hit returning the shared graph.
//! * **resumed** — the query against a session holding the graph truncated
//!   at *half* its node count: the arena and edge lists are reused and only
//!   the budget frontier re-expands
//!   ([`ReachabilityGraph::resume`](pp_petri::ReachabilityGraph::resume)).
//!
//! Every resumed graph is checked `identical_to` the cold one (the resume
//! correctness contract) and any divergence exits nonzero. The speedups are
//! reported, not gated: on a small shared host a resumed query can time
//! level with a cold one, which says nothing about correctness.

use pp_bench::{fmt_f64, Table};
use pp_petri::{Analysis, ExplorationLimits, ReachabilityGraph};
use pp_population::{Protocol, StateId};
use std::time::Instant;

struct Row {
    family: &'static str,
    agents: u64,
    nodes: usize,
    /// Stored arena bytes per node under the active (packed) row layout.
    bytes_per_node: usize,
    truncated_nodes: usize,
    cold_ns: u128,
    warm_ns: u128,
    resumed_ns: u128,
}

/// Best (minimum) wall-clock nanoseconds over `runs` interleaved rounds,
/// with per-round setup excluded from the timing (the standard protocol of
/// this repo's benches on shared/throttled CI hosts).
fn main() {
    let runs = 9usize;
    let limits = ExplorationLimits::default();
    let instances: [(&'static str, Protocol, u64); 3] = [
        (
            "example-4.2(n=3)",
            pp_protocols::leaders_n::example_4_2(3),
            30,
        ),
        (
            "flock-unary(n=5)",
            pp_protocols::flock::flock_of_birds_unary(5),
            26,
        ),
        (
            "binary-threshold(n=6)",
            pp_protocols::threshold::binary_threshold_with_leader(6),
            30,
        ),
    ];

    let mut rows: Vec<Row> = Vec::new();
    let mut ok = true;
    for (family, protocol, agents) in instances {
        let net = protocol.net();
        let initial = protocol.initial_config_with_count(agents);

        // The reference cold build, and the half-size truncation the
        // resumed tier starts from.
        let cold_reference = Analysis::new(net)
            .reachability([initial.clone()])
            .limits(limits)
            .run();
        let nodes = cold_reference.len();
        let bytes_per_node = cold_reference.bytes_per_node();
        let small = ExplorationLimits::with_max_configurations((nodes / 2).max(1));
        let truncated_reference: ReachabilityGraph<StateId> = {
            let mut session = Analysis::new(net);
            let graph = session.reachability([initial.clone()]).limits(small).run();
            (*graph).clone()
        };
        let truncated_nodes = truncated_reference.len();

        // A session that already answered the query, for the warm tier.
        let mut warm_session = Analysis::new(net);
        drop(
            warm_session
                .reachability([initial.clone()])
                .limits(limits)
                .run(),
        );

        let mut cold_ns = u128::MAX;
        let mut warm_ns = u128::MAX;
        let mut resumed_ns = u128::MAX;
        for _ in 0..runs {
            // Cold: compile + full exploration.
            let start = Instant::now();
            let cold = Analysis::new(net)
                .reachability([initial.clone()])
                .limits(limits)
                .run();
            cold_ns = cold_ns.min(start.elapsed().as_nanos());
            std::hint::black_box(cold.len());

            // Warm: cache hit on the pre-queried session.
            let start = Instant::now();
            let warm = warm_session
                .reachability([initial.clone()])
                .limits(limits)
                .run();
            warm_ns = warm_ns.min(start.elapsed().as_nanos());
            std::hint::black_box(warm.len());
            drop(warm);

            // Resumed: extend a half-budget truncation in place (the
            // per-round clone of the truncated graph is setup, not work —
            // it happens before the timer starts).
            let mut graph = truncated_reference.clone();
            let start = Instant::now();
            graph.resume(&limits);
            resumed_ns = resumed_ns.min(start.elapsed().as_nanos());
            std::hint::black_box(graph.len());
            if !graph.identical_to(&cold_reference) {
                eprintln!("RESUME CHECK FAILED: {family} at {agents} agents");
                ok = false;
            }
        }

        rows.push(Row {
            family,
            agents,
            nodes,
            bytes_per_node,
            truncated_nodes,
            cold_ns,
            warm_ns,
            resumed_ns,
        });
    }

    let mut table = Table::new([
        "protocol",
        "agents",
        "nodes",
        "B/node",
        "resume from",
        "cold (ms)",
        "warm (ms)",
        "resumed (ms)",
        "warm speedup",
        "resumed speedup",
    ]);
    for row in &rows {
        table.row([
            row.family.to_owned(),
            row.agents.to_string(),
            row.nodes.to_string(),
            row.bytes_per_node.to_string(),
            row.truncated_nodes.to_string(),
            fmt_f64(row.cold_ns as f64 / 1e6),
            fmt_f64(row.warm_ns as f64 / 1e6),
            fmt_f64(row.resumed_ns as f64 / 1e6),
            fmt_f64(row.cold_ns as f64 / row.warm_ns.max(1) as f64),
            fmt_f64(row.cold_ns as f64 / row.resumed_ns.max(1) as f64),
        ]);
    }
    table.print(
        "Session reuse: cold one-shot query vs warm session re-query vs resumed half-budget query",
    );

    let mut json = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"family\": \"{}\", \"agents\": {}, \"nodes\": {}, \"bytes_per_node\": {}, \"truncated_nodes\": {}, \"cold_ns\": {}, \"warm_ns\": {}, \"resumed_ns\": {}, \"warm_speedup\": {:.3}, \"resumed_speedup\": {:.3}}}{}\n",
            row.family,
            row.agents,
            row.nodes,
            row.bytes_per_node,
            row.truncated_nodes,
            row.cold_ns,
            row.warm_ns,
            row.resumed_ns,
            row.cold_ns as f64 / row.warm_ns.max(1) as f64,
            row.cold_ns as f64 / row.resumed_ns.max(1) as f64,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("]\n");
    let path = "BENCH_session_reuse.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(error) => eprintln!("could not write {path}: {error}"),
    }
    if !ok {
        eprintln!("session reuse checks FAILED");
        std::process::exit(1);
    }
    println!("session reuse checks passed (resumed graphs identical to cold; speedups reported, not gated)");
}
