//! Sparse-vs-dense exploration ablation (E12 companion).
//!
//! Times full reachability-graph construction on the dense interned engine
//! against the sparse `BTreeMap` reference path for catalog protocols,
//! prints the comparison table and writes the numbers to
//! `BENCH_sparse_dense.json` so the speedup is tracked across PRs. The
//! dense engine stores rows packed (see `pp_petri::packed`); the
//! `bytes_per_node` column reports the stored arena bytes per node under
//! the active layout.
//!
//! `--check` skips the timing and instead verifies the packed-row
//! invariant end to end: for every instance, packed builds (sequential
//! and parallel) and a `u64`-rows session build must be `identical_to`
//! each other bit for bit. Any divergence exits nonzero.
//! It also reports the packed-vs-unpacked compaction factor, failing if
//! the catalog protocols do not compact at least 2x.

use pp_bench::{fmt_f64, Table};
use pp_petri::explore::sparse_reference_exploration;
use pp_petri::{Analysis, ExplorationLimits, Parallelism};
use pp_protocols::{flock, leaders_n, threshold};
use std::time::Instant;

struct Row {
    family: &'static str,
    agents: u64,
    nodes: usize,
    bytes_per_node: usize,
    sparse_ns: u128,
    dense_ns: u128,
}

/// Median wall-clock nanoseconds of `runs` executions of `f`.
fn median_ns<F: FnMut() -> usize>(runs: usize, mut f: F) -> u128 {
    let mut samples: Vec<u128> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

type Instances = [(&'static str, pp_population::Protocol, [u64; 2]); 3];

// Instances sized so the graphs have hundreds to tens of thousands of
// nodes — the regime the verifier and the experiments actually run in,
// where interning rather than constant overhead dominates.
fn instances() -> Instances {
    [
        ("example-4.2(n=3)", leaders_n::example_4_2(3), [20, 40]),
        ("flock-unary(n=5)", flock::flock_of_birds_unary(5), [20, 30]),
        (
            "binary-threshold(n=6)",
            threshold::binary_threshold_with_leader(6),
            [20, 30],
        ),
    ]
}

/// Packed-vs-unpacked bit-identity sweep. Builds every instance three
/// ways — packed sequential, packed parallel, unpacked sequential — and
/// demands the graphs be `identical_to` each other. Returns whether all
/// checks passed.
fn run_check(limits: &ExplorationLimits) -> bool {
    let mut ok = true;
    for (family, protocol, agent_counts) in instances() {
        let net = protocol.net();
        for agents in agent_counts {
            let initial = protocol.initial_config_with_count(agents);

            let packed_seq = Analysis::new(net)
                .reachability([initial.clone()])
                .limits(*limits)
                .run();
            let packed_par = Analysis::new(net)
                .parallelism(Parallelism::Parallel(3))
                .reachability([initial.clone()])
                .limits(*limits)
                .run();
            let unpacked = Analysis::new(net)
                .u64_rows()
                .reachability([initial.clone()])
                .limits(*limits)
                .run();

            if !packed_seq.identical_to(&packed_par) {
                eprintln!("CHECK FAILED: {family} at {agents} agents: packed parallel build diverges from packed sequential");
                ok = false;
            }
            if !packed_seq.identical_to(&unpacked) || !unpacked.identical_to(&packed_seq) {
                eprintln!(
                    "CHECK FAILED: {family} at {agents} agents: packed and unpacked builds diverge"
                );
                ok = false;
            }
            let compaction =
                unpacked.bytes_per_node() as f64 / packed_seq.bytes_per_node().max(1) as f64;
            println!(
                "{family} at {agents} agents: {} nodes, packed {} B/node vs unpacked {} B/node ({compaction:.1}x)",
                packed_seq.len(),
                packed_seq.bytes_per_node(),
                unpacked.bytes_per_node(),
            );
            if compaction < 2.0 {
                eprintln!(
                    "CHECK FAILED: {family} at {agents} agents: compaction {compaction:.2}x below the 2x floor"
                );
                ok = false;
            }
        }
    }
    ok
}

fn main() {
    let limits = ExplorationLimits::default();
    if std::env::args().any(|arg| arg == "--check") {
        if run_check(&limits) {
            println!("packed-vs-unpacked checks passed (bit-identical graphs, >=2x compaction)");
            return;
        }
        eprintln!("packed-vs-unpacked checks FAILED");
        std::process::exit(1);
    }

    let runs = 5;
    let mut rows: Vec<Row> = Vec::new();

    for (family, protocol, agent_counts) in instances() {
        for agents in agent_counts {
            let initial = protocol.initial_config_with_count(agents);
            let net = protocol.net();
            let reference = Analysis::new(net)
                .reachability([initial.clone()])
                .limits(limits)
                .run();
            let dense_nodes = reference.len();
            let bytes_per_node = reference.bytes_per_node();
            drop(reference);
            let sparse_nodes = sparse_reference_exploration(net, [initial.clone()], &limits)
                .0
                .len();
            assert_eq!(
                dense_nodes, sparse_nodes,
                "representations disagree on {family}"
            );
            // Cold sessions per sample: the timed cost includes the
            // compile, matching the historical one-shot entry point.
            let dense_ns = median_ns(runs, || {
                Analysis::new(net)
                    .reachability([initial.clone()])
                    .limits(limits)
                    .run()
                    .len()
            });
            let sparse_ns = median_ns(runs, || {
                sparse_reference_exploration(net, [initial.clone()], &limits)
                    .0
                    .len()
            });
            rows.push(Row {
                family,
                agents,
                nodes: dense_nodes,
                bytes_per_node,
                sparse_ns,
                dense_ns,
            });
        }
    }

    let mut table = Table::new([
        "protocol",
        "agents",
        "nodes",
        "B/node",
        "sparse (ms)",
        "dense (ms)",
        "speedup",
    ]);
    for row in &rows {
        table.row([
            row.family.to_owned(),
            row.agents.to_string(),
            row.nodes.to_string(),
            row.bytes_per_node.to_string(),
            fmt_f64(row.sparse_ns as f64 / 1e6),
            fmt_f64(row.dense_ns as f64 / 1e6),
            fmt_f64(row.sparse_ns as f64 / row.dense_ns.max(1) as f64),
        ]);
    }
    table.print("Sparse vs dense exploration (reachability graph construction)");

    let mut json = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"family\": \"{}\", \"agents\": {}, \"nodes\": {}, \"bytes_per_node\": {}, \"sparse_ns\": {}, \"dense_ns\": {}, \"speedup\": {:.3}}}{}\n",
            row.family,
            row.agents,
            row.nodes,
            row.bytes_per_node,
            row.sparse_ns,
            row.dense_ns,
            row.sparse_ns as f64 / row.dense_ns.max(1) as f64,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("]\n");
    let path = "BENCH_sparse_dense.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(error) => eprintln!("could not write {path}: {error}"),
    }
}
