//! Analysis-server throughput: concurrent clients driving catalog jobs
//! through `pp_serve` over real TCP, against the in-process batch layer
//! as the no-wire baseline.
//!
//! The workload is serving-shaped: several clients submit overlapping
//! catalog queries (same protocol, same and different agent counts), so
//! the server's session cache sees both cold compiles and hot reuse.
//!
//! `--check` additionally enforces the server's determinism contract and
//! exits nonzero on any violation:
//!
//! * every response's fingerprint equals a solo in-process [`Batch`] run
//!   at the response's `final_limits` — under a sequential **and** a
//!   2-way parallel runner, with 1 **and** 3 concurrent clients;
//! * a truncate-then-resume round trip (small budget, then a raised one
//!   against the cached session) lands on the same fingerprint as a cold
//!   direct run at the final budget.
//!
//! Results land in `BENCH_server_throughput.json` (jobs/sec, p95 client
//! latency, mean stored bytes per node as reported by the responses).
//! Timings are informational on throttled CI hosts; the fingerprint
//! gates are what CI enforces.

use pp_bench::{fmt_f64, Table};
use pp_petri::batch::{Batch, BatchJob};
use pp_petri::fingerprint::{hex, outcome_fingerprint};
use pp_petri::{ExplorationLimits, Parallelism};
use pp_population::StateId;
use pp_protocols::batch::spread_input;
use pp_protocols::catalog;
use pp_serve::json::Json;
use pp_serve::server::{Server, ServerConfig, ServerHandle};
use pp_serve::Client;
use std::time::Instant;

/// One catalog job of the workload.
#[derive(Clone, Copy)]
struct Work {
    family: &'static str,
    n: u64,
    agents: u64,
}

/// The per-client job list: overlapping identities so the session cache
/// sees both cold and hot paths.
const WORKLOAD: [Work; 6] = [
    Work {
        family: "majority",
        n: 2,
        agents: 6,
    },
    Work {
        family: "flock-unary",
        n: 3,
        agents: 6,
    },
    Work {
        family: "majority",
        n: 2,
        agents: 6,
    }, // repeat: hot session
    Work {
        family: "example-4.2",
        n: 2,
        agents: 5,
    },
    Work {
        family: "flock-unary",
        n: 3,
        agents: 8,
    },
    Work {
        family: "majority",
        n: 2,
        agents: 8,
    },
];

struct RunStats {
    /// Client-observed per-job latencies, microseconds.
    latencies_us: Vec<u64>,
    /// (work, final_limits, fingerprint) of every response, for `--check`.
    responses: Vec<(Work, ExplorationLimits, String)>,
    /// `bytes_per_node` passthrough from reachability responses.
    bytes_per_node: Vec<u64>,
    wall_ns: u128,
}

fn submit_frame(work: Work, budget: Option<usize>) -> Json {
    let mut pairs = vec![
        ("cmd".to_string(), Json::str("submit")),
        ("protocol".to_string(), Json::str(work.family)),
        ("n".to_string(), Json::uint(work.n)),
        ("agents".to_string(), Json::uint(work.agents)),
    ];
    if let Some(budget) = budget {
        pairs.push(("budget".to_string(), Json::uint(budget as u64)));
    }
    Json::object(pairs)
}

fn limits_of(frame: &Json) -> ExplorationLimits {
    let limits = frame.get("final_limits").expect("final_limits");
    ExplorationLimits {
        max_configurations: limits
            .get("max_configurations")
            .and_then(Json::as_usize)
            .expect("max_configurations"),
        max_agents: limits.get("max_agents").and_then(Json::as_u64),
        max_depth: limits.get("max_depth").and_then(Json::as_usize),
    }
}

/// Drives `clients` concurrent connections through the workload.
fn drive(handle: &ServerHandle, clients: usize) -> RunStats {
    let addr = handle.addr();
    let start = Instant::now();
    let mut threads = Vec::new();
    for _ in 0..clients {
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let mut out = Vec::new();
            for work in WORKLOAD {
                let t0 = Instant::now();
                let answer = client.submit(&submit_frame(work, None)).expect("submit");
                let latency = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
                assert_eq!(
                    answer.result.get("ok"),
                    Some(&Json::Bool(true)),
                    "job failed: {}",
                    answer.result
                );
                let fingerprint = answer
                    .result
                    .get("fingerprint")
                    .and_then(Json::as_str)
                    .expect("fingerprint")
                    .to_string();
                let limits = limits_of(&answer.result);
                let bytes = answer.result.get("bytes_per_node").and_then(Json::as_u64);
                out.push((work, limits, fingerprint, latency, bytes));
            }
            out
        }));
    }
    let mut stats = RunStats {
        latencies_us: Vec::new(),
        responses: Vec::new(),
        bytes_per_node: Vec::new(),
        wall_ns: 0,
    };
    for thread in threads {
        for (work, limits, fingerprint, latency, bytes) in thread.join().expect("client thread") {
            stats.latencies_us.push(latency);
            stats.responses.push((work, limits, fingerprint));
            if let Some(bytes) = bytes {
                stats.bytes_per_node.push(bytes);
            }
        }
    }
    stats.wall_ns = start.elapsed().as_nanos();
    stats
}

/// A solo in-process run of the same job at the reported limits.
fn direct_fingerprint(work: Work, limits: ExplorationLimits, runner: Parallelism) -> String {
    let entry = catalog::all(work.n)
        .into_iter()
        .find(|e| e.family == work.family)
        .expect("catalog family");
    let protocol = entry.protocol;
    let net = protocol.net().clone();
    let initial = spread_input(&protocol, work.agents);
    let report = Batch::new()
        .parallelism(runner)
        .job(BatchJob::reachability("d", net.clone(), [initial]).limits(limits))
        .run();
    let places: Vec<StateId> = net.places().iter().copied().collect();
    hex(outcome_fingerprint(&report.jobs[0].outcome, &places))
}

fn check_responses(stats: &RunStats, runner: Parallelism, label: &str) -> bool {
    let mut ok = true;
    for (work, limits, fingerprint) in &stats.responses {
        let direct = direct_fingerprint(*work, *limits, runner);
        if *fingerprint != direct {
            eprintln!(
                "SERVER CHECK FAILED [{label}]: {}(n={})[{}] fingerprint {} != direct {} at {:?}",
                work.family, work.n, work.agents, fingerprint, direct, limits
            );
            ok = false;
        }
    }
    ok
}

/// The truncate-then-resume gate: a small budget, then a raised one
/// against the cached session, must land on the cold direct answer.
fn check_resume(handle: &ServerHandle, runner: Parallelism) -> bool {
    let work = Work {
        family: "flock-unary",
        n: 4,
        agents: 8,
    };
    let mut client = Client::connect(handle.addr()).expect("connect");
    let truncated = client
        .submit(&submit_frame(work, Some(5)))
        .expect("submit")
        .result;
    let session = truncated
        .get("session")
        .and_then(Json::as_str)
        .expect("session token")
        .to_string();
    if truncated.get("resumable") != Some(&Json::Bool(true)) {
        eprintln!("SERVER CHECK FAILED: truncated job not resumable: {truncated}");
        return false;
    }
    let resumed = client
        .submit(&Json::object([
            ("cmd".to_string(), Json::str("resume")),
            ("session".to_string(), Json::str(&session)),
            ("budget".to_string(), Json::uint(100_000)),
        ]))
        .expect("resume")
        .result;
    let fingerprint = resumed
        .get("fingerprint")
        .and_then(Json::as_str)
        .expect("fingerprint");
    let direct = direct_fingerprint(work, limits_of(&resumed), runner);
    if fingerprint != direct {
        eprintln!("SERVER CHECK FAILED: resumed fingerprint {fingerprint} != cold direct {direct}");
        return false;
    }
    true
}

fn p95(latencies: &mut [u64]) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    latencies[(latencies.len() - 1) * 95 / 100]
}

struct Row {
    runner: &'static str,
    clients: usize,
    jobs: usize,
    jobs_per_sec: f64,
    p95_us: u64,
    bytes_per_node: f64,
}

fn main() {
    let check = std::env::args().any(|arg| arg == "--check");
    let mut rows: Vec<Row> = Vec::new();
    let mut ok = true;

    for (runner, runner_label) in [
        (Parallelism::Sequential, "seq"),
        (Parallelism::Parallel(2), "par(2)"),
    ] {
        for clients in [1usize, 3] {
            let handle = Server::spawn(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                runner,
                ..ServerConfig::default()
            })
            .expect("bind ephemeral port");
            let mut stats = drive(&handle, clients);
            if check {
                let label = format!("{runner_label}/{clients} clients");
                ok &= check_responses(&stats, runner, &label);
                ok &= check_resume(&handle, runner);
            }
            handle.shutdown();
            let jobs = stats.responses.len();
            let bytes_per_node = stats.bytes_per_node.iter().sum::<u64>() as f64
                / stats.bytes_per_node.len().max(1) as f64;
            rows.push(Row {
                runner: runner_label,
                clients,
                jobs,
                jobs_per_sec: jobs as f64 / (stats.wall_ns as f64 / 1e9),
                p95_us: p95(&mut stats.latencies_us),
                bytes_per_node,
            });
        }
    }

    let mut table = Table::new(["runner", "clients", "jobs", "jobs/s", "p95 (us)", "B/node"]);
    for row in &rows {
        table.row([
            row.runner.to_string(),
            row.clients.to_string(),
            row.jobs.to_string(),
            fmt_f64(row.jobs_per_sec),
            row.p95_us.to_string(),
            fmt_f64(row.bytes_per_node),
        ]);
    }
    table.print("Analysis-server throughput: concurrent TCP clients vs the batch layer");

    let mut json = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"runner\": \"{}\", \"clients\": {}, \"jobs\": {}, \"jobs_per_sec\": {:.1}, \"p95_us\": {}, \"bytes_per_node\": {:.1}}}{}\n",
            row.runner,
            row.clients,
            row.jobs,
            row.jobs_per_sec,
            row.p95_us,
            row.bytes_per_node,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("]\n");
    let path = "BENCH_server_throughput.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(error) => eprintln!("could not write {path}: {error}"),
    }
    if !ok {
        eprintln!("server determinism checks FAILED");
        std::process::exit(1);
    }
    println!(
        "server checks passed{}",
        if check {
            ": every response bit-identical to a solo batch run at its final_limits, \
             sequential and parallel runners, 1 and 3 clients, truncate-then-resume included"
        } else {
            " (run with --check for the bit-identity gates)"
        }
    );
}
