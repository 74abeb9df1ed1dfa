//! Self-tests of the benchmark: seeded inputs repeat, the percentile
//! helper refuses thin tails, and the metric lists match `BENCHMARK.json`.
//!
//! Run with `cargo test --manifest-path suitebench/Cargo.toml`.

use pp_serve::json::{parse, Json};
use suitebench::metrics::{self, END_TO_END};
use suitebench::stats::{median, percentile};
use suitebench::trace::{self_time_by_layer, Span};
use suitebench::workloads::{self, analyze, serve, simulate};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read(path).expect("BENCHMARK.json sits at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|metric| {
            let field = |key: &str| {
                metric
                    .get(key)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(String, &'static str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(name, unit)| (name.clone(), (*unit).to_string()))
        .collect()
}

#[test]
fn printed_metric_names_equal_the_declared_ones() {
    assert_eq!(owned(&metrics::end_to_end()), declared("end_to_end"));
    assert_eq!(owned(&metrics::per_layer()), declared("per_layer"));
    assert_eq!(
        END_TO_END[0],
        ("setup_s", "s"),
        "set-up time is declared first"
    );
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, workloads::NAMES);
}

#[test]
fn metrics_check_names_units_and_finiteness() {
    let expected = metrics::end_to_end();
    let mut measured = metrics::Metrics::default();
    for (name, unit) in &expected {
        measured.set(name.clone(), 1.5, unit);
    }
    assert!(measured.matches(&expected));
    measured.set("setup_s", f64::NAN, "s");
    assert!(!measured.matches(&expected), "a NaN is not a measurement");
    measured.set("setup_s", 1.0, "ms");
    assert!(!measured.matches(&expected), "units must match");
    measured.set("setup_s", 1.0, "s");
    measured.set("extra", 1.0, "s");
    assert!(!measured.matches(&expected), "no undeclared metric");
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    assert_eq!(serve::request_lists(7), serve::request_lists(7));
    assert_ne!(serve::request_lists(7), serve::request_lists(8));
    assert_eq!(
        simulate::trial_seeds(7, 3, 3),
        simulate::trial_seeds(7, 3, 3)
    );
    assert_ne!(
        simulate::trial_seeds(7, 3, 3),
        simulate::trial_seeds(8, 3, 3)
    );
    assert_ne!(
        simulate::trial_seeds(7, 3, 3),
        simulate::trial_seeds(7, 4, 3)
    );
    assert_eq!(analyze::pass_order(7, 2, 7), analyze::pass_order(7, 2, 7));
}

#[test]
fn serve_lists_differ_in_order_only() {
    let lists = serve::request_lists(1);
    assert_eq!(lists.len(), serve::CLIENTS);
    let sorted = |seed: u64, client: usize| {
        let mut frames: Vec<String> = serve::request_lists(seed)[client]
            .iter()
            .map(|request| format!("{request:?}"))
            .collect();
        frames.sort();
        frames
    };
    for list in &lists {
        assert_eq!(list.len(), serve::LIST_LEN);
        // Every resume directly follows the truncated submit it resumes.
        for (index, request) in list.iter().enumerate() {
            if let serve::Request::Resume(job, _) = request {
                assert_eq!(list[index - 1], serve::Request::Submit(job.clone()));
            }
        }
    }
    // The non-fresh part of a list is the same multiset for every seed.
    let fresh_free = |frames: Vec<String>| -> Vec<String> {
        frames
            .into_iter()
            .filter(|frame| frame.contains("budget: Some") || frame.contains("Resume"))
            .collect()
    };
    assert_eq!(fresh_free(sorted(1, 0)), fresh_free(sorted(2, 0)));
}

#[test]
fn truncated_identities_are_private_to_one_client() {
    let lists = serve::request_lists(3);
    let resumed = |client: usize| -> Vec<serve::Job> {
        lists[client]
            .iter()
            .filter_map(|request| match request {
                serve::Request::Resume(job, _) => Some(job.clone()),
                serve::Request::Submit(_) => None,
            })
            .collect()
    };
    let submitted = |client: usize| -> Vec<(&'static str, u64, u64)> {
        lists[client]
            .iter()
            .map(|request| match request {
                serve::Request::Submit(job) | serve::Request::Resume(job, _) => {
                    (job.family, job.n, job.agents)
                }
            })
            .collect()
    };
    for client in 0..serve::CLIENTS {
        for other in (0..serve::CLIENTS).filter(|&other| other != client) {
            for job in resumed(client) {
                assert!(
                    !submitted(other).contains(&(job.family, job.n, job.agents)),
                    "{job:?} is shared between clients {client} and {other}"
                );
            }
        }
    }
}

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.99), Some(990.0));
    assert_eq!(percentile(&samples[..999], 0.99), None, "only 9 beyond p99");
    assert_eq!(percentile(&samples[..20], 0.5), Some(10.0));
    assert_eq!(percentile(&samples[..19], 0.5), None, "only 9 beyond p50");
    assert_eq!(percentile(&samples[..100], 0.9), Some(90.0));
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn self_time_subtracts_direct_children() {
    let span = |layer, start_ns, end_ns, parent| Span {
        layer,
        start_ns,
        end_ns,
        parent,
        request: 0,
    };
    let spans = [
        span("bench", 0, 100, None),
        span("petri.engine", 10, 20, Some(0)),
        span("petri.explore", 20, 90, Some(0)),
        span("petri.session", 30, 40, Some(2)),
    ];
    let by_layer = self_time_by_layer(&spans);
    assert_eq!(by_layer["bench"], 20);
    assert_eq!(by_layer["petri.engine"], 10);
    assert_eq!(by_layer["petri.explore"], 60);
    assert_eq!(by_layer["petri.session"], 10);

    // Two concurrent clients under one pass: their overlap counts once.
    let spans = [
        span("bench", 0, 100, None),
        span("serve.client", 10, 60, Some(0)),
        span("serve.client", 40, 80, Some(0)),
    ];
    let by_layer = self_time_by_layer(&spans);
    assert_eq!(by_layer["bench"], 30);
    assert_eq!(by_layer["serve.client"], 90);
}
