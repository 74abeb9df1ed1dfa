//! Metric names, units and the result line.
//!
//! These lists are the benchmark's contract: the untraced run prints
//! exactly [`END_TO_END`], the traced run exactly [`per_layer`], and a
//! self-test holds both equal to `BENCHMARK.json`.

use pp_serve::Json;
use std::collections::BTreeMap;

/// A metric's name and unit.
pub type Metric = (&'static str, &'static str);

/// The end-to-end metrics, measured with tracing off.
pub const END_TO_END: [Metric; 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("steps_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The layers spans are recorded for: the benchmark's own harness
/// (`bench`), then each crate or module whose public functions the
/// benchmark calls.
pub const LAYERS: [&str; 18] = [
    "bench",
    "core.pipeline",
    "diophantine",
    "petri.batch",
    "petri.bottom",
    "petri.control",
    "petri.cover",
    "petri.cycles",
    "petri.engine",
    "petri.explore",
    "petri.karp_miller",
    "petri.session",
    "population.verify",
    "serve.cache",
    "serve.client",
    "serve.json",
    "serve.server",
    "sim",
];

/// The per-layer metrics measured by [`crate::layers`], before the
/// per-layer self times.
pub const LAYER_METRICS: [Metric; 40] = [
    ("engine.compile_us", "us"),
    ("explore.nodes_per_s", "1/s"),
    ("explore.bytes_per_node", "count"),
    ("explore.parallel_speedup", "ratio"),
    ("cover.query_ms", "ms"),
    ("km.nodes_per_s", "1/s"),
    ("bottom.witness_ms", "ms"),
    ("control.build_us", "us"),
    ("cycles.shrink_ms", "ms"),
    ("diophantine.hilbert_us", "us"),
    ("pipeline.analyze_ms", "ms"),
    ("session.warm_query_us", "us"),
    ("session.resume_ratio", "ratio"),
    ("batch.run_ms", "ms"),
    ("batch.compile_cache_hits", "count"),
    ("batch.result_cache_hits", "count"),
    ("verify.explored", "count"),
    ("verify.inputs_per_s", "1/s"),
    ("serve.wall_us_p50", "us"),
    ("serve.queue_us_p50", "us"),
    ("serve.wire_us_p50", "us"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.latency_samples", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.sessions_held", "count"),
    ("cache.put_take_ns", "ns"),
    ("json.parse_ns_per_byte", "ns"),
    ("json.encode_ns_per_byte", "ns"),
    ("sim.step_ns", "ns"),
    ("sim.step_ns_weighted", "ns"),
    ("sim.converge_check_us", "us"),
    ("sim.converge_checks", "count"),
    ("ladder.warm_ms", "ms"),
    ("ladder.cold_ms", "ms"),
    ("ladder.batch_ms", "ms"),
    ("ladder.tcp_ms", "ms"),
    ("ladder.explore_ms", "ms"),
    ("ladder.batch_overhead_ms", "ms"),
    ("ladder.wire_overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric: [`LAYER_METRICS`] followed by one
/// `self_ms.<layer>` per entry of [`LAYERS`].
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .chain(
            LAYERS
                .iter()
                .map(|layer| (format!("self_ms.{layer}"), "ms")),
        )
        .collect()
}

/// Measured metric values by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Records `value` (in `unit`) under `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// Whether exactly the metrics of `expected` were recorded, each with
    /// its unit and a finite value.
    #[must_use]
    pub fn matches(&self, expected: &[(String, &'static str)]) -> bool {
        self.0.len() == expected.len()
            && expected.iter().all(|(name, unit)| {
                self.0
                    .get(name)
                    .is_some_and(|(value, recorded)| recorded == unit && value.is_finite())
            })
    }

    /// The `metrics` object of the result line.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object(self.0.iter().map(|(name, &(value, unit))| {
            (
                name.clone(),
                Json::object([
                    ("value".to_string(), Json::Float(value)),
                    ("unit".to_string(), Json::str(unit)),
                ]),
            )
        }))
    }
}

/// [`END_TO_END`] as owned names.
#[must_use]
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    Json::object([
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::uint(attempted)),
        ("failed".to_string(), Json::uint(failed)),
        ("metrics".to_string(), metrics.to_json()),
    ])
    .to_text()
}
