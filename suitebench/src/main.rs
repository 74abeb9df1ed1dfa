//! `suitebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets the workload up (several times; the median set-up time is
//! reported), runs it in whole passes for the given seconds, checks every
//! output, and prints a stamp line and then, as the last line of standard
//! output, the result object. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the workload traced, measures the tracing overhead and
//! the per-layer probes, writes every span under `.bench_out/`, and reports
//! the per-layer metrics. The exit code is nonzero when any output failed
//! its check.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use suitebench::metrics::{self, Metrics};
use suitebench::stats::median;
use suitebench::trace::{self, Tracer};
use suitebench::workloads::{self, Workload};
use suitebench::{host, layers, Tally};

/// Set-ups per run; the median is reported as `setup_s`.
const SETUP_REPEATS: usize = 5;
/// Untraced/traced pass pairs timed for the tracing overhead: at least
/// this many, and more until each side has run this many seconds.
const OVERHEAD_PAIRS: usize = 3;
const OVERHEAD_SECONDS: f64 = 3.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a non-negative integer, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn setup(args: &Args, repeats: usize) -> (Box<dyn Workload>, Vec<f64>) {
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..repeats {
        drop(workload.take());
        let started = Instant::now();
        workload = workloads::setup(&args.workload, args.seed);
        setups.push(started.elapsed().as_secs_f64());
    }
    (workload.expect("the workload name was validated"), setups)
}

/// The untraced run: end-to-end metrics.
fn run_untraced(args: &Args) -> (Tally, Metrics) {
    let (mut workload, setups) = setup(args, SETUP_REPEATS);
    let tracer = Tracer::new(false);
    let mut tally = Tally::default();
    let passes = workloads::run_for(
        workload.as_mut(),
        args.seconds as f64,
        0,
        &tracer,
        &mut tally,
    );
    workload.finish(&mut tally);
    let elapsed: Duration = passes.iter().sum();
    eprintln!(
        "{}: {} passes, {} operations in {:.3} s",
        args.workload,
        passes.len(),
        tally.attempted,
        elapsed.as_secs_f64()
    );
    let mut walls_by_kind: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for unit in &tally.units {
        walls_by_kind
            .entry(unit.kind)
            .or_default()
            .push(unit.wall.as_secs_f64() * 1e3);
    }
    for (kind, walls) in &walls_by_kind {
        eprintln!(
            "  call {kind}: median {:.3} ms over {} passes",
            median(walls).unwrap_or(0.0),
            walls.len()
        );
    }
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setups).unwrap_or(0.0), "s");
    metrics.set("ops_per_s", tally.typical_rate(|unit| unit.ops), "1/s");
    metrics.set("steps_per_s", tally.typical_rate(|unit| unit.steps), "1/s");
    metrics.set(
        "latency_p50_ms",
        median(&tally.latencies_ms).unwrap_or(0.0),
        "ms",
    );
    metrics.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MiB");
    (tally, metrics)
}

/// Times one pass, traced or not.
fn timed_pass(workload: &mut dyn Workload, pass: u64, tracer: &Tracer) -> f64 {
    let mut scratch = Tally::default();
    let passes = workloads::run_for(workload, 0.0, pass, tracer, &mut scratch);
    tracer.take();
    passes[0].as_secs_f64()
}

/// The traced run: per-layer metrics, the spans written out.
fn run_traced(args: &Args) -> (Tally, Metrics) {
    let (mut workload, _) = setup(args, 1);
    let tracer = Tracer::new(true);
    let mut tally = Tally::default();
    let passes = workloads::run_for(
        workload.as_mut(),
        args.seconds as f64,
        0,
        &tracer,
        &mut tally,
    )
    .len() as u64;
    workload.finish(&mut tally);
    let workload_spans = tracer.take();

    // Tracing overhead: alternate untraced and traced passes of the same
    // list, compare the medians.
    let quiet = Tracer::new(false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut pass = passes;
    while untraced.len() < OVERHEAD_PAIRS || untraced.iter().sum::<f64>() < OVERHEAD_SECONDS {
        untraced.push(timed_pass(workload.as_mut(), pass, &quiet));
        traced.push(timed_pass(workload.as_mut(), pass + 1, &tracer));
        pass += 2;
    }
    let untraced = median(&untraced).expect("overhead samples");
    let traced = median(&traced).expect("overhead samples");
    drop(workload);

    let mut metrics = layers::measure(&tracer, args.seed);
    let layer_spans = tracer.take();
    metrics.set(
        "trace.overhead_pct",
        (traced - untraced) / untraced * 100.0,
        "%",
    );
    let layer_self = trace::self_time_by_layer(&layer_spans);
    for layer in metrics::LAYERS {
        let self_ns = layer_self.get(layer).copied().unwrap_or(0);
        metrics.set(format!("self_ms.{layer}"), self_ns as f64 / 1e6, "ms");
    }

    eprintln!(
        "{}: self time per layer over {passes} traced passes",
        args.workload
    );
    for (layer, self_ns) in trace::self_time_by_layer(&workload_spans) {
        eprintln!("  {layer:<18} {:>12.3} ms", self_ns as f64 / 1e6);
    }
    let stem = format!("{}-seed{}", args.workload, args.seed);
    for (part, spans) in [("workload", &workload_spans), ("layers", &layer_spans)] {
        let path = PathBuf::from(".bench_out").join(format!("trace-{stem}-{part}.jsonl"));
        match trace::write_jsonl(spans, &path) {
            Ok(()) => eprintln!("wrote {} spans to {}", spans.len(), path.display()),
            Err(error) => eprintln!("could not write {}: {error}", path.display()),
        }
    }
    (tally, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("suitebench: {message}");
            eprintln!(
                "usage: suitebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (tally, metrics, expected) = if args.trace {
        let (tally, metrics) = run_traced(&args);
        (tally, metrics, metrics::per_layer())
    } else {
        let (tally, metrics) = run_untraced(&args);
        (tally, metrics, metrics::end_to_end())
    };
    if !metrics.matches(&expected) {
        eprintln!("suitebench: the measured metrics do not match the declared list");
        return ExitCode::from(3);
    }
    println!(
        "{}",
        pp_serve::Json::object([(
            "stamp".to_string(),
            host::stamp(&args.workload, args.seed, args.seconds, args.trace)
        )])
    );
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!(
        "{}",
        metrics::result_line(correct, tally.attempted, tally.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
