//! The four workloads and the loop that times them.
//!
//! Every workload is a fixed list of operations generated from the seed.
//! A *pass* runs the whole list once; a timed run repeats passes until the
//! requested seconds have elapsed, so every run measures whole lists and
//! the mix never depends on where the clock happened to stop.

pub mod analyze;
pub mod serve;
pub mod simulate;
pub mod verify;

use crate::trace::Tracer;
use crate::Tally;
use std::time::{Duration, Instant};

/// A set-up workload.
pub trait Workload {
    /// Runs the whole operation list once, recording into `tally`.
    /// `pass` numbers passes within a run (workloads vary the order of
    /// their list by it).
    fn pass(&mut self, pass: u64, tracer: &Tracer, tally: &mut Tally);

    /// Checks deferred until timing has stopped; adds failures to `tally`.
    fn finish(&mut self, _tally: &mut Tally) {}
}

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["analyze", "verify", "serve", "simulate"];

/// Builds the named workload's inputs from `seed` and warms it up.
#[must_use]
pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "analyze" => Box::new(analyze::Analyze::setup(seed)),
        "verify" => Box::new(verify::Verify::setup(seed)),
        "serve" => Box::new(serve::Serve::setup(seed)),
        "simulate" => Box::new(simulate::Simulate::setup(seed)),
        _ => return None,
    })
}

/// Runs whole passes, starting at pass number `first_pass`, until at least
/// `seconds` have elapsed; returns each pass's wall-clock time.
pub fn run_for(
    workload: &mut dyn Workload,
    seconds: f64,
    first_pass: u64,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Vec<Duration> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let pass = first_pass + passes.len() as u64;
        let started = Instant::now();
        tracer.span("bench", pass, || workload.pass(pass, tracer, tally));
        passes.push(started.elapsed());
    }
    passes
}
