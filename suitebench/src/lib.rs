//! `suitebench`: one command that measures the state-complexity suite end
//! to end and layer by layer.
//!
//! Each workload ([`workloads`]) is set up from a seed, run in whole
//! passes for a fixed number of seconds, and checked output by output.
//! An untraced run reports the end-to-end metrics ([`metrics::END_TO_END`]);
//! a traced run ([`trace`]) records spans around every call the benchmark
//! makes into a layer and reports the per-layer metrics of [`layers`].
//! See `README.md` next to this crate for the workloads and the
//! layer → metric → workload map.

#![forbid(unsafe_code)]

pub mod host;
pub mod layers;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::time::Duration;

/// One timed call of a pass, as rates see it.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Which call of the pass's list this is (the same call in every pass
    /// has the same kind).
    pub kind: usize,
    /// Operations the call completed.
    pub ops: u64,
    /// Work units it delivered (see `steps_per_s` in `README.md`).
    pub steps: u64,
    /// Its wall-clock time.
    pub wall: Duration,
}

/// What a workload's passes did: operations attempted and failed, the
/// timed calls rates are computed from, and the latency of every
/// user-visible answer.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Every timed call.
    pub units: Vec<Unit>,
    /// Wall-clock latency of each user-visible answer, milliseconds.
    pub latencies_ms: Vec<f64>,
}

impl Tally {
    /// Records one call of `kind` that answered `ops` operations, `failed`
    /// of which failed its check, as a rate unit and a latency sample.
    pub fn record(&mut self, kind: usize, ops: u64, failed: u64, steps: u64, wall: Duration) {
        self.attempted += ops;
        self.failed += failed;
        self.units.push(Unit {
            kind,
            ops,
            steps,
            wall,
        });
        self.latencies_ms.push(wall.as_secs_f64() * 1e3);
    }

    /// The rate of a typical pass: for each kind of call, the median of
    /// `count` and the median wall time over the passes run, summed over
    /// kinds and divided. A burst of contention that slows one call of one
    /// pass moves neither median.
    #[must_use]
    pub fn typical_rate(&self, count: fn(&Unit) -> u64) -> f64 {
        let mut kinds: BTreeMap<usize, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for unit in &self.units {
            let (counts, walls) = kinds.entry(unit.kind).or_default();
            counts.push(count(unit) as f64);
            walls.push(unit.wall.as_secs_f64());
        }
        let (mut total, mut wall) = (0.0, 0.0);
        for (counts, walls) in kinds.values() {
            total += stats::median(counts).unwrap_or(0.0);
            wall += stats::median(walls).unwrap_or(0.0);
        }
        total / wall
    }
}
