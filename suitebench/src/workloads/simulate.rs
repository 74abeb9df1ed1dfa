//! `simulate`: convergence experiments, the only user of `pp_sim`.
//!
//! One pass runs three [`ConvergenceExperiment`]s with `threads(2)`:
//!
//! * majority at 5001 vs 4999 agents under the instance-weighted scheduler
//!   (about 131k steps per trial);
//! * flock-unary(n=5) and binary-threshold(n=6) at 10⁴ agents under the
//!   uniform scheduler (about 14k steps per trial, with an exact stability
//!   check every n steps).
//!
//! The two schedulers separate step cost from convergence-check cost. An
//! operation is one trial; every trial must converge to the consensus the
//! predicate prescribes.

use super::analyze::pass_order;
use super::Workload;
use crate::rng::SeedRng;
use crate::trace::Tracer;
use crate::Tally;
use pp_multiset::Multiset;
use pp_population::{Output, Predicate, Protocol};
use pp_protocols::{flock, majority, threshold};
use pp_sim::{ConvergenceExperiment, SchedulerKind};
use std::time::Instant;

/// Trials per experiment.
pub const TRIALS: usize = 4;
/// Worker threads per experiment (= `nproc` on the reference host).
pub const THREADS: usize = 2;
/// Per-trial step budget; every trial converges far below it.
pub const MAX_STEPS: u64 = 10_000_000;

/// One experiment of the pass.
pub struct Experiment {
    /// Label for diagnostics.
    pub name: &'static str,
    /// The protocol simulated.
    pub protocol: Protocol,
    /// Input agents per initial state name.
    pub input: Vec<(String, u64)>,
    /// The predicate fixing the expected consensus.
    pub predicate: Predicate,
    /// The scheduler.
    pub scheduler: SchedulerKind,
}

/// The fixed experiment list.
#[must_use]
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "majority 5001/4999 weighted",
            protocol: majority::majority(),
            input: vec![("A".to_string(), 5001), ("B".to_string(), 4999)],
            predicate: majority::majority_predicate(),
            scheduler: SchedulerKind::InstanceWeighted,
        },
        Experiment {
            name: "flock-unary(5) 10^4 uniform",
            protocol: flock::flock_of_birds_unary(5),
            input: vec![("a1".to_string(), 10_000)],
            predicate: Predicate::counting("a1", 5),
            scheduler: SchedulerKind::UniformEnabledTransition,
        },
        Experiment {
            name: "binary-threshold(6) 10^4 uniform",
            protocol: threshold::binary_threshold_with_leader(6),
            input: vec![("v0".to_string(), 10_000)],
            predicate: threshold::binary_threshold_predicate(6),
            scheduler: SchedulerKind::UniformEnabledTransition,
        },
    ]
}

/// The experiment seeds of pass `pass` (each experiment derives its
/// trial seeds from its own).
#[must_use]
pub fn trial_seeds(seed: u64, pass: u64, experiments: usize) -> Vec<u64> {
    let mut rng = SeedRng::new(seed, 1 << 32 | pass);
    (0..experiments).map(|_| rng.next_u64()).collect()
}

/// Runs one experiment; returns (trials, failed trials, total steps).
pub fn run_experiment(experiment: &Experiment, seed: u64) -> (u64, u64, u64) {
    let names: Multiset<String> = Multiset::from_pairs(experiment.input.iter().cloned());
    let expected = if experiment.predicate.eval(&names) {
        Output::One
    } else {
        Output::Zero
    };
    let initial = experiment
        .protocol
        .initial_config(&names)
        .expect("experiment inputs name initial states");
    let stats = ConvergenceExperiment::new(&experiment.protocol, &initial)
        .trials(TRIALS)
        .max_steps(MAX_STEPS)
        .seed(seed)
        .scheduler(experiment.scheduler)
        .threads(THREADS)
        .run();
    let steps = stats.steps.as_ref().map_or(0, |summary| {
        (summary.mean * summary.count as f64).round() as u64
    });
    let failed = if stats.consensus == Some(expected) {
        stats.exhausted as u64
    } else {
        TRIALS as u64
    };
    if failed > 0 {
        eprintln!(
            "simulate: {} (seed {seed}): consensus {:?}, expected {expected:?}, {} exhausted",
            experiment.name, stats.consensus, stats.exhausted
        );
    }
    (TRIALS as u64, failed, steps)
}

/// The `simulate` workload.
pub struct Simulate {
    experiments: Vec<Experiment>,
    seed: u64,
}

impl Simulate {
    /// Builds the experiment list and warms up with one pass under a
    /// fixed seed.
    #[must_use]
    pub fn setup(seed: u64) -> Self {
        let experiments = experiments();
        for (index, experiment) in experiments.iter().enumerate() {
            std::hint::black_box(run_experiment(experiment, index as u64));
        }
        Simulate { experiments, seed }
    }
}

impl Workload for Simulate {
    fn pass(&mut self, pass: u64, tracer: &Tracer, tally: &mut Tally) {
        let seeds = trial_seeds(self.seed, pass, self.experiments.len());
        for index in pass_order(self.seed, pass, self.experiments.len()) {
            let started = Instant::now();
            let (trials, failed, steps) = tracer.span("sim", pass * 100 + index as u64, || {
                run_experiment(&self.experiments[index], seeds[index])
            });
            tally.record(index, trials, failed, steps, started.elapsed());
        }
    }
}
