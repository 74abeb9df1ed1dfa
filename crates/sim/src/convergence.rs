//! Multi-trial convergence-time experiments.

use crate::scheduler::SchedulerKind;
use crate::simulation::{Compiled, RunOutcome, Simulation};
use crate::stats::Summary;
use pp_multiset::Multiset;
use pp_petri::Parallelism;
use pp_population::{Output, Protocol, StateId};
use std::sync::Arc;

/// A convergence-time experiment: repeated simulations of one protocol from
/// one initial configuration, with statistics over the step counts.
///
/// The protocol is compiled, and its stability oracles built, once per
/// experiment; every trial shares them. Trials fan out through
/// [`Parallelism::map`], up to [`threads`](Self::threads) at a time; each
/// trial uses an independent seed derived from the experiment seed and its
/// index, so the statistics do not depend on the thread count.
///
/// # Examples
///
/// ```
/// use pp_protocols::leaders_n::example_4_2;
/// use pp_sim::ConvergenceExperiment;
///
/// let protocol = example_4_2(2);
/// let stats = ConvergenceExperiment::new(&protocol, &protocol.initial_config_with_count(4))
///     .trials(8)
///     .max_steps(100_000)
///     .seed(7)
///     .run();
/// assert_eq!(stats.converged, 8);
/// ```
#[derive(Debug, Clone)]
pub struct ConvergenceExperiment<'p> {
    protocol: &'p Protocol,
    compiled: Arc<Compiled>,
    initial: Multiset<StateId>,
    trials: usize,
    max_steps: u64,
    seed: u64,
    scheduler: SchedulerKind,
    threads: usize,
}

/// The aggregated result of a convergence experiment.
#[derive(Debug, Clone)]
pub struct ConvergenceStats {
    /// Number of trials that converged within the step budget.
    pub converged: usize,
    /// Number of trials that exhausted the budget.
    pub exhausted: usize,
    /// Number of trials that stopped right after an inconclusive stability
    /// check (see [`RunOutcome::Inconclusive`]).
    pub inconclusive: usize,
    /// Consensus value observed by the converged trials (if they agree).
    pub consensus: Option<Output>,
    /// Summary of the step counts of converged trials.
    pub steps: Option<Summary>,
    /// Number of agents in the initial configuration.
    pub agents: u64,
}

impl ConvergenceStats {
    /// Mean number of steps per agent ("parallel time") of converged trials.
    #[must_use]
    pub fn parallel_time(&self) -> Option<f64> {
        let steps = self.steps.as_ref()?;
        Some(steps.mean / self.agents.max(1) as f64)
    }
}

impl<'p> ConvergenceExperiment<'p> {
    /// Creates an experiment with default settings (16 trials, 10⁷ steps,
    /// seed 0, uniform scheduler, up to 8 threads), compiling the protocol
    /// and building its stability oracles for all trials.
    #[must_use]
    pub fn new(protocol: &'p Protocol, initial: &Multiset<StateId>) -> Self {
        ConvergenceExperiment {
            protocol,
            compiled: Compiled::of(protocol),
            initial: initial.clone(),
            trials: 16,
            max_steps: 10_000_000,
            seed: 0,
            scheduler: SchedulerKind::default(),
            threads: 8,
        }
    }

    /// Sets the number of trials.
    #[must_use]
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials.max(1);
        self
    }

    /// Sets the per-trial step budget.
    #[must_use]
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Sets the base random seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the scheduler used by every trial.
    #[must_use]
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the maximum number of worker threads.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs all trials and aggregates the outcomes.
    #[must_use]
    pub fn run(&self) -> ConvergenceStats {
        let outcomes = self.run_trials();
        let mut steps = Vec::new();
        let mut consensus: Option<Output> = None;
        let mut consistent = true;
        let (mut exhausted, mut inconclusive) = (0usize, 0usize);
        for outcome in &outcomes {
            match outcome {
                RunOutcome::Converged {
                    consensus: value,
                    steps: s,
                } => {
                    steps.push(*s);
                    match consensus {
                        None => consensus = Some(*value),
                        Some(existing) if existing == *value => {}
                        Some(_) => consistent = false,
                    }
                }
                RunOutcome::Exhausted { .. } => exhausted += 1,
                RunOutcome::Inconclusive { .. } => inconclusive += 1,
            }
        }
        ConvergenceStats {
            converged: steps.len(),
            exhausted,
            inconclusive,
            consensus: if consistent { consensus } else { None },
            steps: Summary::of(&steps),
            agents: self.initial.total(),
        }
    }

    fn run_trials(&self) -> Vec<RunOutcome> {
        let trials: Vec<u64> = (0..self.trials as u64).collect();
        Parallelism::Parallel(self.threads).map(trials, |trial| {
            let seed = self
                .seed
                .wrapping_add(trial)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut sim = Simulation::on(
                self.protocol,
                self.compiled.clone(),
                &self.initial,
                seed,
                self.scheduler,
            );
            sim.run(self.max_steps)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_protocols::flock::flock_of_birds_doubling;
    use pp_protocols::leaders_n::example_4_2;

    #[test]
    fn all_trials_converge_and_agree_on_example_4_2() {
        let protocol = example_4_2(2);
        let initial = protocol.initial_config_with_count(6);
        let stats = ConvergenceExperiment::new(&protocol, &initial)
            .trials(6)
            .max_steps(1_000_000)
            .seed(3)
            .threads(3)
            .run();
        assert_eq!(stats.converged, 6);
        assert_eq!(stats.exhausted, 0);
        assert_eq!(stats.consensus, Some(Output::One));
        assert_eq!(stats.agents, 8);
        let summary = stats.steps.unwrap();
        assert!(summary.mean >= 1.0);
        assert!(summary.max >= summary.min);
    }

    #[test]
    fn rejecting_inputs_converge_to_zero() {
        let protocol = example_4_2(3);
        let initial = protocol.initial_config_with_count(1);
        let stats = ConvergenceExperiment::new(&protocol, &initial)
            .trials(4)
            .max_steps(1_000_000)
            .seed(11)
            .run();
        assert_eq!(stats.converged, 4);
        assert_eq!(stats.consensus, Some(Output::Zero));
        assert!(stats.parallel_time().unwrap() >= 0.0);
    }

    #[test]
    fn zero_step_budget_exhausts_nontrivial_runs() {
        let protocol = flock_of_birds_doubling(2);
        let initial = protocol.initial_config_with_count(5);
        let stats = ConvergenceExperiment::new(&protocol, &initial)
            .trials(3)
            .max_steps(0)
            .run();
        assert_eq!(stats.converged, 0);
        assert_eq!(stats.exhausted, 3);
        assert_eq!(stats.inconclusive, 0);
        assert!(stats.steps.is_none());
        assert_eq!(stats.consensus, None);
    }

    #[test]
    fn stats_do_not_depend_on_the_thread_count() {
        let protocol = flock_of_birds_doubling(2);
        let initial = protocol.initial_config_with_count(5);
        let run = |threads| {
            ConvergenceExperiment::new(&protocol, &initial)
                .trials(7)
                .max_steps(100_000)
                .seed(13)
                .threads(threads)
                .run()
        };
        let (one, three) = (run(1), run(3));
        assert_eq!(one.converged, 7);
        assert_eq!(
            (
                one.converged,
                one.exhausted,
                one.inconclusive,
                one.consensus
            ),
            (
                three.converged,
                three.exhausted,
                three.inconclusive,
                three.consensus
            )
        );
        assert_eq!(one.steps, three.steps);
    }

    #[test]
    fn deterministic_given_a_seed() {
        let protocol = example_4_2(2);
        let initial = protocol.initial_config_with_count(5);
        let run = |seed| {
            ConvergenceExperiment::new(&protocol, &initial)
                .trials(4)
                .seed(seed)
                .max_steps(1_000_000)
                .run()
                .steps
                .unwrap()
                .mean
        };
        assert_eq!(run(5), run(5));
    }
}
