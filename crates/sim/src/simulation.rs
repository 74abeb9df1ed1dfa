//! A single protocol execution under a random scheduler.

use crate::scheduler::{SchedulerKind, SchedulerState};
use crate::{compile_protocol, DenseConfig, DenseNet};
use pp_multiset::Multiset;
use pp_petri::ExplorationLimits;
use pp_population::stable::ProtocolStability;
use pp_population::{Output, Protocol, StateId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Stability answers per configuration, keyed by its dense counts (one
/// per protocol state, so equal counts are equal configurations); `None`
/// when undecided. Only point lookups touch it, so its storage order never
/// reaches a result.
#[expect(
    clippy::disallowed_types,
    reason = "lookup-only memo: never iterated outside a one-entry test"
)]
type StabilityCache = std::collections::HashMap<Box<[u64]>, Option<bool>>;

/// What every simulation of one protocol shares and never changes: the
/// protocol compiled onto the dense engine and its stability oracles.
/// [`Simulation::new`] builds its own; a
/// [`ConvergenceExperiment`](crate::ConvergenceExperiment) builds one for
/// all its trials.
#[derive(Debug)]
pub(crate) struct Compiled {
    net: DenseNet,
    stability: ProtocolStability,
}

impl Compiled {
    /// Compiles `protocol` and builds its stability oracles.
    pub(crate) fn of(protocol: &Protocol) -> Arc<Self> {
        Arc::new(Compiled {
            net: compile_protocol(protocol),
            stability: ProtocolStability::new(protocol),
        })
    }
}

/// The result of one simulation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The scheduler fired the transition with this index.
    Fired(usize),
    /// No transition is enabled: the configuration is silent.
    Silent,
}

/// The outcome of running a simulation until convergence or a step budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The execution reached a configuration that is output-stable for the
    /// given consensus value after the reported number of steps.
    Converged {
        /// Consensus output value of the stable configuration.
        consensus: Output,
        /// Number of scheduler steps taken.
        steps: u64,
    },
    /// The step budget was exhausted before convergence was detected.
    Exhausted {
        /// The step budget that was spent.
        steps: u64,
    },
    /// The run stopped (budget spent, or silent) right after a stability
    /// check that could not decide: the configuration has a consensus, but
    /// the bounded exploration behind the check was truncated.
    Inconclusive {
        /// Number of scheduler steps taken.
        steps: u64,
    },
}

impl RunOutcome {
    /// Steps taken by the run (whether or not it converged).
    #[must_use]
    pub fn steps(&self) -> u64 {
        match self {
            RunOutcome::Converged { steps, .. }
            | RunOutcome::Exhausted { steps }
            | RunOutcome::Inconclusive { steps } => *steps,
        }
    }

    /// Returns the consensus value if the run converged.
    #[must_use]
    pub fn consensus(&self) -> Option<Output> {
        match self {
            RunOutcome::Converged { consensus, .. } => Some(*consensus),
            RunOutcome::Exhausted { .. } | RunOutcome::Inconclusive { .. } => None,
        }
    }
}

/// A single execution of a protocol under a random scheduler.
///
/// Convergence is detected *exactly*: whenever the current configuration has
/// an output consensus, the simulator asks the protocol's stability oracle
/// whether the configuration is output-stable for that value (results are
/// memoized per configuration). This removes the usual guesswork of
/// "has it stopped changing?" heuristics. A check the oracle cannot decide
/// is remembered as undecided, never as "not stable".
///
/// # Examples
///
/// ```
/// use pp_protocols::leaders_n::example_4_2;
/// use pp_sim::Simulation;
///
/// let protocol = example_4_2(2);
/// let mut sim = Simulation::new(&protocol, &protocol.initial_config_with_count(5), 42);
/// let outcome = sim.run(100_000);
/// assert!(outcome.consensus().is_some());
/// ```
#[derive(Debug)]
pub struct Simulation<'p> {
    protocol: &'p Protocol,
    compiled: Arc<Compiled>,
    scheduler: SchedulerState,
    config: DenseConfig,
    rng: StdRng,
    steps: u64,
    stability_cache: StabilityCache,
}

impl<'p> Simulation<'p> {
    /// Creates a simulation of `protocol` from the configuration `initial`
    /// with the given random seed.
    #[must_use]
    pub fn new(protocol: &'p Protocol, initial: &Multiset<StateId>, seed: u64) -> Self {
        Self::on(
            protocol,
            Compiled::of(protocol),
            initial,
            seed,
            SchedulerKind::default(),
        )
    }

    /// A simulation of `protocol` on its already `compiled` form (which
    /// must be `Compiled::of(protocol)`), under `scheduler`.
    pub(crate) fn on(
        protocol: &'p Protocol,
        compiled: Arc<Compiled>,
        initial: &Multiset<StateId>,
        seed: u64,
        scheduler: SchedulerKind,
    ) -> Self {
        let config = compiled.net.dense_config(initial);
        Simulation {
            scheduler: SchedulerState::new(scheduler, &compiled.net, &config),
            config,
            compiled,
            rng: StdRng::seed_from_u64(seed),
            steps: 0,
            stability_cache: StabilityCache::new(),
            protocol,
        }
    }

    /// Selects the scheduler (default: uniform over enabled transitions).
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = SchedulerState::new(scheduler, &self.compiled.net, &self.config);
        self
    }

    /// The current configuration (sparse view).
    #[must_use]
    pub fn config(&self) -> Multiset<StateId> {
        self.compiled.net.to_multiset(&self.config)
    }

    /// Number of steps taken so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Performs one scheduler step.
    pub fn step(&mut self) -> StepOutcome {
        match self.scheduler.choose(&mut self.rng) {
            Some(t) => {
                self.compiled.net.transitions()[t].fire(&mut self.config);
                self.scheduler.fired(t, &self.config);
                self.steps += 1;
                StepOutcome::Fired(t)
            }
            None => StepOutcome::Silent,
        }
    }

    /// The consensus output of the current configuration, if all populated
    /// states agree (the empty configuration has consensus `0`).
    #[must_use]
    pub fn consensus(&self) -> Option<Output> {
        let mut value = None;
        for (state, &count) in self.config.counts().iter().enumerate() {
            if count == 0 {
                continue;
            }
            let output = self.protocol.output(StateId(state));
            match value {
                None => value = Some(output),
                Some(v) if v == output => {}
                Some(_) => return None,
            }
        }
        Some(value.unwrap_or(Output::Zero))
    }

    /// The consensus of the current configuration if it is output-stable
    /// for it (memoized exact check), `None` otherwise — including when the
    /// check is inconclusive.
    pub fn is_converged(&mut self) -> Option<Output> {
        match self.stability() {
            Some((consensus, Some(true))) => Some(consensus),
            _ => None,
        }
    }

    /// The consensus of the current configuration, if it has a 0/1 one,
    /// with the memoized answer to "is it output-stable for it?" (`None`
    /// when the oracle's bounded exploration was truncated).
    fn stability(&mut self) -> Option<(Output, Option<bool>)> {
        let consensus = self.consensus()?;
        let value = match consensus {
            Output::Zero => false,
            Output::One => true,
            Output::Star => return None,
        };
        let stable = match self.stability_cache.get(self.config.counts()) {
            Some(&cached) => cached,
            None => {
                let result = self.compiled.stability.is_output_stable(
                    self.protocol,
                    &self.compiled.net.to_multiset(&self.config),
                    value,
                    &ExplorationLimits::default(),
                );
                self.stability_cache
                    .insert(self.config.counts().into(), result);
                result
            }
        };
        Some((consensus, stable))
    }

    /// Runs until convergence or until `max_steps` scheduler steps.
    ///
    /// Convergence is checked whenever the configuration is silent and
    /// otherwise every `n` steps (with `n` the number of agents), so the
    /// reported step count overestimates the true convergence time by at most
    /// one such window. A run that stops right after an inconclusive check
    /// reports [`RunOutcome::Inconclusive`] instead of
    /// [`RunOutcome::Exhausted`].
    pub fn run(&mut self, max_steps: u64) -> RunOutcome {
        let window = self.config.total().max(1);
        loop {
            let inconclusive = match self.stability() {
                Some((consensus, Some(true))) => {
                    return RunOutcome::Converged {
                        consensus,
                        steps: self.steps,
                    }
                }
                checked => matches!(checked, Some((_, None))),
            };
            let stopped = |steps| {
                if inconclusive {
                    RunOutcome::Inconclusive { steps }
                } else {
                    RunOutcome::Exhausted { steps }
                }
            };
            if self.steps >= max_steps {
                return stopped(self.steps);
            }
            let mut fired_any = false;
            for _ in 0..window {
                match self.step() {
                    StepOutcome::Fired(_) => {
                        fired_any = true;
                        if self.steps >= max_steps {
                            break;
                        }
                    }
                    StepOutcome::Silent => break,
                }
            }
            if !fired_any {
                // Silent but not output-stable (e.g. a stuck mixed-output
                // configuration of an ill-specified protocol): report the
                // budget as exhausted rather than spinning forever.
                return stopped(self.steps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConvergenceExperiment;
    use pp_population::ProtocolBuilder;
    use pp_protocols::flock::flock_of_birds_unary;
    use pp_protocols::leaders_n::example_4_2;
    use pp_protocols::majority::majority;

    #[test]
    fn example_4_2_converges_to_the_right_consensus() {
        let protocol = example_4_2(2);
        // 5 ≥ 2: must converge to consensus 1.
        let mut sim = Simulation::new(&protocol, &protocol.initial_config_with_count(5), 1);
        match sim.run(1_000_000) {
            RunOutcome::Converged { consensus, steps } => {
                assert_eq!(consensus, Output::One);
                assert!(steps > 0);
            }
            other => panic!("simulation did not converge: {other:?}"),
        }
        // 1 < 2: must converge to consensus 0.
        let mut sim = Simulation::new(&protocol, &protocol.initial_config_with_count(1), 2);
        assert_eq!(sim.run(1_000_000).consensus(), Some(Output::Zero));
    }

    #[test]
    fn silent_initial_configuration_converges_immediately() {
        let protocol = example_4_2(3);
        // Only the three leaders: already 0-output stable.
        let mut sim = Simulation::new(&protocol, &protocol.initial_config_with_count(0), 3);
        let outcome = sim.run(10);
        assert_eq!(
            outcome,
            RunOutcome::Converged {
                consensus: Output::Zero,
                steps: 0
            }
        );
    }

    #[test]
    fn flock_of_birds_detects_threshold() {
        let protocol = flock_of_birds_unary(4);
        let mut sim = Simulation::new(&protocol, &protocol.initial_config_with_count(6), 11);
        assert_eq!(sim.run(1_000_000).consensus(), Some(Output::One));
        let mut sim = Simulation::new(&protocol, &protocol.initial_config_with_count(3), 12);
        assert_eq!(sim.run(1_000_000).consensus(), Some(Output::Zero));
    }

    #[test]
    fn majority_simulation_with_instance_weighted_scheduler() {
        let protocol = majority();
        let a = protocol.state_id("A").unwrap();
        let b = protocol.state_id("B").unwrap();
        let initial = Multiset::from_pairs([(a, 7u64), (b, 3)]);
        let mut sim =
            Simulation::new(&protocol, &initial, 5).with_scheduler(SchedulerKind::InstanceWeighted);
        assert_eq!(sim.run(1_000_000).consensus(), Some(Output::One));
        let initial = Multiset::from_pairs([(a, 3u64), (b, 7)]);
        let mut sim =
            Simulation::new(&protocol, &initial, 6).with_scheduler(SchedulerKind::InstanceWeighted);
        assert_eq!(sim.run(1_000_000).consensus(), Some(Output::Zero));
    }

    /// An all-output-1 protocol whose transition `x → x + x` creates agents:
    /// every configuration has consensus 1, but the non-conservative
    /// 1-stability check explores an infinite chain and truncates.
    fn doubling() -> Protocol {
        let mut builder = ProtocolBuilder::new("doubling");
        let x = builder.state("x", Output::One);
        builder.initial(x);
        builder.transition(&[(x, 1)], &[(x, 2)]);
        builder.build().unwrap()
    }

    #[test]
    fn inconclusive_checks_are_reported_and_not_cached_as_unstable() {
        let protocol = doubling();
        let initial = protocol.initial_config_with_count(1);
        let mut sim = Simulation::new(&protocol, &initial, 4);
        assert_eq!(sim.consensus(), Some(Output::One));
        assert_eq!(sim.is_converged(), None);
        assert_eq!(
            sim.stability_cache.values().copied().collect::<Vec<_>>(),
            [None]
        );
        assert_eq!(sim.run(0), RunOutcome::Inconclusive { steps: 0 });
        assert_eq!(
            sim.stability_cache.len(),
            1,
            "the memo answered the re-check"
        );

        let stats = ConvergenceExperiment::new(&protocol, &initial)
            .trials(2)
            .threads(2)
            .max_steps(0)
            .run();
        assert_eq!(
            (stats.converged, stats.exhausted, stats.inconclusive),
            (0, 0, 2)
        );
    }

    #[test]
    fn exhausted_budget_is_reported() {
        let protocol = example_4_2(2);
        let mut sim = Simulation::new(&protocol, &protocol.initial_config_with_count(6), 9);
        let outcome = sim.run(0);
        assert_eq!(outcome, RunOutcome::Exhausted { steps: 0 });
        assert_eq!(outcome.consensus(), None);
        assert_eq!(outcome.steps(), 0);
    }
}
