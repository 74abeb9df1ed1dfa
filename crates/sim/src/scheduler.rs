//! Schedulers: how the next interaction is chosen.
//!
//! [`SchedulerKind::choose`] decides from scratch on every call;
//! [`SchedulerState`] is the incremental form a [`Simulation`] steps with.
//! Both make the same random draw and pick the same transition, so a seed
//! determines one trajectory whichever form runs it.
//!
//! [`Simulation`]: crate::Simulation

use pp_petri::engine::{CompiledNet, CompiledTransition, DenseConfig};
use rand::Rng;

/// The random scheduler driving a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Pick uniformly among the *enabled transitions* of the net.
    ///
    /// Cheap and adequate for measuring convergence shapes; this is the
    /// default.
    #[default]
    UniformEnabledTransition,
    /// Pick a transition with probability proportional to the number of ways
    /// it can fire in the current configuration (its number of *instances*).
    ///
    /// For classical width-2 protocols this is the textbook "pick an ordered
    /// pair of distinct agents uniformly at random" scheduler conditioned on
    /// the pair being able to interact.
    InstanceWeighted,
}

impl SchedulerKind {
    /// Chooses the next transition to fire, or `None` if no transition is
    /// enabled (the configuration is silent).
    ///
    /// This decides from scratch, testing every transition; it is the
    /// reference [`SchedulerState::choose`] is tested against.
    #[must_use]
    pub fn choose<P: Clone + Ord, R: Rng>(
        self,
        net: &CompiledNet<P>,
        config: &DenseConfig,
        rng: &mut R,
    ) -> Option<usize> {
        match self {
            SchedulerKind::UniformEnabledTransition => {
                let enabled = net.enabled(config);
                if enabled.is_empty() {
                    None
                } else {
                    Some(enabled[rng.gen_range(0..enabled.len())])
                }
            }
            SchedulerKind::InstanceWeighted => {
                let weights: Vec<u128> = net
                    .transitions()
                    .iter()
                    .map(|t| weight(t, config))
                    .collect();
                let total: u128 = weights.iter().sum();
                if total == 0 {
                    return None;
                }
                let mut draw = rng.gen_range(0..total);
                let mut fallback = None;
                for (index, &w) in weights.iter().enumerate() {
                    if w == 0 {
                        continue;
                    }
                    fallback = Some(index);
                    if draw < w {
                        return Some(index);
                    }
                    draw -= w;
                }
                // With `draw < total` and only positive weights consumed,
                // the loop always returns; if arithmetic ever degraded, the
                // explicit fallback keeps the draw on an enabled transition
                // instead of falling off the loop.
                fallback
            }
        }
    }
}

/// The instance-weighted scheduler's weight of `t` in `config`: its
/// instance count, which is 0 exactly when it is disabled.
fn weight(t: &CompiledTransition, config: &DenseConfig) -> u128 {
    let instances = t.instances(config);
    // `instances` is a product of binomials over the precondition, and a
    // binomial `C(n, k)` is 0 exactly when `n < k`: the count is positive
    // exactly when every required place holds enough agents. A custom
    // transition breaking this would let the draw loops pick a disabled
    // transition, so pin it down here.
    debug_assert_eq!(
        t.is_enabled(config),
        instances > 0,
        "enabledness and instance count disagree"
    );
    instances
}

/// The scheduler state of one simulation, built once and updated after
/// every firing.
///
/// Firing `t` can only change the enabledness and the instance count of
/// transitions whose precondition mentions a place whose count `t` changes.
/// Those are `t`'s *dependents*, precomputed at build time; a catalyst
/// place (as many agents consumed as produced) does not make a dependent.
/// [`fired`](Self::fired) refreshes only them, and
/// [`choose`](Self::choose) walks the cached flags or weights without
/// allocating.
///
/// `choose` makes the same `gen_range` call and picks the same transition
/// as [`SchedulerKind::choose`] on the current configuration, so every seed
/// replays the same trajectory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerState {
    transitions: Vec<CompiledTransition>,
    /// `dependents[dep_start[t]..dep_start[t + 1]]` are `t`'s dependents,
    /// in index order.
    dep_start: Vec<usize>,
    dependents: Vec<u32>,
    cache: Cache,
}

/// Per-transition scheduler data, kept current for the configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Cache {
    /// [`SchedulerKind::UniformEnabledTransition`]: one enabled flag per
    /// transition, and how many are set.
    Uniform { enabled: Vec<bool>, count: usize },
    /// [`SchedulerKind::InstanceWeighted`]: one weight per transition (see
    /// [`weight`]), and their sum.
    Weighted { weights: Vec<u128>, total: u128 },
}

impl SchedulerState {
    /// Builds the state of a `kind` scheduler over `net` in `config`.
    #[must_use]
    pub fn new<P: Clone + Ord>(
        kind: SchedulerKind,
        net: &CompiledNet<P>,
        config: &DenseConfig,
    ) -> Self {
        let transitions = net.transitions().to_vec();
        let mut delta = vec![0i128; net.num_places()];
        let mut dep_start = vec![0];
        let mut dependents = Vec::new();
        for t in &transitions {
            t.pre()
                .iter()
                .for_each(|&(p, c)| delta[p as usize] -= i128::from(c));
            t.post()
                .iter()
                .for_each(|&(p, c)| delta[p as usize] += i128::from(c));
            dependents.extend(
                (0u32..)
                    .zip(&transitions)
                    .filter(|(_, u)| u.pre().iter().any(|&(p, _)| delta[p as usize] != 0))
                    .map(|(u, _)| u),
            );
            dep_start.push(dependents.len());
            for &(p, _) in t.pre().iter().chain(t.post()) {
                delta[p as usize] = 0;
            }
        }
        let cache = match kind {
            SchedulerKind::UniformEnabledTransition => {
                let enabled: Vec<bool> = transitions.iter().map(|t| t.is_enabled(config)).collect();
                let count = enabled.iter().filter(|&&on| on).count();
                Cache::Uniform { enabled, count }
            }
            SchedulerKind::InstanceWeighted => {
                let weights: Vec<u128> = transitions.iter().map(|t| weight(t, config)).collect();
                let total = weights.iter().fold(0u128, |sum, &w| sum.wrapping_add(w));
                Cache::Weighted { weights, total }
            }
        };
        SchedulerState {
            transitions,
            dep_start,
            dependents,
            cache,
        }
    }

    /// The transitions whose enabledness or instance count firing `t` can
    /// change, in index order.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a transition index of the net.
    #[must_use]
    pub fn dependents(&self, t: usize) -> &[u32] {
        &self.dependents[self.dep_start[t]..self.dep_start[t + 1]]
    }

    /// Chooses the next transition to fire, or `None` if no transition is
    /// enabled (the configuration is silent).
    ///
    /// Uniform: the k-th enabled transition in index order for a draw
    /// `k ∈ 0..enabled`. Instance-weighted: the first transition whose
    /// prefix sum of weights exceeds a draw in `0..total`.
    #[must_use]
    pub fn choose<R: Rng>(&self, rng: &mut R) -> Option<usize> {
        match &self.cache {
            Cache::Uniform { enabled, count } => {
                if *count == 0 {
                    return None;
                }
                let k = rng.gen_range(0..*count);
                enabled
                    .iter()
                    .enumerate()
                    .filter(|&(_, &on)| on)
                    .nth(k)
                    .map(|(index, _)| index)
            }
            Cache::Weighted { weights, total } => {
                if *total == 0 {
                    return None;
                }
                let mut draw = rng.gen_range(0..*total);
                for (index, &w) in weights.iter().enumerate() {
                    if draw < w {
                        return Some(index);
                    }
                    draw -= w;
                }
                // Unreachable while `total` is the sum of the weights; like
                // the reference, stay on an enabled transition regardless.
                weights.iter().rposition(|&w| w > 0)
            }
        }
    }

    /// Brings the state up to date after transition `t` fired, leaving
    /// `config`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a transition index of the net.
    pub fn fired(&mut self, t: usize, config: &DenseConfig) {
        let dependents = &self.dependents[self.dep_start[t]..self.dep_start[t + 1]];
        match &mut self.cache {
            Cache::Uniform { enabled, count } => {
                for &u in dependents {
                    let u = u as usize;
                    let now = self.transitions[u].is_enabled(config);
                    if now != enabled[u] {
                        enabled[u] = now;
                        if now {
                            *count += 1;
                        } else {
                            *count -= 1;
                        }
                    }
                }
            }
            Cache::Weighted { weights, total } => {
                for &u in dependents {
                    let u = u as usize;
                    let now = weight(&self.transitions[u], config);
                    *total = total.wrapping_sub(weights[u]).wrapping_add(now);
                    weights[u] = now;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_protocol;
    use pp_protocols::leaders_n::example_4_2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn both_schedulers_only_pick_enabled_transitions() {
        let protocol = example_4_2(2);
        let net = compile_protocol(&protocol);
        let initial = protocol.initial_config_with_count(4);
        let config = net.dense_config(&initial);
        let mut rng = StdRng::seed_from_u64(7);
        for kind in [
            SchedulerKind::UniformEnabledTransition,
            SchedulerKind::InstanceWeighted,
        ] {
            for _ in 0..50 {
                let choice = kind.choose(&net, &config, &mut rng).expect("enabled");
                assert!(net.transitions()[choice].is_enabled(&config));
            }
        }
    }

    #[test]
    fn instance_weighted_follows_instance_counts() {
        use pp_multiset::Multiset;
        use pp_petri::{PetriNet, Transition};
        // t0's weight is the number of a's, t1's the number of b's: with
        // 9 a's and 3 b's, t0 must be drawn about three times as often. A
        // desynchronized draw loop (weights and draws walking different
        // transition sets) would skew this ratio or fall off the loop.
        let net = PetriNet::from_transitions([
            Transition::new(
                Multiset::from_pairs([("a", 1u64)]),
                Multiset::from_pairs([("a", 1u64)]),
            ),
            Transition::new(
                Multiset::from_pairs([("b", 1u64)]),
                Multiset::from_pairs([("b", 1u64)]),
            ),
        ]);
        let engine = pp_petri::CompiledNet::compile(&net);
        let config = engine.dense_config(&Multiset::from_pairs([("a", 9u64), ("b", 3)]));
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0u64; 2];
        for _ in 0..12_000 {
            let choice = SchedulerKind::InstanceWeighted
                .choose(&engine, &config, &mut rng)
                .expect("both transitions enabled");
            counts[choice] += 1;
        }
        assert_eq!(counts[0] + counts[1], 12_000);
        // Expected split 9000 / 3000; allow ±600 (≈ 7.5 standard deviations).
        assert!(
            (8_400..=9_600).contains(&counts[0]),
            "instance-weighted draw skewed: {counts:?}"
        );
    }

    #[test]
    fn silent_configuration_yields_none() {
        let protocol = example_4_2(1);
        let net = compile_protocol(&protocol);
        // Only leaders: nothing can interact.
        let initial = protocol.initial_config_with_count(0);
        let config = net.dense_config(&initial);
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(
            SchedulerKind::UniformEnabledTransition.choose(&net, &config, &mut rng),
            None
        );
        assert_eq!(
            SchedulerKind::InstanceWeighted.choose(&net, &config, &mut rng),
            None
        );
    }
}
