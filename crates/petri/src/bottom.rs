//! Theorem 6.1: reaching bottom configurations with short executions.
//!
//! Theorem 6.1 of the paper states that from any configuration `ρ` one can
//! reach, by words of doubly-exponentially bounded length, a configuration `α`
//! and then a configuration `β` such that for some set of places `Q`:
//!
//! * `α|_Q = β|_Q` and `α(p) < β(p)` for every place outside `Q` (so the
//!   execution from `α` to `β` can be *pumped* to inflate the places outside
//!   `Q` arbitrarily),
//! * `α|_Q` is a `T|_Q`-bottom configuration whose component has at most `b`
//!   elements, where `b = (4 + 4‖T‖∞ + 2‖ρ‖∞)^(dᵈ(1+(2+dᵈ)^(d+1)))`.
//!
//! This module provides the bound ([`theorem_6_1_bound`]) and an executable
//! witness search ([`find_bottom_witness`]) used by the Section 8 pipeline of
//! the `pp-statecomplexity` crate. The witness search is exact on nets whose
//! reachability graph from `ρ` fits in the exploration limits (in particular
//! on conservative nets started from small configurations, which is the case
//! the pipeline exercises).

use crate::component::{bottom_component_size_in, is_bottom, reach_bottom_in};
use crate::session::Analysis;
use crate::{ExplorationLimits, PetriNet};
use pp_bigint::{Nat, PowerBound};
use pp_multiset::Multiset;
use std::collections::{BTreeMap, BTreeSet};

/// The exponent `dᵈ(1 + (2 + dᵈ)^(d+1))` of Theorem 6.1.
#[must_use]
pub fn theorem_6_1_exponent(d: u64) -> Nat {
    if d == 0 {
        return Nat::zero();
    }
    let dd = Nat::from(d).pow(d);
    let inner = (Nat::from(2u64) + &dd).pow(d + 1);
    dd * (Nat::one() + inner)
}

/// The bound `b` of Theorem 6.1 for the net `net` and configuration `rho`,
/// in symbolic form (the exponent is astronomically large for `d ≥ 4`).
#[must_use]
pub fn theorem_6_1_bound<P: Clone + Ord>(net: &PetriNet<P>, rho: &Multiset<P>) -> PowerBound {
    let d = net.num_places() as u64;
    let base = Nat::from(4 + 4 * net.sup_norm() + 2 * rho.sup_norm());
    PowerBound::new(base, theorem_6_1_exponent(d))
}

/// A witness for Theorem 6.1: words `σ`, `w`, a set of places `Q` and
/// configurations `α`, `β` satisfying the theorem's conditions.
#[derive(Debug, Clone)]
pub struct BottomWitness<P: Ord> {
    /// Word (transition indices) with `ρ --σ--> α`.
    pub sigma: Vec<usize>,
    /// Word (transition indices) with `α --w--> β`.
    pub w: Vec<usize>,
    /// The set `Q`: places on which `α` and `β` agree and whose restriction is bottom.
    pub q_places: BTreeSet<P>,
    /// Places outside `Q` (strictly pumped by `w`).
    pub pumped_places: BTreeSet<P>,
    /// The configuration `α`.
    pub alpha: Multiset<P>,
    /// The configuration `β`.
    pub beta: Multiset<P>,
    /// Cardinality of the `T|_Q`-component of `α|_Q`.
    pub component_size: usize,
}

impl<P: Clone + Ord> BottomWitness<P> {
    /// Checks every condition of Theorem 6.1 on this witness.
    ///
    /// Returns `false` (rather than panicking) when a condition fails or when
    /// the bottom check cannot be decided within `limits`.
    #[must_use]
    pub fn validate(
        &self,
        net: &PetriNet<P>,
        rho: &Multiset<P>,
        limits: &ExplorationLimits,
    ) -> bool {
        // ρ --σ--> α --w--> β.
        if net.fire_word(rho, &self.sigma) != Some(self.alpha.clone()) {
            return false;
        }
        if net.fire_word(&self.alpha, &self.w) != Some(self.beta.clone()) {
            return false;
        }
        // α|Q = β|Q and α(p) < β(p) outside Q.
        if self.alpha.restrict(&self.q_places) != self.beta.restrict(&self.q_places) {
            return false;
        }
        for p in net.places() {
            if !self.q_places.contains(p) && self.alpha.get(p) >= self.beta.get(p) {
                return false;
            }
        }
        // α|Q is T|Q-bottom.
        let restricted = net.restrict(&self.q_places);
        let alpha_q = self.alpha.restrict(&self.q_places);
        matches!(is_bottom(&restricted, &alpha_q, limits), Some(true))
    }

    /// Checks the quantitative part of Theorem 6.1: all of `|σ|`, `|w|`,
    /// `d·‖α‖∞`, `d·‖β‖∞` and the component size are at most `b`.
    #[must_use]
    pub fn within_bound<P2: Clone + Ord>(&self, net: &PetriNet<P2>, bound: &PowerBound) -> bool {
        let d = net.num_places() as u64;
        let quantities = [
            Nat::from(self.sigma.len() as u64),
            Nat::from(self.w.len() as u64),
            Nat::from(d * self.alpha.sup_norm()),
            Nat::from(d * self.beta.sup_norm()),
            Nat::from(self.component_size as u64),
        ];
        quantities
            .iter()
            .all(|q| PowerBound::exact(q.clone()).approx_cmp(bound) != std::cmp::Ordering::Greater)
    }
}

/// Searches for a Theorem 6.1 witness from `rho`.
///
/// The search prefers witnesses with a *proper* pumping set (some place
/// strictly increases from `α` to `β`); when the reachability graph from `rho`
/// has no such pair — which is always the case for conservative nets, whose
/// reachable configurations all have the same number of agents — it falls back
/// to the degenerate witness `Q = P`, `β = α`, `w = ε` on a bottom
/// configuration reachable from `rho` (which satisfies the theorem).
///
/// Returns `None` when no witness is found within `limits`: the pumping
/// search works on the (possibly truncated) reachability graph — any witness
/// it returns is validated by re-firing the words, so truncation can only
/// cause a miss, never an unsound answer — while the degenerate fallback
/// additionally requires the exploration to be complete.
#[must_use]
pub fn find_bottom_witness<P: Clone + Ord>(
    net: &PetriNet<P>,
    rho: &Multiset<P>,
    limits: &ExplorationLimits,
) -> Option<BottomWitness<P>> {
    find_bottom_witness_in(&mut Analysis::new(net), rho, limits)
}

/// [`find_bottom_witness`] on an existing [`Analysis`] session.
///
/// The session is what makes the two-phase search cheap: the truncated
/// pumping exploration (strategy A) and the full-limit bottom search
/// (strategy B) start from the *same* initial configuration, so strategy B
/// [resumes](crate::ReachabilityGraph::resume) the pump graph in place —
/// re-expanding only its budget frontier — instead of rebuilding the
/// reachability set from scratch.
#[must_use]
pub fn find_bottom_witness_in<P: Clone + Ord>(
    analysis: &mut Analysis<P>,
    rho: &Multiset<P>,
    limits: &ExplorationLimits,
) -> Option<BottomWitness<P>> {
    search_bottom_witness(analysis, rho, limits, bottom_component_size_in)
}

/// [`find_bottom_witness_in`] with the verdict of each distinct restriction
/// `(Q, α|Q)` taken from `resolve(T|Q session, α|Q, pump limits)`, so that
/// tests can observe every restriction the search resolves.
pub(crate) fn search_bottom_witness<P, F>(
    analysis: &mut Analysis<P>,
    rho: &Multiset<P>,
    limits: &ExplorationLimits,
    mut resolve: F,
) -> Option<BottomWitness<P>>
where
    P: Clone + Ord,
    F: FnMut(&mut Analysis<P>, &Multiset<P>, &ExplorationLimits) -> Option<usize>,
{
    let net = analysis.net().clone();
    // Strategy A: look for a pumpable pair α ≤ β (α ≠ β) whose agreement set
    // Q yields a bottom restriction. Pumpable pairs only exist when the net
    // can grow, in which case the reachability graph is infinite anyway, so
    // this search runs on a deliberately small truncated exploration.
    const PUMP_SEARCH_NODE_LIMIT: usize = 1_500;
    let pump_limits = ExplorationLimits {
        max_configurations: limits.max_configurations.min(PUMP_SEARCH_NODE_LIMIT),
        ..*limits
    };
    let graph = analysis
        .reachability([rho.clone()])
        .limits(pump_limits)
        .run();
    if let Some(start) = graph.id_of(rho) {
        // Whether a pair passes the bottom check, and the component size it
        // reports, depend on the pair only through the restriction
        // `(Q, α|Q)`, and most pairs share one with an earlier pair. Each
        // distinct restriction is therefore resolved once (`Some(size)` when
        // `α|Q` is `T|Q`-bottom within the pump limits, `None` otherwise)
        // and each distinct `T|Q` compiled once. The scan order and every
        // check are unchanged, so the first passing pair — the witness — is
        // the same as without the memo.
        let mut sessions: BTreeMap<BTreeSet<P>, Analysis<P>> = BTreeMap::new();
        let mut verdicts: BTreeMap<(BTreeSet<P>, Multiset<P>), Option<usize>> = BTreeMap::new();
        for alpha_id in graph.ids() {
            let alpha = graph.node(alpha_id);
            let reachable = graph.reachable_from(alpha_id);
            for beta_id in graph.ids().filter(|&id| reachable[id]) {
                if beta_id == alpha_id {
                    continue;
                }
                let beta = graph.node(beta_id);
                if !alpha.le(beta) || alpha == beta {
                    continue;
                }
                let q_places: BTreeSet<P> = net
                    .places()
                    .iter()
                    .filter(|p| alpha.get(p) == beta.get(p))
                    .cloned()
                    .collect();
                let pumped: BTreeSet<P> = net
                    .places()
                    .iter()
                    .filter(|p| !q_places.contains(*p))
                    .cloned()
                    .collect();
                if pumped.is_empty() {
                    continue;
                }
                let alpha_q = alpha.restrict(&q_places);
                let key = (q_places, alpha_q);
                // The bottom check and component of the witness are small by
                // construction (their size is what Theorem 6.1 bounds), so
                // they are explored under the same truncated limits as the
                // pumping search: a candidate needing more is simply skipped.
                let verdict = match verdicts.get(&key) {
                    Some(&verdict) => verdict,
                    None => {
                        let (q_places, alpha_q) = &key;
                        let session = sessions
                            .entry(q_places.clone())
                            .or_insert_with(|| Analysis::new(&net.restrict(q_places)));
                        let verdict = resolve(session, alpha_q, &pump_limits);
                        verdicts.insert(key.clone(), verdict);
                        verdict
                    }
                };
                let Some(component_size) = verdict else {
                    continue;
                };
                let (_, sigma) = graph.path_to(start, |id| id == alpha_id)?;
                let (_, w) = graph.path_to(alpha_id, |id| id == beta_id)?;
                let (q_places, _) = key;
                return Some(BottomWitness {
                    sigma,
                    w,
                    q_places,
                    pumped_places: pumped,
                    alpha: alpha.clone(),
                    beta: beta.clone(),
                    component_size,
                });
            }
        }
    }

    // Strategy B: degenerate witness on a reachable bottom configuration
    // (`reach_bottom_in` itself returns `None` when the exploration under
    // the caller's full limits is incomplete). The session resumes the
    // strategy-A pump graph here: `limits` dominates `pump_limits`, so only
    // the pump budget's frontier re-expands.
    drop(graph);
    let (alpha, sigma) = reach_bottom_in(analysis, rho, limits)?;
    let q_places: BTreeSet<P> = net.places().clone();
    let component_size = crate::component::component_size_in(analysis, &alpha, limits)?;
    Some(BottomWitness {
        sigma,
        w: Vec::new(),
        q_places,
        pumped_places: BTreeSet::new(),
        alpha: alpha.clone(),
        beta: alpha,
        component_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transition;

    fn ms(pairs: &[(&'static str, u64)]) -> Multiset<&'static str> {
        Multiset::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn exponent_values() {
        assert_eq!(theorem_6_1_exponent(0), Nat::zero());
        // d = 1: 1·(1 + 3²) = 10.
        assert_eq!(theorem_6_1_exponent(1), Nat::from(10u64));
        // d = 2: 4·(1 + 6³) = 4·217 = 868.
        assert_eq!(theorem_6_1_exponent(2), Nat::from(868u64));
    }

    #[test]
    fn bound_is_symbolic_for_large_nets() {
        let mut net: PetriNet<u32> = PetriNet::new();
        for p in 0..8u32 {
            net.add_place(p);
        }
        net.add_transition(Transition::pairwise(0, 1, 2, 3));
        let bound = theorem_6_1_bound(&net, &Multiset::unit(0u32));
        assert!(bound.to_nat(1 << 20).is_none());
        assert!(bound.approx_log2() > 1e7);
    }

    #[test]
    fn conservative_net_gets_degenerate_witness() {
        let net = PetriNet::from_transitions([
            Transition::pairwise("a", "a", "a", "b"),
            Transition::pairwise("a", "b", "b", "b"),
        ]);
        let rho = ms(&[("a", 3)]);
        let limits = ExplorationLimits::default();
        let witness = find_bottom_witness(&net, &rho, &limits).expect("witness exists");
        assert!(witness.validate(&net, &rho, &limits));
        assert!(witness.pumped_places.is_empty());
        assert_eq!(witness.alpha, ms(&[("b", 3)]));
        assert_eq!(witness.component_size, 1);
        let bound = theorem_6_1_bound(&net, &rho);
        assert!(witness.within_bound(&net, &bound));
    }

    #[test]
    fn non_conservative_net_gets_pumping_witness() {
        // a -> a + b pumps b while staying on the bottom component {a} of T|{a}.
        let net = PetriNet::from_transitions([Transition::new(
            ms(&[("a", 1)]),
            ms(&[("a", 1), ("b", 1)]),
        )]);
        let rho = ms(&[("a", 1)]);
        // The graph from rho is infinite; the pumping search still finds a
        // witness inside the truncated exploration.
        let limits = ExplorationLimits::with_max_agents(6);
        let witness = find_bottom_witness(&net, &rho, &limits).expect("witness exists");
        assert!(witness.validate(&net, &rho, &limits));
        assert!(witness.pumped_places.contains(&"b"));
        assert_eq!(witness.q_places, BTreeSet::from(["a"]));
        assert!(!witness.w.is_empty());
        assert!(witness.alpha.le(&witness.beta));
        let bound = theorem_6_1_bound(&net, &rho);
        assert!(witness.within_bound(&net, &bound));
    }

    #[test]
    fn degenerate_witness_when_no_pumping_exists() {
        // A conservative variant: a + cap -> a + b cannot pump because cap is
        // consumed, so the fallback witness with Q = P is returned.
        let capped = PetriNet::from_transitions([Transition::new(
            ms(&[("a", 1), ("cap", 1)]),
            ms(&[("a", 1), ("b", 1)]),
        )]);
        let rho = ms(&[("a", 1), ("cap", 4)]);
        let limits = ExplorationLimits::default();
        let witness = find_bottom_witness(&capped, &rho, &limits).expect("witness exists");
        assert!(witness.validate(&capped, &rho, &limits));
        assert!(witness.pumped_places.is_empty());
        assert_eq!(witness.alpha, ms(&[("a", 1), ("b", 4)]));
        let bound = theorem_6_1_bound(&capped, &rho);
        assert!(witness.within_bound(&capped, &bound));
    }

    /// The search without the restriction memo: every candidate pair runs
    /// its own bottom check and component count on a freshly compiled
    /// `T|Q`. Returns the witness and the number of pairs checked.
    fn witness_checking_every_pair(
        net: &PetriNet<&'static str>,
        rho: &Multiset<&'static str>,
        limits: &ExplorationLimits,
    ) -> Option<(BottomWitness<&'static str>, usize)> {
        let pump_limits = ExplorationLimits {
            max_configurations: limits.max_configurations.min(1_500),
            ..*limits
        };
        let graph = Analysis::new(net)
            .reachability([rho.clone()])
            .limits(pump_limits)
            .run();
        let start = graph.id_of(rho)?;
        let mut checked = 0;
        for alpha_id in graph.ids() {
            let reachable = graph.reachable_from(alpha_id);
            for beta_id in graph.ids().filter(|&id| reachable[id]) {
                let (alpha, beta) = (graph.node(alpha_id), graph.node(beta_id));
                if beta_id == alpha_id || !alpha.le(beta) || alpha == beta {
                    continue;
                }
                let q_places: BTreeSet<_> = net
                    .places()
                    .iter()
                    .filter(|p| alpha.get(p) == beta.get(p))
                    .copied()
                    .collect();
                let pumped: BTreeSet<_> = net.places().difference(&q_places).copied().collect();
                let restricted = net.restrict(&q_places);
                let alpha_q = alpha.restrict(&q_places);
                checked += 1;
                if is_bottom(&restricted, &alpha_q, &pump_limits) != Some(true) {
                    continue;
                }
                let component_size =
                    crate::component::component_size(&restricted, &alpha_q, &pump_limits)?;
                let (_, sigma) = graph.path_to(start, |id| id == alpha_id)?;
                let (_, w) = graph.path_to(alpha_id, |id| id == beta_id)?;
                let witness = BottomWitness {
                    sigma,
                    w,
                    q_places,
                    pumped_places: pumped,
                    alpha: alpha.clone(),
                    beta: beta.clone(),
                    component_size,
                };
                return Some((witness, checked));
            }
        }
        None
    }

    #[test]
    fn repeated_failing_restrictions_do_not_end_the_search() {
        // a -> a + b pumps b, but a can also escape to c for good, so every
        // pair (α, β) with α(a) = 1 shares the restriction
        // (Q = {a, c, x}, α|Q = a), which is not bottom. Only once α = c
        // does c -> c + x pump x over the bottom restriction ({a, b, c}, c).
        let net = PetriNet::from_transitions([
            Transition::new(ms(&[("a", 1)]), ms(&[("a", 1), ("b", 1)])),
            Transition::new(ms(&[("a", 1)]), ms(&[("c", 1)])),
            Transition::new(ms(&[("c", 1)]), ms(&[("c", 1), ("x", 1)])),
        ]);
        let rho = ms(&[("a", 1)]);
        let limits = ExplorationLimits::with_max_agents(6);
        let witness = find_bottom_witness(&net, &rho, &limits).expect("witness exists");
        assert_eq!(witness.alpha, ms(&[("c", 1)]));
        assert_eq!(witness.beta, ms(&[("c", 1), ("x", 1)]));
        assert_eq!(witness.q_places, BTreeSet::from(["a", "b", "c"]));
        assert_eq!(witness.pumped_places, BTreeSet::from(["x"]));
        assert_eq!(witness.sigma, vec![1]);
        assert_eq!(witness.component_size, 1);
        assert!(witness.validate(&net, &rho, &limits));

        let (reference, checked) =
            witness_checking_every_pair(&net, &rho, &limits).expect("witness exists");
        // Several pairs re-checked the failing restriction before the witness.
        assert!(checked > 2, "only {checked} pairs checked");
        assert_eq!(witness.sigma, reference.sigma);
        assert_eq!(witness.w, reference.w);
        assert_eq!(witness.q_places, reference.q_places);
        assert_eq!(witness.pumped_places, reference.pumped_places);
        assert_eq!(witness.alpha, reference.alpha);
        assert_eq!(witness.beta, reference.beta);
        assert_eq!(witness.component_size, reference.component_size);
    }

    #[test]
    fn witness_validation_rejects_corrupted_witnesses() {
        let net = PetriNet::from_transitions([
            Transition::pairwise("a", "a", "a", "b"),
            Transition::pairwise("a", "b", "b", "b"),
        ]);
        let rho = ms(&[("a", 3)]);
        let limits = ExplorationLimits::default();
        let mut witness = find_bottom_witness(&net, &rho, &limits).unwrap();
        witness.alpha = ms(&[("a", 3)]); // no longer matches sigma
        assert!(!witness.validate(&net, &rho, &limits));
    }

    #[test]
    fn bound_exponent_matches_manual_formula_for_small_d() {
        for d in 1..=3u64 {
            let dd = d.pow(d as u32);
            let manual = dd * (1 + (2 + dd).pow((d + 1) as u32));
            assert_eq!(theorem_6_1_exponent(d), Nat::from(manual));
        }
    }
}
