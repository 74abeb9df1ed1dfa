//! `T`-components and `T`-bottom configurations (Section 6 of the paper).
//!
//! The *`T`-component* of a configuration `ρ` is the set of configurations `β`
//! with `ρ →* β →* ρ`; `ρ` is *`T`-bottom* when its component is finite and
//! every configuration reachable from `ρ` can reach back to `ρ`. For
//! conservative nets (the usual protocol case) the reachability set from `ρ`
//! is finite, so both notions are decidable by exhaustive exploration; for
//! general nets the analysis is performed under [`ExplorationLimits`] and
//! returns `None` when the exploration was truncated.

use crate::engine::CompiledNet;
use crate::session::Analysis;
use crate::{ExplorationLimits, PetriNet, ReachabilityGraph};
use pp_multiset::Multiset;
use std::sync::Arc;

/// The `T`-component of `config`: all configurations mutually reachable with
/// it, or `None` if the exploration hit a limit before the answer was certain.
#[must_use]
pub fn component_of<P: Clone + Ord>(
    net: &PetriNet<P>,
    config: &Multiset<P>,
    limits: &ExplorationLimits,
) -> Option<Vec<Multiset<P>>> {
    component_of_in(&mut Analysis::new(net), config, limits)
}

/// [`component_of`] on an existing [`Analysis`] session (one compile per
/// net, cached/resumable graphs across calls).
#[must_use]
pub fn component_of_in<P: Clone + Ord>(
    analysis: &mut Analysis<P>,
    config: &Multiset<P>,
    limits: &ExplorationLimits,
) -> Option<Vec<Multiset<P>>> {
    let (graph, id) = complete_graph(analysis, config, limits)?;
    let scc = graph.scc_of(id);
    Some(scc.into_iter().map(|i| graph.node(i).clone()).collect())
}

/// Whether `config` is a `T`-bottom configuration, or `None` if the
/// exploration hit a limit before the answer was certain.
///
/// A configuration is bottom iff its reachability set equals its component:
/// everything reachable can reach back.
#[must_use]
pub fn is_bottom<P: Clone + Ord>(
    net: &PetriNet<P>,
    config: &Multiset<P>,
    limits: &ExplorationLimits,
) -> Option<bool> {
    is_bottom_in(&mut Analysis::new(net), config, limits)
}

/// [`is_bottom`] on an existing [`Analysis`] session.
#[must_use]
pub fn is_bottom_in<P: Clone + Ord>(
    analysis: &mut Analysis<P>,
    config: &Multiset<P>,
    limits: &ExplorationLimits,
) -> Option<bool> {
    let (graph, id) = complete_graph(analysis, config, limits)?;
    Some(graph.scc_of(id).len() == graph.len())
}

/// The size of the `T`-component of `config`, or `None` on truncation.
#[must_use]
pub fn component_size<P: Clone + Ord>(
    net: &PetriNet<P>,
    config: &Multiset<P>,
    limits: &ExplorationLimits,
) -> Option<usize> {
    component_size_in(&mut Analysis::new(net), config, limits)
}

/// [`component_size`] on an existing [`Analysis`] session.
#[must_use]
pub fn component_size_in<P: Clone + Ord>(
    analysis: &mut Analysis<P>,
    config: &Multiset<P>,
    limits: &ExplorationLimits,
) -> Option<usize> {
    let (graph, id) = complete_graph(analysis, config, limits)?;
    Some(graph.scc_of(id).len())
}

/// The size of the `T`-component of `config` when `config` is `T`-bottom,
/// decided on a single exploration: `None` when it is not bottom or the
/// exploration hit a limit. Equals `is_bottom_in(..) == Some(true)` followed
/// by [`component_size_in`], without exploring the graph twice.
///
/// When some transition [pumps](pumps_at) at `config`, the answer is `None`
/// without an exploration. Say `config →t config + δ` with `δ ≥ 0` and
/// `δ ≠ 0`. By monotonicity `t` is enabled at every `config + kδ`, so
/// infinitely many distinct configurations are reachable. A complete
/// exploration stores every successor of every stored node, so it would
/// store all of them; no finite arena can, and every limit (budget, agent
/// cap, depth cap, id space) reports its own truncation rather than
/// [`Completion::Complete`](crate::Completion::Complete). The exploration
/// would therefore end incomplete and return `None` as well.
pub(crate) fn bottom_component_size_in<P: Clone + Ord>(
    analysis: &mut Analysis<P>,
    config: &Multiset<P>,
    limits: &ExplorationLimits,
) -> Option<usize> {
    if pumps_at(analysis.engine(), config) {
        return None;
    }
    let (graph, id) = complete_graph(analysis, config, limits)?;
    // Bottom: the component is everything reachable, so its size is the
    // size of the graph.
    (graph.scc_of(id).len() == graph.len()).then_some(graph.len())
}

/// Whether some transition of `engine` is enabled at `config` and has a
/// displacement that is `≥ 0` on every place and `≠ 0` on some place.
///
/// Places of `config` outside the compiled universe are dropped: no
/// transition reads or writes them, so they do not affect enabledness.
fn pumps_at<P: Clone + Ord>(engine: &CompiledNet<P>, config: &Multiset<P>) -> bool {
    let row = engine.to_dense_lossy(config);
    engine.transitions().iter().any(|t| {
        let produced = |place: u32| {
            t.post()
                .iter()
                .find(|&&(p, _)| p == place)
                .map_or(0, |&(_, c)| c)
        };
        let total = |entries: &[(u32, u64)]| entries.iter().map(|&(_, c)| c).sum::<u64>();
        t.is_enabled_row(&row)
            && t.pre().iter().all(|&(p, c)| produced(p) >= c)
            && total(t.post()) > total(t.pre())
    })
}

/// The reachability graph from `config` and the id of `config` in it, or
/// `None` if the exploration hit a limit.
fn complete_graph<P: Clone + Ord>(
    analysis: &mut Analysis<P>,
    config: &Multiset<P>,
    limits: &ExplorationLimits,
) -> Option<(Arc<ReachabilityGraph<P>>, usize)> {
    let graph = analysis
        .reachability([config.clone()])
        .limits(*limits)
        .run();
    if !graph.is_complete() {
        return None;
    }
    let id = graph
        .id_of(config)
        .expect("initial configuration is interned");
    Some((graph, id))
}

/// A bottom configuration reachable from `config`, together with a witnessing
/// word, or `None` on truncation.
///
/// Every finite reachability graph has a bottom strongly connected component;
/// the returned configuration lies in one of them (preferring a closest one in
/// BFS order), so it is `T`-bottom. This is the building block of the
/// Theorem 6.1 witness search in [`bottom`](crate::bottom).
#[must_use]
pub fn reach_bottom<P: Clone + Ord>(
    net: &PetriNet<P>,
    config: &Multiset<P>,
    limits: &ExplorationLimits,
) -> Option<(Multiset<P>, Vec<usize>)> {
    reach_bottom_in(&mut Analysis::new(net), config, limits)
}

/// [`reach_bottom`] on an existing [`Analysis`] session. When the session
/// already caches a truncated graph from `config` under dominated limits
/// (the witness search's pump phase does exactly this), the graph is
/// resumed instead of rebuilt.
#[must_use]
pub fn reach_bottom_in<P: Clone + Ord>(
    analysis: &mut Analysis<P>,
    config: &Multiset<P>,
    limits: &ExplorationLimits,
) -> Option<(Multiset<P>, Vec<usize>)> {
    let (graph, start) = complete_graph(analysis, config, limits)?;
    // Mark nodes whose SCC is a bottom SCC (no edge leaves the component).
    let sccs = graph.sccs();
    let mut component_index = vec![usize::MAX; graph.len()];
    for (c, scc) in sccs.iter().enumerate() {
        for &id in scc {
            component_index[id] = c;
        }
    }
    let mut is_bottom_scc = vec![true; sccs.len()];
    for id in graph.ids() {
        for &(_, to) in graph.successors(id) {
            if component_index[to as usize] != component_index[id] {
                is_bottom_scc[component_index[id]] = false;
            }
        }
    }
    let (goal, word) = graph.path_to(start, |id| is_bottom_scc[component_index[id]])?;
    Some((graph.node(goal).clone(), word))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Completion, Transition};

    fn ms(pairs: &[(&'static str, u64)]) -> Multiset<&'static str> {
        Multiset::from_pairs(pairs.iter().copied())
    }

    /// Reversible swap net: a <-> b, plus an irreversible escape 2b -> 2c.
    fn escape_net() -> PetriNet<&'static str> {
        PetriNet::from_transitions([
            Transition::new(ms(&[("a", 1)]), ms(&[("b", 1)])),
            Transition::new(ms(&[("b", 1)]), ms(&[("a", 1)])),
            Transition::new(ms(&[("b", 2)]), ms(&[("c", 2)])),
        ])
    }

    #[test]
    fn component_of_reversible_region() {
        let net = escape_net();
        let limits = ExplorationLimits::default();
        // A single agent can only oscillate between a and b.
        let component = component_of(&net, &ms(&[("a", 1)]), &limits).unwrap();
        assert_eq!(component.len(), 2);
        assert!(component.contains(&ms(&[("a", 1)])));
        assert!(component.contains(&ms(&[("b", 1)])));
        assert_eq!(component_size(&net, &ms(&[("a", 1)]), &limits), Some(2));
    }

    #[test]
    fn single_agent_is_bottom_two_agents_are_not() {
        let net = escape_net();
        let limits = ExplorationLimits::default();
        assert_eq!(is_bottom(&net, &ms(&[("a", 1)]), &limits), Some(true));
        // With two agents the escape 2b -> 2c can fire, and 2c cannot go back.
        assert_eq!(is_bottom(&net, &ms(&[("a", 2)]), &limits), Some(false));
        assert_eq!(is_bottom(&net, &ms(&[("c", 2)]), &limits), Some(true));
        assert_eq!(is_bottom(&net, &Multiset::new(), &limits), Some(true));
        // The single-graph verdict: the component size when bottom, else None.
        let mut analysis = Analysis::new(&net);
        for (config, verdict) in [
            (ms(&[("a", 1)]), Some(2)),
            (ms(&[("a", 2)]), None),
            (ms(&[("c", 2)]), Some(1)),
        ] {
            assert_eq!(
                bottom_component_size_in(&mut analysis, &config, &limits),
                verdict
            );
        }
    }

    #[test]
    fn truncated_exploration_returns_none() {
        let net = PetriNet::from_transitions([Transition::new(ms(&[("a", 1)]), ms(&[("a", 2)]))]);
        let limits = ExplorationLimits::with_max_configurations(3);
        assert_eq!(is_bottom(&net, &ms(&[("a", 1)]), &limits), None);
        assert!(component_of(&net, &ms(&[("a", 1)]), &limits).is_none());
        assert_eq!(component_size(&net, &ms(&[("a", 1)]), &limits), None);
        let mut analysis = Analysis::new(&net);
        assert_eq!(
            bottom_component_size_in(&mut analysis, &ms(&[("a", 1)]), &limits),
            None
        );
        assert!(reach_bottom(&net, &ms(&[("a", 1)]), &limits).is_none());
    }

    /// The verdict of [`bottom_component_size_in`] without the pump
    /// pre-check: always a full exploration.
    fn explored_verdict<P: Clone + Ord>(
        analysis: &mut Analysis<P>,
        config: &Multiset<P>,
        limits: &ExplorationLimits,
    ) -> Option<usize> {
        let (graph, id) = complete_graph(analysis, config, limits)?;
        (graph.scc_of(id).len() == graph.len()).then_some(graph.len())
    }

    #[test]
    fn pumping_transition_settles_the_verdict_without_exploring() {
        // a -> a + b is enabled at a and only adds: a pumps.
        let net = PetriNet::from_transitions([Transition::new(
            ms(&[("a", 1)]),
            ms(&[("a", 1), ("b", 1)]),
        )]);
        let start = ms(&[("a", 1)]);
        let mut analysis = Analysis::new(&net);
        assert!(pumps_at(analysis.engine(), &start));
        // Nothing enabled at b alone.
        assert!(!pumps_at(analysis.engine(), &ms(&[("b", 3)])));
        let depth_capped = ExplorationLimits {
            max_depth: Some(4),
            ..Default::default()
        };
        for (limits, cut) in [
            (
                ExplorationLimits::with_max_configurations(1_500),
                Completion::ConfigBudget,
            ),
            (ExplorationLimits::with_max_agents(6), Completion::AgentCap),
            (depth_capped, Completion::DepthCap),
        ] {
            assert_eq!(
                bottom_component_size_in(&mut analysis, &start, &limits),
                None
            );
            // A full exploration under the same limits agrees: it ends on
            // the limit it hit, never complete.
            assert_eq!(explored_verdict(&mut analysis, &start, &limits), None);
            let graph = analysis.reachability([start.clone()]).limits(limits).run();
            assert_eq!(graph.completion(), cut);
        }
    }

    #[test]
    fn pre_check_ignores_late_and_zero_displacements() {
        let limits = ExplorationLimits::with_max_configurations(1_500);
        // a -> b -> a + c: the first configuration above a sits at depth 2,
        // and no single transition only adds, so the exploration decides.
        let late = PetriNet::from_transitions([
            Transition::new(ms(&[("a", 1)]), ms(&[("b", 1)])),
            Transition::new(ms(&[("b", 1)]), ms(&[("a", 1), ("c", 1)])),
        ]);
        let start = ms(&[("a", 1)]);
        let mut analysis = Analysis::new(&late);
        assert!(!pumps_at(analysis.engine(), &start));
        assert_eq!(
            bottom_component_size_in(&mut analysis, &start, &limits),
            None
        );
        let graph = analysis.reachability([start.clone()]).limits(limits).run();
        assert_eq!(graph.completion(), Completion::ConfigBudget);
        // A self-loop a -> a has displacement 0: no pump, and {a} is bottom.
        let idle = PetriNet::from_transitions([Transition::new(ms(&[("a", 1)]), ms(&[("a", 1)]))]);
        let mut analysis = Analysis::new(&idle);
        assert!(!pumps_at(analysis.engine(), &start));
        assert_eq!(
            bottom_component_size_in(&mut analysis, &start, &limits),
            Some(1)
        );
        // a -> 2b adds an agent but takes a's: no pump, and 2b -> a comes
        // back, so {a, 2b} is a bottom component.
        let split = PetriNet::from_transitions([
            Transition::new(ms(&[("a", 1)]), ms(&[("b", 2)])),
            Transition::new(ms(&[("b", 2)]), ms(&[("a", 1)])),
        ]);
        let mut analysis = Analysis::new(&split);
        assert!(!pumps_at(analysis.engine(), &start));
        assert_eq!(
            bottom_component_size_in(&mut analysis, &start, &limits),
            Some(2)
        );
        // A transition that only adds but is disabled does not pump either.
        let blocked = PetriNet::from_transitions([
            Transition::new(ms(&[("a", 1)]), ms(&[("b", 1)])),
            Transition::new(ms(&[("z", 1)]), ms(&[("z", 1), ("a", 1)])),
        ]);
        let mut analysis = Analysis::new(&blocked);
        assert!(!pumps_at(analysis.engine(), &start));
        assert_eq!(
            bottom_component_size_in(&mut analysis, &start, &limits),
            None
        );
        assert_eq!(
            bottom_component_size_in(&mut analysis, &ms(&[("b", 1)]), &limits),
            Some(1)
        );
    }

    #[test]
    fn pre_check_agrees_with_exploration_on_the_catalog_witness_searches() {
        use pp_protocols::catalog;
        use std::collections::BTreeSet;

        let limits = ExplorationLimits::default();
        let protocols = (1..=5u64)
            .flat_map(catalog::all)
            .map(|entry| entry.protocol)
            .chain([pp_protocols::flock::flock_of_birds_unary(6)]);
        let (mut resolved, mut pumping) = (0usize, 0usize);
        for protocol in protocols {
            // The witness search of the Section 8 pipeline: T|P' from the
            // leaders, with P' the non-initial states.
            let non_initial: BTreeSet<_> = protocol
                .states()
                .filter(|s| !protocol.initial_states().contains(s))
                .collect();
            let restricted = protocol.net().restrict(&non_initial);
            // `pp_protocols` links its own build of this crate, so the net
            // is copied into this build's types through the shared
            // multisets, places and transition order included.
            let mut net = PetriNet::new();
            for place in restricted.places() {
                net.add_place(*place);
            }
            for t in restricted.transitions() {
                net.add_transition(Transition::new(t.pre().clone(), t.post().clone()));
            }
            let leaders = protocol.leaders().restrict(&non_initial);
            let mut analysis = Analysis::new(&net);
            let expected = crate::bottom::find_bottom_witness_in(&mut analysis, &leaders, &limits);
            let observed = crate::bottom::search_bottom_witness(
                &mut Analysis::new(&net),
                &leaders,
                &limits,
                |session, alpha_q, limits| {
                    let verdict = explored_verdict(session, alpha_q, limits);
                    resolved += 1;
                    if pumps_at(session.engine(), alpha_q) {
                        pumping += 1;
                        assert_eq!(verdict, None, "{}: {alpha_q:?}", protocol.name());
                    }
                    verdict
                },
            );
            assert_eq!(
                format!("{expected:?}"),
                format!("{observed:?}"),
                "{}",
                protocol.name()
            );
        }
        // flock-unary(6) alone resolves 34 restrictions, 33 of them pumping.
        assert_eq!((pumping, resolved), (92, 125));
    }

    #[test]
    fn reach_bottom_finds_a_sink_component() {
        let net = escape_net();
        let limits = ExplorationLimits::default();
        let (bottom, word) = reach_bottom(&net, &ms(&[("a", 2)]), &limits).unwrap();
        // The only bottom SCC reachable from 2 agents is {2c}.
        assert_eq!(bottom, ms(&[("c", 2)]));
        assert_eq!(net.fire_word(&ms(&[("a", 2)]), &word), Some(bottom.clone()));
        assert_eq!(is_bottom(&net, &bottom, &limits), Some(true));
    }

    #[test]
    fn reach_bottom_on_already_bottom_configuration() {
        let net = escape_net();
        let (bottom, word) =
            reach_bottom(&net, &ms(&[("a", 1)]), &ExplorationLimits::default()).unwrap();
        assert!(word.is_empty());
        assert_eq!(bottom, ms(&[("a", 1)]));
    }

    #[test]
    fn component_of_example_4_2_leaders_only() {
        // The Example 4.2 net from leaders only (n = 2): no transition is
        // enabled, so the component is the singleton and it is bottom.
        let net = PetriNet::from_transitions([
            Transition::pairwise("i", "i_bar", "p", "q"),
            Transition::pairwise("p_bar", "i", "p", "i"),
            Transition::pairwise("p", "i_bar", "p_bar", "i_bar"),
            Transition::pairwise("q_bar", "i", "q", "i"),
            Transition::pairwise("q", "i_bar", "q_bar", "i_bar"),
            Transition::pairwise("p", "q_bar", "p", "q"),
            Transition::pairwise("q", "p_bar", "q", "p"),
        ]);
        let leaders = ms(&[("i_bar", 2)]);
        let limits = ExplorationLimits::default();
        assert_eq!(component_size(&net, &leaders, &limits), Some(1));
        assert_eq!(is_bottom(&net, &leaders, &limits), Some(true));
    }
}
