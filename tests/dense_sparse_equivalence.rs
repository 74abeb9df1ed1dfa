//! Differential properties: the dense interned engine must explore exactly
//! the same state spaces as the sparse reference path.
//!
//! `Analysis::reachability` runs on the `ConfigArena`/`CompiledNet`
//! engine; `sparse_reference_exploration` is the pre-engine
//! `BTreeMap`-based breadth-first search kept as the baseline. Both follow
//! the same BFS order, so the check is strict: the dense graph must match
//! the sparse reference's node set and completeness flag — on the whole
//! protocol catalog and on random nets, truncated or not. Resumed graphs
//! are held to a stricter standard: truncate at a small budget, resume to
//! a larger one, and compare node id for node id and edge for edge against
//! a cold build at the larger budget.

use pp_multiset::Multiset;
use pp_petri::cover::{is_coverable, CoveringWordOutcome};
use pp_petri::explore::sparse_reference_exploration;
use pp_petri::{Analysis, ExplorationLimits, PetriNet, ReachabilityGraph, Transition};
use pp_protocols::{counting_entries, flock, leaders_n, threshold};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A cold session build (compile + explore), the way every test here
/// builds graphs.
fn build<P: Clone + Ord>(
    net: &PetriNet<P>,
    initial: &Multiset<P>,
    limits: &ExplorationLimits,
) -> Arc<ReachabilityGraph<P>> {
    Analysis::new(net)
        .reachability([initial.clone()])
        .limits(*limits)
        .run()
}

/// A graph truncated at `small`, then resumed to `large` through the
/// session cache (the caller's handle is dropped first, so the resume is
/// the in-place path).
fn build_resumed<P: Clone + Ord>(
    net: &PetriNet<P>,
    initial: &Multiset<P>,
    small: &ExplorationLimits,
    large: &ExplorationLimits,
) -> Arc<ReachabilityGraph<P>> {
    let mut analysis = Analysis::new(net);
    let truncated = analysis
        .reachability([initial.clone()])
        .limits(*small)
        .run();
    drop(truncated);
    analysis
        .reachability([initial.clone()])
        .limits(*large)
        .run()
}

fn assert_same_graph<P: Clone + Ord + std::fmt::Debug>(
    net: &PetriNet<P>,
    initial: Multiset<P>,
    limits: &ExplorationLimits,
) {
    let dense = build(net, &initial, limits);
    let (sparse_nodes, sparse_complete) =
        sparse_reference_exploration(net, [initial.clone()], limits);
    let dense_nodes: BTreeSet<Multiset<P>> = dense.ids().map(|id| dense.node(id).clone()).collect();
    assert_eq!(
        dense_nodes, sparse_nodes,
        "node sets differ from {initial:?}"
    );
    assert_eq!(
        dense.is_complete(),
        sparse_complete,
        "completeness differs from {initial:?}"
    );
    // Every reached node is findable by its sparse view, and vice versa.
    for id in dense.ids() {
        assert_eq!(dense.id_of(dense.node(id)), Some(id));
    }
}

#[test]
fn catalog_protocols_explore_identically() {
    let limits = ExplorationLimits::default();
    for n in 1u64..=3 {
        for entry in counting_entries(n) {
            if entry.protocol.initial_states().len() != 1 {
                continue;
            }
            for input in 0..=n + 2 {
                let initial = entry.protocol.initial_config_with_count(input);
                assert_same_graph(entry.protocol.net(), initial, &limits);
            }
        }
    }
    // Graphs of hundreds to tens of thousands of nodes, the size the
    // verifier and the experiments run at.
    for (protocol, agent_counts) in [
        (leaders_n::example_4_2(3), [20, 40]),
        (flock::flock_of_birds_unary(5), [20, 30]),
        (threshold::binary_threshold_with_leader(6), [20, 30]),
    ] {
        for agents in agent_counts {
            let initial = protocol.initial_config_with_count(agents);
            assert_same_graph(protocol.net(), initial, &limits);
        }
    }
}

#[test]
fn truncated_catalog_explorations_match_node_for_node() {
    // Both paths follow the same BFS order, so even a budget-truncated
    // exploration must agree exactly.
    for budget in [1usize, 5, 17] {
        let limits = ExplorationLimits::with_max_configurations(budget);
        for entry in counting_entries(2) {
            if entry.protocol.initial_states().len() != 1 {
                continue;
            }
            let initial = entry.protocol.initial_config_with_count(4);
            assert_same_graph(entry.protocol.net(), initial, &limits);
        }
    }
}

/// A random small net over places `0..places` plus a random initial
/// configuration over the same places.
fn arb_net_and_initial() -> impl Strategy<Value = (PetriNet<u8>, Multiset<u8>)> {
    (2u8..5).prop_flat_map(|places| {
        let transition = (
            proptest::collection::btree_map(0..places, 1u64..3, 1..3),
            proptest::collection::btree_map(0..places, 1u64..3, 0..3),
        );
        (
            proptest::collection::vec(transition, 1..5),
            proptest::collection::btree_map(0..places, 1u64..4, 1..4),
        )
            .prop_map(|(transitions, initial)| {
                let net = PetriNet::from_transitions(transitions.into_iter().map(|(pre, post)| {
                    Transition::new(Multiset::from_pairs(pre), Multiset::from_pairs(post))
                }));
                (net, Multiset::from_pairs(initial))
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_nets_explore_identically((net, initial) in arb_net_and_initial()) {
        // Creation transitions can make the graph unbounded: truncate hard
        // and rely on identical BFS order for truncated equality too.
        let limits = ExplorationLimits {
            max_configurations: 400,
            max_agents: Some(24),
            max_depth: None,
        };
        let dense = build(&net, &initial, &limits);
        let (sparse_nodes, sparse_complete) =
            sparse_reference_exploration(&net, [initial.clone()], &limits);
        let dense_nodes: std::collections::BTreeSet<_> =
            dense.ids().map(|id| dense.node(id).clone()).collect();
        prop_assert_eq!(dense_nodes, sparse_nodes);
        prop_assert_eq!(dense.is_complete(), sparse_complete);
    }

    #[test]
    fn random_depth_truncated_nets_explore_identically(
        (net, initial) in arb_net_and_initial(),
        max_depth in 0usize..6,
    ) {
        // Depth truncation: a frontier at the depth budget is stored but
        // never expanded, with the same incompleteness verdict as the
        // sparse reference.
        let limits = ExplorationLimits {
            max_configurations: 400,
            max_agents: Some(24),
            max_depth: Some(max_depth),
        };
        let dense = build(&net, &initial, &limits);
        let (sparse_nodes, sparse_complete) =
            sparse_reference_exploration(&net, [initial.clone()], &limits);
        let dense_nodes: std::collections::BTreeSet<_> =
            dense.ids().map(|id| dense.node(id).clone()).collect();
        prop_assert_eq!(dense_nodes, sparse_nodes);
        prop_assert_eq!(dense.is_complete(), sparse_complete);
    }

    #[test]
    fn random_net_coverability_agrees_with_forward_search(
        (net, initial) in arb_net_and_initial(),
        target_place in 0u8..5,
        target_count in 1u64..3,
    ) {
        // The backward oracle (dense fixpoint) against the dense forward
        // BFS; bounded nets only, so the forward search is exact.
        if !net.is_conservative() {
            return Ok(());
        }
        let target = Multiset::from_pairs([(target_place, target_count)]);
        let backward = is_coverable(&net, &initial, &target);
        let forward = matches!(
            Analysis::new(&net)
                .covering_word(initial.clone(), target.clone())
                .run(),
            CoveringWordOutcome::Covered(_)
        );
        prop_assert_eq!(backward, forward);
    }

    #[test]
    fn random_resumed_graphs_match_cold_builds(
        (net, initial) in arb_net_and_initial(),
        small_budget in 1usize..40,
    ) {
        // The resumable-budget contract on random nets: truncate at a small
        // configuration budget, resume to the full limits, and the result
        // must be bit-identical to a cold build at the full limits.
        let small = ExplorationLimits {
            max_configurations: small_budget,
            max_agents: Some(24),
            max_depth: None,
        };
        let large = ExplorationLimits {
            max_configurations: 400,
            max_agents: Some(24),
            max_depth: None,
        };
        let cold = build(&net, &initial, &large);
        let resumed = build_resumed(&net, &initial, &small, &large);
        prop_assert!(
            resumed.identical_to(&cold),
            "resumed != cold at budget {}",
            small_budget
        );
    }

    #[test]
    fn random_agent_and_depth_resumes_match_cold_builds(
        (net, initial) in arb_net_and_initial(),
        small_agents in 1u64..12,
        small_depth in 0usize..4,
    ) {
        // Agent- and depth-capped truncations resumed to looser caps: the
        // replayed frontier must reproduce the cold build exactly.
        let small = ExplorationLimits {
            max_configurations: 400,
            max_agents: Some(small_agents),
            max_depth: Some(small_depth),
        };
        let large = ExplorationLimits {
            max_configurations: 400,
            max_agents: Some(24),
            max_depth: Some(12),
        };
        let cold = build(&net, &initial, &large);
        let resumed = build_resumed(&net, &initial, &small, &large);
        prop_assert!(
            resumed.identical_to(&cold),
            "resumed != cold from agents {} depth {}",
            small_agents,
            small_depth
        );
    }

    #[test]
    fn random_chained_resumes_match_cold_builds(
        (net, initial) in arb_net_and_initial(),
        budget in 2usize..30,
    ) {
        // Budget, agent and depth caps raised together, in two resumes on
        // one session: every stop must be bit-identical to a cold build at
        // that stop's limits.
        let stops = [
            ExplorationLimits {
                max_configurations: budget,
                max_agents: Some(8),
                max_depth: Some(3),
            },
            ExplorationLimits {
                max_configurations: budget * 4,
                max_agents: Some(14),
                max_depth: Some(8),
            },
            ExplorationLimits {
                max_configurations: 2_000,
                max_agents: Some(20),
                max_depth: None,
            },
        ];
        let mut analysis = Analysis::new(&net);
        for limits in &stops {
            let resumed = analysis.reachability([initial.clone()]).limits(*limits).run();
            let cold = build(&net, &initial, limits);
            prop_assert!(resumed.identical_to(&cold), "stop {:?} diverges", limits);
            drop(resumed);
        }
    }
}
