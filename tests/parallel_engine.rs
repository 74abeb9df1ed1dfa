//! Determinism properties of the parallel sharded engine.
//!
//! The contract of `Parallelism` is that it is *purely* a speed knob:
//! every fixpoint that takes it — forward exploration, Karp–Miller
//! construction, and the verifier built on top of them — must return
//! bit-identical results for every mode and worker count, and a session's
//! parallelism must not change a backward coverability basis (which has
//! one sequential path). These tests drive the consumers over the
//! protocol catalog and random nets, including the truncated regimes
//! where nondeterministic numbering would immediately show up.

use pp_multiset::Multiset;
use pp_petri::fingerprint::{
    coverability_fingerprint, karp_miller_fingerprint, reachability_fingerprint,
};
use pp_petri::{
    Analysis, Completion, ExplorationLimits, Parallelism, PetriNet, ReachabilityGraph, Transition,
};
use pp_population::stable::ProtocolStability;
use pp_population::verify::{verify_input, verify_input_with};
use pp_population::{Predicate, Protocol};
use pp_protocols::{counting_entries, flock, leaders_n, threshold};
use proptest::prelude::*;
use std::sync::Arc;

/// A cold session build (compile + explore) at the given parallelism.
fn build<P: Clone + Ord>(
    net: &PetriNet<P>,
    initial: &Multiset<P>,
    limits: &ExplorationLimits,
    parallelism: Parallelism,
) -> Arc<ReachabilityGraph<P>> {
    Analysis::new(net)
        .parallelism(parallelism)
        .reachability([initial.clone()])
        .limits(*limits)
        .run()
}

/// A random small net over places `0..places` plus a random initial
/// configuration over the same places (mirrors the generator of
/// `dense_sparse_equivalence.rs`).
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

#[test]
fn catalog_graphs_are_identical_across_worker_counts() {
    let limits = ExplorationLimits::default();
    let mut instances: Vec<(&str, Protocol, u64)> = counting_entries(2)
        .into_iter()
        .filter(|entry| entry.protocol.initial_states().len() == 1)
        .map(|entry| (entry.family, entry.protocol, 6))
        .collect();
    // Larger untruncated graphs: flock-unary(5)@22 has 6,246 nodes, with
    // levels wide enough for the pipelined engine to dispatch worker jobs,
    // and binary-threshold(6)@25 has 1,165.
    instances.extend([
        ("example-4.2(n=3)", leaders_n::example_4_2(3), 20),
        ("flock-unary(n=5)", flock::flock_of_birds_unary(5), 22),
        (
            "binary-threshold(n=6)",
            threshold::binary_threshold_with_leader(6),
            25,
        ),
    ]);
    for (family, protocol, agents) in instances {
        let initial = protocol.initial_config_with_count(agents);
        let net = protocol.net();
        let sequential = build(net, &initial, &limits, Parallelism::Sequential);
        assert!(sequential.is_complete(), "{family}@{agents} truncated");
        for workers in [1usize, 2, 3, 4, 7] {
            let parallel = build(net, &initial, &limits, Parallelism::Parallel(workers));
            assert!(
                sequential.identical_to(&parallel),
                "{family}@{agents}: graphs differ at {workers} workers"
            );
        }
    }
    // The largest instances, at the host's default parallelism only.
    for (family, protocol, agents) in [
        ("flock-unary(n=5)", flock::flock_of_birds_unary(5), 34),
        (
            "binary-threshold(n=6)",
            threshold::binary_threshold_with_leader(6),
            40,
        ),
    ] {
        let initial = protocol.initial_config_with_count(agents);
        let sequential = build(protocol.net(), &initial, &limits, Parallelism::Sequential);
        let parallel = build(protocol.net(), &initial, &limits, Parallelism::auto());
        assert!(
            sequential.identical_to(&parallel),
            "{family}@{agents}: graphs differ at {:?}",
            Parallelism::auto()
        );
    }
}

#[test]
fn truncated_dispatched_levels_stay_identical() {
    // Levels wide enough that the pipelined engine actually dispatches
    // jobs to spawned workers (past its minimum level size), with the
    // configuration budget cutting exploration off mid-level — the regime
    // where a commit replaying discoveries out of sequential order would
    // keep different nodes.
    let protocol = flock::flock_of_birds_unary(5);
    let initial = protocol.initial_config_with_count(22);
    for budget in [1500usize, 4000] {
        let limits = ExplorationLimits::with_max_configurations(budget);
        let sequential = build(protocol.net(), &initial, &limits, Parallelism::Sequential);
        assert!(!sequential.is_complete());
        for workers in [2usize, 3, 4] {
            let parallel = build(
                protocol.net(),
                &initial,
                &limits,
                Parallelism::Parallel(workers),
            );
            assert!(
                sequential.identical_to(&parallel),
                "truncated graphs differ: budget {budget} workers {workers}"
            );
        }
    }
}

#[test]
fn resumed_dispatched_levels_match_cold_builds() {
    // Resume across the budget regimes where the pipelined engine actually
    // dispatches worker jobs: truncate mid-level at a dispatched budget,
    // then raise the budget and compare against cold builds — for the
    // sequential engine and for worker counts whose chunk boundaries do
    // not align with the frontier.
    let protocol = flock::flock_of_birds_unary(5);
    let initial = protocol.initial_config_with_count(22);
    let small = ExplorationLimits::with_max_configurations(1500);
    let large = ExplorationLimits::with_max_configurations(4000);
    for parallelism in [Parallelism::Sequential, Parallelism::Parallel(3)] {
        let cold = build(protocol.net(), &initial, &large, parallelism);
        let mut analysis = Analysis::new(protocol.net()).parallelism(parallelism);
        let truncated = analysis.reachability([initial.clone()]).limits(small).run();
        assert!(!truncated.is_complete());
        drop(truncated);
        let resumed = analysis.reachability([initial.clone()]).limits(large).run();
        assert!(
            resumed.identical_to(&cold),
            "resumed graph differs from cold at {parallelism:?}"
        );
    }
}

#[test]
fn parallel_karp_miller_matches_sequential_on_a_large_tree() {
    // flock-of-birds at 12 agents yields waves comfortably past the
    // parallel threshold, so this actually exercises the fan-out path.
    let protocol = flock::flock_of_birds_unary(4);
    let start = protocol.initial_config_with_count(12);
    let sequential = Analysis::new(protocol.net())
        .karp_miller(start.clone())
        .max_nodes(200_000)
        .run();
    let parallel = Analysis::new(protocol.net())
        .karp_miller(start)
        .max_nodes(200_000)
        .parallelism(Parallelism::Parallel(3))
        .run();
    assert_eq!(sequential.markings(), parallel.markings());
    assert_eq!(sequential.is_complete(), parallel.is_complete());
    assert!(sequential.markings().len() > 64);
}

#[test]
fn benchmark_karp_miller_answer_is_pinned_across_worker_counts() {
    // The suite benchmark's Karp–Miller query: binary-threshold(6) from 18
    // agents, capped at 20 000 nodes. The cap lands mid-wave; 2 248 and
    // 7 421 nodes are admitted at the last two full-wave boundaries, so
    // the budgets around them probe both sides of a wave cut.
    let protocol = threshold::binary_threshold_with_leader(6);
    let places: Vec<_> = protocol.net().places().iter().copied().collect();
    let start = protocol.initial_config_with_count(18);
    let tree = |max_nodes: usize, parallelism: Parallelism| {
        Analysis::new(protocol.net())
            .parallelism(parallelism)
            .karp_miller(start.clone())
            .max_nodes(max_nodes)
            .run()
    };
    let modes = [
        Parallelism::Sequential,
        Parallelism::Parallel(1),
        Parallelism::Parallel(2),
        Parallelism::Parallel(3),
    ];
    for parallelism in modes {
        let capped = tree(20_000, parallelism);
        assert_eq!(capped.markings().len(), 20_000, "{parallelism:?}");
        assert_eq!(capped.completion(), Completion::ConfigBudget);
        assert_eq!(
            karp_miller_fingerprint(&capped, &places),
            0x3c52_5ac4_23d9_cdda,
            "{parallelism:?}"
        );
    }
    for max_nodes in [2_248, 2_249, 7_421, 7_422] {
        let sequential = tree(max_nodes, Parallelism::Sequential);
        assert_eq!(sequential.markings().len(), max_nodes);
        assert_eq!(sequential.completion(), Completion::ConfigBudget);
        for parallelism in &modes[1..] {
            let parallel = tree(max_nodes, *parallelism);
            assert_eq!(
                sequential.markings(),
                parallel.markings(),
                "budget {max_nodes} under {parallelism:?}"
            );
            assert_eq!(sequential.completion(), parallel.completion());
        }
    }
}

#[test]
fn benchmark_reachability_and_coverability_answers_are_pinned_across_worker_counts() {
    // The suite benchmark's two largest reachability queries and its two
    // coverability queries, pinned to their recorded node counts and
    // fingerprints in both engines (and coverability with `u64` rows too).
    let flock5 = flock::flock_of_birds_unary(5);
    let binary6 = threshold::binary_threshold_with_leader(6);
    let flock16 = flock::flock_of_birds_unary(16);
    let covers = [
        (&flock16, "a16", 2u64, 407, 0xded9_d920_24c2_ad43),
        (&binary6, "L2", 1, 11, 0x3aec_6255_089b_e2e2),
    ];
    for parallelism in [Parallelism::Sequential, Parallelism::Parallel(2)] {
        for (protocol, agents, nodes, fingerprint) in [
            (&flock5, 34, 50_982, 0x7074_9dae_505c_37a0),
            (&binary6, 50, 21_074, 0x5853_7ed5_3423_ffa1),
        ] {
            let graph = build(
                protocol.net(),
                &protocol.initial_config_with_count(agents),
                &ExplorationLimits::default(),
                parallelism,
            );
            assert_eq!(graph.len(), nodes, "{agents} agents under {parallelism:?}");
            assert_eq!(
                reachability_fingerprint(&graph),
                fingerprint,
                "{agents} agents under {parallelism:?}"
            );
        }
        for (protocol, state, count, elements, fingerprint) in covers {
            let place = protocol.state_id(state).expect("catalog state");
            let places: Vec<_> = protocol.net().places().iter().copied().collect();
            let session = Analysis::new(protocol.net()).parallelism(parallelism);
            for mut analysis in [session.clone(), session.u64_rows()] {
                let oracle = analysis
                    .coverability(Multiset::from_pairs([(place, count)]))
                    .run();
                assert_eq!(oracle.basis().len(), elements, "{parallelism:?}");
                assert_eq!(
                    coverability_fingerprint(&oracle, &places),
                    fingerprint,
                    "{parallelism:?}"
                );
            }
        }
    }
}

#[test]
fn parallel_verifier_reaches_the_same_verdicts() {
    for entry in counting_entries(2) {
        if entry.protocol.initial_states().len() != 1 {
            continue;
        }
        let protocol = &entry.protocol;
        let stability = ProtocolStability::new(protocol);
        let initial_state = *protocol.initial_states().iter().next().unwrap();
        let predicate = Predicate::counting(protocol.state_name(initial_state), 2);
        let limits = ExplorationLimits::default();
        for count in [0u64, 3, 17] {
            let name = protocol.state_name(initial_state).to_owned();
            let input = Multiset::from_pairs([(name, count)]);
            let sequential = verify_input(protocol, &stability, &predicate, &input, &limits);
            let parallel = verify_input_with(
                protocol,
                &stability,
                &predicate,
                &input,
                &limits,
                Parallelism::Parallel(3),
            );
            assert_eq!(sequential.verdict, parallel.verdict, "input {count}");
            assert_eq!(
                sequential.explored_configurations,
                parallel.explored_configurations
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_truncated_explorations_are_identical((net, initial) in arb_net_and_initial()) {
        // Budget truncation is the adversarial case: a nondeterministic
        // numbering would keep *different nodes* once the budget cuts off.
        for budget in [7usize, 100] {
            let limits = ExplorationLimits {
                max_configurations: budget,
                max_agents: Some(20),
                max_depth: Some(40),
            };
            let sequential = build(&net, &initial, &limits, Parallelism::Sequential);
            for workers in [1usize, 3, 4] {
                let parallel = build(&net, &initial, &limits, Parallelism::Parallel(workers));
                prop_assert!(
                    sequential.identical_to(&parallel),
                    "graphs differ: budget {} workers {}",
                    budget,
                    workers
                );
            }
        }
    }

    #[test]
    fn random_agent_truncated_explorations_are_identical((net, initial) in arb_net_and_initial()) {
        // Agent-budget truncation alone (no configuration budget): nodes
        // over the cap are stored but never expanded, and the pipelined
        // commit must record the exact same incompleteness and edges.
        let limits = ExplorationLimits {
            max_configurations: 5_000,
            max_agents: Some(12),
            max_depth: None,
        };
        let sequential = build(&net, &initial, &limits, Parallelism::Sequential);
        for workers in [1usize, 2, 3] {
            let parallel = build(&net, &initial, &limits, Parallelism::Parallel(workers));
            prop_assert!(
                sequential.identical_to(&parallel),
                "agent-truncated graphs differ at {} workers",
                workers
            );
        }
    }

    #[test]
    fn random_karp_miller_trees_are_identical(
        (net, initial) in arb_net_and_initial(),
        max_nodes in 1usize..=2_000,
    ) {
        // A drawn budget lands its cut anywhere in a wave, not just past
        // the end of the tree.
        let sequential = Analysis::new(&net).karp_miller(initial.clone()).max_nodes(max_nodes).run();
        for workers in [1usize, 2, 4] {
            let parallel = Analysis::new(&net)
                .karp_miller(initial.clone())
                .max_nodes(max_nodes)
                .parallelism(Parallelism::Parallel(workers))
                .run();
            prop_assert_eq!(sequential.markings(), parallel.markings());
            prop_assert_eq!(sequential.completion(), parallel.completion());
        }
    }

    #[test]
    fn random_coverability_bases_are_identical(
        (net, initial) in arb_net_and_initial(),
        target_place in 0u8..5,
        target_count in 1u64..3,
    ) {
        let target = Multiset::from_pairs([(target_place, target_count)]);
        let sequential = Analysis::new(&net).coverability(target.clone()).run();
        for workers in [1usize, 4] {
            let parallel = Analysis::new(&net)
                .parallelism(Parallelism::Parallel(workers))
                .coverability(target.clone())
                .run();
            prop_assert_eq!(sequential.basis(), parallel.basis());
            prop_assert_eq!(
                sequential.is_coverable_from(&initial),
                parallel.is_coverable_from(&initial)
            );
        }
    }

    #[test]
    fn random_resumes_are_identical_across_worker_counts(
        (net, initial) in arb_net_and_initial(),
        budget in 2usize..30,
    ) {
        // Budget-, agent- and depth-capped truncations resumed in two
        // steps, starting from graphs built by either engine: every stop
        // must be bit-identical to a cold build at that stop's limits.
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
        for parallelism in [Parallelism::Sequential, Parallelism::Parallel(3)] {
            let mut analysis = Analysis::new(&net).parallelism(parallelism);
            for limits in &stops {
                let resumed = analysis
                    .reachability([initial.clone()])
                    .limits(*limits)
                    .run();
                let cold = build(&net, &initial, limits, parallelism);
                prop_assert!(
                    resumed.identical_to(&cold),
                    "stop {:?} diverges under {:?}",
                    limits,
                    parallelism
                );
                drop(resumed);
            }
        }
    }
}
