//! The `Analysis` session facade, exercised across the workspace layers:
//! catalog protocols, resumable budgets against cold builds, and the
//! collapsed covering-word query.
//!
//! The headline contract under test is the acceptance criterion of the
//! session redesign: a graph truncated at budget `B` and resumed to `B′`
//! is `identical_to` a cold build at `B′`, for worker counts {1, 3}, on
//! real catalog protocols — and the warm/resumed paths reuse the one
//! compiled engine the session owns.

use pp_petri::cover::CoveringWordOutcome;
use pp_petri::{Analysis, Completion, ExplorationLimits, Parallelism};
use pp_population::Protocol;
use pp_protocols::{counting_entries, flock, leaders_n, threshold};
use std::sync::Arc;

/// Truncates at each budget of `budgets` in turn, resuming step by step,
/// and compares every stop against a cold build — for the sequential
/// engine and for Parallelism::Parallel(3) sessions and cold builds (a
/// resumed graph must be indistinguishable from both, by the engines'
/// determinism contract).
fn assert_resumes_match_cold_builds(
    family: &str,
    protocol: &Protocol,
    agents: u64,
    budgets: &[usize],
) {
    let net = protocol.net();
    let initial = protocol.initial_config_with_count(agents);
    for parallelism in [Parallelism::Sequential, Parallelism::Parallel(3)] {
        let mut session = Analysis::new(net).parallelism(parallelism);
        for &budget in budgets {
            let limits = ExplorationLimits::with_max_configurations(budget);
            let resumed = session.reachability([initial.clone()]).limits(limits).run();
            for cold_mode in [Parallelism::Sequential, Parallelism::Parallel(3)] {
                let cold = Analysis::new(net)
                    .parallelism(cold_mode)
                    .reachability([initial.clone()])
                    .limits(limits)
                    .run();
                assert!(
                    resumed.identical_to(&cold),
                    "{family}@{agents}: resumed@{budget} != cold ({parallelism:?} vs {cold_mode:?})"
                );
            }
            drop(resumed);
        }
    }
}

#[test]
fn catalog_resumes_are_bit_identical_to_cold_builds() {
    let full = ExplorationLimits::default().max_configurations;
    for entry in counting_entries(2) {
        if entry.protocol.initial_states().len() != 1 {
            continue;
        }
        assert_resumes_match_cold_builds(entry.family, &entry.protocol, 6, &[3, 40, full]);
    }
    // Larger graphs truncated at half their size, so the resume re-expands
    // a long continuation rather than a thin budget boundary.
    for (family, protocol, agents) in [
        ("example-4.2(n=3)", leaders_n::example_4_2(3), 30),
        ("flock-unary(n=5)", flock::flock_of_birds_unary(5), 26),
        (
            "binary-threshold(n=6)",
            threshold::binary_threshold_with_leader(6),
            30,
        ),
    ] {
        let nodes = Analysis::new(protocol.net())
            .reachability([protocol.initial_config_with_count(agents)])
            .run()
            .len();
        assert_resumes_match_cold_builds(family, &protocol, agents, &[(nodes / 2).max(1), full]);
    }
}

#[test]
fn agent_and_depth_capped_catalog_resumes_match_cold_builds() {
    // The capped regimes of the acceptance criterion, on a protocol whose
    // graphs are big enough to have mid-sequence agent-capped holes (the
    // fallback path) and depth-capped tails (the in-place path).
    let protocol = flock::flock_of_birds_unary(4);
    let net = protocol.net();
    let initial = protocol.initial_config_with_count(10);
    let stops = [
        ExplorationLimits {
            max_configurations: 2_000,
            max_agents: Some(9),
            max_depth: Some(3),
        },
        ExplorationLimits {
            max_configurations: 5_000,
            max_agents: Some(10),
            max_depth: Some(9),
        },
        ExplorationLimits {
            max_configurations: 250_000,
            max_agents: None,
            max_depth: None,
        },
    ];
    for parallelism in [Parallelism::Sequential, Parallelism::Parallel(3)] {
        let mut session = Analysis::new(net).parallelism(parallelism);
        for limits in stops {
            let resumed = session.reachability([initial.clone()]).limits(limits).run();
            let cold = Analysis::new(net)
                .parallelism(parallelism)
                .reachability([initial.clone()])
                .limits(limits)
                .run();
            assert!(
                resumed.identical_to(&cold),
                "capped resume diverges at {limits:?} under {parallelism:?}"
            );
            drop(resumed);
        }
    }
}

#[test]
fn one_session_serves_every_query_kind_on_one_compile() {
    // A serving-shaped workload: reachability, coverability, Karp–Miller
    // and covering words against the same protocol, all through one
    // session — then the same answers from a fresh session, as a
    // consistency check.
    let protocol = flock::flock_of_birds_unary(3);
    let net = protocol.net();
    let a1 = protocol.initial_config_with_count(4);
    let saturated = protocol
        .states()
        .map(pp_multiset::Multiset::unit)
        .find(|c| protocol.display_config(c).contains("a3"))
        .expect("flock has a saturated state");

    let mut session = Analysis::new(net);
    let graph = session.reachability([a1.clone()]).run();
    assert!(graph.completion().is_complete());
    let oracle = session.coverability(saturated.clone()).run();
    assert!(oracle.is_coverable_from(&a1));
    let tree = session.karp_miller(a1.clone()).run();
    assert_eq!(tree.completion(), Completion::Complete);
    assert!(tree.covers(&saturated));
    let word = session
        .covering_word(a1.clone(), saturated.clone())
        .in_reachability_graph()
        .run();
    let CoveringWordOutcome::Covered(word) = word else {
        panic!("saturated state is coverable");
    };
    // The in-graph search reused the cached graph (same Arc)...
    let again = session.reachability([a1.clone()]).run();
    assert!(Arc::ptr_eq(&graph, &again));
    // ...and the witness is a real execution of the net.
    let reached = net.fire_word(&a1, &word).expect("witness word fires");
    assert!(saturated.le(&reached));
    // The dedicated forward BFS agrees on the word length (both shortest).
    let forward = session.covering_word(a1.clone(), saturated).run();
    assert_eq!(forward.into_word().map(|w| w.len()), Some(word.len()));
}

#[test]
fn completion_taxonomy_reaches_the_integration_surface() {
    // The truncation reason survives from the engine through the session
    // to a consumer: budget, agent cap and depth cap are distinguishable.
    let protocol = flock::flock_of_birds_unary(4);
    let net = protocol.net();
    let initial = protocol.initial_config_with_count(8);
    let mut session = Analysis::new(net);
    let by_budget = session
        .reachability([initial.clone()])
        .limits(ExplorationLimits::with_max_configurations(5))
        .run();
    assert_eq!(by_budget.completion(), Completion::ConfigBudget);
    let by_depth = session
        .reachability([initial.clone()])
        .limits(ExplorationLimits {
            max_depth: Some(1),
            ..Default::default()
        })
        .run();
    assert_eq!(by_depth.completion(), Completion::DepthCap);
    assert!(!by_depth.is_complete());
    let complete = session.reachability([initial]).run();
    assert_eq!(complete.completion(), Completion::Complete);
    assert!(complete.is_complete());
}
