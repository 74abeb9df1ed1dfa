//! Integration test: every construction in the catalog stably computes the
//! predicate it claims, as checked by the exact verifier.

use pp_multiset::Multiset;
use pp_petri::{Analysis, ExplorationLimits};
use pp_population::verify::{verify_counting_inputs, verify_input, verify_inputs};
use pp_protocols::{catalog::other_entries, counting_entries};

#[test]
fn counting_catalog_is_correct_for_small_thresholds() {
    for n in [1u64, 2, 3] {
        for entry in counting_entries(n) {
            let report = verify_counting_inputs(
                &entry.protocol,
                &entry.predicate,
                n + 2,
                &ExplorationLimits::default(),
            );
            assert!(
                report.all_correct(),
                "{} (n = {n}) failed: {:?}",
                entry.family,
                report.failures()
            );
            assert!(report.undecided().is_empty(), "{} undecided", entry.family);
        }
    }
}

#[test]
fn single_input_verdicts_match_the_batched_verifier() {
    // `verify_inputs` fans `verify_input` out across inputs at
    // `Parallelism::auto()`; each of its reports must match a direct call.
    let limits = ExplorationLimits::default();
    for entry in counting_entries(2) {
        let protocol = &entry.protocol;
        if protocol.initial_states().len() != 1 {
            continue;
        }
        let state = *protocol.initial_states().iter().next().expect("one state");
        let name = protocol.state_name(state).to_owned();
        let inputs: Vec<Multiset<String>> = [0u64, 3, 17]
            .into_iter()
            .map(|count| Multiset::from_pairs([(name.clone(), count)]))
            .collect();
        let analysis = Analysis::new(protocol.net());
        let batched = verify_inputs(protocol, &entry.predicate, inputs.clone(), &limits);
        for (input, report) in inputs.iter().zip(&batched.inputs) {
            let single = verify_input(protocol, &analysis, &entry.predicate, input, &limits);
            assert!(single.is_correct(), "{}: {input:?}", entry.family);
            assert_eq!(
                single.verdict, report.verdict,
                "{}: {input:?}",
                entry.family
            );
            assert_eq!(
                single.explored_configurations, report.explored_configurations,
                "{}: {input:?}",
                entry.family
            );
        }
    }
}

#[test]
fn counting_catalog_boundary_inputs_for_larger_thresholds() {
    // For larger thresholds an exhaustive sweep is too big, but the boundary
    // inputs n-1 / n / n+1 are the interesting ones.
    for n in [4u64, 6, 8] {
        for entry in counting_entries(n) {
            let state = entry
                .protocol
                .initial_states()
                .iter()
                .map(|s| entry.protocol.state_name(*s).to_owned())
                .next()
                .unwrap();
            let inputs = [n - 1, n, n + 1]
                .into_iter()
                .map(|c| Multiset::from_pairs([(state.clone(), c)]));
            let report = verify_inputs(
                &entry.protocol,
                &entry.predicate,
                inputs,
                &ExplorationLimits::default(),
            );
            assert!(
                report.all_correct(),
                "{} (n = {n}) failed on a boundary input: {:?}",
                entry.family,
                report.failures()
            );
        }
    }
}

#[test]
fn majority_and_modulo_entries_are_correct() {
    for entry in other_entries() {
        let inputs: Vec<Multiset<String>> = match entry.family {
            "majority" => (0..=3u64)
                .flat_map(|a| {
                    (0..=3u64).filter(move |&b| a + b > 0).map(move |b| {
                        Multiset::from_pairs([("A".to_string(), a), ("B".to_string(), b)])
                    })
                })
                .collect(),
            _ => (0..=7u64)
                .map(|c| Multiset::from_pairs([("x".to_string(), c)]))
                .collect(),
        };
        let report = verify_inputs(
            &entry.protocol,
            &entry.predicate,
            inputs,
            &ExplorationLimits::default(),
        );
        assert!(
            report.all_correct(),
            "{} failed: {:?}",
            entry.family,
            report.failures()
        );
    }
}

#[test]
fn catalog_state_counts_reflect_the_landscape() {
    // The whole point of the catalog: same predicate, very different state
    // counts depending on what is allowed to grow.
    let n = 16u64;
    let entries = counting_entries(n);
    let states = |family: &str| {
        entries
            .iter()
            .find(|e| e.family == family)
            .map(|e| e.states())
            .unwrap()
    };
    assert!(states("example-4.1") < states("example-4.2"));
    assert!(states("flock-doubling") < states("flock-unary"));
    assert!(states("binary-threshold") < states("flock-unary"));
    // Bounded width and leaders: the paper's lower bound applies to these.
    for entry in &entries {
        if entry.family != "example-4.1" {
            assert!(entry.protocol.width() <= 2);
        }
        if entry.family != "example-4.2" {
            assert!(entry.protocol.num_leaders() <= 1);
        }
    }
}
