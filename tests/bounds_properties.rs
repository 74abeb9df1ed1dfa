//! Property-based integration tests for the state-complexity bounds and the
//! Petri-net substrate, spanning crates.

use pp_bigint::Nat;
use pp_multiset::Multiset;
use pp_petri::cover::is_coverable;
use pp_petri::rackoff::covering_length_bound;
use pp_petri::Analysis;
use pp_petri::ExplorationLimits;
use pp_protocols::leaders_n::example_4_2;
use pp_statecomplexity::{corollary_4_4_min_states, theorem_4_3_bound};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn theorem_4_3_bound_is_monotone(
        states in 1u64..12,
        width in 1u64..6,
        leaders in 0u64..6,
    ) {
        let base = theorem_4_3_bound(states, width, leaders);
        prop_assert_eq!(
            base.approx_cmp(&theorem_4_3_bound(states + 1, width, leaders)),
            std::cmp::Ordering::Less
        );
        prop_assert_ne!(
            base.approx_cmp(&theorem_4_3_bound(states, width + 1, leaders)),
            std::cmp::Ordering::Greater
        );
        prop_assert_ne!(
            base.approx_cmp(&theorem_4_3_bound(states, width, leaders + 1)),
            std::cmp::Ordering::Greater
        );
    }

    #[test]
    fn corollary_4_4_is_monotone_in_n(log2_n in 4.0f64..1e12, h in 0.05f64..0.49) {
        let smaller = corollary_4_4_min_states(log2_n, 2, h);
        let larger = corollary_4_4_min_states(log2_n * 4.0, 2, h);
        prop_assert!(larger >= smaller);
        prop_assert!(smaller >= 0.0);
    }

    #[test]
    fn rackoff_bound_dominates_actual_covering_words(
        input in 0u64..5,
        p_count in 1u64..3,
        q_count in 0u64..3,
    ) {
        // On Example 4.2 (n = 2), every coverable target is covered by a word
        // far shorter than the Rackoff bound of Lemma 5.3.
        let protocol = example_4_2(2);
        let net = protocol.net();
        let p = protocol.state_id("p").unwrap();
        let q = protocol.state_id("q").unwrap();
        let target = Multiset::from_pairs([(p, p_count), (q, q_count)]);
        let start = protocol.initial_config_with_count(input);
        let coverable = is_coverable(net, &start, &target);
        let word = Analysis::new(net)
            .covering_word(start.clone(), target.clone())
            .run()
            .into_word();
        prop_assert_eq!(coverable, word.is_some());
        if let Some(word) = word {
            let bound = covering_length_bound(net, &target);
            prop_assert!(Nat::from(word.len() as u64) < bound);
        }
    }

    #[test]
    fn verification_and_predicate_agree_on_example_4_2(n in 1u64..4, input in 0u64..6) {
        use pp_population::verify::verify_input;
        use pp_population::Predicate;
        let protocol = example_4_2(n);
        let report = verify_input(
            &protocol,
            &Analysis::new(protocol.net()),
            &Predicate::counting("i", n),
            &Multiset::from_pairs([("i".to_string(), input)]),
            &ExplorationLimits::default(),
        );
        prop_assert!(report.is_correct());
        prop_assert_eq!(report.expected, input >= n);
    }
}
