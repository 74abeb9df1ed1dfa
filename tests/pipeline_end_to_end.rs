//! Integration test: the Section 8 pipeline runs end to end on the catalog
//! and its intermediate objects satisfy the lemmas they instantiate.

use pp_petri::bottom::theorem_6_1_bound;
use pp_petri::ExplorationLimits;
use pp_population::StateId;
use pp_protocols::{catalog, flock, leaders_n, modulo};
use pp_statecomplexity::{analyze_protocol, Section8Constants};
use std::collections::BTreeSet;

#[test]
fn pipeline_objects_satisfy_their_lemmas() {
    let limits = ExplorationLimits::with_max_configurations(800);
    for protocol in [
        leaders_n::example_4_2(2),
        modulo::modulo_with_leader(2, 0),
        flock::flock_of_birds_unary(3),
    ] {
        let report = analyze_protocol(&protocol, &limits);
        assert!(report.is_complete(), "{} incomplete", protocol.name());

        // Theorem 6.1: the witness validates and is within the bound.
        let non_initial: BTreeSet<StateId> = protocol
            .states()
            .filter(|s| !protocol.initial_states().contains(s))
            .collect();
        let restricted = protocol.net().restrict(&non_initial);
        let leaders = protocol.leaders().restrict(&non_initial);
        let witness = report.witness.as_ref().expect("witness");
        assert!(
            witness.validate(&restricted, &leaders, &limits),
            "{}: witness does not validate",
            protocol.name()
        );
        let bound = theorem_6_1_bound(&restricted, &leaders);
        assert!(witness.within_bound(&restricted, &bound));

        // Lemma 7.2: total cycle length within |E|·|S| when it exists.
        if let (Some(states), Some(edges), Some(len)) = (
            report.control_states,
            report.control_edges,
            report.total_cycle_length,
        ) {
            assert!(
                len <= states * edges,
                "{}: Lemma 7.2 violated",
                protocol.name()
            );
        }

        // Lemma 7.3: the shrunk multicycle (when exercised) preserves signs.
        if let Some(shrunk) = &report.shrunk {
            assert!(
                shrunk.signs_preserved(4),
                "{}: Lemma 7.3 violated",
                protocol.name()
            );
        }
    }
}

/// Lemma 7.3 on the whole catalog: wherever the pipeline shrinks a
/// multicycle, the result keeps the sign of `Δ(Θ)` on every place.
#[test]
fn shrunk_multicycles_preserve_signs_on_the_catalog() {
    let limits = ExplorationLimits::default();
    for n in 1..=5u64 {
        for entry in catalog::all(n) {
            if let Some(shrunk) = &analyze_protocol(&entry.protocol, &limits).shrunk {
                assert!(
                    shrunk.signs_preserved(4),
                    "{}(n={n}): Lemma 7.3 violated: {} became {}",
                    entry.family,
                    shrunk.original_displacement,
                    shrunk.displacement
                );
            }
        }
    }
}

#[test]
fn pipeline_bounds_are_the_section_8_bounds() {
    let protocol = leaders_n::example_4_2(3);
    let report = analyze_protocol(&protocol, &ExplorationLimits::default());
    let constants = Section8Constants::for_protocol(&protocol);
    assert_eq!(
        report.theorem_4_3_bound.approx_cmp(&constants.final_bound),
        std::cmp::Ordering::Equal
    );
    assert_eq!(report.constants.d, constants.d);
    assert_eq!(report.constants.r, constants.r);
    // The Theorem 4.3 bound dominates the Theorem 6.1 bound of the restricted
    // net (the latter is one ingredient of the former).
    assert_eq!(
        report
            .theorem_6_1_bound
            .approx_cmp(&report.theorem_4_3_bound),
        std::cmp::Ordering::Less
    );
}

#[test]
fn modulo_pipeline_exercises_every_section_7_object() {
    let protocol = modulo::modulo_with_leader(3, 1);
    let limits = ExplorationLimits::with_max_configurations(800);
    let report = analyze_protocol(&protocol, &limits);
    let witness = report.witness.expect("witness");
    assert!(
        !witness.pumped_places.is_empty(),
        "leader walk must pump done-agents"
    );
    assert!(report.control_states.unwrap() >= 3);
    assert_eq!(report.strongly_connected, Some(true));
    assert!(report.total_cycle_length.unwrap() > 0);
    assert!(report.shrunk.is_some());
}
