//! Golden regression test for the Theorem 6.1 witness search.
//!
//! Runs the Section 8 pipeline on every `catalog::all(n)` entry for
//! `n ∈ {1, …, 5}` under the default exploration limits and pins the whole
//! bottom witness (`σ`, `w`, `Q`, the pumped places, `α`, `β`, the component
//! size) together with the control-net and total-cycle counts of the
//! report. Any change to the search order, the checks or the exploration
//! underneath that alters which witness is returned shows up here.

use pp_petri::ExplorationLimits;
use pp_population::StateId;
use pp_protocols::catalog;
use pp_statecomplexity::{analyze_protocol, PipelineReport};
use std::collections::BTreeSet;

/// One line per catalog entry, in `catalog::all(n)` order for n = 1..=5.
const GOLDEN: &[&str] = &[
    "example-4.1(n=1) sigma=[] w=[0] q=[] pumped=[1] alpha=0 beta=s1 component=1 control=Some(1)/Some(1) cycle=Some(1)",
    "example-4.2(n=1) sigma=[0] w=[] q=[1, 2, 3, 4, 5] pumped=[] alpha=s2 + s4 beta=s2 + s4 component=1 control=Some(1)/Some(0) cycle=None",
    "flock-unary(n=1) sigma=[] w=[] q=[0] pumped=[] alpha=0 beta=0 component=1 control=Some(1)/Some(0) cycle=None",
    "binary-threshold(n=1) sigma=[0] w=[1] q=[1] pumped=[2] alpha=s2 beta=2·s2 component=1 control=Some(1)/Some(1) cycle=Some(1)",
    "flock-doubling(n=1) sigma=[] w=[] q=[0] pumped=[] alpha=0 beta=0 component=1 control=Some(1)/Some(0) cycle=None",
    "majority(n=1) sigma=[] w=[0] q=[] pumped=[2, 3] alpha=0 beta=s2 + s3 component=1 control=Some(1)/Some(4) cycle=Some(4)",
    "modulo-3(n=1) sigma=[] w=[0, 3, 6] q=[1, 2, 3] pumped=[4, 5, 6] alpha=s1 beta=s1 + s4 + s5 + s6 component=3 control=Some(3)/Some(9) cycle=Some(15)",
    "example-4.1(n=2) sigma=[] w=[1] q=[] pumped=[1] alpha=0 beta=s1 component=1 control=Some(1)/Some(2) cycle=Some(2)",
    "example-4.2(n=2) sigma=[0, 0] w=[] q=[1, 2, 3, 4, 5] pumped=[] alpha=2·s2 + 2·s4 beta=2·s2 + 2·s4 component=1 control=Some(1)/Some(0) cycle=None",
    "flock-unary(n=2) sigma=[] w=[0] q=[] pumped=[0, 2] alpha=0 beta=s0 + s2 component=1 control=Some(1)/Some(3) cycle=Some(3)",
    "binary-threshold(n=2) sigma=[0, 2] w=[0, 3] q=[2] pumped=[1, 3] alpha=s3 beta=s1 + 2·s3 component=1 control=Some(1)/Some(4) cycle=Some(4)",
    "flock-doubling(n=2) sigma=[] w=[0] q=[] pumped=[0, 2] alpha=0 beta=s0 + s2 component=1 control=Some(1)/Some(3) cycle=Some(3)",
    "majority(n=2) sigma=[] w=[0] q=[] pumped=[2, 3] alpha=0 beta=s2 + s3 component=1 control=Some(1)/Some(4) cycle=Some(4)",
    "modulo-3(n=2) sigma=[] w=[0, 3, 6] q=[1, 2, 3] pumped=[4, 5, 6] alpha=s1 beta=s1 + s4 + s5 + s6 component=3 control=Some(3)/Some(9) cycle=Some(15)",
    "example-4.1(n=3) sigma=[] w=[2] q=[] pumped=[1] alpha=0 beta=s1 component=1 control=Some(1)/Some(3) cycle=Some(3)",
    "example-4.2(n=3) sigma=[0, 0, 0] w=[] q=[1, 2, 3, 4, 5] pumped=[] alpha=3·s2 + 3·s4 beta=3·s2 + 3·s4 component=1 control=Some(1)/Some(0) cycle=None",
    "flock-unary(n=3) sigma=[] w=[0, 0, 1] q=[] pumped=[0, 2, 3] alpha=0 beta=3·s0 + s2 + s3 component=1 control=Some(1)/Some(6) cycle=Some(6)",
    "binary-threshold(n=3) sigma=[0, 2, 3] w=[0, 4] q=[2, 3] pumped=[1, 4] alpha=s4 beta=s1 + 2·s4 component=1 control=Some(1)/Some(4) cycle=Some(4)",
    "majority(n=3) sigma=[] w=[0] q=[] pumped=[2, 3] alpha=0 beta=s2 + s3 component=1 control=Some(1)/Some(4) cycle=Some(4)",
    "modulo-3(n=3) sigma=[] w=[0, 3, 6] q=[1, 2, 3] pumped=[4, 5, 6] alpha=s1 beta=s1 + s4 + s5 + s6 component=3 control=Some(3)/Some(9) cycle=Some(15)",
    "example-4.1(n=4) sigma=[] w=[3] q=[] pumped=[1] alpha=0 beta=s1 component=1 control=Some(1)/Some(4) cycle=Some(4)",
    "example-4.2(n=4) sigma=[0, 0, 0, 0] w=[] q=[1, 2, 3, 4, 5] pumped=[] alpha=4·s2 + 4·s4 beta=4·s2 + 4·s4 component=1 control=Some(1)/Some(0) cycle=None",
    "flock-unary(n=4) sigma=[] w=[0, 0, 0, 0, 1, 3] q=[] pumped=[0, 2, 3, 4] alpha=0 beta=6·s0 + s2 + s3 + s4 component=1 control=Some(1)/Some(10) cycle=Some(10)",
    "binary-threshold(n=4) sigma=[0, 0, 2, 4] w=[0, 0, 0, 2, 5] q=[3] pumped=[1, 2, 4] alpha=s4 beta=s1 + s2 + 2·s4 component=1 control=Some(1)/Some(7) cycle=Some(7)",
    "flock-doubling(n=4) sigma=[] w=[0, 0, 0, 1] q=[] pumped=[0, 2, 3] alpha=0 beta=4·s0 + s2 + s3 component=1 control=Some(1)/Some(5) cycle=Some(5)",
    "majority(n=4) sigma=[] w=[0] q=[] pumped=[2, 3] alpha=0 beta=s2 + s3 component=1 control=Some(1)/Some(4) cycle=Some(4)",
    "modulo-3(n=4) sigma=[] w=[0, 3, 6] q=[1, 2, 3] pumped=[4, 5, 6] alpha=s1 beta=s1 + s4 + s5 + s6 component=3 control=Some(3)/Some(9) cycle=Some(15)",
    "example-4.1(n=5) sigma=[] w=[4] q=[] pumped=[1] alpha=0 beta=s1 component=1 control=Some(1)/Some(5) cycle=Some(5)",
    "example-4.2(n=5) sigma=[0, 0, 0, 0, 0] w=[] q=[1, 2, 3, 4, 5] pumped=[] alpha=5·s2 + 5·s4 beta=5·s2 + 5·s4 component=1 control=Some(1)/Some(0) cycle=None",
    "flock-unary(n=5) sigma=[] w=[0, 0, 0, 0, 0, 0, 1, 1, 4, 5] q=[] pumped=[0, 2, 3, 4, 5] alpha=0 beta=10·s0 + s2 + s3 + s4 + s5 component=1 control=Some(1)/Some(15) cycle=Some(15)",
    "binary-threshold(n=5) sigma=[0, 0, 2, 4, 5] w=[0, 0, 0, 2, 6] q=[3, 4] pumped=[1, 2, 5] alpha=s5 beta=s1 + s2 + 2·s5 component=1 control=Some(1)/Some(7) cycle=Some(7)",
    "majority(n=5) sigma=[] w=[0] q=[] pumped=[2, 3] alpha=0 beta=s2 + s3 component=1 control=Some(1)/Some(4) cycle=Some(4)",
    "modulo-3(n=5) sigma=[] w=[0, 3, 6] q=[1, 2, 3] pumped=[4, 5, 6] alpha=s1 beta=s1 + s4 + s5 + s6 component=3 control=Some(3)/Some(9) cycle=Some(15)",
];

fn ids(places: &BTreeSet<StateId>) -> Vec<usize> {
    places.iter().map(|s| s.0).collect()
}

fn render(family: &str, n: u64, report: &PipelineReport) -> String {
    let witness = report.witness.as_ref().map_or("none".to_owned(), |w| {
        format!(
            "sigma={:?} w={:?} q={:?} pumped={:?} alpha={} beta={} component={}",
            w.sigma,
            w.w,
            ids(&w.q_places),
            ids(&w.pumped_places),
            w.alpha,
            w.beta,
            w.component_size
        )
    });
    format!(
        "{family}(n={n}) {witness} control={:?}/{:?} cycle={:?}",
        report.control_states, report.control_edges, report.total_cycle_length
    )
}

#[test]
fn bottom_witnesses_match_the_golden_table() {
    let limits = ExplorationLimits::default();
    let mut actual = Vec::new();
    for n in 1..=5u64 {
        for entry in catalog::all(n) {
            let protocol = &entry.protocol;
            let report = analyze_protocol(protocol, &limits);
            if let Some(witness) = &report.witness {
                let non_initial: BTreeSet<StateId> = protocol
                    .states()
                    .filter(|s| !protocol.initial_states().contains(s))
                    .collect();
                let restricted = protocol.net().restrict(&non_initial);
                let leaders = protocol.leaders().restrict(&non_initial);
                assert!(
                    witness.validate(&restricted, &leaders, &limits),
                    "{}(n={n}): witness does not validate",
                    entry.family
                );
            }
            actual.push(render(entry.family, n, &report));
        }
    }
    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "entry count differs; actual table:\n{}",
        actual.join("\n")
    );
    for (line, expected) in actual.iter().zip(GOLDEN) {
        assert_eq!(line, expected);
    }
}
