//! Golden regression test for the Lemma 7.3 shrinking step of the Section 8
//! pipeline.
//!
//! Runs `analyze_protocol` on every `catalog::all(n)` entry for
//! `n ∈ {1, …, 5}`, and on `flock-unary(n=6)`, under the default exploration
//! limits and pins the shrunk multicycle of each report: the multiplicity of
//! every simple cycle, the edge Parikh image, the cycle count, the edge length
//! and the displacement, or `none` when the step does not run. Any change to
//! the targeted minimal-solution searches or to the covering choices of
//! `shrink_multicycle` that alters the result shows up here.

use pp_petri::ExplorationLimits;
use pp_protocols::{catalog, flock};
use pp_statecomplexity::{analyze_protocol, PipelineReport};

/// One line per catalog entry, in `catalog::all(n)` order for n = 1..=5,
/// then flock-unary(n=6).
const GOLDEN: &[&str] = &[
    "example-4.1(n=1) multiplicities=[1] parikh=[1] cycles=1 edges=1 displacement=-1·s0 +1·s1",
    "example-4.2(n=1) none",
    "flock-unary(n=1) none",
    "binary-threshold(n=1) multiplicities=[1] parikh=[1] cycles=1 edges=1 displacement=-1·s0 +1·s2",
    "flock-doubling(n=1) none",
    "majority(n=1) multiplicities=[1, 1, 1, 1] parikh=[1, 1, 1, 1] cycles=4 edges=4 displacement=-1·s0 -1·s1 +2·s2",
    "modulo-3(n=1) multiplicities=[1, 1, 1, 1, 1, 1, 1] parikh=[1, 1, 1, 1, 1, 1, 1, 1, 1] cycles=7 edges=9 displacement=-3·s0 +1·s4 +1·s5 +1·s6",
    "example-4.1(n=2) multiplicities=[1, 1] parikh=[1, 1] cycles=2 edges=2 displacement=-2·s0 +2·s1",
    "example-4.2(n=2) none",
    "flock-unary(n=2) multiplicities=[1, 1, 1] parikh=[1, 1, 1] cycles=3 edges=3 displacement=-3·s1 +3·s2",
    "binary-threshold(n=2) multiplicities=[1, 1, 1, 1] parikh=[1, 1, 1, 1] cycles=4 edges=4 displacement=-1·s0 -1·s1 +2·s3",
    "flock-doubling(n=2) multiplicities=[1, 1, 1] parikh=[1, 1, 1] cycles=3 edges=3 displacement=-3·s1 +3·s2",
    "majority(n=2) multiplicities=[1, 1, 1, 1] parikh=[1, 1, 1, 1] cycles=4 edges=4 displacement=-1·s0 -1·s1 +2·s2",
    "modulo-3(n=2) multiplicities=[1, 1, 1, 1, 1, 1, 1] parikh=[1, 1, 1, 1, 1, 1, 1, 1, 1] cycles=7 edges=9 displacement=-3·s0 +1·s4 +1·s5 +1·s6",
    "example-4.1(n=3) multiplicities=[1, 1, 1] parikh=[1, 1, 1] cycles=3 edges=3 displacement=-3·s0 +3·s1",
    "example-4.2(n=3) none",
    "flock-unary(n=3) multiplicities=[1, 1, 2, 1, 1, 1] parikh=[1, 1, 2, 1, 1, 1] cycles=7 edges=7 displacement=+3·s0 -4·s1 -5·s2 +6·s3",
    "binary-threshold(n=3) multiplicities=[1, 1, 1, 1] parikh=[1, 1, 1, 1] cycles=4 edges=4 displacement=-1·s0 -1·s1 +2·s4",
    "majority(n=3) multiplicities=[1, 1, 1, 1] parikh=[1, 1, 1, 1] cycles=4 edges=4 displacement=-1·s0 -1·s1 +2·s2",
    "modulo-3(n=3) multiplicities=[1, 1, 1, 1, 1, 1, 1] parikh=[1, 1, 1, 1, 1, 1, 1, 1, 1] cycles=7 edges=9 displacement=-3·s0 +1·s4 +1·s5 +1·s6",
    "example-4.1(n=4) multiplicities=[1, 1, 1, 1] parikh=[1, 1, 1, 1] cycles=4 edges=4 displacement=-4·s0 +4·s1",
    "example-4.2(n=4) none",
    "flock-unary(n=4) multiplicities=[1, 1, 1, 1, 1, 2, 1, 1, 1, 1] parikh=[1, 1, 1, 1, 1, 2, 1, 1, 1, 1] cycles=11 edges=11 displacement=+6·s0 -5·s1 -4·s2 -6·s3 +9·s4",
    "binary-threshold(n=4) multiplicities=[1, 1, 1, 1, 1, 1, 1] parikh=[1, 1, 1, 1, 1, 1, 1] cycles=7 edges=7 displacement=-1·s0 -1·s1 -1·s2 +3·s4",
    "flock-doubling(n=4) multiplicities=[1, 2, 1, 1, 1] parikh=[1, 2, 1, 1, 1] cycles=6 edges=6 displacement=+2·s0 -3·s1 -4·s2 +5·s3",
    "majority(n=4) multiplicities=[1, 1, 1, 1] parikh=[1, 1, 1, 1] cycles=4 edges=4 displacement=-1·s0 -1·s1 +2·s2",
    "modulo-3(n=4) multiplicities=[1, 1, 1, 1, 1, 1, 1] parikh=[1, 1, 1, 1, 1, 1, 1, 1, 1] cycles=7 edges=9 displacement=-3·s0 +1·s4 +1·s5 +1·s6",
    "example-4.1(n=5) multiplicities=[1, 1, 1, 1, 1] parikh=[1, 1, 1, 1, 1] cycles=5 edges=5 displacement=-5·s0 +5·s1",
    "example-4.2(n=5) none",
    "flock-unary(n=5) multiplicities=[1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 2] parikh=[1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 2] cycles=17 edges=17 displacement=+10·s0 -6·s1 -5·s2 -5·s3 -7·s4 +13·s5",
    "binary-threshold(n=5) multiplicities=[1, 1, 1, 1, 1, 1, 1] parikh=[1, 1, 1, 1, 1, 1, 1] cycles=7 edges=7 displacement=-1·s0 -1·s1 -1·s2 +3·s5",
    "majority(n=5) multiplicities=[1, 1, 1, 1] parikh=[1, 1, 1, 1] cycles=4 edges=4 displacement=-1·s0 -1·s1 +2·s2",
    "modulo-3(n=5) multiplicities=[1, 1, 1, 1, 1, 1, 1] parikh=[1, 1, 1, 1, 1, 1, 1, 1, 1] cycles=7 edges=9 displacement=-3·s0 +1·s4 +1·s5 +1·s6",
    "flock-unary(n=6) multiplicities=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 2, 2] parikh=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 2, 2] cycles=24 edges=24 displacement=+15·s0 -7·s1 -6·s2 -6·s3 -6·s4 -8·s5 +18·s6",
];

fn render(name: &str, report: &PipelineReport) -> String {
    let shrunk = report.shrunk.as_ref().map_or("none".to_owned(), |s| {
        format!(
            "multiplicities={:?} parikh={:?} cycles={} edges={} displacement={}",
            s.multiplicities, s.parikh, s.cycle_count, s.edge_length, s.displacement
        )
    });
    format!("{name} {shrunk}")
}

#[test]
fn shrunk_multicycles_match_the_golden_table() {
    let limits = ExplorationLimits::default();
    let mut protocols = Vec::new();
    for n in 1..=5u64 {
        for entry in catalog::all(n) {
            protocols.push((format!("{}(n={n})", entry.family), entry.protocol));
        }
    }
    protocols.push((
        "flock-unary(n=6)".to_owned(),
        flock::flock_of_birds_unary(6),
    ));
    let actual: Vec<String> = protocols
        .iter()
        .map(|(name, protocol)| render(name, &analyze_protocol(protocol, &limits)))
        .collect();
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
