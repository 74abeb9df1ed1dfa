//! Golden regression test for the Lemma 7.3 shrinking step of the Section 8
//! pipeline.
//!
//! Runs `analyze_protocol` on every `catalog::all(n)` entry for
//! `n ∈ {1, …, 5}`, and on `flock-unary(n=6)`, under the default exploration
//! limits and pins the shrunk multicycle of each report: the multiplicity of
//! every simple cycle, the edge Parikh image, the cycle count, the edge length
//! and the displacement, or `none` when the step does not run. Any change to
//! the Hilbert basis or to the covering choices of `shrink_multicycle` that
//! alters the result shows up here.

use pp_petri::ExplorationLimits;
use pp_protocols::{catalog, flock};
use pp_statecomplexity::{analyze_protocol, PipelineReport};

/// One line per catalog entry, in `catalog::all(n)` order for n = 1..=5,
/// then flock-unary(n=6).
const GOLDEN: &[&str] = &[
    "example-4.1(n=1) multiplicities=[3] parikh=[3] cycles=3 edges=3 displacement=-3·s0 +3·s1",
    "example-4.2(n=1) none",
    "flock-unary(n=1) none",
    "binary-threshold(n=1) multiplicities=[3] parikh=[3] cycles=3 edges=3 displacement=-3·s0 +3·s2",
    "flock-doubling(n=1) none",
    "majority(n=1) multiplicities=[4, 1, 3, 6] parikh=[4, 1, 3, 6] cycles=14 edges=14 displacement=-4·s0 -4·s1 +8·s2",
    "modulo-3(n=1) multiplicities=[7, 1, 3, 1, 3, 9, 9] parikh=[7, 1, 3, 7, 1, 3, 7, 9, 9] cycles=33 edges=47 displacement=-21·s0 +1·s4 +1·s5 +19·s6",
    "example-4.1(n=2) multiplicities=[1, 3] parikh=[1, 3] cycles=4 edges=4 displacement=-4·s0 +4·s1",
    "example-4.2(n=2) none",
    "flock-unary(n=2) multiplicities=[2, 2, 3] parikh=[2, 2, 3] cycles=7 edges=7 displacement=-7·s1 +7·s2",
    "binary-threshold(n=2) multiplicities=[2, 3, 3, 3] parikh=[2, 3, 3, 3] cycles=11 edges=11 displacement=-1·s0 -4·s1 +6·s3",
    "flock-doubling(n=2) multiplicities=[2, 2, 3] parikh=[2, 2, 3] cycles=7 edges=7 displacement=-7·s1 +7·s2",
    "majority(n=2) multiplicities=[4, 1, 3, 6] parikh=[4, 1, 3, 6] cycles=14 edges=14 displacement=-4·s0 -4·s1 +8·s2",
    "modulo-3(n=2) multiplicities=[7, 1, 3, 1, 3, 9, 9] parikh=[7, 1, 3, 7, 1, 3, 7, 9, 9] cycles=33 edges=47 displacement=-21·s0 +1·s4 +1·s5 +19·s6",
    "example-4.1(n=3) multiplicities=[1, 1, 3] parikh=[1, 1, 3] cycles=5 edges=5 displacement=-5·s0 +5·s1",
    "example-4.2(n=3) none",
    "flock-unary(n=3) multiplicities=[1, 1, 3, 4, 2, 4] parikh=[1, 1, 3, 4, 2, 4] cycles=15 edges=15 displacement=+1·s0 -5·s1 -10·s2 +14·s3",
    "binary-threshold(n=3) multiplicities=[2, 3, 3, 3] parikh=[2, 3, 3, 3] cycles=11 edges=11 displacement=-1·s0 -4·s1 +6·s4",
    "majority(n=3) multiplicities=[4, 1, 3, 6] parikh=[4, 1, 3, 6] cycles=14 edges=14 displacement=-4·s0 -4·s1 +8·s2",
    "modulo-3(n=3) multiplicities=[7, 1, 3, 1, 3, 9, 9] parikh=[7, 1, 3, 7, 1, 3, 7, 9, 9] cycles=33 edges=47 displacement=-21·s0 +1·s4 +1·s5 +19·s6",
    "example-4.1(n=4) multiplicities=[1, 1, 1, 3] parikh=[1, 1, 1, 3] cycles=6 edges=6 displacement=-6·s0 +6·s1",
    "example-4.2(n=4) none",
    "flock-unary(n=4) multiplicities=[1, 1, 1, 1, 1, 3, 7, 2, 3, 4] parikh=[1, 1, 1, 1, 1, 3, 7, 2, 3, 4] cycles=24 edges=24 displacement=+1·s0 -6·s1 -6·s2 -11·s3 +22·s4",
    "binary-threshold(n=4) multiplicities=[2, 3, 2, 4, 3, 4, 3] parikh=[2, 3, 2, 4, 3, 4, 3] cycles=21 edges=21 displacement=-1·s0 -1·s1 -5·s2 +10·s4",
    "flock-doubling(n=4) multiplicities=[1, 3, 3, 2, 4] parikh=[1, 3, 3, 2, 4] cycles=13 edges=13 displacement=+1·s0 -4·s1 -9·s2 +12·s3",
    "majority(n=4) multiplicities=[4, 1, 3, 6] parikh=[4, 1, 3, 6] cycles=14 edges=14 displacement=-4·s0 -4·s1 +8·s2",
    "modulo-3(n=4) multiplicities=[7, 1, 3, 1, 3, 9, 9] parikh=[7, 1, 3, 7, 1, 3, 7, 9, 9] cycles=33 edges=47 displacement=-21·s0 +1·s4 +1·s5 +19·s6",
    "example-4.1(n=5) multiplicities=[1, 1, 1, 1, 3] parikh=[1, 1, 1, 1, 3] cycles=7 edges=7 displacement=-7·s0 +7·s1",
    "example-4.2(n=5) none",
    "flock-unary(n=5) multiplicities=[1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 11, 2, 3, 3, 5] parikh=[1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 11, 2, 3, 3, 5] cycles=36 edges=36 displacement=+1·s0 -7·s1 -7·s2 -7·s3 -12·s4 +32·s5",
    "binary-threshold(n=5) multiplicities=[2, 3, 2, 4, 3, 4, 3] parikh=[2, 3, 2, 4, 3, 4, 3] cycles=21 edges=21 displacement=-1·s0 -1·s1 -5·s2 +10·s5",
    "majority(n=5) multiplicities=[4, 1, 3, 6] parikh=[4, 1, 3, 6] cycles=14 edges=14 displacement=-4·s0 -4·s1 +8·s2",
    "modulo-3(n=5) multiplicities=[7, 1, 3, 1, 3, 9, 9] parikh=[7, 1, 3, 7, 1, 3, 7, 9, 9] cycles=33 edges=47 displacement=-21·s0 +1·s4 +1·s5 +19·s6",
    "flock-unary(n=6) multiplicities=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 16, 2, 3, 3, 4, 5] parikh=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 16, 2, 3, 3, 4, 5] cycles=50 edges=50 displacement=+1·s0 -8·s1 -8·s2 -8·s3 -8·s4 -13·s5 +44·s6",
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
