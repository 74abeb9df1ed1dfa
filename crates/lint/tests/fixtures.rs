//! The fixture corpus as a regression suite: every rule must still fire
//! on its tripping fixture and stay silent on its passing one. Running
//! inside `cargo test -q` makes a rule regression a tier-1 failure, not
//! just a CI-job failure.

use pp_lint::{lint_source, Finding, Rule};
use std::path::Path;

/// Loads a fixture from `crates/lint/fixtures/`.
fn fixture(rule_dir: &str, case: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rule_dir)
        .join(case);
    std::fs::read(&path).unwrap_or_else(|err| panic!("reading {}: {err}", path.display()))
}

/// Lints a fixture under the synthetic workspace path that selects the
/// rules under test (module-scoped rules key off the path).
fn lint_fixture(rule_dir: &str, case: &str, path_hint: &str) -> Vec<Finding> {
    lint_source(path_hint, &fixture(rule_dir, case))
}

/// (fixture dir, path hint, rule that must trip)
const CASES: &[(&str, &str, Rule)] = &[
    (
        "relaxed-ordering-audit",
        "crates/petri/src/counters.rs",
        Rule::RelaxedOrderingAudit,
    ),
    ("exact-wrap", "crates/petri/src/packed.rs", Rule::ExactWrap),
    ("markers", "crates/petri/src/counters.rs", Rule::BadAllow),
    (
        "marker-drift",
        "crates/petri/src/packed.rs",
        Rule::MarkerDrift,
    ),
];

#[test]
fn every_trip_fixture_trips_its_rule() {
    for &(dir, hint, rule) in CASES {
        let findings = lint_fixture(dir, "trip.rs", hint);
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "{dir}/trip.rs must trip {:?}; got {findings:?}",
            rule.name()
        );
    }
}

#[test]
fn every_pass_fixture_is_clean() {
    for &(dir, hint, _) in CASES {
        let findings = lint_fixture(dir, "pass.rs", hint);
        assert!(
            findings.is_empty(),
            "{dir}/pass.rs must lint clean; got {findings:?}"
        );
    }
}

#[test]
fn trip_fixtures_find_every_expected_site() {
    // The exact-wrap trip has two wrapping calls on one line; both must
    // be reported (the rule must not stop at the first).
    let findings = lint_fixture("exact-wrap", "trip.rs", "crates/petri/src/packed.rs");
    let wraps: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::ExactWrap)
        .collect();
    assert_eq!(wraps.len(), 2, "wrapping_sub + wrapping_add: {wraps:?}");

    // The malformed marker must not suppress the finding it names.
    let findings = lint_fixture("markers", "trip.rs", "crates/petri/src/counters.rs");
    assert!(
        findings.iter().any(|f| f.rule == Rule::BadAllow)
            && findings
                .iter()
                .any(|f| f.rule == Rule::RelaxedOrderingAudit),
        "reasonless marker must report bad-allow AND leave the finding: {findings:?}"
    );
}

#[test]
fn exact_wrap_only_fires_in_packed() {
    let source = fixture("exact-wrap", "trip.rs");
    let findings = lint_source("crates/petri/src/engine.rs", &source);
    assert!(
        !findings.iter().any(|f| f.rule == Rule::ExactWrap),
        "exact-wrap is scoped to packed.rs: {findings:?}"
    );
}

#[test]
fn strings_and_comments_never_trip_rules() {
    // The classic regex-linter failure modes: rule tokens inside string
    // literals, raw strings and comments must be invisible.
    let source = br####"
        fn describe() -> &'static str {
            // expect( and panic! in a comment are fine
            /* std::env::var("PP_FAKE") in a block comment too */
            "std::thread::scope spawn .unwrap() Ordering::Relaxed wrapping_add"
        }
        fn raw() -> &'static str {
            r##"env::var("PP_ALSO_FAKE") unreachable!()"##
        }
    "####
        .to_vec();
    let findings = lint_source("crates/petri/src/packed.rs", &source);
    assert!(findings.is_empty(), "nothing is code here: {findings:?}");
}
