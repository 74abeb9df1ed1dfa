//! Golden-file test for the machine-readable report: linting the
//! fixture corpus must produce byte-for-byte the committed JSON (after
//! zeroing the wall-time fields, which are the only sanctioned
//! nondeterminism). This pins the schema — CI consumers parse it — and
//! doubles as an end-to-end determinism gate over the whole pipeline:
//! a rule that starts flapping, reordering findings, or renaming a
//! field shows up as golden drift.
//!
//! To regenerate after an intentional schema or rule change:
//!
//! ```text
//! cargo test -p pp_lint --test golden_json -- --ignored bless
//! ```

use pp_lint::{lint_files, report_json};
use std::path::{Path, PathBuf};

/// Every trip fixture, mounted at a synthetic workspace path that
/// satisfies its rule's module scoping, all linted as ONE workspace so
/// the marker machinery runs across the whole corpus.
const CORPUS: &[(&str, &str)] = &[
    ("relaxed-ordering-audit", "crates/petri/src/counters.rs"),
    ("exact-wrap", "crates/petri/src/packed.rs"),
    ("markers", "crates/petri/src/session.rs"),
    ("marker-drift", "crates/petri/src/karp_miller.rs"),
];

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("fixtures.json")
}

fn corpus_json() -> String {
    let sources = CORPUS
        .iter()
        .map(|&(dir, mount)| {
            let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("fixtures")
                .join(dir)
                .join("trip.rs");
            let src = std::fs::read(&path)
                .unwrap_or_else(|err| panic!("reading {}: {err}", path.display()));
            (mount.to_string(), src)
        })
        .collect();
    normalize(&report_json(&lint_files(sources)))
}

/// Zeroes the `wall_ms`/`wall_us` values — the only fields that may
/// differ between two runs on the same corpus.
fn normalize(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(hit) = ["\"wall_ms\":", "\"wall_us\":"]
        .iter()
        .filter_map(|k| rest.find(k).map(|i| i + k.len()))
        .min()
    {
        out.push_str(&rest[..hit]);
        out.push('0');
        rest = rest[hit..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn fixture_corpus_matches_the_golden_report() {
    let got = corpus_json();
    let want = std::fs::read_to_string(golden_path())
        .expect("missing golden file; run the `bless` test to create it");
    assert_eq!(
        got, want,
        "fixture corpus JSON drifted from tests/golden/fixtures.json; \
         if the change is intentional, re-bless (see module docs)"
    );
}

#[test]
fn corpus_json_is_deterministic() {
    assert_eq!(corpus_json(), corpus_json());
}

#[test]
#[ignore = "writes the golden file; run explicitly after intentional changes"]
fn bless() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, corpus_json()).unwrap();
}
