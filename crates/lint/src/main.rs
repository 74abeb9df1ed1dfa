//! The `pp_lint` CLI: lints the workspace and exits nonzero on any
//! unjustified finding.
//!
//! ```text
//! pp_lint [--check] [--root <dir>] [--format text|json] [--explain <rule>]
//! ```
//!
//! `--check` is the CI gate (and the default behaviour — the flag
//! exists so the invocation documents its intent); `--root` overrides
//! the workspace root (default: the enclosing workspace of this crate);
//! `--explain <rule>` prints a rule's contract plus its fixture
//! trip/pass pair and exits. `--format json` emits one versioned
//! document per run:
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "files": 113,
//!   "wall_ms": 240,
//!   "rules": [ {"rule": "parse", "wall_us": 180000, "findings": 0}, … ],
//!   "findings": [ {"file": "…", "line": 7, "rule": "…", "message": "…"}, … ]
//! }
//! ```
//!
//! `rules` rows follow pipeline order (the `parse` pseudo-phase first,
//! then one row per rule; per-row `findings` are
//! pre-suppression); `wall_ms` is the whole run, which CI asserts stays
//! under its latency budget. Schema changes bump `schema_version`; the
//! golden-file test (`tests/golden_json.rs`) pins the current shape.

use pp_lint::{lint_workspace, report_json, Rule};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format_json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {}
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--format" => match args.next().as_deref() {
                Some("json") => format_json = true,
                Some("text") => format_json = false,
                _ => return usage("--format takes `text` or `json`"),
            },
            "--explain" => match args.next() {
                Some(name) => return explain(&name),
                None => return usage("--explain needs a rule name"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let root = root.unwrap_or_else(default_root);

    let report = match lint_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("pp_lint: cannot lint {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    if format_json {
        println!("{}", report_json(&report));
    } else {
        for finding in &report.findings {
            println!(
                "{}:{}: {}: {}",
                finding.file,
                finding.line,
                finding.rule.name(),
                finding.message
            );
        }
    }
    if report.findings.is_empty() {
        eprintln!(
            "pp_lint: clean ({} files, {} ms)",
            report.files, report.wall_ms
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("pp_lint: {} finding(s)", report.findings.len());
        ExitCode::FAILURE
    }
}

/// The workspace root: two levels above this crate's manifest
/// (`crates/lint` → the workspace), falling back to the current
/// directory when run outside cargo.
#[expect(
    clippy::disallowed_methods,
    reason = "CARGO_MANIFEST_DIR is cargo's own variable locating this crate, not a PP_* gate"
)]
fn default_root() -> PathBuf {
    if let Some(manifest) = std::env::var_os("CARGO_MANIFEST_DIR") {
        let manifest = PathBuf::from(manifest);
        if let Some(root) = manifest.ancestors().nth(2) {
            return root.to_path_buf();
        }
    }
    PathBuf::from(".")
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("pp_lint: {problem}");
    eprintln!("usage: pp_lint [--check] [--root <dir>] [--format text|json] [--explain <rule>]");
    ExitCode::from(2)
}

/// `--explain <rule>`: the rule's contract plus its fixture trip/pass
/// pair (compiled in, so the explanation can never drift from the
/// corpus the tests assert on).
fn explain(name: &str) -> ExitCode {
    let Some(rule) = Rule::ALL.iter().copied().find(|r| r.name() == name) else {
        eprintln!("pp_lint: unknown rule {name:?}; known rules:");
        for r in Rule::ALL {
            eprintln!("  {}", r.name());
        }
        return ExitCode::from(2);
    };
    println!("{name}\n{}\n", "=".repeat(name.len()));
    println!("{}\n", rule.doc());
    let (trip, pass) = fixture_pair(rule);
    println!("--- trips the rule ---\n{trip}");
    println!("--- passes ---\n{pass}");
    ExitCode::SUCCESS
}

/// The compiled-in fixture corpus, keyed by rule. `bad-allow` lives in
/// the `markers` fixture dir.
fn fixture_pair(rule: Rule) -> (&'static str, &'static str) {
    macro_rules! pair {
        ($dir:literal) => {
            (
                include_str!(concat!("../fixtures/", $dir, "/trip.rs")),
                include_str!(concat!("../fixtures/", $dir, "/pass.rs")),
            )
        };
    }
    match rule {
        Rule::RelaxedOrderingAudit => pair!("relaxed-ordering-audit"),
        Rule::ExactWrap => pair!("exact-wrap"),
        Rule::BadAllow => pair!("markers"),
        Rule::MarkerDrift => pair!("marker-drift"),
    }
}
