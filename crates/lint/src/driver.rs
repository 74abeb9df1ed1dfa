//! The workspace driver: file discovery, the rule pipeline with
//! per-rule timing, and suppression + marker-drift accounting.
//!
//! The driver walks `crates/`, `tests/`, `examples/` and `src/` under
//! the workspace root, lints every `.rs` file, and skips exactly three
//! subtrees: `vendor/` (third-party stand-ins are not held to repo
//! rules), `target/` (build output), and `crates/lint/fixtures/` (the
//! lint's own corpus of deliberately-tripping files). Discovery order
//! is sorted, so output is byte-stable across filesystems.
//!
//! The pipeline ([`lint_files`]) runs in fixed phases: lex every file,
//! run each rule as a timed pass, then apply the allow markers — a
//! marker suppresses its rule's findings at its effective line, and a
//! marker that suppresses *nothing* becomes a `marker-drift` finding.
//! The result is a [`Report`]: sorted findings plus the per-phase
//! wall-time table the JSON schema exposes.

use crate::lexer::{lex, Token};
use crate::rules::{self, Finding, Rule};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One lexed source file: the unit every rule reads.
pub(crate) struct ParsedFile {
    /// Workspace-relative path, `/`-separated.
    pub(crate) path: String,
    /// Raw bytes.
    pub(crate) src: Vec<u8>,
    /// The total lexer's token stream.
    pub(crate) tokens: Vec<Token>,
}

impl ParsedFile {
    /// Lexes one file.
    fn new(path: String, src: Vec<u8>) -> Self {
        let tokens = lex(&src);
        ParsedFile { path, src, tokens }
    }
}

/// Directories (workspace-relative) the driver scans for `.rs` files.
pub const SCAN_ROOTS: &[&str] = &["crates", "tests", "examples", "src"];

/// Workspace-relative path prefixes the driver never descends into.
pub const SKIP_PREFIXES: &[&str] = &["vendor", "target", "crates/lint/fixtures"];

/// Wall time and yield of one pipeline phase (a rule, or the `parse`
/// pseudo-phase).
pub struct RuleTiming {
    /// Phase name — a rule name or `"parse"`.
    pub rule: &'static str,
    /// Wall time of the phase, in microseconds.
    pub wall_us: u64,
    /// Findings the phase produced (pre-suppression).
    pub findings: usize,
}

/// The result of one lint run: findings, per-phase timing, and totals.
pub struct Report {
    /// Unsuppressed findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Per-phase wall time, in pipeline order.
    pub timings: Vec<RuleTiming>,
    /// Number of files analysed.
    pub files: usize,
    /// Total wall time, in milliseconds.
    pub wall_ms: u64,
}

/// Lints the whole workspace rooted at `root`: every discovered file
/// through [`lint_files`].
///
/// # Errors
/// Propagates filesystem errors from the walk (an unreadable workspace
/// must fail the check loudly, not pass it silently).
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let t0 = Instant::now();
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            walk(root, &dir, &mut files)?;
        }
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let source = fs::read(root.join(&file))?;
        sources.push((file, source));
    }
    let mut report = lint_files(sources);
    report.wall_ms = u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX);
    Ok(report)
}

/// Lints a set of in-memory files: lexing, every rule as a timed pass,
/// then marker suppression and the `marker-drift` check. This is the
/// whole pipeline minus file discovery — [`lint_workspace`] and
/// `lint_source` both call it.
#[must_use]
pub fn lint_files(sources: Vec<(String, Vec<u8>)>) -> Report {
    let t0 = Instant::now();
    let mut timings = Vec::new();

    let t = Instant::now();
    let mut parsed: Vec<ParsedFile> = sources
        .into_iter()
        .map(|(path, src)| ParsedFile::new(path, src))
        .collect();
    parsed.sort_by(|a, b| a.path.cmp(&b.path));
    let files: Vec<rules::File> = parsed.iter().map(rules::File::from_parsed).collect();
    timings.push(RuleTiming {
        rule: "parse",
        wall_us: phase_us(t),
        findings: 0,
    });

    // Allow markers (and their malformed cousins) per file.
    let mut findings: Vec<Finding> = Vec::new();
    let mut allows: Vec<(usize, rules::Allow)> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let (file_allows, bad) = rules::collect_allows(file);
        findings.extend(bad);
        allows.extend(file_allows.into_iter().map(|a| (fi, a)));
    }

    // Per-file rules, rule-major so each rule's wall time is one row.
    type PerFilePass = fn(&rules::File, &mut Vec<Finding>);
    let per_file: &[(Rule, PerFilePass)] = &[
        (Rule::RelaxedOrderingAudit, rules::relaxed_ordering_audit),
        (Rule::ExactWrap, rules::exact_wrap),
    ];
    for &(rule, pass) in per_file {
        let before = findings.len();
        let t = Instant::now();
        for file in &files {
            pass(file, &mut findings);
        }
        timings.push(RuleTiming {
            rule: rule.name(),
            wall_us: phase_us(t),
            findings: findings.len() - before,
        });
    }

    // Suppression: a marker eats its rule's findings at its effective
    // line; `bad-allow` and `marker-drift` are unsuppressible. Usage is
    // judged against pre-suppression findings, then unused markers
    // become drift findings.
    let t = Instant::now();
    let mut used = vec![false; allows.len()];
    findings.retain(|f| {
        if matches!(f.rule, Rule::BadAllow | Rule::MarkerDrift) {
            return true;
        }
        let mut suppressed = false;
        for (i, (fi, a)) in allows.iter().enumerate() {
            if a.rule == f.rule && a.effective_line == f.line && parsed[*fi].path == f.file {
                used[i] = true;
                suppressed = true;
            }
        }
        !suppressed
    });
    let before = findings.len();
    for (i, (fi, a)) in allows.iter().enumerate() {
        if !used[i] {
            findings.push(Finding {
                file: parsed[*fi].path.clone(),
                line: a.line,
                rule: Rule::MarkerDrift,
                message: format!(
                    "stale `allow({})` marker: the rule no longer fires at this site \
                     — delete the marker (suppressions must not rot)",
                    a.rule.name()
                ),
            });
        }
    }
    timings.push(RuleTiming {
        rule: Rule::MarkerDrift.name(),
        wall_us: phase_us(t),
        findings: findings.len() - before,
    });

    findings.sort();
    findings.dedup();
    Report {
        findings,
        timings,
        files: parsed.len(),
        wall_ms: u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX),
    }
}

fn phase_us(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Serialises a [`Report`] as the versioned JSON document the CLI's
/// `--format json` emits (`schema_version` 2):
///
/// ```json
/// {
///   "schema_version": 2,
///   "files": 113,
///   "wall_ms": 240,
///   "rules": [ {"rule": "parse", "wall_us": 180000, "findings": 0}, … ],
///   "findings": [ {"file": "…", "line": 7, "rule": "…", "message": "…"}, … ]
/// }
/// ```
///
/// One object per run (v1 emitted one object per finding); `rules`
/// rows follow pipeline order and include the `parse` pseudo-phase;
/// finding counts in `rules` are pre-suppression.
/// Hand-rolled — the workspace vendors no serde.
#[must_use]
pub fn report_json(report: &Report) -> String {
    let mut out = String::from("{\"schema_version\":2");
    out.push_str(&format!(",\"files\":{}", report.files));
    out.push_str(&format!(",\"wall_ms\":{}", report.wall_ms));
    out.push_str(",\"rules\":[");
    for (i, t) in report.timings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":{},\"wall_us\":{},\"findings\":{}}}",
            json_string(t.rule),
            t.wall_us,
            t.findings
        ));
    }
    out.push_str("],\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
            json_string(&f.file),
            f.line,
            json_string(f.rule.name()),
            json_string(&f.message)
        ));
    }
    out.push_str("]}");
    out
}

/// Escapes a string as a JSON string literal.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The number of `.rs` files [`lint_workspace`] would scan — surfaced
/// so the CLI can report coverage and tests can assert the walk sees
/// the engine.
///
/// # Errors
/// Propagates filesystem errors from the walk.
pub fn count_files(root: &Path) -> io::Result<usize> {
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            walk(root, &dir, &mut files)?;
        }
    }
    Ok(files.len())
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if SKIP_PREFIXES.iter().any(|skip| rel.starts_with(skip)) {
            continue;
        }
        let name = path.file_name().map(|n| n.to_string_lossy().to_string());
        if name.as_deref().is_some_and(|n| n.starts_with('.')) {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, out)?;
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}
