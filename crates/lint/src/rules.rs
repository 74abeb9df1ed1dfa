//! The repo-specific rule catalog: the rules clippy and rustc cannot
//! state (DESIGN.md, "Static analysis", maps every retired rule to the
//! toolchain lint that replaced it).
//!
//! `relaxed-ordering-audit` and `exact-wrap` are pure functions over one
//! file's token stream (plus its workspace-relative path, which scopes
//! `exact-wrap` to `packed.rs`). Rules are *lexical approximations* of semantic
//! invariants — they trade full type knowledge for zero dependencies
//! and total determinism — and every approximation is documented on the
//! rule. The escape hatch for a justified exception is an inline marker:
//!
//! ```text
//! // pp-lint: allow(<rule>) — <reason>
//! ```
//!
//! The reason is mandatory (a marker without one is itself a finding);
//! the marker suppresses the named rule on its own line when it trails
//! code, otherwise on the next code line. See `DESIGN.md`, chapter
//! "Static analysis", for the catalog rationale and how to add a rule.

use crate::driver::ParsedFile;
use crate::lexer::{Token, TokenKind};

/// The rules `pp_lint` enforces; see each variant for the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Every `Ordering::Relaxed` carries a `// relaxed:` justification.
    RelaxedOrderingAudit,
    /// `wrapping_add`/`wrapping_sub` in `packed.rs` only inside
    /// functions whose doc comment cites the width-bound invariant
    /// (`EXACT:`).
    ExactWrap,
    /// A malformed `pp-lint: allow(...)` marker (unknown rule or
    /// missing reason).
    BadAllow,
    /// An allow marker whose rule no longer fires at its site —
    /// suppressions must not rot. This rule is itself unsuppressible.
    MarkerDrift,
}

impl Rule {
    /// Every rule, in report order. The JSON schema's `rules` array
    /// follows this order.
    pub const ALL: &'static [Rule] = &[
        Rule::RelaxedOrderingAudit,
        Rule::ExactWrap,
        Rule::BadAllow,
        Rule::MarkerDrift,
    ];

    /// The marker / report name of the rule.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::RelaxedOrderingAudit => "relaxed-ordering-audit",
            Rule::ExactWrap => "exact-wrap",
            Rule::BadAllow => "bad-allow",
            Rule::MarkerDrift => "marker-drift",
        }
    }

    /// Parses a marker rule name. `marker-drift` is deliberately
    /// absent: a drifted marker cannot be suppressed by another marker.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "relaxed-ordering-audit" => Some(Rule::RelaxedOrderingAudit),
            "exact-wrap" => Some(Rule::ExactWrap),
            _ => None,
        }
    }

    /// One-paragraph contract for `pp_lint --explain <rule>`: what the
    /// rule enforces, the approximation it makes, and the fix.
    #[must_use]
    pub fn doc(self) -> &'static str {
        match self {
            Rule::RelaxedOrderingAudit => {
                "Every Ordering::Relaxed use carries a `// relaxed:` comment in the \
                 same statement justifying why no cross-thread ordering is needed. \
                 Relaxed atomics are correct exactly when the surrounding protocol \
                 makes them so; the justification is the protocol's paper trail."
            }
            Rule::ExactWrap => {
                "wrapping_add/wrapping_sub in packed.rs only inside functions whose \
                 doc comment cites the width-bound invariant (`EXACT:`). Wrapping \
                 word arithmetic on packed rows is only exact while every lane stays \
                 below its cell maximum; the doc line is the proof obligation."
            }
            Rule::BadAllow => {
                "A `pp-lint: allow(...)` marker must name a known rule and carry a \
                 non-empty justification after a separator: \
                 `// pp-lint: allow(<rule>) — <reason>`. A malformed marker is a \
                 finding, never a silent suppression."
            }
            Rule::MarkerDrift => {
                "An allow marker whose rule no longer fires at its effective line is \
                 itself a finding: suppressions must describe the code as it is, not \
                 as it was. Delete the stale marker (or fix the regression that \
                 stopped the rule from firing). This rule cannot be suppressed."
            }
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

/// Lints one file: every rule runs, and findings suppressed by
/// well-formed allow markers are subtracted — including the
/// `marker-drift` check on the markers themselves.
///
/// `path` is the workspace-relative path; it gates the module-scoped
/// rule (`exact-wrap` applies to `packed.rs` only).
#[must_use]
pub fn lint_source(path: &str, source: &[u8]) -> Vec<Finding> {
    crate::driver::lint_files(vec![(path.to_string(), source.to_vec())]).findings
}

/// One file under analysis, with its precomputed non-trivia view:
/// `code[k]` is the index into `tokens` of the `k`-th code token.
pub(crate) struct File<'a> {
    path: &'a str,
    src: &'a [u8],
    tokens: &'a [Token],
    code: Vec<usize>,
}

impl<'a> File<'a> {
    /// Borrows a [`ParsedFile`] as a rule-facing view.
    pub(crate) fn from_parsed(pf: &'a ParsedFile) -> File<'a> {
        File {
            path: &pf.path,
            src: &pf.src,
            tokens: &pf.tokens,
            code: pf
                .tokens
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.is_trivia())
                .map(|(i, _)| i)
                .collect(),
        }
    }
}

impl File<'_> {
    /// Text of the `k`-th code token ("" past the end).
    fn t(&self, k: usize) -> &str {
        self.code
            .get(k)
            .map_or("", |&i| self.tokens[i].text(self.src))
    }

    fn kind(&self, k: usize) -> Option<TokenKind> {
        self.code.get(k).map(|&i| self.tokens[i].kind)
    }

    fn line(&self, k: usize) -> u32 {
        self.code.get(k).map_or(0, |&i| self.tokens[i].line)
    }

    /// Whether the code tokens starting at `k` spell out `words`
    /// (`"::"` must be passed as two `":"` entries).
    fn seq(&self, k: usize, words: &[&str]) -> bool {
        words.iter().enumerate().all(|(j, w)| self.t(k + j) == *w)
    }

    fn stem_is(&self, stems: &[&str]) -> bool {
        let name = self.path.rsplit('/').next().unwrap_or(self.path);
        let stem = name.strip_suffix(".rs").unwrap_or(name);
        stems.contains(&stem)
    }

    /// Finds the code index of the delimiter closing the opener at
    /// `open` (which must be `(`, `[` or `{`); `None` if unbalanced.
    fn matching_close(&self, open: usize) -> Option<usize> {
        let (o, c) = match self.t(open) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return None,
        };
        let mut depth = 0usize;
        for k in open..self.code.len() {
            let t = self.t(k);
            if t == o {
                depth += 1;
            } else if t == c {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
        None
    }

    fn finding(&self, line: u32, rule: Rule, message: impl Into<String>) -> Finding {
        Finding {
            file: self.path.to_string(),
            line,
            rule,
            message: message.into(),
        }
    }
}

/// A parsed, well-formed allow marker.
pub(crate) struct Allow {
    /// The rule the marker suppresses.
    pub(crate) rule: Rule,
    /// The line the marker suppresses: its own when it trails code,
    /// otherwise the next code line.
    pub(crate) effective_line: u32,
    /// The marker comment's own line (where `marker-drift` reports).
    pub(crate) line: u32,
}

/// Extracts `pp-lint: allow(...)` markers from the comment tokens.
/// Malformed markers (unknown rule, missing reason) become `bad-allow`
/// findings instead of silent suppressions.
pub(crate) fn collect_allows(f: &File) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for (i, tok) in f.tokens.iter().enumerate() {
        if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = tok.text(f.src);
        // Doc comments never carry markers — they *describe* the marker
        // grammar (this crate's own docs would trip otherwise).
        if text.starts_with("///")
            || text.starts_with("//!")
            || text.starts_with("/**")
            || text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = text.find("pp-lint:") else {
            continue;
        };
        let rest = &text[at + "pp-lint:".len()..];
        let parsed = parse_allow(rest);
        match parsed {
            Ok(rule) => allows.push(Allow {
                rule,
                effective_line: effective_line(f, i),
                line: tok.line,
            }),
            Err(why) => findings.push(f.finding(
                tok.line,
                Rule::BadAllow,
                format!("malformed pp-lint marker: {why}"),
            )),
        }
    }
    (allows, findings)
}

/// Parses the tail of a marker after `pp-lint:`: requires
/// `allow(<known-rule>)` then a separator (`—`, `--` or `:`) and a
/// non-empty reason.
fn parse_allow(rest: &str) -> Result<Rule, String> {
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Err("expected `allow(<rule>)`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("unclosed `allow(`".to_string());
    };
    let name = rest[..close].trim();
    let Some(rule) = Rule::from_name(name) else {
        return Err(format!("unknown rule {name:?}"));
    };
    let mut tail = rest[close + 1..].trim_start();
    let mut separated = false;
    for sep in ["—", "--", "-", ":"] {
        if let Some(t) = tail.strip_prefix(sep) {
            tail = t;
            separated = true;
            break;
        }
    }
    if !separated || tail.trim().is_empty() {
        return Err(format!(
            "allow({name}) needs a justification: `// pp-lint: allow({name}) — <reason>`"
        ));
    }
    Ok(rule)
}

/// The line a marker comment suppresses.
fn effective_line(f: &File, comment_idx: usize) -> u32 {
    let line = f.tokens[comment_idx].line;
    let trails_code = f.tokens[..comment_idx]
        .iter()
        .rev()
        .take_while(|t| t.line == line)
        .any(|t| !t.is_trivia());
    if trails_code {
        return line;
    }
    f.tokens[comment_idx + 1..]
        .iter()
        .find(|t| !t.is_trivia())
        .map_or(line, |t| t.line)
}

// ---------------------------------------------------------------------
// Rule: relaxed-ordering-audit
// ---------------------------------------------------------------------

/// Flags `Ordering::Relaxed` uses without a `// relaxed:` justification
/// in the same statement's comment trail (a comment between the
/// previous statement boundary and the use, or trailing on the same
/// line).
pub(crate) fn relaxed_ordering_audit(f: &File, findings: &mut Vec<Finding>) {
    for k in 0..f.code.len() {
        if !f.seq(k, &["Ordering", ":", ":", "Relaxed"]) {
            continue;
        }
        let raw = f.code[k];
        if has_relaxed_comment(f, raw) {
            continue;
        }
        findings.push(
            f.finding(
                f.line(k),
                Rule::RelaxedOrderingAudit,
                "`Ordering::Relaxed` without a `// relaxed:` justification: state why no \
             cross-thread ordering is needed (or pick a stronger ordering)"
                    .to_string(),
            ),
        );
    }
}

/// Searches backwards from raw token index `raw` to the previous
/// statement boundary (`;`, `{`, `}`), and forwards to the end of the
/// use's line, for a comment containing `relaxed:`.
fn has_relaxed_comment(f: &File, raw: usize) -> bool {
    for tok in f.tokens[..raw].iter().rev() {
        if matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            if tok.text(f.src).contains("relaxed:") {
                return true;
            }
            continue;
        }
        if !tok.is_trivia() && matches!(tok.text(f.src), ";" | "{" | "}") {
            break;
        }
    }
    let line = f.tokens[raw].line;
    f.tokens[raw..]
        .iter()
        .take_while(|t| t.line == line)
        .any(|t| {
            matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
                && t.text(f.src).contains("relaxed:")
        })
}

// ---------------------------------------------------------------------
// Rule: exact-wrap
// ---------------------------------------------------------------------

/// Flags `wrapping_add`/`wrapping_sub` in `packed.rs` outside functions
/// whose doc comment cites the width-bound invariant with `EXACT:`.
///
/// The packed row representation is only exact because every
/// materialisable count is bounded below the cell max; a wrapping op in
/// a function that does not spell that argument out is a lane-overflow
/// bug waiting to happen. Closures count as part of their enclosing
/// function.
pub(crate) fn exact_wrap(f: &File, findings: &mut Vec<Finding>) {
    if !f.stem_is(&["packed"]) {
        return;
    }
    let fns = collect_fn_regions(f);
    for k in 0..f.code.len() {
        let t = f.t(k);
        if !(matches!(t, "wrapping_add" | "wrapping_sub") && f.t(k + 1) == "(") {
            continue;
        }
        let raw = f.code[k];
        let exact = fns
            .iter()
            .filter(|r| r.body_raw.contains(&raw))
            .min_by_key(|r| r.body_raw.len())
            .is_some_and(|r| r.has_exact_doc);
        if !exact {
            findings.push(f.finding(
                f.line(k),
                Rule::ExactWrap,
                format!(
                    "`{t}` outside an `EXACT:`-documented function: wrapping word \
                     arithmetic on packed rows is only sound under the width-bound \
                     invariant — cite it (`/// EXACT: …`) on the enclosing function"
                ),
            ));
        }
    }
}

/// One `fn` with its body's raw-token range and doc-comment verdict.
struct FnRegion {
    body_raw: std::ops::Range<usize>,
    has_exact_doc: bool,
}

fn collect_fn_regions(f: &File) -> Vec<FnRegion> {
    let mut regions = Vec::new();
    for k in 0..f.code.len() {
        if f.t(k) != "fn" || f.kind(k + 1) != Some(TokenKind::Ident) {
            continue;
        }
        // The body opens at the first `{` at zero paren depth after the
        // signature (angle depth ignored: const-generic braces in
        // signatures do not occur in this workspace).
        let mut paren = 0i32;
        let mut open = None;
        for j in k + 1..f.code.len() {
            match f.t(j) {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "{" if paren == 0 => {
                    open = Some(j);
                    break;
                }
                ";" if paren == 0 => break, // trait method without body
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let Some(close) = f.matching_close(open) else {
            continue;
        };
        regions.push(FnRegion {
            body_raw: f.code[open]..f.code[close],
            has_exact_doc: fn_doc_has_exact(f, f.code[k]),
        });
    }
    regions
}

/// Walks backwards from the raw index of a `fn` keyword over its
/// visibility/attribute prelude and reports whether the doc-comment
/// block directly above cites `EXACT:`.
fn fn_doc_has_exact(f: &File, fn_raw: usize) -> bool {
    let mut saw_doc_exact = false;
    let mut i = fn_raw;
    while i > 0 {
        i -= 1;
        let tok = &f.tokens[i];
        if tok.kind == TokenKind::Whitespace {
            continue;
        }
        if matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            let text = tok.text(f.src);
            if (text.starts_with("///") || text.starts_with("/**")) && text.contains("EXACT:") {
                saw_doc_exact = true;
            }
            continue;
        }
        let text = tok.text(f.src);
        let prelude_word = matches!(
            text,
            "pub" | "const" | "unsafe" | "async" | "extern" | "crate" | "super" | "self" | "in"
        );
        let prelude_punct = matches!(text, "#" | "[" | "]" | "(" | ")");
        let prelude_attr = matches!(tok.kind, TokenKind::Str | TokenKind::Ident) && {
            // idents inside `#[...]` attributes or `extern "C"`.
            prelude_word || attr_context(f, i)
        };
        if prelude_word || prelude_punct || prelude_attr {
            continue;
        }
        break;
    }
    saw_doc_exact
}

/// Whether raw token `i` sits inside a `#[...]` attribute (scans back
/// for an unmatched `[` preceded by `#` within the same prelude).
fn attr_context(f: &File, i: usize) -> bool {
    let mut depth = 0i32;
    for j in (0..i).rev() {
        let tok = &f.tokens[j];
        if tok.is_trivia() {
            continue;
        }
        match tok.text(f.src) {
            "]" => depth += 1,
            "[" => {
                if depth == 0 {
                    return f.tokens[..j]
                        .iter()
                        .rev()
                        .find(|t| !t.is_trivia())
                        .is_some_and(|t| t.text(f.src) == "#");
                }
                depth -= 1;
            }
            ";" | "}" => return false,
            _ => {}
        }
    }
    false
}
