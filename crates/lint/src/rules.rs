//! The repo-specific rule catalog.
//!
//! Each rule is a pure function over one file's token stream (plus its
//! workspace-relative path, which gates the module-scoped rules). Rules
//! are *lexical approximations* of semantic invariants — they trade
//! full type knowledge for zero dependencies and total determinism —
//! and every approximation is documented on the rule. The escape hatch
//! for a justified exception is an inline marker:
//!
//! ```text
//! // pp-lint: allow(<rule>) — <reason>
//! ```
//!
//! The reason is mandatory (a marker without one is itself a finding);
//! the marker suppresses the named rule on its own line when it trails
//! code, otherwise on the next code line. See `DESIGN.md`, chapter
//! "Static analysis", for the catalog rationale and how to add a rule.

use crate::graph::{ParsedFile, Workspace};
use crate::lexer::{Token, TokenKind};
use crate::syntax::ItemKind;
use std::collections::{BTreeMap, BTreeSet};

/// The rules `pp_lint` enforces; see each variant for the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No iteration over `HashMap`/`HashSet`/`FxHashMap`/`FxHashSet` in
    /// determinism-critical modules unless the traversal feeds a sort.
    NondetIteration,
    /// No `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
    /// `unimplemented!` inside closures spawned within a
    /// `std::thread::scope` region (workers must use the poison /
    /// refusal paths).
    PanicInWorker,
    /// `std::env::var` only inside `pp_petri::gates`, and the gate
    /// registry must agree with the README gate table.
    GateRegistry,
    /// Every `Ordering::Relaxed` carries a `// relaxed:` justification.
    RelaxedOrderingAudit,
    /// `wrapping_add`/`wrapping_sub` in `packed.rs` only inside
    /// functions whose doc comment cites the width-bound invariant
    /// (`EXACT:`).
    ExactWrap,
    /// A malformed `pp-lint: allow(...)` marker (unknown rule or
    /// missing reason).
    BadAllow,
    /// Interprocedural extension of `panic-in-worker`: no panicking
    /// call in any function transitively reachable (over the
    /// [`crate::graph`] call graph) from a closure handed to
    /// `scope.spawn`, unless the spawn's panics are joined back
    /// (`resume_unwind`) or contained (`catch_unwind`).
    WorkerPanicReach,
    /// The aggregated lock-acquisition-order graph (per-fn `Mutex` /
    /// arena spin-lock sequences, propagated over the call graph) must
    /// be acyclic — a cycle is a potential deadlock.
    LockOrder,
    /// A `match` on `Completion` in a determinism-critical module must
    /// not have a `_` arm: a new completion variant must break the
    /// build, not silently fall through.
    CompletionWildcard,
    /// An allow marker whose rule no longer fires at its site —
    /// suppressions must not rot. This rule is itself unsuppressible.
    MarkerDrift,
}

impl Rule {
    /// Every rule, in report order. The JSON schema's `rules` array
    /// follows this order.
    pub const ALL: &'static [Rule] = &[
        Rule::NondetIteration,
        Rule::PanicInWorker,
        Rule::GateRegistry,
        Rule::RelaxedOrderingAudit,
        Rule::ExactWrap,
        Rule::BadAllow,
        Rule::WorkerPanicReach,
        Rule::LockOrder,
        Rule::CompletionWildcard,
        Rule::MarkerDrift,
    ];

    /// The marker / report name of the rule.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::NondetIteration => "nondet-iteration",
            Rule::PanicInWorker => "panic-in-worker",
            Rule::GateRegistry => "gate-registry",
            Rule::RelaxedOrderingAudit => "relaxed-ordering-audit",
            Rule::ExactWrap => "exact-wrap",
            Rule::BadAllow => "bad-allow",
            Rule::WorkerPanicReach => "worker-panic-reach",
            Rule::LockOrder => "lock-order",
            Rule::CompletionWildcard => "completion-wildcard",
            Rule::MarkerDrift => "marker-drift",
        }
    }

    /// Parses a marker rule name. `marker-drift` is deliberately
    /// absent: a drifted marker cannot be suppressed by another marker.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "nondet-iteration" => Some(Rule::NondetIteration),
            "panic-in-worker" => Some(Rule::PanicInWorker),
            "gate-registry" => Some(Rule::GateRegistry),
            "relaxed-ordering-audit" => Some(Rule::RelaxedOrderingAudit),
            "exact-wrap" => Some(Rule::ExactWrap),
            "worker-panic-reach" => Some(Rule::WorkerPanicReach),
            "lock-order" => Some(Rule::LockOrder),
            "completion-wildcard" => Some(Rule::CompletionWildcard),
            _ => None,
        }
    }

    /// One-paragraph contract for `pp_lint --explain <rule>`: what the
    /// rule enforces, the approximation it makes, and the fix.
    #[must_use]
    pub fn doc(self) -> &'static str {
        match self {
            Rule::NondetIteration => {
                "No storage-order iteration over hash collections (HashMap/HashSet/\
                 FxHashMap/FxHashSet) in determinism-critical modules, unless the \
                 traversal feeds a sort or an ordered container. Hash order varies \
                 across runs and platforms; anything it leaks into the reachability \
                 or Karp-Miller results breaks the bit-identity guarantee. Fix: sort \
                 the traversal's output, collect into a BTreeMap/BTreeSet, or justify \
                 the site with an allow marker."
            }
            Rule::PanicInWorker => {
                "No unwrap/expect/panic!/unreachable!/todo!/unimplemented! inside a \
                 closure literal passed to spawn(...) within a thread::scope region. \
                 A worker panic deadlocks siblings at the level barrier or poisons \
                 shared locks; workers must route failures through the poison / \
                 refusal protocol instead. Lexical: only closure literals directly at \
                 the spawn site are checked — worker-panic-reach covers the rest of \
                 the call graph."
            }
            Rule::GateRegistry => {
                "std::env reads (var/var_os/vars/vars_os) are only allowed inside the \
                 audited gate registry (pp_petri::gates); the driver also cross-checks \
                 that the registry's PP_* constants and the README gate table agree in \
                 both directions. One module owns every behaviour knob, so the docs \
                 cannot rot and tests can enumerate the configuration space."
            }
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
            Rule::WorkerPanicReach => {
                "Interprocedural panic-in-worker: starting from every closure handed \
                 to spawn(...), walk the workspace call graph (conservative name \
                 resolution — see DESIGN.md) and flag panicking calls in any function \
                 reached. Two containment protocols exempt a spawn: panics joined \
                 back to the spawning thread (resume_unwind in the spawning \
                 function), and bodies wrapped in catch_unwind (the poison \
                 protocol). Findings point at the panic site and print the call path \
                 from the worker closure."
            }
            Rule::LockOrder => {
                "Potential-deadlock detection: each function's lock-acquisition \
                 sequence (Mutex .lock() receivers, identified by field name) is \
                 propagated over the call graph; acquiring lock B while holding \
                 lock A adds edge A -> B to the workspace lock-order graph. A \
                 cycle means two threads can acquire \
                 the same locks in opposite orders and deadlock; the finding prints \
                 the witness cycle with one provenance site per edge. Fix the order, \
                 don't suppress the cycle."
            }
            Rule::CompletionWildcard => {
                "A match on a Completion value in a determinism-critical module must \
                 enumerate every variant: no `_` arm. Completion variants encode why \
                 an exploration stopped (budget, id-space, omega overflow, ...); a \
                 wildcard arm let new variants slip through refund and resume logic \
                 silently before — new variants must break the build."
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

/// File stems whose contents are determinism-critical: exploration
/// results must not depend on hash-iteration order anywhere in these
/// modules (the engine's bit-identity guarantees flow through them).
const CRITICAL_STEMS: &[&str] = &[
    "explore",
    "cover",
    "karp_miller",
    "arena",
    "packed",
    "batch",
    "session",
];

const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Methods that traverse a collection in storage order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Tokens whose appearance downstream of a hash traversal makes the
/// result order-independent again: an explicit sort, or collection into
/// an ordered container.
const SORT_TOKENS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_by_cached_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sorted",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// The only module allowed to read the environment; every other
/// `std::env::var` call must route through it (rule `gate-registry`).
pub const GATES_MODULE: &str = "crates/petri/src/gates.rs";

/// Lints one file as a one-file workspace: every rule runs (the
/// interprocedural rules see a call graph of just this file), and
/// findings suppressed by well-formed allow markers are subtracted —
/// including the `marker-drift` check on the markers themselves.
///
/// `path` is the workspace-relative path; it gates the module-scoped
/// rules (`nondet-iteration` on determinism-critical stems,
/// `exact-wrap` on `packed.rs`, the `gates.rs` exemption).
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
// Rule 1: nondet-iteration
// ---------------------------------------------------------------------

/// Flags storage-order traversals of hash collections in
/// determinism-critical modules.
///
/// Approximation: a name is considered hash-typed when the file declares
/// it with a `: …Hash{Map,Set}…` annotation (struct field, `let`, or
/// parameter) or binds it via `let x = …Hash{Map,Set}::…`. A traversal
/// is an `ITER_METHODS` call on such a name, or a `for … in` whose
/// iterated expression is (a reference to) such a name. The finding is
/// waived when a sort-family token or ordered-container collect appears
/// within the same or the immediately following statement — traversals
/// that feed a sort are order-independent by construction.
pub(crate) fn nondet_iteration(f: &File, findings: &mut Vec<Finding>) {
    if !f.stem_is(CRITICAL_STEMS) {
        return;
    }
    let hash_names = collect_hash_names(f);
    if hash_names.is_empty() {
        return;
    }
    let n = f.code.len();
    for k in 0..n {
        // `name.iter_method(` — receiver must be a known hash name.
        if hash_names.iter().any(|h| h == f.t(k))
            && f.kind(k) == Some(TokenKind::Ident)
            && f.t(k + 1) == "."
            && ITER_METHODS.contains(&f.t(k + 2))
            && f.t(k + 3) == "("
            && !feeds_sort(f, k)
        {
            findings.push(f.finding(
                f.line(k + 2),
                Rule::NondetIteration,
                format!(
                    "iteration over hash collection `{}.{}()` in a determinism-critical \
                     module: hash order is nondeterministic — sort the result, use an \
                     ordered container, or justify with an allow marker",
                    f.t(k),
                    f.t(k + 2),
                ),
            ));
        }
        // `for pat in [&][mut] name {` — direct traversal of the map.
        if f.t(k) == "for" {
            if let Some(violation) = for_over_hash(f, k, &hash_names) {
                if !feeds_sort(f, violation) {
                    findings.push(f.finding(
                        f.line(violation),
                        Rule::NondetIteration,
                        format!(
                            "`for` loop over hash collection `{}` in a determinism-critical \
                             module: hash order is nondeterministic — sort the result, use \
                             an ordered container, or justify with an allow marker",
                            f.t(violation),
                        ),
                    ));
                }
            }
        }
    }
}

/// Collects names the file declares with a hash-collection type.
fn collect_hash_names(f: &File) -> Vec<String> {
    let mut names = Vec::new();
    let n = f.code.len();
    for k in 0..n {
        if f.kind(k) != Some(TokenKind::Ident) {
            continue;
        }
        // `name : … HashX …` up to the next top-level `, ; ) = {`.
        if f.t(k + 1) == ":" && f.t(k + 2) != ":" && (k == 0 || f.t(k - 1) != ":") {
            if window_has_hash_type(f, k + 2) {
                names.push(f.t(k).to_string());
            }
            continue;
        }
        // `let [mut] name = … HashX :: …` within the statement.
        if f.t(k) == "let" {
            let name_at = if f.t(k + 1) == "mut" { k + 2 } else { k + 1 };
            if f.kind(name_at) == Some(TokenKind::Ident) && f.t(name_at + 1) == "=" {
                for j in name_at + 2..(name_at + 40).min(n) {
                    if f.t(j) == ";" {
                        break;
                    }
                    if HASH_TYPES.contains(&f.t(j)) && f.seq(j + 1, &[":", ":"]) {
                        names.push(f.t(name_at).to_string());
                        break;
                    }
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Whether a type annotation window starting at `start` mentions a hash
/// collection before the annotation plausibly ends (a `, ; ) = {` at
/// zero paren/angle depth).
fn window_has_hash_type(f: &File, start: usize) -> bool {
    let mut angle = 0i32;
    let mut paren = 0i32;
    for k in start..(start + 40).min(f.code.len()) {
        let t = f.t(k);
        match t {
            "<" => angle += 1,
            ">" => angle = (angle - 1).max(0),
            "(" | "[" => paren += 1,
            ")" | "]" if paren > 0 => paren -= 1,
            "," | ";" | "=" | "{" | ")" | "]" if angle == 0 && paren == 0 => return false,
            _ => {
                if HASH_TYPES.contains(&t) {
                    return true;
                }
            }
        }
    }
    false
}

/// For a `for` at code index `k`, returns the code index of the hash
/// name when the loop iterates a bare (referenced) hash collection.
fn for_over_hash(f: &File, k: usize, hash_names: &[String]) -> Option<usize> {
    // Find the `in` at zero delimiter depth (patterns may hold parens).
    let mut depth = 0i32;
    let mut in_at = None;
    for j in k + 1..(k + 30).min(f.code.len()) {
        match f.t(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "in" if depth == 0 => {
                in_at = Some(j);
                break;
            }
            "{" | ";" => return None,
            _ => {}
        }
    }
    let in_at = in_at?;
    // The iterated expression: flag only the simple `[&][mut] name` /
    // `[&][mut] self . name` shapes — anything with calls or indexing is
    // left to the method-site check.
    let mut j = in_at + 1;
    while matches!(f.t(j), "&" | "mut") {
        j += 1;
    }
    if f.seq(j, &["self", "."]) {
        j += 2;
    }
    let is_hash = hash_names.iter().any(|h| h == f.t(j));
    (is_hash && f.t(j + 1) == "{").then_some(j)
}

/// Whether a traversal starting at code index `k` feeds a sort: a
/// sort-family token or ordered-container collect within the same or
/// the immediately following statement (at the traversal's block
/// level).
fn feeds_sort(f: &File, k: usize) -> bool {
    let mut brace = 0i32;
    let mut paren = 0i32;
    let mut semis = 0;
    for j in k..(k + 160).min(f.code.len()) {
        let t = f.t(j);
        match t {
            "{" => brace += 1,
            "}" => {
                brace -= 1;
                if brace < 0 {
                    return false;
                }
            }
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            ";" if brace == 0 && paren <= 0 => {
                semis += 1;
                if semis >= 2 {
                    return false;
                }
            }
            _ => {
                if SORT_TOKENS.contains(&t) {
                    return true;
                }
            }
        }
    }
    false
}

// ---------------------------------------------------------------------
// Rule 2: panic-in-worker
// ---------------------------------------------------------------------

/// Flags panicking calls inside closures spawned within a
/// `std::thread::scope` region.
///
/// Approximation: only closure *literals* passed to a `spawn(...)` call
/// lexically inside the `thread::scope(...)` argument are analysed — a
/// closure bound to a variable first (`scope.spawn(work)`) is out of
/// lexical reach, as is code behind a function call. Worker bodies must
/// route failures through the poison / refusal protocol (see PRs 3 and
/// 6) instead of unwinding: a panic inside a worker either deadlocks
/// sibling workers at the level barrier or poisons shared locks.
pub(crate) fn panic_in_worker(f: &File, findings: &mut Vec<Finding>) {
    let n = f.code.len();
    for k in 0..n {
        if !(f.seq(k, &["thread", ":", ":", "scope"]) && f.t(k + 4) == "(") {
            continue;
        }
        let Some(close) = f.matching_close(k + 4) else {
            continue;
        };
        scan_scope_region(f, k + 5, close, findings);
    }
}

/// Scans one `thread::scope(...)` argument region for spawned closure
/// literals and flags panicking calls inside their bodies.
fn scan_scope_region(f: &File, start: usize, end: usize, findings: &mut Vec<Finding>) {
    for k in start..end {
        if !(f.t(k) == "spawn" && f.t(k + 1) == "(") {
            continue;
        }
        let Some(spawn_close) = f.matching_close(k + 1) else {
            continue;
        };
        let mut j = k + 2;
        if f.t(j) == "move" {
            j += 1;
        }
        if f.t(j) != "|" {
            continue; // not a closure literal: out of lexical reach
        }
        let Some(params_close) = closing_pipe(f, j + 1, spawn_close) else {
            continue;
        };
        // Braced body → to its matching brace; expression body → to the
        // token closing the spawn call.
        let body_start = params_close + 1;
        let body_end = if f.t(body_start) == "{" {
            f.matching_close(body_start).unwrap_or(spawn_close)
        } else {
            spawn_close
        };
        flag_panics(f, body_start, body_end, findings);
    }
}

/// Finds the `|` closing a closure parameter list opened just before
/// `start`, scanning no further than `limit`.
fn closing_pipe(f: &File, start: usize, limit: usize) -> Option<usize> {
    let mut depth = 0i32;
    for j in start..limit {
        match f.t(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "|" if depth == 0 => return Some(j),
            _ => {}
        }
    }
    None
}

fn flag_panics(f: &File, start: usize, end: usize, findings: &mut Vec<Finding>) {
    for k in start..end {
        let t = f.t(k);
        if f.t(k - 1) == "." && PANIC_METHODS.contains(&t) && f.t(k + 1) == "(" {
            findings.push(f.finding(
                f.line(k),
                Rule::PanicInWorker,
                format!(
                    "`.{t}()` inside a thread::scope worker closure: a worker panic \
                     deadlocks or poisons the build — propagate through the poison / \
                     refusal path instead"
                ),
            ));
        }
        if PANIC_MACROS.contains(&t) && f.t(k + 1) == "!" && (k == 0 || f.t(k - 1) != ".") {
            findings.push(f.finding(
                f.line(k),
                Rule::PanicInWorker,
                format!(
                    "`{t}!` inside a thread::scope worker closure: a worker panic \
                     deadlocks or poisons the build — propagate through the poison / \
                     refusal path instead"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule 3: gate-registry (per-file half)
// ---------------------------------------------------------------------

/// Flags direct environment reads outside the audited gates module.
/// The registry-vs-README cross-check is workspace-level and lives in
/// the driver ([`crate::driver`]).
pub(crate) fn gate_registry(f: &File, findings: &mut Vec<Finding>) {
    if f.path.ends_with(GATES_MODULE) {
        return;
    }
    let n = f.code.len();
    for k in 0..n {
        if f.seq(k, &["env", ":", ":"])
            && matches!(f.t(k + 3), "var" | "var_os" | "vars" | "vars_os")
        {
            findings.push(f.finding(
                f.line(k),
                Rule::GateRegistry,
                format!(
                    "direct `env::{}` read outside `pp_petri::gates`: declare the knob \
                     in the gate registry and read it via `gates::read` so the README \
                     gate table stays complete",
                    f.t(k + 3),
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule 4: relaxed-ordering-audit
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
// Rule 5: exact-wrap
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

// ---------------------------------------------------------------------
// Rule 7: worker-panic-reach (workspace-level)
// ---------------------------------------------------------------------

/// A borrowed view of one node's own tokens, with `File`-style helpers
/// over the owned-raw-index list.
struct NodeView<'a> {
    file: &'a ParsedFile,
    own: Vec<usize>,
}

impl<'a> NodeView<'a> {
    fn new(ws: &'a Workspace, id: usize) -> Self {
        NodeView {
            file: &ws.files[ws.nodes[id].file],
            own: ws.own_tokens(id),
        }
    }

    /// Text of the `k`-th owned code token ("" past either end).
    fn t(&self, k: usize) -> &str {
        self.own.get(k).map_or("", |&i| self.file.text(i))
    }

    fn kind(&self, k: usize) -> Option<TokenKind> {
        self.own.get(k).and_then(|&i| self.file.kind(i))
    }

    fn raw(&self, k: usize) -> usize {
        self.own.get(k).copied().unwrap_or(usize::MAX)
    }

    fn line(&self, k: usize) -> u32 {
        self.own.get(k).map_or(0, |&i| self.file.line(i))
    }
}

/// Flags panicking calls in any function transitively reachable from a
/// closure handed to `spawn(…)`.
///
/// Exemptions, matching the engine's two containment protocols:
///
/// * **join-propagated** — the spawning function (or an enclosing
///   fn/closure) re-raises worker panics on the spawning thread:
///   either `resume_unwind` or the `.join().expect(…)` /
///   `.join().unwrap()` shape appears in its body. The panic is
///   surfaced deliberately, so the spawn is not a silent-deadlock
///   risk.
/// * **contained** — call edges and panic sites inside a
///   `catch_unwind(…)` argument region (the poison protocol).
/// * **test spawns** — a `#[cfg(test)]` closure handed to `spawn` is
///   not a root: `thread::scope` re-raises worker panics at the end of
///   the scope, so a panicking test worker fails its own test, which
///   is the assertion working as intended.
///
/// Panic sites located in `#[cfg(test)]` code are also skipped (tests
/// are allowed to fail loudly; the blast radius is one test run).
/// Findings already reported by the lexical `panic-in-worker` rule at
/// the same site are not duplicated, so one marker covers both rules.
pub(crate) fn worker_panic_reach(ws: &Workspace, prior: &[Finding], findings: &mut Vec<Finding>) {
    // 1. Roots: closures handed to a `spawn(…)` call, minus exempt
    //    spawns. Both the literal (`spawn(move || …)`) and the
    //    let-bound (`let work = || …; spawn(work)`) shapes count.
    let mut roots: Vec<usize> = Vec::new();
    for n in &ws.nodes {
        let v = NodeView::new(ws, n.id);
        for k in 0..v.own.len() {
            if v.t(k) != "spawn" || v.t(k + 1) != "(" {
                continue;
            }
            if n.is_test || join_exempt(ws, n.id) {
                continue;
            }
            // Literal: a child closure whose span sits between the `(`
            // and the next token this node owns.
            let open_raw = v.raw(k + 1);
            let next_raw = v.raw(k + 2);
            let literal = ws
                .nodes
                .iter()
                .find(|c| {
                    c.parent == Some(n.id)
                        && c.kind == ItemKind::Closure
                        && c.span.start > open_raw
                        && c.span.start < next_raw
                })
                .map(|c| c.id);
            if let Some(c) = literal {
                roots.push(c);
                continue;
            }
            // Let-bound: `spawn(name)` where `name` was bound to a
            // closure literal in this function or an enclosing one.
            if v.kind(k + 2) == Some(TokenKind::Ident) && v.t(k + 3) == ")" {
                if let Some(c) = resolve_closure_binding(ws, n.id, v.t(k + 2)) {
                    roots.push(c);
                }
            }
        }
    }
    roots.sort_unstable();
    roots.dedup();

    // 2. BFS over non-contained call edges, recording predecessors for
    //    the witness path.
    let mut pred: Vec<Option<usize>> = vec![None; ws.nodes.len()];
    let mut seen = vec![false; ws.nodes.len()];
    let mut queue: std::collections::VecDeque<usize> = roots.iter().copied().collect();
    for &r in &roots {
        seen[r] = true;
    }
    while let Some(id) = queue.pop_front() {
        for site in &ws.calls[id] {
            if site.contained {
                continue;
            }
            for &t in &site.resolved {
                if !seen[t] {
                    seen[t] = true;
                    pred[t] = Some(id);
                    queue.push_back(t);
                }
            }
        }
    }

    // 3. Panic sites in every reached node's own tokens, outside its
    //    catch_unwind regions.
    let lexical: BTreeSet<(String, u32)> = prior
        .iter()
        .filter(|f| f.rule == Rule::PanicInWorker)
        .map(|f| (f.file.clone(), f.line))
        .collect();
    let mut reported: BTreeSet<(String, u32)> = BTreeSet::new();
    for (id, &reached) in seen.iter().enumerate() {
        if !reached || ws.nodes[id].is_test {
            continue;
        }
        let n = &ws.nodes[id];
        let v = NodeView::new(ws, id);
        let contained = |raw: usize| ws.catch_regions[id].iter().any(|r| r.contains(&raw));
        for k in 0..v.own.len() {
            let t = v.t(k);
            let is_panic =
                (PANIC_METHODS.contains(&t) && v.t(k + 1) == "(" && k > 0 && v.t(k - 1) == ".")
                    || (PANIC_MACROS.contains(&t)
                        && v.t(k + 1) == "!"
                        && (k == 0 || v.t(k - 1) != "."));
            if !is_panic || contained(v.raw(k)) {
                continue;
            }
            let file = &ws.files[n.file];
            let key = (file.path.clone(), v.line(k));
            if lexical.contains(&key) || !reported.insert(key.clone()) {
                continue;
            }
            let path = witness_path(ws, &pred, &roots, id);
            findings.push(Finding {
                file: key.0,
                line: key.1,
                rule: Rule::WorkerPanicReach,
                message: format!(
                    "`{t}` is reachable from a worker closure ({path}): a panic here \
                     unwinds inside a spawned worker — route the failure through the \
                     poison / refusal path, or justify with an allow marker"
                ),
            });
        }
    }
}

/// Whether the node or an enclosing fn/closure joins worker panics back:
/// `resume_unwind` anywhere in its body (children included), or the
/// `.join().expect(…)` / `.join().unwrap()` re-raise shape.
fn join_exempt(ws: &Workspace, id: usize) -> bool {
    let mut cur = Some(id);
    while let Some(p) = cur {
        let n = &ws.nodes[p];
        let file = &ws.files[n.file];
        let code: Vec<usize> = n
            .body
            .clone()
            .filter(|&i| file.tokens.get(i).is_some_and(|t| !t.is_trivia()))
            .collect();
        for (k, &i) in code.iter().enumerate() {
            if file.text(i) == "resume_unwind" {
                return true;
            }
            let t = |d: usize| code.get(k + d).map_or("", |&j| file.text(j));
            if file.text(i) == "join"
                && t(1) == "("
                && t(2) == ")"
                && t(3) == "."
                && matches!(t(4), "expect" | "unwrap")
            {
                return true;
            }
        }
        cur = n.parent;
    }
    false
}

/// Resolves `spawn(name)` to the closure bound as `let name = |…| …`
/// in `id` or an enclosing fn/closure.
fn resolve_closure_binding(ws: &Workspace, id: usize, name: &str) -> Option<usize> {
    let mut cur = Some(id);
    while let Some(p) = cur {
        for c in ws.nodes.iter().filter(|c| c.parent == Some(p)) {
            if c.kind != ItemKind::Closure {
                continue;
            }
            // Walk back over trivia from the closure head: expect
            // `let [mut] <name> [: …] =` directly before it.
            let file = &ws.files[c.file];
            let mut before: Vec<&str> = Vec::new();
            let mut i = c.span.start;
            while i > 0 && before.len() < 6 {
                i -= 1;
                if file.tokens[i].is_trivia() {
                    continue;
                }
                before.push(file.text(i));
            }
            if before.first() == Some(&"=") && before.contains(&name) && before.contains(&"let") {
                return Some(c.id);
            }
        }
        cur = ws.nodes[p].parent;
    }
    None
}

/// Renders the BFS call path from the nearest root to `id`:
/// `<closure@97> -> run_job -> unwrap`.
fn witness_path(ws: &Workspace, pred: &[Option<usize>], roots: &[usize], id: usize) -> String {
    let mut chain = vec![id];
    let mut cur = id;
    while let Some(p) = pred[cur] {
        chain.push(p);
        cur = p;
        if chain.len() > 32 {
            break;
        }
    }
    chain.reverse();
    let root = chain[0];
    let root_file = &ws.files[ws.nodes[root].file];
    let labels: Vec<String> = chain.iter().map(|&n| ws.node_label(n)).collect();
    let via = labels.join(" -> ");
    let origin = if roots.contains(&root) {
        format!("spawned at {}:{}", root_file.path, ws.nodes[root].line)
    } else {
        "spawn".to_string()
    };
    format!("{origin}, via {via}")
}

// ---------------------------------------------------------------------
// Rule 8: lock-order (workspace-level)
// ---------------------------------------------------------------------

/// One aggregated lock-order edge with its first-seen provenance.
struct LockEdge {
    file: String,
    line: u32,
    holder: String,
    via_call: bool,
}

/// Detects potential deadlocks: a cycle in the aggregated
/// lock-acquisition-order graph.
///
/// Locks are identified **by field name** (the receiver segment that
/// owns `.lock()`) — same-named locks on different types merge, which over-approximates.
/// Per function, a held-set simulation walks the statements: guards
/// bound by `let` stay held to the end of their block, temporaries die
/// at the statement end, and all acquisitions within one statement are
/// unordered among themselves (argument evaluation order is not part
/// of the contract). Calls propagate the callee's transitive lock set
/// as `via_call` edges; a `via_call` self-loop is suppressed (the
/// common re-entrant-helper shape resolves conservatively to itself and
/// would self-loop every lock), while a *direct* self-loop in one
/// function is kept — acquiring the same lock family twice while
/// holding it is exactly the sharded-lock bug class.
pub(crate) fn lock_order(ws: &Workspace, findings: &mut Vec<Finding>) {
    // Phase A+B: per-node direct lock labels, then the transitive set
    // over the call graph (fixpoint).
    let n_nodes = ws.nodes.len();
    let mut acquired: Vec<Vec<(String, usize, bool)>> = Vec::with_capacity(n_nodes);
    let mut labels: Vec<BTreeSet<String>> = Vec::with_capacity(n_nodes);
    for id in 0..n_nodes {
        let acqs = node_acquisitions(ws, id);
        labels.push(acqs.iter().map(|(l, _, _)| l.clone()).collect());
        acquired.push(acqs);
    }
    loop {
        let mut changed = false;
        for id in 0..n_nodes {
            for site in &ws.calls[id] {
                for &t in &site.resolved {
                    if t == id {
                        continue;
                    }
                    let add: Vec<String> = labels[t].difference(&labels[id]).cloned().collect();
                    if !add.is_empty() {
                        labels[id].extend(add);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Phase C: held-set simulation per node; aggregate label edges.
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    for (id, acqs) in acquired.iter().enumerate() {
        simulate_node(ws, id, acqs, &labels, &mut edges);
    }

    // Cycle detection on the label digraph.
    report_lock_cycles(&edges, findings);
}

/// Lock acquisitions in one node's own tokens:
/// `(label, raw_index, starts_with_let_statement)` in token order. The
/// `let` flag is filled by the simulation (which tracks statements);
/// here it is always `false`.
fn node_acquisitions(ws: &Workspace, id: usize) -> Vec<(String, usize, bool)> {
    let v = NodeView::new(ws, id);
    let mut out = Vec::new();
    for k in 0..v.own.len() {
        // `recv.lock()` → the receiver segment owning the call, with
        // index/call groups skipped: `self.shards[i].lock()` → `shards`.
        if v.t(k) == "lock" && v.t(k + 1) == "(" && k >= 2 && v.t(k - 1) == "." {
            if let Some(l) = receiver_label(&v, k - 2) {
                out.push((l, v.raw(k), false));
            }
        }
    }
    out
}

/// Walks a receiver chain backwards from code index `k` (the token just
/// before the `.` of a method call) and names its owning segment.
fn receiver_label(v: &NodeView<'_>, mut k: usize) -> Option<String> {
    loop {
        match v.t(k) {
            "]" | ")" => {
                // Skip the group backwards.
                let close = v.t(k);
                let open = if close == "]" { "[" } else { "(" };
                let mut depth = 0i32;
                loop {
                    let t = v.t(k);
                    if t == close {
                        depth += 1;
                    } else if t == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k = k.checked_sub(1)?;
                }
                k = k.checked_sub(1)?;
            }
            _ if v.kind(k) == Some(TokenKind::Ident) && v.t(k) != "self" => {
                return Some(v.t(k).to_string());
            }
            "self" | "." => {
                k = k.checked_sub(1)?;
            }
            _ => return None,
        }
    }
}

/// Held-set statement walk for one node, emitting aggregated edges.
fn simulate_node(
    ws: &Workspace,
    id: usize,
    acqs: &[(String, usize, bool)],
    labels: &[BTreeSet<String>],
    edges: &mut BTreeMap<(String, String), LockEdge>,
) {
    let v = NodeView::new(ws, id);
    let file = &ws.files[ws.nodes[id].file];
    let holder = ws.node_label(id);
    let acq_at: BTreeMap<usize, &str> = acqs.iter().map(|(l, raw, _)| (*raw, l.as_str())).collect();
    let call_at: BTreeMap<usize, &crate::graph::CallSite> =
        ws.calls[id].iter().map(|s| (s.at, s)).collect();

    let mut held: Vec<(String, i32)> = Vec::new(); // (label, block depth)
    let mut depth = 0i32;
    let mut group = 0i32; // paren/bracket depth — `;` inside `[0; 8]` is not a statement end
    let mut stmt_let = false;
    let mut stmt_acqs: Vec<(String, usize)> = Vec::new();
    let mut stmt_called: Vec<(String, usize)> = Vec::new();

    let emit = |edges: &mut BTreeMap<(String, String), LockEdge>,
                from: &str,
                to: &str,
                raw: usize,
                via_call: bool| {
        if via_call && from == to {
            return;
        }
        edges
            .entry((from.to_string(), to.to_string()))
            .or_insert_with(|| LockEdge {
                file: file.path.clone(),
                line: file.line(raw),
                holder: holder.clone(),
                via_call,
            });
    };

    macro_rules! flush_stmt {
        () => {{
            for (h, _) in &held {
                for (a, raw) in &stmt_acqs {
                    emit(edges, h, a, *raw, false);
                }
                for (l, raw) in &stmt_called {
                    emit(edges, h, l, *raw, true);
                }
            }
            // Same-statement acquisitions are held across the
            // statement's own calls (`run_one(&mut m.lock())` runs with
            // the guard live), but unordered among themselves.
            for (a, _) in &stmt_acqs {
                for (l, raw) in &stmt_called {
                    emit(edges, a, l, *raw, true);
                }
            }
            if stmt_let {
                for (a, _) in stmt_acqs.drain(..) {
                    held.push((a, depth));
                }
            } else {
                stmt_acqs.clear();
            }
            stmt_called.clear();
            stmt_let = false;
        }};
    }

    for k in 0..v.own.len() {
        let raw = v.raw(k);
        match v.t(k) {
            "let" if group == 0 => stmt_let = true,
            "{" if group == 0 => {
                flush_stmt!();
                depth += 1;
            }
            "}" if group == 0 => {
                flush_stmt!();
                depth -= 1;
                // A guard bound at depth D lives while its block's
                // interior is open, i.e. while depth >= D.
                held.retain(|(_, d)| *d <= depth);
            }
            ";" if group == 0 => flush_stmt!(),
            "(" | "[" => group += 1,
            ")" | "]" => group = (group - 1).max(0),
            _ => {}
        }
        if let Some(l) = acq_at.get(&raw) {
            stmt_acqs.push(((*l).to_string(), raw));
        }
        if let Some(site) = call_at.get(&raw) {
            let mut callee_labels: BTreeSet<&str> = BTreeSet::new();
            for &t in &site.resolved {
                callee_labels.extend(labels[t].iter().map(String::as_str));
            }
            for l in callee_labels {
                stmt_called.push((l.to_string(), raw));
            }
        }
    }
    flush_stmt!();
    // The macro's trailing `stmt_let = false` is dead after the final
    // flush; read it once so `-D warnings` stays quiet.
    let _ = stmt_let;
}

/// Finds cycles in the aggregated lock digraph and reports each once,
/// with the witness path and one provenance site per edge.
fn report_lock_cycles(edges: &BTreeMap<(String, String), LockEdge>, findings: &mut Vec<Finding>) {
    // Self-loops first: a direct one is its own witness.
    for ((from, to), e) in edges {
        if from == to {
            findings.push(Finding {
                file: e.file.clone(),
                line: e.line,
                rule: Rule::LockOrder,
                message: format!(
                    "potential deadlock: lock `{from}` acquired while already held \
                     (in {holder}) — a second holder of the same lock family blocks \
                     forever if the indices collide",
                    holder = e.holder,
                ),
            });
        }
    }
    // Longer cycles: DFS from each label, smallest-first, reporting a
    // cycle only from its lexicographically smallest member so each
    // cycle appears once.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        if from != to {
            adj.entry(from).or_default().push(to);
        }
    }
    let labels: Vec<&str> = adj.keys().copied().collect();
    for &start in &labels {
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        let mut on_path: BTreeSet<&str> = [start].into();
        'dfs: while let Some((node, next)) = stack.last_mut() {
            let node = *node;
            let succs = adj.get(node).map_or(&[][..], Vec::as_slice);
            while *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if s == start && path.len() > 1 {
                    // Found a cycle through `start`; report it only if
                    // start is its smallest label (dedup) and no node
                    // repeats (simple cycle).
                    if path.iter().all(|p| *p >= start) {
                        let witness: Vec<String> = path
                            .iter()
                            .chain([&start])
                            .zip(path.iter().skip(1).chain([&start, &start]))
                            .take(path.len())
                            .map(|(a, b)| {
                                let e = &edges[&((*a).to_string(), (*b).to_string())];
                                format!(
                                    "`{a}` -> `{b}` ({}:{} in {}{})",
                                    e.file,
                                    e.line,
                                    e.holder,
                                    if e.via_call { ", via call" } else { "" }
                                )
                            })
                            .collect();
                        let e0 = &edges[&(
                            start.to_string(),
                            path.get(1).copied().unwrap_or(start).to_string(),
                        )];
                        findings.push(Finding {
                            file: e0.file.clone(),
                            line: e0.line,
                            rule: Rule::LockOrder,
                            message: format!(
                                "potential deadlock: lock-order cycle {}",
                                witness.join(", ")
                            ),
                        });
                        break 'dfs; // one witness per start label
                    }
                } else if !on_path.contains(s) && s > start {
                    on_path.insert(s);
                    path.push(s);
                    stack.push((s, 0));
                    continue 'dfs;
                }
            }
            stack.pop();
            if let Some(p) = path.pop() {
                on_path.remove(p);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 9: completion-wildcard (workspace-level)
// ---------------------------------------------------------------------

/// Flags `_` arms in `match`es over `Completion` values inside
/// determinism-critical modules.
///
/// A match is "over Completion" when its scrutinee mentions the
/// identifier `Completion` or `completion` (`self.completion`,
/// `Completion::…`), or is `self` inside an `impl Completion` block.
/// Only a bare `_` arm at the match's own depth trips — `_` inside
/// tuple or struct subpatterns is fine.
pub(crate) fn completion_wildcard(ws: &Workspace, findings: &mut Vec<Finding>) {
    for (fi, pf) in ws.files.iter().enumerate() {
        let f = File::from_parsed(pf);
        if !f.stem_is(CRITICAL_STEMS) {
            continue;
        }
        for k in 0..f.code.len() {
            if f.t(k) != "match" {
                continue;
            }
            // Scrutinee: tokens to the body `{` at zero group depth.
            let mut depth = 0i32;
            let mut open = None;
            let mut mentions = false;
            let mut bare_self = true;
            for j in k + 1..f.code.len() {
                match f.t(j) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        open = Some(j);
                        break;
                    }
                    "self" => {}
                    t => {
                        bare_self = false;
                        if matches!(t, "Completion" | "completion") {
                            mentions = true;
                        }
                    }
                }
                if j > k + 48 {
                    break; // scrutinees are short; stop scanning runaways
                }
            }
            let Some(open) = open else { continue };
            if !mentions && bare_self {
                // `match self { … }`: Completion only when the
                // enclosing impl is `impl Completion`.
                let raw = f.code[k];
                mentions = ws.nodes.iter().any(|n| {
                    n.file == fi
                        && n.body.contains(&raw)
                        && n.impl_type.as_deref() == Some("Completion")
                });
            }
            if !mentions {
                continue;
            }
            let Some(close) = f.matching_close(open) else {
                continue;
            };
            let mut arm_depth = 0i32;
            for j in open + 1..close {
                match f.t(j) {
                    "{" | "(" | "[" => arm_depth += 1,
                    "}" | ")" | "]" => arm_depth -= 1,
                    "_" if arm_depth == 0 && f.t(j + 1) == "=" && f.t(j + 2) == ">" => {
                        findings.push(
                            f.finding(
                                f.line(j),
                                Rule::CompletionWildcard,
                                "wildcard `_` arm on a `Completion` match in a \
                             determinism-critical module: enumerate every variant so \
                             a new completion reason breaks the build instead of \
                             falling through"
                                    .to_string(),
                            ),
                        );
                    }
                    _ => {}
                }
            }
        }
    }
}
