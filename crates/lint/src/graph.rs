//! Workspace symbol table and conservative call graph.
//!
//! The interprocedural rule (`lock-order`) needs to answer "which locks
//! can this call take?" without a compiler. This module builds the
//! cheapest graph that is still *sound for that rule*: every function
//! and closure item from every file
//! becomes a node, and a call site is resolved **by name** to every
//! workspace function that could match — no types, no trait dispatch,
//! no `use` resolution. Over-approximation
//! is the point: an edge too many costs a justified marker during
//! burn-down; an edge too few silently exempts code from the rule.
//!
//! Name resolution, precisely:
//!
//! * `Type::name(…)` / `Self::name(…)` — every fn named `name` inside
//!   an `impl Type` block, workspace-wide (`Self` borrows the caller's
//!   own impl type). If no impl matches, falls back to name-only.
//! * `recv.name(…)` and bare `name(…)` — every fn named `name` in the
//!   caller's crate if any, else every fn named `name` workspace-wide.
//! * A closure literal in a function body — an edge from the enclosing
//!   node to the closure's node (a closure built in a function is
//!   treated as running there — inside a `catch_unwind(…)` argument
//!   too, since a lock taken under it is still ordered).
//! * `name!(…)` — macro invocations are not calls (their bodies were
//!   already parsed in place by [`crate::syntax`]).
//!
//! Calls to functions outside the workspace (std, vendored stubs)
//! resolve to nothing and simply produce no edge.
//!
//! Determinism: files are processed in sorted path order, nodes are
//! numbered in file/pre-order, per-node call lists follow token order,
//! and [`Workspace::render`] prints the whole graph in that fixed
//! order — `tests/graph_determinism.rs` asserts two independent builds
//! are byte-identical.

use crate::lexer::{lex, Token, TokenKind};
use crate::syntax::{parse_tokens, Item, ItemKind, ItemTree};
use std::collections::BTreeMap;
use std::ops::Range;

/// One lexed + parsed source file.
pub struct ParsedFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Raw bytes.
    pub src: Vec<u8>,
    /// The total lexer's token stream.
    pub tokens: Vec<Token>,
    /// The brace-matched item tree over `tokens`.
    pub tree: ItemTree,
}

impl ParsedFile {
    /// Lexes and parses one file.
    #[must_use]
    pub fn new(path: String, src: Vec<u8>) -> Self {
        let tokens = lex(&src);
        let tree = parse_tokens(&src, &tokens);
        ParsedFile {
            path,
            src,
            tokens,
            tree,
        }
    }

    /// The text of the raw token at `i` (empty past the end).
    #[must_use]
    pub fn text(&self, i: usize) -> &str {
        self.tokens.get(i).map_or("", |t| t.text(&self.src))
    }

    /// The 1-based line of the raw token at `i`.
    #[must_use]
    pub fn line(&self, i: usize) -> u32 {
        self.tokens.get(i).map_or(0, |t| t.line)
    }

    /// The kind of the raw token at `i`.
    #[must_use]
    pub fn kind(&self, i: usize) -> Option<TokenKind> {
        self.tokens.get(i).map(|t| t.kind)
    }
}

/// A function or closure node of the call graph.
pub struct FnNode {
    /// Node id — the index into [`Workspace::nodes`].
    pub id: usize,
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// [`ItemKind::Fn`] or [`ItemKind::Closure`].
    pub kind: ItemKind,
    /// The fn name (`""` for closures).
    pub name: String,
    /// The enclosing `impl` block's self-type base name, if any.
    pub impl_type: Option<String>,
    /// The crate the file belongs to (`crates/<k>/…` → `<k>`).
    pub krate: String,
    /// 1-based line of the item head.
    pub line: u32,
    /// Raw token range of the whole item.
    pub span: Range<usize>,
    /// Raw token range of the body interior.
    pub body: Range<usize>,
    /// Spans of the *direct child items* (any kind) — tokens inside
    /// them are not this node's own tokens. Sorted by start.
    pub child_spans: Vec<Range<usize>>,
    /// The nearest enclosing fn/closure node, if any.
    pub parent: Option<usize>,
    /// Test-only: `#[cfg(test)]`/`#[test]` on the item or an ancestor
    /// item, or the file lives under a `tests/` directory.
    pub is_test: bool,
}

/// What a call site names, before resolution.
enum Callee {
    /// `name(…)` with no qualifier or receiver.
    Free(String),
    /// `recv.name(…)`. `self_recv` is true when the receiver is
    /// literally `self` (`self.name(…)`), which resolves through the
    /// caller's impl type instead of the name fallback.
    Method {
        /// The method name.
        name: String,
        /// Whether the receiver is literally `self`.
        self_recv: bool,
    },
    /// `Qual::name(…)` — `qual` is the last path segment before the
    /// final `::` (a type, module, or `Self`).
    Qualified(String, String),
}

/// One call site inside a node's own tokens.
pub struct CallSite {
    /// Raw token index of the name (or the closure head).
    pub at: usize,
    /// 1-based line.
    pub line: u32,
    /// Node ids the site resolves to (sorted, deduplicated).
    pub resolved: Vec<usize>,
}

/// The parsed workspace: files, call-graph nodes, and per-node call
/// sites with resolved edges.
pub struct Workspace {
    /// Files in sorted path order.
    pub files: Vec<ParsedFile>,
    /// All fn/closure nodes, in file/pre-order.
    pub nodes: Vec<FnNode>,
    /// `calls[id]` — node `id`'s call sites, in token order.
    pub calls: Vec<Vec<CallSite>>,
    /// `(krate, name)` → fn-node ids (closures excluded).
    by_name: BTreeMap<(String, String), Vec<usize>>,
    /// `name` → fn-node ids across all crates.
    by_name_global: BTreeMap<String, Vec<usize>>,
    /// `(impl_type, name)` → fn-node ids, workspace-wide.
    by_impl: BTreeMap<(String, String), Vec<usize>>,
}

impl Workspace {
    /// Builds the symbol table and call graph over `files`. The files
    /// are sorted by path first; everything downstream is deterministic
    /// in that order.
    #[must_use]
    pub fn build(mut files: Vec<ParsedFile>) -> Self {
        files.sort_by(|a, b| a.path.cmp(&b.path));
        let mut ws = Workspace {
            files,
            nodes: Vec::new(),
            calls: Vec::new(),
            by_name: BTreeMap::new(),
            by_name_global: BTreeMap::new(),
            by_impl: BTreeMap::new(),
        };
        for f in 0..ws.files.len() {
            ws.collect_nodes(f);
        }
        for id in 0..ws.nodes.len() {
            let n = &ws.nodes[id];
            if n.kind == ItemKind::Closure {
                continue;
            }
            ws.by_name
                .entry((n.krate.clone(), n.name.clone()))
                .or_default()
                .push(id);
            ws.by_name_global
                .entry(n.name.clone())
                .or_default()
                .push(id);
            if let Some(t) = &n.impl_type {
                ws.by_impl
                    .entry((t.clone(), n.name.clone()))
                    .or_default()
                    .push(id);
            }
        }
        ws.calls = (0..ws.nodes.len()).map(|id| ws.collect_calls(id)).collect();
        ws
    }

    /// The crate a path belongs to.
    fn krate_of(path: &str) -> String {
        let mut parts = path.split('/');
        match (parts.next(), parts.next()) {
            (Some("crates"), Some(k)) => k.to_string(),
            (Some(first), _) => first.to_string(),
            _ => String::new(),
        }
    }

    /// Walks one file's item tree and appends its fn/closure nodes.
    fn collect_nodes(&mut self, f: usize) {
        let file = &self.files[f];
        let krate = Self::krate_of(&file.path);
        let path_is_test = file.path.contains("/tests/") || file.path.starts_with("tests/");
        struct Ctx<'a> {
            nodes: &'a mut Vec<FnNode>,
            f: usize,
            krate: String,
            path_is_test: bool,
        }
        fn walk(
            ctx: &mut Ctx<'_>,
            item: &Item,
            impl_type: Option<&str>,
            parent: Option<usize>,
            test: bool,
        ) {
            let test = test || item.cfg_test;
            let (next_impl, next_parent) = match item.kind {
                ItemKind::Fn | ItemKind::Closure => {
                    let id = ctx.nodes.len();
                    let mut child_spans: Vec<Range<usize>> =
                        item.children.iter().map(|c| c.span.clone()).collect();
                    child_spans.sort_by_key(|s| s.start);
                    ctx.nodes.push(FnNode {
                        id,
                        file: ctx.f,
                        kind: item.kind,
                        name: item.name.clone(),
                        impl_type: impl_type.map(str::to_string),
                        krate: ctx.krate.clone(),
                        line: item.line,
                        span: item.span.clone(),
                        body: item.body.clone(),
                        child_spans,
                        parent,
                        is_test: test || ctx.path_is_test,
                    });
                    (impl_type.map(str::to_string), Some(id))
                }
                ItemKind::Impl => (Some(item.name.clone()), parent),
                ItemKind::Mod => (None, parent),
            };
            for child in &item.children {
                walk(ctx, child, next_impl.as_deref(), next_parent, test);
            }
        }
        let tree: &ItemTree = &file.tree;
        // The borrow checker needs nodes and files split; clone the
        // cheap per-file context instead.
        let items = tree.items.clone();
        let mut ctx = Ctx {
            nodes: &mut self.nodes,
            f,
            krate,
            path_is_test,
        };
        for item in &items {
            walk(&mut ctx, item, None, None, false);
        }
    }

    /// Raw indices of the code tokens a node owns: its body minus the
    /// spans of its direct child items.
    #[must_use]
    pub fn own_tokens(&self, id: usize) -> Vec<usize> {
        let n = &self.nodes[id];
        let file = &self.files[n.file];
        let mut out = Vec::new();
        let mut child = n.child_spans.iter().peekable();
        let mut i = n.body.start;
        while i < n.body.end {
            if let Some(s) = child.peek() {
                if i >= s.start {
                    i = s.end.max(i + 1);
                    child.next();
                    continue;
                }
            }
            if file.tokens.get(i).is_some_and(|t| !t.is_trivia()) {
                out.push(i);
            }
            i += 1;
        }
        out
    }

    /// Scans one node's own tokens for call sites and resolves them.
    fn collect_calls(&self, id: usize) -> Vec<CallSite> {
        let n = &self.nodes[id];
        let file = &self.files[n.file];
        let own = self.own_tokens(id);
        // Child closures, by span start, for closure edges.
        let closures: Vec<usize> = self
            .nodes
            .iter()
            .filter(|c| c.parent == Some(id) && c.kind == ItemKind::Closure)
            .map(|c| c.id)
            .collect();

        let mut sites = Vec::new();
        // Closure children are edges at their head position — a closure
        // literal only ever appears where a value is built, and the
        // rules treat "built here" as "may run here".
        for &c in &closures {
            let at = self.nodes[c].span.start;
            sites.push(CallSite {
                at,
                line: self.nodes[c].line,
                resolved: vec![c],
            });
        }
        for (k, &i) in own.iter().enumerate() {
            if file.kind(i) != Some(TokenKind::Ident) {
                continue;
            }
            let next = own.get(k + 1).copied();
            if next.map(|j| file.text(j)) != Some("(") {
                continue;
            }
            let prev = |d: usize| k.checked_sub(d).map(|p| file.text(own[p])).unwrap_or("");
            if prev(1) == "fn" || prev(1) == "!" {
                // `fn name(` is a (bodyless) definition; `m!(…)` after
                // an ident means `i` follows a macro bang elsewhere —
                // and `name!(` itself never matches because `!` sits
                // between the ident and `(`.
                continue;
            }
            let name = file.text(i).to_string();
            let callee = if prev(1) == ":" && prev(2) == ":" {
                let q = k
                    .checked_sub(3)
                    .map(|p| own[p])
                    .filter(|&p| file.kind(p) == Some(TokenKind::Ident))
                    .map(|p| file.text(p).to_string());
                match q {
                    Some(q) => Callee::Qualified(q, name),
                    None => Callee::Free(name),
                }
            } else if prev(1) == "." {
                // `self.name(` — but not `x.self` (impossible) or
                // `a.b.name(` where the `self` is further left.
                Callee::Method {
                    name,
                    self_recv: prev(2) == "self" && prev(3) != ".",
                }
            } else {
                Callee::Free(name)
            };
            let resolved = self.resolve(n, &callee);
            sites.push(CallSite {
                at: i,
                line: file.line(i),
                resolved,
            });
        }
        sites.sort_by_key(|s| s.at);
        sites
    }

    /// Resolves a callee name to candidate fn nodes. See the module
    /// docs for the exact policy.
    fn resolve(&self, caller: &FnNode, callee: &Callee) -> Vec<usize> {
        const STD_METHOD_NAMES: &[&str] = &[
            "all",
            "and_then",
            "any",
            "as_bytes",
            "as_deref",
            "as_mut",
            "as_ref",
            "as_slice",
            "as_str",
            "borrow",
            "borrow_mut",
            "bytes",
            "chain",
            "chars",
            "checked_add",
            "checked_mul",
            "checked_sub",
            "clear",
            "clone",
            "cloned",
            "cmp",
            "collect",
            "compare_exchange",
            "contains",
            "contains_key",
            "copied",
            "count",
            "dedup",
            "drain",
            "drop",
            "ends_with",
            "entry",
            "enumerate",
            "eq",
            "expect",
            "extend",
            "extend_from_slice",
            "fetch_add",
            "fetch_or",
            "fetch_sub",
            "filter",
            "filter_map",
            "find",
            "find_map",
            "finish",
            "first",
            "flat_map",
            "flatten",
            "fmt",
            "fold",
            "for_each",
            "get",
            "get_mut",
            "hash",
            "insert",
            "into_iter",
            "is_empty",
            "is_none",
            "is_some",
            "iter",
            "iter_mut",
            "join",
            "keys",
            "last",
            "len",
            "load",
            "lock",
            "map",
            "map_err",
            "map_or",
            "max",
            "max_by_key",
            "min",
            "min_by_key",
            "ne",
            "next",
            "next_back",
            "nth",
            "ok",
            "ok_or",
            "ok_or_else",
            "or_default",
            "or_else",
            "or_insert_with",
            "parse",
            "partial_cmp",
            "partition_point",
            "peek",
            "peekable",
            "pop",
            "position",
            "pow",
            "product",
            "push",
            "push_str",
            "read",
            "remove",
            "repeat",
            "replace",
            "reserve",
            "resize",
            "retain",
            "rev",
            "saturating_add",
            "saturating_mul",
            "saturating_sub",
            "skip",
            "sort",
            "sort_by",
            "sort_by_key",
            "sort_unstable",
            "sort_unstable_by",
            "sort_unstable_by_key",
            "split",
            "split_at",
            "split_whitespace",
            "splitn",
            "starts_with",
            "step_by",
            "store",
            "sum",
            "swap",
            "take",
            "then",
            "then_some",
            "to_owned",
            "to_string",
            "to_vec",
            "trim",
            "try_from",
            "try_into",
            "unwrap",
            "unwrap_or",
            "unwrap_or_default",
            "unwrap_or_else",
            "values",
            "values_mut",
            "windows",
            "wrapping_add",
            "wrapping_mul",
            "wrapping_sub",
            "write",
            "write_all",
            "zip",
        ];
        let mut out = match callee {
            Callee::Qualified(q, name) => {
                let q = if q == "Self" {
                    caller.impl_type.clone().unwrap_or_else(|| q.clone())
                } else {
                    q.clone()
                };
                match self.by_impl.get(&(q.clone(), name.clone())) {
                    Some(ids) => ids.clone(),
                    None if matches!(q.as_str(), "crate" | "super" | "self") => {
                        self.resolve_by_name(caller, name)
                    }
                    None if q.chars().next().is_some_and(char::is_lowercase) => {
                        // `module::name(…)` — restrict the fallback to
                        // fns whose file stem matches the module, so
                        // `mem::take` (std) resolves to nothing while
                        // `explore::scan_expand` finds explore.rs.
                        let mut ids = self.resolve_by_name(caller, name);
                        ids.retain(|&t| {
                            let f = &self.files[self.nodes[t].file];
                            f.path
                                .rsplit('/')
                                .next()
                                .is_some_and(|b| b.strip_suffix(".rs") == Some(q.as_str()))
                        });
                        ids
                    }
                    // `ExternalType::name(…)` — the type has no impl in
                    // the workspace, so the callee lives outside it.
                    // Falling back to the bare name here would wire
                    // `FxHasher::default` to an unrelated crate fn
                    // named `default`.
                    None => Vec::new(),
                }
            }
            Callee::Method { name, self_recv } => {
                // `self.name(…)` resolves through the caller's impl
                // type when that impl defines the name — precise, and
                // immune to name collisions across types. Everything
                // else falls back to name resolution, except method
                // names every std container/trait exports: resolving
                // `hasher.finish()` to a crate fn named `finish` wires
                // unrelated subsystems together and poisons every
                // transitive analysis downstream, which costs far more
                // than the (qualified-call-recoverable) missed edge.
                let by_self = caller
                    .impl_type
                    .as_ref()
                    .filter(|_| *self_recv)
                    .and_then(|t| self.by_impl.get(&(t.clone(), name.clone())));
                match by_self {
                    Some(ids) => ids.clone(),
                    None if STD_METHOD_NAMES.contains(&name.as_str()) => Vec::new(),
                    None => self.resolve_by_name(caller, name),
                }
            }
            Callee::Free(name) => self.resolve_by_name(caller, name),
        };
        // Non-test code cannot call `#[cfg(test)]` items — dropping
        // those candidates keeps test helpers from polluting production
        // reachability. Test callers may call anything.
        if !caller.is_test {
            out.retain(|&t| !self.nodes[t].is_test);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn resolve_by_name(&self, caller: &FnNode, name: &str) -> Vec<usize> {
        if let Some(ids) = self.by_name.get(&(caller.krate.clone(), name.to_string())) {
            return ids.clone();
        }
        self.by_name_global.get(name).cloned().unwrap_or_default()
    }

    /// A stable, human-readable dump of the whole graph — nodes then
    /// edges, in deterministic order. `tests/graph_determinism.rs`
    /// asserts two independent builds render identically.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            let file = &self.files[n.file];
            let label = self.node_label(n.id);
            out.push_str(&format!(
                "node {} {}:{} {}{}\n",
                n.id,
                file.path,
                n.line,
                label,
                if n.is_test { " [test]" } else { "" },
            ));
        }
        for (id, sites) in self.calls.iter().enumerate() {
            for site in sites {
                for &t in &site.resolved {
                    out.push_str(&format!("edge {} -> {} @{}\n", id, t, site.line));
                }
            }
        }
        out
    }

    /// A short human label for a node: `Type::name`, `name`, or
    /// `<closure@line>`.
    #[must_use]
    pub fn node_label(&self, id: usize) -> String {
        let n = &self.nodes[id];
        match (n.kind, &n.impl_type) {
            (ItemKind::Closure, _) => format!("<closure@{}>", n.line),
            (_, Some(t)) => format!("{}::{}", t, n.name),
            _ => n.name.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(p, s)| ParsedFile::new((*p).to_string(), s.as_bytes().to_vec()))
                .collect(),
        )
    }

    /// Whether `to` is reachable from `from` over resolved call edges.
    fn reaches(w: &Workspace, from: usize, to: usize) -> bool {
        let mut seen = vec![false; w.nodes.len()];
        let mut stack = vec![from];
        seen[from] = true;
        while let Some(id) = stack.pop() {
            for &t in w.calls[id].iter().flat_map(|site| &site.resolved) {
                if !seen[t] {
                    seen[t] = true;
                    stack.push(t);
                }
            }
        }
        seen[to]
    }

    #[test]
    fn resolves_free_and_qualified_calls() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn helper() {}\n\
             impl Engine { fn step(&self) { helper(); } }\n\
             impl Other { fn step(&self) {} }\n\
             fn drive(e: &Engine) { Engine::step(e); e.step(); }",
        )]);
        let drive = w.nodes.iter().find(|n| n.name == "drive").unwrap().id;
        let engine_step = w
            .nodes
            .iter()
            .find(|n| n.name == "step" && n.impl_type.as_deref() == Some("Engine"))
            .unwrap()
            .id;
        let other_step = w
            .nodes
            .iter()
            .find(|n| n.impl_type.as_deref() == Some("Other"))
            .unwrap()
            .id;
        let sites = &w.calls[drive];
        // Qualified: narrowed to Engine::step only.
        assert_eq!(sites[0].resolved, vec![engine_step]);
        // Method: by name — both impls.
        assert_eq!(sites[1].resolved, vec![engine_step, other_step]);
    }

    #[test]
    fn closures_are_nodes_with_edges_from_parent() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn target() {}\nfn f(s: &S) { s.spawn(move || target()); }",
        )]);
        let f = w.nodes.iter().find(|n| n.name == "f").unwrap().id;
        let target = w.nodes.iter().find(|n| n.name == "target").unwrap().id;
        let closure = w
            .nodes
            .iter()
            .find(|n| n.kind == ItemKind::Closure)
            .unwrap()
            .id;
        assert!(reaches(&w, f, closure));
        assert!(reaches(&w, f, target));
    }

    #[test]
    fn catch_unwind_contains_edges() {
        // A `catch_unwind(…)` argument is ordinary code to the graph: a
        // lock taken under it still orders against the caller's locks.
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn locks(m: &M) { m.jobs.lock(); }\n\
             fn guarded(m: &M) { let _ = catch_unwind(AssertUnwindSafe(|| locks(m))); }",
        )]);
        let guarded = w.nodes.iter().find(|n| n.name == "guarded").unwrap().id;
        let locks = w.nodes.iter().find(|n| n.name == "locks").unwrap().id;
        assert!(reaches(&w, guarded, locks));
    }

    #[test]
    fn macros_are_not_calls() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn assert() {}\nfn f() { assert!(true); }",
        )]);
        let f = w.nodes.iter().find(|n| n.name == "f").unwrap().id;
        assert!(w.calls[f].is_empty(), "macro bang must not resolve");
    }

    #[test]
    fn test_flags_propagate() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn prod() {}\n#[cfg(test)]\nmod tests { fn helper() {} #[test] fn t() {} }",
        )]);
        assert!(!w.nodes.iter().find(|n| n.name == "prod").unwrap().is_test);
        assert!(w.nodes.iter().find(|n| n.name == "helper").unwrap().is_test);
        assert!(w.nodes.iter().find(|n| n.name == "t").unwrap().is_test);
    }

    #[test]
    fn render_is_deterministic() {
        let src: Vec<(&str, &str)> = vec![
            ("crates/b/src/lib.rs", "fn beta() { alpha(); }"),
            ("crates/a/src/lib.rs", "pub fn alpha() {}"),
        ];
        let mut rev = src.clone();
        rev.reverse();
        assert_eq!(ws(&src).render(), ws(&rev).render());
    }
}
