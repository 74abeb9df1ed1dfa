//! A brace-matched item tree over the lexer's token stream.
//!
//! `pp_lint` v1 rules ran directly on the flat token stream, which
//! stops every analysis at the first syntactic question it cannot
//! answer locally ("which locks does the function this call names
//! take?"). This layer parses the stream into a tree of the four item
//! shapes the interprocedural rule needs — **modules**,
//! **functions**, **impl blocks** and **closures** — by brace matching,
//! without building expressions or types. It inherits the lexer's two
//! load-bearing guarantees, and both are property-tested in
//! `tests/syntax_props.rs`:
//!
//! * **Totality** — the parser accepts arbitrary bytes (whatever the
//!   lexer produced for them) and never panics. Unbalanced delimiters
//!   degrade gracefully: an unclosed body extends to the end of the
//!   enclosing region, a stray closer is skipped.
//! * **Tiling** — item spans nest properly and partition the token
//!   stream: [`ItemTree::leaves`] walks the tree and yields every token
//!   index exactly once, in order. A parser that dropped or duplicated
//!   a region would silently exempt code from the rules; the tiling
//!   property makes that class of bug impossible to miss.
//!
//! What the parser deliberately does **not** do: expression grammar,
//! type grammar, `use` resolution, macro expansion. Tokens inside an
//! unexpanded `macro_rules!` body are parsed like ordinary code (brace
//! regions are walked transparently), which is exactly the conservative
//! behaviour the rules want — a closure built inside a macro body is
//! still a closure.

use crate::lexer::{lex, Token, TokenKind};
use std::ops::Range;

/// The item shapes the tree distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { … }` (bodyless `mod name;` declarations produce no
    /// item — there is nothing to analyse).
    Mod,
    /// `fn name(…) … { … }` anywhere: free, in an impl, in a trait
    /// (bodyless trait signatures produce no item), nested in a body.
    Fn,
    /// `impl Type { … }` / `impl Trait for Type { … }`; `name` is the
    /// self-type's base identifier.
    Impl,
    /// A closure literal `|…| expr` / `move |…| { … }`; `name` is `""`.
    Closure,
}

/// One parsed item: a classified, brace-matched region of the token
/// stream, with the items nested inside it as children.
#[derive(Debug, Clone)]
pub struct Item {
    /// The shape of the item.
    pub kind: ItemKind,
    /// The mod/fn name, the impl self-type's base identifier, or `""`
    /// for closures.
    pub name: String,
    /// 1-based line of the item's head token.
    pub line: u32,
    /// Raw token range of the whole item (head through closing brace /
    /// end of closure body). Child spans nest strictly inside it.
    pub span: Range<usize>,
    /// Raw token range of the body *interior* (inside the braces, or
    /// the closure's expression body). Empty ranges mean "no body".
    pub body: Range<usize>,
    /// Whether the item carries `#[cfg(test)]` or `#[test]` directly.
    pub cfg_test: bool,
    /// Items nested inside the body, in source order.
    pub children: Vec<Item>,
}

/// The item tree of one file: the top-level items, in source order.
#[derive(Debug, Clone, Default)]
pub struct ItemTree {
    /// Top-level items (items inside anonymous blocks surface at the
    /// level of the innermost enclosing *item*, not the block).
    pub items: Vec<Item>,
}

impl ItemTree {
    /// Walks the tree and yields every raw token index covered, in
    /// order: the tokens of each item outside its children's spans,
    /// interleaved with the children's own leaves, plus the tokens
    /// between and around items. For a correct parse this is exactly
    /// `0..token_count` — the tiling property `tests/syntax_props.rs`
    /// asserts against the lexer's stream.
    #[must_use]
    pub fn leaves(&self, token_count: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(token_count);
        emit_region(&self.items, 0..token_count, &mut out);
        out
    }

    /// Depth-first traversal of all items (pre-order).
    pub fn walk(&self, mut visit: impl FnMut(&Item, &[&Item])) {
        let mut stack: Vec<&Item> = Vec::new();
        for item in &self.items {
            walk_inner(item, &mut stack, &mut visit);
        }
    }
}

fn walk_inner<'a>(
    item: &'a Item,
    stack: &mut Vec<&'a Item>,
    visit: &mut impl FnMut(&Item, &[&Item]),
) {
    visit(item, stack);
    stack.push(item);
    for child in &item.children {
        walk_inner(child, stack, visit);
    }
    stack.pop();
}

fn emit_region(items: &[Item], region: Range<usize>, out: &mut Vec<usize>) {
    let mut pos = region.start;
    for item in items {
        let start = item.span.start.clamp(pos, region.end);
        out.extend(pos..start);
        let end = item.span.end.clamp(start, region.end);
        emit_region(&item.children, start..end, out);
        pos = end;
    }
    out.extend(pos..region.end);
}

/// Lexes `src` and parses the item tree in one step.
#[must_use]
pub fn parse(src: &[u8]) -> (Vec<Token>, ItemTree) {
    let tokens = lex(src);
    let tree = parse_tokens(src, &tokens);
    (tokens, tree)
}

/// Parses the item tree of an already-lexed token stream.
///
/// Never panics; see the module docs for the guarantees.
#[must_use]
pub fn parse_tokens(src: &[u8], tokens: &[Token]) -> ItemTree {
    let code: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_trivia())
        .map(|(i, _)| i)
        .collect();
    let parser = Parser { src, tokens, code };
    let n = parser.code.len();
    ItemTree {
        items: parser.parse_region(0, n, 0),
    }
}

/// Attribute flags accumulated while scanning towards the next item.
#[derive(Default, Clone, Copy)]
struct Attrs {
    cfg_test: bool,
}

/// Keywords and punctuation that may legitimately sit between an
/// attribute and the item head it decorates.
const ITEM_PRELUDE: &[&str] = &[
    "pub", "unsafe", "async", "const", "extern", "crate", "super", "self", "in", "default", "(",
    ")",
];

/// Recursion ceiling for region parsing: brace nesting beyond this is
/// not real code (the proptests feed delimiter soup); deeper regions
/// are treated as flat token runs so the stack stays bounded.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a [u8],
    tokens: &'a [Token],
    /// `code[k]` is the raw index of the `k`-th non-trivia token.
    code: Vec<usize>,
}

impl Parser<'_> {
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

    /// Raw index of code token `k`; for `k` past the end, one past the
    /// last raw token (so half-open raw spans come out right).
    fn raw(&self, k: usize) -> usize {
        self.code.get(k).copied().unwrap_or(self.tokens.len())
    }

    /// Raw span covering code tokens `[a, b)`.
    fn raw_span(&self, a: usize, b: usize) -> Range<usize> {
        self.raw(a)..self.raw(b)
    }

    /// The code index of the delimiter closing the opener at `open`,
    /// scanning no further than `hi`; `None` when unbalanced.
    fn matching_close(&self, open: usize, hi: usize) -> Option<usize> {
        let (o, c) = match self.t(open) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return None,
        };
        let mut depth = 0usize;
        for k in open..hi {
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

    /// Parses the items of the code region `[lo, hi)`.
    fn parse_region(&self, lo: usize, hi: usize, depth: usize) -> Vec<Item> {
        let mut items = Vec::new();
        if depth >= MAX_DEPTH {
            return items;
        }
        let mut attrs = Attrs::default();
        let mut k = lo;
        while k < hi {
            let t = self.t(k);
            match t {
                "#" if self.t(k + 1) == "[" => {
                    let close = self.matching_close(k + 1, hi).unwrap_or(hi);
                    self.scan_attr(k + 2, close, &mut attrs);
                    k = (close + 1).max(k + 2);
                }
                "mod" if self.kind(k + 1) == Some(TokenKind::Ident) && self.t(k + 2) == "{" => {
                    let close = self.matching_close(k + 2, hi).unwrap_or(hi);
                    items.push(Item {
                        kind: ItemKind::Mod,
                        name: self.t(k + 1).to_string(),
                        line: self.line(k),
                        span: self.raw_span(k, (close + 1).min(hi)),
                        body: self.raw_span(k + 3, close.min(hi)),
                        cfg_test: attrs.cfg_test,
                        children: self.parse_region(k + 3, close.min(hi), depth + 1),
                    });
                    attrs = Attrs::default();
                    k = (close + 1).max(k + 3);
                }
                "fn" if self.kind(k + 1) == Some(TokenKind::Ident) => {
                    match self.find_fn_body(k + 2, hi) {
                        FnBody::Braced(open) => {
                            let close = self.matching_close(open, hi).unwrap_or(hi);
                            items.push(Item {
                                kind: ItemKind::Fn,
                                name: self.t(k + 1).to_string(),
                                line: self.line(k),
                                span: self.raw_span(k, (close + 1).min(hi)),
                                body: self.raw_span(open + 1, close.min(hi)),
                                cfg_test: attrs.cfg_test,
                                children: self.parse_region(open + 1, close.min(hi), depth + 1),
                            });
                            attrs = Attrs::default();
                            k = (close + 1).max(open + 1);
                        }
                        FnBody::None(next) => {
                            // Trait signature / extern decl: no body.
                            attrs = Attrs::default();
                            k = next.max(k + 2);
                        }
                    }
                }
                "impl" => match self.find_impl_body(k + 1, hi) {
                    Some(open) => {
                        let close = self.matching_close(open, hi).unwrap_or(hi);
                        items.push(Item {
                            kind: ItemKind::Impl,
                            name: self.impl_type_name(k + 1, open),
                            line: self.line(k),
                            span: self.raw_span(k, (close + 1).min(hi)),
                            body: self.raw_span(open + 1, close.min(hi)),
                            cfg_test: attrs.cfg_test,
                            children: self.parse_region(open + 1, close.min(hi), depth + 1),
                        });
                        attrs = Attrs::default();
                        k = (close + 1).max(open + 1);
                    }
                    None => {
                        attrs = Attrs::default();
                        k += 1;
                    }
                },
                "|" if self.closure_starts_at(k) => match self.parse_closure(k, k + 1, hi, depth) {
                    Some((item, next)) => {
                        items.push(item);
                        attrs = Attrs::default();
                        k = next.max(k + 1);
                    }
                    None => k += 1,
                },
                "move" if self.t(k + 1) == "|" => match self.parse_closure(k, k + 2, hi, depth) {
                    Some((item, next)) => {
                        items.push(item);
                        attrs = Attrs::default();
                        k = next.max(k + 1);
                    }
                    None => k += 1,
                },
                "{" | "(" | "[" => {
                    // Anonymous region: walk it transparently, its items
                    // surface at this level (spans still nest).
                    let close = self.matching_close(k, hi).unwrap_or(hi);
                    items.extend(self.parse_region(k + 1, close.min(hi), depth + 1));
                    attrs = Attrs::default();
                    k = (close + 1).max(k + 1);
                }
                _ => {
                    if !ITEM_PRELUDE.contains(&t) && self.kind(k) != Some(TokenKind::Str) {
                        attrs = Attrs::default();
                    }
                    k += 1;
                }
            }
        }
        items
    }

    /// Folds one `#[…]` attribute's interior into the pending flags.
    fn scan_attr(&self, lo: usize, hi: usize, attrs: &mut Attrs) {
        // `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`,
        // `#[cfg_attr(…, test)]`: any attribute whose tokens mention the
        // bare word `test` marks test-only code. A `#[cfg(feature =
        // "test-utils")]` does not (the word is inside a string).
        for k in lo..hi {
            if self.t(k) == "test" && self.kind(k) == Some(TokenKind::Ident) {
                attrs.cfg_test = true;
            }
        }
    }

    /// Scans a fn signature for its body: the first `{` at zero
    /// paren/bracket depth, or `;` (no body).
    fn find_fn_body(&self, from: usize, hi: usize) -> FnBody {
        let mut depth = 0i32;
        let mut k = from;
        while k < hi {
            match self.t(k) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth <= 0 => return FnBody::Braced(k),
                ";" if depth <= 0 => return FnBody::None(k + 1),
                "}" if depth <= 0 => return FnBody::None(k), // unbalanced: bail
                _ => {}
            }
            k += 1;
        }
        FnBody::None(hi)
    }

    /// Scans an impl header for its body brace at zero paren depth.
    fn find_impl_body(&self, from: usize, hi: usize) -> Option<usize> {
        let mut depth = 0i32;
        for k in from..hi {
            match self.t(k) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth <= 0 => return Some(k),
                ";" | "}" if depth <= 0 => return None,
                _ => {}
            }
        }
        None
    }

    /// The base identifier of an impl's self type: the last path
    /// segment of the type after `for` (trait impls) or after the
    /// leading generics (inherent impls). `impl<P: Ord> fmt::Debug for
    /// Analysis<P>` → `Analysis`.
    fn impl_type_name(&self, from: usize, open: usize) -> String {
        let mut k = from;
        // Skip the leading generic parameter list `<…>`.
        if self.t(k) == "<" {
            let mut angle = 1i32;
            k += 1;
            while k < open && angle > 0 {
                match self.t(k) {
                    "<" => angle += 1,
                    ">" if self.t(k.wrapping_sub(1)) != "-" => angle -= 1,
                    _ => {}
                }
                k += 1;
            }
        }
        // Prefer the segment after a top-level `for`.
        let mut start = k;
        let mut depth = 0i32;
        for j in k..open {
            match self.t(j) {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" => depth -= 1,
                ">" if self.t(j.wrapping_sub(1)) != "-" => depth -= 1,
                "for" if depth <= 0 => start = j + 1,
                "where" if depth <= 0 => break,
                _ => {}
            }
        }
        // Last identifier of the leading path: `crate :: cover ::
        // CoverabilityOracle < P >` → `CoverabilityOracle`.
        let mut j = start;
        while matches!(self.t(j), "&" | "mut" | "dyn" | "'")
            || self.kind(j) == Some(TokenKind::Lifetime)
        {
            j += 1;
        }
        let mut name = String::new();
        while j < open {
            if self.kind(j) == Some(TokenKind::Ident) {
                name = self.t(j).to_string();
                if self.t(j + 1) == ":" && self.t(j + 2) == ":" {
                    j += 3;
                    continue;
                }
            }
            break;
        }
        name
    }

    /// Whether a `|` at code index `k` opens a closure parameter list,
    /// judged by the preceding token. `a | b` (bit-or, or-patterns)
    /// follows an operand; a closure's `|` follows a delimiter,
    /// separator, binding or keyword.
    fn closure_starts_at(&self, k: usize) -> bool {
        if k == 0 {
            return true;
        }
        let prev = self.t(k - 1);
        matches!(
            prev,
            "(" | "[" | "{" | "," | "=" | ";" | ":" | "return" | "else" | "in" | "move"
        ) || (prev == ">" && k >= 2 && self.t(k - 2) == "=")
    }

    /// Parses a closure whose head starts at `start` (`move` or the
    /// opening `|`), with the parameter list beginning at `params`.
    fn parse_closure(
        &self,
        start: usize,
        params: usize,
        hi: usize,
        depth: usize,
    ) -> Option<(Item, usize)> {
        let params_close = self.closing_pipe(params, hi)?;
        let body_start = params_close + 1;
        // Skip an explicit return type: `|x| -> T { … }`.
        let mut body_start = body_start;
        if self.t(body_start) == "-" && self.t(body_start + 1) == ">" {
            let mut j = body_start + 2;
            while j < hi && !matches!(self.t(j), "{" | "," | ";" | ")") {
                j += 1;
            }
            body_start = j;
        }
        let (body, end) = if self.t(body_start) == "{" {
            let close = self.matching_close(body_start, hi).unwrap_or(hi);
            (
                self.raw_span(body_start + 1, close.min(hi)),
                (close + 1).min(hi),
            )
        } else {
            // Expression body: up to a `,` or `;` at depth 0, or the
            // closer of the enclosing delimiter.
            let mut j = body_start;
            let mut depth_rel = 0i32;
            while j < hi {
                match self.t(j) {
                    "(" | "[" | "{" => depth_rel += 1,
                    ")" | "]" | "}" => {
                        if depth_rel == 0 {
                            break;
                        }
                        depth_rel -= 1;
                    }
                    "," | ";" if depth_rel == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            (self.raw_span(body_start, j), j)
        };
        let body_lo = body.start;
        let body_hi = body.end;
        // Children parse over the code indices inside the raw body span.
        let child_lo = self.code.partition_point(|&r| r < body_lo);
        let child_hi = self.code.partition_point(|&r| r < body_hi);
        Some((
            Item {
                kind: ItemKind::Closure,
                name: String::new(),
                line: self.line(start),
                span: self.raw_span(start, end),
                body,
                cfg_test: false,
                children: self.parse_region(child_lo, child_hi, depth + 1),
            },
            end,
        ))
    }

    /// Finds the `|` closing a closure parameter list, scanning no
    /// further than `hi`.
    fn closing_pipe(&self, start: usize, hi: usize) -> Option<usize> {
        let mut depth = 0i32;
        for j in start..hi {
            match self.t(j) {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ">" if self.t(j.wrapping_sub(1)) != "-" => depth -= 1,
                "|" if depth <= 0 => return Some(j),
                _ => {}
            }
        }
        None
    }
}

enum FnBody {
    Braced(usize),
    None(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(src: &str) -> ItemTree {
        parse(src.as_bytes()).1
    }

    fn names(items: &[Item]) -> Vec<(ItemKind, String)> {
        items.iter().map(|i| (i.kind, i.name.clone())).collect()
    }

    #[test]
    fn parses_nested_items() {
        let t = tree(
            "mod a { impl Foo { fn bar(&self) { let f = |x| x + 1; } } }\n\
             fn top() {}",
        );
        assert_eq!(
            names(&t.items),
            vec![
                (ItemKind::Mod, "a".to_string()),
                (ItemKind::Fn, "top".to_string())
            ]
        );
        let imp = &t.items[0].children[0];
        assert_eq!(imp.kind, ItemKind::Impl);
        assert_eq!(imp.name, "Foo");
        let f = &imp.children[0];
        assert_eq!(f.kind, ItemKind::Fn);
        assert_eq!(f.name, "bar");
        assert_eq!(f.children.len(), 1);
        assert_eq!(f.children[0].kind, ItemKind::Closure);
    }

    #[test]
    fn impl_names_resolve_through_paths_and_for() {
        let t = tree(
            "impl<P: Clone + Ord> fmt::Debug for crate::session::Analysis<P> { fn a(&self) {} }\n\
             impl<F: Fn() -> u64> Holder<F> { fn b(&self) {} }",
        );
        assert_eq!(t.items[0].name, "Analysis");
        assert_eq!(t.items[1].name, "Holder");
    }

    #[test]
    fn closures_vs_bit_or() {
        let t = tree("fn f(a: u32, b: u32) -> u32 { let x = a | b; let g = |y: u32| y | a; g(x) }");
        let f = &t.items[0];
        assert_eq!(f.children.len(), 1, "only the literal closure: {f:#?}");
        assert_eq!(f.children[0].kind, ItemKind::Closure);
    }

    #[test]
    fn spawn_argument_closures_are_found() {
        let t = tree("fn f() { s.spawn(move || loop { work(); }); s.spawn(|| expand(1)); }");
        let f = &t.items[0];
        assert_eq!(f.children.len(), 2);
        assert!(f.children.iter().all(|c| c.kind == ItemKind::Closure));
    }

    #[test]
    fn attributes_mark_items() {
        let t = tree(
            "#[cfg(test)]\nmod tests { #[test] fn t() {} }\n\
             #[must_use]\npub fn old() {}",
        );
        assert!(t.items[0].cfg_test);
        assert!(t.items[0].children[0].cfg_test);
        assert!(!t.items[1].cfg_test);
    }

    #[test]
    fn bodyless_decls_produce_no_items() {
        let t = tree("mod external;\ntrait T { fn sig(&self); fn with_default(&self) {} }");
        // Only the defaulted trait method has a body to analyse.
        assert_eq!(names(&t.items), vec![(ItemKind::Fn, "with_default".into())]);
    }

    #[test]
    fn tiling_on_real_shapes() {
        for src in [
            "fn a() { let x = |k| k; } mod m { impl T { fn b() {} } }",
            "fn broken( { { ) } fn after() {}",
            "{{{{{{",
            "impl X fn f |",
        ] {
            let (tokens, t) = parse(src.as_bytes());
            let leaves = t.leaves(tokens.len());
            assert_eq!(
                leaves,
                (0..tokens.len()).collect::<Vec<_>>(),
                "tiling broken for {src:?}: {t:#?}"
            );
        }
    }
}
