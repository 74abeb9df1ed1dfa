//! Property tests for the item-tree parser's two load-bearing
//! guarantees: it never panics on arbitrary bytes, and its items tile
//! the token stream exactly — every token index appears exactly once in
//! `tree.leaves(..)`, in order, so no rule can see a token twice or
//! lose one to a mis-matched brace. Plus deterministic boundary cases
//! for the item shapes where a naive brace-matcher misfires.

use pp_lint::syntax::{parse, Item, ItemKind};
use proptest::prelude::*;

/// Parses `bytes` and asserts the structural invariants that every
/// downstream rule leans on.
fn assert_well_formed(bytes: &[u8]) {
    let (tokens, tree) = parse(bytes);

    // Tiling: the leaves enumerate 0..token_count exactly, in order.
    let leaves = tree.leaves(tokens.len());
    assert_eq!(
        leaves,
        (0..tokens.len()).collect::<Vec<usize>>(),
        "items must tile the token stream without gaps or overlaps"
    );

    // Nesting: bodies sit inside spans, children inside parents, and
    // siblings never overlap.
    tree.walk(|item, ancestors| {
        assert!(
            item.body.start >= item.span.start && item.body.end <= item.span.end,
            "body {:?} must sit inside span {:?}",
            item.body,
            item.span
        );
        if let Some(parent) = ancestors.last() {
            assert!(
                item.span.start >= parent.span.start && item.span.end <= parent.span.end,
                "child span {:?} must nest inside parent span {:?}",
                item.span,
                parent.span
            );
        }
        assert_siblings_disjoint(&item.children);
    });
    assert_siblings_disjoint(&tree.items);
}

fn assert_siblings_disjoint(items: &[Item]) {
    for pair in items.windows(2) {
        assert!(
            pair[0].span.end <= pair[1].span.start,
            "sibling spans must be disjoint and ordered: {:?} vs {:?}",
            pair[0].span,
            pair[1].span
        );
    }
}

proptest! {
    // Arbitrary bytes: most are not valid UTF-8, none are valid Rust.
    // The parser must classify what it can and tile regardless.
    #[test]
    fn parser_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        assert_well_formed(&bytes);
    }

    // Bias towards the tokens that drive the item recognizer — braces,
    // item keywords, attribute and closure punctuation — so deep
    // nesting and truncated heads are hit constantly rather than once
    // in 256^n.
    #[test]
    fn parser_total_on_item_soup(picks in proptest::collection::vec(0usize..24, 0..256)) {
        const WORDS: &[&str] = &[
            "fn", "mod", "impl", "for", "move", "f", "{", "}", "(", ")",
            "|", "#", "[", "]", "!", ";", ",", "\"", "'", "/*", "//",
            "\n", "<", ">",
        ];
        let mut src = Vec::new();
        for &i in &picks {
            src.extend_from_slice(WORDS[i.min(WORDS.len() - 1)].as_bytes());
            src.push(b' ');
        }
        assert_well_formed(&src);
    }
}

#[test]
fn boundary_nested_items_and_closures() {
    let src = br#"
        mod outer {
            impl Widget {
                fn run(&self) {
                    let f = move |x: u32| { x + 1 };
                    helper(|| inner());
                }
            }
            fn helper<F: Fn()>(f: F) {}
        }
    "#;
    assert_well_formed(src);
    let (_, tree) = parse(src);
    let mut shapes = Vec::new();
    tree.walk(|item, ancestors| {
        shapes.push((ancestors.len(), item.kind, item.name.clone()));
    });
    assert_eq!(
        shapes,
        vec![
            (0, ItemKind::Mod, "outer".to_string()),
            (1, ItemKind::Impl, "Widget".to_string()),
            (2, ItemKind::Fn, "run".to_string()),
            (3, ItemKind::Closure, String::new()),
            (3, ItemKind::Closure, String::new()),
            (1, ItemKind::Fn, "helper".to_string()),
        ]
    );
}

#[test]
fn boundary_test_and_deprecated_attributes() {
    let src = br#"
        #[must_use]
        pub fn old() {}

        #[cfg(test)]
        mod tests {
            #[test]
            fn check() {}
        }
    "#;
    assert_well_formed(src);
    let (_, tree) = parse(src);
    let mut attrs = Vec::new();
    tree.walk(|item, _| attrs.push((item.name.clone(), item.cfg_test)));
    assert_eq!(
        attrs,
        vec![
            ("old".to_string(), false),
            ("tests".to_string(), true),
            ("check".to_string(), true),
        ]
    );
}

#[test]
fn boundary_unterminated_items_reach_eof_without_panic() {
    for src in [
        &b"fn broken( {"[..],
        b"impl {",
        b"mod m { fn f() {",
        b"fn f() { |x| ",
        b"#[",
        b"fn",
        b"impl<T: Iterator<Item = u8>>",
        b"}}}}",
    ] {
        assert_well_formed(src);
    }
}

#[test]
fn boundary_or_patterns_are_not_closures() {
    // `|` appears in match arms and generics without opening a closure;
    // the parser must not desync on them.
    let src = b"fn f(x: u32) -> u32 { match x { 0 | 1 => 0, _ => x } }";
    assert_well_formed(src);
    let (_, tree) = parse(src);
    let mut closures = 0;
    tree.walk(|item, _| {
        if item.kind == ItemKind::Closure {
            closures += 1;
        }
    });
    assert_eq!(closures, 0, "match-arm `|` must not parse as a closure");
}
