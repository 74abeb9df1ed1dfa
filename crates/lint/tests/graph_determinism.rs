//! The call graph is itself subject to the determinism discipline it
//! polices: two independent builds over the same sources must render
//! byte-identically, regardless of input file order. A nondeterministic
//! graph would make lint findings flap between CI runs — the failure
//! mode the workspace's hash-collection ban (`clippy.toml`) exists to
//! prevent.

use pp_lint::graph::{ParsedFile, Workspace};

/// A small workspace exercising every resolution path: free calls,
/// self-receiver methods, qualified calls, cross-file calls, closures,
/// and a test module whose nodes must not receive non-test edges.
const SOURCES: &[(&str, &str)] = &[
    (
        "crates/petri/src/engine.rs",
        r#"
        pub struct Engine { jobs: Mutex<Vec<u32>> }
        impl Engine {
            pub fn run(&self) {
                self.step();
                helper(|| self.step());
            }
            fn step(&self) { let g = self.jobs.lock(); drop(g); }
        }
        fn helper<F: Fn()>(f: F) { f(); }
        #[cfg(test)]
        mod tests {
            #[test]
            fn smoke() { Engine::default().run(); }
        }
        "#,
    ),
    (
        "crates/petri/src/worker.rs",
        r#"
        use crate::engine::Engine;
        pub fn drive(e: &Engine) { e.run(); crate::engine::helper(|| {}); }
        "#,
    ),
    (
        "crates/lint/src/main.rs",
        r#"
        fn main() { run(); }
        fn run() {}
        "#,
    ),
];

fn build(order: impl Iterator<Item = usize>) -> Workspace {
    Workspace::build(
        order
            .map(|i| {
                let (path, src) = SOURCES[i];
                ParsedFile::new(path.to_string(), src.as_bytes().to_vec())
            })
            .collect(),
    )
}

#[test]
fn two_builds_render_byte_identically() {
    let a = build(0..SOURCES.len()).render();
    let b = build(0..SOURCES.len()).render();
    assert_eq!(a, b, "same inputs must produce the same rendered graph");
    assert!(!a.is_empty());
}

#[test]
fn file_order_does_not_leak_into_the_render() {
    let forward = build(0..SOURCES.len()).render();
    let reversed = build((0..SOURCES.len()).rev()).render();
    assert_eq!(
        forward, reversed,
        "the graph must canonicalize file order, not inherit it"
    );
}

#[test]
fn render_carries_the_expected_shape() {
    let ws = build(0..SOURCES.len());
    let render = ws.render();
    // All functions and closures appear as nodes…
    for label in ["Engine::run", "Engine::step", "helper", "drive", "main"] {
        assert!(
            render
                .lines()
                .any(|l| l.starts_with("node") && l.ends_with(label)),
            "missing node {label:?} in:\n{render}"
        );
    }
    // …the test fn is flagged…
    assert!(
        render.contains(" [test]"),
        "test nodes must be marked: {render}"
    );
    // …and at least one cross-file edge resolved (worker::drive ->
    // engine nodes).
    assert!(
        render.contains("edge "),
        "calls must resolve to edges: {render}"
    );
}
