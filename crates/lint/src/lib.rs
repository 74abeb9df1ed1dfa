//! `pp_lint` — the determinism-invariant static-analysis pass.
//!
//! Every guarantee this suite makes — bit-identical reachability and
//! Karp–Miller graphs at every thread count, packed-vs-unpacked
//! bit-identity, resume ≡ cold rebuild — rests on a handful of code
//! rules. Those the toolchain can state live in the root `clippy.toml`
//! and in crate-root lint levels (no hash collections, every environment
//! read through `pp_petri::gates`, every lock through
//! `pp_petri::parallel::Lock`, no wildcard arms in `pp_petri`). This
//! pass keeps the two it cannot: every `Relaxed` atomic is justified in
//! place, and every wrapping word-arithmetic use in `packed.rs` cites
//! the width-bound invariant. The runtime test suites check the
//! guarantees; `pp_lint` pins the *rules that preserve them*.
//!
//! The pass is a workspace-aware driver ([`driver::lint_workspace`])
//! over a hand-rolled total lexer ([`lexer`]) and a catalog of rules
//! ([`rules`]), with an inline justification marker
//! (`// pp-lint: allow(<rule>) — <reason>`) as the only
//! suppression. No third-party dependencies, per the workspace's
//! offline-vendor rule. Run it as:
//!
//! ```text
//! cargo run -p pp_lint -- --check
//! ```
//!
//! which exits nonzero on any unjustified finding (CI gates on it), or
//! with `--format json` for machine-readable output. The rule catalog
//! and the recipe for adding a rule live in `DESIGN.md`, chapter
//! "Static analysis".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod lexer;
pub mod rules;

pub use driver::{count_files, lint_files, lint_workspace, report_json, Report, RuleTiming};
pub use rules::{lint_source, Finding, Rule};
