//! The audited registry of `PP_*` environment gates.
//!
//! Every behavioural knob the suite reads from the environment is
//! declared here, and every read goes through [`read`] — this module is
//! the *only* place in the workspace allowed to call [`std::env::var`]
//! (the root `clippy.toml` lists the `std::env` readers under
//! `disallowed-methods`, and [`read`] is the one `#[expect]`ed site).
//! Routing the reads through one module buys three things:
//!
//! * **Discoverability** — [`GATES`] is the complete list of knobs; a
//!   unit test cross-checks the README's gate table against it in both
//!   directions, so the docs cannot silently rot.
//! * **Auditability** — a gate that influences query results would be a
//!   determinism bug (every answer is bit-identical at every thread count
//!   and packing mode); keeping the reads in one ~100-line module makes
//!   the "performance-only" claim reviewable.
//! * **Uniform parsing discipline** — value grammars stay next to the
//!   gate they belong to ([`Parallelism::from_env_value`]), not scattered
//!   over call sites.
//!
//! [`Parallelism::from_env_value`]: crate::parallel::Parallelism::from_env_value

/// Name of the thread-count gate of every [`Parallelism::auto`] caller
/// (the batch runner across jobs, the verifier across inputs): `0` forces
/// `Sequential`, a positive integer `n` forces `Parallel(n)`, anything
/// unparsable falls back to hardware detection.
///
/// [`Parallelism::auto`]: crate::parallel::Parallelism::auto
pub const PP_PETRI_THREADS: &str = "PP_PETRI_THREADS";

/// Name of the analysis-server address gate: the default `host:port` the
/// `pp_serve` CLI binds (`serve`) or connects to (`submit`/`ping`) when no
/// `--addr` flag is given. Defaults to `127.0.0.1:7929` when unset.
pub const PP_SERVE_ADDR: &str = "PP_SERVE_ADDR";

/// Name of the analysis-server connection-cap gate: a positive integer
/// caps how many client connections `pp_serve` handles concurrently
/// (excess connections are refused with a `server-busy` frame); unset or
/// unparsable values fall back to the default cap of 64.
pub const PP_SERVE_THREADS: &str = "PP_SERVE_THREADS";

/// Every environment gate the suite reads, in registration order.
///
/// Adding a gate means adding its name here, a `pub const` name above, and
/// a row in the README's "Environment gates" table, which is the one place
/// its values and effect are described — the
/// `readme_gate_table_matches_the_registry` test fails if the three drift
/// apart.
pub const GATES: &[&str] = &[PP_PETRI_THREADS, PP_SERVE_ADDR, PP_SERVE_THREADS];

/// Reads a registered gate from the environment.
///
/// Returns `None` when the variable is unset or not valid Unicode (an
/// unreadable gate behaves like an absent one — every gate has a
/// default). Panics in debug builds when `name` is not in [`GATES`]:
/// reading an unregistered gate is a programming error, the registry
/// exists precisely so no knob can bypass it.
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "the audited registry is the one module that reads the environment"
)]
pub fn read(name: &str) -> Option<String> {
    debug_assert!(
        GATES.contains(&name),
        "environment gate {name:?} is not registered in pp_petri::gates::GATES"
    );
    std::env::var(name).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_prefixed_and_unique() {
        for (i, gate) in GATES.iter().enumerate() {
            assert!(gate.starts_with("PP_"), "{gate}");
            assert!(!GATES[..i].contains(gate), "duplicate gate {gate}");
        }
    }

    /// `PP_*` names in `text` written as `` `PP_NAME` ``, in order of
    /// first mention.
    fn backticked_gates(text: &str) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for (at, _) in text.match_indices("`PP_") {
            let rest = &text[at + 1..];
            let Some(end) = rest.find('`') else { break };
            let name = &rest[..end];
            let well_formed = name
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_');
            if name.len() > 3 && well_formed && !names.contains(&name) {
                names.push(name);
            }
        }
        names
    }

    #[test]
    fn readme_gate_table_matches_the_registry() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let readme = std::fs::read_to_string(root.join("../../README.md")).expect("README.md");
        let source = std::fs::read_to_string(root.join("src/gates.rs")).expect("gates.rs");

        // Registry → README: every `PP_*` name constant of this module is
        // in `GATES` and has its own row in the README gate table.
        let constants: Vec<&str> = source
            .lines()
            .filter(|line| line.starts_with("pub const PP_"))
            .filter_map(|line| line.split('"').nth(1))
            .collect();
        assert_eq!(constants.len(), GATES.len(), "{constants:?} vs {GATES:?}");
        for name in constants {
            assert!(GATES.contains(&name), "`{name}` is not in GATES");
            assert!(
                readme.contains(&format!("| `{name}` |")),
                "gate `{name}` is registered but has no row in the README \"Environment gates\" table"
            );
        }

        // README → registry: every `PP_*` name the README mentions is a
        // registered gate.
        for name in backticked_gates(&readme) {
            assert!(
                GATES.contains(&name),
                "README names gate `{name}` but pp_petri::gates does not register it"
            );
        }
    }

    #[test]
    fn read_returns_none_for_unset_registered_gate() {
        // The test environment may set the gates; only assert the
        // read path is exercised without panicking.
        let _ = read(PP_PETRI_THREADS);
        let _ = read(PP_SERVE_ADDR);
        let _ = read(PP_SERVE_THREADS);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    #[cfg(debug_assertions)]
    fn read_rejects_unregistered_gates() {
        let _ = read("PP_NOT_A_GATE");
    }
}
