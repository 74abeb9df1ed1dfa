//! The audited registry of `PP_*` environment gates.
//!
//! Every behavioural knob the suite reads from the environment is
//! declared here, and every read goes through [`read`] — this module is
//! the *only* place in the workspace allowed to call [`std::env::var`]
//! (enforced by `pp_lint`'s `gate-registry` rule). Routing the reads
//! through one module buys three things:
//!
//! * **Discoverability** — [`GATES`] is the complete list of knobs; the
//!   README's gate table is cross-checked against it by the lint, so the
//!   docs cannot silently rot.
//! * **Auditability** — a gate that influences exploration results would
//!   be a determinism bug (the engine promises bit-identical graphs for
//!   every worker count and packing mode); keeping the reads in one
//!   ~100-line module makes the "performance-only" claim reviewable.
//! * **Uniform parsing discipline** — value grammars stay next to the
//!   gate they belong to ([`Parallelism::from_env_value`]), not scattered
//!   over call sites.
//!
//! [`Parallelism::from_env_value`]: crate::parallel::Parallelism::from_env_value

/// Name of the worker-count gate: `0` forces the sequential engine, a
/// positive integer `n` forces `Parallel(n)`, anything unparsable falls
/// back to hardware detection. Read by
/// [`Parallelism::auto`](crate::parallel::Parallelism::auto).
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

/// One registered environment gate: its name plus the one-line contract
/// the README gate table repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// The environment variable name (always `PP_*`).
    pub name: &'static str,
    /// Accepted values, in the shorthand the README table uses.
    pub values: &'static str,
    /// What the gate does. Gates are performance/representation levers
    /// only: none may change the *result* of any query.
    pub effect: &'static str,
}

/// Every environment gate the suite reads, in registration order.
///
/// Adding a gate means adding a row here, a `pub const` name above, and
/// a row in the README's "Environment gates" table — `pp_lint` fails CI
/// if the three drift apart.
pub const GATES: &[Gate] = &[
    Gate {
        name: PP_PETRI_THREADS,
        values: "`0` | `n ≥ 1` | unset/garbage",
        effect: "worker count for every state-space fixpoint: `0` forces the \
                 sequential engine, `n` forces `Parallel(n)`, anything else \
                 auto-detects. Results are bit-identical across all values.",
    },
    Gate {
        name: PP_SERVE_ADDR,
        values: "`host:port` | unset",
        effect: "default address of the `pp_serve` CLI when `--addr` is absent: \
                 `serve` binds it, `submit`/`ping` connect to it. Falls back to \
                 `127.0.0.1:7929`. A deployment knob only: it cannot change the \
                 result of any analysis.",
    },
    Gate {
        name: PP_SERVE_THREADS,
        values: "`n ≥ 1` | unset/garbage",
        effect: "cap on concurrent `pp_serve` client connections (one reader + \
                 one executor thread each); connections beyond the cap are \
                 refused with a `server-busy` frame. Default 64. Responses are \
                 bit-identical at every cap.",
    },
];

/// Reads a registered gate from the environment.
///
/// Returns `None` when the variable is unset or not valid Unicode (an
/// unreadable gate behaves like an absent one — every gate has a
/// default). Panics in debug builds when `name` is not in [`GATES`]:
/// reading an unregistered gate is a programming error, the registry
/// exists precisely so no knob can bypass it.
#[must_use]
pub fn read(name: &str) -> Option<String> {
    debug_assert!(
        GATES.iter().any(|gate| gate.name == name),
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
            assert!(gate.name.starts_with("PP_"), "{}", gate.name);
            assert!(!gate.values.is_empty() && !gate.effect.is_empty());
            assert!(
                GATES[..i].iter().all(|earlier| earlier.name != gate.name),
                "duplicate gate {}",
                gate.name
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
