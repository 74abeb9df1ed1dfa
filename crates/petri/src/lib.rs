//! Petri-net substrate for *State Complexity of Protocols With Leaders*.
//!
//! Section 3 of the paper observes that additive preorders of finite
//! interaction-width are exactly Petri-net reachability relations, which makes
//! Petri nets the computational substrate of every later section:
//!
//! * Section 5 characterizes `(T, F)`-stabilized configurations using
//!   Rackoff's coverability bounds ([`stabilized`], [`rackoff`], [`cover`]);
//! * Section 6 reaches *bottom* configurations along short executions
//!   ([`component`], [`bottom`]);
//! * Section 7 analyses Petri nets *with control-states*: Euler cycles, total
//!   cycles and the Pottier-based multicycle shrinking of Lemma 7.3
//!   ([`control`], [`euler`], [`cycles`]).
//!
//! The crate provides all of these as reusable algorithms over
//! [`PetriNet`]/[`Transition`] built on [`pp_multiset::Multiset`]
//! configurations, together with bounded forward exploration
//! ([`explore::ReachabilityGraph`]), exact backward coverability
//! ([`cover::CoverabilityOracle`]) and a Karp–Miller tree ([`karp_miller`]).
//!
//! All state-space traversal runs on the shared dense engine: a
//! hash-interning [`arena::ConfigArena`] of dense configuration rows and a
//! precompiled [`engine::CompiledNet`] whose successor generation works on
//! slices instead of tree merges. The public entry point is the
//! [`session::Analysis`] session, which compiles a net once and serves
//! every query — forward exploration (with resumable budgets), backward
//! coverability, Karp–Miller trees, covering words — on that shared
//! substrate, still speaking sparse `Multiset` configurations at the
//! boundary. Above the session sits the [`batch`] scheduler: fleets of
//! jobs over many nets, deduplicated behind shared sessions and run under
//! one fair-shared token budget, every result bit-identical to a solo
//! query. See `DESIGN.md` ("The session layer", "The batch layer") for
//! the architecture and `explore::sparse_reference_exploration` for the
//! retained differential-testing baseline.
//!
//! # Examples
//!
//! ```
//! use pp_multiset::Multiset;
//! use pp_petri::{PetriNet, Transition};
//!
//! // The Petri net of Example 4.2 restricted to two of its transitions.
//! let mut net = PetriNet::new();
//! net.add_transition(Transition::new(
//!     Multiset::from_pairs([("i", 1u64), ("i_bar", 1)]),
//!     Multiset::from_pairs([("p", 1u64), ("q", 1)]),
//! ));
//! assert_eq!(net.max_width(), 2);
//! assert_eq!(net.sup_norm(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A new enum variant (a completion reason, a query kind) must break the
// build at every `match` that refunds, resumes or reports on it, not fall
// through a `_` arm.
#![deny(clippy::wildcard_enum_match_arm)]

pub mod arena;
pub mod batch;
pub mod bottom;
pub mod component;
pub mod control;
pub mod cover;
pub mod cycles;
pub mod engine;
pub mod euler;
pub mod explore;
pub mod fingerprint;
pub mod gates;
pub mod karp_miller;
pub mod packed;
pub mod parallel;
pub mod rackoff;
pub mod session;
pub mod stabilized;

mod net;
mod transition;

pub use arena::{ConfigArena, ConfigId};
pub use batch::{Batch, BatchJob, BatchOutcome, BatchQuery, BatchReport, JobReport, QueryRun};
pub use engine::{CompiledNet, CompiledTransition, DenseConfig};
pub use explore::{ExplorationLimits, ReachabilityGraph};
pub use net::PetriNet;
pub use packed::{CellWidth, RowLayout};
pub use parallel::Parallelism;
pub use session::{Analysis, Completion};
pub use transition::Transition;

#[cfg(test)]
mod tests {
    use super::Parallelism;

    #[test]
    fn parallel_map_preserves_order() {
        let input: Vec<u64> = (0..200).collect();
        let expected: Vec<u64> = input.iter().map(|x| x * 3).collect();
        let output = Parallelism::Parallel(4).map(input, |x| x * 3);
        assert_eq!(output, expected);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let output = Parallelism::Parallel(4).map(Vec::<u8>::new(), |x| x);
        assert!(output.is_empty());
    }
}
