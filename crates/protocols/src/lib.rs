//! A catalog of concrete population-protocol constructions.
//!
//! The paper's Section 4 contrasts protocols for the counting predicate
//! `(i ≥ n)` along three axes: number of states, interaction-width and number
//! of leaders. This crate implements, from scratch, the constructions used in
//! that discussion and in the experiments:
//!
//! * [`width_n::example_4_1`] — the paper's Example 4.1: 2 states, width `n`,
//!   leaderless;
//! * [`leaders_n::example_4_2`] — the paper's Example 4.2: 6 states, width 2,
//!   `n` leaders;
//! * [`flock::flock_of_birds_unary`] — the classical flock-of-birds protocol:
//!   `n + 1` states, width 2, leaderless (any `n`);
//! * [`flock::flock_of_birds_doubling`] — the doubling protocol: `k + 2`
//!   states for `n = 2^k`, width 2, leaderless — the `O(log n)` succinct
//!   baseline mentioned in Section 9 for leaderless protocols;
//! * [`majority::majority`] — the classical 4-state majority protocol;
//! * [`modulo::modulo_with_leader`] — a 1-leader protocol for `x ≡ r (mod m)`;
//! * [`threshold::binary_threshold_with_leader`] — a leader-based protocol for
//!   `x ≥ n` with `Θ(log n)` states for arbitrary `n` (binary representation
//!   held by a chain of leader agents).
//!
//! Every constructor returns a [`pp_population::Protocol`] together with the
//! predicate it claims to compute (see [`catalog`], and [`catalog::all`] for
//! the combined list); the claim is validated in tests by the exhaustive
//! verifier of `pp-population`. The [`batch`] module turns the catalog into
//! a batch workload: one reachability job per entry, for the batch layer
//! of `pp-petri`.

#![warn(missing_docs)]

pub mod batch;
pub mod catalog;
pub mod flock;
pub mod leaders_n;
pub mod majority;
pub mod modulo;
pub mod threshold;
pub mod width_n;

pub use catalog::{counting_entries, CatalogEntry};
