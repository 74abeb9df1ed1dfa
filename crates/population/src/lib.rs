//! Population protocols with leaders (Section 2 of the paper).
//!
//! A protocol is a tuple `(P, →*, ρ_L, I, γ)`: a finite set of states, an
//! additive preorder on configurations (realized here by a Petri net of finite
//! interaction-width, per Section 3), a configuration of leaders, a set of
//! initial states and an output function `γ : P → {0, ★, 1}`. A protocol
//! *stably computes* a predicate `φ` when from every initial configuration
//! `ρ_L + ρ|_P`, every reachable configuration can still reach a
//! `φ(ρ)`-output-stable configuration.
//!
//! This crate provides:
//!
//! * [`Protocol`] and [`ProtocolBuilder`] — the protocol model, with leaders,
//!   agent creation/destruction (non-conservative transitions) and the three
//!   output values of the paper ([`Output`]);
//! * [`stable::ProtocolStability`] — exact 0/1-output-stability checks of
//!   single configurations built on the coverability machinery of `pp-petri`
//!   (Lemma 5.1), which the simulator uses to detect convergence;
//! * [`Predicate`] — counting, threshold, modulo and Boolean-combination
//!   predicates over input configurations;
//! * [`verify`] — exhaustive stable-computation verification on bounded
//!   inputs, deciding output stability on each input's reachability graph
//!   and producing explicit counterexample witnesses when a protocol does
//!   not compute the claimed predicate.
//!
//! # Examples
//!
//! ```
//! use pp_population::{Output, Predicate, ProtocolBuilder};
//!
//! // A one-shot detector for "at least one agent": a + a -> a + t is not even
//! // needed; a single state with output 1 decides x ≥ 1 trivially.
//! let mut builder = ProtocolBuilder::new("at-least-one");
//! let a = builder.state("a", Output::One);
//! builder.initial(a);
//! let protocol = builder.build().unwrap();
//! assert_eq!(protocol.num_states(), 1);
//! let predicate = Predicate::counting("a", 1);
//! assert!(predicate.eval(&pp_multiset::Multiset::unit("a".to_string())));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stable;
pub mod verify;

mod builder;
mod error;
#[cfg(test)]
mod fixtures;
mod output;
mod predicate;
mod protocol;

pub use builder::ProtocolBuilder;
pub use error::ProtocolError;
pub use output::Output;
pub use predicate::Predicate;
pub use protocol::{Protocol, StateId};
