//! Arbitrary-precision natural numbers for the state-complexity suite.
//!
//! The bounds appearing in *State Complexity of Protocols With Leaders*
//! (Leroux, PODC 2022) are doubly (and sometimes triply) exponential in the
//! number of states of a protocol: Theorem 4.3 bounds the threshold `n` of a
//! counting predicate by `(4 + 4·width + 2·leaders)^(|P|(|P|+2)²)`, Theorem 6.1
//! bounds bottom witnesses by `(4 + 4‖T‖ + 2‖ρ‖)^(dᵈ(1+(2+dᵈ)ᵈ+1))`, and the
//! Section 8 constants `b, h, k, a, ℓ, r` stack further exponentials on top.
//! None of these values fit in machine integers, so the suite carries its own
//! small, dependency-free big-natural implementation rather than pulling in an
//! external crate.
//!
//! The central type is [`Nat`], an unsigned arbitrary-precision integer with
//! the usual arithmetic (`+`, `-` via [`Nat::checked_sub`], `*`, integer
//! division, exponentiation), ordering, decimal formatting/parsing and cheap
//! approximations ([`Nat::bits`], [`Nat::approx_log2`]) used by the table
//! generators to report magnitudes of astronomically large bounds.
//!
//! # Examples
//!
//! ```
//! use pp_bigint::Nat;
//!
//! // The Theorem 4.3 exponent for a 6-state protocol: 6 * (6+2)^2 = 384.
//! let base = Nat::from(10u64);
//! let bound = base.pow(384);
//! assert_eq!(bound.digits(), 385);
//! assert!(bound > Nat::from(u128::MAX));
//! ```

#![warn(missing_docs)]

mod convert;
mod error;
mod fmt;
mod nat;
mod ops;
mod power;

pub use error::{ParseNatError, TryFromNatError};
pub use nat::Nat;
pub use power::PowerBound;
