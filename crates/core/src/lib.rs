//! The paper's contribution, made executable.
//!
//! *State Complexity of Protocols With Leaders* (Leroux, PODC 2022) proves
//! that any protocol of bounded interaction-width and bounded number of
//! leaders that stably computes the counting predicate `(i ≥ n)` needs at
//! least `Ω((log log n)^h)` states for every `h < 1/2`, (almost) matching the
//! `O(log log n)` upper bound of Blondin, Esparza and Jaax and improving the
//! inverse-Ackermannian lower bound of Czerner and Esparza (PODC 2021).
//!
//! This crate turns the quantitative content of the paper into code:
//!
//! * [`bounds`] — Theorem 4.3 (`n ≤ (4 + 4·width + 2·leaders)^(|P|^((|P|+2)²))`),
//!   Corollary 4.4 (the `Ω((log log n)^h)` state lower bound), and the
//!   upper-bound curves of \[6\] used in the gap experiments;
//! * [`section8`] — the constants `b, h, k, a, ℓ, r` of the Section 8 proof;
//! * [`ackermann`] — the Ackermann function and its inverse, used to compare
//!   against the prior PODC'21 lower bound;
//! * [`pipeline`] — the Section 8 analysis pipeline run on *concrete*
//!   protocols: bottom witness (Theorem 6.1), control-state component, total
//!   cycle (Lemma 7.2) and multicycle shrinking (Lemma 7.3), reported as an
//!   inspectable structure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ackermann;
pub mod bounds;
pub mod pipeline;
pub mod section8;

pub use bounds::{
    bej_upper_bound_states, corollary_4_4_min_states, leaderless_upper_bound_states,
    theorem_4_3_bound, theorem_4_3_bound_for_protocol, theorem_4_3_exponent,
};
pub use pipeline::{analyze_protocol, PipelineReport};
pub use section8::Section8Constants;
