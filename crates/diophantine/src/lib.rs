//! Minimal solutions of homogeneous linear Diophantine systems.
//!
//! Lemma 7.3 of *State Complexity of Protocols With Leaders* (Leroux, PODC
//! 2022) shrinks a multicycle of a Petri net with control-states by working
//! with the linear system (1)
//!
//! ```text
//!     ⋀_{p ∈ P}   s(p)·α(p) = Σ_{a ∈ A} β(a)·a(p)
//! ```
//!
//! over free variables `(α, β) ∈ N^P × N^A` and invoking Pottier's theorem
//! \[12\]: every solution decomposes into a sum of *minimal* solutions, each of
//! `ℓ₁` norm at most `(2 + Σ_{a∈A} ‖a‖∞)^d`.
//!
//! This crate provides the ingredients:
//!
//! * [`LinearSystem`] — a homogeneous system `A·x = 0` with integer
//!   coefficients and non-negative unknowns;
//! * [`LinearSystem::hilbert_basis`] — the set of minimal non-zero solutions
//!   computed with the Contejean–Devie completion procedure;
//! * [`LinearSystem::lowest_minimal_solutions`] — the same completion,
//!   seeded from chosen coordinates, kept inside a box and stopped at the
//!   lowest norm that holds a minimal solution (the picks of Lemma 7.3);
//! * [`pottier_bound`] — Pottier's bound on the norm of every minimal
//!   solution.
//!
//! # Examples
//!
//! ```
//! use pp_diophantine::LinearSystem;
//!
//! // x₁ + x₂ = 2·x₃ over non-negative integers.
//! let system = LinearSystem::from_rows(vec![vec![1, 1, -2]]).unwrap();
//! let basis = system.hilbert_basis(&Default::default()).unwrap();
//! assert_eq!(basis.len(), 3); // (2,0,1), (1,1,1), (0,2,1)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod hilbert;
mod system;

pub use error::{HilbertError, SystemError};
pub use hilbert::HilbertConfig;
pub use system::{pottier_bound, LinearSystem};
