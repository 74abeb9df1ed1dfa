//! Configurations and actions over finite state sets.
//!
//! In *State Complexity of Protocols With Leaders* (Leroux, PODC 2022) a
//! `P`-configuration is a mapping in `N^P` for a finite set of states `P`
//! (Section 2), and an action is a mapping in `Z^P` (Section 7). This crate
//! provides both as ordered sparse maps:
//!
//! * [`Multiset<P>`] — a configuration `ρ ∈ N^P`: agent counts per state, with
//!   the norms `|ρ|` ([`Multiset::total`]) and `‖ρ‖∞` ([`Multiset::sup_norm`]),
//!   restriction `ρ|_Q` ([`Multiset::restrict`]), component-wise order and
//!   arithmetic.
//! * [`SignedVec<P>`] — an action `a ∈ Z^P`, e.g. the displacement `Δ(t)` of a
//!   transition, with `‖a‖₁` ([`SignedVec::l1_norm`]) and application to
//!   configurations.
//!
//! Both types are generic in the place type `P` (any `Clone + Ord`), so the
//! same code serves protocol states, Petri-net places, and the control-state
//! constructions of Section 7.
//!
//! # Examples
//!
//! ```
//! use pp_multiset::Multiset;
//!
//! // The initial configuration ρ_L + n·i of Example 4.2 with n = 3:
//! let mut config: Multiset<&str> = Multiset::new();
//! config.add_to("i_bar", 3); // three leaders in state ī
//! config.add_to("i", 3);     // three input agents in state i
//! assert_eq!(config.total(), 6);
//! assert_eq!(config.sup_norm(), 3);
//! ```

#![warn(missing_docs)]

mod multiset;
mod signed;

pub use crate::multiset::Multiset;
pub use crate::signed::SignedVec;
