//! Rackoff bounds for coverability and stabilization (Lemmas 5.3 and 5.4).

use crate::PetriNet;
use pp_bigint::Nat;
use pp_multiset::Multiset;

/// The Rackoff bound of Lemma 5.3: if `ρ` is `T`-coverable from `α`, then it
/// is coverable by a word of length at most `(‖ρ‖∞ + ‖T‖∞)^(|P|^|P|)`.
///
/// The exponent `|P|^|P|` is astronomically large already for a handful of
/// places, hence the [`Nat`] return type.
///
/// ```
/// use pp_bigint::Nat;
/// use pp_multiset::Multiset;
/// use pp_petri::{rackoff::covering_length_bound, PetriNet, Transition};
///
/// let net = PetriNet::from_transitions([Transition::pairwise("a", "a", "a", "b")]);
/// let bound = covering_length_bound(&net, &Multiset::unit("b"));
/// assert_eq!(bound, Nat::from(3u64).pow(4)); // (1 + 2)^(2^2)
/// ```
#[must_use]
pub fn covering_length_bound<P: Clone + Ord>(net: &PetriNet<P>, target: &Multiset<P>) -> Nat {
    let d = net.num_places() as u64;
    let base = Nat::from(target.sup_norm() + net.sup_norm());
    base.pow_nat(&Nat::from(d).pow(d))
}

/// The stabilization threshold `h` of Lemma 5.4:
/// `h ≥ ‖T‖∞ (1 + ‖T‖∞)^(|P|^|P|)`.
///
/// Any `(T, F)`-stabilized configuration `ρ` is characterized by its values
/// below `h`: every configuration agreeing with (or below) `ρ` on the places
/// where `ρ < h` is also stabilized.
#[must_use]
pub fn stabilization_threshold<P: Clone + Ord>(net: &PetriNet<P>) -> Nat {
    let d = net.num_places() as u64;
    let norm = net.sup_norm();
    Nat::from(norm) * Nat::from(1 + norm).pow_nat(&Nat::from(d).pow(d))
}

/// The per-place "small values" region of Lemma 5.4: `R = {p : ρ(p) < h}`.
///
/// `h` is passed as a `u64` (saturate [`stabilization_threshold`] with
/// [`Nat::saturating_u64`] for a concrete exploration); places whose count
/// is at least `h` are the "large" places that can be pumped without
/// affecting stability.
#[must_use]
pub fn small_value_places<P: Clone + Ord>(
    net: &PetriNet<P>,
    config: &Multiset<P>,
    threshold: u64,
) -> std::collections::BTreeSet<P> {
    net.places()
        .iter()
        .filter(|p| config.get(p) < threshold)
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transition;

    fn ms(pairs: &[(&'static str, u64)]) -> Multiset<&'static str> {
        Multiset::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn covering_length_bound_small_net() {
        let net = PetriNet::from_transitions([Transition::pairwise("a", "a", "a", "b")]);
        // |P| = 2, ‖T‖∞ = 2 (the pre has two a's)... wait: pre = 2·a so sup-norm 2.
        let bound = covering_length_bound(&net, &Multiset::unit("b"));
        assert_eq!(bound, Nat::from(3u64).pow(4));
    }

    #[test]
    fn covering_length_bound_grows_with_places() {
        let small = PetriNet::from_transitions([Transition::pairwise("a", "a", "a", "b")]);
        let mut big = small.clone();
        big.add_place("c");
        big.add_place("d");
        let target = Multiset::unit("b");
        assert!(covering_length_bound(&small, &target) < covering_length_bound(&big, &target));
    }

    #[test]
    fn empty_net_has_trivial_bounds() {
        let net: PetriNet<&str> = PetriNet::new();
        // Base (‖ρ‖∞ + ‖T‖∞) = 0 and exponent 0⁰ = 1: the bound degenerates to
        // zero, which is consistent (the empty word covers the empty target).
        assert_eq!(covering_length_bound(&net, &Multiset::new()), Nat::zero());
        assert_eq!(stabilization_threshold(&net), Nat::zero());
    }

    #[test]
    fn stabilization_threshold_value() {
        let net = PetriNet::from_transitions([Transition::pairwise("a", "b", "c", "d")]);
        // ‖T‖∞ = 1, |P| = 4: h = 1 · 2^(4^4) = 2^256.
        assert_eq!(stabilization_threshold(&net), Nat::from(2u64).pow(256));
    }

    #[test]
    fn small_value_places_partition() {
        let net = PetriNet::from_transitions([Transition::pairwise("a", "b", "c", "d")]);
        let config = ms(&[("a", 10), ("b", 1)]);
        let small = small_value_places(&net, &config, 5);
        assert!(small.contains(&"b"));
        assert!(small.contains(&"c"));
        assert!(small.contains(&"d"));
        assert!(!small.contains(&"a"));
    }
}
