//! Multicycle shrinking (Lemma 7.3): small multicycles with prescribed signs.
//!
//! Lemma 7.3 takes a (possibly huge) multicycle `Θ` of a Petri net with
//! control-states and produces a *small* multicycle `Θ'` whose displacement
//! has the same signs as `Δ(Θ)` (strictly so on places where `Δ(Θ)` is at
//! least `k` in absolute value), vanishes on a prescribed set of places, and
//! passes through every edge that `Θ` uses at least `k` times. The proof goes
//! through Pottier's theorem on the linear system (1); this module implements
//! that construction executably on top of [`pp_diophantine`].

use crate::control::ControlNet;
use crate::euler::decompose_into_simple_cycles;
use pp_bigint::Nat;
use pp_diophantine::{decompose, HilbertConfig, LinearSystem};
use pp_multiset::SignedVec;
use std::collections::BTreeSet;
use std::fmt;

/// Failure modes of [`shrink_multicycle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShrinkError {
    /// The given Parikh image is not flow-balanced (it is not a multicycle).
    NotAMulticycle,
    /// The Hilbert-basis computation exceeded its budget.
    HilbertBudget(pp_diophantine::HilbertError),
    /// The Parikh image could not be decomposed over the Hilbert basis
    /// (should not happen for genuine multicycles).
    DecompositionFailed,
    /// No basis element vanishing on the prescribed places covers the given
    /// edge — the threshold `k` was too small for the lemma to apply.
    EdgeNotCoverable(usize),
    /// No basis element vanishing on the prescribed places has a positive
    /// value on the given place index — the threshold `k` was too small.
    PlaceNotCoverable(usize),
}

impl fmt::Display for ShrinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShrinkError::NotAMulticycle => write!(f, "parikh image is not flow-balanced"),
            ShrinkError::HilbertBudget(e) => write!(f, "hilbert basis budget exceeded: {e}"),
            ShrinkError::DecompositionFailed => {
                write!(
                    f,
                    "multicycle could not be decomposed over the hilbert basis"
                )
            }
            ShrinkError::EdgeNotCoverable(e) => {
                write!(f, "no zero-restricted basis element covers edge {e}")
            }
            ShrinkError::PlaceNotCoverable(p) => {
                write!(f, "no zero-restricted basis element covers place index {p}")
            }
        }
    }
}

impl std::error::Error for ShrinkError {}

/// The result of shrinking a multicycle (Lemma 7.3).
#[derive(Debug, Clone)]
pub struct ShrunkMulticycle<P: Ord> {
    /// The distinct simple cycles available (edge sequences), taken from the
    /// decomposition of the original multicycle.
    pub simple_cycles: Vec<Vec<usize>>,
    /// Multiplicity of each simple cycle in the shrunk multicycle `Θ'`.
    pub multiplicities: Vec<u64>,
    /// Edge Parikh image of `Θ'`.
    pub parikh: Vec<u64>,
    /// Displacement `Δ(Θ')` (over the full, unrestricted places).
    pub displacement: SignedVec<P>,
    /// Displacement `Δ(Θ)` of the original multicycle.
    pub original_displacement: SignedVec<P>,
    /// Total number of simple cycles in `Θ'` (the `‖β'‖₁` of the proof).
    pub cycle_count: u64,
    /// Total number of edges of `Θ'` (sum of the lengths of its cycles).
    pub edge_length: u64,
}

impl<P: Clone + Ord> ShrunkMulticycle<P> {
    /// Checks the sign-preservation guarantees of Lemma 7.3 for threshold `k`.
    #[must_use]
    pub fn signs_preserved(&self, k: u64) -> bool {
        let places: BTreeSet<P> = self
            .original_displacement
            .support_set()
            .union(&self.displacement.support_set())
            .cloned()
            .collect();
        for p in &places {
            let original = self.original_displacement.get(p);
            let new = self.displacement.get(p);
            if original <= 0 && new > 0 {
                return false;
            }
            if original >= 0 && new < 0 {
                return false;
            }
            if original <= -(k as i64) && new >= 0 {
                return false;
            }
            if original >= k as i64 && new <= 0 {
                return false;
            }
        }
        true
    }

    /// Checks that `Θ'` vanishes on every place of `zero_places`.
    #[must_use]
    pub fn vanishes_on(&self, zero_places: &BTreeSet<P>) -> bool {
        zero_places.iter().all(|p| self.displacement.get(p) == 0)
    }

    /// Checks the edge-coverage guarantee: every edge used at least `k` times
    /// by the original multicycle is used by `Θ'`.
    #[must_use]
    pub fn covers_frequent_edges(&self, original_parikh: &[u64], k: u64) -> bool {
        original_parikh
            .iter()
            .zip(&self.parikh)
            .all(|(&orig, &new)| orig < k || new > 0)
    }
}

/// The threshold above which Lemma 7.3 applies:
/// `k > ‖Δ(Θ)|_Q‖₁ · (1 + 2|S|·‖T‖∞)^d · (d + 1)`.
#[must_use]
pub fn lemma_7_3_threshold<P: Clone + Ord>(control: &ControlNet<P>, restricted_l1: u64) -> Nat {
    let d = control.net().num_places() as u64;
    let s = control.num_control_states() as u64;
    let base = Nat::from(1 + 2 * s * control.net().sup_norm());
    Nat::from(restricted_l1) * base.pow(d) * Nat::from(d + 1)
}

/// The Lemma 7.3 bound on the size of the shrunk multicycle:
/// `|Θ'| ≤ (|E| + d)·(1 + 2|S|·‖T‖∞)^d·(d + 1)`.
#[must_use]
pub fn lemma_7_3_size_bound<P: Clone + Ord>(control: &ControlNet<P>) -> Nat {
    let d = control.net().num_places() as u64;
    let s = control.num_control_states() as u64;
    let e = control.num_edges() as u64;
    let base = Nat::from(1 + 2 * s * control.net().sup_norm());
    Nat::from(e + d) * base.pow(d) * Nat::from(d + 1)
}

/// Shrinks the multicycle with edge Parikh image `theta_parikh` following the
/// construction of Lemma 7.3.
///
/// `zero_places` is the set of places on which the displacement of the result
/// must vanish (the set `Q` — in Section 8, the small-valued places `R'`), and
/// `k` is the threshold: the result's displacement is strictly negative
/// (positive) wherever `Δ(Θ)` is below `-k` (at least `k`), and the result
/// passes through every edge used at least `k` times by `Θ`.
///
/// # Errors
///
/// Returns a [`ShrinkError`] when the Parikh image is not a multicycle, the
/// Hilbert computation blows its budget, or `k` is too small for the lemma's
/// covering argument to go through on this instance.
pub fn shrink_multicycle<P: Clone + Ord>(
    control: &ControlNet<P>,
    theta_parikh: &[u64],
    zero_places: &BTreeSet<P>,
    k: u64,
    hilbert: &HilbertConfig,
) -> Result<ShrunkMulticycle<P>, ShrinkError> {
    // 1. Decompose Θ into simple cycles.
    let cycles_multiset =
        decompose_into_simple_cycles(control, theta_parikh).ok_or(ShrinkError::NotAMulticycle)?;
    // Deduplicate simple cycles by their Parikh image, remembering counts.
    let mut simple_cycles: Vec<Vec<usize>> = Vec::new();
    let mut cycle_parikhs: Vec<Vec<u64>> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    for cycle in cycles_multiset {
        let parikh = control.parikh(&cycle);
        match cycle_parikhs.iter().position(|c| *c == parikh) {
            Some(i) => counts[i] += 1,
            None => {
                simple_cycles.push(cycle);
                cycle_parikhs.push(parikh);
                counts.push(1);
            }
        }
    }

    // 2. Signs and absolute displacement of Θ.
    let places: Vec<P> = control.net().places().iter().cloned().collect();
    let theta_displacement = control.displacement_of_parikh(theta_parikh);
    let sign = |p: &P| -> i64 {
        if theta_displacement.get(p) >= 0 {
            1
        } else {
            -1
        }
    };

    // 3. Linear system (1): for each place p,
    //    s(p)·α(p) − Σ_c β(c)·Δ(c)(p) = 0,
    //    over variables (α ∈ N^places, β ∈ N^cycles).
    let cycle_displacements: Vec<SignedVec<P>> = simple_cycles
        .iter()
        .map(|c| control.displacement(c))
        .collect();
    let mut rows = Vec::with_capacity(places.len());
    for (p_index, p) in places.iter().enumerate() {
        let mut row = vec![0i64; places.len() + simple_cycles.len()];
        row[p_index] = sign(p);
        for (c_index, delta) in cycle_displacements.iter().enumerate() {
            row[places.len() + c_index] = -delta.get(p);
        }
        rows.push(row);
    }
    let system = LinearSystem::from_rows(rows).expect("system has at least one place row");

    // 4. Hilbert basis and decomposition of (f, g).
    let basis = system
        .hilbert_basis(hilbert)
        .map_err(ShrinkError::HilbertBudget)?;
    let mut fg = vec![0u64; places.len() + simple_cycles.len()];
    for (p_index, p) in places.iter().enumerate() {
        fg[p_index] = theta_displacement.get(p).unsigned_abs();
    }
    for (c_index, &count) in counts.iter().enumerate() {
        fg[places.len() + c_index] = count;
    }
    debug_assert!(system.is_solution(&fg), "(f, g) must solve the system");
    // Pottier decomposition check: (f, g) is a sum of basis elements.
    decompose(&fg, &basis).ok_or(ShrinkError::DecompositionFailed)?;

    // 5. H0: basis elements whose α part vanishes on the zero places and that
    //    lie in the box ≤ (f, g), which holds every element of a Pottier
    //    decomposition of (f, g). The box is what preserves signs: a solution
    //    of (1) displaces each place p by s(p)·α(p), and α ≤ f is zero
    //    wherever Δ(Θ) is, so a sum of H0 elements has the sign of Δ(Θ) on
    //    every place. A basis element outside the box may displace a place
    //    that Θ leaves unchanged.
    let in_h0 = |candidate: &[u64]| -> bool {
        candidate.iter().zip(&fg).all(|(c, bound)| c <= bound)
            && places
                .iter()
                .enumerate()
                .all(|(p_index, p)| !zero_places.contains(p) || candidate[p_index] == 0)
    };
    let h0: Vec<&Vec<u64>> = basis.iter().filter(|b| in_h0(b)).collect();

    // 6. Cover frequent edges and large-displacement places using H0.
    let mut selected: Vec<u64> = vec![0u64; places.len() + simple_cycles.len()];
    let add_candidate = |selected: &mut Vec<u64>, candidate: &[u64]| {
        for (s, &c) in selected.iter_mut().zip(candidate) {
            *s += c;
        }
    };
    // Edge counts contributed by a candidate solution's β part.
    let edge_count = |candidate: &[u64], edge: usize| -> u64 {
        cycle_parikhs
            .iter()
            .enumerate()
            .map(|(c_index, parikh)| candidate[places.len() + c_index] * parikh[edge])
            .sum()
    };
    for (edge, &edge_uses) in theta_parikh.iter().enumerate() {
        if edge_uses < k {
            continue;
        }
        let found = h0.iter().find(|b| edge_count(b, edge) > 0);
        match found {
            Some(b) => add_candidate(&mut selected, b),
            None => return Err(ShrinkError::EdgeNotCoverable(edge)),
        }
    }
    for (p_index, p) in places.iter().enumerate() {
        if theta_displacement.get(p).unsigned_abs() < k {
            continue;
        }
        let found = h0.iter().find(|b| b[p_index] > 0);
        match found {
            Some(b) => add_candidate(&mut selected, b),
            None => return Err(ShrinkError::PlaceNotCoverable(p_index)),
        }
    }

    // 7. Assemble Θ'.
    let multiplicities: Vec<u64> = (0..simple_cycles.len())
        .map(|c_index| selected[places.len() + c_index])
        .collect();
    let mut parikh = vec![0u64; control.num_edges()];
    let mut edge_length = 0u64;
    for (c_index, cycle) in simple_cycles.iter().enumerate() {
        let m = multiplicities[c_index];
        if m == 0 {
            continue;
        }
        edge_length += m * cycle.len() as u64;
        for &e in cycle {
            parikh[e] += m;
        }
    }
    let displacement = control.displacement_of_parikh(&parikh);
    Ok(ShrunkMulticycle {
        simple_cycles,
        multiplicities,
        parikh,
        displacement,
        original_displacement: theta_displacement,
        cycle_count: selected[places.len()..].iter().sum(),
        edge_length,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExplorationLimits, PetriNet, Transition};
    use pp_multiset::Multiset;

    fn ms(pairs: &[(&'static str, u64)]) -> Multiset<&'static str> {
        Multiset::from_pairs(pairs.iter().copied())
    }

    /// A control net with one control place `s` cycling through two states and
    /// two "counter" places x and y outside the restriction: one loop
    /// increments x, the other decrements y (when possible) or increments y.
    fn counter_control() -> ControlNet<&'static str> {
        let net = PetriNet::from_transitions([
            // s0 -> s1 producing x
            Transition::new(ms(&[("s0", 1)]), ms(&[("s1", 1), ("x", 1)])),
            // s1 -> s0 producing y
            Transition::new(ms(&[("s1", 1)]), ms(&[("s0", 1), ("y", 1)])),
            // s1 -> s0 consuming y
            Transition::new(ms(&[("s1", 1), ("y", 1)]), ms(&[("s0", 1)])),
        ]);
        let q: BTreeSet<&str> = ["s0", "s1"].into_iter().collect();
        ControlNet::from_component(&net, &q, &ms(&[("s0", 1)]), &ExplorationLimits::default())
            .unwrap()
    }

    fn parikh_of_cycles(
        control: &ControlNet<&'static str>,
        cycles: &[(Vec<usize>, u64)],
    ) -> Vec<u64> {
        let mut parikh = vec![0u64; control.num_edges()];
        for (cycle, count) in cycles {
            for &e in cycle {
                parikh[e] += count;
            }
        }
        parikh
    }

    #[test]
    fn shrinking_a_large_multicycle_preserves_signs_and_coverage() {
        let control = counter_control();
        assert_eq!(control.num_control_states(), 2);
        assert_eq!(control.num_edges(), 3);
        // Identify edges by their transition index.
        let edge_by_transition = |t: usize| {
            control
                .edges()
                .iter()
                .position(|e| e.transition == t)
                .unwrap()
        };
        let e_x = edge_by_transition(0);
        let e_plus_y = edge_by_transition(1);
        let e_minus_y = edge_by_transition(2);
        // Θ: 50 copies of the x-producing/y-producing loop and 40 copies of the
        // x-producing/y-consuming loop: Δ(Θ) = 90·x + 10·y.
        let theta = parikh_of_cycles(
            &control,
            &[(vec![e_x, e_plus_y], 50), (vec![e_x, e_minus_y], 40)],
        );
        let zero: BTreeSet<&str> = BTreeSet::new();
        let k = 10;
        let shrunk =
            shrink_multicycle(&control, &theta, &zero, k, &HilbertConfig::default()).unwrap();
        assert!(shrunk.signs_preserved(k));
        assert!(shrunk.covers_frequent_edges(&theta, k));
        assert!(shrunk.vanishes_on(&zero));
        assert!(shrunk.displacement.get(&"x") > 0);
        assert!(shrunk.displacement.get(&"y") >= 0);
        // The shrunk multicycle is much smaller than the original.
        assert!(shrunk.edge_length < theta.iter().sum::<u64>());
        assert!(Nat::from(shrunk.cycle_count) <= lemma_7_3_size_bound(&control));
    }

    #[test]
    fn shrinking_can_force_a_place_to_zero() {
        let control = counter_control();
        let edge_by_transition = |t: usize| {
            control
                .edges()
                .iter()
                .position(|e| e.transition == t)
                .unwrap()
        };
        let e_x = edge_by_transition(0);
        let e_plus_y = edge_by_transition(1);
        let e_minus_y = edge_by_transition(2);
        // Balanced in y: 30 of each loop; Δ(Θ) = 60·x + 0·y.
        let theta = parikh_of_cycles(
            &control,
            &[(vec![e_x, e_plus_y], 30), (vec![e_x, e_minus_y], 30)],
        );
        let zero: BTreeSet<&str> = ["y"].into_iter().collect();
        let shrunk =
            shrink_multicycle(&control, &theta, &zero, 20, &HilbertConfig::default()).unwrap();
        assert!(shrunk.vanishes_on(&zero));
        assert_eq!(shrunk.displacement.get(&"y"), 0);
        assert!(shrunk.displacement.get(&"x") > 0);
        assert!(shrunk.signs_preserved(20));
        assert!(shrunk.covers_frequent_edges(&theta, 20));
    }

    #[test]
    fn unbalanced_parikh_is_rejected() {
        let control = counter_control();
        let mut parikh = vec![0u64; control.num_edges()];
        parikh[0] = 1;
        let err = shrink_multicycle(
            &control,
            &parikh,
            &BTreeSet::new(),
            1,
            &HilbertConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, ShrinkError::NotAMulticycle);
        assert!(err.to_string().contains("flow-balanced"));
    }

    #[test]
    fn impossible_zero_constraint_reports_uncoverable() {
        let control = counter_control();
        let edge_by_transition = |t: usize| {
            control
                .edges()
                .iter()
                .position(|e| e.transition == t)
                .unwrap()
        };
        let e_x = edge_by_transition(0);
        let e_plus_y = edge_by_transition(1);
        // Every cycle of this net produces x, so requiring Δ(Θ')(x) = 0 while
        // covering the frequent edges is impossible.
        let theta = parikh_of_cycles(&control, &[(vec![e_x, e_plus_y], 30)]);
        let zero: BTreeSet<&str> = ["x"].into_iter().collect();
        let err =
            shrink_multicycle(&control, &theta, &zero, 5, &HilbertConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            ShrinkError::EdgeNotCoverable(_) | ShrinkError::PlaceNotCoverable(_)
        ));
    }

    #[test]
    fn thresholds_and_bounds_are_positive() {
        let control = counter_control();
        assert!(lemma_7_3_threshold(&control, 3) > Nat::zero());
        assert!(lemma_7_3_size_bound(&control) > Nat::zero());
        assert!(lemma_7_3_threshold(&control, 0).is_zero());
    }
}
