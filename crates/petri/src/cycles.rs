//! Multicycle shrinking (Lemma 7.3): small multicycles with prescribed signs.
//!
//! Lemma 7.3 takes a (possibly huge) multicycle `Θ` of a Petri net with
//! control-states and produces a *small* multicycle `Θ'` whose displacement
//! has the same signs as `Δ(Θ)` (strictly so on places where `Δ(Θ)` is at
//! least `k` in absolute value), vanishes on a prescribed set of places, and
//! passes through every edge that `Θ` uses at least `k` times. The proof goes
//! through Pottier's theorem on the linear system (1); this module implements
//! that construction executably on top of [`pp_diophantine`].
//!
//! The proof picks, for each frequent edge and each large place, a minimal
//! solution of (1) inside the box `≤ (f, g)` that touches it. The
//! construction finds each pick with one targeted search
//! ([`LinearSystem::lowest_minimal_solutions`]) instead of computing the
//! whole Hilbert basis of (1), and checks the guarantees of the result
//! before returning it.

use crate::control::ControlNet;
use crate::euler::decompose_into_simple_cycles;
use pp_bigint::Nat;
use pp_diophantine::{HilbertConfig, LinearSystem};
use pp_multiset::SignedVec;
use std::collections::BTreeSet;
use std::fmt;

/// Failure modes of [`shrink_multicycle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShrinkError {
    /// The given Parikh image is not flow-balanced (it is not a multicycle).
    NotAMulticycle,
    /// A targeted minimal-solution search exceeded its budget.
    HilbertBudget(pp_diophantine::HilbertError),
    /// The assembled multicycle fails the named guarantee of Lemma 7.3
    /// (`signs_preserved`, `covers_frequent_edges` or `vanishes_on`); the
    /// construction rules this out, so it signals a bug.
    GuaranteeFailed(&'static str),
    /// No minimal solution vanishing on the prescribed places covers the
    /// given edge — the threshold `k` was too small for the lemma to apply.
    EdgeNotCoverable(usize),
    /// No minimal solution vanishing on the prescribed places has a positive
    /// value on the given place index — the threshold `k` was too small.
    PlaceNotCoverable(usize),
}

impl fmt::Display for ShrinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShrinkError::NotAMulticycle => write!(f, "parikh image is not flow-balanced"),
            ShrinkError::HilbertBudget(e) => write!(f, "hilbert search budget exceeded: {e}"),
            ShrinkError::GuaranteeFailed(check) => {
                write!(f, "shrunk multicycle fails its {check} guarantee")
            }
            ShrinkError::EdgeNotCoverable(e) => {
                write!(f, "no zero-restricted minimal solution covers edge {e}")
            }
            ShrinkError::PlaceNotCoverable(p) => {
                write!(
                    f,
                    "no zero-restricted minimal solution covers place index {p}"
                )
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

/// System (1) of Lemma 7.3 for one multicycle `Θ`, with what assembling a
/// shrunk multicycle from its solutions needs.
///
/// The unknowns are `(α, β) ∈ N^places × N^cycles`, `α` first, and the row
/// of place `p` reads `s(p)·α(p) − Σ_c β(c)·Δ(c)(p) = 0`, where `s(p)` is
/// the sign of `Δ(Θ)(p)` (`+1` when it is zero).
struct Lemma73System<P: Ord> {
    /// The net's places, in the order of the `α` unknowns.
    places: Vec<P>,
    /// The distinct simple cycles of `Θ`, in the order of the `β` unknowns.
    simple_cycles: Vec<Vec<usize>>,
    /// The edge Parikh image of each simple cycle.
    cycle_parikhs: Vec<Vec<u64>>,
    /// `Δ(Θ)`.
    theta_displacement: SignedVec<P>,
    system: LinearSystem,
    /// The solution `(f, g)` that `Θ` itself gives: `f = |Δ(Θ)|` and `g`
    /// counts each simple cycle.
    fg: Vec<u64>,
}

impl<P: Clone + Ord> Lemma73System<P> {
    /// Decomposes `Θ` into simple cycles and sets up system (1) over them.
    fn new(control: &ControlNet<P>, theta_parikh: &[u64]) -> Result<Self, ShrinkError> {
        let cycles_multiset = decompose_into_simple_cycles(control, theta_parikh)
            .ok_or(ShrinkError::NotAMulticycle)?;
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

        let places: Vec<P> = control.net().places().iter().cloned().collect();
        let theta_displacement = control.displacement_of_parikh(theta_parikh);
        let cycle_displacements: Vec<SignedVec<P>> = simple_cycles
            .iter()
            .map(|c| control.displacement(c))
            .collect();
        let mut rows = Vec::with_capacity(places.len());
        for (p_index, p) in places.iter().enumerate() {
            let mut row = vec![0i64; places.len() + simple_cycles.len()];
            row[p_index] = if theta_displacement.get(p) >= 0 {
                1
            } else {
                -1
            };
            for (c_index, delta) in cycle_displacements.iter().enumerate() {
                row[places.len() + c_index] = -delta.get(p);
            }
            rows.push(row);
        }
        let system = LinearSystem::from_rows(rows).expect("system has at least one place row");

        let fg: Vec<u64> = places
            .iter()
            .map(|p| theta_displacement.get(p).unsigned_abs())
            .chain(counts)
            .collect();
        debug_assert!(system.is_solution(&fg), "(f, g) must solve the system");
        Ok(Lemma73System {
            places,
            simple_cycles,
            cycle_parikhs,
            theta_displacement,
            system,
            fg,
        })
    }

    /// The box of `H0`: `≤ (f, g)`, which holds every element of a Pottier
    /// decomposition of `(f, g)`, with `α` fixed at 0 on `zero_places`.
    ///
    /// The box is what preserves signs: a solution of (1) displaces each
    /// place `p` by `s(p)·α(p)`, and `α ≤ f` is zero wherever `Δ(Θ)` is, so
    /// a sum of solutions inside the box has the sign of `Δ(Θ)` on every
    /// place, and vanishes on `zero_places`. A solution outside the box may
    /// displace a place that `Θ` leaves unchanged.
    fn h0_box(&self, zero_places: &BTreeSet<P>) -> Vec<u64> {
        let mut bound = self.fg.clone();
        for (p_index, p) in self.places.iter().enumerate() {
            if zero_places.contains(p) {
                bound[p_index] = 0;
            }
        }
        bound
    }

    /// How often the cycles of the `β` part of `candidate` use `edge`.
    fn edge_count(&self, candidate: &[u64], edge: usize) -> u64 {
        let betas = &candidate[self.places.len()..];
        betas
            .iter()
            .zip(&self.cycle_parikhs)
            .map(|(&beta, parikh)| beta * parikh[edge])
            .sum()
    }

    /// `Θ'`: the multicycle whose cycle multiplicities are the `β` part of
    /// `selected`.
    fn assemble(self, control: &ControlNet<P>, selected: &[u64]) -> ShrunkMulticycle<P> {
        let multiplicities = selected[self.places.len()..].to_vec();
        let mut parikh = vec![0u64; control.num_edges()];
        let mut edge_length = 0u64;
        for (cycle, &m) in self.simple_cycles.iter().zip(&multiplicities) {
            edge_length += m * cycle.len() as u64;
            for &e in cycle {
                parikh[e] += m;
            }
        }
        let displacement = control.displacement_of_parikh(&parikh);
        ShrunkMulticycle {
            cycle_count: multiplicities.iter().sum(),
            simple_cycles: self.simple_cycles,
            multiplicities,
            parikh,
            displacement,
            original_displacement: self.theta_displacement,
            edge_length,
        }
    }
}

/// The certificate of Lemma 7.3 on an assembled `Θ'`: its signs follow
/// `Δ(Θ)` at threshold `k`, it uses every edge that `Θ` uses `k` times, and
/// it vanishes on `zero_places`. Linear in the places and edges.
fn check_guarantees<P: Clone + Ord>(
    shrunk: &ShrunkMulticycle<P>,
    theta_parikh: &[u64],
    zero_places: &BTreeSet<P>,
    k: u64,
) -> Result<(), ShrinkError> {
    if !shrunk.signs_preserved(k) {
        return Err(ShrinkError::GuaranteeFailed("signs_preserved"));
    }
    if !shrunk.covers_frequent_edges(theta_parikh, k) {
        return Err(ShrinkError::GuaranteeFailed("covers_frequent_edges"));
    }
    if !shrunk.vanishes_on(zero_places) {
        return Err(ShrinkError::GuaranteeFailed("vanishes_on"));
    }
    Ok(())
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
/// The steps:
/// 1. decompose `Θ` into simple cycles and count each distinct one;
/// 2. set up system (1) over `(α, β)`, solved by `Θ`'s own `(f, g)`;
/// 3. bound the picks by the box of `H0`: `≤ (f, g)`, with `α` zero on
///    `zero_places`;
/// 4. the targets are the edges `Θ` uses at least `k` times, in ascending
///    order, then the places where `|Δ(Θ)| ≥ k`, in ascending order. A
///    target that an earlier pick already touches is skipped. For each
///    other target, one [`LinearSystem::lowest_minimal_solutions`] search,
///    seeded from the target's unknowns (`β(c)` for each cycle `c` through
///    the edge, or `α(p)` for the place) and kept inside the box, runs
///    under `hilbert`; the lexicographically smallest solution of the
///    lowest norm it finds is the pick. Each pick is a Hilbert-basis element
///    of (1) in `H0` that touches its target, as the proof requires;
/// 5. assemble `Θ'` from the sum of the picks' `β` parts, and check its
///    guarantees.
///
/// # Errors
///
/// Returns [`ShrinkError::NotAMulticycle`] when the Parikh image is not a
/// multicycle, [`ShrinkError::HilbertBudget`] when a targeted search blows
/// its `hilbert` budget, [`ShrinkError::EdgeNotCoverable`] or
/// [`ShrinkError::PlaceNotCoverable`] when `k` is too small for the lemma's
/// covering argument to go through on this instance, and
/// [`ShrinkError::GuaranteeFailed`] if the result fails a guarantee.
pub fn shrink_multicycle<P: Clone + Ord>(
    control: &ControlNet<P>,
    theta_parikh: &[u64],
    zero_places: &BTreeSet<P>,
    k: u64,
    hilbert: &HilbertConfig,
) -> Result<ShrunkMulticycle<P>, ShrinkError> {
    let lemma = Lemma73System::new(control, theta_parikh)?;
    let bound = lemma.h0_box(zero_places);
    let lowest = |seeds: &[usize]| -> Result<Option<Vec<u64>>, ShrinkError> {
        let solutions = lemma
            .system
            .lowest_minimal_solutions(seeds, &bound, hilbert)
            .map_err(ShrinkError::HilbertBudget)?;
        Ok(solutions.into_iter().next())
    };
    let add = |selected: &mut Vec<u64>, pick: Vec<u64>| {
        for (s, c) in selected.iter_mut().zip(pick) {
            *s += c;
        }
    };
    let d = lemma.places.len();
    let mut selected = vec![0u64; lemma.fg.len()];
    for (edge, &edge_uses) in theta_parikh.iter().enumerate() {
        if edge_uses < k || lemma.edge_count(&selected, edge) > 0 {
            continue;
        }
        let seeds: Vec<usize> = (0..lemma.cycle_parikhs.len())
            .filter(|&c| lemma.cycle_parikhs[c][edge] > 0)
            .map(|c| d + c)
            .collect();
        let pick = lowest(&seeds)?.ok_or(ShrinkError::EdgeNotCoverable(edge))?;
        add(&mut selected, pick);
    }
    for (p_index, p) in lemma.places.iter().enumerate() {
        if lemma.theta_displacement.get(p).unsigned_abs() < k || selected[p_index] > 0 {
            continue;
        }
        let pick = lowest(&[p_index])?.ok_or(ShrinkError::PlaceNotCoverable(p_index))?;
        add(&mut selected, pick);
    }
    let shrunk = lemma.assemble(control, &selected);
    check_guarantees(&shrunk, theta_parikh, zero_places, k)?;
    Ok(shrunk)
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

    /// Whether `remaining` is a sum of elements of `basis` (repetitions
    /// allowed), as Pottier's theorem promises for every solution of the
    /// system whose Hilbert basis `basis` is. Depth-first over the basis in
    /// order, largest multiplicities first; `failed` memoizes the
    /// (basis elements left, remainder) pairs already refuted.
    fn decomposes(
        remaining: &[u64],
        basis: &[Vec<u64>],
        failed: &mut BTreeSet<(usize, Vec<u64>)>,
    ) -> bool {
        if remaining.iter().all(|&v| v == 0) {
            return true;
        }
        let Some((b, rest)) = basis.split_first() else {
            return false;
        };
        if failed.contains(&(rest.len(), remaining.to_vec())) {
            return false;
        }
        let max_uses = remaining
            .iter()
            .zip(b)
            .filter(|&(_, &bv)| bv > 0)
            .map(|(&rv, &bv)| rv / bv)
            .min()
            .unwrap_or(0);
        let found = (0..=max_uses).rev().any(|uses| {
            let next: Vec<u64> = remaining
                .iter()
                .zip(b)
                .map(|(&rv, &bv)| rv - bv * uses)
                .collect();
            decomposes(&next, rest, failed)
        });
        if !found {
            failed.insert((rest.len(), remaining.to_vec()));
        }
        found
    }

    /// The construction `shrink_multicycle` used before the targeted
    /// searches: compute the whole Hilbert basis of system (1), check that
    /// `(f, g)` decomposes over it, and pick for every target (none
    /// skipped) the first basis element in the box of `H0` that touches it.
    /// Kept as the reference the targeted construction is compared with.
    fn reference_shrink_multicycle<P: Clone + Ord>(
        control: &ControlNet<P>,
        theta_parikh: &[u64],
        zero_places: &BTreeSet<P>,
        k: u64,
        hilbert: &HilbertConfig,
    ) -> Result<ShrunkMulticycle<P>, ShrinkError> {
        let lemma = Lemma73System::new(control, theta_parikh)?;
        let basis = lemma
            .system
            .hilbert_basis(hilbert)
            .map_err(ShrinkError::HilbertBudget)?;
        assert!(decomposes(&lemma.fg, &basis, &mut BTreeSet::new()));
        let bound = lemma.h0_box(zero_places);
        let h0: Vec<&Vec<u64>> = basis
            .iter()
            .filter(|b| b.iter().zip(&bound).all(|(x, u)| x <= u))
            .collect();
        let mut selected = vec![0u64; lemma.fg.len()];
        let mut add = |pick: &[u64]| {
            for (s, &c) in selected.iter_mut().zip(pick) {
                *s += c;
            }
        };
        for (edge, &edge_uses) in theta_parikh.iter().enumerate() {
            if edge_uses >= k {
                let pick = h0
                    .iter()
                    .find(|b| lemma.edge_count(b, edge) > 0)
                    .ok_or(ShrinkError::EdgeNotCoverable(edge))?;
                add(pick);
            }
        }
        for (p_index, p) in lemma.places.iter().enumerate() {
            if lemma.theta_displacement.get(p).unsigned_abs() >= k {
                let pick = h0
                    .iter()
                    .find(|b| b[p_index] > 0)
                    .ok_or(ShrinkError::PlaceNotCoverable(p_index))?;
                add(pick);
            }
        }
        Ok(lemma.assemble(control, &selected))
    }

    #[test]
    fn targeted_picks_keep_the_guarantees_and_never_grow_on_the_catalog() {
        use crate::bottom::find_bottom_witness_in;
        use crate::Analysis;
        use pp_protocols::{catalog, flock};

        let limits = ExplorationLimits::default();
        let protocols = (1..=5u64)
            .flat_map(catalog::all)
            .map(|entry| entry.protocol)
            .chain([flock::flock_of_birds_unary(6)]);
        let mut shrunk = 0;
        for protocol in protocols {
            // Step 4 of the Section 8 pipeline: 8 × the total cycle of the
            // control net of the witness of T|P', with P' the non-initial
            // states, at k = 4. `pp_protocols` links its own build of this
            // crate, so each net is copied into this build's types, places
            // and transition order included.
            macro_rules! copy {
                ($source:expr) => {{
                    let source = $source;
                    let mut net = PetriNet::new();
                    for place in source.places() {
                        net.add_place(*place);
                    }
                    for t in source.transitions() {
                        net.add_transition(Transition::new(t.pre().clone(), t.post().clone()));
                    }
                    net
                }};
            }
            let non_initial: BTreeSet<_> = protocol
                .states()
                .filter(|s| !protocol.initial_states().contains(s))
                .collect();
            let restricted = copy!(protocol.net().restrict(&non_initial));
            let leaders = protocol.leaders().restrict(&non_initial);
            let Some(witness) =
                find_bottom_witness_in(&mut Analysis::new(&restricted), &leaders, &limits)
            else {
                continue;
            };
            let net = copy!(protocol.net());
            let Some(control) =
                ControlNet::from_component(&net, &witness.q_places, &witness.alpha, &limits)
            else {
                continue;
            };
            let Some(cycle) = control
                .control_state_index(&witness.alpha)
                .and_then(|anchor| control.total_cycle(anchor))
            else {
                continue;
            };
            let theta: Vec<u64> = control.parikh(&cycle).iter().map(|c| 8 * c).collect();
            let (zero, k, config) = (BTreeSet::new(), 4, HilbertConfig::default());
            let targeted = shrink_multicycle(&control, &theta, &zero, k, &config).unwrap();
            let reference =
                reference_shrink_multicycle(&control, &theta, &zero, k, &config).unwrap();
            for result in [&targeted, &reference] {
                assert_eq!(
                    check_guarantees(result, &theta, &zero, k),
                    Ok(()),
                    "{}",
                    protocol.name()
                );
            }
            assert!(
                targeted.cycle_count <= reference.cycle_count,
                "{}: {} > {}",
                protocol.name(),
                targeted.cycle_count,
                reference.cycle_count
            );
            shrunk += 1;
        }
        assert_eq!(shrunk, 27);
    }

    #[test]
    fn the_certificate_rejects_a_flipped_sign() {
        let control = counter_control();
        let edge_by_transition = |t: usize| {
            control
                .edges()
                .iter()
                .position(|e| e.transition == t)
                .unwrap()
        };
        let (e_x, e_plus_y) = (edge_by_transition(0), edge_by_transition(1));
        // Θ = 20 copies of the loop producing x and y: Δ(Θ) = 20·x + 20·y.
        let theta = parikh_of_cycles(&control, &[(vec![e_x, e_plus_y], 20)]);
        let zero = BTreeSet::new();
        let mut shrunk =
            shrink_multicycle(&control, &theta, &zero, 5, &HilbertConfig::default()).unwrap();
        assert_eq!(check_guarantees(&shrunk, &theta, &zero, 5), Ok(()));
        // The same Θ' with its displacement on y negated.
        let y = shrunk.displacement.get(&"y");
        assert!(y > 0);
        shrunk.displacement.set("y", -y);
        let err = check_guarantees(&shrunk, &theta, &zero, 5).unwrap_err();
        assert_eq!(err, ShrinkError::GuaranteeFailed("signs_preserved"));
        assert!(err.to_string().contains("signs_preserved"));
    }

    #[test]
    fn thresholds_and_bounds_are_positive() {
        let control = counter_control();
        assert!(lemma_7_3_threshold(&control, 3) > Nat::zero());
        assert!(lemma_7_3_size_bound(&control) > Nat::zero());
        assert!(lemma_7_3_threshold(&control, 0).is_zero());
    }
}
