//! Hilbert-basis computation via the Contejean–Devie completion procedure.

use crate::error::HilbertError;
use crate::system::LinearSystem;

/// Resource budget for the Hilbert-basis completion.
///
/// Hilbert bases can be exponentially large in the size of the system, so the
/// completion runs under explicit limits and fails loudly (instead of
/// silently truncating) when they are exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HilbertConfig {
    /// Maximum number of frontier nodes expanded before giving up.
    pub max_nodes: usize,
    /// Maximum `ℓ₁` norm of candidate vectors before giving up, if any.
    pub max_norm: Option<u64>,
}

impl Default for HilbertConfig {
    fn default() -> Self {
        HilbertConfig {
            max_nodes: 5_000_000,
            max_norm: None,
        }
    }
}

impl HilbertConfig {
    /// A configuration with the given node budget and default remaining fields.
    #[must_use]
    pub fn with_max_nodes(max_nodes: usize) -> Self {
        HilbertConfig {
            max_nodes,
            ..Default::default()
        }
    }
}

/// Returns `true` if `a ≥ b` component-wise.
fn dominates(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| x >= y)
}

/// Writes the support of `v` into `mask`: bit `j % 64` of word `j / 64` is
/// set iff `v[j] > 0`.
fn support_mask(v: &[u64], mask: &mut [u64]) {
    mask.fill(0);
    for (j, &x) in v.iter().enumerate() {
        if x > 0 {
            mask[j / 64] |= 1 << (j % 64);
        }
    }
}

/// The minimal solutions found so far, indexed for the child-side
/// domination test of [`LinearSystem::hilbert_basis`].
///
/// An element `b` is listed in bucket `(j, b[j])` for every `j` in its
/// support, and carries its support as a bitmask of `⌈cols/64⌉` words.
struct BasisIndex {
    cols: usize,
    words: usize,
    /// The elements, row-major with stride `cols`.
    elements: Vec<u64>,
    /// Their support masks, row-major with stride `words`.
    masks: Vec<u64>,
    /// `buckets[j][v]`: the elements `b` with `b[j] == v > 0`.
    buckets: Vec<Vec<Vec<usize>>>,
}

impl BasisIndex {
    fn new(cols: usize) -> Self {
        BasisIndex {
            cols,
            words: cols.div_ceil(64),
            elements: Vec::new(),
            masks: Vec::new(),
            buckets: vec![Vec::new(); cols],
        }
    }

    fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    fn insert(&mut self, b: &[u64]) {
        let id = self.elements.len() / self.cols;
        self.elements.extend_from_slice(b);
        let start = self.masks.len();
        self.masks.resize(start + self.words, 0);
        support_mask(b, &mut self.masks[start..]);
        for (bucket, &v) in self.buckets.iter_mut().zip(b) {
            if v == 0 {
                continue;
            }
            let v = usize::try_from(v).expect("a coordinate is at most the node count");
            if bucket.len() <= v {
                bucket.resize_with(v + 1, Vec::new);
            }
            bucket[v].push(id);
        }
    }

    /// Whether some element dominates `child = t + e_j`, where no element
    /// dominates `t`. Such an element must have `b[j] == child[j]`, so only
    /// that bucket is scanned; `child_mask` is the support of `child`.
    fn dominates_child(&self, child: &[u64], child_mask: &[u64], j: usize) -> bool {
        let Some(bucket) = usize::try_from(child[j])
            .ok()
            .and_then(|v| self.buckets[j].get(v))
        else {
            return false;
        };
        bucket.iter().any(|&id| {
            let mask = &self.masks[id * self.words..(id + 1) * self.words];
            mask.iter().zip(child_mask).all(|(&b, &c)| b & !c == 0)
                && dominates(child, &self.elements[id * self.cols..(id + 1) * self.cols])
        })
    }

    /// The elements, sorted lexicographically and free of duplicates.
    fn into_basis(self) -> Vec<Vec<u64>> {
        let mut basis: Vec<Vec<u64>> = self
            .elements
            .chunks(self.cols)
            .map(<[u64]>::to_vec)
            .collect();
        basis.sort();
        basis.dedup();
        basis
    }
}

/// One breadth-first level of the completion: vectors of equal `ℓ₁` norm,
/// each carried with its Gram image `g = AᵀA·t`, both stored row-major
/// with stride `cols`, and with its linear hash `h(t) = Σ t_k·r_k`.
struct Level {
    cols: usize,
    vectors: Vec<u64>,
    grams: Vec<i128>,
    hashes: Vec<u64>,
}

impl Level {
    fn new(cols: usize) -> Self {
        Level {
            cols,
            vectors: Vec::new(),
            grams: Vec::new(),
            hashes: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    fn vector(&self, i: usize) -> &[u64] {
        &self.vectors[i * self.cols..(i + 1) * self.cols]
    }

    fn nodes(&self) -> impl Iterator<Item = (&[u64], &[i128], u64)> {
        self.vectors
            .chunks(self.cols)
            .zip(self.grams.chunks(self.cols))
            .zip(&self.hashes)
            .map(|((t, g), &h)| (t, g, h))
    }

    fn clear(&mut self) {
        self.vectors.clear();
        self.grams.clear();
        self.hashes.clear();
    }
}

/// The weight `r_k` of coordinate `k` in the linear hash
/// `h(t) = Σ t_k·r_k` (wrapping): the SplitMix64 finalizer of `k`.
fn hash_weight(k: usize) -> u64 {
    let mut z = (k as u64)
        .wrapping_add(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether `v == t + e_j`.
fn is_successor(v: &[u64], t: &[u64], j: usize) -> bool {
    v.iter()
        .zip(t)
        .enumerate()
        .all(|(k, (&x, &y))| x == y + u64::from(k == j))
}

/// Marks a free slot of a [`ChildSet`].
const EMPTY: usize = usize::MAX;

/// The distinct children of one level: a linear-probing table of indices
/// into the level being built, keyed by the children's linear hashes, so
/// that a child reached from several parents is tested and stored once.
#[derive(Default)]
struct ChildSet {
    /// Child indices or [`EMPTY`]; the length is zero or a power of two at
    /// least twice the number of entries.
    slots: Vec<usize>,
}

impl ChildSet {
    fn clear(&mut self) {
        self.slots.fill(EMPTY);
    }

    /// The first probe position of `hash` (the high bits of a
    /// multiplicative mix, since the linear hash itself is structured).
    fn home(&self, hash: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// Looks up the child `t + e_j` of hash `hash` among `children`, which
    /// are all in the table, comparing in place: `None` if an equal child
    /// is present, else the free slot where the next child belongs.
    fn vacant_slot(&mut self, children: &Level, t: &[u64], j: usize, hash: u64) -> Option<usize> {
        if 2 * (children.len() + 1) > self.slots.len() {
            self.slots = vec![EMPTY; (4 * (children.len() + 1)).next_power_of_two()];
            let mask = self.slots.len() - 1;
            for (earlier, &h) in children.hashes.iter().enumerate() {
                // The earlier children are distinct: take the first free slot.
                let mut slot = self.home(h);
                while self.slots[slot] != EMPTY {
                    slot = (slot + 1) & mask;
                }
                self.slots[slot] = earlier;
            }
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        loop {
            match self.slots[slot] {
                EMPTY => return Some(slot),
                other
                    if children.hashes[other] == hash
                        && is_successor(children.vector(other), t, j) =>
                {
                    return None
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

/// Where a run of [`LinearSystem::complete`] starts, how far it may go and
/// when it stops.
struct Search<'a> {
    /// The coordinates whose unit vectors form the first level.
    seeds: &'a [usize],
    /// A coordinate-wise upper bound on every vector, if any.
    bound: Option<&'a [u64]>,
    /// Whether to stop after the first level that holds a solution.
    first_layer: bool,
}

impl LinearSystem {
    /// Computes the Hilbert basis of the system: the set of minimal non-zero
    /// solutions of `A·x = 0` with `x ∈ N^n`.
    ///
    /// Uses the Contejean–Devie completion procedure: the frontier is explored
    /// breadth-first starting from the unit vectors; a frontier vector `t` is
    /// either recognized as a solution (and recorded) or extended by `e_j`
    /// for every coordinate `j` whose column decreases the defect, i.e.
    /// `⟨A·t, a_j⟩ < 0`. Breadth-first order makes level `k` the vectors of
    /// `ℓ₁` norm `k`, so solutions are discovered in order of increasing
    /// norm and every recorded solution is minimal.
    ///
    /// Each vector is tested for domination once, when it is generated as a
    /// child `t + e_j` of a level-`k` vector `t`, and a dominated child is
    /// pruned. At that moment the basis holds every solution of norm at most
    /// `k`. A solution recorded later has norm at least `k + 1`, so it can
    /// equal the child but never strictly dominate it: no later test is
    /// needed. Since no basis element dominates the parent `t`, an element
    /// `b` dominating `t + e_j` must have `b[j] = t[j] + 1`. The basis is
    /// therefore indexed by `(j, b[j])`, and the child scans that one bucket,
    /// rejecting elements whose support bitmask is not inside its own before
    /// comparing coordinates.
    ///
    /// The criterion reads `⟨A·t, a_j⟩` off `g = AᵀA·t`, since
    /// `g_j = ⟨A·t, a_j⟩`. Each frontier vector carries its `g`, so the
    /// criterion is the lookup `g_j < 0` and the child `t + e_j` gets
    /// `g + G_j`, with `G_j` row `j` of the Gram matrix `G = AᵀA`. The same
    /// `g` recognizes solutions: `g = 0` iff `A·t = 0`, because
    /// `⟨t, g⟩ = ‖A·t‖²`. A child reached from several parents is tested
    /// and kept once: every vector also carries the linear hash
    /// `h(t) = Σ t_k·r_k`, so the child's hash is `h(t) + r_j`, and a
    /// repeat is recognized by comparing `t + e_j` in place, before it is
    /// copied into the level. The order of the vectors within a level
    /// affects neither the basis nor which budget error is returned.
    ///
    /// The returned basis is sorted lexicographically and free of duplicates.
    ///
    /// # Errors
    ///
    /// Returns [`HilbertError`] if the configured node or norm budget is
    /// exceeded.
    ///
    /// # Examples
    ///
    /// ```
    /// use pp_diophantine::LinearSystem;
    ///
    /// let system = LinearSystem::from_rows(vec![vec![2, -3]]).unwrap();
    /// let basis = system.hilbert_basis(&Default::default()).unwrap();
    /// assert_eq!(basis, vec![vec![3, 2]]);
    /// ```
    pub fn hilbert_basis(&self, config: &HilbertConfig) -> Result<Vec<Vec<u64>>, HilbertError> {
        let seeds: Vec<usize> = (0..self.cols()).collect();
        self.complete(
            &Search {
                seeds: &seeds,
                bound: None,
                first_layer: false,
            },
            config,
        )
    }

    /// The minimal solutions of lowest `ℓ₁` norm among those that lie in
    /// the box `x ≤ bound` and are positive on some coordinate of `seeds`:
    /// exactly the Hilbert-basis elements of that norm inside the box that
    /// meet the seeds, sorted lexicographically. Empty iff no Hilbert-basis
    /// element inside the box meets the seeds.
    ///
    /// This is the completion of [`LinearSystem::hilbert_basis`] with three
    /// changes: it starts only from the unit vectors `e_s` of the seeds, it
    /// never extends a vector out of the box, and it stops at the first
    /// level that holds a solution. Every vector it visits is positive on a
    /// seed, and it never meets a solution before that level, so it needs
    /// no domination test.
    ///
    /// The result is complete: a Hilbert-basis element `b ≤ bound` positive
    /// on a seed `s` is reached from `e_s` through vectors `t ≤ b`. For
    /// `t ≤ b`, `t ≠ b`, `A·t ≠ 0` holds by minimality, and
    /// `⟨A·t, A·(b − t)⟩ = −‖A·t‖² < 0`, so some `j` with `t_j < b_j`
    /// passes the criterion `⟨A·t, a_j⟩ < 0` (Contejean and Devie, *Inf.
    /// Comput.* 1994). That path stays inside the box, so `b` appears on the
    /// level of its norm unless the search stopped earlier.
    ///
    /// The result is minimal: let `x` be a solution on the stopping level
    /// and `x = y + z` with `y` and `z` non-zero solutions. Then `x` is a
    /// sum of at least two Hilbert-basis elements, and `x` is positive on
    /// some seed `s`, so one of them is positive on `s`, lies `≤ x ≤ bound`
    /// and has a smaller norm than `x`. By completeness the search would
    /// have stopped on an earlier level. So every solution returned is a
    /// Hilbert-basis element, and [`crate::pottier_bound`] caps its norm.
    ///
    /// # Errors
    ///
    /// Returns [`HilbertError`] if the configured node or norm budget is
    /// exceeded.
    ///
    /// # Panics
    ///
    /// Panics if `bound` does not have one entry per unknown, or a seed is
    /// not a column of the system.
    ///
    /// # Examples
    ///
    /// ```
    /// use pp_diophantine::LinearSystem;
    ///
    /// // x + y = 2z: the basis is (0,2,1), (1,1,1), (2,0,1).
    /// let system = LinearSystem::from_rows(vec![vec![1, 1, -2]]).unwrap();
    /// let config = Default::default();
    /// let through_x = system.lowest_minimal_solutions(&[0], &[2, 2, 2], &config).unwrap();
    /// assert_eq!(through_x, vec![vec![1, 1, 1], vec![2, 0, 1]]);
    /// let without_y = system.lowest_minimal_solutions(&[0], &[2, 0, 2], &config).unwrap();
    /// assert_eq!(without_y, vec![vec![2, 0, 1]]);
    /// let x_below_2 = system.lowest_minimal_solutions(&[0], &[1, 0, 2], &config).unwrap();
    /// assert!(x_below_2.is_empty());
    /// ```
    pub fn lowest_minimal_solutions(
        &self,
        seeds: &[usize],
        bound: &[u64],
        config: &HilbertConfig,
    ) -> Result<Vec<Vec<u64>>, HilbertError> {
        assert_eq!(bound.len(), self.cols(), "one bound per unknown");
        assert!(
            seeds.iter().all(|&s| s < self.cols()),
            "seeds are columns of the system"
        );
        let mut seeds = seeds.to_vec();
        seeds.sort_unstable();
        seeds.dedup();
        self.complete(
            &Search {
                seeds: &seeds,
                bound: Some(bound),
                first_layer: true,
            },
            config,
        )
    }

    /// The Contejean–Devie completion documented on
    /// [`LinearSystem::hilbert_basis`], started from the unit vectors of
    /// `search.seeds`, kept inside `search.bound` and, if
    /// `search.first_layer`, stopped after the first level holding a
    /// solution. Returns the solutions recorded, sorted and deduplicated.
    fn complete(
        &self,
        search: &Search<'_>,
        config: &HilbertConfig,
    ) -> Result<Vec<Vec<u64>>, HilbertError> {
        let n = self.cols();
        let columns: Vec<Vec<i128>> = (0..n)
            .map(|j| self.column(j).into_iter().map(i128::from).collect())
            .collect();
        // The Gram matrix G = AᵀA, row-major: G[j][k] = ⟨a_j, a_k⟩.
        let gram: Vec<i128> = columns
            .iter()
            .flat_map(|a_j| {
                columns
                    .iter()
                    .map(move |a_k| a_j.iter().zip(a_k).map(|(&x, &y)| x * y).sum())
            })
            .collect();
        let within_bound = |t: &[u64], j: usize| search.bound.is_none_or(|u| t[j] < u[j]);
        let weights: Vec<u64> = (0..n).map(hash_weight).collect();
        let mut basis = BasisIndex::new(n);
        // Level 1: the seeds' unit vectors, whose Gram images are rows of G.
        let mut level = Level::new(n);
        for &j in search.seeds {
            if search.bound.is_none_or(|u| u[j] > 0) {
                let start = level.vectors.len();
                level.vectors.resize(start + n, 0);
                level.vectors[start + j] = 1;
                level.grams.extend_from_slice(&gram[j * n..(j + 1) * n]);
                level.hashes.push(weights[j]);
            }
        }
        let mut children = Level::new(n);
        let mut seen = ChildSet::default();
        let mut mask = vec![0u64; n.div_ceil(64)];
        let mut child_mask = mask.clone();
        let mut expanded = 0usize;

        while !level.is_empty() {
            // Record the level's solutions before any child is tested.
            for (t, g, _) in level.nodes() {
                expanded += 1;
                if expanded > config.max_nodes {
                    return Err(HilbertError::NodeBudgetExceeded {
                        budget: config.max_nodes,
                    });
                }
                if let Some(max_norm) = config.max_norm {
                    if t.iter().sum::<u64>() > max_norm {
                        return Err(HilbertError::NormBudgetExceeded { budget: max_norm });
                    }
                }
                if g.iter().all(|&v| v == 0) {
                    basis.insert(t);
                }
            }
            if search.first_layer && !basis.is_empty() {
                break;
            }
            children.clear();
            seen.clear();
            for (t, g, h) in level.nodes() {
                if g.iter().all(|&v| v == 0) {
                    continue;
                }
                support_mask(t, &mut mask);
                for (j, (&g_j, gram_j)) in g.iter().zip(gram.chunks(n)).enumerate() {
                    // Contejean–Devie criterion: only move towards the kernel.
                    if g_j >= 0 || !within_bound(t, j) {
                        continue;
                    }
                    let hash = h.wrapping_add(weights[j]);
                    let Some(slot) = seen.vacant_slot(&children, t, j, hash) else {
                        continue; // reached from an earlier parent
                    };
                    let id = children.len();
                    children.vectors.extend_from_slice(t);
                    children.vectors[id * n + j] += 1;
                    child_mask.copy_from_slice(&mask);
                    child_mask[j / 64] |= 1 << (j % 64);
                    if basis.dominates_child(children.vector(id), &child_mask, j) {
                        children.vectors.truncate(id * n);
                        continue;
                    }
                    seen.slots[slot] = id;
                    children.hashes.push(hash);
                    children
                        .grams
                        .extend(g.iter().zip(gram_j).map(|(&x, &y)| x + y));
                }
            }
            std::mem::swap(&mut level, &mut children);
        }

        Ok(basis.into_basis())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    impl LinearSystem {
        /// The completion loop as it stood before the child-side check and
        /// the `(j, value)` index: every node is compared against the whole
        /// basis at level entry, before extension and as a child. Kept as
        /// the oracle that [`LinearSystem::hilbert_basis`] must match.
        fn reference_hilbert_basis(
            &self,
            config: &HilbertConfig,
        ) -> Result<Vec<Vec<u64>>, HilbertError> {
            let n = self.cols();
            let mut basis: Vec<Vec<u64>> = Vec::new();
            let mut level: Vec<Vec<u64>> = (0..n)
                .map(|j| {
                    let mut e = vec![0u64; n];
                    e[j] = 1;
                    e
                })
                .collect();
            let mut expanded = 0usize;

            while !level.is_empty() {
                // Split the level into solutions (candidate minimal solutions) and
                // non-solutions to extend.
                let mut next_level: BTreeSet<Vec<u64>> = BTreeSet::new();
                let mut to_extend: Vec<(Vec<u64>, Vec<i128>)> = Vec::new();
                for t in level {
                    expanded += 1;
                    if expanded > config.max_nodes {
                        return Err(HilbertError::NodeBudgetExceeded {
                            budget: config.max_nodes,
                        });
                    }
                    if let Some(max_norm) = config.max_norm {
                        if t.iter().sum::<u64>() > max_norm {
                            return Err(HilbertError::NormBudgetExceeded { budget: max_norm });
                        }
                    }
                    if basis.iter().any(|b| dominates(&t, b)) {
                        continue;
                    }
                    let defect = self.eval(&t);
                    if defect.iter().all(|&v| v == 0) {
                        // Breadth-first order: nothing smaller can appear later,
                        // so t is minimal among solutions.
                        basis.push(t);
                    } else {
                        to_extend.push((t, defect));
                    }
                }
                for (t, defect) in to_extend {
                    if basis.iter().any(|b| dominates(&t, b)) {
                        continue;
                    }
                    for j in 0..n {
                        // Contejean–Devie criterion: only move towards the kernel.
                        let dot: i128 = defect
                            .iter()
                            .zip(self.column(j))
                            .map(|(&d, a)| d * i128::from(a))
                            .sum();
                        if dot >= 0 {
                            continue;
                        }
                        let mut next = t.clone();
                        next[j] += 1;
                        if basis.iter().any(|b| dominates(&next, b)) {
                            continue;
                        }
                        next_level.insert(next);
                    }
                }
                level = next_level.into_iter().collect();
            }

            basis.sort();
            basis.dedup();
            Ok(basis)
        }
    }

    fn basis_of(rows: Vec<Vec<i64>>) -> Vec<Vec<u64>> {
        LinearSystem::from_rows(rows)
            .unwrap()
            .hilbert_basis(&HilbertConfig::default())
            .unwrap()
    }

    #[test]
    fn equality_constraint() {
        assert_eq!(basis_of(vec![vec![1, -1]]), vec![vec![1, 1]]);
    }

    #[test]
    fn scaled_equality() {
        assert_eq!(basis_of(vec![vec![2, -3]]), vec![vec![3, 2]]);
        assert_eq!(basis_of(vec![vec![-2, 3]]), vec![vec![3, 2]]);
    }

    #[test]
    fn sum_equals_double() {
        let basis = basis_of(vec![vec![1, 1, -2]]);
        assert_eq!(basis, vec![vec![0, 2, 1], vec![1, 1, 1], vec![2, 0, 1]]);
    }

    #[test]
    fn no_nontrivial_solution() {
        // x + y = 0 over naturals has only the zero solution.
        assert!(basis_of(vec![vec![1, 1]]).is_empty());
        // A single strictly positive row likewise.
        assert!(basis_of(vec![vec![3]]).is_empty());
    }

    #[test]
    fn unconstrained_column_is_minimal_unit() {
        // The second unknown does not appear in any equation, so e₂ is minimal.
        let basis = basis_of(vec![vec![1, 0, -1]]);
        assert!(basis.contains(&vec![0, 1, 0]));
        assert!(basis.contains(&vec![1, 0, 1]));
        assert_eq!(basis.len(), 2);
    }

    #[test]
    fn two_equations() {
        // x = y and y = z: minimal solution (1,1,1).
        let basis = basis_of(vec![vec![1, -1, 0], vec![0, 1, -1]]);
        assert_eq!(basis, vec![vec![1, 1, 1]]);
    }

    #[test]
    fn frobenius_style_system() {
        // 3x = y + z over naturals; every minimal solution has x ∈ {0, 1}
        // except the pure axis combinations.
        let system = LinearSystem::from_rows(vec![vec![3, -1, -1]]).unwrap();
        let basis = system.hilbert_basis(&HilbertConfig::default()).unwrap();
        assert!(basis.contains(&vec![1, 3, 0]));
        assert!(basis.contains(&vec![1, 0, 3]));
        assert!(basis.contains(&vec![1, 1, 2]));
        assert!(basis.contains(&vec![1, 2, 1]));
        assert_eq!(basis.len(), 4);
    }

    #[test]
    fn every_basis_element_is_a_solution_and_minimal() {
        let system = LinearSystem::from_rows(vec![vec![1, 2, -3], vec![2, -1, -1]]).unwrap();
        let basis = system.hilbert_basis(&HilbertConfig::default()).unwrap();
        assert!(!basis.is_empty());
        for (i, b) in basis.iter().enumerate() {
            assert!(system.is_solution(b), "{b:?} is not a solution");
            assert!(b.iter().any(|&v| v > 0), "zero vector in basis");
            for (j, other) in basis.iter().enumerate() {
                if i != j {
                    assert!(!dominates(b, other), "{b:?} dominates {other:?}");
                }
            }
        }
    }

    #[test]
    fn four_variable_system_stays_within_pottier_bound() {
        use crate::system::pottier_bound;
        use pp_bigint::Nat;
        let system = LinearSystem::from_rows(vec![vec![3, -1, -1, 0], vec![0, 1, -2, 1]]).unwrap();
        let bound = pottier_bound(&system);
        let basis = system.hilbert_basis(&HilbertConfig::default()).unwrap();
        assert!(!basis.is_empty());
        for b in &basis {
            assert!(system.is_solution(b));
            assert!(Nat::from(b.iter().sum::<u64>()) <= bound);
        }
    }

    #[test]
    fn node_budget_is_enforced() {
        let system = LinearSystem::from_rows(vec![vec![5, 7, -3, -11]]).unwrap();
        let err = system
            .hilbert_basis(&HilbertConfig::with_max_nodes(3))
            .unwrap_err();
        assert_eq!(err, HilbertError::NodeBudgetExceeded { budget: 3 });
    }

    #[test]
    fn norm_budget_is_enforced() {
        let system = LinearSystem::from_rows(vec![vec![97, -89]]).unwrap();
        let config = HilbertConfig {
            max_norm: Some(10),
            ..Default::default()
        };
        let err = system.hilbert_basis(&config).unwrap_err();
        assert_eq!(err, HilbertError::NormBudgetExceeded { budget: 10 });
    }

    #[test]
    fn pottier_bound_holds_on_examples() {
        use crate::system::pottier_bound;
        use pp_bigint::Nat;
        for rows in [
            vec![vec![1, 1, -2]],
            vec![vec![2, -3]],
            vec![vec![1, 2, -3], vec![2, -1, -1]],
        ] {
            let system = LinearSystem::from_rows(rows).unwrap();
            let bound = pottier_bound(&system);
            let basis = system.hilbert_basis(&HilbertConfig::default()).unwrap();
            for b in &basis {
                let norm: u64 = b.iter().sum();
                assert!(
                    Nat::from(norm) <= bound,
                    "basis element {b:?} violates the Pottier bound {bound}"
                );
            }
        }
    }

    fn arb_system() -> impl Strategy<Value = LinearSystem> {
        (1usize..=2, 2usize..=5).prop_flat_map(|(rows, cols)| {
            proptest::collection::vec(proptest::collection::vec(-3i64..=3, cols), rows)
                .prop_map(|m| LinearSystem::from_rows(m).unwrap())
        })
    }

    /// Systems shaped like the Lemma 7.3 system of `shrink_multicycle`: one
    /// row per place, a `±1` slack column per row (the sign of the place's
    /// displacement), then one column per simple cycle holding its negated
    /// displacement.
    fn arb_lemma_7_3_system() -> impl Strategy<Value = LinearSystem> {
        const PLACES: usize = 3;
        (1usize..=5).prop_flat_map(|cycles| {
            (
                proptest::collection::vec(any::<bool>(), PLACES),
                proptest::collection::vec(proptest::collection::vec(-2i64..=2, cycles), PLACES),
            )
                .prop_map(|(signs, cycle_block)| {
                    let rows = signs
                        .iter()
                        .zip(cycle_block)
                        .enumerate()
                        .map(|(place, (&positive, cycle_row))| {
                            let mut row = vec![0i64; PLACES];
                            row[place] = if positive { 1 } else { -1 };
                            row.extend(cycle_row);
                            row
                        })
                        .collect();
                    LinearSystem::from_rows(rows).unwrap()
                })
        })
    }

    /// A system of 1–3 rows and 2–6 columns with coefficients in −4..=4,
    /// a seed set (a flag per column) and a box (a bound per column).
    fn arb_targeted_search() -> impl Strategy<Value = (LinearSystem, Vec<usize>, Vec<u64>)> {
        (1usize..=3, 2usize..=6).prop_flat_map(|(rows, cols)| {
            (
                proptest::collection::vec(proptest::collection::vec(-4i64..=4, cols), rows),
                proptest::collection::vec(any::<bool>(), cols),
                proptest::collection::vec(0u64..=6, cols),
            )
                .prop_map(|(m, flags, bound)| {
                    let seeds = (0..flags.len()).filter(|&j| flags[j]).collect();
                    (LinearSystem::from_rows(m).unwrap(), seeds, bound)
                })
        })
    }

    /// The oracle of [`LinearSystem::lowest_minimal_solutions`]: the basis
    /// elements inside the box that meet the seeds, of the least norm
    /// among them.
    fn lowest_in_box(basis: &[Vec<u64>], seeds: &[usize], bound: &[u64]) -> Vec<Vec<u64>> {
        let candidates: Vec<&Vec<u64>> = basis
            .iter()
            .filter(|b| b.iter().zip(bound).all(|(x, u)| x <= u))
            .filter(|b| seeds.iter().any(|&s| b[s] > 0))
            .collect();
        let norm = |b: &Vec<u64>| b.iter().sum::<u64>();
        let Some(least) = candidates.iter().map(|b| norm(b)).min() else {
            return Vec::new();
        };
        candidates
            .into_iter()
            .filter(|b| norm(b) == least)
            .cloned()
            .collect()
    }

    #[test]
    fn lowest_minimal_solutions_on_a_two_row_system() {
        // x + 2y = 3z and 2x = y + z: the only minimal solution is (1, 1, 1).
        let system = LinearSystem::from_rows(vec![vec![1, 2, -3], vec![2, -1, -1]]).unwrap();
        let config = HilbertConfig::default();
        let found = |seeds: &[usize], bound: &[u64]| {
            system
                .lowest_minimal_solutions(seeds, bound, &config)
                .unwrap()
        };
        assert_eq!(found(&[2], &[1, 1, 1]), vec![vec![1, 1, 1]]);
        assert_eq!(found(&[0, 0, 1], &[5, 5, 5]), vec![vec![1, 1, 1]]);
        assert!(found(&[0], &[1, 1, 0]).is_empty());
        assert!(found(&[], &[5, 5, 5]).is_empty());
    }

    #[test]
    fn lowest_minimal_solutions_enforce_the_budgets() {
        let system = LinearSystem::from_rows(vec![vec![97, -89]]).unwrap();
        let bound = [100, 100];
        assert_eq!(
            system.lowest_minimal_solutions(&[0], &bound, &HilbertConfig::with_max_nodes(50)),
            Err(HilbertError::NodeBudgetExceeded { budget: 50 })
        );
        let config = HilbertConfig {
            max_norm: Some(10),
            ..Default::default()
        };
        assert_eq!(
            system.lowest_minimal_solutions(&[0], &bound, &config),
            Err(HilbertError::NormBudgetExceeded { budget: 10 })
        );
        assert_eq!(
            system.lowest_minimal_solutions(&[1], &bound, &HilbertConfig::default()),
            Ok(vec![vec![89, 97]])
        );
    }

    #[test]
    fn matches_reference_across_mask_words() {
        // 70 columns: the support masks span two words, and the 65
        // unconstrained columns are unit solutions on both sides of the
        // word boundary.
        let mut rows = vec![vec![0i64; 70], vec![0i64; 70]];
        for (j, a, b) in [
            (0, 2, 1),
            (1, -3, 0),
            (63, 0, -1),
            (64, 1, 1),
            (65, -1, 0),
            (69, -2, -1),
        ] {
            rows[0][j] = a;
            rows[1][j] = b;
        }
        let system = LinearSystem::from_rows(rows).unwrap();
        let config = HilbertConfig::with_max_nodes(10_000);
        let basis = system.hilbert_basis(&config).unwrap();
        assert_eq!(Ok(basis.clone()), system.reference_hilbert_basis(&config));
        assert!(basis.len() > 65);
        assert!(basis.iter().all(|b| system.is_solution(b)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn matches_reference_oracle(system in arb_system(), max_nodes in 1usize..=2_000) {
            let config = HilbertConfig::with_max_nodes(max_nodes);
            prop_assert_eq!(
                system.hilbert_basis(&config),
                system.reference_hilbert_basis(&config)
            );
        }

        #[test]
        fn matches_reference_oracle_under_tight_budgets(
            system in arb_system(),
            max_nodes in 1usize..=64,
            max_norm in 1u64..=8,
        ) {
            let config = HilbertConfig {
                max_nodes,
                max_norm: Some(max_norm),
            };
            prop_assert_eq!(
                system.hilbert_basis(&config),
                system.reference_hilbert_basis(&config)
            );
        }

        #[test]
        fn matches_reference_oracle_on_lemma_7_3_systems(
            system in arb_lemma_7_3_system(),
            max_nodes in 1usize..=300,
            norm_capped in any::<bool>(),
            max_norm in 1u64..=12,
        ) {
            let config = HilbertConfig {
                max_nodes,
                max_norm: norm_capped.then_some(max_norm),
            };
            prop_assert_eq!(
                system.hilbert_basis(&config),
                system.reference_hilbert_basis(&config)
            );
        }

        #[test]
        fn basis_elements_are_minimal_solutions(system in arb_system()) {
            let config = HilbertConfig::with_max_nodes(500_000);
            if let Ok(basis) = system.hilbert_basis(&config) {
                for b in &basis {
                    prop_assert!(system.is_solution(b));
                    prop_assert!(b.iter().any(|&v| v > 0));
                }
                for (i, a) in basis.iter().enumerate() {
                    for (j, b) in basis.iter().enumerate() {
                        if i != j {
                            prop_assert!(!dominates(a, b));
                        }
                    }
                }
            }
        }

        #[test]
        fn pottier_bound_holds(system in arb_system()) {
            use crate::system::pottier_bound;
            use pp_bigint::Nat;
            let config = HilbertConfig::with_max_nodes(500_000);
            if let Ok(basis) = system.hilbert_basis(&config) {
                let bound = pottier_bound(&system);
                for b in &basis {
                    prop_assert!(Nat::from(b.iter().sum::<u64>()) <= bound);
                }
            }
        }
    }

    proptest! {
        // About a third of the cases have a non-empty answer.
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn lowest_minimal_solutions_are_the_lowest_basis_elements_in_the_box(
            (system, seeds, bound) in arb_targeted_search(),
        ) {
            let config = HilbertConfig::with_max_nodes(200_000);
            let basis = system.hilbert_basis(&config);
            prop_assume!(basis.is_ok());
            prop_assert_eq!(
                system.lowest_minimal_solutions(&seeds, &bound, &config),
                Ok(lowest_in_box(&basis.unwrap(), &seeds, &bound))
            );
        }
    }
}
