//! Karp–Miller coverability trees.
//!
//! The Karp–Miller tree finitely represents the (downward closure of the)
//! coverability set of a Petri net using ω-markings: places that can be pumped
//! unboundedly are accelerated to ω. The suite uses it as an alternative
//! coverability/boundedness procedure next to the backward algorithm of
//! [`cover`](crate::cover) — experiment E5's ablation compares the two — and
//! to detect unbounded places of non-conservative protocols.
//!
//! The tree is built on the dense engine ([`CompiledNet`]) as one flat,
//! index-linked tree: the admitted markings are `u64` rows over the dense
//! place indices, stored row-major in one vector, and each node records
//! its parent's index. ω is the sentinel `u64::MAX`, the largest cell
//! value, so the ω-order is a plain lane-wise `<=` and acceleration writes
//! the sentinel. All counter arithmetic is *checked*: a count that would
//! leave `u64` — or reach the sentinel itself — marks the tree incomplete
//! ([`Completion::OmegaOverflow`]) and skips the offending branch.
//!
//! The frontier is lazy. A wave is the id range the previous wave
//! admitted, read as `(parent, transition)` pairs; a child is fired into
//! one reused scratch row only when its pair is popped, and the budget is
//! checked before it is accelerated, so no child is built that the budget
//! cannot admit. The sparse [`OmegaMarking`]s are decoded on demand
//! through the [`Markings`] view; the tree's own queries read the rows.

use crate::engine::{CompiledNet, CompiledTransition};
use crate::session::Completion;
use pp_multiset::Multiset;
use std::collections::BTreeMap;
use std::fmt;

/// A marking value: a finite count or ω (unbounded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OmegaValue {
    /// A finite number of agents.
    Finite(u64),
    /// Unboundedly many agents (the ω of Karp–Miller acceleration).
    Omega,
}

/// Error returned when checked ω-arithmetic leaves the `u64` range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OmegaOverflow;

impl fmt::Display for OmegaOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ω-marking arithmetic left the u64 range")
    }
}

impl std::error::Error for OmegaOverflow {}

impl OmegaValue {
    /// Decodes one cell of a tree row, where ω is the [`OMEGA`] sentinel.
    pub(crate) fn from_cell(cell: u64) -> Self {
        if cell == OMEGA {
            OmegaValue::Omega
        } else {
            OmegaValue::Finite(cell)
        }
    }

    fn at_least(self, needed: u64) -> bool {
        match self {
            OmegaValue::Finite(v) => v >= needed,
            OmegaValue::Omega => true,
        }
    }

    /// Adds `count` agents, reporting overflow instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`OmegaOverflow`] when the finite count would exceed
    /// `u64::MAX`.
    pub fn checked_add(self, count: u64) -> Result<OmegaValue, OmegaOverflow> {
        match self {
            OmegaValue::Finite(v) => v
                .checked_add(count)
                .map(OmegaValue::Finite)
                .ok_or(OmegaOverflow),
            OmegaValue::Omega => Ok(OmegaValue::Omega),
        }
    }

    /// Removes `count` agents, reporting a transient negative count
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`OmegaOverflow`] when fewer than `count` agents are
    /// present.
    pub fn checked_sub(self, count: u64) -> Result<OmegaValue, OmegaOverflow> {
        match self {
            OmegaValue::Finite(v) => v
                .checked_sub(count)
                .map(OmegaValue::Finite)
                .ok_or(OmegaOverflow),
            OmegaValue::Omega => Ok(OmegaValue::Omega),
        }
    }
}

/// An ω-marking: a configuration whose counts may be ω.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OmegaMarking<P: Ord> {
    values: BTreeMap<P, OmegaValue>,
}

impl<P: Clone + Ord> OmegaMarking<P> {
    /// The ω-marking corresponding to a plain configuration.
    #[must_use]
    pub fn from_config(config: &Multiset<P>) -> Self {
        OmegaMarking {
            values: config
                .iter()
                .map(|(p, c)| (p.clone(), OmegaValue::Finite(c)))
                .collect(),
        }
    }

    /// The value of `place` (zero if absent).
    #[must_use]
    pub fn get(&self, place: &P) -> OmegaValue {
        self.values
            .get(place)
            .copied()
            .unwrap_or(OmegaValue::Finite(0))
    }

    /// Returns `true` if no place carries ω.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.values.values().all(|v| *v != OmegaValue::Omega)
    }

    /// Returns `true` if this marking covers `config` (ω covers anything).
    #[must_use]
    pub fn covers(&self, config: &Multiset<P>) -> bool {
        config.iter().all(|(p, c)| self.get(p).at_least(c))
    }

    /// Component-wise order on ω-markings.
    #[must_use]
    pub fn le(&self, other: &OmegaMarking<P>) -> bool {
        let places: std::collections::BTreeSet<&P> =
            self.values.keys().chain(other.values.keys()).collect();
        places
            .into_iter()
            .all(|p| match (self.get(p), other.get(p)) {
                (OmegaValue::Omega, OmegaValue::Omega) => true,
                (OmegaValue::Omega, OmegaValue::Finite(_)) => false,
                (OmegaValue::Finite(_), OmegaValue::Omega) => true,
                (OmegaValue::Finite(a), OmegaValue::Finite(b)) => a <= b,
            })
    }
}

/// The ω of a dense tree row. No finite count takes this value: a count
/// that would reach it reports [`Completion::OmegaOverflow`] instead.
const OMEGA: u64 = u64::MAX;

/// Component-wise order on dense ω-rows of equal width. ω is the largest
/// cell value, so the order is the plain lane-wise `<=`.
fn row_le(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// Fires compiled transition `t` on `row` into `dst` (cleared and
/// refilled); `Ok(false)` if `t` is disabled. ω cells absorb every
/// change.
///
/// # Errors
///
/// Returns [`OmegaOverflow`] when a finite count would go negative, leave
/// the `u64` range or reach the [`OMEGA`] sentinel.
fn fire_into(
    row: &[u64],
    transition: &CompiledTransition,
    dst: &mut Vec<u64>,
) -> Result<bool, OmegaOverflow> {
    if !transition.is_enabled_row(row) {
        return Ok(false);
    }
    dst.clear();
    dst.extend_from_slice(row);
    for &(p, c) in transition.pre() {
        let cell = &mut dst[p as usize];
        if *cell != OMEGA {
            *cell = cell.checked_sub(c).ok_or(OmegaOverflow)?;
        }
    }
    for &(p, c) in transition.post() {
        let cell = &mut dst[p as usize];
        if *cell != OMEGA {
            *cell = cell
                .checked_add(c)
                .filter(|&sum| sum != OMEGA)
                .ok_or(OmegaOverflow)?;
        }
    }
    Ok(true)
}

/// Accelerates `row` against a strictly smaller ancestor: places where it
/// strictly exceeds the ancestor become ω.
fn accelerate(row: &mut [u64], ancestor: &[u64]) {
    for (mine, &theirs) in row.iter_mut().zip(ancestor) {
        if *mine > theirs {
            *mine = OMEGA;
        }
    }
}

/// Which limits bit during a tree construction.
#[derive(Debug, Clone, Copy, Default)]
struct KmTruncation {
    budget: bool,
    overflow: bool,
}

impl KmTruncation {
    /// The dominant [`Completion`]: node budget before ω-overflow.
    fn completion(self) -> Completion {
        if self.budget {
            Completion::ConfigBudget
        } else if self.overflow {
            Completion::OmegaOverflow
        } else {
            Completion::Complete
        }
    }
}

/// Refills `chain` with the node ids from the root down to `id`, following
/// the `parent` links (the root is its own parent).
fn chain_into(parent: &[u32], id: usize, chain: &mut Vec<usize>) {
    chain.clear();
    chain.push(id);
    let mut node = id;
    while node != 0 {
        node = parent[node] as usize;
        chain.push(node);
    }
    chain.reverse();
}

/// A Karp–Miller coverability tree, stored as its set of ω-markings.
#[derive(Debug, Clone)]
pub struct KarpMillerTree<P: Ord> {
    /// The engine's place order: cell `i` of every row counts `places[i]`.
    places: Vec<P>,
    /// The admitted ω-markings in admission order, row-major with stride
    /// `places.len()`, ω encoded as [`OMEGA`].
    rows: Vec<u64>,
    /// The number of markings (kept apart from `rows`, which stay empty
    /// on a net without places).
    len: usize,
    completion: Completion,
}

impl<P: Clone + Ord> KarpMillerTree<P> {
    /// Builds the tree from `initial`, exploring at most `max_nodes` nodes,
    /// on an already-compiled engine — the session entry point
    /// ([`Analysis`](crate::session::Analysis) owns the shared engine).
    /// The initial configuration must fit the engine's universe.
    ///
    /// The search runs on the dense engine, wave by wave, in breadth-first
    /// order. A wave is the id range its predecessor admitted, and its
    /// entries are the `(parent, transition)` pairs of that range in
    /// order. Popping a pair fires the transition, checks the budget, then
    /// ω-accelerates the child against *all* its ancestors (root first,
    /// the classical order) and drops it if some ancestor covers it;
    /// otherwise the child is admitted. The build stops at the first
    /// enabled pair the budget refuses, so no child is built that the
    /// budget cannot admit.
    ///
    /// The tree is reported as incomplete when the node budget is hit *or*
    /// when some branch's counters left the `u64` range (checked
    /// arithmetic); [`completion`](Self::completion) says which.
    pub(crate) fn build_on(
        engine: &CompiledNet<P>,
        initial: &Multiset<P>,
        max_nodes: usize,
    ) -> Self {
        Self::build_counting(engine, initial, max_nodes).0
    }

    /// [`build_on`](Self::build_on), also returning how many nodes the
    /// wave loop expanded: the admitted ones plus those subsumed ahead of
    /// the budget cut.
    fn build_counting(
        engine: &CompiledNet<P>,
        initial: &Multiset<P>,
        max_nodes: usize,
    ) -> (Self, usize) {
        let root = engine
            .to_dense(initial)
            .expect("initial support is part of the compiled universe");
        let mut tree = KarpMillerTree {
            places: engine.places().to_vec(),
            rows: Vec::new(),
            len: 0,
            completion: Completion::Complete,
        };
        let mut parent: Vec<u32> = Vec::new();
        let mut trunc = KmTruncation::default();
        let mut expanded = 0;
        if root.contains(&OMEGA) {
            trunc.overflow = true;
        } else if max_nodes == 0 {
            trunc.budget = true;
        } else {
            tree.admit(&root);
            parent.push(0);
            expanded = 1;
        }
        let transitions = engine.transitions();
        let mut chain = Vec::new();
        let mut child = Vec::with_capacity(root.len());
        let mut wave = 0..tree.len;
        'build: while !wave.is_empty() {
            let next = wave.end;
            for id in wave {
                chain_into(&parent, id, &mut chain);
                for transition in transitions {
                    match fire_into(tree.row(id), transition, &mut child) {
                        Ok(true) => {}
                        Ok(false) => continue,
                        Err(OmegaOverflow) => {
                            trunc.overflow = true;
                            continue;
                        }
                    }
                    if tree.len == max_nodes {
                        trunc.budget = true;
                        break 'build;
                    }
                    expanded += 1;
                    for &ancestor in &chain {
                        let ancestor = tree.row(ancestor);
                        if row_le(ancestor, &child) && ancestor != child.as_slice() {
                            accelerate(&mut child, ancestor);
                        }
                    }
                    if chain.iter().any(|&a| row_le(&child, tree.row(a))) {
                        continue; // subsumed: no marking, no children
                    }
                    tree.admit(&child);
                    parent.push(u32::try_from(id).expect("tree node ids fit u32"));
                }
            }
            wave = next..tree.len;
        }
        tree.completion = trunc.completion();
        (tree, expanded)
    }

    /// Appends one admitted marking.
    fn admit(&mut self, row: &[u64]) {
        self.rows.extend_from_slice(row);
        self.len += 1;
    }

    /// The ω-markings of the tree, in admission order.
    #[must_use]
    pub fn markings(&self) -> Markings<'_, P> {
        Markings { tree: self }
    }

    /// The dense row of marking `index` in the engine's place order.
    fn row(&self, index: usize) -> &[u64] {
        let width = self.places.len();
        &self.rows[index * width..(index + 1) * width]
    }

    /// The dense rows in admission order, cells in the engine's place
    /// order (decode a cell with [`OmegaValue::from_cell`]).
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[u64]> {
        (0..self.len).map(|index| self.row(index))
    }

    /// The cell index of `place` in every row, if the tree's engine knows
    /// it (every other place is zero in every marking).
    pub(crate) fn place_index(&self, place: &P) -> Option<usize> {
        self.places.binary_search(place).ok()
    }

    /// Returns `true` if the tree was fully built within the node budget
    /// and without counter overflow.
    ///
    /// Shim over [`completion`](Self::completion), which additionally says
    /// *which* limit truncated the tree.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.completion.is_complete()
    }

    /// How the construction ended: [`Completion::Complete`], the node
    /// budget ([`Completion::ConfigBudget`]) or a counter overflow
    /// ([`Completion::OmegaOverflow`]).
    #[must_use]
    pub fn completion(&self) -> Completion {
        self.completion
    }

    /// Returns `true` if some marking of the tree covers `config`.
    ///
    /// When the tree is complete this decides coverability from the initial
    /// configuration.
    #[must_use]
    pub fn covers(&self, config: &Multiset<P>) -> bool {
        let Some(needs) = config
            .iter()
            .map(|(p, c)| self.place_index(p).map(|index| (index, c)))
            .collect::<Option<Vec<_>>>()
        else {
            // A place outside the engine is zero everywhere.
            return false;
        };
        self.rows()
            .any(|row| needs.iter().all(|&(index, c)| row[index] >= c))
    }

    /// Returns `true` if the net is bounded from the initial configuration
    /// (no ω appears). Meaningful only when the tree is complete.
    #[must_use]
    pub fn is_bounded(&self) -> bool {
        !self.rows.contains(&OMEGA)
    }

    /// Returns `true` if the given place stays bounded (never accelerates to ω).
    #[must_use]
    pub fn place_is_bounded(&self, place: &P) -> bool {
        self.place_index(place)
            .is_none_or(|index| self.rows().all(|row| row[index] != OMEGA))
    }
}

/// The ω-markings of a [`KarpMillerTree`], in admission order, decoded
/// from the tree's dense rows on access.
pub struct Markings<'a, P: Ord> {
    tree: &'a KarpMillerTree<P>,
}

impl<P: Ord> Clone for Markings<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: Ord> Copy for Markings<'_, P> {}

impl<'a, P: Clone + Ord> Markings<'a, P> {
    /// The number of markings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tree.len
    }

    /// Returns `true` if the tree admitted no marking.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tree.len == 0
    }

    /// Marking `index` as a sparse ω-marking.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[must_use]
    pub fn get(&self, index: usize) -> OmegaMarking<P> {
        assert!(index < self.len(), "marking index out of bounds");
        let values = self
            .tree
            .places
            .iter()
            .zip(self.tree.row(index))
            .filter(|&(_, &cell)| cell != 0)
            .map(|(place, &cell)| (place.clone(), OmegaValue::from_cell(cell)))
            .collect();
        OmegaMarking { values }
    }

    /// Iterates the markings in admission order.
    pub fn iter(&self) -> impl Iterator<Item = OmegaMarking<P>> + 'a {
        let markings = *self;
        (0..self.len()).map(move |index| markings.get(index))
    }
}

impl<P: Clone + Ord> PartialEq for Markings<'_, P> {
    fn eq(&self, other: &Self) -> bool {
        if self.tree.places == other.tree.places {
            return self.tree.len == other.tree.len && self.tree.rows == other.tree.rows;
        }
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<P: Clone + Ord + fmt::Debug> fmt::Debug for Markings<'_, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::is_coverable;
    use crate::session::Analysis;
    use crate::{PetriNet, Transition};

    fn ms(pairs: &[(&'static str, u64)]) -> Multiset<&'static str> {
        Multiset::from_pairs(pairs.iter().copied())
    }

    /// One-shot build through the session API.
    fn build(
        net: &PetriNet<&'static str>,
        initial: &Multiset<&'static str>,
        max_nodes: usize,
    ) -> std::sync::Arc<KarpMillerTree<&'static str>> {
        Analysis::new(net)
            .karp_miller(initial.clone())
            .max_nodes(max_nodes)
            .run()
    }

    /// The former builder, kept as the reference the flat one must
    /// reproduce: every admitted node is an `Rc` link of its branch, and
    /// every child is fired and ω-accelerated as soon as its parent is
    /// admitted. The one deliberate difference is shared: a finite count
    /// that reaches `u64::MAX` is an overflow.
    mod oracle {
        use super::super::{KmTruncation, OmegaMarking, OmegaOverflow, OmegaValue};
        use crate::engine::{CompiledNet, CompiledTransition};
        use crate::session::Completion;
        use pp_multiset::Multiset;
        use std::rc::Rc;

        type OmegaRow = Vec<OmegaValue>;

        fn row_le(a: &[OmegaValue], b: &[OmegaValue]) -> bool {
            a.iter().zip(b).all(|(x, y)| match (x, y) {
                (OmegaValue::Omega, OmegaValue::Omega) => true,
                (OmegaValue::Omega, OmegaValue::Finite(_)) => false,
                (OmegaValue::Finite(_), OmegaValue::Omega) => true,
                (OmegaValue::Finite(a), OmegaValue::Finite(b)) => a <= b,
            })
        }

        fn fire_row(
            row: &[OmegaValue],
            transition: &CompiledTransition,
        ) -> Result<Option<OmegaRow>, OmegaOverflow> {
            if !transition
                .pre()
                .iter()
                .all(|&(p, c)| row[p as usize].at_least(c))
            {
                return Ok(None);
            }
            let mut next = row.to_vec();
            for &(p, c) in transition.pre() {
                next[p as usize] = next[p as usize].checked_sub(c)?;
            }
            for &(p, c) in transition.post() {
                next[p as usize] = next[p as usize].checked_add(c)?;
            }
            if next.contains(&OmegaValue::Finite(u64::MAX)) {
                return Err(OmegaOverflow);
            }
            Ok(Some(next))
        }

        fn accelerate(row: &mut [OmegaValue], ancestor: &[OmegaValue]) {
            for (mine, theirs) in row.iter_mut().zip(ancestor) {
                if let (OmegaValue::Finite(m), OmegaValue::Finite(t)) = (*mine, *theirs) {
                    if m > t {
                        *mine = OmegaValue::Omega;
                    }
                }
            }
        }

        struct BranchNode {
            row: OmegaRow,
            parent: BranchLink,
        }

        type BranchLink = Option<Rc<BranchNode>>;

        fn ancestor_rows(link: &BranchLink) -> impl Iterator<Item = &OmegaRow> {
            std::iter::successors(link.as_deref(), |node| node.parent.as_deref())
                .map(|node| &node.row)
        }

        struct Expansion {
            subsumed: bool,
            children: Vec<OmegaRow>,
            overflowed: bool,
        }

        fn expand_node(
            transitions: &[CompiledTransition],
            row: &OmegaRow,
            parent: &BranchLink,
        ) -> Expansion {
            if ancestor_rows(parent).any(|a| row_le(row, a)) {
                return Expansion {
                    subsumed: true,
                    children: Vec::new(),
                    overflowed: false,
                };
            }
            let chain: Vec<&OmegaRow> = ancestor_rows(parent).collect();
            let mut children = Vec::new();
            let mut overflowed = false;
            for transition in transitions {
                match fire_row(row, transition) {
                    Ok(Some(mut next)) => {
                        for ancestor in chain.iter().rev().copied().chain(std::iter::once(row)) {
                            if row_le(ancestor, &next) && ancestor != &next {
                                accelerate(&mut next, ancestor);
                            }
                        }
                        children.push(next);
                    }
                    Ok(None) => {}
                    Err(OmegaOverflow) => overflowed = true,
                }
            }
            Expansion {
                subsumed: false,
                children,
                overflowed,
            }
        }

        /// The markings in admission order, the completion and the number
        /// of expanded nodes.
        pub(super) fn build<P: Clone + Ord>(
            engine: &CompiledNet<P>,
            initial: &Multiset<P>,
            max_nodes: usize,
        ) -> (Vec<OmegaMarking<P>>, Completion, usize) {
            let root: OmegaRow = engine
                .to_dense(initial)
                .expect("initial fits")
                .into_iter()
                .map(OmegaValue::Finite)
                .collect();
            let mut rows: Vec<OmegaRow> = Vec::new();
            let mut trunc = KmTruncation::default();
            let mut expanded = 0;
            let mut wave: Vec<(OmegaRow, BranchLink)> = vec![(root, None)];
            'build: while !wave.is_empty() {
                let mut next = Vec::new();
                for (row, parent) in wave {
                    if rows.len() == max_nodes {
                        trunc.budget = true;
                        break 'build;
                    }
                    let expansion = expand_node(engine.transitions(), &row, &parent);
                    expanded += 1;
                    if expansion.subsumed {
                        continue;
                    }
                    trunc.overflow |= expansion.overflowed;
                    rows.push(row.clone());
                    let node = Rc::new(BranchNode { row, parent });
                    next.extend(
                        expansion
                            .children
                            .into_iter()
                            .map(|child| (child, Some(node.clone()))),
                    );
                }
                wave = next;
            }
            let markings = rows
                .into_iter()
                .map(|row| OmegaMarking {
                    values: engine
                        .places()
                        .iter()
                        .cloned()
                        .zip(row)
                        .filter(|&(_, value)| value != OmegaValue::Finite(0))
                        .collect(),
                })
                .collect();
            (markings, trunc.completion(), expanded)
        }
    }

    #[test]
    fn conservative_net_is_bounded() {
        let net = PetriNet::from_transitions([
            Transition::pairwise("a", "a", "a", "b"),
            Transition::pairwise("a", "b", "b", "b"),
        ]);
        let tree = build(&net, &ms(&[("a", 3)]), 10_000);
        assert!(tree.is_complete());
        assert!(tree.is_bounded());
        assert!(tree.covers(&ms(&[("b", 3)])));
        assert!(!tree.covers(&ms(&[("b", 4)])));
    }

    #[test]
    fn creation_net_accelerates_to_omega() {
        let net = PetriNet::from_transitions([Transition::new(
            ms(&[("a", 1)]),
            ms(&[("a", 1), ("b", 1)]),
        )]);
        let tree = build(&net, &ms(&[("a", 1)]), 10_000);
        assert!(tree.is_complete());
        assert!(!tree.is_bounded());
        assert!(tree.place_is_bounded(&"a"));
        assert!(!tree.place_is_bounded(&"b"));
        // Any number of b's is coverable.
        assert!(tree.covers(&ms(&[("b", 1_000_000), ("a", 1)])));
        assert!(!tree.covers(&ms(&[("a", 2)])));
    }

    #[test]
    fn karp_miller_agrees_with_backward_coverability() {
        let net = PetriNet::from_transitions([
            Transition::pairwise("i", "i_bar", "p", "q"),
            Transition::pairwise("p_bar", "i", "p", "i"),
            Transition::pairwise("p", "i_bar", "p_bar", "i_bar"),
            Transition::pairwise("q_bar", "i", "q", "i"),
            Transition::pairwise("q", "i_bar", "q_bar", "i_bar"),
            Transition::pairwise("p", "q_bar", "p", "q"),
            Transition::pairwise("q", "p_bar", "q", "p"),
        ]);
        let start = ms(&[("i", 2), ("i_bar", 2)]);
        let tree = build(&net, &start, 100_000);
        assert!(tree.is_complete());
        for target in [
            ms(&[("p", 1)]),
            ms(&[("p", 1), ("q", 1)]),
            ms(&[("p_bar", 1), ("q_bar", 1)]),
            ms(&[("p", 3)]),
            ms(&[("i", 3)]),
        ] {
            assert_eq!(
                tree.covers(&target),
                is_coverable(&net, &start, &target),
                "karp-miller and backward coverability disagree on {target:?}"
            );
        }
    }

    #[test]
    fn acceleration_uses_all_ancestors_not_just_the_parent() {
        // a --t0--> b --t1--> a + c: after t0·t1 the marking {a, c} strictly
        // dominates its *grandparent* {a} but not its parent {b}. An
        // implementation accelerating only against the parent would never
        // introduce ω on c and would keep unrolling a+c, a+2c, a+3c, …
        // (under-approximating until the node budget kills it); comparing
        // against the full ancestor chain pumps c to ω immediately.
        let net = PetriNet::from_transitions([
            Transition::new(ms(&[("a", 1)]), ms(&[("b", 1)])),
            Transition::new(ms(&[("b", 1)]), ms(&[("a", 1), ("c", 1)])),
        ]);
        let start = ms(&[("a", 1)]);
        let tree = build(&net, &start, 100);
        assert!(
            tree.is_complete(),
            "without full-ancestor acceleration the tree keeps growing"
        );
        assert!(!tree.place_is_bounded(&"c"));
        assert!(tree.place_is_bounded(&"a"));
        assert!(tree.place_is_bounded(&"b"));
        // The reported coverability set is exact: arbitrarily many c's are
        // coverable (together with the single token cycling a -> b -> a),
        // and the backward algorithm agrees on every probe.
        for target in [
            ms(&[("c", 1_000)]),
            ms(&[("a", 1), ("c", 7)]),
            ms(&[("b", 1), ("c", 3)]),
            ms(&[("a", 1), ("b", 1)]),
            ms(&[("a", 2)]),
        ] {
            assert_eq!(
                tree.covers(&target),
                is_coverable(&net, &start, &target),
                "coverability set is wrong at {target:?}"
            );
        }
    }

    /// The catalog's binary-threshold(n=6) protocol net (transitions in
    /// catalog order) and its initial configuration with `agents` inputs.
    fn binary_threshold_6(agents: u64) -> (PetriNet<&'static str>, Multiset<&'static str>) {
        let net = PetriNet::from_transitions([
            Transition::new(ms(&[("v0", 2)]), ms(&[("v1", 1)])),
            Transition::new(ms(&[("v1", 1)]), ms(&[("v0", 2)])),
            Transition::new(ms(&[("v1", 2)]), ms(&[("v2", 1)])),
            Transition::new(ms(&[("v2", 1)]), ms(&[("v1", 2)])),
            Transition::new(ms(&[("L0", 1), ("v2", 1)]), ms(&[("L1", 1)])),
            Transition::new(ms(&[("L1", 1), ("v1", 1)]), ms(&[("L2", 1)])),
            Transition::pairwise("L2", "v0", "L2", "L2"),
            Transition::pairwise("L2", "v1", "L2", "L2"),
            Transition::pairwise("L2", "v2", "L2", "L2"),
        ]);
        (net, ms(&[("v0", agents), ("L0", 1)]))
    }

    #[test]
    fn budget_cut_expands_only_admissible_nodes() {
        // binary-threshold(6)/18 at 20 000 nodes: the cut lands inside a
        // wave, and no pair after it may be expanded once the budget is
        // full.
        let (net, start) = binary_threshold_6(18);
        let engine = CompiledNet::compile(&net);
        let max_nodes = 20_000;
        let (tree, expanded) = KarpMillerTree::build_counting(&engine, &start, max_nodes);
        assert_eq!(tree.markings().len(), max_nodes);
        assert_eq!(tree.completion(), Completion::ConfigBudget);
        // Reference: the eager builder, which expands exactly the admitted
        // nodes plus the subsumed ones ahead of the cut.
        let (markings, completion, reference_expanded) = oracle::build(&engine, &start, max_nodes);
        assert!(tree.markings().iter().eq(markings));
        assert_eq!(tree.completion(), completion);
        assert_eq!(expanded, reference_expanded);
        assert_eq!(expanded, 23_790);
    }

    #[test]
    fn deep_chains_build_on_a_small_stack() {
        // x -> y from DEPTH·x is one non-branching, acceleration-free
        // chain of DEPTH + 1 nodes. Neither building nor dropping it may
        // recurse: run it on a 512 KiB stack so a regression shows up at
        // any default stack size.
        const DEPTH: u64 = 3_000;
        std::thread::Builder::new()
            .stack_size(512 * 1024)
            .spawn(|| {
                let net =
                    PetriNet::from_transitions([Transition::new(ms(&[("x", 1)]), ms(&[("y", 1)]))]);
                let tree = build(&net, &ms(&[("x", DEPTH)]), usize::MAX);
                assert!(tree.is_complete());
                assert_eq!(tree.markings().len() as u64, DEPTH + 1);
                assert!(tree.covers(&ms(&[("y", DEPTH)])));
                drop(tree);
            })
            .expect("spawn small-stack thread")
            .join()
            .expect("a deep chain must build and drop without overflowing the stack");
    }

    #[test]
    fn node_budget_reported() {
        let net = PetriNet::from_transitions([Transition::new(
            ms(&[("a", 1)]),
            ms(&[("a", 1), ("b", 1)]),
        )]);
        let tree = build(&net, &ms(&[("a", 1)]), 1);
        assert!(!tree.is_complete());
    }

    #[test]
    fn omega_marking_order_and_cover() {
        let finite = OmegaMarking::from_config(&ms(&[("a", 2)]));
        let mut omega = finite.clone();
        omega.values.insert("a", OmegaValue::Omega);
        assert!(finite.le(&omega));
        assert!(!omega.le(&finite));
        assert!(omega.covers(&ms(&[("a", 1_000)])));
        assert!(!finite.covers(&ms(&[("a", 3)])));
        assert!(!omega.is_finite() && finite.is_finite());
    }

    #[test]
    fn checked_arithmetic_reports_overflow() {
        assert_eq!(
            OmegaValue::Finite(u64::MAX).checked_add(1),
            Err(OmegaOverflow)
        );
        assert_eq!(OmegaValue::Finite(3).checked_sub(4), Err(OmegaOverflow));
        assert_eq!(
            OmegaValue::Finite(3).checked_add(4),
            Ok(OmegaValue::Finite(7))
        );
        assert_eq!(
            OmegaValue::Omega.checked_add(u64::MAX),
            Ok(OmegaValue::Omega)
        );
        assert_eq!(
            OmegaValue::Omega.checked_sub(u64::MAX),
            Ok(OmegaValue::Omega)
        );
        assert!(!OmegaOverflow.to_string().is_empty());
    }

    #[test]
    fn count_reaching_u64_max_reports_omega_overflow() {
        // u64::MAX is the ω sentinel of a tree row, so no finite count may
        // take it: reaching it is an overflow, one below it is a count.
        let net = PetriNet::from_transitions([Transition::new(
            ms(&[("x", 1)]),
            ms(&[("y", 1), ("z", 1)]),
        )]);
        let below = build(&net, &ms(&[("x", 1), ("z", u64::MAX - 2)]), 10_000);
        assert_eq!(below.completion(), Completion::Complete);
        assert_eq!(below.markings().len(), 2);
        assert_eq!(
            below.markings().get(1).get(&"z"),
            OmegaValue::Finite(u64::MAX - 1)
        );
        assert!(below.is_bounded());
        let reaching = build(&net, &ms(&[("x", 1), ("z", u64::MAX - 1)]), 10_000);
        assert_eq!(reaching.completion(), Completion::OmegaOverflow);
        assert_eq!(reaching.markings().len(), 1, "only the root is admitted");
        assert!(!reaching.covers(&ms(&[("y", 1)])));
        // A root that already holds the sentinel admits nothing.
        let root = build(&net, &ms(&[("z", u64::MAX)]), 10_000);
        assert_eq!(root.completion(), Completion::OmegaOverflow);
        assert!(root.markings().is_empty());
    }

    #[test]
    fn markings_view_decodes_rows_in_admission_order() {
        let net = PetriNet::from_transitions([Transition::new(
            ms(&[("a", 1)]),
            ms(&[("a", 1), ("b", 1)]),
        )]);
        let start = ms(&[("a", 1)]);
        let tree = build(&net, &start, 10_000);
        let markings = tree.markings();
        assert_eq!(markings.len(), 2);
        assert!(!markings.is_empty());
        assert_eq!(markings.get(0), OmegaMarking::from_config(&start));
        assert_eq!(markings.get(1).get(&"a"), OmegaValue::Finite(1));
        assert_eq!(markings.get(1).get(&"b"), OmegaValue::Omega);
        assert_eq!(
            markings.iter().collect::<Vec<_>>(),
            [markings.get(0), markings.get(1)]
        );
        // Equality compares markings, not cell layouts: an engine over a
        // wider place universe stores other rows for the same tree.
        let wider = CompiledNet::compile_with_places(&net, ["c"]);
        let (widened, _) = KarpMillerTree::build_counting(&wider, &start, 10_000);
        assert_eq!(widened.markings(), markings);
        assert_ne!(build(&net, &start, 1).markings(), markings);
    }

    #[test]
    fn width_promotion_preserves_the_tree() {
        // x -> y + 300 z: the first admitted child already carries a count
        // over a u8 cell's range. The tree always stores u64 cells, so a
        // session opened with u64 rows must build the same markings.
        let net = PetriNet::from_transitions([Transition::new(
            ms(&[("x", 1)]),
            ms(&[("y", 1), ("z", 300)]),
        )]);
        let start = ms(&[("x", 2)]);
        let packed = build(&net, &start, 10_000);
        let unpacked = Analysis::new(&net)
            .u64_rows()
            .karp_miller(start.clone())
            .max_nodes(10_000)
            .run();
        assert_eq!(packed.markings(), unpacked.markings());
        assert_eq!(packed.completion(), unpacked.completion());
        assert!(packed.covers(&ms(&[("z", 600)])));
        assert!(!packed.covers(&ms(&[("z", 601)])));
    }

    #[test]
    fn counter_overflow_marks_tree_incomplete_instead_of_panicking() {
        // x -> y + huge·z consumes x, so successive markings are
        // incomparable and never accelerate; the second firing pushes z
        // past u64::MAX. The former implementation panicked on
        // `i64::try_from`; now the branch is dropped and the tree is
        // reported incomplete.
        let huge = u64::MAX / 2 + 1;
        let net = PetriNet::from_transitions([Transition::new(
            ms(&[("x", 1)]),
            ms(&[("y", 1), ("z", huge)]),
        )]);
        let tree = build(&net, &ms(&[("x", 2)]), 10_000);
        assert!(!tree.is_complete());
        assert!(tree.covers(&ms(&[("z", huge)])));
        assert!(!tree.covers(&ms(&[("y", 2)])));
    }

    /// Small random nets, agent-creating ones (which produce ω) included,
    /// under budgets that often cut mid-wave; a third of the cases put a
    /// count near `u64::MAX` in the initial marking and another third
    /// give a transition a post count whose second firing overflows.
    fn arb_case() -> impl proptest::prelude::Strategy<Value = (PetriNet<u8>, Multiset<u8>, usize)> {
        use proptest::collection::{btree_map, vec};
        use proptest::prelude::Strategy;
        (1u8..=4).prop_flat_map(|places| {
            let side = move || btree_map(0..places, 1u64..=3, 0..3);
            (
                vec((side(), side()), 1..6),
                (btree_map(0..places, 1u64..=3, 1..4), 0usize..=60),
                (0u8..3, 0usize..6, (0..places, 0u64..4)),
            )
                .prop_map(
                    |(mut transitions, (mut initial, budget), (extreme, at, (place, offset)))| {
                        match extreme {
                            1 => {
                                initial.insert(place, u64::MAX - 1 - offset);
                            }
                            2 => {
                                let at = at % transitions.len();
                                transitions[at].1.insert(place, u64::MAX / 2 + offset);
                            }
                            _ => {}
                        }
                        let net = PetriNet::from_transitions(transitions.into_iter().map(
                            |(pre, post)| {
                                Transition::new(
                                    Multiset::from_pairs(pre),
                                    Multiset::from_pairs(post),
                                )
                            },
                        ));
                        (net, Multiset::from_pairs(initial), budget)
                    },
                )
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn flat_builder_matches_the_rc_chain_oracle((net, initial, budget) in arb_case()) {
            let engine =
                CompiledNet::compile_with_places(&net, initial.iter().map(|(&p, _)| p));
            let (tree, expanded) = KarpMillerTree::build_counting(&engine, &initial, budget);
            let (markings, completion, reference_expanded) =
                oracle::build(&engine, &initial, budget);
            proptest::prop_assert_eq!(tree.markings().iter().collect::<Vec<_>>(), markings);
            proptest::prop_assert_eq!(tree.completion(), completion);
            proptest::prop_assert_eq!(expanded, reference_expanded);
        }
    }
}
