//! Karp–Miller coverability trees.
//!
//! The Karp–Miller tree finitely represents the (downward closure of the)
//! coverability set of a Petri net using ω-markings: places that can be pumped
//! unboundedly are accelerated to ω. The suite uses it as an alternative
//! coverability/boundedness procedure next to the backward algorithm of
//! [`cover`](crate::cover) — experiment E5's ablation compares the two — and
//! to detect unbounded places of non-conservative protocols.
//!
//! The tree is built on the dense engine ([`CompiledNet`]): markings are
//! flat `Vec<OmegaValue>` rows over dense place indices, fired and compared
//! with slice arithmetic, and converted to sparse [`OmegaMarking`]s only
//! once the search finishes. All counter arithmetic is *checked*
//! ([`OmegaValue::checked_add`]/[`OmegaValue::checked_sub`]): an execution
//! whose counts leave `u64` no longer panics, it marks the tree incomplete
//! and skips the offending branch.
//!
//! The long-lived admitted-markings store packs its rows with *per-place*
//! cell widths ([`RowLayout::per_place`]): ω is a per-cell max sentinel,
//! so a place accelerating to ω costs nothing, and only a *finite* count
//! colliding with its sentinel promotes that one place's width (re-encoding
//! the store) instead of widening the whole net. Branch chains stay
//! unpacked `Vec<OmegaValue>` scratch.

use crate::engine::CompiledNet;
use crate::packed::{CellWidth, RowLayout};
use crate::parallel::Parallelism;
use crate::session::Completion;
use pp_multiset::Multiset;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

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

    fn set(&mut self, place: P, value: OmegaValue) {
        if value == OmegaValue::Finite(0) {
            self.values.remove(&place);
        } else {
            self.values.insert(place, value);
        }
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

/// A dense ω-marking row over the engine's place indices.
type OmegaRow = Vec<OmegaValue>;

/// Component-wise order on dense ω-rows of equal width.
fn row_le(a: &[OmegaValue], b: &[OmegaValue]) -> bool {
    a.iter().zip(b).all(|(x, y)| match (x, y) {
        (OmegaValue::Omega, OmegaValue::Omega) => true,
        (OmegaValue::Omega, OmegaValue::Finite(_)) => false,
        (OmegaValue::Finite(_), OmegaValue::Omega) => true,
        (OmegaValue::Finite(a), OmegaValue::Finite(b)) => a <= b,
    })
}

/// Fires compiled transition `t` on `row`, or `Ok(None)` if disabled.
///
/// # Errors
///
/// Propagates [`OmegaOverflow`] from the checked counter arithmetic.
fn fire_row(
    row: &[OmegaValue],
    transition: &crate::engine::CompiledTransition,
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
    Ok(Some(next))
}

/// Accelerates `row` against a strictly smaller ancestor: places where it
/// strictly exceeds the ancestor become ω.
fn accelerate(row: &mut [OmegaValue], ancestor: &[OmegaValue]) {
    for (mine, theirs) in row.iter_mut().zip(ancestor) {
        if let (OmegaValue::Finite(m), OmegaValue::Finite(t)) = (*mine, *theirs) {
            if m > t {
                *mine = OmegaValue::Omega;
            }
        }
    }
}

/// One node of an ancestor chain.
///
/// Branches are shared immutable linked lists: extending a branch for a
/// child is one `Arc` clone instead of copying the whole ancestor vector,
/// so a wave's pending nodes carry their branches by reference and fan
/// out to worker threads without copying.
struct BranchNode {
    row: OmegaRow,
    parent: BranchLink,
}

impl Drop for BranchNode {
    fn drop(&mut self) {
        // Unlink the chain iteratively: the default recursive drop would
        // use one stack frame per ancestor, overflowing on the deep
        // non-branching chains an acceleration-free net produces.
        let mut parent = self.parent.take();
        while let Some(node) = parent {
            match Arc::try_unwrap(node) {
                Ok(mut node) => parent = node.parent.take(),
                // Some other branch still shares this tail: leave it.
                Err(_) => break,
            }
        }
    }
}

/// A (possibly empty) ancestor chain, leaf-most node first.
type BranchLink = Option<Arc<BranchNode>>;

/// Iterates the ancestor rows of `link`, leaf to root.
fn ancestor_rows(link: &BranchLink) -> impl Iterator<Item = &OmegaRow> {
    std::iter::successors(link.as_deref(), |node| node.parent.as_deref()).map(|node| &node.row)
}

/// The result of expanding one pending node, computed independently of
/// every other node (which is what makes sibling expansion parallel).
struct Expansion {
    /// Some branch ancestor already covers the row: stop this branch.
    subsumed: bool,
    /// Child markings, in transition order, already ω-accelerated against
    /// *all* branch ancestors (not just the parent).
    children: Vec<OmegaRow>,
    /// Some child's counters left the `u64` range; the branch is dropped
    /// and the tree reported incomplete.
    overflowed: bool,
}

/// Expands one pending node: subsumption check against the branch, then one
/// child per enabled transition, accelerated against every ancestor (root
/// first, the classical order). Takes the compiled transitions rather than
/// the whole engine so worker threads need no bounds on the place type.
fn expand_node(
    transitions: &[crate::engine::CompiledTransition],
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
            Err(OmegaOverflow) => {
                overflowed = true;
            }
        }
    }
    Expansion {
        subsumed: false,
        children,
        overflowed,
    }
}

/// Fans one chunk of a wave out over `workers` cooperating threads (pure
/// node-local work; all admission decisions stay with the caller).
fn expand_wave(
    items: &[(OmegaRow, BranchLink)],
    transitions: &[crate::engine::CompiledTransition],
    workers: usize,
) -> Vec<Expansion> {
    if workers > 1 && items.len() >= PARALLEL_WAVE_THRESHOLD {
        items
            .par_chunks(items.len().div_ceil(workers))
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|(row, parent)| expand_node(transitions, row, parent))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect()
    } else {
        items
            .iter()
            .map(|(row, parent)| expand_node(transitions, row, parent))
            .collect()
    }
}

/// Fan a chunk out over threads once it holds this many pending nodes;
/// below it, thread spawns would dominate the branch scans.
const PARALLEL_WAVE_THRESHOLD: usize = 64;

/// Which limits bit during a tree construction; the admission runs
/// strictly in wave order in every mode, so the flags are deterministic
/// across worker counts.
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

/// The admitted-markings store, packed with per-place cell widths.
///
/// ω is encoded as the cell's max value (a sentinel), so acceleration to
/// ω never widens anything — the sentinel fits every width. A *finite*
/// count at or above a place's sentinel instead promotes that single
/// place to the next wider cell and re-encodes the stored rows; every
/// other place keeps its narrow cells. On an engine that does not pack
/// every place starts (and stays) at `u64`.
struct PackedOmegaStore {
    widths: Vec<CellWidth>,
    layout: RowLayout,
    data: Vec<u64>,
    len: usize,
    /// Rows holding a finite count of exactly `u64::MAX`, which would
    /// collide with the `u64` ω sentinel — kept unpacked on the side
    /// (all but unreachable under checked ω-arithmetic; their packed
    /// slots stay zeroed placeholders).
    unpackable: BTreeMap<usize, OmegaRow>,
}

impl PackedOmegaStore {
    /// An empty store over `places` cells, sized so the initial marking's
    /// largest count packs without an immediate promotion (or `u64` cells
    /// throughout when `packed` is off).
    fn new(places: usize, max_initial_cell: u64, packed: bool) -> Self {
        let width = if packed {
            CellWidth::fitting(max_initial_cell.saturating_add(1))
        } else {
            CellWidth::U64
        };
        let widths = vec![width; places];
        let layout = RowLayout::per_place(widths.clone());
        PackedOmegaStore {
            widths,
            layout,
            data: Vec::new(),
            len: 0,
            unpackable: BTreeMap::new(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Decodes one stored row back to ω-values.
    fn decode(&self, index: usize) -> OmegaRow {
        if let Some(row) = self.unpackable.get(&index) {
            return row.clone();
        }
        let words = self.layout.words_per_row();
        let row = &self.data[index * words..(index + 1) * words];
        (0..self.layout.places())
            .map(|place| {
                let cell = self.layout.get(row, place);
                if cell == self.widths[place].cell_max() {
                    OmegaValue::Omega
                } else {
                    OmegaValue::Finite(cell)
                }
            })
            .collect()
    }

    /// Appends a marking, promoting any place whose finite count would
    /// collide with its current ω sentinel.
    fn push(&mut self, row: &[OmegaValue]) {
        debug_assert_eq!(row.len(), self.layout.places());
        for (place, value) in row.iter().enumerate() {
            if let OmegaValue::Finite(c) = *value {
                while c >= self.widths[place].cell_max() {
                    match self.widths[place].widen() {
                        Some(wider) => self.promote(place, wider),
                        None => {
                            // c == u64::MAX: no wider cell exists, keep
                            // the row unpacked so the sentinel stays
                            // unambiguous.
                            self.unpackable.insert(self.len, row.to_vec());
                            self.data
                                .resize(self.data.len() + self.layout.words_per_row(), 0);
                            self.len += 1;
                            return;
                        }
                    }
                }
            }
        }
        self.append_packed(row);
        self.len += 1;
    }

    /// Encodes `row` (already known to fit) at the end of the data block.
    fn append_packed(&mut self, row: &[OmegaValue]) {
        let start = self.data.len();
        self.data.resize(start + self.layout.words_per_row(), 0);
        for (place, value) in row.iter().enumerate() {
            let cell = match *value {
                OmegaValue::Finite(c) => c,
                OmegaValue::Omega => self.widths[place].cell_max(),
            };
            self.layout.set(&mut self.data[start..], place, cell);
        }
    }

    /// Widens one place's cells and re-encodes every stored row. Already
    /// stored counts all fit the widened layout (they fit the narrower
    /// one), so the re-encoding cannot itself promote.
    fn promote(&mut self, place: usize, wider: CellWidth) {
        let rows: Vec<OmegaRow> = (0..self.len).map(|i| self.decode(i)).collect();
        self.widths[place] = wider;
        self.layout = RowLayout::per_place(self.widths.clone());
        self.data.clear();
        for (index, row) in rows.iter().enumerate() {
            if self.unpackable.contains_key(&index) {
                self.data
                    .resize(self.data.len() + self.layout.words_per_row(), 0);
            } else {
                self.append_packed(row);
            }
        }
    }

    /// Decodes the whole store, in admission order.
    fn into_rows(self) -> Vec<OmegaRow> {
        (0..self.len).map(|i| self.decode(i)).collect()
    }
}

/// A Karp–Miller coverability tree, stored as its set of ω-markings.
#[derive(Debug, Clone)]
pub struct KarpMillerTree<P: Ord> {
    markings: Vec<OmegaMarking<P>>,
    completion: Completion,
}

impl<P: Clone + Ord> KarpMillerTree<P> {
    /// Builds the tree from `initial`, exploring at most `max_nodes` nodes,
    /// on an already-compiled engine — the session entry point
    /// ([`Analysis`](crate::session::Analysis) owns the shared engine).
    /// The initial configuration must fit the engine's universe.
    ///
    /// The search runs on the dense engine, wave by wave, in breadth-first
    /// order. Expanding a pending node — subsumption check against its
    /// branch, one child per enabled transition, ω-acceleration against
    /// *all* its ancestors — only reads the node's own branch, and each
    /// node admits at most one marking. So the wave is expanded in chunks
    /// of at most as many nodes as the budget can still admit: with
    /// [`Parallelism::Parallel`] a large chunk fans out over worker
    /// threads, then this thread admits it in wave order and collects its
    /// children for the next wave. The build stops at the first node the
    /// budget refuses, before expanding it: no node is ever expanded
    /// speculatively, and the tree is **identical** across modes and
    /// worker counts.
    ///
    /// The tree is reported as incomplete when the node budget is hit *or*
    /// when some branch's counters left the `u64` range (checked arithmetic
    /// instead of the former panic); [`completion`](Self::completion) says
    /// which.
    pub(crate) fn build_on(
        engine: &CompiledNet<P>,
        initial: &Multiset<P>,
        max_nodes: usize,
        parallelism: Parallelism,
    ) -> Self {
        Self::build_counting(engine, initial, max_nodes, parallelism).0
    }

    /// [`build_on`](Self::build_on), also returning how many nodes the
    /// wave loop expanded: the admitted ones plus those subsumed ahead of
    /// the budget cut.
    fn build_counting(
        engine: &CompiledNet<P>,
        initial: &Multiset<P>,
        max_nodes: usize,
        parallelism: Parallelism,
    ) -> (Self, usize) {
        let dense_initial = engine
            .to_dense(initial)
            .expect("initial support is part of the compiled universe");
        let root: OmegaRow = dense_initial
            .iter()
            .map(|&c| OmegaValue::Finite(c))
            .collect();
        let mut rows = PackedOmegaStore::new(
            engine.num_places(),
            dense_initial.iter().copied().max().unwrap_or(0),
            engine.packed,
        );
        let mut trunc = KmTruncation::default();
        let workers = parallelism.workers();
        let transitions = engine.transitions();
        let mut expanded = 0;
        let mut wave: Vec<(OmegaRow, BranchLink)> = vec![(root, None)];
        'build: while !wave.is_empty() {
            let mut next = Vec::new();
            let mut start = 0;
            while start < wave.len() {
                // Each node admits at most one marking, so a chunk no
                // larger than the budget left is admitted whole.
                let len = (wave.len() - start).min(max_nodes - rows.len());
                if len == 0 {
                    trunc.budget = true;
                    break 'build;
                }
                let chunk = &mut wave[start..start + len];
                let expansions = expand_wave(chunk, transitions, workers);
                expanded += len;
                start += len;
                for ((row, parent), expansion) in chunk.iter_mut().zip(expansions) {
                    if expansion.subsumed {
                        continue; // no marking, no children
                    }
                    trunc.overflow |= expansion.overflowed;
                    rows.push(row);
                    let node = Arc::new(BranchNode {
                        row: std::mem::take(row),
                        parent: parent.take(),
                    });
                    next.extend(
                        expansion
                            .children
                            .into_iter()
                            .map(|child| (child, Some(node.clone()))),
                    );
                }
            }
            wave = next;
        }
        let markings = rows
            .into_rows()
            .into_iter()
            .map(|row| {
                let mut marking = OmegaMarking {
                    values: BTreeMap::new(),
                };
                for (index, value) in row.into_iter().enumerate() {
                    marking.set(engine.places()[index].clone(), value);
                }
                marking
            })
            .collect();
        let tree = KarpMillerTree {
            markings,
            completion: trunc.completion(),
        };
        (tree, expanded)
    }

    /// The ω-markings of the tree.
    #[must_use]
    pub fn markings(&self) -> &[OmegaMarking<P>] {
        &self.markings
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
        self.markings.iter().any(|m| m.covers(config))
    }

    /// Returns `true` if the net is bounded from the initial configuration
    /// (no ω appears). Meaningful only when the tree is complete.
    #[must_use]
    pub fn is_bounded(&self) -> bool {
        self.markings.iter().all(OmegaMarking::is_finite)
    }

    /// Returns `true` if the given place stays bounded (never accelerates to ω).
    #[must_use]
    pub fn place_is_bounded(&self, place: &P) -> bool {
        self.markings
            .iter()
            .all(|m| m.get(place) != OmegaValue::Omega)
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

    /// One-shot sequential build through the session API.
    fn build(
        net: &PetriNet<&'static str>,
        initial: &Multiset<&'static str>,
        max_nodes: usize,
    ) -> Arc<KarpMillerTree<&'static str>> {
        build_with(net, initial, max_nodes, Parallelism::Sequential)
    }

    /// One-shot build through the session API at a chosen parallelism.
    fn build_with(
        net: &PetriNet<&'static str>,
        initial: &Multiset<&'static str>,
        max_nodes: usize,
        parallelism: Parallelism,
    ) -> Arc<KarpMillerTree<&'static str>> {
        Analysis::new(net)
            .karp_miller(initial.clone())
            .max_nodes(max_nodes)
            .parallelism(parallelism)
            .run()
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

    #[test]
    fn parallel_tree_is_identical_to_sequential() {
        use crate::parallel::Parallelism;
        let nets = [
            PetriNet::from_transitions([
                Transition::pairwise("a", "a", "a", "b"),
                Transition::pairwise("a", "b", "b", "b"),
            ]),
            PetriNet::from_transitions([
                Transition::new(ms(&[("a", 1)]), ms(&[("a", 1), ("b", 1)])),
                Transition::new(ms(&[("b", 2)]), ms(&[("c", 1)])),
            ]),
        ];
        for net in &nets {
            for agents in [1u64, 3, 6] {
                let start = ms(&[("a", agents)]);
                let sequential = build(net, &start, 10_000);
                for workers in [1usize, 2, 4] {
                    let parallel = build_with(net, &start, 10_000, Parallelism::Parallel(workers));
                    assert_eq!(sequential.markings(), parallel.markings());
                    assert_eq!(sequential.is_complete(), parallel.is_complete());
                }
            }
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
        // wave of 83 026 candidates, none of which may be expanded once
        // the budget is full, whatever the worker count.
        let (net, start) = binary_threshold_6(18);
        let engine = CompiledNet::compile(&net);
        let max_nodes = 20_000;
        let (tree, expanded) =
            KarpMillerTree::build_counting(&engine, &start, max_nodes, Parallelism::Sequential);
        assert_eq!(tree.markings().len(), max_nodes);
        assert_eq!(tree.completion(), Completion::ConfigBudget);
        for workers in [2usize, 3] {
            let (parallel, parallel_expanded) = KarpMillerTree::build_counting(
                &engine,
                &start,
                max_nodes,
                Parallelism::Parallel(workers),
            );
            assert_eq!(parallel_expanded, expanded, "{workers} workers");
            assert_eq!(parallel.markings(), tree.markings());
        }
        // Reference: the classical one-node-at-a-time breadth-first loop,
        // which expands exactly the admitted nodes plus the subsumed ones
        // ahead of the cut.
        let root: OmegaRow = engine
            .to_dense(&start)
            .expect("initial fits")
            .into_iter()
            .map(OmegaValue::Finite)
            .collect();
        let mut queue = std::collections::VecDeque::from([(root, None)]);
        let (mut admitted, mut subsumed) = (0usize, 0usize);
        while let Some((row, parent)) = queue.pop_front() {
            if admitted == max_nodes {
                break;
            }
            let expansion = expand_node(engine.transitions(), &row, &parent);
            if expansion.subsumed {
                subsumed += 1;
                continue;
            }
            admitted += 1;
            let node = Arc::new(BranchNode { row, parent });
            queue.extend(
                expansion
                    .children
                    .into_iter()
                    .map(|child| (child, Some(node.clone()))),
            );
        }
        assert_eq!(admitted, max_nodes);
        assert_eq!(expanded, admitted + subsumed);
        assert_eq!(expanded, 23_790);
    }

    #[test]
    fn deep_branch_chains_drop_without_recursion() {
        // A 100k-deep non-branching ancestor chain (what an
        // acceleration-free net builds) must drop iteratively: the
        // default recursive drop would blow a 512 KiB stack long before
        // that depth. Run in a small-stack thread so a regression shows
        // up at any default stack size.
        std::thread::Builder::new()
            .stack_size(512 * 1024)
            .spawn(|| {
                let mut chain: BranchLink = None;
                for depth in 0..100_000u64 {
                    chain = Some(Arc::new(BranchNode {
                        row: vec![OmegaValue::Finite(depth)],
                        parent: chain,
                    }));
                }
                assert_eq!(ancestor_rows(&chain).count(), 100_000);
                drop(chain);
            })
            .expect("spawn small-stack thread")
            .join()
            .expect("deep chain drop must not overflow the stack");
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
        omega.set("a", OmegaValue::Omega);
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
    fn packed_store_promotes_a_single_place_width() {
        let mut store = PackedOmegaStore::new(3, 2, true);
        // u8 cells to start with: the initial max cell is 2.
        assert_eq!(store.widths, vec![CellWidth::U8; 3]);
        store.push(&[
            OmegaValue::Finite(2),
            OmegaValue::Finite(0),
            OmegaValue::Finite(0),
        ]);
        // ω is a sentinel, not a promotion: widths stay u8.
        store.push(&[
            OmegaValue::Finite(1),
            OmegaValue::Omega,
            OmegaValue::Finite(3),
        ]);
        assert_eq!(store.widths, vec![CellWidth::U8; 3]);
        // A finite 300 at place 2 promotes *only* place 2 to u16, and the
        // earlier rows (including the ω sentinel) re-encode correctly.
        store.push(&[
            OmegaValue::Finite(1),
            OmegaValue::Omega,
            OmegaValue::Finite(300),
        ]);
        assert_eq!(
            store.widths,
            vec![CellWidth::U8, CellWidth::U8, CellWidth::U16]
        );
        assert_eq!(
            store.decode(1),
            vec![
                OmegaValue::Finite(1),
                OmegaValue::Omega,
                OmegaValue::Finite(3)
            ]
        );
        assert_eq!(
            store.decode(2),
            vec![
                OmegaValue::Finite(1),
                OmegaValue::Omega,
                OmegaValue::Finite(300)
            ]
        );
        // The one unpackable count — finite u64::MAX collides with the
        // u64 ω sentinel — round-trips through the side store.
        let extreme = vec![
            OmegaValue::Finite(u64::MAX),
            OmegaValue::Omega,
            OmegaValue::Finite(0),
        ];
        store.push(&extreme);
        assert_eq!(store.decode(3), extreme);
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn width_promotion_preserves_the_tree() {
        // x -> y + 300 z: the first admitted child already carries a count
        // over u8's sentinel, so the store promotes mid-build; the
        // resulting markings must match the u64-cells reference build.
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
}
