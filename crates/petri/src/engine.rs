//! The compiled dense state-space engine.
//!
//! A [`CompiledNet`] freezes a [`PetriNet`] into a dense representation:
//! places become contiguous indices `0..num_places`, configurations become
//! `&[u64]` rows, and every transition is precompiled into sparse
//! pre/post lists over those indices. Successor generation is then a
//! slice copy plus a handful of indexed adds — no tree merges, no
//! allocation beyond the output row — which is what makes the exploration,
//! coverability and simulation layers of the suite run at hardware speed
//! (the suite benchmark's `explore.nodes_per_s` tracks the exploration
//! rate).
//!
//! The engine is the *internal* workhorse: the public entry points of
//! [`explore`](crate::explore), [`cover`](crate::cover) and
//! [`karp_miller`](crate::karp_miller) still speak sparse
//! [`Multiset`] configurations and convert at the boundary, so callers
//! choose dense or sparse by picking the API level, not by converting by
//! hand. See `DESIGN.md` for the architecture overview.
//!
//! # Examples
//!
//! ```
//! use pp_multiset::Multiset;
//! use pp_petri::engine::CompiledNet;
//! use pp_petri::{PetriNet, Transition};
//!
//! let net = PetriNet::from_transitions([Transition::pairwise("a", "a", "a", "b")]);
//! let engine = CompiledNet::compile(&net);
//! let row = engine.to_dense(&Multiset::from_pairs([("a", 3u64)])).unwrap();
//! let mut next = Vec::new();
//! assert!(engine.transitions()[0].fire_row(&row, &mut next));
//! assert_eq!(engine.to_sparse(&next), Multiset::from_pairs([("a", 2u64), ("b", 1)]));
//! ```

use crate::packed::{CellWidth, PackedTransition, RowLayout};
use crate::PetriNet;
use pp_multiset::Multiset;
use std::collections::BTreeSet;

/// The single scalar iteration point over a sparse `(place, count)` list.
///
/// Every enabled/fire/instances loop of the scalar engine goes through
/// this adapter, so the packed word-level fast path
/// ([`PackedTransition`]) has exactly one scalar counterpart it must
/// agree with — the equivalence proptests compare against these loops.
#[inline(always)]
fn entries(entries: &[(u32, u64)]) -> impl Iterator<Item = (usize, u64)> + '_ {
    entries
        .iter()
        .map(|&(place, count)| (place as usize, count))
}

/// One transition precompiled over dense place indices.
///
/// `pre` and `post` are sparse `(place index, count)` lists, so firing
/// touches only the places the transition actually moves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTransition {
    pre: Vec<(u32, u64)>,
    post: Vec<(u32, u64)>,
}

impl CompiledTransition {
    /// The dense precondition as `(place index, count)` pairs.
    #[must_use]
    pub fn pre(&self) -> &[(u32, u64)] {
        &self.pre
    }

    /// The dense postcondition as `(place index, count)` pairs.
    #[must_use]
    pub fn post(&self) -> &[(u32, u64)] {
        &self.post
    }

    /// Returns `true` if the transition is enabled in `row`.
    #[must_use]
    #[inline]
    pub fn is_enabled_row(&self, row: &[u64]) -> bool {
        entries(&self.pre).all(|(p, c)| row[p] >= c)
    }

    /// Fires the transition from `src` into `dst` (cleared and refilled).
    ///
    /// Returns `false` (leaving `dst` unspecified) if the transition is
    /// disabled in `src`.
    #[must_use]
    pub fn fire_row(&self, src: &[u64], dst: &mut Vec<u64>) -> bool {
        if !self.is_enabled_row(src) {
            return false;
        }
        dst.clear();
        dst.extend_from_slice(src);
        entries(&self.pre).for_each(|(p, c)| dst[p] -= c);
        entries(&self.post).for_each(|(p, c)| dst[p] += c);
        true
    }

    /// Fires the transition in place.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the transition is not enabled.
    #[inline]
    pub fn fire(&self, config: &mut DenseConfig) {
        entries(&self.pre).for_each(|(p, c)| {
            debug_assert!(config.counts[p] >= c, "transition fired while disabled");
            config.counts[p] -= c;
            config.total -= c;
        });
        entries(&self.post).for_each(|(p, c)| {
            config.counts[p] += c;
            config.total += c;
        });
    }

    /// Returns `true` if the transition is enabled in `config`.
    #[must_use]
    #[inline]
    pub fn is_enabled(&self, config: &DenseConfig) -> bool {
        self.is_enabled_row(&config.counts)
    }

    /// Number of distinct unordered agent tuples able to play this
    /// transition in `config` (the product of binomial coefficients over
    /// its precondition), used by the instance-weighted scheduler.
    #[must_use]
    #[inline]
    pub fn instances(&self, config: &DenseConfig) -> u128 {
        entries(&self.pre)
            .map(|(p, c)| binomial(config.counts[p], c))
            .product()
    }
}

/// A configuration stored as one counter per place, with a cached total.
///
/// This is the mutable working view used by the simulator; exploration
/// works on raw arena rows instead.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DenseConfig {
    counts: Vec<u64>,
    total: u64,
}

impl DenseConfig {
    /// Builds a dense configuration from raw per-place counts.
    #[must_use]
    pub fn from_row(row: &[u64]) -> Self {
        DenseConfig {
            total: row.iter().sum(),
            counts: row.to_vec(),
        }
    }

    /// Count of agents at dense place index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[must_use]
    pub fn get(&self, index: usize) -> u64 {
        self.counts[index]
    }

    /// Total number of agents.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The per-place counters.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

/// A Petri net compiled to the dense engine representation.
///
/// Holds the dense place universe (sorted, deduplicated) and the
/// precompiled transitions; all conversions between sparse
/// [`Multiset`] configurations and dense rows go through it.
#[derive(Debug, Clone)]
pub struct CompiledNet<P> {
    places: Vec<P>,
    transitions: Vec<CompiledTransition>,
    /// Largest per-step agent creation over all transitions
    /// (`max_t (|post_t| − |pre_t|)`, clamped at 0): the headroom the
    /// packed-row width selection adds on top of the agent cap. Zero
    /// means the net is non-increasing and totals are bounded by the
    /// initial configurations alone.
    max_step_creation: u64,
    /// Largest single pre/post count of any transition: packed layouts
    /// must represent the transition constants themselves.
    max_transition_count: u64,
    /// Whether rows are packed at the proven width bound (the default) or
    /// stored in uncompressed `u64` cells, the reference representation
    /// (selected per session by [`Analysis::u64_rows`]).
    ///
    /// [`Analysis::u64_rows`]: crate::session::Analysis::u64_rows
    pub(crate) packed: bool,
}

impl<P: Clone + Ord> CompiledNet<P> {
    /// Compiles `net` over its own place universe.
    #[must_use]
    pub fn compile(net: &PetriNet<P>) -> Self {
        Self::compile_with_places(net, std::iter::empty())
    }

    /// Compiles `net` over its places plus `extra_places`.
    ///
    /// Analyses whose boundary configurations mention places outside the
    /// net (isolated protocol states, coverability targets over fresh
    /// places) widen the universe with this constructor so those
    /// configurations stay representable.
    #[must_use]
    pub fn compile_with_places<I: IntoIterator<Item = P>>(
        net: &PetriNet<P>,
        extra_places: I,
    ) -> Self {
        // Edges store transition indices as `u32`
        // (`ReachabilityGraph::successors`); checked once, here.
        assert!(
            u32::try_from(net.transitions().len()).is_ok(),
            "transition count fits u32"
        );
        let mut universe: BTreeSet<P> = net.places().clone();
        universe.extend(extra_places);
        let places: Vec<P> = universe.into_iter().collect();
        let index_of = |p: &P| {
            u32::try_from(places.binary_search(p).expect("place in universe"))
                .expect("place count fits u32")
        };
        let transitions: Vec<CompiledTransition> = net
            .transitions()
            .iter()
            .map(|t| CompiledTransition {
                pre: t.pre().iter().map(|(p, c)| (index_of(p), c)).collect(),
                post: t.post().iter().map(|(p, c)| (index_of(p), c)).collect(),
            })
            .collect();
        let totals = |entries: &[(u32, u64)]| entries.iter().map(|&(_, c)| c).sum::<u64>();
        let max_step_creation = transitions
            .iter()
            .map(|t| totals(&t.post).saturating_sub(totals(&t.pre)))
            .max()
            .unwrap_or(0);
        let max_transition_count = transitions
            .iter()
            .flat_map(|t| t.pre.iter().chain(&t.post))
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0);
        CompiledNet {
            places,
            transitions,
            max_step_creation,
            max_transition_count,
            packed: true,
        }
    }

    /// Largest per-step agent creation over all transitions
    /// (`max_t (|post_t| − |pre_t|)`, clamped at 0).
    #[must_use]
    pub fn max_step_creation(&self) -> u64 {
        self.max_step_creation
    }

    /// Largest single pre/post count over all transitions — the floor
    /// every packed layout must fit so transition constants themselves
    /// stay representable.
    #[must_use]
    pub fn max_transition_count(&self) -> u64 {
        self.max_transition_count
    }

    /// The packed [`RowLayout`] for explorations starting from
    /// configurations of at most `max_initial_total` agents under an
    /// optional agent cap and a node budget of `max_configurations` —
    /// the width-selection rule of the packed representation.
    ///
    /// The chosen cell width fits a proven bound on every count the
    /// exploration can *materialise* (stored rows and
    /// fired-but-budget-refused scratch rows alike):
    ///
    /// * a non-increasing net (zero [`max_step_creation`]) never exceeds
    ///   the largest initial total;
    /// * under an agent cap `m`, only rows with total ≤ `m` are expanded,
    ///   so no fired row exceeds `m + max_step_creation`;
    /// * otherwise the node budget bounds the BFS depth: every explored
    ///   level interns at least one fresh node (an empty level ends the
    ///   exploration), so every stored node sits at depth <
    ///   `max_configurations` and no materialised row — a row fired from
    ///   the deepest stored node included — can exceed
    ///   `max_initial_total + max_step_creation × max_configurations`.
    ///   Only when that product overflows `u64` does the layout fall
    ///   back to the uncompressed `u64` cells.
    ///
    /// The bound also covers every transition constant, so packed
    /// transition compilation is always representable. An engine opened
    /// with [`Analysis::u64_rows`](crate::session::Analysis::u64_rows)
    /// always gets the `u64` layout — the bit-identity reference path.
    ///
    /// [`max_step_creation`]: Self::max_step_creation
    #[must_use]
    pub fn row_layout(
        &self,
        max_initial_total: u64,
        max_agents: Option<u64>,
        max_configurations: usize,
    ) -> RowLayout {
        let width = if !self.packed {
            CellWidth::U64
        } else {
            let bound = if self.max_step_creation == 0 {
                Some(max_initial_total)
            } else if let Some(cap) = max_agents {
                Some(max_initial_total.max(cap.saturating_add(self.max_step_creation)))
            } else {
                let budget = max_configurations.min(crate::explore::MAX_GRAPH_CONFIGURATIONS);
                self.max_step_creation
                    .checked_mul(budget as u64)
                    .and_then(|grown| grown.checked_add(max_initial_total))
            };
            match bound {
                Some(bound) => CellWidth::fitting(bound.max(self.max_transition_count)),
                None => CellWidth::U64,
            }
        };
        RowLayout::uniform(self.places.len(), width)
    }

    /// Compiles every transition against a uniform packed layout, in the
    /// net's transition order.
    #[must_use]
    pub fn packed_transitions(&self, layout: &RowLayout) -> Vec<PackedTransition> {
        self.transitions
            .iter()
            .map(|t| PackedTransition::compile(layout, &t.pre, &t.post))
            .collect()
    }

    /// The dense place universe, in index order.
    #[must_use]
    pub fn places(&self) -> &[P] {
        &self.places
    }

    /// Number of places (the dense row width).
    #[must_use]
    pub fn num_places(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions.
    #[must_use]
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// The precompiled transitions, in the net's index order.
    #[must_use]
    pub fn transitions(&self) -> &[CompiledTransition] {
        &self.transitions
    }

    /// The dense index of `place`, if it is part of the universe.
    #[must_use]
    pub fn place_index(&self, place: &P) -> Option<usize> {
        self.places.binary_search(place).ok()
    }

    /// Converts a sparse configuration to a dense row.
    ///
    /// Returns `None` if the configuration populates a place outside the
    /// compiled universe (such a configuration is not representable).
    #[must_use]
    pub fn to_dense(&self, config: &Multiset<P>) -> Option<Vec<u64>> {
        let mut row = vec![0u64; self.places.len()];
        for (p, c) in config.iter() {
            row[self.place_index(p)?] += c;
        }
        Some(row)
    }

    /// Converts a sparse configuration to a dense row, dropping counts on
    /// places outside the universe.
    ///
    /// Sound for queries where extra places can only help the caller
    /// (e.g. "is some basis element ≤ config": basis elements are zero
    /// outside the universe).
    #[must_use]
    pub fn to_dense_lossy(&self, config: &Multiset<P>) -> Vec<u64> {
        let mut row = vec![0u64; self.places.len()];
        for (p, c) in config.iter() {
            if let Some(i) = self.place_index(p) {
                row[i] += c;
            }
        }
        row
    }

    /// Converts a dense row back to a sparse configuration.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong width.
    #[must_use]
    pub fn to_sparse(&self, row: &[u64]) -> Multiset<P> {
        assert_eq!(row.len(), self.places.len(), "row width mismatch");
        Multiset::from_pairs(
            row.iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (self.places[i].clone(), c)),
        )
    }

    /// Builds the dense working configuration for the simulator.
    ///
    /// # Panics
    ///
    /// Panics if `config` populates a place outside the compiled universe.
    #[must_use]
    pub fn dense_config(&self, config: &Multiset<P>) -> DenseConfig {
        let row = self
            .to_dense(config)
            .expect("configuration fits the compiled place universe");
        DenseConfig::from_row(&row)
    }

    /// Converts a [`DenseConfig`] back to a sparse configuration.
    #[must_use]
    pub fn to_multiset(&self, config: &DenseConfig) -> Multiset<P> {
        self.to_sparse(config.counts())
    }

    /// Indices of the transitions enabled in `row`.
    #[must_use]
    pub fn enabled_row(&self, row: &[u64]) -> Vec<usize> {
        self.transitions
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_enabled_row(row))
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of the transitions enabled in `config`.
    #[must_use]
    pub fn enabled(&self, config: &DenseConfig) -> Vec<usize> {
        self.enabled_row(config.counts())
    }
}

/// Binomial coefficient `C(n, k)` saturating in `u128`.
///
/// `k ≤ 2`, every precondition count of a width-2 protocol, takes an exact
/// closed form (`n·(n−1)` cannot overflow `u128`) instead of a `u128`
/// division per factor.
#[must_use]
#[inline]
pub fn binomial(n: u64, k: u64) -> u128 {
    match k {
        0 => 1,
        1 => u128::from(n),
        2 => {
            let n = u128::from(n);
            (n * n.saturating_sub(1)) >> 1
        }
        _ => binomial_product(n, k),
    }
}

/// [`binomial`] for every `k`: the saturating product of the factors
/// `(n − i) / (i + 1)`.
fn binomial_product(n: u64, k: u64) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u128 = 1;
    for i in 0..k {
        result = result.saturating_mul(u128::from(n - i)) / u128::from(i + 1);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transition;

    fn ms(pairs: &[(&'static str, u64)]) -> Multiset<&'static str> {
        Multiset::from_pairs(pairs.iter().copied())
    }

    fn sample_net() -> PetriNet<&'static str> {
        PetriNet::from_transitions([
            Transition::pairwise("a", "a", "a", "b"),
            Transition::pairwise("a", "b", "b", "b"),
            Transition::new(ms(&[("b", 1)]), ms(&[("c", 2)])),
        ])
    }

    #[test]
    fn compilation_matches_net_shape() {
        let net = sample_net();
        let engine = CompiledNet::compile(&net);
        assert_eq!(engine.num_places(), 3);
        assert_eq!(engine.num_transitions(), 3);
        assert_eq!(engine.places(), &["a", "b", "c"]);
        assert_eq!(engine.place_index(&"b"), Some(1));
        assert_eq!(engine.place_index(&"z"), None);
    }

    #[test]
    fn dense_round_trip() {
        let net = sample_net();
        let engine = CompiledNet::compile(&net);
        let config = ms(&[("a", 2), ("c", 5)]);
        let row = engine.to_dense(&config).unwrap();
        assert_eq!(row, vec![2, 0, 5]);
        assert_eq!(engine.to_sparse(&row), config);
        assert_eq!(engine.to_dense(&ms(&[("z", 1)])), None);
        assert_eq!(
            engine.to_dense_lossy(&ms(&[("a", 1), ("z", 9)])),
            vec![1, 0, 0]
        );
    }

    #[test]
    fn extra_places_widen_the_universe() {
        let net = sample_net();
        let engine = CompiledNet::compile_with_places(&net, ["z"]);
        assert_eq!(engine.num_places(), 4);
        let row = engine.to_dense(&ms(&[("z", 2)])).unwrap();
        assert_eq!(engine.to_sparse(&row), ms(&[("z", 2)]));
    }

    #[test]
    fn dense_firing_matches_sparse_firing() {
        let net = sample_net();
        let engine = CompiledNet::compile(&net);
        let config = ms(&[("a", 2), ("b", 1)]);
        let row = engine.to_dense(&config).unwrap();
        let mut out = Vec::new();
        for (index, t) in net.transitions().iter().enumerate() {
            let sparse_next = t.fire(&config);
            let fired = engine.transitions()[index].fire_row(&row, &mut out);
            assert_eq!(
                fired,
                sparse_next.is_some(),
                "enabledness differs at {index}"
            );
            if let Some(next) = sparse_next {
                assert_eq!(engine.to_sparse(&out), next, "successor differs at {index}");
            }
        }
        assert_eq!(engine.enabled_row(&row), net.enabled_transitions(&config));
    }

    #[test]
    fn in_place_firing_tracks_totals() {
        let net = sample_net();
        let engine = CompiledNet::compile(&net);
        let mut config = engine.dense_config(&ms(&[("a", 3)]));
        assert_eq!(config.total(), 3);
        engine.transitions()[0].fire(&mut config);
        assert_eq!(engine.to_multiset(&config), ms(&[("a", 2), ("b", 1)]));
        assert_eq!(config.total(), 3);
        engine.transitions()[2].fire(&mut config);
        assert_eq!(config.total(), 4); // b -> 2c creates an agent
        assert_eq!(config.get(2), 2);
    }

    #[test]
    fn compiled_pre_post_match_the_net() {
        let net = sample_net();
        let engine = CompiledNet::compile(&net);
        // t0: a+a -> a+b over indices a=0, b=1.
        assert_eq!(engine.transitions()[0].pre(), &[(0, 2)]);
        assert_eq!(engine.transitions()[0].post(), &[(0, 1), (1, 1)]);
        // t2: b -> 2c creates an agent.
        assert_eq!(engine.transitions()[2].pre(), &[(1, 1)]);
        assert_eq!(engine.transitions()[2].post(), &[(2, 2)]);
    }

    #[test]
    fn instance_counts() {
        let net = PetriNet::from_transitions([Transition::pairwise("a", "b", "b", "b")]);
        let engine = CompiledNet::compile(&net);
        let config = engine.dense_config(&ms(&[("a", 3), ("b", 2)]));
        assert_eq!(engine.transitions()[0].instances(&config), 6);
    }

    #[test]
    fn width_selection_rule() {
        // Non-increasing pairwise net: the bound is the initial total.
        let net = PetriNet::from_transitions([Transition::pairwise("a", "b", "b", "b")]);
        let engine = CompiledNet::compile(&net);
        assert_eq!(engine.max_step_creation(), 0);
        let budget = 250_000usize;
        let w = |total, cap| engine.row_layout(total, cap, budget).uniform_width();
        assert_eq!(w(10, None), CellWidth::U8);
        assert_eq!(w(255, None), CellWidth::U8);
        assert_eq!(w(256, None), CellWidth::U16);
        assert_eq!(w(1 << 40, None), CellWidth::U64);
        // An agent-creating net (b -> 2c): bounded by the node budget
        // without a cap, and capped runs get creation headroom for
        // fired-but-refused rows.
        let mut engine = CompiledNet::compile(&sample_net());
        assert_eq!(engine.max_step_creation(), 1);
        let w = |total, cap| engine.row_layout(total, cap, budget).uniform_width();
        assert_eq!(w(10, None), CellWidth::U32, "10 + 1 x 250000 needs u32");
        assert_eq!(w(10, Some(254)), CellWidth::U8);
        assert_eq!(w(10, Some(255)), CellWidth::U16, "cap + creation = 256");
        let tiny = |total, budget| engine.row_layout(total, None, budget).uniform_width();
        assert_eq!(tiny(10, 200), CellWidth::U8, "10 + 1 x 200 fits a byte");
        assert_eq!(tiny(10, 246), CellWidth::U16, "10 + 1 x 246 overflows it");
        assert_eq!(
            tiny(10, usize::MAX),
            CellWidth::U64,
            "the id-space clamp keeps the budget bound finite but wide"
        );
        // An unpacked engine always gets the uncompressed reference layout.
        engine.packed = false;
        let layout = engine.row_layout(10, Some(254), budget);
        assert_eq!(layout.uniform_width(), CellWidth::U64);
    }

    #[test]
    fn layout_covers_transition_constants() {
        // A net whose transition constant (300) exceeds the initial
        // total: the layout must still represent the constant so packed
        // transition compilation cannot overflow a cell.
        let net =
            PetriNet::from_transitions([Transition::new(ms(&[("a", 300)]), ms(&[("b", 300)]))]);
        let engine = CompiledNet::compile(&net);
        let layout = engine.row_layout(2, None, 1_000);
        assert_eq!(layout.uniform_width(), CellWidth::U16);
        let packed = engine.packed_transitions(&layout);
        assert_eq!(packed.len(), 1);
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(10, 10), 1);
        assert_eq!(binomial(7, 3), 35);
    }

    #[test]
    fn binomial_fast_paths_match_the_product_at_the_edges() {
        for n in [0, 1, 2, 3, u64::MAX - 1, u64::MAX] {
            for k in 0..=2 {
                assert_eq!(binomial(n, k), binomial_product(n, k), "C({n}, {k})");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn binomial_fast_paths_match_the_product(n in proptest::prelude::any::<u64>(), small in 0u64..64, k in 0u64..=2) {
            proptest::prop_assert_eq!(binomial(n, k), binomial_product(n, k));
            proptest::prop_assert_eq!(binomial(small, k), binomial_product(small, k));
        }
    }
}
