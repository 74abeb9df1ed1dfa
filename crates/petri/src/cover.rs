//! Coverability: forward bounded search and the exact backward algorithm.
//!
//! A configuration `ρ` is *`T`-coverable* from `α` if `α →* β ≥ ρ` for some
//! `β` (Section 5 of the paper). Coverability drives the characterization of
//! stabilized configurations (Lemma 5.4), so the suite provides two decision
//! procedures:
//!
//! * [`CoverabilityOracle`] — the classical backward algorithm over
//!   upward-closed sets. It is exact, requires no budget (termination follows
//!   from Dickson's lemma) and is the workhorse of the
//!   [`stabilized`](crate::stabilized) module.
//! * [`Analysis::covering_word`] — a budgeted forward breadth-first search
//!   that returns an explicit *shortest* covering word, used by experiment
//!   E5 to compare actual covering-word lengths against Rackoff's bound
//!   (Lemma 5.3). The [`CoveringWordOutcome`] distinguishes an exhaustive
//!   negative answer from a truncated search, so the BFS terminates
//!   meaningfully on uncoverable targets of unbounded nets.
//!
//! The backward algorithm expands only the minimal elements it still
//! holds: a candidate that drops out of the basis before its turn is never
//! expanded, because the backward-cover image is monotone (`c ≤ r` gives
//! `pre_t(c) ≤ pre_t(r)`), so the row that replaced it covers its images.
//! The merge is inherently ordered and image generation is cheap, so the
//! saturation has one sequential path.
//!
//! [`Analysis::covering_word`]: crate::session::Analysis::covering_word

use crate::arena::{ConfigArena, Entry};
use crate::engine::CompiledNet;
use crate::packed::{row_le_words, CellWidth, RowLayout};
use crate::{ExplorationLimits, PetriNet};
use pp_multiset::Multiset;
use std::collections::VecDeque;
use std::sync::Arc;

/// Component-wise `a ≤ b` on dense rows of equal width.
fn row_le(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// The `index`-th row of a flat store of `stride`-word rows.
fn stored_row(store: &[u64], stride: usize, index: usize) -> &[u64] {
    &store[index * stride..(index + 1) * stride]
}

/// The cell width a backward saturation starts at: the narrowest one
/// fitting the target and the transition constants. An engine with packing
/// off runs on u64 cells from the start — the layout bit-identical to the
/// historical dense rows.
fn initial_width<P: Clone + Ord>(engine: &CompiledNet<P>, dense_target: &[u64]) -> CellWidth {
    if !engine.packed {
        return CellWidth::U64;
    }
    CellWidth::fitting(
        dense_target
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(engine.max_transition_count()),
    )
}

/// One full backward saturation at a fixed cell `width`, returning the
/// minimal basis as dense count rows — or `None` as soon as any candidate
/// overflows a lane, the caller's cue to retry one width wider. The basis
/// is the unique minimal one of the backward-reachable upward-closed set,
/// so a restart at a wider width reproduces exactly the same counts.
///
/// Every kept candidate is appended to a flat row store and never moved;
/// `live[i]` says whether row `i` is still in the basis, and the basis is
/// a list of store indices. The frontier is the store past the `next`
/// cursor, so rows are expanded in insertion order — each at most once,
/// and only while live (a row's own image can retire it mid-expansion, so
/// the flag is checked before every transition). Skipping retired rows is
/// sound because the backward-cover image is monotone: `c ≤ r` gives
/// `pre_t(c) ≤ pre_t(r)` for every `t`, and the row `c` that retired `r`
/// is itself in the frontier or dominated by a row that is.
fn saturate<P: Clone + Ord>(
    engine: &CompiledNet<P>,
    dense_target: &[u64],
    width: CellWidth,
) -> Option<Vec<Vec<u64>>> {
    let layout = RowLayout::uniform(dense_target.len(), width);
    let stride = layout.words_per_row();
    let transitions = engine.packed_transitions(&layout);
    let mut store = layout.pack(dense_target);
    let mut live = vec![true];
    let mut basis: Vec<usize> = vec![0];
    let mut candidate = Vec::with_capacity(stride);
    let mut next = 0;
    while next < live.len() {
        let source = next;
        next += 1;
        for t in &transitions {
            if !live[source] {
                break;
            }
            let row = stored_row(&store, stride, source);
            if !t.backward_cover_words(row, &mut candidate) {
                return None;
            }
            // The live source row is a basis element: test it first, since
            // it dominates most of its own images.
            if row_le_words(row, &candidate, width)
                || basis
                    .iter()
                    .any(|&b| row_le_words(stored_row(&store, stride, b), &candidate, width))
            {
                continue;
            }
            basis.retain(|&b| {
                let dominated = row_le_words(&candidate, stored_row(&store, stride, b), width);
                if dominated {
                    live[b] = false;
                }
                !dominated
            });
            basis.push(live.len());
            live.push(true);
            store.extend_from_slice(&candidate);
        }
    }
    Some(
        basis
            .iter()
            .map(|&b| layout.unpack(stored_row(&store, stride, b)))
            .collect(),
    )
}

/// Exact coverability decisions via the backward algorithm.
///
/// The oracle is built for a fixed net and target configuration; it computes
/// the finite basis of the upward-closed set `{α : α →* β ≥ target}` once and
/// then answers [`CoverabilityOracle::is_coverable_from`] queries by a simple
/// comparison against the basis.
///
/// # Examples
///
/// ```
/// use pp_multiset::Multiset;
/// use pp_petri::{Analysis, PetriNet, Transition};
///
/// // a + a -> a + b: covering one b needs at least two a (or a b already).
/// let net = PetriNet::from_transitions([Transition::pairwise("a", "a", "a", "b")]);
/// let oracle = Analysis::new(&net).coverability(Multiset::unit("b")).run();
/// assert!(oracle.is_coverable_from(&Multiset::from_pairs([("a", 2u64)])));
/// assert!(!oracle.is_coverable_from(&Multiset::from_pairs([("a", 1u64)])));
/// ```
#[derive(Debug, Clone)]
pub struct CoverabilityOracle<P: Ord> {
    target: Multiset<P>,
    basis: Vec<Multiset<P>>,
    engine: Arc<CompiledNet<P>>,
    dense_basis: Vec<Vec<u64>>,
}

impl<P: Clone + Ord> CoverabilityOracle<P> {
    /// Runs the backward saturation on an already-compiled engine — the
    /// session entry point ([`Analysis`](crate::session::Analysis) owns the
    /// shared engine). The target must fit the engine's place universe.
    ///
    /// The basis is grown as packed rows with SWAR word arithmetic (lanes
    /// promoted to the next wider cell on overflow). Kept rows are expanded
    /// once each, in the order they were found, and only while they are
    /// still minimal: a row dominated by a later find is skipped, since by
    /// monotonicity of the backward-cover image its dominator's images
    /// cover its own. The result is the unique minimal basis of the
    /// backward-reachable upward-closed set, stored in lexicographic row
    /// order, so it does not depend on the expansion order or cell width.
    pub(crate) fn build_on(engine: Arc<CompiledNet<P>>, target: Multiset<P>) -> Self {
        let dense_target = engine
            .to_dense(&target)
            .expect("target support is part of the compiled universe");
        // Backward candidates are not bounded by any forward reachability
        // bound, so the saturation retries one width wider whenever a
        // candidate overflows a lane.
        let mut width = initial_width(&engine, &dense_target);
        let mut dense_basis = loop {
            match saturate(&engine, &dense_target, width) {
                Some(basis) => break basis,
                None => {
                    width = width
                        .widen()
                        .expect("a u64 lane cannot overflow in backward cover");
                }
            }
        };
        // Canonical order: makes the basis comparable across cell widths
        // (packed word order is not count order).
        dense_basis.sort_unstable();
        let basis = dense_basis
            .iter()
            .map(|row| engine.to_sparse(row))
            .collect();
        CoverabilityOracle {
            target,
            basis,
            engine,
            dense_basis,
        }
    }

    /// The target configuration of the oracle.
    #[must_use]
    pub fn target(&self) -> &Multiset<P> {
        &self.target
    }

    /// The minimal configurations from which the target is coverable.
    #[must_use]
    pub fn basis(&self) -> &[Multiset<P>] {
        &self.basis
    }

    /// Returns `true` if the target is coverable from `config`.
    ///
    /// Places of `config` outside the compiled universe are ignored: no
    /// basis element populates them, so they never block a cover.
    #[must_use]
    pub fn is_coverable_from(&self, config: &Multiset<P>) -> bool {
        let row = self.engine.to_dense_lossy(config);
        self.dense_basis.iter().any(|b| row_le(b, &row))
    }
}

/// Forward coverability: returns `true` if `target` is coverable from `from`.
///
/// This is an exact decision (it delegates to the backward algorithm);
/// query [`Analysis::covering_word`](crate::session::Analysis::covering_word)
/// when the witness word itself is needed, or
/// [`Analysis::coverability`](crate::session::Analysis::coverability) to
/// keep (and reuse) the oracle.
#[must_use]
pub fn is_coverable<P: Clone + Ord>(
    net: &PetriNet<P>,
    from: &Multiset<P>,
    target: &Multiset<P>,
) -> bool {
    crate::session::Analysis::new(net)
        .coverability(target.clone())
        .run()
        .is_coverable_from(from)
}

/// The result of a budgeted forward covering-word search.
///
/// The forward BFS of [`Analysis::covering_word`] must not loop forever on
/// *uncoverable* targets of unbounded nets, so the exploration budget is
/// threaded through it — and the outcome says explicitly whether the
/// negative answer is exact or an artifact of truncation.
///
/// [`Analysis::covering_word`]: crate::session::Analysis::covering_word
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoveringWordOutcome {
    /// A shortest covering word (empty when `from` already covers the
    /// target).
    Covered(Vec<usize>),
    /// The search exhausted the full reachable space without covering the
    /// target: the target is definitely not coverable from `from`.
    NotCoverable,
    /// The search hit an exploration limit before settling the question.
    Truncated,
}

impl CoveringWordOutcome {
    /// The covering word, if one was found.
    #[must_use]
    pub fn into_word(self) -> Option<Vec<usize>> {
        match self {
            CoveringWordOutcome::Covered(word) => Some(word),
            CoveringWordOutcome::NotCoverable | CoveringWordOutcome::Truncated => None,
        }
    }
}

/// The budgeted forward covering-word BFS on an already-compiled engine —
/// the session entry point ([`Analysis::covering_word`] runs here). `from`
/// and `target` must fit the engine's place universe; the trivial-cover
/// fast path (`target ≤ from` ⇒ empty word) is the caller's.
///
/// The search is budgeted by `limits` at every step — configurations are
/// only interned while the budget allows — and prunes only identical
/// configurations, which is sufficient for the small nets of the
/// experiments. Lemma 5.3 (Rackoff) bounds the length of a shortest
/// covering word by `(‖target‖∞ + ‖T‖∞)^(|P|^|P|)`; experiment E5 compares
/// the two.
///
/// [`Analysis::covering_word`]: crate::session::Analysis::covering_word
pub(crate) fn forward_covering_word<P: Clone + Ord>(
    engine: &CompiledNet<P>,
    from: &Multiset<P>,
    target: &Multiset<P>,
    limits: &ExplorationLimits,
) -> CoveringWordOutcome {
    if target.le(from) {
        return CoveringWordOutcome::Covered(Vec::new());
    }
    let dense_from = engine
        .to_dense(from)
        .expect("source support is part of the compiled universe");
    let dense_target = engine
        .to_dense(target)
        .expect("target support is part of the compiled universe");

    // The BFS stores the same rows a forward exploration would, so it
    // reuses the exploration width rule — widened to fit the target's
    // cells, so the packed cover compare below is exact.
    let width = engine
        .row_layout(
            dense_from.iter().sum(),
            limits.max_agents,
            limits.effective_max_configurations(),
        )
        .uniform_width()
        .max(CellWidth::fitting(
            dense_target.iter().copied().max().unwrap_or(0),
        ));
    let layout = RowLayout::uniform(engine.num_places(), width);
    let transitions = engine.packed_transitions(&layout);
    let packed_target = layout.pack(&dense_target);
    let packed_from = layout.pack(&dense_from);

    let mut arena = ConfigArena::with_layout(layout);
    // Per node: (parent id, transition fired from the parent).
    let mut parents: Vec<(usize, usize)> = Vec::new();
    let reconstruct = |parents: &[(usize, usize)], mut id: usize| {
        let mut word = Vec::new();
        while id != 0 {
            let (parent, transition) = parents[id];
            word.push(transition);
            id = parent;
        }
        word.reverse();
        word
    };

    let root = arena.intern(&packed_from);
    parents.push((0, usize::MAX));
    let mut truncated = false;
    let mut queue: VecDeque<(usize, usize)> = VecDeque::from([(root.index(), 0)]);
    let mut src = Vec::new();
    let mut succ = Vec::new();
    while let Some((id, depth)) = queue.pop_front() {
        if let Some(max_depth) = limits.max_depth {
            if depth >= max_depth {
                truncated = true;
                continue;
            }
        }
        if let Some(max_agents) = limits.max_agents {
            if arena.total(crate::arena::ConfigId(id as u32)) > max_agents {
                truncated = true;
                continue;
            }
        }
        src.clear();
        src.extend_from_slice(arena.row(crate::arena::ConfigId(id as u32)));
        for (t, transition) in transitions.iter().enumerate() {
            if !transition.is_enabled_words(&src) {
                continue;
            }
            transition.fire_words(&src, &mut succ);
            // Cover check first: it needs no interning, so a cover found
            // at the exact budget boundary is still reported. (A covering
            // successor can never be a dedup hit — interned configurations
            // were all checked when first produced.)
            if row_le_words(&packed_target, &succ, width) {
                let mut word = reconstruct(&parents, id);
                word.push(t);
                return CoveringWordOutcome::Covered(word);
            }
            let succ_id = match arena.entry(&succ) {
                Entry::Occupied(_) => continue,
                Entry::Vacant(vacant)
                    if vacant.next_id() >= limits.effective_max_configurations() =>
                {
                    // Every already-interned configuration was cover-checked
                    // above when first produced, so once the budget blocks
                    // new interns no cover can ever be found: stop
                    // immediately.
                    return CoveringWordOutcome::Truncated;
                }
                Entry::Vacant(vacant) => vacant.insert().index(),
            };
            parents.push((id, t));
            queue.push_back((succ_id, depth + 1));
        }
    }
    if truncated {
        CoveringWordOutcome::Truncated
    } else {
        CoveringWordOutcome::NotCoverable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Analysis;
    use crate::Transition;

    fn ms(pairs: &[(&'static str, u64)]) -> Multiset<&'static str> {
        Multiset::from_pairs(pairs.iter().copied())
    }

    /// One-shot oracle through the session API.
    fn oracle(
        net: &PetriNet<&'static str>,
        target: Multiset<&'static str>,
    ) -> CoverabilityOracle<&'static str> {
        Analysis::new(net)
            .coverability(target)
            .run()
            .as_ref()
            .clone()
    }

    /// One-shot budgeted covering-word search through the session API.
    fn word_outcome(
        net: &PetriNet<&'static str>,
        from: &Multiset<&'static str>,
        target: &Multiset<&'static str>,
        limits: &ExplorationLimits,
    ) -> CoveringWordOutcome {
        Analysis::new(net)
            .covering_word(from.clone(), target.clone())
            .limits(*limits)
            .run()
    }

    /// The word alone.
    fn shortest_word(
        net: &PetriNet<&'static str>,
        from: &Multiset<&'static str>,
        target: &Multiset<&'static str>,
        limits: &ExplorationLimits,
    ) -> Option<Vec<usize>> {
        word_outcome(net, from, target, limits).into_word()
    }

    /// The Petri net of Example 4.2 of the paper (6 places, width 2).
    fn example_4_2_net() -> PetriNet<&'static str> {
        PetriNet::from_transitions([
            Transition::pairwise("i", "i_bar", "p", "q"),
            Transition::pairwise("p_bar", "i", "p", "i"),
            Transition::pairwise("p", "i_bar", "p_bar", "i_bar"),
            Transition::pairwise("q_bar", "i", "q", "i"),
            Transition::pairwise("q", "i_bar", "q_bar", "i_bar"),
            Transition::pairwise("p", "q_bar", "p", "q"),
            Transition::pairwise("q", "p_bar", "q", "p"),
        ])
    }

    /// Merges one packed candidate into the basis under the minimality
    /// filter, recording kept candidates in `next` (the following round's
    /// frontier).
    fn merge_candidate(
        basis: &mut Vec<Vec<u64>>,
        next: &mut Vec<Vec<u64>>,
        candidate: &[u64],
        width: CellWidth,
    ) {
        if basis.iter().any(|b| row_le_words(b, candidate, width)) {
            return;
        }
        basis.retain(|b| !row_le_words(candidate, b, width));
        basis.push(candidate.to_vec());
        next.push(candidate.to_vec());
    }

    /// The reference saturation: round by round, every row kept in a round
    /// is expanded in the next one, whether or not it is still in the
    /// basis. `None` on a lane overflow.
    fn reference_saturate(
        engine: &CompiledNet<u8>,
        dense_target: &[u64],
        width: CellWidth,
    ) -> Option<Vec<Vec<u64>>> {
        let layout = RowLayout::uniform(dense_target.len(), width);
        let transitions = engine.packed_transitions(&layout);
        let packed_target = layout.pack(dense_target);
        let mut basis = vec![packed_target.clone()];
        let mut frontier = vec![packed_target];
        let mut predecessor = Vec::new();
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for row in &frontier {
                for t in &transitions {
                    if !t.backward_cover_words(row, &mut predecessor) {
                        return None;
                    }
                    merge_candidate(&mut basis, &mut next, &predecessor, width);
                }
            }
            frontier = next;
        }
        Some(basis.iter().map(|row| layout.unpack(row)).collect())
    }

    /// The reference basis as sorted dense rows, widening the cells on
    /// overflow from the same starting width as the oracle. The flag says
    /// whether a restart happened.
    fn reference_basis(engine: &CompiledNet<u8>, target: &Multiset<u8>) -> (Vec<Vec<u64>>, bool) {
        let dense_target = engine.to_dense(target).expect("target fits the engine");
        let mut width = initial_width(engine, &dense_target);
        let mut widened = false;
        loop {
            if let Some(mut basis) = reference_saturate(engine, &dense_target, width) {
                basis.sort_unstable();
                return (basis, widened);
            }
            width = width.widen().expect("a u64 lane cannot overflow");
            widened = true;
        }
    }

    /// The live-only oracle and the reference on one engine for `target`,
    /// packed and with `u64` cells; returns whether the packed reference
    /// restarted.
    fn assert_matches_reference(net: &PetriNet<u8>, target: &Multiset<u8>) -> bool {
        let packed = Arc::new(CompiledNet::compile_with_places(
            net,
            target.support().copied(),
        ));
        let mut wide = packed.as_ref().clone();
        wide.packed = false;
        let (reference, widened) = reference_basis(&packed, target);
        let (wide_reference, _) = reference_basis(&wide, target);
        assert_eq!(reference, wide_reference, "reference depends on packing");
        for engine in [packed, Arc::new(wide)] {
            let oracle = CoverabilityOracle::build_on(engine.clone(), target.clone());
            assert_eq!(
                oracle.dense_basis, reference,
                "packed = {}, target {target:?}",
                engine.packed
            );
        }
        widened
    }

    /// Small nets with counts 1–2, plus one large `pre` count (150–250) on
    /// one transition: a U8 lane overflows once a backward image adds it to
    /// a nonzero count, so the restart runs, while the basis stays small.
    fn arb_net_and_target() -> impl proptest::prelude::Strategy<Value = (PetriNet<u8>, Multiset<u8>)>
    {
        use proptest::collection::{btree_map, vec};
        use proptest::prelude::Strategy;
        (2u8..=5).prop_flat_map(|places| {
            let transition = (
                btree_map(0..places, 1u64..3, 1..3),
                btree_map(0..places, 1u64..3, 1..3),
            );
            (
                vec(transition, 1..7),
                (0usize..6, 0..places, 150u64..=250),
                btree_map(0..places, 1u64..=3, 1..3),
            )
                .prop_map(|(mut transitions, (at, place, large), target)| {
                    let at = at % transitions.len();
                    transitions[at].0.insert(place, large);
                    let net =
                        PetriNet::from_transitions(transitions.into_iter().map(|(pre, post)| {
                            Transition::new(Multiset::from_pairs(pre), Multiset::from_pairs(post))
                        }));
                    (net, Multiset::from_pairs(target))
                })
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn live_only_saturation_matches_the_reference((net, target) in arb_net_and_target()) {
            assert_matches_reference(&net, &target);
            let oracle = Analysis::new(&net).coverability(target.clone()).run();
            let basis = oracle.basis();
            for (i, a) in basis.iter().enumerate() {
                for (j, b) in basis.iter().enumerate() {
                    proptest::prop_assert!(i == j || !a.le(b), "{a:?} ≤ {b:?}");
                }
                for t in net.transitions() {
                    let image = t.fire_backward_cover(a);
                    proptest::prop_assert!(
                        basis.iter().any(|e| e.le(&image)),
                        "image {image:?} of {a:?} is not covered"
                    );
                }
            }
        }
    }

    #[test]
    fn width_restart_matches_the_reference() {
        // 250 b at U8, and every backward step trades one b for 200 a: the
        // second image needs 400 a, so the U8 saturation overflows.
        let net = PetriNet::from_transitions([Transition::new(
            Multiset::from_pairs([(0u8, 200)]),
            Multiset::unit(1),
        )]);
        let target = Multiset::from_pairs([(1u8, 250)]);
        let engine = CompiledNet::compile(&net);
        let dense_target = engine.to_dense(&target).expect("target fits the engine");
        let width = initial_width(&engine, &dense_target);
        assert_eq!(width, CellWidth::U8);
        assert!(saturate(&engine, &dense_target, width).is_none());
        assert!(assert_matches_reference(&net, &target), "no restart");
        // 250 b, 249 b + 200 a, …, 50 000 a.
        assert_eq!(
            Analysis::new(&net).coverability(target).run().basis().len(),
            251
        );
    }

    #[test]
    fn backward_oracle_simple_net() {
        let net = PetriNet::from_transitions([Transition::pairwise("a", "a", "a", "b")]);
        let oracle = oracle(&net, ms(&[("b", 2)]));
        // Minimal configurations covering 2b: {2b}, {b + 2a}, {3a}.
        assert!(oracle.is_coverable_from(&ms(&[("a", 3)])));
        assert!(oracle.is_coverable_from(&ms(&[("a", 2), ("b", 1)])));
        assert!(oracle.is_coverable_from(&ms(&[("b", 2)])));
        assert!(!oracle.is_coverable_from(&ms(&[("a", 2)])));
        assert!(!oracle.is_coverable_from(&ms(&[("a", 1), ("b", 1)])));
        assert_eq!(oracle.basis().len(), 3);
        assert_eq!(oracle.target(), &ms(&[("b", 2)]));
    }

    #[test]
    fn oracle_handles_unreachable_targets() {
        let net = PetriNet::from_transitions([Transition::pairwise("a", "a", "a", "b")]);
        let oracle = oracle(&net, ms(&[("z", 1)]));
        // z is never produced: only configurations already containing z qualify.
        assert!(!oracle.is_coverable_from(&ms(&[("a", 100)])));
        assert!(oracle.is_coverable_from(&ms(&[("z", 1)])));
        assert_eq!(oracle.basis().len(), 1);
    }

    #[test]
    fn forward_and_backward_agree_on_example_4_2() {
        let net = example_4_2_net();
        let limits = ExplorationLimits::default();
        for (start, target) in [
            (ms(&[("i", 3), ("i_bar", 2)]), ms(&[("p", 1)])),
            (ms(&[("i", 1), ("i_bar", 2)]), ms(&[("p", 1), ("q", 1)])),
            (ms(&[("i_bar", 4)]), ms(&[("p", 1)])),
            (
                ms(&[("i", 2), ("i_bar", 2)]),
                ms(&[("p_bar", 1), ("q_bar", 1)]),
            ),
        ] {
            let backward = is_coverable(&net, &start, &target);
            let forward = shortest_word(&net, &start, &target, &limits).is_some();
            assert_eq!(
                backward, forward,
                "disagree on {start:?} covering {target:?}"
            );
        }
    }

    #[test]
    fn shortest_word_is_actually_shortest_and_valid() {
        let net = PetriNet::from_transitions([
            Transition::pairwise("a", "a", "a", "b"),
            Transition::pairwise("a", "b", "b", "b"),
        ]);
        let word = shortest_word(
            &net,
            &ms(&[("a", 3)]),
            &ms(&[("b", 3)]),
            &Default::default(),
        )
        .expect("coverable");
        assert_eq!(word.len(), 3);
        let reached = net.fire_word(&ms(&[("a", 3)]), &word).unwrap();
        assert!(ms(&[("b", 3)]).le(&reached));
    }

    #[test]
    fn trivially_covered_target_needs_empty_word() {
        let net = PetriNet::new();
        let word = shortest_word(
            &net,
            &ms(&[("a", 1)]),
            &ms(&[("a", 1)]),
            &Default::default(),
        );
        assert_eq!(word, Some(Vec::new()));
        let none = shortest_word(
            &net,
            &ms(&[("a", 1)]),
            &ms(&[("b", 1)]),
            &Default::default(),
        );
        assert_eq!(none, None);
    }

    #[test]
    fn covered_initial_configuration_yields_empty_word_even_with_transitions() {
        // Regression: the trivial-cover fast path must fire before any
        // exploration, even on nets that could loop, and even when the
        // initial configuration strictly exceeds the target.
        let net = PetriNet::from_transitions([Transition::new(
            ms(&[("a", 1)]),
            ms(&[("a", 1), ("b", 1)]),
        )]);
        let outcome = word_outcome(
            &net,
            &ms(&[("a", 2), ("b", 1)]),
            &ms(&[("a", 1)]),
            &ExplorationLimits::with_max_configurations(1),
        );
        assert_eq!(outcome, CoveringWordOutcome::Covered(Vec::new()));
        assert_eq!(outcome.clone().into_word(), Some(Vec::new()));
    }

    #[test]
    fn cover_found_at_the_budget_boundary_is_still_reported() {
        // One config (the root) exhausts the budget; the very next fired
        // successor covers the target. The cover check needs no interning,
        // so the word must be found, not reported as truncated.
        let net = PetriNet::from_transitions([Transition::new(ms(&[("a", 1)]), ms(&[("b", 1)]))]);
        let outcome = word_outcome(
            &net,
            &ms(&[("a", 1)]),
            &ms(&[("b", 1)]),
            &ExplorationLimits::with_max_configurations(1),
        );
        assert_eq!(outcome, CoveringWordOutcome::Covered(vec![0]));
    }

    #[test]
    fn exhausted_search_reports_not_coverable() {
        // Bounded net, uncoverable target: the BFS drains and the negative
        // answer is exact.
        let net = PetriNet::from_transitions([Transition::pairwise("a", "a", "a", "b")]);
        let outcome = word_outcome(
            &net,
            &ms(&[("a", 2)]),
            &ms(&[("b", 2)]),
            &ExplorationLimits::default(),
        );
        assert_eq!(outcome, CoveringWordOutcome::NotCoverable);
        assert_eq!(outcome.into_word(), None);
    }

    #[test]
    fn uncoverable_target_of_unbounded_net_terminates_as_truncated() {
        // a -> a + b grows without bound and c is never produced: the
        // budgeted BFS must stop at the configuration budget and say that
        // the negative answer is truncated, not exact.
        let net = PetriNet::from_transitions([Transition::new(
            ms(&[("a", 1)]),
            ms(&[("a", 1), ("b", 1)]),
        )]);
        let outcome = word_outcome(
            &net,
            &ms(&[("a", 1)]),
            &ms(&[("c", 1)]),
            &ExplorationLimits::with_max_configurations(50),
        );
        assert_eq!(outcome, CoveringWordOutcome::Truncated);
        // The agent budget is threaded through as well.
        let outcome = word_outcome(
            &net,
            &ms(&[("a", 1)]),
            &ms(&[("c", 1)]),
            &ExplorationLimits::with_max_agents(5),
        );
        assert_eq!(outcome, CoveringWordOutcome::Truncated);
        // And the depth budget.
        let limits = ExplorationLimits {
            max_depth: Some(3),
            ..Default::default()
        };
        let outcome = word_outcome(&net, &ms(&[("a", 1)]), &ms(&[("c", 1)]), &limits);
        assert_eq!(outcome, CoveringWordOutcome::Truncated);
    }

    #[test]
    fn covering_word_in_prebuilt_graph() {
        let net = example_4_2_net();
        let start = ms(&[("i", 2), ("i_bar", 2)]);
        let word = Analysis::new(&net)
            .covering_word(start.clone(), ms(&[("q", 1)]))
            .in_reachability_graph()
            .run()
            .into_word()
            .expect("coverable");
        let reached = net.fire_word(&start, &word).unwrap();
        assert!(ms(&[("q", 1)]).le(&reached));
    }

    #[test]
    fn non_conservative_net_with_creation() {
        // A single agent can spawn unboundedly many b's: b^k coverable for all k.
        let net = PetriNet::from_transitions([Transition::new(
            ms(&[("a", 1)]),
            ms(&[("a", 1), ("b", 1)]),
        )]);
        let oracle = oracle(&net, ms(&[("b", 5)]));
        assert!(oracle.is_coverable_from(&ms(&[("a", 1)])));
        assert!(!oracle.is_coverable_from(&ms(&[("b", 4)])));
        let word = shortest_word(
            &net,
            &ms(&[("a", 1)]),
            &ms(&[("b", 5)]),
            &ExplorationLimits::default(),
        )
        .expect("coverable");
        assert_eq!(word.len(), 5);
    }
}
