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
//! The oracle and the exploration underlying it accept a [`Parallelism`]
//! knob; results are identical across modes.
//!
//! [`Analysis::covering_word`]: crate::session::Analysis::covering_word

use crate::arena::{ConfigArena, Entry};
use crate::engine::CompiledNet;
use crate::packed::{row_le_words, CellWidth, PackedTransition, RowLayout};
use crate::parallel::Parallelism;
use crate::{ExplorationLimits, PetriNet};
use pp_multiset::Multiset;
use rayon::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// Component-wise `a ≤ b` on dense rows of equal width.
fn row_le(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// The packed backward-cover images of `rows` under every transition, in
/// (row-major, transition-minor) order — the deterministic candidate order
/// of one saturation round of the backward algorithm. A `None`
/// entry marks a candidate whose count overflowed the current cell width;
/// one is enough to restart the whole saturation a width wider. Takes the
/// packed transitions rather than the whole engine so worker threads need
/// no bounds on the place type.
fn backward_images(transitions: &[PackedTransition], rows: &[Vec<u64>]) -> Vec<Option<Vec<u64>>> {
    let mut out = Vec::with_capacity(rows.len() * transitions.len());
    let mut predecessor = Vec::new();
    for row in rows {
        for t in transitions {
            if t.backward_cover_words(row, &mut predecessor) {
                out.push(Some(predecessor.clone()));
            } else {
                out.push(None);
            }
        }
    }
    out
}

/// Merges one packed backward-cover candidate into the basis under the
/// minimality filter, recording kept candidates in `next` (the following
/// round's frontier). One call per candidate, in the canonical
/// (row-major, transition-minor) order, is what makes the saturation
/// deterministic across build modes. The dominance tests run as SWAR
/// word compares ([`row_le_words`]), the hot loop of the whole backward
/// algorithm.
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

/// One full backward saturation at a fixed cell `width`, returning the
/// minimal basis as packed rows — or `None` as soon as any candidate
/// overflows a lane, the caller's cue to retry one width wider. The basis
/// is the unique minimal one of the backward-reachable upward-closed set,
/// so a restart at a wider width reproduces exactly the same counts.
fn saturate<P: Clone + Ord>(
    engine: &CompiledNet<P>,
    dense_target: &[u64],
    width: CellWidth,
    workers: usize,
) -> Option<Vec<Vec<u64>>> {
    /// Fan out candidate generation once the round holds this many
    /// (row × transition) pairs; below it, thread spawns would dominate.
    const PARALLEL_CANDIDATE_THRESHOLD: usize = 256;

    let layout = RowLayout::uniform(dense_target.len(), width);
    let transitions = engine.packed_transitions(&layout);
    let packed_target = layout.pack(dense_target);
    // Minimal basis of the upward closure, grown backwards to fixpoint.
    let mut basis: Vec<Vec<u64>> = vec![packed_target.clone()];
    let mut frontier: Vec<Vec<u64>> = vec![packed_target];
    while !frontier.is_empty() {
        let pairs = frontier.len() * transitions.len();
        let mut next: Vec<Vec<u64>> = Vec::new();
        if workers > 1 && pairs >= PARALLEL_CANDIDATE_THRESHOLD {
            let candidates: Vec<Option<Vec<u64>>> = frontier
                .par_chunks(frontier.len().div_ceil(workers))
                .map(|rows| backward_images(&transitions, rows))
                .collect::<Vec<_>>()
                .into_iter()
                .flatten()
                .collect();
            for candidate in &candidates {
                merge_candidate(&mut basis, &mut next, candidate.as_deref()?, width);
            }
        } else {
            // Sequential path: one reused buffer, no per-candidate
            // allocation for the (many) immediately-dominated images.
            let mut predecessor = Vec::new();
            for row in &frontier {
                for t in &transitions {
                    if !t.backward_cover_words(row, &mut predecessor) {
                        return None;
                    }
                    merge_candidate(&mut basis, &mut next, &predecessor, width);
                }
            }
        }
        frontier = next;
    }
    Some(basis)
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
    /// promoted to the next wider cell on overflow), saturating round by
    /// round (every basis row discovered in round `k` has its backward
    /// images considered in round `k + 1`). With [`Parallelism::Parallel`]
    /// the candidate generation of each round fans out over worker
    /// threads; the minimality merge stays sequential and in a fixed order,
    /// so the basis is identical across modes and worker counts (it is the
    /// unique minimal basis of the backward-reachable upward-closed set,
    /// stored in lexicographic row order).
    pub(crate) fn build_on(
        engine: Arc<CompiledNet<P>>,
        target: Multiset<P>,
        parallelism: Parallelism,
    ) -> Self {
        let dense_target = engine
            .to_dense(&target)
            .expect("target support is part of the compiled universe");
        let workers = parallelism.workers();
        // Backward candidates are not bounded by any forward reachability
        // bound, so the saturation starts at the narrowest width fitting
        // the target and the transition constants and retries one width
        // wider whenever a candidate overflows a lane. An engine with
        // packing off runs on u64 cells from the start — the layout
        // bit-identical to the historical dense rows.
        let mut width = if engine.packed {
            CellWidth::fitting(
                dense_target
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(0)
                    .max(engine.max_transition_count()),
            )
        } else {
            CellWidth::U64
        };
        let packed_basis = loop {
            match saturate(&engine, &dense_target, width, workers) {
                Some(basis) => break basis,
                None => {
                    width = width
                        .widen()
                        .expect("a u64 lane cannot overflow in backward cover");
                }
            }
        };
        let layout = RowLayout::uniform(engine.num_places(), width);
        let mut dense_basis: Vec<Vec<u64>> =
            packed_basis.iter().map(|row| layout.unpack(row)).collect();
        // Canonical order: makes the basis comparable across build modes
        // (and across cell widths — packed word order is not count order).
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
            _ => None,
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
        .expect("exploration layouts are uniform")
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
    fn parallel_oracle_builds_the_same_basis() {
        use crate::parallel::Parallelism;
        let net = example_4_2_net();
        for target in [ms(&[("p", 1)]), ms(&[("p", 2), ("q", 1)]), ms(&[("z", 1)])] {
            let sequential = oracle(&net, target.clone());
            let parallel = Analysis::new(&net)
                .coverability(target.clone())
                .parallelism(Parallelism::Parallel(3))
                .run();
            assert_eq!(
                sequential.basis(),
                parallel.basis(),
                "bases differ for target {target:?}"
            );
        }
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
