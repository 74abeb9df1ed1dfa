//! The unified analysis session: one typed query facade over every
//! fixpoint engine of the crate.
//!
//! The paper's pipeline (Sections 5–8) runs *many* analyses over the *same*
//! net — stabilization, coverability, Karp–Miller boundedness, per-input
//! verification — and the serving-oriented consumers of this workspace do
//! the same at much higher query rates. The unit of serving is therefore a
//! long-lived [`Analysis`] session over a compiled net, not a one-shot free
//! function: the session compiles the [`PetriNet`] once (a shared
//! [`CompiledNet`] behind an [`Arc`]) and every query — forward
//! exploration, backward coverability, Karp–Miller trees, covering words —
//! runs on that shared substrate through a typed builder.
//!
//! ```
//! use pp_multiset::Multiset;
//! use pp_petri::{Analysis, ExplorationLimits, PetriNet, Transition};
//!
//! let net = PetriNet::from_transitions([Transition::pairwise("a", "a", "a", "b")]);
//! let mut analysis = Analysis::new(&net);
//! let start = Multiset::from_pairs([("a", 4u64)]);
//!
//! // Forward exploration, then an exact coverability query, on one compile.
//! let graph = analysis.reachability([start.clone()]).run();
//! assert!(graph.completion().is_complete());
//! let oracle = analysis.coverability(Multiset::from_pairs([("b", 2u64)])).run();
//! assert!(oracle.is_coverable_from(&start));
//! ```
//!
//! # Resumable budgets
//!
//! The session caches the last reachability graph per initial-configuration
//! set. When a later query *raises* the exploration budgets
//! ([`ExplorationLimits::dominates`]), the truncated graph is **extended in
//! place**: the interned arena and edge lists are reused and only the
//! unexpanded frontier re-expands ([`ReachabilityGraph::resume`]). The
//! extended graph is bit-identical (node numbering, edges, depths,
//! completion — [`ReachabilityGraph::identical_to`]) to a cold build at the
//! larger budget.
//!
//! ```
//! use pp_multiset::Multiset;
//! use pp_petri::{Analysis, Completion, ExplorationLimits, PetriNet, Transition};
//!
//! let net = PetriNet::from_transitions([
//!     Transition::pairwise("a", "a", "a", "b"),
//!     Transition::pairwise("a", "b", "b", "b"),
//! ]);
//! let mut analysis = Analysis::new(&net);
//! let start = Multiset::from_pairs([("a", 8u64)]);
//!
//! let truncated = analysis
//!     .reachability([start.clone()])
//!     .limits(ExplorationLimits::with_max_configurations(3))
//!     .run();
//! assert_eq!(truncated.completion(), Completion::ConfigBudget);
//!
//! // Raising the budget extends the same graph instead of rebuilding it.
//! let full = analysis.reachability([start]).run();
//! assert!(full.completion().is_complete());
//! assert_eq!(full.len(), 9);
//! ```
//!
//! # Ownership and borrowing
//!
//! Query results are returned as [`Arc`]s: the session keeps one reference
//! in its cache (so later queries can reuse or resume the result) and the
//! caller holds an independent one, free to outlive the session or travel
//! to another thread. Resuming uses [`Arc::make_mut`], so a resumed graph
//! is extended in place exactly when the caller has dropped its reference;
//! otherwise the session transparently clones first — never mutating a
//! graph someone else can observe.
//!
//! Cloning an [`Analysis`] is cheap: the compiled engine and every cached
//! result are shared. Fan-out consumers (e.g. `pp_population`'s verifier)
//! clone one session per worker so the net is compiled exactly once per
//! protocol instead of once per input.

use crate::cover::{forward_covering_word, CoverabilityOracle, CoveringWordOutcome};
use crate::engine::CompiledNet;
use crate::explore::{ExplorationLimits, ReachabilityGraph};
use crate::karp_miller::KarpMillerTree;
use crate::parallel::Parallelism;
use crate::PetriNet;
use pp_multiset::Multiset;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Why (and whether) a fixpoint stopped before exhausting its state space.
///
/// Every budgeted analysis of the crate reports its outcome through this
/// shared taxonomy instead of a bare boolean: a truncated result carries
/// *which* limit bit, so callers can decide whether raising that limit (a
/// [`resume`](ReachabilityGraph::resume) on sessions) could settle their
/// question.
///
/// When several limits bit during one build, the dominant one is reported,
/// in the fixed order configuration budget → agent cap → depth cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Completion {
    /// No limit was hit: the result is exact.
    Complete,
    /// The configuration (or Karp–Miller node) budget was exhausted.
    ConfigBudget,
    /// Some stored configuration exceeded the agent cap and was not
    /// expanded.
    AgentCap,
    /// Some stored configuration sat at the depth cap and was not expanded.
    DepthCap,
    /// The `u32` id space of the graph arena
    /// ([`MAX_GRAPH_CONFIGURATIONS`][max]) — not the caller's larger
    /// budget — was what actually bounded the build.
    ///
    /// [max]: crate::explore::MAX_GRAPH_CONFIGURATIONS
    IdSpace,
    /// A Karp–Miller branch's counters left the `u64` range; the branch was
    /// dropped (checked ω-arithmetic instead of a panic).
    OmegaOverflow,
}

impl Completion {
    /// Returns `true` if no limit was hit.
    #[must_use]
    pub fn is_complete(self) -> bool {
        matches!(self, Completion::Complete)
    }

    /// Returns `true` if some limit cut the analysis short.
    #[must_use]
    pub fn is_truncated(self) -> bool {
        !self.is_complete()
    }
}

impl fmt::Display for Completion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Completion::Complete => "complete",
            Completion::ConfigBudget => "truncated by the configuration budget",
            Completion::AgentCap => "truncated by the agent cap",
            Completion::DepthCap => "truncated by the depth cap",
            Completion::IdSpace => "truncated by the arena id space",
            Completion::OmegaOverflow => "truncated by an ω-counter overflow",
        })
    }
}

/// The cached reachability result of the most recent query, keyed by its
/// initial configurations.
#[derive(Clone)]
struct ReachCache<P: Ord> {
    initials: Vec<Multiset<P>>,
    graph: Arc<ReachabilityGraph<P>>,
}

/// The cached Karp–Miller result of the most recent query.
#[derive(Clone)]
struct KarpMillerCache<P: Ord> {
    initial: Multiset<P>,
    max_nodes: usize,
    tree: Arc<KarpMillerTree<P>>,
}

/// A long-lived analysis session over one compiled Petri net.
///
/// See the [module documentation](self) for the design; in short, the
/// session compiles the net once and every typed query
/// ([`reachability`](Self::reachability), [`coverability`](Self::coverability),
/// [`karp_miller`](Self::karp_miller), [`covering_word`](Self::covering_word))
/// runs on the shared engine, with results cached per query shape and
/// truncated reachability graphs resumed in place when budgets are raised.
pub struct Analysis<P: Ord> {
    net: PetriNet<P>,
    engine: Arc<CompiledNet<P>>,
    reach: Option<ReachCache<P>>,
    oracles: BTreeMap<Multiset<P>, Arc<CoverabilityOracle<P>>>,
    karp_miller: Option<KarpMillerCache<P>>,
}

impl<P: Clone + Ord> Clone for Analysis<P> {
    /// Cheap: the compiled engine and all cached results are shared.
    fn clone(&self) -> Self {
        Analysis {
            net: self.net.clone(),
            engine: self.engine.clone(),
            reach: self.reach.clone(),
            oracles: self.oracles.clone(),
            karp_miller: self.karp_miller.clone(),
        }
    }
}

impl<P: Clone + Ord + fmt::Debug> fmt::Debug for Analysis<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Analysis")
            .field("places", &self.engine.num_places())
            .field("transitions", &self.engine.num_transitions())
            .field("cached_reachability", &self.reach.is_some())
            .field("cached_oracles", &self.oracles.len())
            .field("cached_karp_miller", &self.karp_miller.is_some())
            .finish()
    }
}

impl<P: Clone + Ord> Analysis<P> {
    /// Opens a session over `net`, compiling it over its own place
    /// universe.
    ///
    /// Queries whose configurations mention places outside the universe
    /// still work — they transparently compile a widened one-off engine —
    /// but bypass the session caches; declare such places up front with
    /// [`with_places`](Self::with_places) to keep every query on the shared
    /// engine.
    #[must_use]
    pub fn new(net: &PetriNet<P>) -> Self {
        Self::with_places(net, std::iter::empty())
    }

    /// Opens a session over `net` with `extra_places` added to the compiled
    /// universe (isolated protocol states, coverability targets over fresh
    /// places).
    #[must_use]
    pub fn with_places<I: IntoIterator<Item = P>>(net: &PetriNet<P>, extra_places: I) -> Self {
        Analysis {
            net: net.clone(),
            engine: Arc::new(CompiledNet::compile_with_places(net, extra_places)),
            reach: None,
            oracles: BTreeMap::new(),
            karp_miller: None,
        }
    }

    /// Accepted for compatibility and ignored: every query of a session
    /// runs on one thread. Spend threads across independent work instead,
    /// as [`Batch::parallelism`](crate::batch::Batch::parallelism) does
    /// across jobs.
    #[must_use]
    pub fn parallelism(self, _parallelism: Parallelism) -> Self {
        self
    }

    /// Stores the rows of every query of this session in uncompressed
    /// `u64` cells instead of packing them at the proven width bound (the
    /// default). Results are bit-identical either way: this is the
    /// reference representation the packed fast path is checked against.
    /// Drops any cached results.
    #[must_use]
    pub fn u64_rows(mut self) -> Self {
        Arc::make_mut(&mut self.engine).packed = false;
        self.clear_cache();
        self
    }

    /// The shared compiled engine of the session.
    #[must_use]
    pub fn engine(&self) -> &Arc<CompiledNet<P>> {
        &self.engine
    }

    /// The net the session was opened over.
    #[must_use]
    pub fn net(&self) -> &PetriNet<P> {
        &self.net
    }

    /// The configurations and Karp–Miller nodes stored by the session's
    /// cached results (oracle bases are not counted): what keeping the
    /// session alive holds in memory, in the token unit of a batch pool.
    #[must_use]
    pub fn cached_nodes(&self) -> usize {
        self.reach.as_ref().map_or(0, |cache| cache.graph.len())
            + self
                .karp_miller
                .as_ref()
                .map_or(0, |cache| cache.tree.markings().len())
    }

    /// Drops every cached result (the compiled engine is kept).
    pub fn clear_cache(&mut self) {
        self.reach = None;
        self.oracles.clear();
        self.karp_miller = None;
    }

    /// A forward-exploration query from `initials`.
    ///
    /// Defaults: [`ExplorationLimits::default`].
    ///
    /// # Examples
    ///
    /// ```
    /// use pp_multiset::Multiset;
    /// use pp_petri::{Analysis, ExplorationLimits, PetriNet, Transition};
    ///
    /// let net = PetriNet::from_transitions([Transition::pairwise("a", "a", "b", "b")]);
    /// let mut analysis = Analysis::new(&net);
    /// let graph = analysis
    ///     .reachability([Multiset::from_pairs([("a", 4u64)])])
    ///     .limits(ExplorationLimits::with_max_configurations(1_000))
    ///     .run();
    /// assert!(graph.completion().is_complete());
    /// assert_eq!(graph.len(), 3); // 4a, 2a+2b, 4b
    /// ```
    pub fn reachability<I: IntoIterator<Item = Multiset<P>>>(
        &mut self,
        initials: I,
    ) -> ReachabilityQuery<'_, P> {
        ReachabilityQuery {
            analysis: self,
            initials: initials.into_iter().collect(),
            limits: ExplorationLimits::default(),
        }
    }

    /// An exact backward-coverability query for `target`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pp_multiset::Multiset;
    /// use pp_petri::{Analysis, PetriNet, Transition};
    ///
    /// let net = PetriNet::from_transitions([Transition::pairwise("a", "a", "a", "b")]);
    /// let mut analysis = Analysis::new(&net);
    /// let oracle = analysis.coverability(Multiset::from_pairs([("b", 2u64)])).run();
    /// // Three a's suffice to produce two b's; two do not.
    /// assert!(oracle.is_coverable_from(&Multiset::from_pairs([("a", 3u64)])));
    /// assert!(!oracle.is_coverable_from(&Multiset::from_pairs([("a", 2u64)])));
    /// ```
    pub fn coverability(&mut self, target: Multiset<P>) -> CoverabilityQuery<'_, P> {
        CoverabilityQuery {
            analysis: self,
            target,
        }
    }

    /// A Karp–Miller coverability-tree query from `initial`.
    ///
    /// Defaults: a 100 000 node budget.
    ///
    /// # Examples
    ///
    /// ```
    /// use pp_multiset::Multiset;
    /// use pp_petri::{Analysis, PetriNet, Transition};
    ///
    /// // a -> a + b pumps b without bound.
    /// let net = PetriNet::from_transitions([Transition::new(
    ///     Multiset::from_pairs([("a", 1u64)]),
    ///     Multiset::from_pairs([("a", 1u64), ("b", 1)]),
    /// )]);
    /// let mut analysis = Analysis::new(&net);
    /// let tree = analysis
    ///     .karp_miller(Multiset::from_pairs([("a", 1u64)]))
    ///     .max_nodes(10_000)
    ///     .run();
    /// assert!(tree.completion().is_complete());
    /// assert!(tree.place_is_bounded(&"a"));
    /// assert!(!tree.place_is_bounded(&"b"));
    /// ```
    pub fn karp_miller(&mut self, initial: Multiset<P>) -> KarpMillerQuery<'_, P> {
        KarpMillerQuery {
            analysis: self,
            initial,
            max_nodes: 100_000,
        }
    }

    /// A shortest-covering-word query: the minimal transition word `σ` with
    /// `from --σ--> β ≥ target`.
    ///
    /// Defaults: [`ExplorationLimits::default`]. The search is a dedicated
    /// budgeted forward breadth-first search; nothing is cached.
    ///
    /// # Examples
    ///
    /// ```
    /// use pp_multiset::Multiset;
    /// use pp_petri::cover::CoveringWordOutcome;
    /// use pp_petri::{Analysis, PetriNet, Transition};
    ///
    /// let net = PetriNet::from_transitions([
    ///     Transition::pairwise("a", "a", "a", "b"),
    ///     Transition::pairwise("a", "b", "b", "b"),
    /// ]);
    /// let mut analysis = Analysis::new(&net);
    /// let outcome = analysis
    ///     .covering_word(
    ///         Multiset::from_pairs([("a", 3u64)]),
    ///         Multiset::from_pairs([("b", 3u64)]),
    ///     )
    ///     .run();
    /// let CoveringWordOutcome::Covered(word) = outcome else {
    ///     panic!("3b is coverable from 3a");
    /// };
    /// assert_eq!(word.len(), 3); // the shortest such word
    /// ```
    pub fn covering_word(
        &mut self,
        from: Multiset<P>,
        target: Multiset<P>,
    ) -> CoveringWordQuery<'_, P> {
        CoveringWordQuery {
            analysis: self,
            from,
            target,
            limits: ExplorationLimits::default(),
        }
    }

    /// Returns `true` if every place populated by `configs` belongs to the
    /// session's compiled universe.
    fn fits<'c, I: IntoIterator<Item = &'c Multiset<P>>>(&self, configs: I) -> bool
    where
        P: 'c,
    {
        configs
            .into_iter()
            .all(|c| c.support().all(|p| self.engine.place_index(p).is_some()))
    }

    /// A one-off engine over the session universe widened by the supports
    /// of `configs` — the documented slow path for configurations outside
    /// the declared universe. It keeps the session's row representation.
    fn widened_engine<'c, I: IntoIterator<Item = &'c Multiset<P>>>(
        &self,
        configs: I,
    ) -> Arc<CompiledNet<P>>
    where
        P: 'c,
    {
        let extra = self
            .engine
            .places()
            .iter()
            .cloned()
            .chain(configs.into_iter().flat_map(|c| c.support().cloned()));
        let mut engine = CompiledNet::compile_with_places(&self.net, extra);
        engine.packed = self.engine.packed;
        Arc::new(engine)
    }
}

/// A configured forward-exploration query (see [`Analysis::reachability`]).
#[must_use = "a query does nothing until run"]
pub struct ReachabilityQuery<'a, P: Ord> {
    analysis: &'a mut Analysis<P>,
    initials: Vec<Multiset<P>>,
    limits: ExplorationLimits,
}

impl<P: Clone + Ord> ReachabilityQuery<'_, P> {
    /// Sets the exploration limits of the query.
    pub fn limits(mut self, limits: ExplorationLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Accepted for compatibility and ignored: the exploration runs on
    /// one thread (see [`Analysis::parallelism`]).
    pub fn parallelism(self, _parallelism: Parallelism) -> Self {
        self
    }

    /// Runs (or reuses, or resumes) the exploration.
    ///
    /// * Same initials, same limits — the cached graph is returned as-is.
    /// * Same initials, every limit raised
    ///   ([`ExplorationLimits::dominates`]) — the cached graph is
    ///   **resumed**: only its unexpanded frontier re-expands, and the
    ///   result is bit-identical to a cold build at the new limits.
    /// * Anything else — a cold build on the shared engine, which replaces
    ///   the cache.
    pub fn run(self) -> Arc<ReachabilityGraph<P>> {
        let ReachabilityQuery {
            analysis,
            initials,
            limits,
        } = self;
        if !analysis.fits(&initials) {
            // Slow path: configurations outside the declared universe get a
            // one-off widened engine and bypass the cache.
            let engine = analysis.widened_engine(&initials);
            return Arc::new(ReachabilityGraph::build_on(engine, &initials, &limits));
        }
        if let Some(cache) = analysis.reach.take() {
            if cache.initials == initials {
                let built = *cache.graph.limits();
                if limits == built
                    || (cache.graph.completion().is_complete() && limits.dominates(&built))
                {
                    let graph = cache.graph.clone();
                    analysis.reach = Some(cache);
                    return graph;
                }
                if limits.dominates(&built) {
                    let mut graph = cache.graph;
                    // In place when the caller dropped their handle; a
                    // clone-on-write otherwise (never mutates a shared graph).
                    Arc::make_mut(&mut graph).resume(&limits);
                    analysis.reach = Some(ReachCache {
                        initials: cache.initials,
                        graph: graph.clone(),
                    });
                    return graph;
                }
            }
        }
        let graph = Arc::new(ReachabilityGraph::build_on(
            analysis.engine.clone(),
            &initials,
            &limits,
        ));
        analysis.reach = Some(ReachCache {
            initials,
            graph: graph.clone(),
        });
        graph
    }
}

/// A configured backward-coverability query (see [`Analysis::coverability`]).
#[must_use = "a query does nothing until run"]
pub struct CoverabilityQuery<'a, P: Ord> {
    analysis: &'a mut Analysis<P>,
    target: Multiset<P>,
}

impl<P: Clone + Ord> CoverabilityQuery<'_, P> {
    /// Runs the backward saturation (or returns the cached oracle — the
    /// backward algorithm is exact, so an oracle never goes stale).
    pub fn run(self) -> Arc<CoverabilityOracle<P>> {
        let CoverabilityQuery { analysis, target } = self;
        if let Some(oracle) = analysis.oracles.get(&target) {
            return oracle.clone();
        }
        if !analysis.fits([&target]) {
            // Slow path: a target outside the declared universe gets a
            // one-off widened engine and bypasses the cache (matching the
            // reachability query and keeping the cache bounded by the
            // declared universe).
            let engine = analysis.widened_engine([&target]);
            return Arc::new(CoverabilityOracle::build_on(engine, target));
        }
        let oracle = Arc::new(CoverabilityOracle::build_on(
            analysis.engine.clone(),
            target.clone(),
        ));
        analysis.oracles.insert(target, oracle.clone());
        oracle
    }
}

/// A configured Karp–Miller query (see [`Analysis::karp_miller`]).
#[must_use = "a query does nothing until run"]
pub struct KarpMillerQuery<'a, P: Ord> {
    analysis: &'a mut Analysis<P>,
    initial: Multiset<P>,
    max_nodes: usize,
}

impl<P: Clone + Ord> KarpMillerQuery<'_, P> {
    /// Sets the node budget of the tree construction.
    pub fn max_nodes(mut self, max_nodes: usize) -> Self {
        self.max_nodes = max_nodes;
        self
    }

    /// Runs the tree construction (or returns the cached tree when the
    /// cached one is exact for the requested budget: same budget, or a
    /// complete tree and a raised budget).
    pub fn run(self) -> Arc<KarpMillerTree<P>> {
        let KarpMillerQuery {
            analysis,
            initial,
            max_nodes,
        } = self;
        if let Some(cache) = &analysis.karp_miller {
            if cache.initial == initial
                && (cache.max_nodes == max_nodes
                    || (cache.tree.completion().is_complete() && max_nodes >= cache.max_nodes))
            {
                return cache.tree.clone();
            }
        }
        if !analysis.fits([&initial]) {
            // Slow path: an initial configuration outside the declared
            // universe gets a one-off widened engine and bypasses the
            // cache (matching the reachability query).
            let engine = analysis.widened_engine([&initial]);
            return Arc::new(KarpMillerTree::build_on(&engine, &initial, max_nodes));
        }
        let tree = Arc::new(KarpMillerTree::build_on(
            &analysis.engine,
            &initial,
            max_nodes,
        ));
        analysis.karp_miller = Some(KarpMillerCache {
            initial,
            max_nodes,
            tree: tree.clone(),
        });
        tree
    }
}

/// A configured covering-word query (see [`Analysis::covering_word`]): a
/// budgeted forward BFS with an explicit [`CoveringWordOutcome`].
#[must_use = "a query does nothing until run"]
pub struct CoveringWordQuery<'a, P: Ord> {
    analysis: &'a mut Analysis<P>,
    from: Multiset<P>,
    target: Multiset<P>,
    limits: ExplorationLimits,
}

impl<P: Clone + Ord> CoveringWordQuery<'_, P> {
    /// Sets the exploration limits of the search.
    pub fn limits(mut self, limits: ExplorationLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Runs the search.
    pub fn run(self) -> CoveringWordOutcome {
        let CoveringWordQuery {
            analysis,
            from,
            target,
            limits,
        } = self;
        if target.le(&from) {
            return CoveringWordOutcome::Covered(Vec::new());
        }
        let engine = if analysis.fits([&from, &target]) {
            analysis.engine.clone()
        } else {
            analysis.widened_engine([&from, &target])
        };
        forward_covering_word(&engine, &from, &target, &limits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transition;

    fn ms(pairs: &[(&'static str, u64)]) -> Multiset<&'static str> {
        Multiset::from_pairs(pairs.iter().copied())
    }

    fn doubling_net() -> PetriNet<&'static str> {
        PetriNet::from_transitions([
            Transition::pairwise("a", "a", "a", "b"),
            Transition::pairwise("a", "b", "b", "b"),
        ])
    }

    #[test]
    fn repeated_queries_share_the_cached_graph() {
        let net = doubling_net();
        let mut analysis = Analysis::new(&net);
        let first = analysis.reachability([ms(&[("a", 5)])]).run();
        let second = analysis.reachability([ms(&[("a", 5)])]).run();
        assert!(Arc::ptr_eq(&first, &second), "same query, same graph");
        // A different initial set replaces the cache.
        let third = analysis.reachability([ms(&[("a", 4)])]).run();
        assert!(!Arc::ptr_eq(&first, &third));
        assert_eq!(third.len(), 5);
    }

    #[test]
    fn raised_budgets_resume_the_cached_graph() {
        let net = doubling_net();
        let start = ms(&[("a", 8)]);
        let mut analysis = Analysis::new(&net);
        let truncated = analysis
            .reachability([start.clone()])
            .limits(ExplorationLimits::with_max_configurations(3))
            .run();
        assert_eq!(truncated.completion(), Completion::ConfigBudget);
        assert_eq!(truncated.len(), 3);
        drop(truncated); // hand the only outside reference back: resume runs in place
        let full = analysis.reachability([start.clone()]).run();
        assert!(full.completion().is_complete());
        let cold = Analysis::new(&net).reachability([start]).run();
        assert!(full.identical_to(&cold), "resumed != cold");
    }

    #[test]
    fn resume_never_mutates_a_shared_graph() {
        let net = doubling_net();
        let start = ms(&[("a", 8)]);
        let mut analysis = Analysis::new(&net);
        let truncated = analysis
            .reachability([start.clone()])
            .limits(ExplorationLimits::with_max_configurations(3))
            .run();
        // The caller still holds `truncated`: the session must clone-on-write.
        let full = analysis.reachability([start]).run();
        assert_eq!(truncated.len(), 3, "held graph untouched");
        assert!(full.completion().is_complete());
    }

    #[test]
    fn complete_graphs_satisfy_any_dominating_limits() {
        let net = doubling_net();
        let mut analysis = Analysis::new(&net);
        let small = analysis
            .reachability([ms(&[("a", 4)])])
            .limits(ExplorationLimits::with_max_configurations(1_000))
            .run();
        assert!(small.completion().is_complete());
        let larger = analysis
            .reachability([ms(&[("a", 4)])])
            .limits(ExplorationLimits::with_max_configurations(2_000))
            .run();
        assert!(Arc::ptr_eq(&small, &larger), "complete graph reused as-is");
    }

    #[test]
    fn lowered_budgets_rebuild_cold() {
        let net = doubling_net();
        let start = ms(&[("a", 8)]);
        let mut analysis = Analysis::new(&net);
        let full = analysis.reachability([start.clone()]).run();
        assert!(full.completion().is_complete());
        let capped = analysis
            .reachability([start.clone()])
            .limits(ExplorationLimits::with_max_configurations(2))
            .run();
        assert_eq!(capped.completion(), Completion::ConfigBudget);
        let cold = Analysis::new(&net)
            .reachability([start])
            .limits(ExplorationLimits::with_max_configurations(2))
            .run();
        assert!(capped.identical_to(&cold));
    }

    #[test]
    fn out_of_universe_queries_take_the_widened_path() {
        // "z" is not a place of the net: the query must still answer,
        // through a one-off widened engine.
        let net = doubling_net();
        let mut analysis = Analysis::new(&net);
        let graph = analysis.reachability([ms(&[("z", 2)])]).run();
        assert!(graph.completion().is_complete());
        assert_eq!(graph.len(), 1);
        // Declaring the place up front keeps the query on the shared engine.
        let mut declared = Analysis::with_places(&net, ["z"]);
        let graph = declared.reachability([ms(&[("z", 2)])]).run();
        assert_eq!(graph.len(), 1);
    }

    #[test]
    fn coverability_oracles_are_cached_per_target() {
        let net = doubling_net();
        let mut analysis = Analysis::new(&net);
        let first = analysis.coverability(ms(&[("b", 2)])).run();
        let second = analysis.coverability(ms(&[("b", 2)])).run();
        assert!(Arc::ptr_eq(&first, &second));
        assert!(first.is_coverable_from(&ms(&[("a", 2)])));
        assert!(!first.is_coverable_from(&ms(&[("a", 1)])));
        let other = analysis.coverability(ms(&[("b", 3)])).run();
        assert!(!Arc::ptr_eq(&first, &other));
    }

    #[test]
    fn karp_miller_trees_are_cached() {
        let net = PetriNet::from_transitions([Transition::new(
            ms(&[("a", 1)]),
            ms(&[("a", 1), ("b", 1)]),
        )]);
        let mut analysis = Analysis::new(&net);
        let tree = analysis.karp_miller(ms(&[("a", 1)])).run();
        assert!(tree.completion().is_complete());
        assert!(!tree.place_is_bounded(&"b"));
        let again = analysis.karp_miller(ms(&[("a", 1)])).run();
        assert!(Arc::ptr_eq(&tree, &again));
        // A complete tree satisfies any raised node budget.
        let raised = analysis
            .karp_miller(ms(&[("a", 1)]))
            .max_nodes(200_000)
            .run();
        assert!(Arc::ptr_eq(&tree, &raised));
        // A different budget on an incomplete shape rebuilds.
        let one = analysis.karp_miller(ms(&[("a", 1)])).max_nodes(1).run();
        assert_eq!(one.completion(), Completion::ConfigBudget);
    }

    #[test]
    fn covering_word_query_matches_the_forward_search() {
        let net = doubling_net();
        let mut analysis = Analysis::new(&net);
        let outcome = analysis
            .covering_word(ms(&[("a", 3)]), ms(&[("b", 3)]))
            .run();
        let CoveringWordOutcome::Covered(word) = outcome else {
            panic!("3b is coverable from 3a");
        };
        assert_eq!(word.len(), 3);
        let reached = net.fire_word(&ms(&[("a", 3)]), &word).unwrap();
        assert!(ms(&[("b", 3)]).le(&reached));
        // Trivial cover: empty word, no search.
        assert_eq!(
            analysis
                .covering_word(ms(&[("a", 1)]), ms(&[("a", 1)]))
                .run(),
            CoveringWordOutcome::Covered(Vec::new())
        );
        // Exhausted search on an uncoverable target.
        assert_eq!(
            analysis
                .covering_word(ms(&[("a", 2)]), ms(&[("b", 3)]))
                .run(),
            CoveringWordOutcome::NotCoverable
        );
    }

    #[test]
    fn cloned_sessions_share_the_engine_and_caches() {
        let net = doubling_net();
        let mut analysis = Analysis::new(&net);
        let graph = analysis.reachability([ms(&[("a", 5)])]).run();
        let mut fork = analysis.clone();
        assert!(Arc::ptr_eq(analysis.engine(), fork.engine()));
        let again = fork.reachability([ms(&[("a", 5)])]).run();
        assert!(Arc::ptr_eq(&graph, &again), "cache travels with the clone");
        fork.clear_cache();
        let rebuilt = fork.reachability([ms(&[("a", 5)])]).run();
        assert!(!Arc::ptr_eq(&graph, &rebuilt));
        assert!(graph.identical_to(&rebuilt));
    }

    #[test]
    fn completion_display_names_every_reason() {
        for completion in [
            Completion::Complete,
            Completion::ConfigBudget,
            Completion::AgentCap,
            Completion::DepthCap,
            Completion::IdSpace,
            Completion::OmegaOverflow,
        ] {
            assert!(!completion.to_string().is_empty());
            assert_eq!(completion.is_complete(), !completion.is_truncated());
        }
    }
}
