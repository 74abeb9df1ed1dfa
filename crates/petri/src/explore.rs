//! Bounded forward exploration of Petri-net reachability graphs.
//!
//! Most analyses of the suite (output-stability, components, bottom
//! configurations, stable-computation verification) work on the *reachability
//! graph* of a Petri net from an initial configuration. For conservative nets
//! — the common case for population protocols — this graph is finite; for
//! general nets (the paper's model allows agent creation and destruction) the
//! exploration is truncated by [`ExplorationLimits`] and the result records
//! whether it is complete.

use crate::arena::{ConfigArena, ConfigId, Entry};
use crate::engine::CompiledNet;
use crate::packed::{PackedTransition, RowLayout};
use crate::session::Completion;
use crate::PetriNet;
use pp_multiset::Multiset;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, OnceLock};

/// The largest number of configurations any exploration can store: the
/// `u32` id space of [`ConfigArena`].
///
/// [`ExplorationLimits::max_configurations`] values above this ceiling are
/// clamped, so an over-sized budget degrades into a truncated build
/// (`is_complete() == false`) instead of an id-overflow panic deep inside
/// the arena.
pub const MAX_GRAPH_CONFIGURATIONS: usize = u32::MAX as usize;

/// Test-only fault injection for the resume path.
///
/// Hidden from the documented API: `pp_netdsl fuzz --inject-fault` sets
/// [`SKIP_FIRST_DIRTY_ON_RESUME`](fault_injection::SKIP_FIRST_DIRTY_ON_RESUME)
/// around its resume-axis runs to prove that the differential harness
/// catches, shrinks and reports an engine fault. The flag is per thread:
/// it affects only resumes on the thread that set it.
#[doc(hidden)]
pub mod fault_injection {
    use std::cell::Cell;

    thread_local! {
        /// When `true`, phase 2 of [`ReachabilityGraph::resume`](super::ReachabilityGraph::resume)
        /// leaves the first dirty node it would re-expand as it is: its
        /// recorded edge list stays, and it leaves the dirty frontier. A
        /// graph resumed from a budget-truncated build then differs from
        /// the cold build at the raised budget.
        pub static SKIP_FIRST_DIRTY_ON_RESUME: Cell<bool> = const { Cell::new(false) };
    }
}

/// Limits for forward exploration.
///
/// An exploration is *complete* when it terminated without hitting any limit;
/// analyses that need exactness check [`ReachabilityGraph::is_complete`]
/// before trusting the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplorationLimits {
    /// Maximum number of distinct configurations to store.
    pub max_configurations: usize,
    /// Configurations with more agents than this are not expanded.
    pub max_agents: Option<u64>,
    /// Maximum BFS depth (number of transition firings), if any.
    pub max_depth: Option<usize>,
}

impl Default for ExplorationLimits {
    fn default() -> Self {
        ExplorationLimits {
            max_configurations: 250_000,
            max_agents: None,
            max_depth: None,
        }
    }
}

impl ExplorationLimits {
    /// The configuration budget actually enforced: `max_configurations`
    /// clamped to the arena's `u32` id space
    /// ([`MAX_GRAPH_CONFIGURATIONS`]).
    pub(crate) fn effective_max_configurations(&self) -> usize {
        self.max_configurations.min(MAX_GRAPH_CONFIGURATIONS)
    }

    /// Returns `true` if every limit of `self` is at least as permissive as
    /// the corresponding limit of `other` (`None` caps count as infinite).
    ///
    /// This is the precondition of [`ReachabilityGraph::resume`]: a graph
    /// built under `other` can be extended in place to `self` exactly when
    /// `self.dominates(&other)`.
    #[must_use]
    pub fn dominates(&self, other: &ExplorationLimits) -> bool {
        fn cap_ge<T: Ord>(mine: Option<T>, theirs: Option<T>) -> bool {
            match (mine, theirs) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(a), Some(b)) => a >= b,
            }
        }
        self.max_configurations >= other.max_configurations
            && cap_ge(self.max_agents, other.max_agents)
            && cap_ge(self.max_depth, other.max_depth)
    }

    /// Limits with the given configuration budget and no other restrictions.
    #[must_use]
    pub fn with_max_configurations(max_configurations: usize) -> Self {
        ExplorationLimits {
            max_configurations,
            ..Default::default()
        }
    }

    /// Limits suitable for non-conservative nets: configurations with more
    /// than `max_agents` agents are not expanded.
    #[must_use]
    pub fn with_max_agents(max_agents: u64) -> Self {
        ExplorationLimits {
            max_agents: Some(max_agents),
            ..Default::default()
        }
    }
}

/// The (possibly truncated) reachability graph of a Petri net from a set of
/// initial configurations.
///
/// Nodes are configurations, edges are labelled by transition indices of the
/// underlying net. Graphs are built through an
/// [`Analysis`](crate::session::Analysis) session, which compiles the net
/// once and can **resume** a truncated graph in place when a later query
/// raises the budgets (see [`resume`](Self::resume)).
///
/// # Examples
///
/// ```
/// use pp_multiset::Multiset;
/// use pp_petri::{Analysis, PetriNet, Transition};
///
/// let net = PetriNet::from_transitions([Transition::pairwise("a", "a", "b", "b")]);
/// let start = Multiset::from_pairs([("a", 4u64)]);
/// let graph = Analysis::new(&net).reachability([start]).run();
/// assert!(graph.completion().is_complete());
/// assert_eq!(graph.len(), 3); // 4a, 2a+2b, 4b
/// ```
#[derive(Debug, Clone)]
pub struct ReachabilityGraph<P: Ord> {
    engine: Arc<CompiledNet<P>>,
    arena: ConfigArena,
    /// Sparse views of the arena rows: the per-node cells are allocated
    /// on the first [`node`](Self::node) call and each view is converted
    /// on first access (many callers only need ids, totals or dense rows,
    /// and never pay for either).
    sparse_views: OnceLock<Vec<OnceLock<Multiset<P>>>>,
    edges: Edges,
    initial: Vec<usize>,
    completion: Completion,
    /// The limits the graph was (last) built under; [`resume`](Self::resume)
    /// extends them in place.
    limits: ExplorationLimits,
    /// BFS discovery depth per node (node ids are assigned in discovery
    /// order, so this is also the order depths were decided in).
    depths: Vec<u32>,
    /// The nodes that are stored but not fully expanded (ascending ids):
    /// over the agent cap, at the depth cap, or with successors the
    /// configuration budget refused to intern. This is exactly the frontier
    /// [`resume`](Self::resume) re-expands.
    dirty: Vec<DirtyNode>,
    /// Dense rows of initial configurations the budget refused to intern,
    /// in supplied order — replayed first on resume.
    pending_initials: Vec<Vec<u64>>,
    /// The [`reachability_fingerprint`](crate::fingerprint::reachability_fingerprint)
    /// of the graph, computed on first request; [`resume`](Self::resume)
    /// clears it.
    pub(crate) fingerprint: OnceLock<u64>,
}

/// The outgoing edges of every node in one flat array of
/// `(transition index, successor id)` pairs, eight bytes each.
///
/// Node `id`'s list is `pairs[spans[id].0..spans[id].1]`. Expansion
/// appends a node's list at the end of `pairs` and points its span there,
/// so a cold build lays the lists out in id order. Re-expanding a dirty
/// node on [`ReachabilityGraph::resume`] appends its new list and repoints
/// the span; the superseded list stays behind as dead space, at most one
/// old list per re-expanded node per resume. Every reader goes through
/// the spans, never over `pairs` directly.
#[derive(Debug, Clone, Default)]
struct Edges {
    pairs: Vec<(u32, u32)>,
    spans: Vec<(usize, usize)>,
}

impl Edges {
    /// Registers a freshly interned node, with no edges yet.
    fn push_node(&mut self) {
        self.spans.push((0, 0));
    }

    /// The outgoing edges of node `id`.
    fn of(&self, id: usize) -> &[(u32, u32)] {
        let (start, end) = self.spans[id];
        &self.pairs[start..end]
    }
}

/// One entry of the dirty frontier: a node stored but not fully expanded,
/// plus the arena length at the moment the build moved past it.
///
/// The watermark decides whether an in-place [`ReachabilityGraph::resume`]
/// can stay bit-identical to a cold build: re-expanding the node appends
/// its fresh successors at the end of the id sequence, which matches the
/// cold numbering exactly when nothing was interned after the node was
/// skipped (`watermark == len`). Budget-refused nodes always satisfy this
/// (interning stops globally when the budget fills), and so do depth-capped
/// frontiers (they are the maximal-depth tail); an *agent-capped* node in
/// the middle of the sequence does not — a cold build at a raised cap would
/// insert its successors mid-sequence — so resume falls back to a cold
/// rebuild when such a hole re-expands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DirtyNode {
    id: u32,
    watermark: u32,
}

/// Which exploration limits bit during a build, set at the decision points
/// of the breadth-first scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Truncation {
    config: bool,
    agents: bool,
    depth: bool,
}

impl Truncation {
    /// The dominant [`Completion`] for these flags under `limits`
    /// (configuration budget → agent cap → depth cap; a budget that was
    /// clamped by the arena id space reports [`Completion::IdSpace`]).
    fn completion(self, limits: &ExplorationLimits) -> Completion {
        if self.config {
            if limits.max_configurations > MAX_GRAPH_CONFIGURATIONS {
                Completion::IdSpace
            } else {
                Completion::ConfigBudget
            }
        } else if self.agents {
            Completion::AgentCap
        } else if self.depth {
            Completion::DepthCap
        } else {
            Completion::Complete
        }
    }
}

/// The reused buffers of [`expand_one`]: the source row and the
/// successor row.
#[derive(Default)]
struct ExpandScratch {
    src: Vec<u64>,
    succ: Vec<u64>,
}

/// Expands one node in the sequential interning order: rebuilds its edge
/// list from scratch (fire every transition in index order, resolve each
/// successor by dedup lookup or a budgeted intern), appending it to the
/// flat edge array and pointing the node's span at it. Returns `true`
/// when the configuration budget refused some successor — the node stays
/// dirty.
///
/// This single body is the semantic definition of "expanding a node"; the
/// cold sequential build, the resume replay and the resume continuation all
/// share it, which is what makes resumed graphs bit-identical to cold ones.
#[expect(
    clippy::too_many_arguments,
    reason = "the graph's buffers are borrowed one by one so the resume replay can lend them too"
)]
fn expand_one(
    transitions: &[PackedTransition],
    arena: &mut ConfigArena,
    edges: &mut Edges,
    depths: &mut Vec<u32>,
    id: usize,
    depth: u32,
    cap: usize,
    trunc: &mut Truncation,
    scratch: &mut ExpandScratch,
) -> bool {
    let ExpandScratch { src, succ } = scratch;
    src.clear();
    src.extend_from_slice(arena.row(ConfigId(id as u32)));
    let start = edges.pairs.len();
    let mut blocked = false;
    // `CompiledNet` checks at compile time that transition indices fit
    // `u32`, so the counter cannot overflow.
    for (t, transition) in (0u32..).zip(transitions) {
        if !transition.is_enabled_words(src) {
            continue;
        }
        transition.fire_words(src, succ);
        let to = match arena.entry(succ) {
            Entry::Occupied(existing) => existing.0,
            Entry::Vacant(vacant) if vacant.next_id() >= cap => {
                trunc.config = true;
                blocked = true;
                continue;
            }
            Entry::Vacant(vacant) => {
                let fresh = vacant.insert();
                edges.push_node();
                depths.push(depth + 1);
                fresh.0
            }
        };
        edges.pairs.push((t, to));
    }
    edges.spans[id] = (start, edges.pairs.len());
    blocked
}

/// Interns the unpacked initial configuration `row` at depth 0 and adds
/// its id to `initial` unless it is there already. Returns `false` when the
/// configuration budget `cap` refuses a new node; the caller then keeps
/// the row pending. The cold build and the resume's first phase share this
/// body, so both number their initial configurations alike.
fn intern_initial(
    arena: &mut ConfigArena,
    edges: &mut Edges,
    depths: &mut Vec<u32>,
    initial: &mut Vec<usize>,
    row: &[u64],
    cap: usize,
) -> bool {
    let packed = arena.layout().pack(row);
    let id = match arena.entry(&packed) {
        Entry::Occupied(id) => id.index(),
        Entry::Vacant(vacant) if vacant.next_id() >= cap => return false,
        Entry::Vacant(vacant) => {
            let id = vacant.insert();
            edges.push_node();
            depths.push(0);
            id.index()
        }
    };
    if !initial.contains(&id) {
        initial.push(id);
    }
    true
}

/// The breadth-first expansion of every node from `start` on, in id order.
///
/// Node ids are assigned in discovery order, so scanning ids *is* the BFS
/// queue: every node interned during the scan is reached by the scan. Used
/// by the cold build (`start = 0`) and by the continuation phase of
/// [`ReachabilityGraph::resume`] (`start` = first fresh id).
#[expect(
    clippy::too_many_arguments,
    reason = "the graph's buffers are borrowed one by one so the resume continuation can lend them too"
)]
fn scan_expand(
    transitions: &[PackedTransition],
    arena: &mut ConfigArena,
    edges: &mut Edges,
    depths: &mut Vec<u32>,
    dirty: &mut Vec<DirtyNode>,
    trunc: &mut Truncation,
    limits: &ExplorationLimits,
    start: usize,
) {
    let cap = limits.effective_max_configurations();
    let mut scratch = ExpandScratch::default();
    let mut id = start;
    while id < arena.len() {
        let depth = depths[id];
        if limits.max_depth.is_some_and(|max| depth as usize >= max) {
            trunc.depth = true;
            dirty.push(DirtyNode {
                id: id as u32,
                watermark: u32::try_from(arena.len()).expect("arena len fits u32"),
            });
            id += 1;
            continue;
        }
        if limits
            .max_agents
            .is_some_and(|max| arena.total(ConfigId(id as u32)) > max)
        {
            trunc.agents = true;
            dirty.push(DirtyNode {
                id: id as u32,
                watermark: u32::try_from(arena.len()).expect("arena len fits u32"),
            });
            id += 1;
            continue;
        }
        if expand_one(
            transitions,
            arena,
            edges,
            depths,
            id,
            depth,
            cap,
            trunc,
            &mut scratch,
        ) {
            dirty.push(DirtyNode {
                id: id as u32,
                watermark: u32::try_from(arena.len()).expect("arena len fits u32"),
            });
        }
        id += 1;
    }
}

impl<P: Clone + Ord> ReachabilityGraph<P> {
    /// Explores from `initial` on an already-compiled engine — the session
    /// entry point ([`Analysis`](crate::session::Analysis) owns the shared
    /// engine). Every initial configuration must fit the engine's place
    /// universe.
    ///
    /// Initial configurations are interned in the supplied order, then
    /// one breadth-first [`scan_expand`] numbers every discovery in id
    /// order. This is also where the packed [`RowLayout`] is decided: it
    /// is a pure function of the engine, the largest initial total, the
    /// agent cap and the node budget ([`CompiledNet::row_layout`]), so
    /// cold and resumed builds agree on the representation.
    pub(crate) fn build_on(
        engine: Arc<CompiledNet<P>>,
        initial_configs: &[Multiset<P>],
        limits: &ExplorationLimits,
    ) -> Self {
        let dense_rows: Vec<Vec<u64>> = initial_configs
            .iter()
            .map(|config| {
                engine
                    .to_dense(config)
                    .expect("initial supports are part of the compiled universe")
            })
            .collect();
        let max_initial_total = dense_rows
            .iter()
            .map(|row| row.iter().sum::<u64>())
            .max()
            .unwrap_or(0);
        let layout = engine.row_layout(
            max_initial_total,
            limits.max_agents,
            limits.effective_max_configurations(),
        );
        let mut arena = ConfigArena::with_layout(layout);
        let mut edges = Edges::default();
        let mut initial: Vec<usize> = Vec::new();
        let mut depths: Vec<u32> = Vec::new();
        let mut pending_initials: Vec<Vec<u64>> = Vec::new();
        let mut trunc = Truncation::default();
        let cap = limits.effective_max_configurations();
        for row in dense_rows {
            // The width bound covers every initial total, so the pack
            // cannot overflow a cell.
            if !intern_initial(&mut arena, &mut edges, &mut depths, &mut initial, &row, cap) {
                trunc.config = true;
                // Pending initials are kept *unpacked*: they outlive
                // the build and must survive a layout change on the
                // resume path.
                pending_initials.push(row);
            }
        }
        let packed = engine.packed_transitions(arena.layout());
        let mut dirty: Vec<DirtyNode> = Vec::new();
        scan_expand(
            &packed,
            &mut arena,
            &mut edges,
            &mut depths,
            &mut dirty,
            &mut trunc,
            limits,
            0,
        );
        debug_assert_eq!(depths.len(), arena.len(), "one depth per node");
        debug_assert!(
            dirty.windows(2).all(|w| w[0].id < w[1].id),
            "dirty ids ascend"
        );
        ReachabilityGraph {
            engine,
            arena,
            sparse_views: OnceLock::new(),
            edges,
            initial,
            completion: trunc.completion(limits),
            limits: *limits,
            depths,
            dirty,
            pending_initials,
            fingerprint: OnceLock::new(),
        }
    }

    /// The compiled engine the graph was explored with (shared with the
    /// [`Analysis`](crate::session::Analysis) session that built it).
    #[must_use]
    pub fn engine(&self) -> &CompiledNet<P> {
        &self.engine
    }

    /// The dense row of node `id` (one counter per engine place),
    /// decoded from the packed stored row.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn dense_node(&self, id: usize) -> Vec<u64> {
        self.arena.layout().unpack(self.packed_node(id))
    }

    /// The stored (packed) row of node `id`: `layout().words_per_row()`
    /// words in the graph's [`row_layout`](Self::row_layout). Under the
    /// uncompressed `u64` layout this is one counter per place.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn packed_node(&self, id: usize) -> &[u64] {
        self.arena.row(crate::arena::ConfigId(
            u32::try_from(id).expect("node id fits u32"),
        ))
    }

    /// The packed row layout configurations are stored in (a pure
    /// function of the engine, the initial totals and the agent cap —
    /// see [`CompiledNet::row_layout`]).
    #[must_use]
    pub fn row_layout(&self) -> &RowLayout {
        self.arena.layout()
    }

    /// Stored bytes per node in the interned arena (row payload padded
    /// to whole words) — the `bytes_per_node` figure the benches report.
    #[must_use]
    pub fn bytes_per_node(&self) -> usize {
        self.arena.layout().stored_bytes_per_row()
    }

    /// Number of stored configurations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Returns `true` if the graph stores no configuration.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Returns `true` if no exploration limit was hit.
    ///
    /// Shim over [`completion`](Self::completion), which additionally says
    /// *which* limit truncated the graph.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.completion.is_complete()
    }

    /// How the exploration ended: [`Completion::Complete`], or the dominant
    /// limit that truncated it.
    #[must_use]
    pub fn completion(&self) -> Completion {
        self.completion
    }

    /// The exploration limits the graph was (last) built under.
    #[must_use]
    pub fn limits(&self) -> &ExplorationLimits {
        &self.limits
    }

    /// The BFS discovery depth of node `id` (0 for initial configurations).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn depth_of(&self, id: usize) -> usize {
        self.depths[id] as usize
    }

    /// Extends a (possibly truncated) graph in place to the raised
    /// `limits`: the interned arena and every recorded edge list are
    /// reused, and only the *dirty frontier* — nodes stored but not fully
    /// expanded (over the agent cap, at the depth cap, or with successors
    /// the configuration budget refused) — re-expands, followed by the
    /// standard breadth-first continuation over the freshly admitted nodes.
    ///
    /// The result is **bit-identical** ([`identical_to`](Self::identical_to))
    /// to a cold build at `limits`: node numbering replays the cold
    /// build's interning order.
    /// Resuming a complete graph only updates the recorded limits.
    ///
    /// One shape cannot be replayed in place: an *agent-capped* node in the
    /// middle of the id sequence (later nodes kept interning after it was
    /// skipped) whose cap is now raised — a cold build would insert its
    /// successors mid-sequence. Such resumes transparently fall back to a
    /// cold rebuild (still mutating `self`), detected through the per-node
    /// watermarks of the dirty frontier; raising only `max_configurations`
    /// and/or `max_depth` always stays on the in-place path.
    ///
    /// This is the engine behind the [`Analysis`](crate::session::Analysis)
    /// session's resumable budgets.
    ///
    /// # Panics
    ///
    /// Panics if `limits` does not [dominate](ExplorationLimits::dominates)
    /// the limits the graph was built under — lowering a budget cannot be
    /// replayed in place; build a fresh graph instead.
    pub fn resume(&mut self, limits: &ExplorationLimits) {
        assert!(
            limits.dominates(&self.limits),
            "resume requires limits that dominate the built limits"
        );
        self.fingerprint = OnceLock::new();
        let cap = limits.effective_max_configurations();
        let mut trunc = Truncation::default();
        let first_new = self.arena.len();

        // In-place replay appends fresh ids at the end; that matches the
        // cold numbering only if every dirty node that will now re-expand
        // was skipped *after* the last intern of the old build (watermark
        // == arena length). A re-expandable mid-sequence hole — an
        // agent-capped node that later nodes out-interned — forces the
        // cold-rebuild path.
        let reopens_hole = self.dirty.iter().any(|d| {
            (d.watermark as usize) < first_new
                && limits
                    .max_depth
                    .is_none_or(|max| (self.depths[d.id as usize] as usize) < max)
                && limits
                    .max_agents
                    .is_none_or(|max| self.arena.total(ConfigId(d.id)) <= max)
        });
        // The packed row layout is a pure function of (engine, max initial
        // total, agent cap, node budget); the initial totals are recoverable from the
        // stored graph (interned initials plus budget-refused pending
        // initials — duplicates cannot change the max), so recomputation
        // reproduces the build-time value. If the *new* limits select a
        // different layout (a raised or dropped agent cap or node budget
        // widening the cells, or the gate flipped between builds), the
        // stored rows are in the wrong representation for the
        // continuation — rebuild cold, exactly like a reopened hole.
        let max_initial_total = self
            .initial
            .iter()
            .map(|&id| self.arena.total(ConfigId(id as u32)))
            .chain(
                self.pending_initials
                    .iter()
                    .map(|row| row.iter().sum::<u64>()),
            )
            .max()
            .unwrap_or(0);
        let layout_changed = self.engine.row_layout(
            max_initial_total,
            limits.max_agents,
            limits.effective_max_configurations(),
        ) != *self.arena.layout();
        if reopens_hole || layout_changed {
            let initial_configs: Vec<Multiset<P>> = self
                .initial
                .iter()
                .map(|&id| self.engine.to_sparse(&self.dense_node(id)))
                .chain(
                    self.pending_initials
                        .iter()
                        .map(|row| self.engine.to_sparse(row)),
                )
                .collect();
            *self = Self::build_on(self.engine.clone(), &initial_configs, limits);
            return;
        }
        let packed = self.engine.packed_transitions(self.arena.layout());

        // Phase 1: initial configurations the old budget refused, in
        // supplied order — exactly where a cold build would intern them
        // (a refused initial implies the arena was full, so no expansion
        // discovery ever claimed an id after it).
        let pending = std::mem::take(&mut self.pending_initials);
        for row in pending {
            // Pending initials are kept unpacked (they must survive layout
            // changes across reopens); the layout-stability check above
            // guarantees they fit the current cells.
            let interned = intern_initial(
                &mut self.arena,
                &mut self.edges,
                &mut self.depths,
                &mut self.initial,
                &row,
                cap,
            );
            if !interned {
                trunc.config = true;
                self.pending_initials.push(row);
            }
        }

        // Phase 2: replay the dirty frontier in id order — the order the
        // cold build expands them in — rebuilding each node's edge list
        // from scratch (deterministic, so recorded edges are reproduced
        // and the refused ones appear exactly where a cold build puts
        // them). The rebuilt list is appended to the flat edge array and
        // the node's span repointed; its old list becomes dead space.
        // Nodes still over a cap keep their old watermark (their hole, if
        // any, stays closed); re-marked nodes get the current arena
        // length, exactly as a cold build would record it.
        let old_dirty = std::mem::take(&mut self.dirty);
        let mut dirty: Vec<DirtyNode> = Vec::new();
        let mut scratch = ExpandScratch::default();
        let mut skip_fault = fault_injection::SKIP_FIRST_DIRTY_ON_RESUME.get();
        for node in old_dirty {
            let id = node.id;
            let depth = self.depths[id as usize];
            // A node still over a cap is re-recorded with the watermark a
            // cold build would give it: a mid-sequence hole keeps its old
            // one (no fresh intern can precede it on the in-place path),
            // while a tail node sees everything interned so far.
            let still_capped = DirtyNode {
                id,
                watermark: if node.watermark as usize == first_new {
                    u32::try_from(self.arena.len()).expect("arena len fits u32")
                } else {
                    node.watermark
                },
            };
            if limits.max_depth.is_some_and(|max| depth as usize >= max) {
                trunc.depth = true;
                dirty.push(still_capped);
                continue;
            }
            if limits
                .max_agents
                .is_some_and(|max| self.arena.total(ConfigId(id)) > max)
            {
                trunc.agents = true;
                dirty.push(still_capped);
                continue;
            }
            if std::mem::take(&mut skip_fault) {
                continue;
            }
            if expand_one(
                &packed,
                &mut self.arena,
                &mut self.edges,
                &mut self.depths,
                id as usize,
                depth,
                cap,
                &mut trunc,
                &mut scratch,
            ) {
                dirty.push(DirtyNode {
                    id,
                    watermark: u32::try_from(self.arena.len()).expect("arena len fits u32"),
                });
            }
        }

        // Phase 3: the breadth-first continuation over every node admitted
        // since the old budget — freshly interned ids all lie past the old
        // arena length, and id order is BFS order.
        scan_expand(
            &packed,
            &mut self.arena,
            &mut self.edges,
            &mut self.depths,
            &mut dirty,
            &mut trunc,
            limits,
            first_new,
        );

        self.dirty = dirty;
        self.limits = *limits;
        self.completion = trunc.completion(limits);
        if let Some(views) = self.sparse_views.get_mut() {
            views.resize_with(self.arena.len(), OnceLock::new);
        }
        debug_assert_eq!(self.depths.len(), self.arena.len(), "one depth per node");
    }

    /// The configuration of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn node(&self, id: usize) -> &Multiset<P> {
        let views = self
            .sparse_views
            .get_or_init(|| (0..self.len()).map(|_| OnceLock::new()).collect());
        views[id].get_or_init(|| self.engine.to_sparse(&self.dense_node(id)))
    }

    /// The number of agents in node `id` (cached by the arena, so no row
    /// is decoded).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn total(&self, id: usize) -> u64 {
        self.arena
            .total(ConfigId(u32::try_from(id).expect("node id fits u32")))
    }

    /// The node id of `config`, if it was reached.
    #[must_use]
    pub fn id_of(&self, config: &Multiset<P>) -> Option<usize> {
        let row = self.engine.to_dense(config)?;
        // A count that overflows the packed cells cannot equal any stored
        // row (the layout bound covers every reachable configuration).
        let mut packed = Vec::new();
        if !self.arena.layout().try_pack_into(&row, &mut packed) {
            return None;
        }
        self.arena.lookup(&packed).map(super::ConfigId::index)
    }

    /// The ids of the initial configurations.
    #[must_use]
    pub fn initial_ids(&self) -> &[usize] {
        &self.initial
    }

    /// Outgoing edges of node `id` as `(transition index, successor id)`
    /// pairs, in transition index order: a view into the graph's one flat
    /// edge array.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn successors(&self, id: usize) -> &[(u32, u32)] {
        self.edges.of(id)
    }

    /// Returns `true` if `self` and `other` are the same graph node for
    /// node: same numbering, dense rows, edges, depths, initial ids,
    /// completion, dirty frontier and pending initials.
    ///
    /// This is the determinism contract of the engine in one call — builds
    /// of the same input with packed or `u64` rows must satisfy it, and a
    /// [`resume`](Self::resume)d graph must satisfy it against a cold build
    /// at the final limits. The equivalence tests all go through this
    /// single definition.
    #[must_use]
    pub fn identical_to(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self.completion == other.completion
            && self.initial == other.initial
            && self.depths == other.depths
            && self.dirty == other.dirty
            && self.pending_initials == other.pending_initials
            && self.ids().all(|id| {
                let same_row = if self.arena.layout() == other.arena.layout() {
                    // Same layout: the packed words are the canonical form,
                    // compare them directly (no unpacking).
                    self.packed_node(id) == other.packed_node(id)
                } else {
                    // Different layouts (e.g. packed vs. gate-disabled
                    // build): identical graphs decode to identical counts.
                    self.dense_node(id) == other.dense_node(id)
                };
                same_row && self.successors(id) == other.successors(id)
            })
    }

    /// Iterates over all node ids.
    pub fn ids(&self) -> impl Iterator<Item = usize> {
        0..self.arena.len()
    }

    /// Marks the nodes reachable from `from`, `from` itself included:
    /// `marks[id]` is `true` exactly for those ids, so scanning the marks
    /// in index order visits them in ascending id order. One depth-first
    /// walk over the flat edge array, O(nodes + edges).
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of bounds.
    #[must_use]
    pub fn reachable_from(&self, from: usize) -> Vec<bool> {
        assert!(from < self.len(), "node id out of bounds");
        let mut marks = vec![false; self.len()];
        marks[from] = true;
        let mut stack = vec![from];
        while let Some(id) = stack.pop() {
            for &(_, to) in self.edges.of(id) {
                if !std::mem::replace(&mut marks[to as usize], true) {
                    stack.push(to as usize);
                }
            }
        }
        marks
    }

    /// Marks the nodes from which some node satisfying `goal` is
    /// reachable: `marks[id]` is `true` exactly for those ids. `goal` is
    /// asked once per node, in ascending id order.
    ///
    /// Builds the graph's [`predecessors`](Self::predecessors) and walks
    /// them once, O(nodes + edges). A caller with several goals on one
    /// graph builds the predecessors once and walks them per goal.
    #[must_use]
    pub fn nodes_that_can_reach<F: FnMut(usize) -> bool>(&self, goal: F) -> Vec<bool> {
        self.predecessors().nodes_that_can_reach(goal)
    }

    /// The predecessors of every node, counting-sorted into one flat
    /// array: the reverse graph that
    /// [`Predecessors::nodes_that_can_reach`] walks. O(nodes + edges) to
    /// build, with no allocation per node.
    #[must_use]
    pub fn predecessors(&self) -> Predecessors {
        let n = self.len();
        // `starts[v]` first counts the in-edges of every node up to `v`;
        // each predecessor is then placed by decrementing its target's
        // counter, which leaves `v`'s predecessors at
        // `preds[starts[v]..starts[v + 1]]`.
        let mut starts = vec![0usize; n + 1];
        for id in 0..n {
            for &(_, to) in self.edges.of(id) {
                starts[to as usize] += 1;
            }
        }
        for v in 1..=n {
            starts[v] += starts[v - 1];
        }
        let mut preds = vec![0u32; starts[n]];
        for id in 0..n {
            for &(_, to) in self.edges.of(id) {
                let slot = &mut starts[to as usize];
                *slot -= 1;
                // Node ids fit `u32`: the arena hands out `u32` ids.
                preds[*slot] = id as u32;
            }
        }
        Predecessors { starts, preds }
    }

    /// A shortest transition word from node `from` to some node satisfying
    /// `goal`, if one exists within the graph.
    ///
    /// Breadth-first over the flat edge array, with one parent edge per
    /// node: among the shortest words it returns the one the search meets
    /// first, scanning nodes in discovery order and edges in transition
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of bounds.
    #[must_use]
    pub fn path_to<F: FnMut(usize) -> bool>(
        &self,
        from: usize,
        mut goal: F,
    ) -> Option<(usize, Vec<usize>)> {
        assert!(from < self.len(), "node id out of bounds");
        if goal(from) {
            return Some((from, Vec::new()));
        }
        // `parent[id]` is the `(node, transition)` edge that discovered
        // `id`. No node id reaches `u32::MAX` (the arena holds at most
        // `u32::MAX` rows), so it marks the undiscovered nodes.
        const UNSEEN: (u32, u32) = (u32::MAX, u32::MAX);
        let mut parent = vec![UNSEEN; self.len()];
        parent[from] = (from as u32, 0);
        let mut queue = vec![from as u32];
        let mut head = 0;
        while let Some(&id) = queue.get(head) {
            head += 1;
            for &(t, to) in self.edges.of(id as usize) {
                if parent[to as usize] != UNSEEN {
                    continue;
                }
                parent[to as usize] = (id, t);
                if goal(to as usize) {
                    let mut word = Vec::new();
                    let mut cur = to;
                    while cur as usize != from {
                        let (prev, transition) = parent[cur as usize];
                        word.push(transition as usize);
                        cur = prev;
                    }
                    word.reverse();
                    return Some((to as usize, word));
                }
                queue.push(to);
            }
        }
        None
    }

    /// Strongly connected components of the graph, in reverse topological
    /// order (every edge leaving a component goes to an earlier component in
    /// the returned list). Uses an iterative Tarjan algorithm over the flat
    /// edge array, O(nodes + edges).
    #[must_use]
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let n = self.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut components: Vec<Vec<usize>> = Vec::new();

        #[derive(Debug)]
        struct Frame {
            node: usize,
            edge: usize,
        }
        let mut call_stack: Vec<Frame> = Vec::new();

        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            call_stack.push(Frame {
                node: start,
                edge: 0,
            });
            index[start] = next_index;
            low[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;

            while let Some(frame) = call_stack.last_mut() {
                let node = frame.node;
                if let Some(&(_, to)) = self.edges.of(node).get(frame.edge) {
                    let to = to as usize;
                    frame.edge += 1;
                    if index[to] == usize::MAX {
                        index[to] = next_index;
                        low[to] = next_index;
                        next_index += 1;
                        stack.push(to);
                        on_stack[to] = true;
                        call_stack.push(Frame { node: to, edge: 0 });
                    } else if on_stack[to] {
                        low[node] = low[node].min(index[to]);
                    }
                } else {
                    call_stack.pop();
                    if let Some(parent) = call_stack.last() {
                        low[parent.node] = low[parent.node].min(low[node]);
                    }
                    if low[node] == index[node] {
                        let mut component = Vec::new();
                        loop {
                            let v = stack.pop().expect("tarjan stack underflow");
                            on_stack[v] = false;
                            component.push(v);
                            if v == node {
                                break;
                            }
                        }
                        component.sort_unstable();
                        components.push(component);
                    }
                }
            }
        }
        components
    }

    /// The strongly connected component containing `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn scc_of(&self, id: usize) -> Vec<usize> {
        assert!(id < self.arena.len(), "node id out of bounds");
        self.sccs()
            .into_iter()
            .find(|c| c.contains(&id))
            .expect("every node belongs to a component")
    }
}

/// The reverse graph of a [`ReachabilityGraph`], built by
/// [`ReachabilityGraph::predecessors`]: node `v`'s predecessors are
/// `preds[starts[v]..starts[v + 1]]`, one flat array for all nodes.
/// Any number of backward walks can share one build.
#[derive(Debug)]
pub struct Predecessors {
    starts: Vec<usize>,
    preds: Vec<u32>,
}

impl Predecessors {
    /// Marks the nodes from which some node satisfying `goal` is
    /// reachable: `marks[id]` is `true` exactly for those ids. `goal` is
    /// asked once per node, in ascending id order, and a walk from the
    /// goal nodes then follows the predecessors backwards, O(nodes +
    /// edges).
    #[must_use]
    pub fn nodes_that_can_reach<F: FnMut(usize) -> bool>(&self, goal: F) -> Vec<bool> {
        let n = self.starts.len() - 1;
        let mut marks: Vec<bool> = (0..n).map(goal).collect();
        let mut stack: Vec<usize> = (0..n).filter(|&id| marks[id]).collect();
        while let Some(id) = stack.pop() {
            for &p in &self.preds[self.starts[id]..self.starts[id + 1]] {
                if !std::mem::replace(&mut marks[p as usize], true) {
                    stack.push(p as usize);
                }
            }
        }
        marks
    }
}

/// Reference sparse exploration: the pre-engine `BTreeMap`-based breadth
/// first search, kept as the differential-testing and benchmarking baseline
/// for the dense engine path of [`Analysis::reachability`].
///
/// Returns the set of reached configurations and whether the exploration
/// completed without hitting a limit. Semantics match
/// [`Analysis::reachability`] exactly; the property tests in
/// `tests/dense_sparse_equivalence.rs` assert that node sets and
/// completeness flags agree on the protocol catalog.
///
/// [`Analysis::reachability`]: crate::session::Analysis::reachability
#[must_use]
pub fn sparse_reference_exploration<P, I>(
    net: &PetriNet<P>,
    initial: I,
    limits: &ExplorationLimits,
) -> (BTreeSet<Multiset<P>>, bool)
where
    P: Clone + Ord,
    I: IntoIterator<Item = Multiset<P>>,
{
    let mut index: BTreeMap<Multiset<P>, usize> = BTreeMap::new();
    let mut configs: Vec<Multiset<P>> = Vec::new();
    let mut complete = true;
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();

    let intern = |config: Multiset<P>,
                  index: &mut BTreeMap<Multiset<P>, usize>,
                  configs: &mut Vec<Multiset<P>>|
     -> Option<usize> {
        if let Some(&id) = index.get(&config) {
            return Some(id);
        }
        if configs.len() >= limits.max_configurations {
            return None;
        }
        let id = configs.len();
        index.insert(config.clone(), id);
        configs.push(config);
        Some(id)
    };

    let mut initial_ids = Vec::new();
    for config in initial {
        match intern(config, &mut index, &mut configs) {
            Some(id) => {
                if !initial_ids.contains(&id) {
                    initial_ids.push(id);
                    queue.push_back((id, 0));
                }
            }
            None => complete = false,
        }
    }

    let mut expanded = vec![false; configs.len()];
    while let Some((id, depth)) = queue.pop_front() {
        if expanded.get(id).copied().unwrap_or(false) {
            continue;
        }
        if expanded.len() < configs.len() {
            expanded.resize(configs.len(), false);
        }
        expanded[id] = true;
        if let Some(max_depth) = limits.max_depth {
            if depth >= max_depth {
                complete = false;
                continue;
            }
        }
        if let Some(max_agents) = limits.max_agents {
            if configs[id].total() > max_agents {
                complete = false;
                continue;
            }
        }
        for (_, successor) in net.successors(&configs[id]) {
            match intern(successor, &mut index, &mut configs) {
                Some(succ_id) => {
                    if !expanded.get(succ_id).copied().unwrap_or(false) {
                        if expanded.len() < configs.len() {
                            expanded.resize(configs.len(), false);
                        }
                        queue.push_back((succ_id, depth + 1));
                    }
                }
                None => complete = false,
            }
        }
    }
    (configs.into_iter().collect(), complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Analysis;
    use crate::Transition;

    fn ms(pairs: &[(&'static str, u64)]) -> Multiset<&'static str> {
        Multiset::from_pairs(pairs.iter().copied())
    }

    /// Net over {a, b}: a+a -> a+b (irreversible) and a+b <-> b+a (identity-ish b toggles).
    fn doubling_net() -> PetriNet<&'static str> {
        PetriNet::from_transitions([
            Transition::pairwise("a", "a", "a", "b"),
            Transition::pairwise("a", "b", "b", "b"),
        ])
    }

    /// One-shot build through the session API, cloned out of the session's
    /// `Arc` because several tests resume or mutate the graph in place.
    fn build<P: Clone + Ord, I: IntoIterator<Item = Multiset<P>>>(
        net: &PetriNet<P>,
        initials: I,
        limits: &ExplorationLimits,
    ) -> ReachabilityGraph<P> {
        Analysis::new(net)
            .reachability(initials)
            .limits(*limits)
            .run()
            .as_ref()
            .clone()
    }

    #[test]
    fn conservative_graph_is_complete() {
        let net = doubling_net();
        let graph = build(&net, [ms(&[("a", 5)])], &ExplorationLimits::default());
        assert!(graph.is_complete());
        // Reachable: 5a, 4a+b, 3a+2b, 2a+3b, a+4b, 5b — a can always convert.
        assert_eq!(graph.len(), 6);
        assert_eq!(graph.initial_ids().len(), 1);
        assert!(graph.id_of(&ms(&[("b", 5)])).is_some());
        assert!(graph.id_of(&ms(&[("a", 5), ("b", 1)])).is_none());
    }

    #[test]
    fn budget_truncation_is_reported() {
        // Tiny caps: the budget is enforced before the arena's id-space
        // panic path, and the graph stops at exactly the budget (7 nodes
        // are reachable from 6a).
        let net = doubling_net();
        for cap in [1usize, 2, 3, 5] {
            let limits = ExplorationLimits::with_max_configurations(cap);
            let graph = build(&net, [ms(&[("a", 6)])], &limits);
            assert!(!graph.is_complete());
            assert_eq!(graph.len(), cap);
        }
    }

    #[test]
    fn oversized_budget_is_clamped_to_the_arena_id_space() {
        // A budget beyond the arena's u32 id space must degrade into a
        // truncated build, never an id-overflow panic.
        let limits = ExplorationLimits::with_max_configurations(usize::MAX);
        assert_eq!(
            limits.effective_max_configurations(),
            MAX_GRAPH_CONFIGURATIONS
        );
        let exact = ExplorationLimits::with_max_configurations(MAX_GRAPH_CONFIGURATIONS);
        assert_eq!(
            exact.effective_max_configurations(),
            MAX_GRAPH_CONFIGURATIONS
        );
        // Sanity: a small build under the clamped budget still completes.
        let net = doubling_net();
        let graph = build(&net, [ms(&[("a", 4)])], &limits);
        assert!(graph.is_complete());
    }

    #[test]
    fn agent_budget_stops_expansion_of_large_configs() {
        // Non-conservative net: a -> a + a grows without bound.
        let net = PetriNet::from_transitions([Transition::new(ms(&[("a", 1)]), ms(&[("a", 2)]))]);
        let limits = ExplorationLimits::with_max_agents(4);
        let graph = build(&net, [ms(&[("a", 1)])], &limits);
        assert!(!graph.is_complete());
        // 1, 2, 3, 4 agents are expanded; 5 is stored but not expanded.
        assert_eq!(graph.len(), 5);
    }

    #[test]
    fn depth_budget() {
        let net = doubling_net();
        let limits = ExplorationLimits {
            max_depth: Some(1),
            ..Default::default()
        };
        let graph = build(&net, [ms(&[("a", 5)])], &limits);
        assert!(!graph.is_complete());
        assert_eq!(graph.len(), 2);
    }

    #[test]
    fn path_search_finds_shortest_word() {
        let net = doubling_net();
        let graph = build(&net, [ms(&[("a", 4)])], &ExplorationLimits::default());
        let start = graph.initial_ids()[0];
        let target = ms(&[("b", 4)]);
        let (goal, word) = graph
            .path_to(start, |id| graph.node(id) == &target)
            .expect("4b is reachable");
        assert_eq!(graph.node(goal), &target);
        assert_eq!(word.len(), 4);
        assert_eq!(net.fire_word(&ms(&[("a", 4)]), &word), Some(target));
        assert!(graph
            .path_to(start, |id| graph.node(id).get(&"z") > 0)
            .is_none());
    }

    #[test]
    fn reachable_and_coreachable_sets() {
        let net = doubling_net();
        let graph = build(&net, [ms(&[("a", 3)])], &ExplorationLimits::default());
        let start = graph.initial_ids()[0];
        let all = graph.reachable_from(start);
        assert_eq!(all.len(), graph.len());
        assert!(all.iter().all(|&reached| reached));
        let sink = graph.id_of(&ms(&[("b", 3)])).unwrap();
        let from_sink = graph.reachable_from(sink);
        assert_eq!(
            graph.ids().filter(|&id| from_sink[id]).collect::<Vec<_>>(),
            [sink]
        );
        let can_reach_sink = graph.nodes_that_can_reach(|id| id == sink);
        assert!(can_reach_sink.iter().all(|&can_reach| can_reach));
    }

    #[test]
    fn sccs_of_a_dag_are_singletons() {
        let net = doubling_net();
        let graph = build(&net, [ms(&[("a", 3)])], &ExplorationLimits::default());
        let sccs = graph.sccs();
        assert_eq!(sccs.len(), graph.len());
        assert!(sccs.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn sccs_detect_cycles() {
        // a <-> b reversible plus an escape to c.
        let net = PetriNet::from_transitions([
            Transition::new(ms(&[("a", 1)]), ms(&[("b", 1)])),
            Transition::new(ms(&[("b", 1)]), ms(&[("a", 1)])),
            Transition::new(ms(&[("a", 2)]), ms(&[("c", 2)])),
        ]);
        let graph = build(&net, [ms(&[("a", 2)])], &ExplorationLimits::default());
        let sccs = graph.sccs();
        // {2a, a+b, 2b} form one component; 2c is its own.
        let sizes: Vec<usize> = sccs.iter().map(Vec::len).collect();
        assert!(sizes.contains(&3));
        assert!(sizes.contains(&1));
        let start = graph.initial_ids()[0];
        assert_eq!(graph.scc_of(start).len(), 3);
        // Reverse topological order: the first component has no outgoing edges.
        let first = &sccs[0];
        for &id in first {
            for &(_, to) in graph.successors(id) {
                assert!(first.contains(&(to as usize)));
            }
        }
    }

    #[test]
    fn resume_extends_truncated_graphs_bit_identically() {
        let net = doubling_net();
        let start = [ms(&[("a", 6)])];
        for (small, large) in [(1usize, 2), (1, 7), (2, 4), (3, 250_000)] {
            let small_limits = ExplorationLimits::with_max_configurations(small);
            let large_limits = ExplorationLimits::with_max_configurations(large);
            let mut resumed = build(&net, start.clone(), &small_limits);
            resumed.resume(&large_limits);
            let cold = build(&net, start.clone(), &large_limits);
            assert!(resumed.identical_to(&cold), "cap {small} -> {large}");
            assert_eq!(resumed.limits(), &large_limits);
        }
    }

    #[test]
    fn resume_chains_compose() {
        // B -> B' -> B'' must equal a cold build at B'' at every stop.
        let net = doubling_net();
        let start = [ms(&[("a", 7)])];
        let mut resumed = build(
            &net,
            start.clone(),
            &ExplorationLimits::with_max_configurations(1),
        );
        for budget in [2usize, 3, 5, 100] {
            let limits = ExplorationLimits::with_max_configurations(budget);
            resumed.resume(&limits);
            let cold = build(&net, start.clone(), &limits);
            assert!(resumed.identical_to(&cold), "chained resume to {budget}");
        }
        assert!(resumed.is_complete());
    }

    #[test]
    fn resume_through_agent_and_depth_caps() {
        // Non-conservative growth capped by agents, then the cap raised;
        // and a depth-capped graph deepened. Both must replay bit-identically.
        let net = PetriNet::from_transitions([Transition::new(ms(&[("a", 1)]), ms(&[("a", 2)]))]);
        let mut resumed = build(
            &net,
            [ms(&[("a", 1)])],
            &ExplorationLimits::with_max_agents(3),
        );
        assert_eq!(resumed.completion(), Completion::AgentCap);
        resumed.resume(&ExplorationLimits::with_max_agents(9));
        let cold = build(
            &net,
            [ms(&[("a", 1)])],
            &ExplorationLimits::with_max_agents(9),
        );
        assert!(resumed.identical_to(&cold));

        let net = doubling_net();
        let depth = |d: usize| ExplorationLimits {
            max_depth: Some(d),
            ..Default::default()
        };
        let mut resumed = build(&net, [ms(&[("a", 6)])], &depth(1));
        assert_eq!(resumed.completion(), Completion::DepthCap);
        for d in [2usize, 3, 50] {
            resumed.resume(&depth(d));
            let cold = build(&net, [ms(&[("a", 6)])], &depth(d));
            assert!(resumed.identical_to(&cold), "depth {d}");
        }
        // Lifting the depth cap entirely completes the graph.
        resumed.resume(&ExplorationLimits::default());
        assert!(resumed.is_complete());
    }

    #[test]
    fn resume_interns_pending_initials_in_cold_order() {
        // Budget 1 refuses two of the three initials; the resumed graph
        // must intern them exactly where a cold build numbers them.
        let net = doubling_net();
        let initials = [ms(&[("a", 2)]), ms(&[("b", 2)]), ms(&[("a", 1), ("b", 1)])];
        let mut resumed = build(
            &net,
            initials.clone(),
            &ExplorationLimits::with_max_configurations(1),
        );
        assert_eq!(resumed.initial_ids().len(), 1);
        resumed.resume(&ExplorationLimits::default());
        let cold = build(&net, initials, &ExplorationLimits::default());
        assert!(resumed.identical_to(&cold));
        assert_eq!(resumed.initial_ids().len(), 3);
        assert!(resumed.is_complete());
    }

    #[test]
    fn resume_on_a_complete_graph_is_a_no_op() {
        let net = doubling_net();
        let cold = build(&net, [ms(&[("a", 5)])], &ExplorationLimits::default());
        let mut resumed = cold.clone();
        resumed.resume(&ExplorationLimits::with_max_configurations(usize::MAX));
        assert_eq!(resumed.len(), cold.len());
        assert!(resumed.is_complete());
    }

    #[test]
    #[should_panic(expected = "dominate")]
    fn resume_rejects_lowered_limits() {
        let net = doubling_net();
        let mut graph = build(&net, [ms(&[("a", 5)])], &ExplorationLimits::default());
        graph.resume(&ExplorationLimits::with_max_configurations(1));
    }

    #[test]
    fn limit_dominance_is_pointwise() {
        let base = ExplorationLimits {
            max_configurations: 100,
            max_agents: Some(10),
            max_depth: Some(5),
        };
        assert!(base.dominates(&base));
        let unlimited = ExplorationLimits {
            max_configurations: 100,
            max_agents: None,
            max_depth: None,
        };
        assert!(unlimited.dominates(&base));
        assert!(!base.dominates(&unlimited));
        let smaller = ExplorationLimits {
            max_configurations: 99,
            ..base
        };
        assert!(base.dominates(&smaller));
        assert!(!smaller.dominates(&base));
    }

    #[test]
    fn completion_reports_the_dominant_reason() {
        let net = doubling_net();
        let graph = build(&net, [ms(&[("a", 5)])], &ExplorationLimits::default());
        assert_eq!(graph.completion(), Completion::Complete);
        let capped = build(
            &net,
            [ms(&[("a", 5)])],
            &ExplorationLimits::with_max_configurations(2),
        );
        assert_eq!(capped.completion(), Completion::ConfigBudget);
        // A budget beyond the arena id space reports the id space, not the
        // caller's number.
        let net = PetriNet::from_transitions([Transition::new(ms(&[("a", 1)]), ms(&[("a", 2)]))]);
        let limits = ExplorationLimits {
            max_configurations: usize::MAX,
            max_agents: Some(4),
            max_depth: None,
        };
        let graph = build(&net, [ms(&[("a", 1)])], &limits);
        assert_eq!(graph.completion(), Completion::AgentCap);
        assert!(!graph.is_complete());
    }

    #[test]
    fn depths_follow_bfs_levels() {
        let net = doubling_net();
        let graph = build(&net, [ms(&[("a", 4)])], &ExplorationLimits::default());
        assert_eq!(graph.depth_of(graph.initial_ids()[0]), 0);
        for id in graph.ids() {
            for &(_, to) in graph.successors(id) {
                assert!(graph.depth_of(to as usize) <= graph.depth_of(id) + 1);
            }
        }
    }

    #[test]
    fn multiple_initial_configurations() {
        let net = doubling_net();
        let graph = build(
            &net,
            [ms(&[("a", 2)]), ms(&[("b", 2)])],
            &ExplorationLimits::default(),
        );
        assert_eq!(graph.initial_ids().len(), 2);
        assert!(graph.id_of(&ms(&[("b", 2)])).is_some());
        assert!(graph.id_of(&ms(&[("a", 1), ("b", 1)])).is_some());
    }

    /// The graph queries as they were before the flat edge store
    /// (`BTreeSet` marks, `VecDeque` queues, `BTreeMap` parents, Tarjan
    /// over one `Vec` per node), run over successor lists rebuilt from the
    /// sparse net: the oracle for the flat store and its queries.
    struct ReferenceGraph {
        edges: Vec<Vec<(usize, usize)>>,
    }

    impl ReferenceGraph {
        /// Per node, the edges an exploration under `graph`'s limits
        /// records: none for a node at the depth cap or over the agent
        /// cap, otherwise every enabled transition, in index order, whose
        /// successor is stored. A successor the budget refused is never
        /// stored later, since interning stops once the budget is full.
        fn of<P: Clone + Ord>(net: &PetriNet<P>, graph: &ReachabilityGraph<P>) -> Self {
            let limits = graph.limits();
            let edges = graph
                .ids()
                .map(|id| {
                    let capped = limits.max_depth.is_some_and(|d| graph.depth_of(id) >= d)
                        || limits
                            .max_agents
                            .is_some_and(|a| graph.node(id).total() > a);
                    if capped {
                        return Vec::new();
                    }
                    net.successors(graph.node(id))
                        .into_iter()
                        .filter_map(|(t, next)| graph.id_of(&next).map(|to| (t, to)))
                        .collect()
                })
                .collect();
            ReferenceGraph { edges }
        }

        fn reachable_from(&self, from: usize) -> BTreeSet<usize> {
            let mut seen = BTreeSet::from([from]);
            let mut queue = VecDeque::from([from]);
            while let Some(id) = queue.pop_front() {
                for &(_, to) in &self.edges[id] {
                    if seen.insert(to) {
                        queue.push_back(to);
                    }
                }
            }
            seen
        }

        fn nodes_that_can_reach(&self, goal: impl Fn(usize) -> bool) -> BTreeSet<usize> {
            let mut preds = vec![Vec::new(); self.edges.len()];
            for (from, edges) in self.edges.iter().enumerate() {
                for &(_, to) in edges {
                    preds[to].push(from);
                }
            }
            let mut seen: BTreeSet<usize> = (0..self.edges.len()).filter(|&id| goal(id)).collect();
            let mut queue: VecDeque<usize> = seen.iter().copied().collect();
            while let Some(id) = queue.pop_front() {
                for &p in &preds[id] {
                    if seen.insert(p) {
                        queue.push_back(p);
                    }
                }
            }
            seen
        }

        fn path_to(
            &self,
            from: usize,
            goal: impl Fn(usize) -> bool,
        ) -> Option<(usize, Vec<usize>)> {
            if goal(from) {
                return Some((from, Vec::new()));
            }
            let mut parents: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
            let mut queue = VecDeque::from([from]);
            let mut seen = BTreeSet::from([from]);
            while let Some(id) = queue.pop_front() {
                for &(t, to) in &self.edges[id] {
                    if seen.insert(to) {
                        parents.insert(to, (id, t));
                        if goal(to) {
                            let mut word = Vec::new();
                            let mut cur = to;
                            while cur != from {
                                let (parent, transition) = parents[&cur];
                                word.push(transition);
                                cur = parent;
                            }
                            word.reverse();
                            return Some((to, word));
                        }
                        queue.push_back(to);
                    }
                }
            }
            None
        }

        fn sccs(&self) -> Vec<Vec<usize>> {
            let n = self.edges.len();
            let mut index = vec![usize::MAX; n];
            let mut low = vec![0usize; n];
            let mut on_stack = vec![false; n];
            let mut stack: Vec<usize> = Vec::new();
            let mut next_index = 0usize;
            let mut components: Vec<Vec<usize>> = Vec::new();
            for start in 0..n {
                if index[start] != usize::MAX {
                    continue;
                }
                // Frames are `(node, next edge)`.
                let mut call_stack = vec![(start, 0usize)];
                index[start] = next_index;
                low[start] = next_index;
                next_index += 1;
                stack.push(start);
                on_stack[start] = true;
                while let Some(frame) = call_stack.last_mut() {
                    let node = frame.0;
                    if frame.1 < self.edges[node].len() {
                        let (_, to) = self.edges[node][frame.1];
                        frame.1 += 1;
                        if index[to] == usize::MAX {
                            index[to] = next_index;
                            low[to] = next_index;
                            next_index += 1;
                            stack.push(to);
                            on_stack[to] = true;
                            call_stack.push((to, 0));
                        } else if on_stack[to] {
                            low[node] = low[node].min(index[to]);
                        }
                    } else {
                        call_stack.pop();
                        if let Some(&(parent, _)) = call_stack.last() {
                            low[parent] = low[parent].min(low[node]);
                        }
                        if low[node] == index[node] {
                            let mut component = Vec::new();
                            loop {
                                let v = stack.pop().expect("tarjan stack underflow");
                                on_stack[v] = false;
                                component.push(v);
                                if v == node {
                                    break;
                                }
                            }
                            component.sort_unstable();
                            components.push(component);
                        }
                    }
                }
            }
            components
        }
    }

    /// Checks the flat store and every query of `graph` against
    /// [`ReferenceGraph`]: successor lists, marks, ascending
    /// `reachable_from` order, `path_to` words and `sccs`. Queries start
    /// from at most about 64 nodes spread over the id range.
    fn assert_matches_reference<P: Clone + Ord>(net: &PetriNet<P>, graph: &ReachabilityGraph<P>) {
        let reference = ReferenceGraph::of(net, graph);
        let n = graph.len();
        for id in graph.ids() {
            let flat: Vec<(usize, usize)> = graph
                .successors(id)
                .iter()
                .map(|&(t, to)| (t as usize, to as usize))
                .collect();
            assert_eq!(flat, reference.edges[id], "successors of node {id}");
        }
        let is_sink = |id: usize| reference.edges[id].is_empty();
        let every_third = |id: usize| id % 3 == 1;
        let last = |id: usize| id + 1 == n;
        let goals: [&dyn Fn(usize) -> bool; 3] = [&is_sink, &every_third, &last];
        let marked = |marks: &[bool]| -> Vec<usize> {
            assert_eq!(marks.len(), n, "one mark per node");
            graph.ids().filter(|&id| marks[id]).collect()
        };
        // Every goal walks the one shared `Predecessors` build, and the
        // graph's one-shot query must agree with both.
        let predecessors = graph.predecessors();
        for goal in goals {
            let expected: Vec<usize> = reference.nodes_that_can_reach(goal).into_iter().collect();
            let shared = predecessors.nodes_that_can_reach(goal);
            assert_eq!(marked(&shared), expected, "shared predecessors");
            let flat = graph.nodes_that_can_reach(goal);
            assert_eq!(marked(&flat), expected, "nodes_that_can_reach");
        }
        for from in graph.ids().step_by((n / 64).max(1)) {
            let expected: Vec<usize> = reference.reachable_from(from).into_iter().collect();
            assert_eq!(
                marked(&graph.reachable_from(from)),
                expected,
                "reachable_from({from})"
            );
            for goal in goals {
                assert_eq!(
                    graph.path_to(from, goal),
                    reference.path_to(from, goal),
                    "path_to from {from}"
                );
            }
        }
        assert_eq!(graph.sccs(), reference.sccs(), "sccs");
    }

    /// Builds `initials` under the first limits of `chain`, then resumes
    /// the same graph through the rest. Every stop must be `identical_to`
    /// its cold build and agree with the reference, and so must the cold
    /// builds.
    fn assert_chain_matches_reference<P: Clone + Ord>(
        net: &PetriNet<P>,
        initials: &[Multiset<P>],
        chain: &[ExplorationLimits],
    ) {
        let mut resumed = build(net, initials.iter().cloned(), &chain[0]);
        assert_matches_reference(net, &resumed);
        for limits in &chain[1..] {
            resumed.resume(limits);
            let cold = build(net, initials.iter().cloned(), limits);
            assert!(resumed.identical_to(&cold), "resumed to {limits:?}");
            assert_matches_reference(net, &resumed);
            assert_matches_reference(net, &cold);
        }
    }

    /// Raises `limits` by `(budget, agents, depth)` steps; a cap step of 3
    /// lifts the cap.
    fn raised(
        limits: ExplorationLimits,
        (budget, agents, depth): (usize, u64, usize),
    ) -> ExplorationLimits {
        ExplorationLimits {
            max_configurations: limits.max_configurations + budget,
            max_agents: limits.max_agents.filter(|_| agents < 3).map(|a| a + agents),
            max_depth: limits.max_depth.filter(|_| depth < 3).map(|d| d + depth),
        }
    }

    /// Small random nets, agent-creating ones included, with one or two
    /// initial configurations, under a budget, an optional agent cap and an
    /// optional depth cap (0 draws no cap), raised twice.
    fn arb_chain() -> impl proptest::prelude::Strategy<
        Value = (PetriNet<u8>, Vec<Multiset<u8>>, [ExplorationLimits; 3]),
    > {
        use proptest::collection::{btree_map, vec};
        use proptest::prelude::Strategy;
        (1u8..=4).prop_flat_map(|places| {
            let side = move || btree_map(0..places, 1u64..=2, 0..3);
            let step = || (0usize..25, 0u64..4, 0usize..4);
            (
                (
                    vec((side(), side()), 1..6),
                    vec(btree_map(0..places, 1u64..=3, 1..4), 1..3),
                ),
                (0usize..30, 0u64..8, 0usize..6),
                (step(), step()),
            )
                .prop_map(
                    |((transitions, initials), (budget, agents, depth), (first, second))| {
                        let net = PetriNet::from_transitions(transitions.into_iter().map(
                            |(pre, post)| {
                                Transition::new(
                                    Multiset::from_pairs(pre),
                                    Multiset::from_pairs(post),
                                )
                            },
                        ));
                        let initials = initials.into_iter().map(Multiset::from_pairs).collect();
                        let base = ExplorationLimits {
                            max_configurations: budget,
                            max_agents: (agents > 0).then_some(agents),
                            max_depth: (depth > 0).then_some(depth),
                        };
                        let middle = raised(base, first);
                        (net, initials, [base, middle, raised(middle, second)])
                    },
                )
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn flat_store_and_queries_match_the_reference((net, initials, chain) in arb_chain()) {
            assert_chain_matches_reference(&net, &initials, &chain);
        }
    }

    #[test]
    fn catalog_flat_store_and_queries_match_the_reference() {
        use pp_protocols::{flock, leaders_n, threshold};
        for (protocol, agents) in [
            (flock::flock_of_birds_unary(4), 14u64),
            (threshold::binary_threshold_with_leader(4), 12),
            (leaders_n::example_4_2(3), 12),
        ] {
            // `pp_protocols` links its own build of this crate, so the net
            // is copied into this build's types, places and transition
            // order included.
            let mut net = PetriNet::new();
            for place in protocol.net().places() {
                net.add_place(*place);
            }
            for t in protocol.net().transitions() {
                net.add_transition(Transition::new(t.pre().clone(), t.post().clone()));
            }
            let initials = [protocol.initial_config_with_count(agents)];
            let full = build(
                &net,
                initials.iter().cloned(),
                &ExplorationLimits::default(),
            );
            assert!(full.is_complete(), "{}", protocol.name());
            let n = full.len();
            let by_budget = |budget: usize| ExplorationLimits::with_max_configurations(budget);
            let by_depth = |depth: usize| ExplorationLimits {
                max_depth: Some(depth),
                ..ExplorationLimits::default()
            };
            let total = initials[0].total();
            let by_agents = |cap: u64| ExplorationLimits::with_max_agents(cap);
            for chain in [
                [
                    by_budget(n / 3),
                    by_budget(2 * n / 3),
                    ExplorationLimits::default(),
                ],
                [by_depth(2), by_depth(5), ExplorationLimits::default()],
                [
                    by_agents(total - 1),
                    by_agents(total),
                    ExplorationLimits::default(),
                ],
            ] {
                assert_chain_matches_reference(&net, &initials, &chain);
            }
        }
    }
}
