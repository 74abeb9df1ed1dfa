//! Multi-query batch scheduling over shared compiled nets.
//!
//! The [`Analysis`] session made *one* net cheap
//! to query repeatedly; serving-shaped consumers go one step further and
//! run *fleets* of queries — possibly over several nets — under one
//! resource budget. A [`Batch`] takes a set of [`BatchJob`]s (net + query
//! shape + limits), deduplicates identical nets behind shared compiled
//! sessions, runs the jobs concurrently under the existing
//! [`Parallelism`] knob, and reports every result through a structured
//! [`BatchReport`] (per-job [`Completion`], timings, cache-hit counts).
//!
//! ```
//! use pp_multiset::Multiset;
//! use pp_petri::batch::{Batch, BatchJob};
//! use pp_petri::{PetriNet, Transition};
//!
//! let net = PetriNet::from_transitions([Transition::pairwise("a", "a", "a", "b")]);
//! let start = |k: u64| Multiset::from_pairs([("a", k)]);
//! let report = Batch::new()
//!     .job(BatchJob::reachability("four", net.clone(), [start(4)]))
//!     .job(BatchJob::reachability("five", net.clone(), [start(5)]))
//!     .job(BatchJob::coverability("two-b", net, Multiset::from_pairs([("b", 2u64)])))
//!     .run();
//! assert_eq!(report.jobs.len(), 3);
//! assert_eq!(report.distinct_nets, 1); // one compile served all three jobs
//! assert!(report.all_complete());
//! ```
//!
//! # The shared budget pool
//!
//! Without a pool every job runs at its own [`ExplorationLimits`]. With
//! [`Batch::pool`], the batch owns a single token budget (one token = one
//! stored configuration / Karp–Miller node) that is **fair-shared**: each
//! round, the remaining tokens are split evenly over the jobs that still
//! want budget (ties broken by job index, so the split is deterministic),
//! every such job runs — or *resumes* — at its cumulative grant, and jobs
//! that finish below their grant refund the unused tokens to the pool,
//! where the next round redistributes them to the still-running jobs.
//! The loop ends when the pool is dry or every job is settled.
//!
//! Because rounds are barriers and every grant is computed from
//! deterministic quantities (graph sizes and [`Completion`]s do not depend
//! on thread interleaving), each job's **final budget is deterministic**,
//! and its result is bit-identical to a solo run at that budget: raising
//! only the configuration budget keeps
//! [`ReachabilityGraph::resume`](crate::explore::ReachabilityGraph::resume)
//! on its in-place path, whose extension contract is exactly
//! "indistinguishable from a cold build at the final limits"
//! ([`identical_to`](crate::explore::ReachabilityGraph::identical_to)).
//! `tests/batch_fairness.rs` property-tests this for the sequential and
//! the parallel runner alike.
//!
//! Token accounting per query shape (a settled job refunds its grant
//! minus [`QueryRun::used`]):
//!
//! * **Reachability** — demands `limits.max_configurations`; truncated
//!   graphs stay *running* and are resumed in place when the pool grants
//!   more; settled jobs refund `granted − len()`.
//! * **Karp–Miller** — demands `limits.max_configurations` (the node
//!   budget); rebuilt (not resumed) at raised grants; refunds like
//!   reachability.
//! * **Covering word** — demands `limits.max_configurations` for its
//!   forward search; re-searched at raised grants; never refunds (the
//!   search arena is not exposed, so the spend is charged in full).
//! * **Coverability** — the backward algorithm is exact and unbudgeted: it
//!   runs in the first round and charges nothing.
//!
//! # Dedup and cache hits
//!
//! Jobs whose nets are equal (same transitions in the same insertion
//! order — the condition under which compiled transition indices, and
//! hence results, coincide) share one compiled engine: the first job of a
//! group compiles, the rest are *compile cache hits*. In unpooled
//! batches, jobs that are outright identical (same net, query, and limits)
//! are additionally collapsed to one execution whose result `Arc` they
//! share (*result cache hits*); pooled batches keep every job separate so
//! fair-share grants stay per-job.
//!
//! # Concurrency
//!
//! [`Batch::parallelism`] fans the jobs of one round out through
//! [`Parallelism::map`]; each job runs on one thread, on its own state.
//! Results are identical across all runner modes — the engines are
//! deterministic and rounds are barriers — so the runner parallelism is
//! purely a speed knob.
//!
//! # One executor
//!
//! Every run of a job, in any round, is one call of
//! [`BatchQuery::run_on`]: the query on a session at given limits,
//! returning a [`QueryRun`] (outcome, [`Completion`], tokens used).
//! Consumers that keep their own session — `pp_serve` runs each request
//! on the session it cached for that request's identity — call it
//! directly, so a query runs the same way inside and outside a batch.

use crate::cover::{CoverabilityOracle, CoveringWordOutcome};
use crate::explore::{ExplorationLimits, ReachabilityGraph, MAX_GRAPH_CONFIGURATIONS};
use crate::karp_miller::KarpMillerTree;
use crate::parallel::Parallelism;
use crate::session::{Analysis, Completion};
use crate::PetriNet;
use pp_multiset::Multiset;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The query shape of one batch job.
///
/// Mirrors the four typed queries of an [`Analysis`] session; the budget
/// knob of every shape is the job's [`ExplorationLimits`] (for
/// [`KarpMiller`](Self::KarpMiller), `max_configurations` doubles as the
/// node budget).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchQuery<P: Ord> {
    /// Forward exploration from a set of initial configurations.
    Reachability {
        /// The initial configurations of the exploration.
        initials: Vec<Multiset<P>>,
    },
    /// Exact backward coverability of a target (unbudgeted).
    Coverability {
        /// The configuration whose coverability upward closure is wanted.
        target: Multiset<P>,
    },
    /// A Karp–Miller coverability tree from an initial configuration.
    KarpMiller {
        /// The root configuration of the tree.
        initial: Multiset<P>,
    },
    /// A shortest covering word `from --σ--> β ≥ target`.
    CoveringWord {
        /// The configuration the word fires from.
        from: Multiset<P>,
        /// The configuration the word must cover.
        target: Multiset<P>,
    },
}

/// What one run of a [`BatchQuery`] produced (see [`BatchQuery::run_on`]).
#[derive(Debug, Clone)]
pub struct QueryRun<P: Ord> {
    /// The result payload.
    pub outcome: BatchOutcome<P>,
    /// Why (and whether) the run stopped short.
    pub completion: Completion,
    /// The tokens the run used: the stored configurations (or
    /// Karp–Miller nodes) of its result, the basis size of a coverability
    /// oracle, or the whole budget of a covering-word search, whose arena
    /// is not exposed.
    pub used: usize,
}

impl<P: Clone + Ord> BatchQuery<P> {
    /// The token demand of the query at a budget of `max_configurations`:
    /// the budget itself (clamped to [`MAX_GRAPH_CONFIGURATIONS`]), and zero
    /// for the unbudgeted backward-coverability shape.
    #[must_use]
    pub fn demand(&self, max_configurations: usize) -> usize {
        match self {
            BatchQuery::Coverability { .. } => 0,
            BatchQuery::Reachability { .. }
            | BatchQuery::KarpMiller { .. }
            | BatchQuery::CoveringWord { .. } => max_configurations.min(MAX_GRAPH_CONFIGURATIONS),
        }
    }

    /// Runs the query on `session` at `limits`, reusing or resuming what
    /// the session has cached. This is the one executor of a query:
    /// [`Batch::run`] calls it for every job in every round, and so does
    /// any consumer that keeps its own session.
    ///
    /// A reachability re-run at raised limits extends the session's cached
    /// graph in place when the caller holds no other handle on it (drop
    /// the previous [`QueryRun`] first); otherwise the graph is copied
    /// before it is extended.
    pub fn run_on(&self, session: &mut Analysis<P>, limits: ExplorationLimits) -> QueryRun<P> {
        match self {
            BatchQuery::Reachability { initials } => {
                let graph = session
                    .reachability(initials.iter().cloned())
                    .limits(limits)
                    .run();
                QueryRun {
                    completion: graph.completion(),
                    used: graph.len(),
                    outcome: BatchOutcome::Reachability(graph),
                }
            }
            BatchQuery::Coverability { target } => {
                let oracle = session.coverability(target.clone()).run();
                QueryRun {
                    completion: Completion::Complete,
                    used: oracle.basis().len(),
                    outcome: BatchOutcome::Coverability(oracle),
                }
            }
            BatchQuery::KarpMiller { initial } => {
                let tree = session
                    .karp_miller(initial.clone())
                    .max_nodes(limits.max_configurations)
                    .run();
                QueryRun {
                    completion: tree.completion(),
                    used: tree.markings().len(),
                    outcome: BatchOutcome::KarpMiller(tree),
                }
            }
            BatchQuery::CoveringWord { from, target } => {
                let outcome = session
                    .covering_word(from.clone(), target.clone())
                    .limits(limits)
                    .run();
                let completion = match outcome {
                    CoveringWordOutcome::Truncated => Completion::ConfigBudget,
                    CoveringWordOutcome::Covered(_) | CoveringWordOutcome::NotCoverable => {
                        Completion::Complete
                    }
                };
                QueryRun {
                    completion,
                    used: limits.max_configurations,
                    outcome: BatchOutcome::CoveringWord(outcome),
                }
            }
        }
    }
}

/// One unit of batch work: a net, a query shape, and limits.
///
/// Build one with the shape constructors ([`reachability`](Self::reachability),
/// [`coverability`](Self::coverability), [`karp_miller`](Self::karp_miller),
/// [`covering_word`](Self::covering_word)), then adjust
/// [`limits`](Self::limits) / [`with_places`](Self::with_places) as
/// needed and hand it to
/// [`Batch::job`].
#[derive(Debug, Clone)]
pub struct BatchJob<P: Ord> {
    /// The label the job's [`JobReport`] carries (need not be unique).
    pub name: String,
    /// The net the query runs on. Jobs with equal nets (and equal extra
    /// places) share one compiled engine.
    pub net: PetriNet<P>,
    /// Places added to the compiled universe beyond the net's own (isolated
    /// states, fresh coverability targets) — the batch analogue of
    /// [`Analysis::with_places`].
    pub extra_places: Vec<P>,
    /// The query to run.
    pub query: BatchQuery<P>,
    /// The job's own limits. Under a shared pool, `max_configurations` is
    /// the job's *demand*; the pool decides how much of it is granted.
    pub limits: ExplorationLimits,
}

impl<P: Clone + Ord> BatchJob<P> {
    fn new(name: impl Into<String>, net: PetriNet<P>, query: BatchQuery<P>) -> Self {
        BatchJob {
            name: name.into(),
            net,
            extra_places: Vec::new(),
            query,
            limits: ExplorationLimits::default(),
        }
    }

    /// A forward-exploration job from `initials`.
    #[must_use]
    pub fn reachability<I: IntoIterator<Item = Multiset<P>>>(
        name: impl Into<String>,
        net: PetriNet<P>,
        initials: I,
    ) -> Self {
        Self::new(
            name,
            net,
            BatchQuery::Reachability {
                initials: initials.into_iter().collect(),
            },
        )
    }

    /// An exact backward-coverability job for `target`.
    #[must_use]
    pub fn coverability(name: impl Into<String>, net: PetriNet<P>, target: Multiset<P>) -> Self {
        Self::new(name, net, BatchQuery::Coverability { target })
    }

    /// A Karp–Miller tree job from `initial`; the node budget is the job's
    /// `limits.max_configurations`.
    #[must_use]
    pub fn karp_miller(name: impl Into<String>, net: PetriNet<P>, initial: Multiset<P>) -> Self {
        Self::new(name, net, BatchQuery::KarpMiller { initial })
    }

    /// A shortest-covering-word job (`from --σ--> β ≥ target`).
    #[must_use]
    pub fn covering_word(
        name: impl Into<String>,
        net: PetriNet<P>,
        from: Multiset<P>,
        target: Multiset<P>,
    ) -> Self {
        Self::new(name, net, BatchQuery::CoveringWord { from, target })
    }

    /// Sets the job's exploration limits (its budget *demand* under a
    /// shared pool).
    #[must_use]
    pub fn limits(mut self, limits: ExplorationLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Adds places to the job's compiled universe (see
    /// [`Analysis::with_places`]).
    #[must_use]
    pub fn with_places<I: IntoIterator<Item = P>>(mut self, places: I) -> Self {
        self.extra_places.extend(places);
        self.extra_places.sort();
        self.extra_places.dedup();
        self
    }
}

/// The result payload of one finished job.
#[derive(Debug, Clone)]
pub enum BatchOutcome<P: Ord> {
    /// The (possibly truncated) reachability graph.
    Reachability(Arc<ReachabilityGraph<P>>),
    /// The exact coverability oracle.
    Coverability(Arc<CoverabilityOracle<P>>),
    /// The (possibly truncated) Karp–Miller tree.
    KarpMiller(Arc<KarpMillerTree<P>>),
    /// The covering-word search outcome.
    CoveringWord(CoveringWordOutcome),
}

impl<P: Ord> BatchOutcome<P> {
    /// The reachability graph, if this outcome is one.
    #[must_use]
    pub fn as_reachability(&self) -> Option<&Arc<ReachabilityGraph<P>>> {
        match self {
            BatchOutcome::Reachability(graph) => Some(graph),
            BatchOutcome::Coverability(_)
            | BatchOutcome::KarpMiller(_)
            | BatchOutcome::CoveringWord(_) => None,
        }
    }

    /// The coverability oracle, if this outcome is one.
    #[must_use]
    pub fn as_coverability(&self) -> Option<&Arc<CoverabilityOracle<P>>> {
        match self {
            BatchOutcome::Coverability(oracle) => Some(oracle),
            BatchOutcome::Reachability(_)
            | BatchOutcome::KarpMiller(_)
            | BatchOutcome::CoveringWord(_) => None,
        }
    }

    /// The Karp–Miller tree, if this outcome is one.
    #[must_use]
    pub fn as_karp_miller(&self) -> Option<&Arc<KarpMillerTree<P>>> {
        match self {
            BatchOutcome::KarpMiller(tree) => Some(tree),
            BatchOutcome::Reachability(_)
            | BatchOutcome::Coverability(_)
            | BatchOutcome::CoveringWord(_) => None,
        }
    }

    /// The covering-word outcome, if this outcome is one.
    #[must_use]
    pub fn as_covering_word(&self) -> Option<&CoveringWordOutcome> {
        match self {
            BatchOutcome::CoveringWord(outcome) => Some(outcome),
            BatchOutcome::Reachability(_)
            | BatchOutcome::Coverability(_)
            | BatchOutcome::KarpMiller(_) => None,
        }
    }
}

/// The per-job slice of a [`BatchReport`].
#[derive(Clone)]
pub struct JobReport<P: Ord> {
    /// The job's label, copied from [`BatchJob::name`].
    pub name: String,
    /// The result payload.
    pub outcome: BatchOutcome<P>,
    /// Why (and whether) the job's analysis stopped.
    pub completion: Completion,
    /// The limits of the job's *final* run. A solo query at exactly these
    /// limits produces a bit-identical result — this is the batch layer's
    /// determinism contract, which `tests/batch_fairness.rs` checks on the
    /// catalog.
    pub final_limits: ExplorationLimits,
    /// The tokens the final run used ([`QueryRun::used`]): stored
    /// configurations or tree nodes, a coverability job's basis size, or
    /// a covering-word job's granted budget.
    pub explored: usize,
    /// `true` if the job reused another job's compiled engine instead of
    /// compiling its net.
    pub shared_compile: bool,
    /// `true` if the job shared another identical job's result `Arc`
    /// outright (unpooled batches only).
    pub result_cache_hit: bool,
    /// How many rounds the job ran or resumed in (0 for pure result cache
    /// hits).
    pub rounds: u32,
    /// Wall-clock time spent running this job, summed over its rounds.
    pub elapsed: Duration,
}

impl<P: Ord + fmt::Debug> fmt::Debug for JobReport<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobReport")
            .field("name", &self.name)
            .field("completion", &self.completion)
            .field("final_limits", &self.final_limits)
            .field("explored", &self.explored)
            .field("shared_compile", &self.shared_compile)
            .field("result_cache_hit", &self.result_cache_hit)
            .field("rounds", &self.rounds)
            .field("elapsed", &self.elapsed)
            .finish_non_exhaustive()
    }
}

/// Budget-pool accounting of a pooled batch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolReport {
    /// The tokens the pool started with.
    pub total: usize,
    /// Tokens actually consumed: grants net of refunds. Always
    /// `total == granted + unspent`. (A settled job's
    /// [`final_limits`](JobReport::final_limits) keeps its full grant —
    /// the budget its last run used — so the sum of final budgets can
    /// exceed this number by exactly `refunded`.)
    pub granted: usize,
    /// Tokens refunded by jobs that settled below their grant (these were
    /// available for redistribution).
    pub refunded: usize,
    /// Tokens never granted to any job.
    pub unspent: usize,
}

/// The structured result of a [`Batch::run`].
#[derive(Debug, Clone)]
pub struct BatchReport<P: Ord> {
    /// Per-job reports, in the order the jobs were added.
    pub jobs: Vec<JobReport<P>>,
    /// Distinct compiled engines the batch used (after dedup).
    pub distinct_nets: usize,
    /// Jobs that reused a compiled engine instead of compiling their net.
    pub compile_cache_hits: usize,
    /// Jobs that shared an identical job's result outright.
    pub result_cache_hits: usize,
    /// Fair-share rounds the scheduler ran (1 for unpooled batches).
    pub rounds: usize,
    /// Pool accounting, when the batch ran under [`Batch::pool`].
    pub pool: Option<PoolReport>,
    /// Wall-clock time of the whole batch run.
    pub elapsed: Duration,
}

impl<P: Ord> BatchReport<P> {
    /// The first job report with the given name.
    #[must_use]
    pub fn job(&self, name: &str) -> Option<&JobReport<P>> {
        self.jobs.iter().find(|job| job.name == name)
    }

    /// Returns `true` if every job finished without hitting a limit.
    #[must_use]
    pub fn all_complete(&self) -> bool {
        self.jobs.iter().all(|job| job.completion.is_complete())
    }
}

/// A configured batch of jobs; [`run`](Self::run) executes it.
///
/// See the [module documentation](self) for the scheduling model.
#[derive(Clone)]
#[must_use = "a batch does nothing until run"]
pub struct Batch<P: Ord> {
    jobs: Vec<BatchJob<P>>,
    pool: Option<usize>,
    parallelism: Parallelism,
}

impl<P: Clone + Ord> Default for Batch<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Clone + Ord> Batch<P> {
    /// An empty batch (sequential runner, no shared pool).
    pub fn new() -> Self {
        Batch {
            jobs: Vec::new(),
            pool: None,
            parallelism: Parallelism::Sequential,
        }
    }

    /// Adds one job.
    pub fn job(mut self, job: BatchJob<P>) -> Self {
        self.jobs.push(job);
        self
    }

    /// Adds every job of an iterator.
    pub fn jobs<I: IntoIterator<Item = BatchJob<P>>>(mut self, jobs: I) -> Self {
        self.jobs.extend(jobs);
        self
    }

    /// Puts the batch under a shared token budget of `tokens` stored
    /// configurations, fair-shared and redistributed as described in the
    /// [module documentation](self).
    pub fn pool(mut self, tokens: usize) -> Self {
        self.pool = Some(tokens);
        self
    }

    /// Sets the runner parallelism: how many OS threads may work on
    /// different jobs of one round concurrently. Purely a speed knob.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

impl<P: Clone + Ord + Send + Sync> Batch<P> {
    /// Runs the batch and reports every job's result.
    ///
    /// Results are deterministic: they do not depend on the runner
    /// parallelism or on how pool rounds interleave — every job's outcome is bit-identical to a solo
    /// query at its [`JobReport::final_limits`].
    pub fn run(self) -> BatchReport<P> {
        let started = Instant::now();
        let Batch {
            jobs,
            pool,
            parallelism,
        } = self;

        // ---- Dedup: group jobs by (net, extra places) -------------------
        // Only the first job of a group pays the compile.
        struct Group<P: Ord> {
            net: PetriNet<P>,
            extra: Vec<P>,
            base: Analysis<P>,
        }
        let mut groups: Vec<Group<P>> = Vec::new();
        let mut group_of: Vec<usize> = Vec::with_capacity(jobs.len());
        let mut shared_compile: Vec<bool> = Vec::with_capacity(jobs.len());
        for job in &jobs {
            if let Some(index) = groups
                .iter()
                .position(|g| g.net == job.net && g.extra == job.extra_places)
            {
                group_of.push(index);
                shared_compile.push(true);
                continue;
            }
            shared_compile.push(false);
            groups.push(Group {
                net: job.net.clone(),
                extra: job.extra_places.clone(),
                base: Analysis::with_places(&job.net, job.extra_places.iter().cloned()),
            });
            group_of.push(groups.len() - 1);
        }

        // ---- Result aliasing (unpooled only): identical jobs share one
        // execution. With a pool, grants are per-job, so jobs stay apart.
        let mut rep_of: Vec<usize> = (0..jobs.len()).collect();
        if pool.is_none() {
            for index in 0..jobs.len() {
                if let Some(rep) = (0..index).find(|&rep| {
                    rep_of[rep] == rep
                        && group_of[rep] == group_of[index]
                        && jobs[rep].query == jobs[index].query
                        && jobs[rep].limits == jobs[index].limits
                }) {
                    rep_of[index] = rep;
                }
            }
        }

        // ---- Per-job scheduler state ------------------------------------
        let mut states: Vec<JobState<P>> = jobs
            .iter()
            .enumerate()
            .map(|(index, job)| JobState {
                session: groups[group_of[index]].base.clone(),
                granted: 0,
                demand: job.query.demand(job.limits.max_configurations),
                settled: false,
                rounds: 0,
                elapsed: Duration::ZERO,
                refunded: 0,
                run: None,
            })
            .collect();
        let representatives: Vec<usize> = (0..jobs.len()).filter(|&j| rep_of[j] == j).collect();

        // ---- Fair-share rounds ------------------------------------------
        let mut remaining = pool.unwrap_or(0);
        let mut refunded_total = 0usize;
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            let to_run: Vec<usize> = if pool.is_none() {
                // Unpooled: a single round at each job's own limits.
                for &j in &representatives {
                    let state = &mut states[j];
                    state.granted = state.demand;
                }
                representatives.clone()
            } else if rounds == 1 {
                // First pooled round: fair-share the pool over every
                // budgeted job, then run *all* jobs (unbudgeted coverability
                // jobs and zero-grant jobs included, so each has an outcome).
                let wants: Vec<usize> = representatives
                    .iter()
                    .copied()
                    .filter(|&j| states[j].demand > 0)
                    .collect();
                fair_share(&mut remaining, &wants, &mut states);
                representatives.clone()
            } else {
                // Later rounds: redistribute what is left to the jobs that
                // are still running and still want more.
                let active: Vec<usize> = representatives
                    .iter()
                    .copied()
                    .filter(|&j| !states[j].settled && states[j].granted < states[j].demand)
                    .collect();
                if active.is_empty() || remaining == 0 {
                    rounds -= 1;
                    break;
                }
                let before: Vec<usize> = active.iter().map(|&j| states[j].granted).collect();
                fair_share(&mut remaining, &active, &mut states);
                let mut grew: Vec<usize> = Vec::new();
                for (&j, before) in active.iter().zip(before) {
                    if states[j].granted > before {
                        grew.push(j);
                    }
                }
                if grew.is_empty() {
                    rounds -= 1;
                    break;
                }
                grew
            };

            // `to_run` is ascending, so one pass pairs each job with its
            // own state, and the round's jobs run as one fan-out.
            let round: Vec<_> = jobs
                .iter()
                .zip(&mut states)
                .enumerate()
                .filter(|(j, _)| to_run.binary_search(j).is_ok())
                .map(|(_, pair)| pair)
                .collect();
            parallelism.map(round, |(job, state)| state.execute(job));

            for &j in &to_run {
                let refund = states[j].settle();
                remaining += refund;
                refunded_total += refund;
            }
            if pool.is_none() {
                break;
            }
        }

        // ---- Assemble the report in job order ---------------------------
        // Consumed tokens per representative: its final grant minus what it
        // refunded. With the pool's leftovers this partitions the total.
        let granted_total: usize = representatives
            .iter()
            .map(|&j| states[j].granted - states[j].refunded)
            .sum();
        let mut reports: Vec<JobReport<P>> = Vec::with_capacity(jobs.len());
        for (index, job) in jobs.iter().enumerate() {
            let rep = rep_of[index];
            let state = &states[rep];
            let run = state
                .run
                .as_ref()
                .expect("every representative job ran at least once");
            let aliased = rep != index;
            reports.push(JobReport {
                name: job.name.clone(),
                outcome: run.outcome.clone(),
                completion: run.completion,
                final_limits: ExplorationLimits {
                    max_configurations: state.granted,
                    ..job.limits
                },
                explored: run.used,
                shared_compile: shared_compile[index] || aliased,
                result_cache_hit: aliased,
                rounds: if aliased { 0 } else { state.rounds },
                elapsed: if aliased {
                    Duration::ZERO
                } else {
                    state.elapsed
                },
            });
        }
        let compile_cache_hits = shared_compile.iter().filter(|&&shared| shared).count();
        let result_cache_hits = jobs.len() - representatives.len();
        BatchReport {
            jobs: reports,
            distinct_nets: groups.len(),
            compile_cache_hits,
            result_cache_hits,
            rounds,
            pool: pool.map(|total| PoolReport {
                total,
                granted: granted_total,
                refunded: refunded_total,
                unspent: remaining,
            }),
            elapsed: started.elapsed(),
        }
    }
}

/// The mutable scheduler state of one (representative) job.
struct JobState<P: Ord> {
    session: Analysis<P>,
    granted: usize,
    demand: usize,
    settled: bool,
    rounds: u32,
    elapsed: Duration,
    refunded: usize,
    run: Option<QueryRun<P>>,
}

impl<P: Clone + Ord> JobState<P> {
    /// Runs (or resumes) `job` at the current grant on the job's session.
    fn execute(&mut self, job: &BatchJob<P>) {
        let timer = Instant::now();
        // Drop the previous result first, so a raised grant extends the
        // session's cached graph in place instead of copying it.
        self.run = None;
        let limits = ExplorationLimits {
            max_configurations: self.granted,
            ..job.limits
        };
        self.run = Some(job.query.run_on(&mut self.session, limits));
        self.rounds += 1;
        self.elapsed += timer.elapsed();
    }

    /// Decides, after a run, whether the job is settled and how many
    /// unused tokens it refunds to the pool.
    fn settle(&mut self) -> usize {
        let run = self.run.as_ref().expect("a job settles after it ran");
        let refund = match run.completion {
            Completion::ConfigBudget | Completion::IdSpace => {
                // Still running (more budget could extend the result) —
                // unless the job already got everything it asked for.
                if self.granted >= self.demand {
                    self.settled = true;
                }
                0
            }
            // A raised budget cannot extend these: the run is done
            // (`Complete`) or was cut by a cap budget tokens do not
            // raise (`AgentCap`/`DepthCap`/`OmegaOverflow`).
            Completion::Complete
            | Completion::AgentCap
            | Completion::DepthCap
            | Completion::OmegaOverflow => {
                self.settled = true;
                self.granted.saturating_sub(run.used)
            }
        };
        self.refunded += refund;
        refund
    }
}

/// Splits `remaining` tokens evenly over the `wants` jobs (each capped at
/// its own remaining demand), remainder tokens going to the
/// lowest-indexed jobs — fully deterministic.
fn fair_share<P: Clone + Ord>(remaining: &mut usize, wants: &[usize], states: &mut [JobState<P>]) {
    if wants.is_empty() || *remaining == 0 {
        return;
    }
    let share = *remaining / wants.len();
    let extra = *remaining % wants.len();
    for (rank, &j) in wants.iter().enumerate() {
        let state = &mut states[j];
        let offer = share + usize::from(rank < extra);
        let take = offer.min(state.demand - state.granted);
        state.granted += take;
        *remaining -= take;
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
    fn unpooled_batch_answers_every_shape() {
        let net = doubling_net();
        let report = Batch::new()
            .job(BatchJob::reachability(
                "reach",
                net.clone(),
                [ms(&[("a", 6)])],
            ))
            .job(BatchJob::coverability(
                "cover",
                net.clone(),
                ms(&[("b", 2)]),
            ))
            .job(BatchJob::karp_miller("km", net.clone(), ms(&[("a", 3)])))
            .job(BatchJob::covering_word(
                "word",
                net,
                ms(&[("a", 3)]),
                ms(&[("b", 3)]),
            ))
            .run();
        assert_eq!(report.jobs.len(), 4);
        assert!(report.all_complete());
        assert_eq!(report.distinct_nets, 1);
        assert_eq!(report.compile_cache_hits, 3);
        assert_eq!(report.rounds, 1);
        assert!(report.pool.is_none());
        let graph = report.jobs[0].outcome.as_reachability().unwrap();
        assert_eq!(graph.len(), 7);
        let oracle = report.jobs[1].outcome.as_coverability().unwrap();
        assert!(oracle.is_coverable_from(&ms(&[("a", 2)])));
        let tree = report.jobs[2].outcome.as_karp_miller().unwrap();
        assert!(tree.completion().is_complete());
        let word = report.jobs[3].outcome.as_covering_word().unwrap();
        assert!(matches!(word, CoveringWordOutcome::Covered(w) if w.len() == 3));
    }

    #[test]
    fn identical_jobs_share_one_result_arc() {
        let net = doubling_net();
        let job = || BatchJob::reachability("same", net.clone(), [ms(&[("a", 5)])]);
        let report = Batch::new().job(job()).job(job()).job(job()).run();
        assert_eq!(report.result_cache_hits, 2);
        let first = report.jobs[0].outcome.as_reachability().unwrap();
        let third = report.jobs[2].outcome.as_reachability().unwrap();
        assert!(Arc::ptr_eq(first, third));
        assert!(report.jobs[2].result_cache_hit);
        assert_eq!(report.jobs[2].rounds, 0);
        assert!(!report.jobs[0].result_cache_hit);
    }

    #[test]
    fn distinct_nets_compile_separately() {
        let other = PetriNet::from_transitions([Transition::pairwise("a", "a", "b", "b")]);
        let report = Batch::new()
            .job(BatchJob::reachability(
                "doubling",
                doubling_net(),
                [ms(&[("a", 4)])],
            ))
            .job(BatchJob::reachability("other", other, [ms(&[("a", 4)])]))
            .run();
        assert_eq!(report.distinct_nets, 2);
        assert_eq!(report.compile_cache_hits, 0);
    }

    #[test]
    fn pooled_jobs_split_the_budget_fairly_and_match_solo_runs() {
        let net = doubling_net();
        let start = ms(&[("a", 8)]); // 9 configurations when complete
        let job = |name: &str| {
            BatchJob::reachability(name, net.clone(), [start.clone()])
                .limits(ExplorationLimits::with_max_configurations(9))
        };
        // 12 tokens over 3 jobs: fair share 4 each, nobody completes, no
        // refunds, pool dry.
        let report = Batch::new()
            .job(job("one"))
            .job(job("two"))
            .job(job("three"))
            .pool(12)
            .run();
        let pool = report.pool.unwrap();
        assert_eq!(pool.total, 12);
        assert_eq!(pool.unspent, 0);
        for job_report in &report.jobs {
            assert_eq!(job_report.final_limits.max_configurations, 4);
            assert_eq!(job_report.completion, Completion::ConfigBudget);
            let solo = Analysis::new(&net)
                .reachability([start.clone()])
                .limits(job_report.final_limits)
                .run();
            let graph = job_report.outcome.as_reachability().unwrap();
            assert!(graph.identical_to(&solo), "{} != solo", job_report.name);
        }
    }

    #[test]
    fn refunded_budget_is_redistributed_to_running_jobs() {
        let net = doubling_net();
        // Job "small" completes with 5 of its up-to-20 grant; job "big"
        // wants the world. Pool 24: round 1 grants 12 + 12; small finishes
        // with 5 used and refunds 7, which round 2 hands to big.
        let report = Batch::new()
            .job(
                BatchJob::reachability("small", net.clone(), [ms(&[("a", 4)])])
                    .limits(ExplorationLimits::with_max_configurations(20)),
            )
            .job(
                BatchJob::reachability("big", net.clone(), [ms(&[("a", 30)])])
                    .limits(ExplorationLimits::with_max_configurations(100)),
            )
            .pool(24)
            .run();
        let small = report.job("small").unwrap();
        let big = report.job("big").unwrap();
        assert!(small.completion.is_complete());
        assert_eq!(small.explored, 5);
        assert_eq!(big.final_limits.max_configurations, 19, "12 + 7 refunded");
        assert_eq!(big.completion, Completion::ConfigBudget);
        assert!(report.rounds >= 2);
        let pool = report.pool.unwrap();
        assert_eq!(pool.refunded, 7);
        // Bit-identity at the redistributed final budget.
        let solo = Analysis::new(&net)
            .reachability([ms(&[("a", 30)])])
            .limits(big.final_limits)
            .run();
        assert!(big.outcome.as_reachability().unwrap().identical_to(&solo));
    }

    #[test]
    fn coverability_jobs_are_free_under_a_pool() {
        let net = doubling_net();
        let report = Batch::new()
            .job(BatchJob::coverability(
                "cover",
                net.clone(),
                ms(&[("b", 1)]),
            ))
            .job(
                BatchJob::reachability("reach", net, [ms(&[("a", 5)])])
                    .limits(ExplorationLimits::with_max_configurations(50)),
            )
            .pool(50)
            .run();
        // The reachability job got the whole pool; coverability cost nothing.
        assert!(report.all_complete());
        let reach = report.job("reach").unwrap();
        assert_eq!(reach.final_limits.max_configurations, 50);
        let pool = report.pool.unwrap();
        assert_eq!(pool.refunded, 50 - reach.explored);
    }

    #[test]
    fn zero_token_pools_truncate_every_budgeted_job() {
        let net = doubling_net();
        let report = Batch::new()
            .job(BatchJob::reachability("starved", net, [ms(&[("a", 3)])]))
            .pool(0)
            .run();
        let job = &report.jobs[0];
        assert_eq!(job.completion, Completion::ConfigBudget);
        assert_eq!(job.explored, 0);
        assert_eq!(job.final_limits.max_configurations, 0);
    }

    #[test]
    fn runner_parallelism_does_not_change_results() {
        let net = doubling_net();
        let build = |parallelism| {
            Batch::new()
                .job(BatchJob::reachability("r1", net.clone(), [ms(&[("a", 7)])]))
                .job(BatchJob::reachability("r2", net.clone(), [ms(&[("a", 6)])]))
                .job(BatchJob::karp_miller("km", net.clone(), ms(&[("a", 4)])))
                .job(BatchJob::coverability("cv", net.clone(), ms(&[("b", 3)])))
                .pool(40)
                .parallelism(parallelism)
                .run()
        };
        let sequential = build(Parallelism::Sequential);
        let parallel = build(Parallelism::Parallel(3));
        for (s, p) in sequential.jobs.iter().zip(&parallel.jobs) {
            assert_eq!(s.completion, p.completion, "{}", s.name);
            assert_eq!(s.final_limits, p.final_limits, "{}", s.name);
            match (&s.outcome, &p.outcome) {
                (BatchOutcome::Reachability(a), BatchOutcome::Reachability(b)) => {
                    assert!(a.identical_to(b), "{}", s.name);
                }
                (BatchOutcome::KarpMiller(a), BatchOutcome::KarpMiller(b)) => {
                    assert_eq!(a.markings(), b.markings(), "{}", s.name);
                }
                (BatchOutcome::Coverability(a), BatchOutcome::Coverability(b)) => {
                    assert_eq!(a.basis(), b.basis(), "{}", s.name);
                }
                _ => panic!("outcome shapes diverged for {}", s.name),
            }
        }
    }

    #[test]
    fn covering_word_jobs_retry_under_redistributed_budget() {
        let net = doubling_net();
        // Finding 8 b's from 8 a's needs 8 interned configurations (the
        // covering successor is detected before interning). Pool 14 over
        // two demand-40 jobs: round 1 grants 7 + 7, the word search comes
        // up short (Truncated) while the donor completes with 3
        // configurations and refunds 4 — round 2 re-searches at 11.
        let report = Batch::new()
            .job(
                BatchJob::covering_word("word", net.clone(), ms(&[("a", 8)]), ms(&[("b", 8)]))
                    .limits(ExplorationLimits::with_max_configurations(40)),
            )
            .job(
                BatchJob::reachability("donor", net, [ms(&[("a", 2)])])
                    .limits(ExplorationLimits::with_max_configurations(40)),
            )
            .pool(14)
            .run();
        let word = report.job("word").unwrap();
        assert!(word.completion.is_complete(), "{:?}", word.completion);
        assert!(matches!(
            word.outcome.as_covering_word().unwrap(),
            CoveringWordOutcome::Covered(_)
        ));
        assert_eq!(word.rounds, 2);
        assert_eq!(word.final_limits.max_configurations, 11, "7 + 4 refunded");
    }

    #[test]
    fn a_raised_budget_rerun_extends_the_graph_it_returned() {
        let net = doubling_net();
        let start = ms(&[("a", 8)]); // 9 configurations when complete
        let query = BatchQuery::Reachability {
            initials: vec![start.clone()],
        };
        let mut session = Analysis::new(&net);
        let truncated = query.run_on(&mut session, ExplorationLimits::with_max_configurations(4));
        assert_eq!(truncated.completion, Completion::ConfigBudget);
        assert_eq!(truncated.used, 4);
        let before = Arc::as_ptr(truncated.outcome.as_reachability().unwrap());
        // The caller drops its only other handle: the session's cached
        // graph is extended in place, not copied.
        drop(truncated);
        let limits = ExplorationLimits::with_max_configurations(9);
        let resumed = query.run_on(&mut session, limits);
        assert!(resumed.completion.is_complete());
        assert_eq!(resumed.used, 9);
        let graph = resumed.outcome.as_reachability().unwrap();
        assert_eq!(Arc::as_ptr(graph), before, "the same graph, extended");
        let cold = Analysis::new(&net)
            .reachability([start])
            .limits(limits)
            .run();
        assert!(graph.identical_to(&cold));
    }
}
