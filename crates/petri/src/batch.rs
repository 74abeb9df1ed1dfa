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
//! Token accounting per query shape:
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
//! group compiles, the rest are *compile cache hits*. A consumer that
//! already holds a session for a net seeds it with
//! [`Batch::seed_session`], making even the first job a hit — this is how
//! `pp_population`'s verifier batches its per-input graphs without ever
//! recompiling the protocol. In unpooled batches, jobs that are outright
//! identical (same net, query, and limits) are additionally collapsed to
//! one execution whose result `Arc` they share (*result cache hits*);
//! pooled batches keep every job separate so fair-share grants stay
//! per-job.
//!
//! # Concurrency
//!
//! [`Batch::parallelism`] fans jobs of one round out over cooperating OS
//! threads ([`Parallelism::Parallel`]); each job runs on one thread.
//! Results are identical across all runner modes — the engines are
//! deterministic and rounds are barriers — so the runner parallelism is
//! purely a speed knob.
//!
//! # Cancellation and orphaned jobs
//!
//! Serving-shaped consumers have clients that vanish mid-job. A job built
//! with [`BatchJob::cancel_token`] can be abandoned through its
//! [`CancelToken`] at any time; the scheduler *observes* the token only at
//! round barriers, so cancellation never perturbs a run in flight:
//!
//! * a job cancelled before its first run executes once at a **zero**
//!   grant (so it still reports an outcome — bit-identical to a solo run
//!   at budget 0) and takes nothing from the pool;
//! * a job cancelled after a run keeps its last result and settles
//!   immediately, refunding `granted − used` tokens to the pool exactly
//!   like a completed job — the refund is redistributed to still-running
//!   jobs in the same round.
//!
//! Either way the orphan's [`JobReport`] carries
//! [`cancelled`](JobReport::cancelled)` = true` and its outcome remains
//! bit-identical to a solo run at its reported
//! [`final_limits`](JobReport::final_limits): cancellation changes *when a
//! job stops asking for tokens*, never what any budget produces.
//! Cancelled jobs are excluded from unpooled result aliasing so an
//! abandoned job can never speak for a live one.
//!
//! [`Batch::on_round`] registers a barrier-synchronous observer (called on
//! the scheduler thread after each round's settlements) — the hook serving
//! layers use to watch grant progress, and what makes mid-batch
//! cancellation deterministically testable.

use crate::cover::{CoverabilityOracle, CoveringWordOutcome};
use crate::explore::{ExplorationLimits, ReachabilityGraph, MAX_GRAPH_CONFIGURATIONS};
use crate::karp_miller::KarpMillerTree;
use crate::parallel::Parallelism;
use crate::session::{Analysis, Completion};
use crate::PetriNet;
use pp_multiset::Multiset;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A shared cancellation flag for one batch job.
///
/// Clone the token, hand one clone to [`BatchJob::cancel_token`] and keep
/// the other; calling [`cancel`](Self::cancel) from any thread marks the
/// job as orphaned. The scheduler observes the flag at round barriers
/// only — see the [module documentation](self#cancellation-and-orphaned-jobs)
/// for the exact settlement and refund contract.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the job as cancelled. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Returns `true` once [`cancel`](Self::cancel) has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

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
    /// Cancellation flag, observed at round barriers (see
    /// [`BatchJob::cancel_token`]). `None` means the job cannot be
    /// orphaned.
    pub cancel: Option<CancelToken>,
}

impl<P: Clone + Ord> BatchJob<P> {
    fn new(name: impl Into<String>, net: PetriNet<P>, query: BatchQuery<P>) -> Self {
        BatchJob {
            name: name.into(),
            net,
            extra_places: Vec::new(),
            query,
            limits: ExplorationLimits::default(),
            cancel: None,
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

    /// Attaches a cancellation token: cancelling it abandons the job at
    /// the next round barrier, refunding its unused pool tokens (see the
    /// [module documentation](self#cancellation-and-orphaned-jobs)).
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
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

    /// The job's token demand under a shared pool: the configuration (or
    /// Karp–Miller node) budget it asks for; zero for the unbudgeted
    /// backward-coverability shape.
    #[must_use]
    pub fn demand(&self) -> usize {
        match self.query {
            BatchQuery::Coverability { .. } => 0,
            _ => self.limits.max_configurations.min(MAX_GRAPH_CONFIGURATIONS),
        }
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
            _ => None,
        }
    }

    /// The coverability oracle, if this outcome is one.
    #[must_use]
    pub fn as_coverability(&self) -> Option<&Arc<CoverabilityOracle<P>>> {
        match self {
            BatchOutcome::Coverability(oracle) => Some(oracle),
            _ => None,
        }
    }

    /// The Karp–Miller tree, if this outcome is one.
    #[must_use]
    pub fn as_karp_miller(&self) -> Option<&Arc<KarpMillerTree<P>>> {
        match self {
            BatchOutcome::KarpMiller(tree) => Some(tree),
            _ => None,
        }
    }

    /// The covering-word outcome, if this outcome is one.
    #[must_use]
    pub fn as_covering_word(&self) -> Option<&CoveringWordOutcome> {
        match self {
            BatchOutcome::CoveringWord(outcome) => Some(outcome),
            _ => None,
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
    /// Stored configurations / tree nodes of the final result (the tokens
    /// the job actually consumed; coverability and covering-word jobs
    /// report their basis size and granted budget respectively).
    pub explored: usize,
    /// `true` if the job reused a compiled engine (another job's, or a
    /// seeded session's) instead of compiling its net.
    pub shared_compile: bool,
    /// `true` if the job shared another identical job's result `Arc`
    /// outright (unpooled batches only).
    pub result_cache_hit: bool,
    /// How many rounds the job ran or resumed in (0 for pure result cache
    /// hits).
    pub rounds: u32,
    /// Wall-clock time spent running this job, summed over its rounds.
    pub elapsed: Duration,
    /// `true` if the job was abandoned through its [`CancelToken`]. The
    /// outcome is still bit-identical to a solo run at
    /// [`final_limits`](Self::final_limits) — cancellation only stops the
    /// job from receiving further tokens.
    pub cancelled: bool,
    /// The job's post-run session: it shares the compiled engine with
    /// every other job of the group and caches this job's (possibly
    /// truncated, hence *resumable*) result. Long-lived consumers store it
    /// and hand it to a later [`Batch::seed_session`] so a follow-up job on
    /// the same net resumes the cached result instead of re-exploring —
    /// this is the server-side session-cache hook.
    pub session: Analysis<P>,
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
            .field("cancelled", &self.cancelled)
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
    /// Distinct compiled engines the batch used (after dedup and seeding).
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
    seeds: Vec<Analysis<P>>,
    on_round: Option<Arc<dyn Fn(usize) + Send + Sync>>,
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
            seeds: Vec::new(),
            on_round: None,
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

    /// Seeds the net-dedup table with an existing session: jobs on the
    /// seed's net (and no extra places) clone it instead of compiling.
    pub fn seed_session(mut self, session: &Analysis<P>) -> Self {
        self.seeds.push(session.clone());
        self
    }

    /// Registers a barrier-synchronous round observer: `hook(round)` runs
    /// on the scheduler thread after round `round` (1-based) has settled
    /// its jobs, before the next round's grants are computed. The hook
    /// observes, it cannot perturb results — grants depend only on
    /// deterministic quantities, so anything it does (including cancelling
    /// a token) takes effect at a well-defined barrier.
    pub fn on_round(mut self, hook: impl Fn(usize) + Send + Sync + 'static) -> Self {
        self.on_round = Some(Arc::new(hook));
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
            seeds,
            on_round,
        } = self;

        // ---- Dedup: group jobs by (net, extra places) -------------------
        // Group bases come from a matching seed session when available;
        // only the first job of an unseeded group pays the compile.
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
            let seed = if job.extra_places.is_empty() {
                seeds.iter().find(|seed| *seed.net() == job.net)
            } else {
                None
            };
            let (base, compiled_fresh) = match seed {
                Some(seed) => (seed.clone(), false),
                None => (
                    Analysis::with_places(&job.net, job.extra_places.iter().cloned()),
                    true,
                ),
            };
            shared_compile.push(!compiled_fresh);
            groups.push(Group {
                net: job.net.clone(),
                extra: job.extra_places.clone(),
                base,
            });
            group_of.push(groups.len() - 1);
        }

        // ---- Result aliasing (unpooled only): identical jobs share one
        // execution. With a pool, grants are per-job, so jobs stay apart.
        // Cancellable jobs also stay apart: an orphaned job settling at a
        // reduced budget must never speak for a live one.
        let mut rep_of: Vec<usize> = (0..jobs.len()).collect();
        if pool.is_none() {
            for index in 0..jobs.len() {
                if jobs[index].cancel.is_some() {
                    continue;
                }
                if let Some(rep) = (0..index).find(|&rep| {
                    rep_of[rep] == rep
                        && jobs[rep].cancel.is_none()
                        && group_of[rep] == group_of[index]
                        && jobs[rep].query == jobs[index].query
                        && jobs[rep].limits == jobs[index].limits
                }) {
                    rep_of[index] = rep;
                }
            }
        }

        // ---- Per-job scheduler state ------------------------------------
        let states: Vec<Mutex<JobState<P>>> = jobs
            .iter()
            .enumerate()
            .map(|(index, job)| {
                Mutex::new(JobState {
                    session: groups[group_of[index]].base.clone(),
                    granted: 0,
                    demand: job.demand(),
                    settled: false,
                    rounds: 0,
                    elapsed: Duration::ZERO,
                    used: 0,
                    refunded: 0,
                    completion: Completion::Complete,
                    outcome: None,
                    cancelled: false,
                })
            })
            .collect();
        let representatives: Vec<usize> = (0..jobs.len()).filter(|&j| rep_of[j] == j).collect();

        // ---- Fair-share rounds ------------------------------------------
        let mut remaining = pool.unwrap_or(0);
        let mut refunded_total = 0usize;
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            // Barrier-observe cancellations: an orphaned job that already
            // ran settles now and refunds its unused grant (redistributed
            // by this very round); one that never ran will run once at a
            // zero grant so it still reports an outcome.
            for &j in &representatives {
                let mut state = states[j].lock().expect("job state");
                let orphaned = jobs[j]
                    .cancel
                    .as_ref()
                    .is_some_and(CancelToken::is_cancelled);
                if state.settled || !orphaned {
                    continue;
                }
                state.cancelled = true;
                if state.outcome.is_some() {
                    state.settled = true;
                    let refund = state.abandon(&jobs[j].query);
                    remaining += refund;
                    refunded_total += refund;
                } else {
                    state.demand = 0;
                }
            }
            let to_run: Vec<usize> = if pool.is_none() {
                // Unpooled: a single round at each job's own limits.
                for &j in &representatives {
                    let mut state = states[j].lock().expect("job state");
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
                    .filter(|&j| states[j].lock().expect("job state").demand > 0)
                    .collect();
                fair_share(&mut remaining, &wants, &states);
                representatives.clone()
            } else {
                // Later rounds: redistribute what is left to the jobs that
                // are still running and still want more.
                let active: Vec<usize> = representatives
                    .iter()
                    .copied()
                    .filter(|&j| {
                        let state = states[j].lock().expect("job state");
                        !state.settled && state.granted < state.demand
                    })
                    .collect();
                if active.is_empty() || remaining == 0 {
                    rounds -= 1;
                    break;
                }
                let before: Vec<usize> = active
                    .iter()
                    .map(|&j| states[j].lock().expect("job state").granted)
                    .collect();
                fair_share(&mut remaining, &active, &states);
                let mut grew: Vec<usize> = Vec::new();
                for (&j, before) in active.iter().zip(before) {
                    if states[j].lock().expect("job state").granted > before {
                        grew.push(j);
                    }
                }
                if grew.is_empty() {
                    rounds -= 1;
                    break;
                }
                grew
            };

            run_round(&jobs, &states, &to_run, parallelism);

            for &j in &to_run {
                let mut state = states[j].lock().expect("job state");
                let refund = state.settle(&jobs[j].query);
                remaining += refund;
                refunded_total += refund;
            }
            if let Some(hook) = &on_round {
                hook(rounds);
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
            .map(|&j| {
                let state = states[j].lock().expect("job state");
                state.granted - state.refunded
            })
            .sum();
        let mut reports: Vec<JobReport<P>> = Vec::with_capacity(jobs.len());
        for (index, job) in jobs.iter().enumerate() {
            let rep = rep_of[index];
            let state = states[rep].lock().expect("job state");
            let aliased = rep != index;
            reports.push(JobReport {
                name: job.name.clone(),
                outcome: state
                    .outcome
                    .clone()
                    .expect("every representative job ran at least once"),
                completion: state.completion,
                final_limits: ExplorationLimits {
                    max_configurations: state.granted,
                    ..job.limits
                },
                explored: state.used,
                shared_compile: shared_compile[index] || aliased,
                result_cache_hit: aliased,
                rounds: if aliased { 0 } else { state.rounds },
                elapsed: if aliased {
                    Duration::ZERO
                } else {
                    state.elapsed
                },
                cancelled: state.cancelled,
                session: state.session.clone(),
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
    used: usize,
    refunded: usize,
    completion: Completion,
    outcome: Option<BatchOutcome<P>>,
    cancelled: bool,
}

impl<P: Clone + Ord> JobState<P> {
    /// Decides, after a run, whether the job is settled and how many
    /// unused tokens it refunds to the pool.
    fn settle(&mut self, query: &BatchQuery<P>) -> usize {
        let refund = match self.completion {
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
                match query {
                    // The forward search arena is not exposed, so the
                    // spend cannot be measured: charge the grant in full.
                    BatchQuery::CoveringWord { .. } => 0,
                    // Exact and unbudgeted: nothing was granted.
                    BatchQuery::Coverability { .. } => 0,
                    _ => self.granted.saturating_sub(self.used),
                }
            }
        };
        self.refunded += refund;
        refund
    }

    /// Settles an orphaned job that has already run: its last result
    /// stands (bit-identical to a solo run at its last grant) and the
    /// unused part of the grant goes back to the pool, under the same
    /// per-shape accounting as a completed job.
    fn abandon(&mut self, query: &BatchQuery<P>) -> usize {
        let refund = match query {
            BatchQuery::CoveringWord { .. } | BatchQuery::Coverability { .. } => 0,
            BatchQuery::Reachability { .. } | BatchQuery::KarpMiller { .. } => {
                self.granted.saturating_sub(self.used)
            }
        };
        self.refunded += refund;
        refund
    }
}

/// Splits `remaining` tokens evenly over the `wants` jobs (each capped at
/// its own remaining demand), remainder tokens going to the
/// lowest-indexed jobs — fully deterministic.
fn fair_share<P: Clone + Ord>(
    remaining: &mut usize,
    wants: &[usize],
    states: &[Mutex<JobState<P>>],
) {
    if wants.is_empty() || *remaining == 0 {
        return;
    }
    let share = *remaining / wants.len();
    let extra = *remaining % wants.len();
    for (rank, &j) in wants.iter().enumerate() {
        let mut state = states[j].lock().expect("job state");
        let offer = share + usize::from(rank < extra);
        let take = offer.min(state.demand - state.granted);
        state.granted += take;
        *remaining -= take;
    }
}

/// Runs the given jobs of one round, fanning out over `parallelism`
/// worker threads (the calling thread included). Jobs are independent, so
/// any interleaving produces the same results.
fn run_round<P: Clone + Ord + Send + Sync>(
    jobs: &[BatchJob<P>],
    states: &[Mutex<JobState<P>>],
    to_run: &[usize],
    parallelism: Parallelism,
) {
    let workers = parallelism.workers().min(to_run.len()).max(1);
    if workers == 1 {
        for &j in to_run {
            run_one(&jobs[j], &mut states[j].lock().expect("job state"));
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    let work = || loop {
        // relaxed: pure work-claiming counter — atomicity alone keeps the
        // claims disjoint, and jobs are independent, so no claim order
        // needs to be observed by anyone.
        let k = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&j) = to_run.get(k) else { break };
        run_one(&jobs[j], &mut states[j].lock().expect("job state"));
    };
    std::thread::scope(|scope| {
        // The closure captures only shared references, so it is `Copy`:
        // every worker gets its own copy of the same claiming loop.
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        work();
        for handle in handles {
            handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
    });
}

/// Runs (or resumes) one job at its current grant on its own session.
fn run_one<P: Clone + Ord>(job: &BatchJob<P>, state: &mut JobState<P>) {
    let timer = Instant::now();
    let limits = ExplorationLimits {
        max_configurations: state.granted,
        ..job.limits
    };
    match &job.query {
        BatchQuery::Reachability { initials } => {
            // Drop our result Arc first so a raised-budget re-query can
            // resume the session's cached graph in place instead of
            // cloning it.
            state.outcome = None;
            let graph = state
                .session
                .reachability(initials.iter().cloned())
                .limits(limits)
                .run();
            state.completion = graph.completion();
            state.used = graph.len();
            state.outcome = Some(BatchOutcome::Reachability(graph));
        }
        BatchQuery::Coverability { target } => {
            let oracle = state.session.coverability(target.clone()).run();
            state.completion = Completion::Complete;
            state.used = oracle.basis().len();
            state.outcome = Some(BatchOutcome::Coverability(oracle));
        }
        BatchQuery::KarpMiller { initial } => {
            let tree = state
                .session
                .karp_miller(initial.clone())
                .max_nodes(state.granted)
                .run();
            state.completion = tree.completion();
            state.used = tree.markings().len();
            state.outcome = Some(BatchOutcome::KarpMiller(tree));
        }
        BatchQuery::CoveringWord { from, target } => {
            let outcome = state
                .session
                .covering_word(from.clone(), target.clone())
                .limits(limits)
                .run();
            state.completion = match outcome {
                CoveringWordOutcome::Truncated => Completion::ConfigBudget,
                _ => Completion::Complete,
            };
            state.used = state.granted;
            state.outcome = Some(BatchOutcome::CoveringWord(outcome));
        }
    }
    state.rounds += 1;
    state.elapsed += timer.elapsed();
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
    fn seeded_sessions_skip_the_compile() {
        let net = doubling_net();
        let session = Analysis::new(&net);
        let report = Batch::new()
            .seed_session(&session)
            .job(BatchJob::reachability("seeded", net, [ms(&[("a", 4)])]))
            .run();
        assert_eq!(report.compile_cache_hits, 1);
        assert!(report.jobs[0].shared_compile);
        // The seeded engine is the very one the session holds.
        assert_eq!(report.distinct_nets, 1);
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
    fn cancelled_before_run_takes_nothing_and_redistributes() {
        let net = doubling_net();
        let token = CancelToken::new();
        token.cancel();
        let report = Batch::new()
            .job(
                BatchJob::reachability("orphan", net.clone(), [ms(&[("a", 8)])])
                    .limits(ExplorationLimits::with_max_configurations(9))
                    .cancel_token(token),
            )
            .job(
                BatchJob::reachability("live", net.clone(), [ms(&[("a", 8)])])
                    .limits(ExplorationLimits::with_max_configurations(9)),
            )
            .pool(9)
            .run();
        let orphan = report.job("orphan").unwrap();
        assert!(orphan.cancelled);
        assert_eq!(orphan.explored, 0);
        assert_eq!(orphan.final_limits.max_configurations, 0);
        assert_eq!(orphan.completion, Completion::ConfigBudget);
        // The whole pool went to the live job, which completes.
        let live = report.job("live").unwrap();
        assert!(!live.cancelled);
        assert!(live.completion.is_complete());
        assert_eq!(live.final_limits.max_configurations, 9);
        // Both outcomes are still bit-identical to solo runs at their
        // reported final limits — the orphan's at budget zero.
        for job in [orphan, live] {
            let solo = Analysis::new(&net)
                .reachability([ms(&[("a", 8)])])
                .limits(job.final_limits)
                .run();
            assert!(
                job.outcome.as_reachability().unwrap().identical_to(&solo),
                "{} != solo",
                job.name
            );
        }
    }

    #[test]
    fn mid_batch_cancellation_stops_token_draw_deterministically() {
        let net = doubling_net();
        let start = ms(&[("a", 30)]); // 31 configurations when complete
        let job = |name: &str, token: Option<CancelToken>| {
            let job = BatchJob::reachability(name, net.clone(), [start.clone()])
                .limits(ExplorationLimits::with_max_configurations(31));
            match token {
                Some(token) => job.cancel_token(token),
                None => job,
            }
        };
        let token = CancelToken::new();
        let donor = BatchJob::reachability("donor", net.clone(), [ms(&[("a", 4)])])
            .limits(ExplorationLimits::with_max_configurations(20));
        let cancel_at_round_1 = {
            let token = token.clone();
            move |round: usize| {
                if round == 1 {
                    token.cancel();
                }
            }
        };
        // Round 1: fair share 30/3 = 10 each; the donor completes with 5
        // stored configurations and refunds 5, while orphan and live are
        // both budget-truncated at 10. The orphan is cancelled at the
        // round-1 barrier, so round 2 hands the donor's refund to "live"
        // alone (without the cancellation it would be split 3/2 between
        // orphan and live).
        let report = Batch::new()
            .job(donor)
            .job(job("orphan", Some(token)))
            .job(job("live", None))
            .pool(30)
            .on_round(cancel_at_round_1)
            .run();
        let orphan = report.job("orphan").unwrap();
        let live = report.job("live").unwrap();
        let donor = report.job("donor").unwrap();
        assert!(donor.completion.is_complete());
        assert_eq!(donor.explored, 5);
        assert!(orphan.cancelled);
        // The orphan keeps its round-1 result and draws nothing more.
        assert_eq!(orphan.final_limits.max_configurations, 10);
        assert_eq!(orphan.completion, Completion::ConfigBudget);
        assert_eq!(orphan.rounds, 1);
        // The live job alone absorbs the donor's refund: 10 + 5 = 15.
        assert_eq!(live.final_limits.max_configurations, 15);
        assert!(live.rounds >= 2);
        // Pool accounting still partitions the total.
        let pool = report.pool.unwrap();
        assert_eq!(pool.total, 30);
        assert_eq!(pool.total, pool.granted + pool.unspent);
        // Bit-identity at every reported final budget, orphan included.
        for job in [orphan, live] {
            let solo = Analysis::new(&net)
                .reachability([start.clone()])
                .limits(job.final_limits)
                .run();
            assert!(
                job.outcome.as_reachability().unwrap().identical_to(&solo),
                "{} != solo at {:?}",
                job.name,
                job.final_limits
            );
        }
    }

    #[test]
    fn cancellable_jobs_never_alias_identical_live_jobs() {
        let net = doubling_net();
        let token = CancelToken::new();
        token.cancel();
        let job = || BatchJob::reachability("same", net.clone(), [ms(&[("a", 5)])]);
        let report = Batch::new().job(job().cancel_token(token)).job(job()).run();
        assert_eq!(report.result_cache_hits, 0);
        assert!(report.jobs[0].cancelled);
        assert_eq!(report.jobs[0].explored, 0);
        assert!(!report.jobs[1].cancelled);
        assert!(report.jobs[1].completion.is_complete());
        assert_eq!(report.jobs[1].explored, 6);
    }

    #[test]
    fn job_reports_export_resumable_sessions() {
        let net = doubling_net();
        let start = ms(&[("a", 8)]);
        let truncated = Batch::new()
            .job(
                BatchJob::reachability("first", net.clone(), [start.clone()])
                    .limits(ExplorationLimits::with_max_configurations(4)),
            )
            .run();
        let session = truncated.jobs[0].session.clone();
        assert_eq!(truncated.jobs[0].explored, 4);
        // Seeding a later batch with the exported session resumes the
        // cached truncated graph instead of recompiling or re-exploring.
        let resumed = Batch::new()
            .seed_session(&session)
            .job(
                BatchJob::reachability("second", net.clone(), [start.clone()])
                    .limits(ExplorationLimits::with_max_configurations(9)),
            )
            .run();
        assert_eq!(resumed.compile_cache_hits, 1);
        assert!(resumed.jobs[0].completion.is_complete());
        let solo = Analysis::new(&net)
            .reachability([start])
            .limits(resumed.jobs[0].final_limits)
            .run();
        let graph = resumed.jobs[0].outcome.as_reachability().unwrap();
        assert!(graph.identical_to(&solo));
    }

    #[test]
    fn round_hook_observes_every_round() {
        let net = doubling_net();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let report = Batch::new()
            .job(
                BatchJob::reachability("small", net.clone(), [ms(&[("a", 4)])])
                    .limits(ExplorationLimits::with_max_configurations(20)),
            )
            .job(
                BatchJob::reachability("big", net, [ms(&[("a", 30)])])
                    .limits(ExplorationLimits::with_max_configurations(100)),
            )
            .pool(24)
            .on_round(move |round| sink.lock().expect("sink").push(round))
            .run();
        let seen = seen.lock().expect("sink").clone();
        assert_eq!(seen.len(), report.rounds);
        assert!(seen.iter().copied().eq(1..=report.rounds));
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
}
