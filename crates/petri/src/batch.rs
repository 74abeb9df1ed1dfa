//! Multi-query batch scheduling over shared compiled nets.
//!
//! The [`Analysis`] session made *one* net cheap
//! to query repeatedly; serving-shaped consumers go one step further and
//! run *fleets* of queries, possibly over several nets. A [`Batch`] takes
//! a set of [`BatchJob`]s (net + query shape + limits), deduplicates
//! identical nets behind shared compiled sessions, runs each distinct job
//! once at its own [`ExplorationLimits`] under the existing
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
//! # Dedup and cache hits
//!
//! Jobs whose nets are equal (same transitions in the same insertion
//! order — the condition under which compiled transition indices, and
//! hence results, coincide) share one compiled engine: the first job of a
//! group compiles, the rest are *compile cache hits*. Jobs that are
//! outright identical (same net, query, and limits) are additionally
//! collapsed to one execution whose result `Arc` they share (*result
//! cache hits*).
//!
//! # Determinism and concurrency
//!
//! Every job's result is bit-identical to a solo query at the job's own
//! limits: dedup shares only what equal nets compile identically, and the
//! engines are deterministic. [`Batch::parallelism`] fans the distinct
//! jobs out through [`Parallelism::map`]; each job runs on one thread, on
//! its own clone of its group's session, so the runner parallelism is
//! purely a speed knob.
//!
//! # One executor
//!
//! Every job runs as one call of [`BatchQuery::run_on`]: the query on a
//! session at given limits, returning a [`QueryRun`] (outcome,
//! [`Completion`], what the run stored). Consumers that keep their own
//! session — `pp_serve` runs each request on the session it cached for
//! that request's identity — call it directly, so a query runs the same
//! way inside and outside a batch.

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
    /// What the run stored: the configurations (or Karp–Miller nodes)
    /// of its result, the basis size of a coverability oracle, or the
    /// whole budget of a covering-word search, whose arena is not
    /// exposed.
    pub used: usize,
}

impl<P: Clone + Ord> BatchQuery<P> {
    /// The budget the query runs at when asked for `max_configurations`:
    /// the budget itself (clamped to [`MAX_GRAPH_CONFIGURATIONS`]), and zero
    /// for the unbudgeted backward-coverability shape. [`Batch::run`] runs
    /// every job at this budget; `pp_serve` draws this many pool tokens.
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
    /// [`Batch::run`] calls it once for every distinct job, and so does
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
    /// The limits the job runs at (`max_configurations` clamped as in
    /// [`BatchQuery::demand`]).
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

    /// Sets the limits the job runs at.
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
    /// What the run stored ([`QueryRun::used`]): configurations or tree
    /// nodes, a coverability job's basis size, or a covering-word job's
    /// budget.
    pub explored: usize,
    /// `true` if the job reused another job's compiled engine instead of
    /// compiling its net.
    pub shared_compile: bool,
    /// `true` if the job shared another identical job's result `Arc`
    /// outright.
    pub result_cache_hit: bool,
    /// Wall-clock time spent running this job (zero for a result cache
    /// hit, which did not run).
    pub elapsed: Duration,
}

impl<P: Ord + fmt::Debug> fmt::Debug for JobReport<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobReport")
            .field("name", &self.name)
            .field("completion", &self.completion)
            .field("explored", &self.explored)
            .field("shared_compile", &self.shared_compile)
            .field("result_cache_hit", &self.result_cache_hit)
            .field("elapsed", &self.elapsed)
            .finish_non_exhaustive()
    }
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
    parallelism: Parallelism,
}

impl<P: Clone + Ord> Default for Batch<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Clone + Ord> Batch<P> {
    /// An empty batch on the sequential runner.
    pub fn new() -> Self {
        Batch {
            jobs: Vec::new(),
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

    /// Sets the runner parallelism: how many OS threads may work on
    /// different jobs concurrently. Purely a speed knob.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

impl<P: Clone + Ord + Send + Sync> Batch<P> {
    /// Runs the batch and reports every job's result.
    ///
    /// Results are deterministic: every job's outcome is bit-identical to
    /// a solo query at the job's own limits, whatever the runner
    /// parallelism.
    pub fn run(self) -> BatchReport<P> {
        let started = Instant::now();
        let Batch { jobs, parallelism } = self;

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

        // ---- Result aliasing: identical jobs share one execution --------
        // `representatives` are the jobs that run; job `j` reads its result
        // from run number `run_of[j]`.
        let mut representatives: Vec<usize> = Vec::new();
        let mut run_of: Vec<usize> = Vec::with_capacity(jobs.len());
        for (index, job) in jobs.iter().enumerate() {
            let same = representatives.iter().position(|&rep| {
                group_of[rep] == group_of[index]
                    && jobs[rep].query == job.query
                    && jobs[rep].limits == job.limits
            });
            run_of.push(same.unwrap_or_else(|| {
                representatives.push(index);
                representatives.len() - 1
            }));
        }

        // ---- One fan-out: each distinct job runs once at its own limits -
        let work: Vec<(&BatchJob<P>, Analysis<P>)> = representatives
            .iter()
            .map(|&j| (&jobs[j], groups[group_of[j]].base.clone()))
            .collect();
        let runs: Vec<(QueryRun<P>, Duration)> = parallelism.map(work, |(job, mut session)| {
            let timer = Instant::now();
            let limits = ExplorationLimits {
                max_configurations: job.query.demand(job.limits.max_configurations),
                ..job.limits
            };
            let run = job.query.run_on(&mut session, limits);
            (run, timer.elapsed())
        });

        // ---- Assemble the report in job order ---------------------------
        let reports: Vec<JobReport<P>> = jobs
            .iter()
            .enumerate()
            .map(|(index, job)| {
                let (run, elapsed) = &runs[run_of[index]];
                let aliased = representatives[run_of[index]] != index;
                JobReport {
                    name: job.name.clone(),
                    outcome: run.outcome.clone(),
                    completion: run.completion,
                    explored: run.used,
                    shared_compile: shared_compile[index],
                    result_cache_hit: aliased,
                    elapsed: if aliased { Duration::ZERO } else { *elapsed },
                }
            })
            .collect();
        BatchReport {
            jobs: reports,
            distinct_nets: groups.len(),
            compile_cache_hits: shared_compile.iter().filter(|&&shared| shared).count(),
            result_cache_hits: jobs.len() - representatives.len(),
            elapsed: started.elapsed(),
        }
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
        assert!(report.jobs[2].shared_compile);
        assert_eq!(report.jobs[2].elapsed, Duration::ZERO);
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
    fn runner_parallelism_does_not_change_results() {
        let net = doubling_net();
        let build = |parallelism| {
            Batch::new()
                .job(
                    BatchJob::reachability("r1", net.clone(), [ms(&[("a", 7)])])
                        .limits(ExplorationLimits::with_max_configurations(5)),
                )
                .job(BatchJob::reachability("r2", net.clone(), [ms(&[("a", 6)])]))
                .job(BatchJob::karp_miller("km", net.clone(), ms(&[("a", 4)])))
                .job(BatchJob::coverability("cv", net.clone(), ms(&[("b", 3)])))
                .parallelism(parallelism)
                .run()
        };
        let sequential = build(Parallelism::Sequential);
        let parallel = build(Parallelism::Parallel(3));
        assert_eq!(sequential.jobs[0].completion, Completion::ConfigBudget);
        for (s, p) in sequential.jobs.iter().zip(&parallel.jobs) {
            assert_eq!(s.completion, p.completion, "{}", s.name);
            assert_eq!(s.explored, p.explored, "{}", s.name);
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
