//! The multi-protocol batch service layer (`pp_core::batch`).
//!
//! The serving story of this workspace stacks three layers: the dense
//! engine runs one fixpoint fast, the [`Analysis`]
//! session runs many queries on one compiled net, and this module runs
//! **fleets of protocols** — the shape of a production front door that
//! receives heterogeneous analysis requests and answers them under one
//! resource budget.
//!
//! [`ProtocolBatch`] is a thin, protocol-aware veneer over the generic
//! net-level scheduler [`pp_petri::batch`], which does the heavy lifting:
//! identical nets are deduplicated behind shared compiled sessions,
//! jobs of one round run concurrently under a [`Parallelism`] knob, and a
//! shared token pool is fair-shared and redistributed across rounds with
//! every job's result bit-identical to a solo run at its final budget
//! (see the [`pp_petri::batch`] module docs for the scheduling model).
//! This veneer adds the protocol vocabulary: jobs are named after
//! protocols, configurations come from agent counts or input valuations,
//! and the net behind each job is [`Protocol::net`].
//!
//! ```
//! use pp_protocols::leaders_n::example_4_2;
//! use pp_statecomplexity::batch::ProtocolBatch;
//!
//! // Example 4.2's net is independent of n (only the leader count in the
//! // initial configuration changes), so the whole family batches onto a
//! // single compiled engine.
//! let report = ProtocolBatch::new()
//!     .reachability(&example_4_2(1), 4)
//!     .reachability(&example_4_2(1), 5)
//!     .reachability(&example_4_2(2), 4)
//!     .run();
//! assert_eq!(report.jobs.len(), 3);
//! assert_eq!(report.distinct_nets, 1);
//! assert_eq!(report.compile_cache_hits, 2);
//! assert!(report.all_complete());
//! ```
//!
//! The experiments drive the full catalog of `pp-protocols` through this
//! layer (`pp_protocols::batch`, `tests/batch_fairness.rs`).

use pp_multiset::Multiset;
use pp_petri::batch::{Batch, BatchJob, CancelToken};
use pp_petri::{Analysis, ExplorationLimits, Parallelism};
use pp_population::{Protocol, StateId};

pub use pp_petri::batch::{BatchOutcome, BatchQuery, JobReport, PoolReport};

/// The report type of a protocol batch: the net-level [`BatchReport`]
/// over protocol state ids.
///
/// [`BatchReport`]: pp_petri::batch::BatchReport
pub type BatchReport = pp_petri::batch::BatchReport<StateId>;

/// A batch of analysis jobs over population protocols.
///
/// See the [module documentation](self); every method mirrors a query
/// shape of the underlying [`Analysis`] session, and
/// [`run`](Self::run) hands the assembled jobs to the net-level
/// scheduler.
#[derive(Clone, Default)]
#[must_use = "a batch does nothing until run"]
pub struct ProtocolBatch {
    inner: Batch<StateId>,
    limits: ExplorationLimits,
    cancel: Option<CancelToken>,
}

impl ProtocolBatch {
    /// An empty batch (sequential runner, no shared pool, default
    /// [`ExplorationLimits`] for subsequently added jobs).
    pub fn new() -> Self {
        ProtocolBatch {
            inner: Batch::new(),
            limits: ExplorationLimits::default(),
            cancel: None,
        }
    }

    /// Sets the limits applied to jobs added *after* this call (their
    /// budget demand under a shared pool).
    pub fn limits(mut self, limits: ExplorationLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Puts the batch under a shared token budget (see
    /// [`Batch::pool`]).
    pub fn pool(mut self, tokens: usize) -> Self {
        self.inner = self.inner.pool(tokens);
        self
    }

    /// Sets how many OS threads may run different jobs of one round
    /// concurrently (see [`Batch::parallelism`]). Results are identical
    /// across all modes.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.inner = self.inner.parallelism(parallelism);
        self
    }

    /// Seeds the batch with an existing [`Analysis`] session: jobs whose
    /// net equals the session's reuse its compiled engine and cached
    /// results instead of recompiling (see [`Batch::seed_session`]).
    /// This is how a long-lived service — `pp_serve` is the worked
    /// example — keeps protocol analyses hot across requests.
    pub fn seed_session(mut self, session: &Analysis<StateId>) -> Self {
        self.inner = self.inner.seed_session(session);
        self
    }

    /// Attaches a cancellation token to jobs added *after* this call
    /// (mirroring the [`limits`](Self::limits) convention): cancelling
    /// the token abandons those jobs at the next round barrier, with
    /// their unused pool tokens refunded (see [`BatchJob::cancel_token`]).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Adds a reachability job: the protocol's state space from
    /// `ρ_L + agents · initial-state`.
    pub fn reachability(self, protocol: &Protocol, agents: u64) -> Self {
        let initial = protocol.initial_config_with_count(agents);
        let name = format!("{}/reach[{agents}]", protocol.name());
        self.job_named(name, protocol, |net, name, limits| {
            BatchJob::reachability(name, net, [initial]).limits(limits)
        })
    }

    /// Adds a reachability job from an explicit initial configuration.
    pub fn reachability_from(
        self,
        protocol: &Protocol,
        name: impl Into<String>,
        initial: Multiset<StateId>,
    ) -> Self {
        self.job_named(name.into(), protocol, |net, name, limits| {
            BatchJob::reachability(name, net, [initial]).limits(limits)
        })
    }

    /// Adds an exact backward-coverability job for `target`.
    pub fn coverability(self, protocol: &Protocol, target: Multiset<StateId>) -> Self {
        let name = format!(
            "{}/cover[{}]",
            protocol.name(),
            protocol.display_config(&target)
        );
        self.job_named(name, protocol, |net, name, limits| {
            BatchJob::coverability(name, net, target).limits(limits)
        })
    }

    /// Adds a Karp–Miller tree job from `ρ_L + agents · initial-state`
    /// with the node budget `max_nodes`.
    pub fn karp_miller(self, protocol: &Protocol, agents: u64, max_nodes: usize) -> Self {
        let initial = protocol.initial_config_with_count(agents);
        let name = format!("{}/km[{agents}]", protocol.name());
        self.job_named(name, protocol, move |net, name, limits| {
            BatchJob::karp_miller(name, net, initial).limits(ExplorationLimits {
                max_configurations: max_nodes,
                ..limits
            })
        })
    }

    /// Adds a shortest-covering-word job (`from --σ--> β ≥ target`).
    pub fn covering_word(
        self,
        protocol: &Protocol,
        from: Multiset<StateId>,
        target: Multiset<StateId>,
    ) -> Self {
        let name = format!(
            "{}/word[{}]",
            protocol.name(),
            protocol.display_config(&target)
        );
        self.job_named(name, protocol, |net, name, limits| {
            BatchJob::covering_word(name, net, from, target).limits(limits)
        })
    }

    /// Adds a pre-built net-level job (the escape hatch to the full
    /// [`pp_petri::batch`] vocabulary).
    pub fn job(mut self, job: BatchJob<StateId>) -> Self {
        self.inner = self.inner.job(job);
        self
    }

    /// Runs the batch.
    #[must_use = "the report carries every job's result"]
    pub fn run(self) -> BatchReport {
        self.inner.run()
    }

    fn job_named<F>(mut self, name: String, protocol: &Protocol, build: F) -> Self
    where
        F: FnOnce(pp_petri::PetriNet<StateId>, String, ExplorationLimits) -> BatchJob<StateId>,
    {
        let mut job = build(protocol.net().clone(), name, self.limits);
        if let Some(token) = &self.cancel {
            job = job.cancel_token(token.clone());
        }
        self.inner = self.inner.job(job);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_petri::Completion;
    use pp_protocols::leaders_n::example_4_2;

    #[test]
    fn a_mixed_protocol_batch_reports_every_shape() {
        let protocol = example_4_2(1);
        let i = protocol.state_id("i").unwrap();
        let p = protocol.state_id("p").unwrap();
        let q = protocol.state_id("q").unwrap();
        let report = ProtocolBatch::new()
            .reachability(&protocol, 3)
            .coverability(&protocol, Multiset::from_pairs([(p, 1u64), (q, 1)]))
            .karp_miller(&protocol, 2, 10_000)
            .covering_word(
                &protocol,
                protocol.initial_config_with_count(2),
                Multiset::unit(p),
            )
            .run();
        assert_eq!(report.jobs.len(), 4);
        assert_eq!(report.distinct_nets, 1, "one compile for the whole batch");
        assert_eq!(report.compile_cache_hits, 3);
        assert!(report.all_complete());
        let reach = report.job("example-4.2(n=1)/reach[3]").unwrap();
        assert!(reach.outcome.as_reachability().unwrap().len() > 1);
        let km = report.job("example-4.2(n=1)/km[2]").unwrap();
        assert!(km.outcome.as_karp_miller().unwrap().place_is_bounded(&i));
    }

    #[test]
    fn seeded_sessions_share_their_compiled_engine_and_cached_results() {
        use pp_petri::Analysis;
        let protocol = example_4_2(1);
        let initial = protocol.initial_config_with_count(3);
        // A long-lived session that has already served the same query.
        let mut session = Analysis::new(protocol.net());
        let warm = session.reachability([initial.clone()]).run();
        let report = ProtocolBatch::new()
            .seed_session(&session)
            .reachability(&protocol, 3)
            .run();
        assert_eq!(
            report.compile_cache_hits, 1,
            "the seed's compiled engine serves the job"
        );
        let job = &report.jobs[0];
        assert!(job.shared_compile, "no fresh compile behind a live seed");
        assert!(job.outcome.as_reachability().unwrap().identical_to(&warm));
    }

    #[test]
    fn cancel_tokens_pass_through_to_subsequent_jobs_only() {
        let protocol = example_4_2(1);
        let token = CancelToken::new();
        token.cancel();
        let report = ProtocolBatch::new()
            .reachability(&protocol, 2)
            .cancel_token(token)
            .reachability(&protocol, 3)
            .run();
        assert!(!report.jobs[0].cancelled, "added before the token");
        assert!(report.jobs[1].cancelled, "added after the token");
        assert!(report.jobs[0].outcome.as_reachability().unwrap().len() > 1);
    }

    #[test]
    fn pooled_protocol_jobs_stay_bit_identical_to_solo_runs() {
        use pp_petri::Analysis;
        let protocol = pp_protocols::flock::flock_of_birds_unary(3);
        let agents = [6u64, 7, 8];
        let mut batch = ProtocolBatch::new().pool(60);
        for &a in &agents {
            batch = batch.reachability(&protocol, a);
        }
        let report = batch.run();
        assert!(
            report
                .jobs
                .iter()
                .any(|job| job.completion == Completion::ConfigBudget),
            "the pool is small enough that some job must be truncated"
        );
        for (job, &a) in report.jobs.iter().zip(&agents) {
            let solo = Analysis::new(protocol.net())
                .reachability([protocol.initial_config_with_count(a)])
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
}
