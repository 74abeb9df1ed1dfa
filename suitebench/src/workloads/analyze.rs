//! `analyze`: one researcher analysing one protocol at a time.
//!
//! A closed loop over a fixed list of seven queries, each on a cold
//! [`Analysis`] session at [`Parallelism::auto`] (the verifier's default),
//! in a seed-shuffled order per pass:
//!
//! * reachability of flock-unary(n=5) from 34 agents and of
//!   binary-threshold(n=6) from 50 agents (the largest single fixpoints and
//!   the parallel pipelined engine);
//! * backward coverability of `2·a16` on flock-unary(n=16) and of the
//!   accepting leader on binary-threshold(n=6);
//! * a Karp–Miller tree of binary-threshold(n=6) from 18 agents, capped at
//!   20 000 nodes (every catalog net hits the default 100 000 cap);
//! * the Section 8 pipeline ([`analyze_protocol`]) on binary-threshold(n=4)
//!   and flock-unary(n=6).
//!
//! Every answer is checked against recorded node counts and fingerprints;
//! pipeline reports must be complete.

use super::Workload;
use crate::rng::SeedRng;
use crate::trace::Tracer;
use crate::Tally;
use pp_multiset::Multiset;
use pp_petri::fingerprint::{
    coverability_fingerprint, karp_miller_fingerprint, reachability_fingerprint,
};
use pp_petri::{Analysis, ExplorationLimits, Parallelism};
use pp_population::{Protocol, StateId};
use pp_protocols::{flock, threshold};
use pp_statecomplexity::analyze_protocol;
use std::time::Instant;

/// One query of the list.
pub enum Query {
    /// Forward reachability from an initial configuration.
    Reach(Multiset<StateId>),
    /// Backward coverability of a target.
    Cover(Multiset<StateId>),
    /// A Karp–Miller tree with a node cap.
    KarpMiller(Multiset<StateId>, usize),
    /// The Section 8 pipeline.
    Pipeline,
}

/// A query, its protocol and the answer it must produce.
pub struct Op {
    /// Label for diagnostics.
    pub name: &'static str,
    /// The protocol queried.
    pub protocol: Protocol,
    /// The query.
    pub query: Query,
    /// Recorded node count (graph nodes, basis elements or tree nodes) and
    /// fingerprint; unused for the pipeline.
    pub expect: (usize, u64),
}

/// The fixed query list.
#[must_use]
pub fn ops() -> Vec<Op> {
    let flock5 = flock::flock_of_birds_unary(5);
    let flock16 = flock::flock_of_birds_unary(16);
    let binary6 = threshold::binary_threshold_with_leader(6);
    let state = |protocol: &Protocol, name: &str| protocol.state_id(name).expect("catalog state");
    vec![
        Op {
            name: "reach flock-unary(5)/34",
            query: Query::Reach(flock5.initial_config_with_count(34)),
            protocol: flock5,
            expect: (50_982, 0x7074_9dae_505c_37a0),
        },
        Op {
            name: "reach binary-threshold(6)/50",
            query: Query::Reach(binary6.initial_config_with_count(50)),
            protocol: binary6.clone(),
            expect: (21_074, 0x5853_7ed5_3423_ffa1),
        },
        Op {
            name: "cover flock-unary(16) 2*a16",
            query: Query::Cover(Multiset::from_pairs([(state(&flock16, "a16"), 2u64)])),
            protocol: flock16,
            expect: (407, 0xded9_d920_24c2_ad43),
        },
        Op {
            name: "cover binary-threshold(6) L2",
            query: Query::Cover(Multiset::from_pairs([(state(&binary6, "L2"), 1u64)])),
            protocol: binary6.clone(),
            expect: (11, 0x3aec_6255_089b_e2e2),
        },
        Op {
            name: "karp-miller binary-threshold(6)/18",
            query: Query::KarpMiller(binary6.initial_config_with_count(18), 20_000),
            protocol: binary6,
            expect: (20_000, 0x3c52_5ac4_23d9_cdda),
        },
        Op {
            name: "pipeline binary-threshold(4)",
            query: Query::Pipeline,
            protocol: threshold::binary_threshold_with_leader(4),
            expect: (0, 0),
        },
        Op {
            name: "pipeline flock-unary(6)",
            query: Query::Pipeline,
            protocol: flock::flock_of_birds_unary(6),
            expect: (0, 0),
        },
    ]
}

/// Runs one query on a cold session at [`Parallelism::auto`]; returns
/// (correct, work units).
pub fn run_op(op: &Op, tracer: &Tracer, request: u64) -> (bool, u64) {
    let net = op.protocol.net();
    let places: Vec<StateId> = net.places().iter().copied().collect();
    let session = || {
        tracer.span("petri.engine", request, || {
            Analysis::new(net).parallelism(Parallelism::auto())
        })
    };
    let (nodes, fingerprint) = match &op.query {
        Query::Reach(initial) => {
            let mut analysis = session();
            let graph = tracer.span("petri.explore", request, || {
                analysis
                    .reachability([initial.clone()])
                    .limits(ExplorationLimits::default())
                    .run()
            });
            (graph.len(), reachability_fingerprint(&graph))
        }
        Query::Cover(target) => {
            let mut analysis = session();
            let oracle = tracer.span("petri.cover", request, || {
                analysis.coverability(target.clone()).run()
            });
            (
                oracle.basis().len(),
                coverability_fingerprint(&oracle, &places),
            )
        }
        Query::KarpMiller(initial, cap) => {
            let mut analysis = session();
            let tree = tracer.span("petri.karp_miller", request, || {
                analysis.karp_miller(initial.clone()).max_nodes(*cap).run()
            });
            (
                tree.markings().len(),
                karp_miller_fingerprint(&tree, &places),
            )
        }
        Query::Pipeline => {
            let report = tracer.span("core.pipeline", request, || {
                analyze_protocol(&op.protocol, &ExplorationLimits::default())
            });
            if !report.is_complete() {
                eprintln!(
                    "analyze: {} produced an incomplete pipeline report",
                    op.name
                );
            }
            return (report.is_complete(), 0);
        }
    };
    let ok = (nodes, fingerprint) == op.expect;
    if !ok {
        eprintln!(
            "analyze: {} answered {nodes} nodes, fingerprint {fingerprint:#018x}; recorded {} nodes, {:#018x}",
            op.name, op.expect.0, op.expect.1
        );
    }
    (ok, nodes as u64)
}

/// The `analyze` workload.
pub struct Analyze {
    ops: Vec<Op>,
    seed: u64,
}

impl Analyze {
    /// Builds the query list and warms up on its cheap queries.
    #[must_use]
    pub fn setup(seed: u64) -> Self {
        let ops = ops();
        let quiet = Tracer::new(false);
        for op in ops.iter().filter(|op| !matches!(op.query, Query::Pipeline)) {
            std::hint::black_box(run_op(op, &quiet, 0));
        }
        Analyze { ops, seed }
    }
}

/// The order in which pass `pass` of a run seeded `seed` issues the list.
#[must_use]
pub fn pass_order(seed: u64, pass: u64, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    SeedRng::new(seed, pass).shuffle(&mut order);
    order
}

impl Workload for Analyze {
    fn pass(&mut self, pass: u64, tracer: &Tracer, tally: &mut Tally) {
        for index in pass_order(self.seed, pass, self.ops.len()) {
            let started = Instant::now();
            let (ok, steps) = run_op(&self.ops[index], tracer, pass * 100 + index as u64);
            tally.record(index, 1, u64::from(!ok), steps, started.elapsed());
        }
    }
}
