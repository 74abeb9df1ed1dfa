//! Exhaustive verification of stable computation on bounded inputs.
//!
//! A protocol stably computes a predicate `φ` when, for every input `ρ` and
//! every configuration `α` reachable from the initial configuration
//! `ρ_L + ρ|_P`, some `φ(ρ)`-output-stable configuration is reachable from
//! `α` (Section 2). For a fixed input this is checkable exactly whenever the
//! reachability graph of the initial configuration is finite (conservative
//! protocols, or non-conservative ones whose growth is bounded in practice):
//! build the graph, mark the nodes that are `φ(ρ)`-output stable, and check
//! that every node can reach a marked node. Because the graph is closed
//! under firing, output stability is read off the graph itself: a node is
//! stable exactly when it cannot reach a node whose outputs disagree with
//! `φ(ρ)`, so the whole check is two backward passes over the graph, both
//! walking the one predecessor array built for the input.
//!
//! Inputs are independent and fan out across threads. The reachable set
//! grows steeply with the agent count, so a family of inputs is handed out
//! largest first (Graham's largest-first rule, *Bounds on multiprocessing
//! timing anomalies*, 1969): the biggest graphs start together instead of
//! last, where one thread would finish them while the others have nothing
//! left to claim. The reports come back in input order whatever the claim
//! order, and no verdict depends on it.
//!
//! The well-specification problem in full generality is
//! Ackermannian-complete \[9, 10\], so this module deliberately exposes a
//! *bounded* verifier: exact for each checked input, explicit about inputs it
//! could not decide.

use crate::output::Output;
use crate::predicate::Predicate;
use crate::protocol::{Protocol, StateId};
use pp_multiset::Multiset;
use pp_petri::{Analysis, ExplorationLimits, Parallelism};
use std::cmp::Reverse;

/// Verdict categories for a single input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every reachable configuration can reach a correct output-stable
    /// configuration: the protocol handles this input correctly.
    Correct,
    /// Some reachable configuration can never reach a correct output-stable
    /// configuration; the configuration is returned as a witness.
    Incorrect {
        /// A reachable configuration from which no correct stable
        /// configuration is reachable.
        witness: Multiset<StateId>,
    },
    /// The analysis hit an exploration limit and could not decide this input.
    Unknown,
}

/// The result of verifying one input.
#[derive(Debug, Clone)]
pub struct InputReport {
    /// The input configuration (over initial state names).
    pub input: Multiset<String>,
    /// The value of the predicate on this input.
    pub expected: bool,
    /// The verdict.
    pub verdict: Verdict,
    /// Number of configurations explored for this input.
    pub explored_configurations: usize,
}

impl InputReport {
    /// Returns `true` if the verdict is [`Verdict::Correct`].
    #[must_use]
    pub fn is_correct(&self) -> bool {
        self.verdict == Verdict::Correct
    }
}

/// The result of verifying a family of inputs.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// Name of the verified protocol.
    pub protocol_name: String,
    /// Textual form of the verified predicate.
    pub predicate: String,
    /// Per-input reports, in the order the inputs were supplied.
    pub inputs: Vec<InputReport>,
}

impl VerificationReport {
    /// Returns `true` if every checked input was decided and correct.
    #[must_use]
    pub fn all_correct(&self) -> bool {
        self.inputs.iter().all(InputReport::is_correct)
    }

    /// The inputs whose verdict is [`Verdict::Incorrect`].
    #[must_use]
    pub fn failures(&self) -> Vec<&InputReport> {
        self.inputs
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Incorrect { .. }))
            .collect()
    }

    /// The inputs whose verdict is [`Verdict::Unknown`].
    #[must_use]
    pub fn undecided(&self) -> Vec<&InputReport> {
        self.inputs
            .iter()
            .filter(|r| r.verdict == Verdict::Unknown)
            .collect()
    }
}

/// Verifies a single input exactly (within `limits`): build the input's
/// reachability graph on a clone of `analysis` (an `Arc` bump, no
/// recompile) and decide the verdict from that graph alone.
///
/// A complete graph is closed under firing, so a node is
/// `φ(ρ)`-output stable exactly when no node reachable from it is *bad*:
/// one with an agent on a state whose output is not `φ(ρ)` (`★` is wrong
/// for both values), or, for `φ(ρ) = 1`, the empty configuration. Two
/// backward passes over the graph then give the verdict: the nodes that
/// can reach a bad node are the unstable ones, and every node must be able
/// to reach a node that is not. The first node that cannot is the
/// witness. Both passes walk one [`Predecessors`](pp_petri::Predecessors)
/// array, built once per input. This is the graph-level check of Esparza,
/// Ganty, Leroux and Majumdar, *Verification of population protocols*
/// (CONCUR 2015).
#[must_use]
pub fn verify_input(
    protocol: &Protocol,
    analysis: &Analysis<StateId>,
    predicate: &Predicate,
    input: &Multiset<String>,
    limits: &ExplorationLimits,
) -> InputReport {
    let expected = predicate.eval(input);
    let report = |verdict, explored_configurations| InputReport {
        input: input.clone(),
        expected,
        verdict,
        explored_configurations,
    };
    let Ok(initial) = protocol.initial_config(input) else {
        return report(Verdict::Unknown, 0);
    };
    let graph = analysis
        .clone()
        .reachability([initial])
        .limits(*limits)
        .run();
    if !graph.is_complete() {
        return report(Verdict::Unknown, graph.len());
    }
    // The engine's place indices whose state votes other than `expected`
    // (read off the engine, so a widened one is covered too).
    let wanted = Output::from_bool(expected);
    let wrong: Vec<usize> = graph
        .engine()
        .places()
        .iter()
        .enumerate()
        .filter(|&(_, &state)| protocol.output(state) != wanted)
        .map(|(index, _)| index)
        .collect();
    let layout = graph.row_layout();
    let predecessors = graph.predecessors();
    let unstable = predecessors.nodes_that_can_reach(|id| {
        let row = graph.packed_node(id);
        (expected && graph.total(id) == 0) || wrong.iter().any(|&i| layout.get(row, i) > 0)
    });
    let good = predecessors.nodes_that_can_reach(|id| !unstable[id]);
    let verdict = match good.iter().position(|&can_reach| !can_reach) {
        None => Verdict::Correct,
        Some(witness_id) => Verdict::Incorrect {
            witness: graph.node(witness_id).clone(),
        },
    };
    report(verdict, graph.len())
}

/// Verifies a family of explicit inputs.
///
/// The protocol's net is compiled exactly once, into one [`Analysis`]
/// session, and each input is one [`verify_input`] call on a clone of that
/// session. Inputs are independent, so they fan out through
/// [`Parallelism::map`] at [`Parallelism::auto`], each input on one
/// thread; each input's graph is dropped as soon as its verdict is known.
///
/// `map` claims its items in list order, so the inputs are handed to it
/// sorted by descending agent total (ties in input order): graph size
/// grows with the agent count, and the largest graphs then start first
/// rather than last, where they would leave one thread finishing alone.
/// The reports are put back in input order. The verdicts and the order of
/// the returned reports depend neither on the thread count nor on the
/// claim order.
#[must_use]
pub fn verify_inputs<I>(
    protocol: &Protocol,
    predicate: &Predicate,
    inputs: I,
    limits: &ExplorationLimits,
) -> VerificationReport
where
    I: IntoIterator<Item = Multiset<String>>,
{
    verify_inputs_on(Parallelism::auto(), protocol, predicate, inputs, limits)
}

/// [`verify_inputs`] on `parallelism` threads; the tests pin that every
/// thread count gives the same reports.
fn verify_inputs_on<I>(
    parallelism: Parallelism,
    protocol: &Protocol,
    predicate: &Predicate,
    inputs: I,
    limits: &ExplorationLimits,
) -> VerificationReport
where
    I: IntoIterator<Item = Multiset<String>>,
{
    let analysis = Analysis::new(protocol.net());
    // Largest first: a stable sort on descending agent total, so equal
    // totals keep their input order.
    let mut claims: Vec<(usize, Multiset<String>)> = inputs.into_iter().enumerate().collect();
    claims.sort_by_key(|(_, input)| Reverse(input.total()));
    let mut reports = parallelism.map(claims, |(index, input)| {
        (
            index,
            verify_input(protocol, &analysis, predicate, &input, limits),
        )
    });
    reports.sort_unstable_by_key(|&(index, _)| index);
    VerificationReport {
        protocol_name: protocol.name().to_owned(),
        predicate: predicate.to_string(),
        inputs: reports.into_iter().map(|(_, report)| report).collect(),
    }
}

/// Verifies every input of the form `count · initial_state` for
/// `count ∈ 0..=max_count` (protocols with a single initial state — the shape
/// of the paper's counting predicates).
///
/// # Panics
///
/// Panics if the protocol does not have exactly one initial state.
#[must_use]
pub fn verify_counting_inputs(
    protocol: &Protocol,
    predicate: &Predicate,
    max_count: u64,
    limits: &ExplorationLimits,
) -> VerificationReport {
    assert_eq!(
        protocol.initial_states().len(),
        1,
        "verify_counting_inputs requires exactly one initial state"
    );
    let initial_state = *protocol
        .initial_states()
        .iter()
        .next()
        .expect("one initial state");
    let name = protocol.state_name(initial_state).to_owned();
    let inputs = (0..=max_count).map(move |count| Multiset::from_pairs([(name.clone(), count)]));
    verify_inputs(protocol, predicate, inputs, limits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProtocolBuilder;
    use crate::fixtures::{annihilate, broken, example_4_2, grower, starry};
    use crate::stable::ProtocolStability;

    /// The former verifier, kept as the reference the graph-level one must
    /// reproduce: after building the input's graph it asks the
    /// coverability-based [`ProtocolStability`] oracles about every node,
    /// which for a non-conservative protocol runs one more bounded
    /// exploration per 1-stabilized node.
    fn reference_verify_input(
        protocol: &Protocol,
        stability: &ProtocolStability,
        predicate: &Predicate,
        input: &Multiset<String>,
        limits: &ExplorationLimits,
    ) -> InputReport {
        let expected = predicate.eval(input);
        let report = |verdict, explored_configurations| InputReport {
            input: input.clone(),
            expected,
            verdict,
            explored_configurations,
        };
        let Ok(initial) = protocol.initial_config(input) else {
            return report(Verdict::Unknown, 0);
        };
        let graph = Analysis::new(protocol.net())
            .reachability([initial])
            .limits(*limits)
            .run();
        if !graph.is_complete() {
            return report(Verdict::Unknown, graph.len());
        }
        let mut stable = vec![false; graph.len()];
        let mut undecided = false;
        for id in graph.ids() {
            match stability.is_output_stable(protocol, graph.node(id), expected, limits) {
                Some(true) => stable[id] = true,
                Some(false) => {}
                None => undecided = true,
            }
        }
        let good = graph.nodes_that_can_reach(|id| stable[id]);
        let verdict = match good.iter().position(|&can_reach| !can_reach) {
            None => Verdict::Correct,
            // A node might actually be stable but we could not prove it.
            Some(_) if undecided => Verdict::Unknown,
            Some(witness_id) => Verdict::Incorrect {
                witness: graph.node(witness_id).clone(),
            },
        };
        report(verdict, graph.len())
    }

    /// Runs both verifiers on every input and requires the same verdict,
    /// witness and explored-configuration count; counts the inputs decided
    /// correct, incorrect and unknown into `tally`.
    fn assert_matches_reference(
        protocol: &Protocol,
        predicate: &Predicate,
        inputs: impl IntoIterator<Item = Multiset<String>>,
        limits: &ExplorationLimits,
        tally: &mut [usize; 3],
    ) {
        let analysis = Analysis::new(protocol.net());
        let stability = ProtocolStability::new(protocol);
        for input in inputs {
            let graph = verify_input(protocol, &analysis, predicate, &input, limits);
            let oracle = reference_verify_input(protocol, &stability, predicate, &input, limits);
            assert_eq!(
                (&graph.verdict, graph.explored_configurations),
                (&oracle.verdict, oracle.explored_configurations),
                "{} on {input:?}",
                protocol.name()
            );
            tally[match graph.verdict {
                Verdict::Correct => 0,
                Verdict::Incorrect { .. } => 1,
                Verdict::Unknown => 2,
            }] += 1;
        }
    }

    fn counts(state: &str, range: std::ops::RangeInclusive<u64>) -> Vec<Multiset<String>> {
        range
            .map(|count| Multiset::from_pairs([(state.to_owned(), count)]))
            .collect()
    }

    /// `pp_protocols` links its own build of this crate, so a catalog
    /// protocol is copied into this build's types: state table, outputs,
    /// leaders, initial states and the net with its place and transition
    /// order.
    macro_rules! copy_protocol {
        ($source:expr) => {{
            let source = $source;
            Protocol {
                name: source.name().to_owned(),
                state_names: source
                    .states()
                    .map(|s| source.state_name(s).to_owned())
                    .collect(),
                net: source.net().map_places(|s| StateId(s.0)),
                leaders: source.leaders().map_places(|s| StateId(s.0)),
                initial_states: source
                    .initial_states()
                    .iter()
                    .map(|s| StateId(s.0))
                    .collect(),
                outputs: source
                    .states()
                    .map(|s| match source.output(s) {
                        o if o.is_zero() => Output::Zero,
                        o if o.is_one() => Output::One,
                        _ => Output::Star,
                    })
                    .collect(),
            }
        }};
    }

    #[test]
    fn graph_verdicts_match_the_per_node_oracles_on_the_catalog() {
        use pp_protocols::catalog;
        let limits = ExplorationLimits::default();
        let mut tally = [0; 3];
        let ranges = (1..=4u64).map(|n| (n, n + 3)).chain([(6, 18), (8, 24)]);
        for (n, max) in ranges {
            for entry in catalog::counting_entries(n) {
                let protocol = copy_protocol!(&entry.protocol);
                let state = *protocol.initial_states().iter().next().unwrap();
                let name = protocol.state_name(state).to_owned();
                let predicate = Predicate::counting(name.clone(), entry.threshold.unwrap());
                assert_eq!(predicate.to_string(), entry.predicate.to_string());
                let inputs = counts(&name, 0..=max);
                assert_matches_reference(&protocol, &predicate, inputs, &limits, &mut tally);
            }
        }
        for entry in catalog::other_entries() {
            let protocol = copy_protocol!(&entry.protocol);
            let (predicate, inputs) = match entry.family {
                "majority" => (
                    Predicate::at_least_as_many("A", "B"),
                    (0..=8u64)
                        .flat_map(|a| (0..=8u64).map(move |b| (a, b)))
                        .filter(|&(a, b)| a + b > 0)
                        .map(|(a, b)| {
                            Multiset::from_pairs([("A".to_owned(), a), ("B".to_owned(), b)])
                        })
                        .collect(),
                ),
                _ => (Predicate::modulo("x", 3, 1), counts("x", 0..=20)),
            };
            assert_eq!(predicate.to_string(), entry.predicate.to_string());
            assert_matches_reference(&protocol, &predicate, inputs, &limits, &mut tally);
        }
        assert_eq!(tally[1..], [0, 0], "the catalog is correct on these inputs");
        assert!(tally[0] > 400, "{tally:?}");
    }

    #[test]
    fn graph_verdicts_match_the_per_node_oracles_on_small_protocols() {
        let limits = ExplorationLimits::default();
        let mut tally = [0; 3];
        let mut check = |protocol: &Protocol, predicate: &Predicate, inputs, limits| {
            assert_matches_reference(protocol, predicate, inputs, limits, &mut tally);
        };
        // Example 4.2 built for n = 2 against the right and a wrong threshold.
        for threshold in [2, 3] {
            let predicate = Predicate::counting("i", threshold);
            check(&example_4_2(2), &predicate, counts("i", 0..=5), &limits);
        }
        check(
            &broken(),
            &Predicate::counting("a", 1),
            counts("a", 0..=3),
            &limits,
        );
        let tight = ExplorationLimits::with_max_configurations(5);
        check(
            &grower(),
            &Predicate::counting("a", 1),
            counts("a", 0..=2),
            &tight,
        );
        // Non-conservative (annihilate) and `★` outputs (starry), against
        // predicates expecting either value.
        for threshold in 0..=4 {
            let predicate = Predicate::counting("a", threshold);
            check(&annihilate(), &predicate, counts("a", 0..=6), &limits);
            check(&starry(), &predicate, counts("a", 0..=4), &limits);
        }
        let [correct, incorrect, unknown] = tally;
        assert!(correct > 0 && incorrect > 0 && unknown > 0, "{tally:?}");
    }

    /// Runs `verify_inputs_on` on `inputs` at one, two and three threads
    /// and requires of each, report for report, what a sequential loop of
    /// `verify_input` over the same list gives: input, expected value,
    /// verdict with its witness, and explored configurations. Counts the
    /// verdicts into `tally`.
    fn assert_claim_order_is_invisible(
        protocol: &Protocol,
        predicate: &Predicate,
        inputs: &[Multiset<String>],
        limits: &ExplorationLimits,
        tally: &mut [usize; 3],
    ) {
        let key = |r: &InputReport| {
            (
                r.input.clone(),
                r.expected,
                r.verdict.clone(),
                r.explored_configurations,
            )
        };
        let analysis = Analysis::new(protocol.net());
        let sequential: Vec<_> = inputs
            .iter()
            .map(|input| key(&verify_input(protocol, &analysis, predicate, input, limits)))
            .collect();
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Parallel(2),
            Parallelism::Parallel(3),
        ] {
            let fanned =
                verify_inputs_on(parallelism, protocol, predicate, inputs.to_vec(), limits);
            let fanned: Vec<_> = fanned.inputs.iter().map(key).collect();
            assert_eq!(fanned, sequential, "{} at {parallelism:?}", protocol.name());
        }
        for (_, _, verdict, _) in &sequential {
            tally[match verdict {
                Verdict::Correct => 0,
                Verdict::Incorrect { .. } => 1,
                Verdict::Unknown => 2,
            }] += 1;
        }
    }

    #[test]
    fn claim_order_never_changes_an_answer() {
        let mut tally = [0; 3];
        // Majority on a shuffled list with equal totals (3 and 4 agents)
        // and duplicates.
        let entry = pp_protocols::catalog::other_entries()
            .into_iter()
            .find(|entry| entry.family == "majority")
            .expect("the catalog has majority");
        let majority = copy_protocol!(&entry.protocol);
        let grid: Vec<Multiset<String>> = [
            (1, 2),
            (3, 1),
            (2, 1),
            (0, 3),
            (1, 2),
            (2, 2),
            (4, 0),
            (1, 3),
            (3, 1),
            (0, 1),
        ]
        .into_iter()
        .map(|(a, b)| Multiset::from_pairs([("A".to_owned(), a), ("B".to_owned(), b)]))
        .collect();
        assert_claim_order_is_invisible(
            &majority,
            &Predicate::at_least_as_many("A", "B"),
            &grid,
            &ExplorationLimits::default(),
            &mut tally,
        );
        let of_counts = |counts: &[u64]| -> Vec<Multiset<String>> {
            counts
                .iter()
                .map(|&count| Multiset::from_pairs([("a".to_owned(), count)]))
                .collect()
        };
        assert_claim_order_is_invisible(
            &broken(),
            &Predicate::counting("a", 1),
            &of_counts(&[2, 0, 3, 1, 2, 3, 1, 0]),
            &ExplorationLimits::default(),
            &mut tally,
        );
        assert_claim_order_is_invisible(
            &grower(),
            &Predicate::counting("a", 1),
            &of_counts(&[2, 1, 0, 2, 1]),
            &ExplorationLimits::with_max_configurations(5),
            &mut tally,
        );
        let [correct, incorrect, unknown] = tally;
        assert!(correct > 0 && incorrect > 0 && unknown > 0, "{tally:?}");
    }

    #[test]
    fn a_stable_node_whose_own_exploration_hits_max_depth_is_decided() {
        // One agent starts in `i`, moves in one step to any of `a`, `b`,
        // `c` or the rejecting sink `d`, and `a → b → c → a` cycles. Under
        // `max_depth = 2` the input's graph is complete (every node sits at
        // depth ≤ 1), but a nested exploration from `a` reaches `c` only at
        // depth 2 and stops there. The per-node oracle needs that nested
        // exploration, because the unused `z + z → ∅` makes the protocol
        // non-conservative, so it cannot prove `a` 1-output stable and
        // answers `Unknown`. The graph decides exactly: `{d}` cannot reach
        // a 1-output stable node.
        let mut b = ProtocolBuilder::new("late-cycle");
        let [i, a, bb, c, z] = ["i", "a", "b", "c", "z"].map(|name| b.state(name, Output::One));
        let d = b.state("d", Output::Zero);
        b.initial(i);
        for to in [a, bb, c, d] {
            b.transition(&[(i, 1)], &[(to, 1)]);
        }
        for (from, to) in [(a, bb), (bb, c), (c, a)] {
            b.transition(&[(from, 1)], &[(to, 1)]);
        }
        b.transition(&[(z, 2)], &[]);
        let protocol = b.build().unwrap();
        let limits = ExplorationLimits {
            max_depth: Some(2),
            ..ExplorationLimits::default()
        };
        let input = Multiset::unit("i".to_owned());
        let predicate = Predicate::counting("i", 1);
        let report = verify_input(
            &protocol,
            &Analysis::new(protocol.net()),
            &predicate,
            &input,
            &limits,
        );
        assert_eq!(report.explored_configurations, 5);
        assert_eq!(
            report.verdict,
            Verdict::Incorrect {
                witness: Multiset::unit(d)
            }
        );
        let stability = ProtocolStability::new(&protocol);
        let oracle = reference_verify_input(&protocol, &stability, &predicate, &input, &limits);
        assert_eq!(oracle.verdict, Verdict::Unknown);
        assert_eq!(oracle.explored_configurations, 5);
    }

    #[test]
    fn example_4_2_stably_computes_counting() {
        for n in 1..=3u64 {
            let protocol = example_4_2(n);
            let predicate = Predicate::counting("i", n);
            let report =
                verify_counting_inputs(&protocol, &predicate, n + 3, &ExplorationLimits::default());
            assert!(
                report.all_correct(),
                "example 4.2 with n={n} failed: {:?}",
                report.failures()
            );
            assert_eq!(report.inputs.len() as u64, n + 4);
            assert!(report.undecided().is_empty());
        }
    }

    #[test]
    fn example_4_2_with_wrong_threshold_is_rejected() {
        // The protocol built for n = 2 does not stably compute (i ≥ 3).
        let protocol = example_4_2(2);
        let predicate = Predicate::counting("i", 3);
        let report =
            verify_counting_inputs(&protocol, &predicate, 4, &ExplorationLimits::default());
        assert!(!report.all_correct());
        assert!(!report.failures().is_empty());
        // The failing input is i = 2: the protocol accepts although 2 < 3.
        let failing = &report.failures()[0];
        assert_eq!(failing.input.get(&"i".to_string()), 2);
    }

    #[test]
    fn broken_protocol_yields_a_witness() {
        let protocol = broken();
        let predicate = Predicate::counting("a", 1);
        let report =
            verify_counting_inputs(&protocol, &predicate, 2, &ExplorationLimits::default());
        // Input 0: only the leader b, output 0 expected, config {b} is 0-stable: correct.
        assert!(report.inputs[0].is_correct());
        // Input 1: expected 1, but the configuration {a, b} mixes outputs forever.
        assert!(matches!(
            report.inputs[1].verdict,
            Verdict::Incorrect { .. }
        ));
        if let Verdict::Incorrect { witness } = &report.inputs[1].verdict {
            assert_eq!(witness.total(), 2);
        }
        assert!(!report.all_correct());
    }

    #[test]
    fn truncated_exploration_reports_unknown() {
        let protocol = grower();
        let predicate = Predicate::counting("a", 1);
        let limits = ExplorationLimits::with_max_configurations(5);
        let report = verify_counting_inputs(&protocol, &predicate, 1, &limits);
        assert_eq!(report.inputs[1].verdict, Verdict::Unknown);
        assert!(!report.undecided().is_empty());
    }

    #[test]
    fn inputs_on_unknown_states_are_undecided_not_panicking() {
        let protocol = example_4_2(1);
        let input = Multiset::from_pairs([("p".to_string(), 1u64)]);
        let report = verify_input(
            &protocol,
            &Analysis::new(protocol.net()),
            &Predicate::counting("i", 1),
            &input,
            &ExplorationLimits::default(),
        );
        assert_eq!(report.verdict, Verdict::Unknown);
    }

    #[test]
    fn report_metadata_is_filled_in() {
        let protocol = example_4_2(1);
        let predicate = Predicate::counting("i", 1);
        let report =
            verify_counting_inputs(&protocol, &predicate, 2, &ExplorationLimits::default());
        assert_eq!(report.protocol_name, "example-4.2(n=1)");
        assert!(report.predicate.contains("≥ 1"));
        assert!(report.inputs.iter().all(|r| r.explored_configurations > 0));
    }
}
