//! Exhaustive verification of stable computation on bounded inputs.
//!
//! A protocol stably computes a predicate `φ` when, for every input `ρ` and
//! every configuration `α` reachable from the initial configuration
//! `ρ_L + ρ|_P`, some `φ(ρ)`-output-stable configuration is reachable from
//! `α` (Section 2). For a fixed input this is checkable exactly whenever the
//! reachability graph of the initial configuration is finite (conservative
//! protocols, or non-conservative ones whose growth is bounded in practice):
//! build the graph, mark the nodes that are `φ(ρ)`-output stable using the
//! exact coverability-based oracles, and check that every node can reach a
//! marked node.
//!
//! The well-specification problem in full generality is
//! Ackermannian-complete \[9, 10\], so this module deliberately exposes a
//! *bounded* verifier: exact for each checked input, explicit about inputs it
//! could not decide.

use crate::predicate::Predicate;
use crate::protocol::{Protocol, StateId};
use crate::stable::ProtocolStability;
use pp_multiset::Multiset;
use pp_petri::{ExplorationLimits, Parallelism};

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
/// reachability graph, mark the expected-output-stable nodes with the exact
/// oracles, and check that every node can reach one.
///
/// The graph and every per-node stability exploration run on one clone of
/// the stability checker's session (an `Arc` bump, no recompile).
#[must_use]
pub fn verify_input(
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
    let mut analysis = stability.analysis().clone();
    let graph = analysis.reachability([initial]).limits(*limits).run();
    if !graph.is_complete() {
        return report(Verdict::Unknown, graph.len());
    }
    let mut stable = vec![false; graph.len()];
    let mut undecided = false;
    for id in graph.ids() {
        match stability.is_output_stable_in(
            &mut analysis,
            protocol,
            graph.node(id),
            expected,
            limits,
        ) {
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

/// Verifies a family of explicit inputs.
///
/// The protocol's net is compiled exactly once (inside the
/// [`ProtocolStability`] checker), and each input is one
/// [`verify_input`] call on a clone of that session. Inputs are
/// independent, so they fan out through [`Parallelism::map`] at
/// [`Parallelism::auto`], each input on one thread; each input's graph is
/// dropped as soon as its verdict is known. The verdicts and the order of
/// the returned reports do not depend on the thread count.
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
    let stability = ProtocolStability::new(protocol);
    let inputs: Vec<Multiset<String>> = inputs.into_iter().collect();
    let reports = Parallelism::auto().map(inputs, |input| {
        verify_input(protocol, &stability, predicate, &input, limits)
    });
    VerificationReport {
        protocol_name: protocol.name().to_owned(),
        predicate: predicate.to_string(),
        inputs: reports,
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
    use crate::output::Output;

    /// Example 4.2 of the paper: 6 states, width 2, n leaders, decides (i ≥ n).
    fn example_4_2(n: u64) -> Protocol {
        let mut b = ProtocolBuilder::new(format!("example-4.2(n={n})"));
        let i = b.state("i", Output::One);
        let i_bar = b.state("i_bar", Output::Zero);
        let p = b.state("p", Output::One);
        let p_bar = b.state("p_bar", Output::Zero);
        let q = b.state("q", Output::One);
        let q_bar = b.state("q_bar", Output::Zero);
        b.initial(i);
        b.leaders(i_bar, n);
        b.pairwise(i, i_bar, p, q);
        b.pairwise(p_bar, i, p, i);
        b.pairwise(p, i_bar, p_bar, i_bar);
        b.pairwise(q_bar, i, q, i);
        b.pairwise(q, i_bar, q_bar, i_bar);
        b.pairwise(p, q_bar, p, q);
        b.pairwise(q, p_bar, q, p);
        b.build().unwrap()
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
        // A protocol that gets stuck in a mixed-output configuration: a and b
        // can swap forever and never reach consensus.
        let mut b = ProtocolBuilder::new("broken");
        let a = b.state("a", Output::One);
        let bb = b.state("b", Output::Zero);
        b.initial(a);
        b.leaders(bb, 1);
        b.pairwise(a, bb, bb, a);
        let protocol = b.build().unwrap();
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
        // A non-conservative protocol that grows without bound.
        let mut b = ProtocolBuilder::new("grower");
        let a = b.state("a", Output::One);
        b.initial(a);
        b.transition(&[(a, 1)], &[(a, 2)]);
        let protocol = b.build().unwrap();
        let predicate = Predicate::counting("a", 1);
        let limits = ExplorationLimits::with_max_configurations(5);
        let report = verify_counting_inputs(&protocol, &predicate, 1, &limits);
        assert_eq!(report.inputs[1].verdict, Verdict::Unknown);
        assert!(!report.undecided().is_empty());
    }

    #[test]
    fn inputs_on_unknown_states_are_undecided_not_panicking() {
        let protocol = example_4_2(1);
        let stability = ProtocolStability::new(&protocol);
        let input = Multiset::from_pairs([("p".to_string(), 1u64)]);
        let report = verify_input(
            &protocol,
            &stability,
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
