//! Output-stable configurations (`S₀` and `S₁` of Section 2).
//!
//! A configuration is *0-output stable* when every configuration reachable
//! from it has outputs included in `{0}` (the empty configuration counts as
//! output 0), and *1-output stable* when every reachable configuration has
//! output set exactly `{1}` (so in particular is non-empty). Lemma 5.1
//! identifies 0-output stability with `(T, γ⁻¹(0))`-stabilization, which the
//! `pp-petri` crate decides exactly via backward coverability; the 1-output
//! side additionally requires that the empty configuration stays unreachable,
//! which is automatic for conservative protocols and is checked by bounded
//! exploration otherwise.

use crate::output::Output;
use crate::protocol::{Protocol, StateId};
use pp_multiset::Multiset;
use pp_petri::stabilized::StabilityChecker;
use pp_petri::{Analysis, ExplorationLimits};

/// Exact (where possible) output-stability checks for a protocol.
///
/// The checker precomputes the two coverability-based stability oracles
/// once, on one [`Analysis`] session — the protocol's net is compiled a
/// single time for all per-place oracles *and* for every later bounded
/// exploration. Cloning a protocol's checker is cheap compared to
/// rebuilding it (the session and its caches are shared).
#[derive(Debug, Clone)]
pub struct ProtocolStability {
    zero_checker: StabilityChecker<StateId>,
    one_checker: StabilityChecker<StateId>,
    conservative: bool,
    analysis: Analysis<StateId>,
}

impl ProtocolStability {
    /// Builds the stability checker for `protocol`.
    #[must_use]
    pub fn new(protocol: &Protocol) -> Self {
        let mut analysis = Analysis::new(protocol.net());
        let zero_states = protocol.states_with_output(Output::Zero);
        let one_states = protocol.states_with_output(Output::One);
        ProtocolStability {
            zero_checker: StabilityChecker::new_in(&mut analysis, &zero_states),
            one_checker: StabilityChecker::new_in(&mut analysis, &one_states),
            conservative: protocol.is_conservative(),
            analysis,
        }
    }

    /// Returns `true` if `config` is 0-output stable (an element of `S₀`).
    ///
    /// This is exact for every protocol (Lemma 5.1 + backward coverability).
    #[must_use]
    pub fn is_zero_output_stable(&self, config: &Multiset<StateId>) -> bool {
        self.zero_checker.is_stabilized(config)
    }

    /// Returns whether `config` is 1-output stable (an element of `S₁`).
    ///
    /// For conservative protocols the answer is exact. For non-conservative
    /// protocols the additional requirement that the empty configuration is
    /// unreachable is checked by bounded exploration under `limits`; `None`
    /// is returned when that exploration is truncated before an answer is
    /// certain.
    #[must_use]
    pub fn is_one_output_stable(
        &self,
        _protocol: &Protocol,
        config: &Multiset<StateId>,
        limits: &ExplorationLimits,
    ) -> Option<bool> {
        if config.is_empty() {
            return Some(false);
        }
        if !self.one_checker.is_stabilized(config) {
            return Some(false);
        }
        if self.conservative {
            // Conservative transitions preserve the number of agents, so a
            // non-empty configuration can never become empty.
            return Some(true);
        }
        // Non-conservative: check that the empty configuration is unreachable.
        let graph = self
            .analysis
            .clone()
            .reachability([config.clone()])
            .limits(*limits)
            .run();
        let reaches_empty = graph.ids().any(|id| graph.total(id) == 0);
        if reaches_empty {
            Some(false)
        } else if graph.is_complete() {
            Some(true)
        } else {
            None
        }
    }

    /// Returns whether `config` is `value`-output stable (see
    /// [`is_zero_output_stable`](Self::is_zero_output_stable) and
    /// [`is_one_output_stable`](Self::is_one_output_stable)).
    #[must_use]
    pub fn is_output_stable(
        &self,
        protocol: &Protocol,
        config: &Multiset<StateId>,
        value: bool,
        limits: &ExplorationLimits,
    ) -> Option<bool> {
        if value {
            self.is_one_output_stable(protocol, config, limits)
        } else {
            Some(self.is_zero_output_stable(config))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{annihilate, example_4_2, starry};

    #[test]
    fn zero_and_one_stability_on_example_4_2() {
        let protocol = example_4_2(2);
        let stability = ProtocolStability::new(&protocol);
        let limits = ExplorationLimits::default();
        let id = |name: &str| protocol.state_id(name).unwrap();

        // All-barred configurations are 0-output stable.
        let zeros = Multiset::from_pairs([(id("i_bar"), 2u64), (id("p_bar"), 1)]);
        assert!(stability.is_zero_output_stable(&zeros));
        assert_eq!(
            stability.is_one_output_stable(&protocol, &zeros, &limits),
            Some(false)
        );

        // All-unbarred configurations without ī are 1-output stable.
        let ones = Multiset::from_pairs([(id("p"), 1u64), (id("q"), 1), (id("i"), 3)]);
        assert_eq!(
            stability.is_one_output_stable(&protocol, &ones, &limits),
            Some(true)
        );
        assert!(!stability.is_zero_output_stable(&ones));

        // A mixed configuration is neither.
        let mixed = Multiset::from_pairs([(id("i"), 1u64), (id("i_bar"), 1)]);
        assert!(!stability.is_zero_output_stable(&mixed));
        assert_eq!(
            stability.is_one_output_stable(&protocol, &mixed, &limits),
            Some(false)
        );

        // The empty configuration is 0-output stable but never 1-output stable.
        assert!(stability.is_zero_output_stable(&Multiset::new()));
        assert_eq!(
            stability.is_one_output_stable(&protocol, &Multiset::new(), &limits),
            Some(false)
        );

        // The generic entry point dispatches on the expected value.
        assert_eq!(
            stability.is_output_stable(&protocol, &zeros, false, &limits),
            Some(true)
        );
        assert_eq!(
            stability.is_output_stable(&protocol, &ones, true, &limits),
            Some(true)
        );
    }

    #[test]
    fn non_conservative_one_stability_accounts_for_destruction() {
        // Agents in state a output 1 but can annihilate pairwise; a single a
        // is 1-stable, two a's are not (they can reach the empty configuration
        // whose output is 0).
        let protocol = annihilate();
        let a = protocol.state_id("a").unwrap();
        let stability = ProtocolStability::new(&protocol);
        let limits = ExplorationLimits::default();
        assert_eq!(
            stability.is_one_output_stable(&protocol, &Multiset::unit(a), &limits),
            Some(true)
        );
        assert_eq!(
            stability.is_one_output_stable(&protocol, &Multiset::from_pairs([(a, 2u64)]), &limits),
            Some(false)
        );
        assert_eq!(
            stability.is_one_output_stable(&protocol, &Multiset::from_pairs([(a, 3u64)]), &limits),
            Some(true)
        );
    }

    #[test]
    fn star_states_block_both_stabilities() {
        let protocol = starry();
        let a = protocol.state_id("a").unwrap();
        let s = protocol.state_id("s").unwrap();
        let stability = ProtocolStability::new(&protocol);
        let limits = ExplorationLimits::default();
        // A single agent can never create the star state: stable.
        assert_eq!(
            stability.is_one_output_stable(&protocol, &Multiset::unit(a), &limits),
            Some(true)
        );
        // Two agents can: not stable. And a configuration already containing a
        // star agent is not 1-output stable either.
        assert_eq!(
            stability.is_one_output_stable(&protocol, &Multiset::from_pairs([(a, 2u64)]), &limits),
            Some(false)
        );
        let with_star = Multiset::from_pairs([(a, 1u64), (s, 1)]);
        assert_eq!(
            stability.is_one_output_stable(&protocol, &with_star, &limits),
            Some(false)
        );
        assert!(!stability.is_zero_output_stable(&with_star));
    }
}
