//! Random-scheduler simulation of population protocols.
//!
//! Stable computation (Section 2 of the paper) is defined over all fair
//! executions; this crate complements the exact verification of
//! `pp-population` with *empirical* convergence measurements under the
//! classical uniform random scheduler: at every step a transition instance is
//! chosen uniformly at random among the enabled ones (for width-2 protocols
//! this coincides with the usual "pick an ordered pair of agents uniformly"
//! scheduler, conditioned on the pair interacting).
//!
//! The simulator runs on the shared dense state-space engine of
//! `pp-petri` ([`pp_petri::engine`]): protocols are compiled once with
//! [`compile_protocol`] and configurations are flat [`DenseConfig`]
//! counter vectors. Convergence is detected *exactly* (a configuration is
//! converged when it is output-stable for its consensus value, checked
//! with the coverability oracles of `pp-population`) and repeated trials
//! run on multiple threads ([`convergence`]).

#![warn(missing_docs)]

pub mod convergence;
pub mod scheduler;
pub mod simulation;
pub mod stats;

use pp_population::{Protocol, StateId};

pub use convergence::{ConvergenceExperiment, ConvergenceStats};
pub use pp_petri::engine::{CompiledNet, DenseConfig};
pub use scheduler::SchedulerKind;
pub use simulation::{RunOutcome, Simulation, StepOutcome};

/// A protocol's Petri net compiled for dense simulation.
///
/// Alias of the shared engine type specialized to protocol states; the
/// former `pp_sim::dense::DenseNet` duplicate was removed in favor of it.
pub type DenseNet = CompiledNet<StateId>;

/// Compiles a protocol onto the shared dense engine.
///
/// The place universe is widened to *all* protocol states (not only those
/// mentioned by transitions), so dense indices coincide with [`StateId`]
/// ordinals.
#[must_use]
pub fn compile_protocol(protocol: &Protocol) -> DenseNet {
    CompiledNet::compile_with_places(protocol.net(), protocol.states())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_protocols::leaders_n::example_4_2;

    #[test]
    fn compiled_protocol_indices_match_state_ids() {
        let protocol = example_4_2(2);
        let net = compile_protocol(&protocol);
        assert_eq!(net.num_places(), protocol.num_states());
        for state in protocol.states() {
            assert_eq!(net.place_index(&state), Some(state.0));
        }
    }

    #[test]
    fn dense_round_trip_matches_sparse() {
        let protocol = example_4_2(2);
        let net = compile_protocol(&protocol);
        let initial = protocol.initial_config_with_count(3);
        let dense = net.dense_config(&initial);
        assert_eq!(dense.total(), 5);
        assert_eq!(net.to_multiset(&dense), initial);
        let i = protocol.state_id("i").unwrap();
        assert_eq!(dense.get(i.0), 3);
    }

    #[test]
    fn dense_firing_matches_sparse_firing() {
        let protocol = example_4_2(2);
        let net = compile_protocol(&protocol);
        assert_eq!(net.num_places(), 6);
        let initial = protocol.initial_config_with_count(3);
        let mut dense = net.dense_config(&initial);
        let enabled = net.enabled(&dense);
        assert_eq!(enabled, protocol.net().enabled_transitions(&initial));
        assert!(!enabled.is_empty());
        let t = enabled[0];
        net.transitions()[t].fire(&mut dense);
        let sparse_next = protocol.net().transition(t).fire(&initial).unwrap();
        assert_eq!(net.to_multiset(&dense), sparse_next);
        assert_eq!(dense.total(), 5);
    }

    #[test]
    fn instance_counts_on_protocol_transitions() {
        let protocol = example_4_2(2);
        let net = compile_protocol(&protocol);
        let initial = protocol.initial_config_with_count(3);
        let dense = net.dense_config(&initial);
        // Transition t = (i + ī -> p + q) has 3·2 = 6 unordered instances.
        assert_eq!(net.transitions()[0].instances(&dense), 6);
    }
}
