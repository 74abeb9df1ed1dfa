//! `verify`: exhaustive verification of many small and medium inputs.
//!
//! One pass verifies every single-initial-state counting family of the
//! catalog at n = 6 over inputs `0..=18` and at n = 8 over `0..=24`
//! ([`verify_counting_inputs`]), majority over the 8×8 grid of non-empty
//! inputs and modulo-3 over `0..=20` ([`verify_inputs`]) — eleven calls in
//! a seed-shuffled order. Each call is one [`Batch`](pp_petri::Batch)
//! fanned out across its inputs with compile dedup plus the verdict pass;
//! the within-input parallel engine barely runs, so this workload is the
//! control for `analyze`. An operation is one verified input; every report
//! must be `all_correct`.

use super::analyze::pass_order;
use super::Workload;
use crate::trace::Tracer;
use crate::Tally;
use pp_multiset::Multiset;
use pp_petri::ExplorationLimits;
use pp_population::verify::{verify_counting_inputs, verify_inputs, VerificationReport};
use pp_population::{Predicate, Protocol};
use pp_protocols::{catalog, majority, modulo};
use std::time::Instant;

/// One verification call.
pub struct Call {
    /// The protocol verified.
    pub protocol: Protocol,
    /// The predicate it must compute.
    pub predicate: Predicate,
    /// The inputs: `0..=max` agents for counting families, an explicit
    /// list otherwise.
    pub inputs: Inputs,
}

/// The inputs of a [`Call`].
pub enum Inputs {
    /// Every count `0..=max` on the single initial state.
    Counting(u64),
    /// An explicit input list.
    List(Vec<Multiset<String>>),
}

impl Call {
    /// Runs the call.
    #[must_use]
    pub fn run(&self) -> VerificationReport {
        let limits = ExplorationLimits::default();
        match &self.inputs {
            Inputs::Counting(max) => {
                verify_counting_inputs(&self.protocol, &self.predicate, *max, &limits)
            }
            Inputs::List(inputs) => {
                verify_inputs(&self.protocol, &self.predicate, inputs.clone(), &limits)
            }
        }
    }
}

/// The fixed call list.
#[must_use]
pub fn calls() -> Vec<Call> {
    let mut calls = Vec::new();
    for (n, max) in [(6u64, 18u64), (8, 24)] {
        for entry in catalog::counting_entries(n) {
            calls.push(Call {
                protocol: entry.protocol,
                predicate: entry.predicate,
                inputs: Inputs::Counting(max),
            });
        }
    }
    let grid = (0..=8u64)
        .flat_map(|a| (0..=8u64).map(move |b| (a, b)))
        .filter(|&(a, b)| a + b > 0)
        .map(|(a, b)| Multiset::from_pairs([("A".to_string(), a), ("B".to_string(), b)]))
        .collect();
    calls.push(Call {
        protocol: majority::majority(),
        predicate: majority::majority_predicate(),
        inputs: Inputs::List(grid),
    });
    let modulo3 = modulo::modulo_with_leader(3, 1);
    let input_state = modulo3
        .initial_states()
        .iter()
        .map(|&state| modulo3.state_name(state).to_string())
        .next()
        .expect("modulo-3 has one initial state");
    calls.push(Call {
        protocol: modulo3,
        predicate: modulo::modulo_predicate(3, 1),
        inputs: Inputs::List(
            (0..=20u64)
                .map(|k| Multiset::from_pairs([(input_state.clone(), k)]))
                .collect(),
        ),
    });
    calls
}

/// The `verify` workload.
pub struct Verify {
    calls: Vec<Call>,
    seed: u64,
}

impl Verify {
    /// Builds the call list and warms up with one pass.
    #[must_use]
    pub fn setup(seed: u64) -> Self {
        let calls = calls();
        for call in &calls {
            std::hint::black_box(call.run());
        }
        Verify { calls, seed }
    }
}

impl Workload for Verify {
    fn pass(&mut self, pass: u64, tracer: &Tracer, tally: &mut Tally) {
        for index in pass_order(self.seed, pass, self.calls.len()) {
            let call = &self.calls[index];
            let started = Instant::now();
            let report = tracer.span("population.verify", pass * 100 + index as u64, || {
                call.run()
            });
            let latency = started.elapsed();
            let explored: usize = report
                .inputs
                .iter()
                .map(|input| input.explored_configurations)
                .sum();
            let failed = report
                .inputs
                .iter()
                .filter(|input| !input.is_correct())
                .count();
            if !report.all_correct() {
                eprintln!(
                    "verify: {} failed on {failed} of {} inputs",
                    report.protocol_name,
                    report.inputs.len()
                );
            }
            tally.record(
                index,
                report.inputs.len() as u64,
                failed as u64,
                explored as u64,
                latency,
            );
        }
    }
}
