//! Golden trajectories: `Simulation::run` outcomes of the three benchmark
//! experiments, recorded with the from-scratch scheduler
//! (`SchedulerKind::choose` on every step) before the incremental
//! scheduler state replaced it. A seed fixes the whole trajectory, so any
//! change to the draws or the picks moves these step counts.

use pp_multiset::Multiset;
use pp_population::{Output, Protocol};
use pp_protocols::{flock, majority, threshold};
use pp_sim::{RunOutcome, SchedulerKind, Simulation};

fn run(protocol: &Protocol, input: &[(&str, u64)], kind: SchedulerKind, seed: u64) -> RunOutcome {
    let names: Multiset<String> =
        Multiset::from_pairs(input.iter().map(|&(name, count)| (name.to_string(), count)));
    let initial = protocol.initial_config(&names).unwrap();
    Simulation::new(protocol, &initial, seed)
        .with_scheduler(kind)
        .run(10_000_000)
}

fn converged(steps: u64) -> RunOutcome {
    RunOutcome::Converged {
        consensus: Output::One,
        steps,
    }
}

#[test]
fn majority_5001_4999_weighted() {
    let protocol = majority::majority();
    let input = [("A", 5001), ("B", 4999)];
    for (seed, steps) in [(1, 146_452), (2, 141_924)] {
        assert_eq!(
            run(&protocol, &input, SchedulerKind::InstanceWeighted, seed),
            converged(steps),
            "seed {seed}"
        );
    }
}

#[test]
fn flock_unary_5_at_10k_uniform() {
    let protocol = flock::flock_of_birds_unary(5);
    let input = [("a1", 10_000)];
    for (seed, steps) in [(1, 14_450), (2, 14_502)] {
        assert_eq!(
            run(
                &protocol,
                &input,
                SchedulerKind::UniformEnabledTransition,
                seed
            ),
            converged(steps),
            "seed {seed}"
        );
    }
}

#[test]
fn binary_threshold_6_at_10k_uniform() {
    let protocol = threshold::binary_threshold_with_leader(6);
    let input = [("v0", 10_000)];
    for (seed, steps) in [(1, 14_534), (2, 14_592)] {
        assert_eq!(
            run(
                &protocol,
                &input,
                SchedulerKind::UniformEnabledTransition,
                seed
            ),
            converged(steps),
            "seed {seed}"
        );
    }
}
