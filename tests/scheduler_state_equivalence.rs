//! Differential test: the incremental `SchedulerState` a `Simulation` steps
//! with makes, at every step, the same choice as `SchedulerKind::choose`
//! deciding from scratch on the same configuration and the same random
//! stream. Its cached flags and weights also equal a fresh rebuild along
//! the way.

use pp_multiset::Multiset;
use pp_petri::engine::{CompiledNet, DenseConfig};
use pp_petri::{PetriNet, Transition};
use pp_protocols::catalog;
use pp_sim::scheduler::SchedulerState;
use pp_sim::{compile_protocol, SchedulerKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

const STEPS: usize = 10_000;
const SEEDS: [u64; 3] = [0, 1, 0xC0FFEE];
const KINDS: [SchedulerKind; 2] = [
    SchedulerKind::UniformEnabledTransition,
    SchedulerKind::InstanceWeighted,
];

/// Replays `kind` from `initial` for up to [`STEPS`] steps (or until silent)
/// with both the incremental state and the reference, asserting equal
/// choices and configurations. Returns the number of steps fired.
fn replay<P: Clone + Ord>(
    label: &str,
    net: &CompiledNet<P>,
    initial: &DenseConfig,
    kind: SchedulerKind,
    seed: u64,
) -> usize {
    let mut config = initial.clone();
    let mut reference = initial.clone();
    let mut state = SchedulerState::new(kind, net, &config);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reference_rng = StdRng::seed_from_u64(seed);
    for step in 0..STEPS {
        let choice = state.choose(&mut rng);
        assert_eq!(
            choice,
            kind.choose(net, &reference, &mut reference_rng),
            "{label}, {kind:?}, seed {seed}: step {step}"
        );
        let Some(t) = choice else {
            return step;
        };
        net.transitions()[t].fire(&mut config);
        state.fired(t, &config);
        net.transitions()[t].fire(&mut reference);
        assert_eq!(
            config, reference,
            "{label}, {kind:?}, seed {seed}: step {step}"
        );
        if step % 97 == 0 {
            assert_eq!(
                state,
                SchedulerState::new(kind, net, &config),
                "{label}, {kind:?}, seed {seed}: stale cache after step {step}"
            );
        }
    }
    STEPS
}

#[test]
fn incremental_state_replays_the_reference_on_the_catalog() {
    for n in [3, 5] {
        for entry in catalog::all(n) {
            let protocol = &entry.protocol;
            let net = compile_protocol(protocol);
            let inputs: Vec<_> = protocol.initial_states().iter().copied().collect();
            for agents in [n + 1, 400] {
                let mut initial = protocol.leaders().clone();
                for i in 0..agents {
                    initial.add_to(inputs[i as usize % inputs.len()], 1);
                }
                let dense = net.dense_config(&initial);
                let label = format!("{}(n={n}) with {agents} agents", entry.family);
                for kind in KINDS {
                    for seed in SEEDS {
                        replay(&label, &net, &dense, kind, seed);
                    }
                }
            }
        }
    }
}

/// A net with a `k = 3` precondition (the general binomial branch) and a
/// catalyst place `c`, consumed and produced once by `t0` and `t2`.
fn catalyst_net() -> PetriNet<&'static str> {
    let ms = |pairs: &[(&'static str, u64)]| Multiset::from_pairs(pairs.iter().copied());
    PetriNet::from_transitions([
        // t0: 3a + c → b + c
        Transition::new(ms(&[("a", 3), ("c", 1)]), ms(&[("b", 1), ("c", 1)])),
        // t1: b → 3a
        Transition::new(ms(&[("b", 1)]), ms(&[("a", 3)])),
        // t2: c → c + d
        Transition::new(ms(&[("c", 1)]), ms(&[("c", 1), ("d", 1)])),
        // t3: 2d → a
        Transition::new(ms(&[("d", 2)]), ms(&[("a", 1)])),
        // t4: a + b → a + b
        Transition::new(ms(&[("a", 1), ("b", 1)]), ms(&[("a", 1), ("b", 1)])),
    ])
}

#[test]
fn catalyst_places_are_not_dependencies() {
    let net = CompiledNet::compile(&catalyst_net());
    let config = net.dense_config(&Multiset::from_pairs([("a", 7u64), ("c", 1)]));
    let state = SchedulerState::new(SchedulerKind::UniformEnabledTransition, &net, &config);
    // t2 leaves c unchanged, so the transitions reading c (t0 and t2 itself)
    // are not its dependents; t4 changes nothing at all.
    let expected: [&[u32]; 5] = [&[0, 1, 4], &[0, 1, 4], &[3], &[0, 3, 4], &[]];
    for (t, dependents) in expected.into_iter().enumerate() {
        assert_eq!(state.dependents(t), dependents, "t{t}");
    }
}

#[test]
fn incremental_state_replays_the_reference_on_a_catalyst_net() {
    let net = CompiledNet::compile(&catalyst_net());
    for a in [2u64, 11] {
        let config = net.dense_config(&Multiset::from_pairs([("a", a), ("c", 1)]));
        for kind in KINDS {
            for seed in SEEDS {
                let fired = replay("catalyst net", &net, &config, kind, seed);
                // `c → c + d` keeps the net live forever.
                assert_eq!(fired, STEPS);
            }
        }
    }
}
