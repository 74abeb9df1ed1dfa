//! Golden regression test for the Hilbert-basis completion on the largest
//! system the Section 8 pipeline builds.
//!
//! The system is system (1) of Lemma 7.3 as `shrink_multicycle` sets it up
//! for the flock-of-birds protocol `flock-unary(n=6)`: 7 place rows over 7
//! `α` unknowns and 21 simple-cycle `β` unknowns. The pinned figures (basis
//! size, largest `ℓ₁` norm, element-wise sum and a hash of the sorted basis)
//! and the exact node count at which the budget trips catch any change to
//! the completion's output or to its node accounting.

use pp_diophantine::{HilbertConfig, HilbertError, LinearSystem};

/// Nodes the completion expands on this system.
const EXPANDED: usize = 44_459;

fn flock_unary_6_system() -> LinearSystem {
    LinearSystem::from_rows(vec![
        vec![
            1, 0, 0, 0, 0, 0, 0, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 1, 0,
            0, 0, 0, 0,
        ],
        vec![
            0, -1, 0, 0, 0, 0, 0, 2, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0,
        ],
        vec![
            0, 0, -1, 0, 0, 0, 0, -1, 1, 0, 0, 0, 2, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
        ],
        vec![
            0, 0, 0, -1, 0, 0, 0, 0, -1, 1, 0, 0, 0, 1, 0, 0, 2, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0,
        ],
        vec![
            0, 0, 0, 0, -1, 0, 0, 0, 0, -1, 1, 0, -1, 0, 1, 0, 0, 1, 0, 2, 1, 0, 0, 0, 0, 0, 1, 0,
        ],
        vec![
            0, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1, 1, 0, -1, 0, 1, 0, 0, 1, 0, 1, 2, 0, 0, 0, 0, 0, 1,
        ],
        vec![
            0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
            -1, -1, -1,
        ],
    ])
    .expect("a well-formed 7 × 28 system")
}

/// FNV-1a over the coordinates of the sorted basis, one separator per element.
fn fingerprint(basis: &[Vec<u64>]) -> u64 {
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for element in basis {
        for &x in element {
            hash = (hash ^ x).wrapping_mul(PRIME);
        }
        hash = (hash ^ 0xff).wrapping_mul(PRIME);
    }
    hash
}

#[test]
fn flock_unary_6_basis_matches_the_golden_figures() {
    let system = flock_unary_6_system();
    let basis = system
        .hilbert_basis(&HilbertConfig::with_max_nodes(EXPANDED))
        .expect("the completion fits in exactly its node count");
    assert_eq!(basis.len(), 1446);
    assert_eq!(basis.iter().map(|b| b.iter().sum::<u64>()).max(), Some(38));
    let mut sum = vec![0u64; system.cols()];
    for element in &basis {
        for (total, &x) in sum.iter_mut().zip(element) {
            *total += x;
        }
    }
    assert_eq!(
        sum,
        [
            3639, 6497, 1418, 506, 201, 102, 5085, 1834, 1109, 742, 920, 57, 700, 600, 45, 95, 24,
            73, 146, 133, 320, 480, 3639, 1, 3, 6, 19, 44
        ]
    );
    assert_eq!(fingerprint(&basis), 0x8fa9_1bcb_a467_4d3b);
    assert!(basis.iter().all(|b| system.is_solution(b)));
}

#[test]
fn flock_unary_6_node_budget_trips_one_node_short() {
    let err = flock_unary_6_system()
        .hilbert_basis(&HilbertConfig::with_max_nodes(EXPANDED - 1))
        .unwrap_err();
    assert_eq!(
        err,
        HilbertError::NodeBudgetExceeded {
            budget: EXPANDED - 1
        }
    );
}
