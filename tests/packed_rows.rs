//! Property tests for the packed row representation.
//!
//! The packed layer must be a lossless bijection between dense `u64`
//! count rows and stored words — for every cell width, at every boundary
//! (0, the cell max, and one past it). On top of the round-trips, the row
//! representation must not change any graph: a `u64`-rows session build
//! is `identical_to` the packed build of the same inputs, on a toy net and
//! on catalog protocols, and the catalog graphs store at most half the
//! bytes per node.

use pp_multiset::Multiset;
use pp_petri::{Analysis, CellWidth, ExplorationLimits, PetriNet, RowLayout, Transition};
use pp_protocols::{flock, leaders_n, threshold};
use proptest::prelude::*;

const WIDTHS: [CellWidth; 4] = [
    CellWidth::U8,
    CellWidth::U16,
    CellWidth::U32,
    CellWidth::U64,
];

/// Scrambles `seed` into a cell value biased towards the width's
/// boundaries: 0, 1, max−1 and max show up constantly, not once in 2⁶⁴.
fn cell_value(width: CellWidth, seed: u64) -> u64 {
    let max = width.cell_max();
    match seed % 6 {
        0 => 0,
        1 => 1u64.min(max),
        2 => max.saturating_sub(1),
        3 => max,
        _ => {
            let mut z = seed.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^= z >> 27;
            z.wrapping_mul(0x94D0_49BB_1331_11EB) & max
        }
    }
}

proptest! {
    // Uniform layouts: pack ∘ unpack is the identity on fitting rows.
    #[test]
    fn uniform_round_trip(
        width_index in 0usize..4,
        places in 0usize..24,
        seed in any::<u64>(),
    ) {
        let width = WIDTHS[width_index];
        let layout = RowLayout::uniform(places, width);
        let cells: Vec<u64> = (0..places as u64)
            .map(|i| cell_value(width, seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))))
            .collect();
        let packed = layout.pack(&cells);
        prop_assert_eq!(packed.len(), layout.words_per_row());
        prop_assert_eq!(layout.unpack(&packed), cells.clone());
        for (place, &value) in cells.iter().enumerate() {
            prop_assert_eq!(layout.get(&packed, place), value);
        }
    }

    // Boundary cells (0, max) round-trip exactly; max+1 is rejected with
    // the output buffer restored.
    #[test]
    fn boundary_cells_round_trip_and_overflow_rejects(
        width_index in 0usize..3, // u64 has no representable max+1
        place in 0usize..8,
        delta in 0u64..3,
    ) {
        let width = WIDTHS[width_index];
        let layout = RowLayout::uniform(8, width);
        let max = width.cell_max();
        for v in [0, max, max - delta.min(max)] {
            let mut cells = vec![0u64; 8];
            cells[place] = v;
            prop_assert_eq!(layout.unpack(&layout.pack(&cells)), cells);
        }
        let mut cells = vec![0u64; 8];
        cells[place] = max + 1;
        let mut out = vec![0xDEAD_BEEFu64; 3];
        prop_assert!(!layout.try_pack_into(&cells, &mut out));
        prop_assert_eq!(out, vec![0xDEAD_BEEFu64; 3]);
    }
}

fn ms(pairs: &[(&'static str, u64)]) -> Multiset<&'static str> {
    Multiset::from_pairs(pairs.iter().copied())
}

/// The row representation changes the storage width but not one bit of
/// the logical graph: packed and `u64`-rows builds are `identical_to` each
/// other, and packing at least halves the stored bytes per node.
fn assert_packing_is_lossless<P: Clone + Ord>(
    name: &str,
    net: &PetriNet<P>,
    initial: &Multiset<P>,
) {
    let limits = ExplorationLimits::default();
    let packed = Analysis::new(net)
        .reachability([initial.clone()])
        .limits(limits)
        .run();
    let unpacked = Analysis::new(net)
        .u64_rows()
        .reachability([initial.clone()])
        .limits(limits)
        .run();

    assert!(
        packed.identical_to(&unpacked) && unpacked.identical_to(&packed),
        "{name}: packed and unpacked builds diverge"
    );
    assert!(
        unpacked.bytes_per_node() >= 2 * packed.bytes_per_node(),
        "{name}: packed {} bytes/node should be at most half of unpacked {}",
        packed.bytes_per_node(),
        unpacked.bytes_per_node()
    );
}

#[test]
fn packed_and_unpacked_builds_are_identical() {
    let net = PetriNet::from_transitions([
        Transition::pairwise("a", "a", "a", "b"),
        Transition::pairwise("a", "b", "b", "b"),
        Transition::pairwise("b", "b", "b", "a"),
    ]);
    assert_packing_is_lossless("conservative net", &net, &ms(&[("a", 9)]));
    // Catalog graphs of hundreds to tens of thousands of nodes. Their
    // counts fit narrow cells, so the 2x floor is live: example-4.2 and
    // flock-unary compact 6x, binary-threshold exactly 2x.
    for (family, protocol, agent_counts) in [
        ("example-4.2(n=3)", leaders_n::example_4_2(3), [20, 40]),
        ("flock-unary(n=5)", flock::flock_of_birds_unary(5), [20, 30]),
        (
            "binary-threshold(n=6)",
            threshold::binary_threshold_with_leader(6),
            [20, 30],
        ),
    ] {
        for agents in agent_counts {
            assert_packing_is_lossless(
                &format!("{family} at {agents} agents"),
                protocol.net(),
                &protocol.initial_config_with_count(agents),
            );
        }
    }
}
