//! Representation-independent result fingerprints.
//!
//! Several layers of the workspace need to compare analysis results
//! *by value* without shipping the full structure around: the analysis
//! server reports a fingerprint on every response frame so clients can
//! check the determinism contract over the wire, and the net-DSL
//! differential fuzzer (`pp_netdsl::fuzz`) cross-checks every engine
//! configuration — packed vs unpacked, cold vs resumed, direct vs batch —
//! by comparing exactly these hashes.
//!
//! Fingerprints hash *observable* structure only — node numbering, dense
//! rows, edges, depths, completions, basis/marking contents in a
//! caller-supplied canonical place order — never memory layout, so they
//! are stable across the packed/unpacked representations and the batch
//! runner's thread count, exactly like
//! [`ReachabilityGraph::identical_to`](crate::ReachabilityGraph::identical_to).
//! Two results with equal fingerprints are bit-identical for every
//! property those suites assert (modulo the usual 64-bit collision
//! caveat, which none of the gated checks rely on being impossible —
//! a *divergence* is always a true divergence).

use crate::batch::BatchOutcome;
use crate::cover::{CoverabilityOracle, CoveringWordOutcome};
use crate::karp_miller::{KarpMillerTree, OmegaValue};
use crate::ReachabilityGraph;

/// Incremental 64-bit FNV-1a hasher (dependency-free, stable forever).
#[derive(Debug, Clone)]
pub struct Fnv(u64);

/// The 64-bit FNV prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` (wrapping) for `k = 0..=8`: feeding `k` zero bytes
/// multiplies the state by `FNV_PRIME^k`.
const FNV_PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// The FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one `u64` in little-endian byte order.
    ///
    /// Only the significant low bytes go through the byte loop. XOR with a
    /// zero byte is the identity, so the `k` zero high bytes each just
    /// multiply by the prime, and they are fed as one multiplication by
    /// `FNV_PRIME^k`. The value equals the byte-at-a-time hash.
    pub fn write_u64(&mut self, value: u64) {
        let zero_high_bytes = (value.leading_zeros() / 8) as usize;
        let mut rest = value;
        for _ in zero_high_bytes..8 {
            self.0 ^= rest & 0xff;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
            rest >>= 8;
        }
        self.0 = self.0.wrapping_mul(FNV_PRIME_POWERS[zero_high_bytes]);
    }

    /// Feeds one `usize` widened to `u64`.
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// Feeds a string length-prefixed (no concatenation ambiguity).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The current hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of a reachability graph: length, completion, initial ids,
/// and per node the dense row, depth and successor edge list — the same
/// data [`ReachabilityGraph::identical_to`] compares.
///
/// The hash is computed once per graph and cached on it (an in-place
/// [`resume`](ReachabilityGraph::resume) clears the cache), so a server
/// answering the same cached graph again does not rehash it. The
/// coverability and Karp–Miller fingerprints stay uncached: they read
/// counts in a caller-supplied place order.
#[must_use]
pub fn reachability_fingerprint<P: Clone + Ord>(graph: &ReachabilityGraph<P>) -> u64 {
    *graph.fingerprint.get_or_init(|| hash_reachability(graph))
}

fn hash_reachability<P: Clone + Ord>(graph: &ReachabilityGraph<P>) -> u64 {
    let mut h = Fnv::new();
    h.write_str("reach");
    h.write_usize(graph.len());
    h.write_str(&graph.completion().to_string());
    h.write_usize(graph.initial_ids().len());
    for &id in graph.initial_ids() {
        h.write_usize(id);
    }
    let layout = graph.row_layout();
    let mut row = Vec::with_capacity(layout.places());
    for id in 0..graph.len() {
        row.clear();
        layout.unpack_into(graph.packed_node(id), &mut row);
        h.write_usize(row.len());
        for &count in &row {
            h.write_u64(count);
        }
        h.write_usize(graph.depth_of(id));
        let successors = graph.successors(id);
        h.write_usize(successors.len());
        for &(transition, target) in successors {
            h.write_usize(transition as usize);
            h.write_usize(target as usize);
        }
    }
    h.finish()
}

/// Fingerprint of a coverability oracle: the minimal basis, each element
/// read off in the supplied canonical `places` order.
#[must_use]
pub fn coverability_fingerprint<P: Clone + Ord>(
    oracle: &CoverabilityOracle<P>,
    places: &[P],
) -> u64 {
    let mut h = Fnv::new();
    h.write_str("cover");
    h.write_usize(oracle.basis().len());
    for element in oracle.basis() {
        for place in places {
            h.write_u64(element.get(place));
        }
    }
    h.finish()
}

/// Fingerprint of a Karp–Miller tree: completion plus every marking in
/// the supplied canonical `places` order (ω encoded distinctly from every
/// finite count).
#[must_use]
pub fn karp_miller_fingerprint<P: Clone + Ord>(tree: &KarpMillerTree<P>, places: &[P]) -> u64 {
    let mut h = Fnv::new();
    h.write_str("km");
    h.write_str(&tree.completion().to_string());
    h.write_usize(tree.markings().len());
    let cells: Vec<Option<usize>> = places.iter().map(|p| tree.place_index(p)).collect();
    for row in tree.rows() {
        for cell in &cells {
            match cell.map_or(OmegaValue::Finite(0), |i| OmegaValue::from_cell(row[i])) {
                OmegaValue::Finite(count) => {
                    h.write_u64(0);
                    h.write_u64(count);
                }
                OmegaValue::Omega => h.write_u64(1),
            }
        }
    }
    h.finish()
}

/// Fingerprint of a covering-word outcome: the verdict and, when covered,
/// the transition word itself.
#[must_use]
pub fn covering_word_fingerprint(outcome: &CoveringWordOutcome) -> u64 {
    let mut h = Fnv::new();
    h.write_str("word");
    match outcome {
        CoveringWordOutcome::Covered(word) => {
            h.write_str("covered");
            h.write_usize(word.len());
            for &transition in word {
                h.write_usize(transition);
            }
        }
        CoveringWordOutcome::NotCoverable => h.write_str("not-coverable"),
        CoveringWordOutcome::Truncated => h.write_str("truncated"),
    }
    h.finish()
}

/// Fingerprint of any batch outcome, dispatching on its shape. `places`
/// is the canonical place order used for basis/marking shapes (callers
/// pass the sorted place universe of the job's net).
#[must_use]
pub fn outcome_fingerprint<P: Clone + Ord>(outcome: &BatchOutcome<P>, places: &[P]) -> u64 {
    match outcome {
        BatchOutcome::Reachability(graph) => reachability_fingerprint(graph),
        BatchOutcome::Coverability(oracle) => coverability_fingerprint(oracle, places),
        BatchOutcome::KarpMiller(tree) => karp_miller_fingerprint(tree, places),
        BatchOutcome::CoveringWord(word) => covering_word_fingerprint(word),
    }
}

/// Renders a fingerprint (or session key hash) as fixed-width lowercase
/// hex, the wire encoding used in frames and fuzz reports.
#[must_use]
pub fn hex(value: u64) -> String {
    format!("{value:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Analysis, ExplorationLimits, PetriNet, Transition};
    use pp_multiset::Multiset;

    fn doubling_net() -> PetriNet<&'static str> {
        PetriNet::from_transitions([
            Transition::pairwise("a", "a", "a", "b"),
            Transition::pairwise("a", "b", "b", "b"),
        ])
    }

    /// The FNV-1a definition: every little-endian byte through the loop.
    fn bytewise_u64(h: &mut Fnv, value: u64) {
        h.write_bytes(&value.to_le_bytes());
    }

    #[test]
    fn write_u64_equals_the_bytewise_hash() {
        let mut values = vec![0u64, 1, 255, 256, u64::MAX];
        values.extend((0..8).map(|i| 256u64.pow(i)));
        values.extend((1..8).map(|i| 256u64.pow(i) - 1));
        // A seeded xorshift sample, spread over every byte length.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..512 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            values.push(state >> (state % 64));
        }
        let (mut fast, mut reference) = (Fnv::new(), Fnv::new());
        for value in values {
            let (mut one, mut other) = (Fnv::new(), Fnv::new());
            one.write_u64(value);
            bytewise_u64(&mut other, value);
            assert_eq!(one.finish(), other.finish(), "value {value:#x}");
            fast.write_u64(value);
            bytewise_u64(&mut reference, value);
            assert_eq!(fast.finish(), reference.finish(), "stream at {value:#x}");
        }
    }

    #[test]
    fn fingerprints_agree_on_resumed_graphs_and_differ_across_budgets() {
        let net = doubling_net();
        let start = Multiset::from_pairs([("a", 9u64)]);
        let cold = Analysis::new(&net).reachability([start.clone()]).run();
        let mut session = Analysis::new(&net);
        let truncated = session
            .reachability([start.clone()])
            .limits(ExplorationLimits::with_max_configurations(3))
            .run();
        assert_ne!(
            reachability_fingerprint(&cold),
            reachability_fingerprint(&truncated)
        );
        let resumed = session.reachability([start]).run();
        assert_eq!(
            reachability_fingerprint(&cold),
            reachability_fingerprint(&resumed),
            "identical graphs must fingerprint identically"
        );
    }

    #[test]
    fn cached_fingerprints_follow_an_in_place_resume() {
        let net = doubling_net();
        let start = Multiset::from_pairs([("a", 9u64)]);
        let cold = Analysis::new(&net).reachability([start.clone()]).run();
        let mut session = Analysis::new(&net);
        let truncated = session
            .reachability([start.clone()])
            .limits(ExplorationLimits::with_max_configurations(3))
            .run();
        let before = reachability_fingerprint(&truncated);
        assert_eq!(before, hash_reachability(&truncated), "cached on first use");
        // A non-increasing net keeps its row layout, so both resumes below
        // stay on the in-place path.
        let mut graph = (*truncated).clone();
        graph.resume(&ExplorationLimits::default());
        assert_eq!(graph.row_layout(), truncated.row_layout());
        let resumed = session.reachability([start]).run();
        for after in [
            reachability_fingerprint(&graph),
            reachability_fingerprint(&resumed),
        ] {
            assert_ne!(after, before, "resume clears the cached hash");
            assert_eq!(after, reachability_fingerprint(&cold));
            assert_eq!(after, hash_reachability(&cold));
        }
        assert_eq!(reachability_fingerprint(&truncated), before);
    }

    #[test]
    fn basis_and_word_fingerprints_are_place_order_sensitive_but_stable() {
        let net = doubling_net();
        let places: Vec<&'static str> = net.places().iter().copied().collect();
        let mut analysis = Analysis::new(&net);
        let oracle = analysis
            .coverability(Multiset::from_pairs([("b", 2u64)]))
            .run();
        let again = Analysis::new(&net)
            .coverability(Multiset::from_pairs([("b", 2u64)]))
            .run();
        assert_eq!(
            coverability_fingerprint(&oracle, &places),
            coverability_fingerprint(&again, &places)
        );
        let word = analysis
            .covering_word(
                Multiset::from_pairs([("a", 3u64)]),
                Multiset::from_pairs([("b", 3u64)]),
            )
            .run();
        assert_eq!(
            covering_word_fingerprint(&word),
            covering_word_fingerprint(&word.clone())
        );
        assert_ne!(
            covering_word_fingerprint(&word),
            covering_word_fingerprint(&CoveringWordOutcome::Truncated)
        );
    }
}
