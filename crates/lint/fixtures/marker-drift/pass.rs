// Passes marker-drift (linted as packed.rs): the marker still
// suppresses a live exact-wrap finding, so it is earning its keep.

/// Mixes a seed into a row hash.
pub fn mix(seed: u64) -> u64 {
    // pp-lint: allow(exact-wrap) — a hash mixer: wrap-around is the
    // intended arithmetic, not a lane overflow
    seed.wrapping_add(0x9e37_79b9_7f4a_7c15)
}
