//! The benchmark's seeded input generator (SplitMix64).
//!
//! Every workload derives its inputs from `--seed` through this generator,
//! so one seed always produces the same request lists, query orders and
//! trial seeds. It is deliberately independent of the `rand` stand-in the
//! program itself uses.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// A stream seeded with `seed`; `stream` separates independent uses of
    /// one seed (e.g. one stream per client).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SeedRng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`), by rejection so it is unbiased.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let value = self.next_u64();
            if value < zone {
                return value % bound;
            }
        }
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}
