//! Packed configuration rows: per-net cell-width compression with a
//! word-level SWAR fast path.
//!
//! The exploration engines of this crate are memory-bandwidth-bound: a
//! configuration is a dense count vector, and storing every place as a
//! full `u64` (8 bytes) wastes 7 of those bytes on almost every catalog
//! net, where counts are bounded by the agent total (≤ a few hundred).
//! This module provides the compressed representation:
//!
//! * [`CellWidth`] — the four storable cell widths (`u8`/`u16`/`u32`/`u64`)
//!   and the width-selection rule [`CellWidth::fitting`].
//! * [`RowLayout`] — how a row of place counts maps onto a buffer of
//!   `u64` *words*. Cells are packed little-endian inside words, aligned
//!   to their own width so no cell ever straddles a word boundary, and
//!   rows are padded to a whole number of words with zero lanes. Because
//!   the padding is deterministic, packed rows can be hashed and compared
//!   as plain `&[u64]` slices — the arenas never unpack.
//! * SWAR primitives ([`lanes_lt_mask`] and friends) — branch-free
//!   per-lane comparisons on packed words, 8 `u8` lanes (or 4 `u16`
//!   lanes, …) at a time.
//! * [`PackedTransition`] — a transition pre-compiled against a uniform
//!   layout: enabledness is a handful of word compares, firing is one
//!   wrapping subtract + add per touched word.
//!
//! Packing is on by default. A session opened with
//! [`Analysis::u64_rows`](crate::session::Analysis::u64_rows) keeps the
//! uncompressed `u64` layout instead: the reference representation the
//! differential tests compare packed builds against, bit for bit.
//!
//! # Why plain word arithmetic is enough for firing
//!
//! A fired successor is `src - pre + post`, lanewise. Subtracting the
//! packed `pre` word cannot borrow across lanes because firing is only
//! attempted on enabled rows (every lane of `src` is ≥ its `pre` lane),
//! and adding the packed `post` word cannot carry across lanes because
//! the layout width was chosen from a proven bound on every reachable
//! (or fired-and-refused) count — see
//! [`CompiledNet::row_layout`](crate::CompiledNet::row_layout). So the
//! fast path is *unconditional* `wrapping_sub`/`wrapping_add` on whole
//! words; only the enabled check and the backward-cover step (which can
//! genuinely under/overflow) need the SWAR masks.

/// Storable width of one packed cell (place count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellWidth {
    /// 1 byte per place: counts up to 255.
    U8,
    /// 2 bytes per place: counts up to 65 535.
    U16,
    /// 4 bytes per place: counts up to 2³² − 1.
    U32,
    /// 8 bytes per place: the uncompressed fallback, any `u64` count.
    U64,
}

impl CellWidth {
    /// Size of one cell in bytes.
    #[inline]
    pub const fn bytes(self) -> usize {
        match self {
            CellWidth::U8 => 1,
            CellWidth::U16 => 2,
            CellWidth::U32 => 4,
            CellWidth::U64 => 8,
        }
    }

    /// Size of one cell in bits.
    #[inline]
    pub const fn bits(self) -> u32 {
        (self.bytes() as u32) * 8
    }

    /// Largest count a cell of this width can hold.
    #[inline]
    pub const fn cell_max(self) -> u64 {
        match self {
            CellWidth::U8 => u8::MAX as u64,
            CellWidth::U16 => u16::MAX as u64,
            CellWidth::U32 => u32::MAX as u64,
            CellWidth::U64 => u64::MAX,
        }
    }

    /// Number of lanes (cells) per 64-bit word.
    #[inline]
    pub const fn lanes(self) -> usize {
        8 / self.bytes()
    }

    /// The narrowest width whose cells can hold `max_value`.
    ///
    /// This is the width-selection rule: feed it the proven bound on any
    /// single place count and it returns the cheapest safe representation.
    #[inline]
    pub const fn fitting(max_value: u64) -> CellWidth {
        if max_value <= u8::MAX as u64 {
            CellWidth::U8
        } else if max_value <= u16::MAX as u64 {
            CellWidth::U16
        } else if max_value <= u32::MAX as u64 {
            CellWidth::U32
        } else {
            CellWidth::U64
        }
    }

    /// The next wider width, or `None` from `U64`.
    #[inline]
    pub const fn widen(self) -> Option<CellWidth> {
        match self {
            CellWidth::U8 => Some(CellWidth::U16),
            CellWidth::U16 => Some(CellWidth::U32),
            CellWidth::U32 => Some(CellWidth::U64),
            CellWidth::U64 => None,
        }
    }

    /// Word with the most-significant bit of every lane set — the `H`
    /// constant of the SWAR comparison trick.
    #[inline]
    pub const fn msb_pattern(self) -> u64 {
        match self {
            CellWidth::U8 => 0x8080_8080_8080_8080,
            CellWidth::U16 => 0x8000_8000_8000_8000,
            CellWidth::U32 => 0x8000_0000_8000_0000,
            CellWidth::U64 => 0x8000_0000_0000_0000,
        }
    }
}

/// Per-lane unsigned `x < y`, reported as a set most-significant bit in
/// each lane where the comparison holds.
///
/// Uses the forced-MSB subtraction trick: with `h` the per-lane MSB
/// pattern, `d = (x | h) - (y & !h)` cannot borrow across lanes (every
/// lane of the left operand has its top bit set, every lane of the right
/// has it clear), so each lane's borrow state is decided locally. The
/// per-lane verdict is then assembled from the operands' own top bits and
/// `d`'s: if the top bits of `x` and `y` differ, `y`'s decides; if they
/// agree, the comparison reduces to the low bits, whose borrow shows up
/// as a cleared top bit in `d`.
///
/// EXACT: the forced MSB on the left operand and cleared MSB on the
/// right bound each lane's subtraction away from a cross-lane borrow, so
/// the single word-level `wrapping_sub` is exact lanewise for every cell
/// width.
#[inline]
pub fn lanes_lt_mask(x: u64, y: u64, width: CellWidth) -> u64 {
    let h = width.msb_pattern();
    let d = (x | h).wrapping_sub(y & !h);
    ((!x & y) | (!(x ^ y) & !d)) & h
}

/// Expands a lane-MSB mask (as produced by [`lanes_lt_mask`]) to a mask
/// covering every bit of each flagged lane.
#[inline]
pub fn expand_msb_mask(msb: u64, width: CellWidth) -> u64 {
    // Shift each flag down to its lane's least-significant bit, then
    // multiply by the all-ones lane value: the partial products occupy
    // disjoint lanes, so the multiply is exact.
    (msb >> (width.bits() - 1)).wrapping_mul(width.cell_max())
}

/// Per-lane `a ≤ b` over whole packed rows of the given uniform width.
///
/// Padding lanes (zero in both rows) compare equal, so the check is
/// exactly the cell-wise comparison.
#[inline]
pub fn row_le_words(a: &[u64], b: &[u64], width: CellWidth) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .all(|(&wa, &wb)| lanes_lt_mask(wb, wa, width) == 0)
}

/// How the place counts of one net are laid out in a packed word buffer:
/// every place in a cell of the same width, the layout of the
/// exploration and coverability engines, eligible for the SWAR fast path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RowLayout {
    places: usize,
    width: CellWidth,
}

impl RowLayout {
    /// A layout storing every place at the same width.
    pub fn uniform(places: usize, width: CellWidth) -> RowLayout {
        RowLayout { places, width }
    }

    /// Number of places (cells) per row.
    #[inline]
    pub fn places(&self) -> usize {
        self.places
    }

    /// `true` for the degenerate uncompressed layout (one `u64` per
    /// place), which is bit-identical to the historical representation.
    #[inline]
    pub fn is_u64_uniform(&self) -> bool {
        self.width == CellWidth::U64
    }

    /// The cell width every place is stored at.
    #[inline]
    pub fn uniform_width(&self) -> CellWidth {
        self.width
    }

    /// Payload bytes per row (excluding padding up to a word boundary).
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.places * self.width.bytes()
    }

    /// Stored `u64` words per row (payload rounded up to whole words).
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.payload_bytes().div_ceil(8)
    }

    /// Stored bytes per row including word padding — the honest
    /// `bytes_per_node` figure the benches report.
    #[inline]
    pub fn stored_bytes_per_row(&self) -> usize {
        self.words_per_row() * 8
    }

    /// Reads one place's count from a packed row.
    #[inline]
    pub fn get(&self, row: &[u64], place: usize) -> u64 {
        let offset = place * self.width.bytes();
        let shift = (offset % 8) as u32 * 8;
        (row[offset / 8] >> shift) & self.width.cell_max()
    }

    /// Writes one place's count into a packed row.
    ///
    /// # Panics
    /// If `value` does not fit the cell width.
    #[inline]
    pub fn set(&self, row: &mut [u64], place: usize, value: u64) {
        let width = self.width;
        assert!(
            value <= width.cell_max(),
            "packed cell overflow: value {value} exceeds {width:?} at place {place}"
        );
        let offset = place * width.bytes();
        let shift = (offset % 8) as u32 * 8;
        let word = &mut row[offset / 8];
        *word = (*word & !(width.cell_max() << shift)) | (value << shift);
    }

    /// Packs a dense `u64` count row, appending `words_per_row` words to
    /// `out`. Returns `false` (with `out` restored) when any count
    /// exceeds its cell width — the caller's cue to promote the layout or
    /// treat the row as unrepresentable (e.g. an arena lookup miss).
    pub fn try_pack_into(&self, cells: &[u64], out: &mut Vec<u64>) -> bool {
        debug_assert_eq!(cells.len(), self.places);
        let start = out.len();
        out.resize(start + self.words_per_row(), 0);
        for (place, &value) in cells.iter().enumerate() {
            if value > self.width.cell_max() {
                out.truncate(start);
                return false;
            }
            self.set(&mut out[start..], place, value);
        }
        true
    }

    /// Packs a dense `u64` count row into a fresh buffer.
    ///
    /// # Panics
    /// If any count exceeds its cell width; use [`RowLayout::try_pack_into`]
    /// when overflow is a reachable condition.
    pub fn pack(&self, cells: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.words_per_row());
        assert!(
            self.try_pack_into(cells, &mut out),
            "packed cell overflow: row does not fit layout {self:?}"
        );
        out
    }

    /// Unpacks a packed row back to one `u64` per place, appending to
    /// `out`.
    pub fn unpack_into(&self, row: &[u64], out: &mut Vec<u64>) {
        debug_assert_eq!(row.len(), self.words_per_row());
        out.reserve(self.places);
        for place in 0..self.places {
            out.push(self.get(row, place));
        }
    }

    /// Unpacks a packed row into a fresh dense `u64` count vector.
    pub fn unpack(&self, row: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.places);
        self.unpack_into(row, &mut out);
        out
    }

    /// Sum of all place counts in a packed row.
    pub fn row_total(&self, row: &[u64]) -> u64 {
        (0..self.places).map(|place| self.get(row, place)).sum()
    }
}

/// A transition pre-compiled against one uniform [`RowLayout`]: the
/// sparse pre/post multisets re-expressed as packed words, so the hot
/// loops touch whole words instead of individual places.
#[derive(Debug, Clone)]
pub struct PackedTransition {
    width: CellWidth,
    /// Words with at least one nonzero `pre` lane: `(word index, packed
    /// pre counts)`. Enabledness is `no lane of row < pre` per entry.
    pre_words: Vec<(u32, u64)>,
    /// Words touched by firing: `(word index, packed pre to subtract,
    /// packed post to add)`.
    delta: Vec<(u32, u64, u64)>,
    /// Words touched by a backward-cover step: `(word index, packed post
    /// to saturating-subtract, packed pre to add)`.
    backward: Vec<(u32, u64, u64)>,
}

impl PackedTransition {
    /// Compiles sparse `(place, count)` pre/post multisets against a
    /// layout.
    ///
    /// # Panics
    /// If a transition count exceeds the layout's cell width (the
    /// width-selection bound covers every transition count by
    /// construction, so this is a compile-time programming error, not a
    /// runtime condition).
    pub fn compile(
        layout: &RowLayout,
        pre: &[(u32, u64)],
        post: &[(u32, u64)],
    ) -> PackedTransition {
        let width = layout.uniform_width();
        let words = layout.words_per_row();
        let pack_sparse = |entries: &[(u32, u64)]| -> Vec<u64> {
            let mut packed = vec![0u64; words];
            for &(place, count) in entries {
                assert!(
                    count <= width.cell_max(),
                    "transition count {count} exceeds layout width {width:?}"
                );
                layout.set(&mut packed, place as usize, count);
            }
            packed
        };
        let pre_packed = pack_sparse(pre);
        let post_packed = pack_sparse(post);
        let mut pre_words = Vec::new();
        let mut delta = Vec::new();
        let mut backward = Vec::new();
        for word in 0..words {
            let p = pre_packed[word];
            let q = post_packed[word];
            if p != 0 {
                pre_words.push((word as u32, p));
            }
            if p != 0 || q != 0 {
                delta.push((word as u32, p, q));
                backward.push((word as u32, q, p));
            }
        }
        PackedTransition {
            width,
            pre_words,
            delta,
            backward,
        }
    }

    /// Enabled check on a packed row: every `pre` lane must be ≤ the
    /// row's lane, decided one word (up to 8 lanes) per compare.
    #[inline]
    pub fn is_enabled_words(&self, row: &[u64]) -> bool {
        self.pre_words
            .iter()
            .all(|&(word, pre)| lanes_lt_mask(row[word as usize], pre, self.width) == 0)
    }

    /// Fires on a packed row the caller has already checked enabled:
    /// `dst` is overwritten with `src − pre + post`.
    ///
    /// EXACT: the width rule bounds every materialisable count at the
    /// layout's cell max, and enabledness bounds `pre` below each lane,
    /// so the word-level wrapping arithmetic is exact lanewise — no
    /// borrow or carry can cross a lane boundary (see the module docs).
    #[inline]
    pub fn fire_words(&self, src: &[u64], dst: &mut Vec<u64>) {
        debug_assert!(self.is_enabled_words(src));
        dst.clear();
        dst.extend_from_slice(src);
        for &(word, sub, add) in &self.delta {
            let cell = &mut dst[word as usize];
            *cell = cell.wrapping_sub(sub).wrapping_add(add);
        }
    }

    /// One backward-coverability step on a packed row: `dst` is
    /// overwritten with `max(target − post, 0) + pre`, lanewise.
    ///
    /// Returns `false` when adding `pre` would overflow a lane — the
    /// caller's cue to retry the whole saturation at the next wider
    /// layout (counts in backward candidates are not bounded by the
    /// forward reachability bound).
    ///
    /// EXACT: both wrapping steps are guarded lanewise — the subtraction
    /// masks prospective underflows to zero first, the addition bails out
    /// via the `lanes_lt_mask` overflow probe before wrapping — so
    /// neither can cross a lane boundary.
    #[inline]
    pub fn backward_cover_words(&self, target: &[u64], dst: &mut Vec<u64>) -> bool {
        dst.clear();
        dst.extend_from_slice(target);
        for &(word, post, pre) in &self.backward {
            let cell = &mut dst[word as usize];
            // Saturating lanewise subtraction: zero out the lanes that
            // would underflow in both operands, then subtract freely.
            let under = expand_msb_mask(lanes_lt_mask(*cell, post, self.width), self.width);
            let sat = (*cell & !under).wrapping_sub(post & !under);
            // Overflow-checked lanewise addition: a + b > max ⟺
            // a > max − b ⟺ lanewise `!b < a` (padding lanes of `!pre`
            // are all-ones, so they can never flag).
            if lanes_lt_mask(!pre, sat, self.width) != 0 {
                return false;
            }
            *cell = sat.wrapping_add(pre);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WIDTHS: [CellWidth; 4] = [
        CellWidth::U8,
        CellWidth::U16,
        CellWidth::U32,
        CellWidth::U64,
    ];

    /// Reference scalar implementation of the per-lane comparison.
    fn lanes_lt_reference(x: u64, y: u64, width: CellWidth) -> u64 {
        let mut mask = 0u64;
        for lane in 0..width.lanes() {
            let shift = (lane as u32) * width.bits();
            let xv = (x >> shift) & width.cell_max();
            let yv = (y >> shift) & width.cell_max();
            if xv < yv {
                mask |= width.msb_pattern() & (width.cell_max() << shift);
            }
        }
        mask
    }

    #[test]
    fn fitting_picks_narrowest_width() {
        assert_eq!(CellWidth::fitting(0), CellWidth::U8);
        assert_eq!(CellWidth::fitting(255), CellWidth::U8);
        assert_eq!(CellWidth::fitting(256), CellWidth::U16);
        assert_eq!(CellWidth::fitting(u16::MAX as u64), CellWidth::U16);
        assert_eq!(CellWidth::fitting(u16::MAX as u64 + 1), CellWidth::U32);
        assert_eq!(CellWidth::fitting(u32::MAX as u64), CellWidth::U32);
        assert_eq!(CellWidth::fitting(u32::MAX as u64 + 1), CellWidth::U64);
        assert_eq!(CellWidth::fitting(u64::MAX), CellWidth::U64);
    }

    #[test]
    fn lanes_lt_matches_scalar_reference() {
        // Deterministic pseudo-random word pairs via a splitmix step.
        let mut state = 0x9e37_79b9_97f4_a7c5u64;
        let mut next = || {
            // pp-lint: allow(exact-wrap) — splitmix mixer: wrap-around
            // over the full u64 is the intended mixing arithmetic.
            state = state.wrapping_add(0x9e37_79b9_97f4_a7c5);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for width in WIDTHS {
            for _ in 0..2000 {
                let x = next();
                let y = next();
                assert_eq!(
                    lanes_lt_mask(x, y, width),
                    lanes_lt_reference(x, y, width),
                    "width {width:?}, x={x:#x}, y={y:#x}"
                );
            }
            // Boundary words.
            for &x in &[0u64, u64::MAX, width.msb_pattern(), !width.msb_pattern()] {
                for &y in &[0u64, u64::MAX, width.msb_pattern(), !width.msb_pattern()] {
                    assert_eq!(
                        lanes_lt_mask(x, y, width),
                        lanes_lt_reference(x, y, width),
                        "width {width:?}, x={x:#x}, y={y:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_pack_round_trips() {
        for width in WIDTHS {
            let layout = RowLayout::uniform(5, width);
            let cells = [0u64, 1, 2, width.cell_max(), width.cell_max() - 1];
            let packed = layout.pack(&cells);
            assert_eq!(packed.len(), layout.words_per_row());
            assert_eq!(layout.unpack(&packed), cells);
            for (place, &value) in cells.iter().enumerate() {
                assert_eq!(layout.get(&packed, place), value);
            }
            // Totals on a row whose sum fits u64 (the boundary row above
            // overflows the strict sum for U64 cells).
            let small = [0u64, 1, 2, 3, 4];
            assert_eq!(layout.row_total(&layout.pack(&small)), 10);
        }
    }

    #[test]
    fn pack_rejects_overflowing_cells() {
        for width in [CellWidth::U8, CellWidth::U16, CellWidth::U32] {
            let layout = RowLayout::uniform(3, width);
            let mut out = vec![7u64; 2];
            assert!(!layout.try_pack_into(&[0, width.cell_max() + 1, 0], &mut out));
            assert_eq!(out, vec![7u64; 2], "failed pack must restore the buffer");
        }
    }

    #[test]
    fn u64_uniform_layout_is_the_identity() {
        let layout = RowLayout::uniform(4, CellWidth::U64);
        assert!(layout.is_u64_uniform());
        let cells = [u64::MAX, 0, 42, 7];
        assert_eq!(layout.pack(&cells), cells);
        assert_eq!(layout.words_per_row(), 4);
    }

    #[test]
    fn packed_transition_agrees_with_scalar_firing() {
        // pre = {p0: 2, p2: 1}, post = {p1: 3, p2: 1, p3: 200}
        let pre = [(0u32, 2u64), (2, 1)];
        let post = [(1u32, 3u64), (2, 1), (3, 200)];
        for width in WIDTHS {
            let layout = RowLayout::uniform(4, width);
            let t = PackedTransition::compile(&layout, &pre, &post);
            let cases: [([u64; 4], bool); 4] = [
                ([2, 0, 1, 0], true),
                ([2, 0, 0, 0], false),
                ([1, 50, 9, 3], false),
                ([10, 1, 2, 55], true),
            ];
            for (cells, enabled) in cases {
                let row = layout.pack(&cells);
                assert_eq!(t.is_enabled_words(&row), enabled, "{width:?} {cells:?}");
                if enabled {
                    let mut out = Vec::new();
                    t.fire_words(&row, &mut out);
                    let expect = [cells[0] - 2, cells[1] + 3, cells[2], cells[3] + 200];
                    assert_eq!(layout.unpack(&out), expect, "{width:?} {cells:?}");
                }
            }
        }
    }

    #[test]
    fn backward_cover_saturates_and_detects_overflow() {
        // pre = {p0: 2}, post = {p1: 3}
        let pre = [(0u32, 2u64)];
        let post = [(1u32, 3u64)];
        for width in WIDTHS {
            let layout = RowLayout::uniform(3, width);
            let t = PackedTransition::compile(&layout, &pre, &post);
            // target {p0: 1, p1: 1}: p1 saturates to 0, p0 gains pre.
            let target = layout.pack(&[1, 1, 5]);
            let mut out = Vec::new();
            assert!(t.backward_cover_words(&target, &mut out));
            assert_eq!(layout.unpack(&out), [3, 0, 5]);
            // Near the cell max the pre-addition overflows the lane.
            if width != CellWidth::U64 {
                let target = layout.pack(&[width.cell_max(), 0, 0]);
                assert!(!t.backward_cover_words(&target, &mut out));
            }
        }
        // u64 lanes overflow too, at the numeric top.
        let layout = RowLayout::uniform(3, CellWidth::U64);
        let t = PackedTransition::compile(&layout, &pre, &post);
        let target = layout.pack(&[u64::MAX, 0, 0]);
        let mut out = Vec::new();
        assert!(!t.backward_cover_words(&target, &mut out));
    }

    #[test]
    fn row_le_words_matches_cellwise_compare() {
        for width in [CellWidth::U8, CellWidth::U16] {
            let layout = RowLayout::uniform(5, width);
            let a = layout.pack(&[1, 2, 3, 0, 5]);
            let b = layout.pack(&[1, 2, 4, 0, 5]);
            assert!(row_le_words(&a, &b, width));
            assert!(!row_le_words(&b, &a, width));
            assert!(row_le_words(&a, &a, width));
        }
    }
}
