//! Hash-interned arenas of dense configurations.
//!
//! Every state-space analysis of the suite (forward exploration, backward
//! coverability, Karp–Miller, the stable-computation verifier) repeatedly
//! asks "have I seen this configuration before?". The sparse
//! [`Multiset`](pp_multiset::Multiset) answers that with a `BTreeMap`
//! lookup allocating tree nodes per configuration; the [`ConfigArena`]
//! instead stores every distinct configuration exactly once as a dense
//! `Vec<u64>` row in one contiguous buffer and answers membership from a
//! flat open-addressed id table: the row is Fx-hashed once, a linear probe
//! over `u32` slots compares cached row hashes, and only a hash match
//! costs a slice comparison. Configurations are identified by compact
//! [`ConfigId`]s (`u32`); a reachability graph's edge is a
//! `(transition, target)` pair of `usize`s, sixteen bytes.
//!
//! Arenas are *layout-aware*: rows are stored in the packed word format
//! of a [`RowLayout`] (one `u64` per place in
//! the uncompressed default, down to one byte per place when the
//! compiled net's counts are provably small), and all hashing and equality
//! probing operate directly on the packed words — the arena never unpacks
//! a row to answer a membership query.

use crate::packed::{CellWidth, RowLayout};
use std::hash::{Hash, Hasher};

/// Identifier of an interned configuration within one [`ConfigArena`].
///
/// Ids are dense (`0..arena.len()`), assigned in interning order, and only
/// meaningful relative to the arena that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConfigId(pub u32);

impl ConfigId {
    /// The id as a `usize` index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interning arena of dense configuration rows.
///
/// All rows share one fixed [`RowLayout`] (chosen per compiled net) and
/// live back-to-back in a single `Vec<u64>` of packed words; per-row
/// agent totals are cached so budget checks don't rescan the row. The
/// historical constructor [`ConfigArena::new`] builds the uncompressed
/// `u64`-per-place layout, for which the stored words *are* the counts.
///
/// # Examples
///
/// ```
/// use pp_petri::arena::ConfigArena;
///
/// let mut arena = ConfigArena::new(3);
/// let a = arena.intern(&[1, 0, 2]);
/// let b = arena.intern(&[0, 1, 2]);
/// assert_ne!(a, b);
/// assert_eq!(arena.intern(&[1, 0, 2]), a); // deduplicated
/// assert_eq!(arena.len(), 2);
/// assert_eq!(arena.row(a), &[1, 0, 2]);
/// assert_eq!(arena.total(a), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ConfigArena {
    layout: RowLayout,
    /// Stored words per row — cached from `layout` for the hot paths.
    stride: usize,
    data: Vec<u64>,
    totals: Vec<u64>,
    /// Cached row hashes, parallel to `totals`: probes compare them before
    /// comparing rows, and the id table is rebuilt from them.
    hashes: Vec<u64>,
    /// The id table: a power-of-two number of slots probed linearly from
    /// a row's home slot ([`home_slot`](Self::home_slot)). A slot holds 0
    /// when empty and `id + 1` of a stored row otherwise. At most 3/4 of
    /// the slots are occupied, which keeps linear-probe runs short.
    table: Vec<u32>,
    /// `64 - log2(table.len())`: the home slot is the top bits of the
    /// remixed hash.
    shift: u32,
}

/// Slots of a fresh arena's id table.
const MIN_SLOTS: usize = 16;

/// Odd multiplier (2^64 / golden ratio) remixing a row hash before its
/// top bits pick the home slot. Fx ends with a multiply, so its low bits
/// depend only on low input bits; the product's top bits depend on every
/// hash bit.
const SLOT_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The result of [`ConfigArena::entry`]: the row's id if it is stored,
/// otherwise the vacant slot it would take.
pub(crate) enum Entry<'a> {
    /// The row is already interned under this id.
    Occupied(ConfigId),
    /// The row is absent; inserting it needs no second hash or probe.
    Vacant(VacantEntry<'a>),
}

/// An absent row together with the arena slot it would occupy.
pub(crate) struct VacantEntry<'a> {
    arena: &'a mut ConfigArena,
    row: &'a [u64],
    hash: u64,
    slot: usize,
}

impl VacantEntry<'_> {
    /// The id the row receives if inserted: the arena's current
    /// [`len`](ConfigArena::len), which budget checks compare against.
    pub(crate) fn next_id(&self) -> usize {
        self.arena.len()
    }

    /// Stores the row and returns its fresh id.
    ///
    /// # Panics
    ///
    /// Panics if the arena is full (more than `u32::MAX` configurations).
    pub(crate) fn insert(self) -> ConfigId {
        self.arena.insert_at(self.slot, self.hash, self.row)
    }
}

impl ConfigArena {
    /// An empty arena for uncompressed rows of `width` counters (one
    /// `u64` word per place).
    #[must_use]
    pub fn new(width: usize) -> Self {
        ConfigArena::with_layout(RowLayout::uniform(width, CellWidth::U64))
    }

    /// An empty arena for packed rows of the given layout.
    #[must_use]
    pub fn with_layout(layout: RowLayout) -> Self {
        let stride = layout.words_per_row();
        ConfigArena {
            layout,
            stride,
            data: Vec::new(),
            totals: Vec::new(),
            hashes: Vec::new(),
            table: vec![0; MIN_SLOTS],
            shift: 64 - MIN_SLOTS.trailing_zeros(),
        }
    }

    /// The number of places per row (the *logical* width; the stored
    /// word width is [`ConfigArena::stride`]).
    #[must_use]
    pub fn width(&self) -> usize {
        self.layout.places()
    }

    /// The row layout packed rows are stored in.
    #[must_use]
    pub fn layout(&self) -> &RowLayout {
        &self.layout
    }

    /// Stored `u64` words per row.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of distinct interned configurations (also the next id to be
    /// assigned).
    #[must_use]
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// Returns `true` if no configuration has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stored (packed) row of configuration `id`. Under the
    /// uncompressed `u64` layout this is one count per place; under a
    /// packed layout decode cells through [`ConfigArena::layout`].
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this arena.
    #[must_use]
    pub fn row(&self, id: ConfigId) -> &[u64] {
        let start = id.index() * self.stride;
        &self.data[start..start + self.stride]
    }

    /// The cached agent total `|ρ|` of configuration `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this arena.
    #[must_use]
    pub fn total(&self, id: ConfigId) -> u64 {
        self.totals[id.index()]
    }

    /// Interns a stored-format `row`, returning the id of the unique
    /// stored copy.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong stored width or the arena is full
    /// (more than `u32::MAX` configurations).
    pub fn intern(&mut self, row: &[u64]) -> ConfigId {
        match self.entry(row) {
            Entry::Occupied(id) => id,
            Entry::Vacant(vacant) => vacant.insert(),
        }
    }

    /// Find-or-insert with one hash and one probe: the row's id if it is
    /// stored, else a [`VacantEntry`] that inserts it into the slot the
    /// probe ended on. Exploration checks its configuration budget between
    /// the two, so a refused row is never stored.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong stored width.
    pub(crate) fn entry<'a>(&'a mut self, row: &'a [u64]) -> Entry<'a> {
        assert_eq!(row.len(), self.stride, "row width mismatch");
        let hash = hash_row(row);
        match self.probe(hash, row) {
            Ok(id) => Entry::Occupied(id),
            Err(slot) => Entry::Vacant(VacantEntry {
                arena: self,
                row,
                hash,
                slot,
            }),
        }
    }

    /// The row's home slot in the id table.
    fn home_slot(&self, hash: u64) -> usize {
        (hash.wrapping_mul(SLOT_MIX) >> self.shift) as usize
    }

    /// Probes the id table for `row`: `Ok` with its id if stored, `Err`
    /// with the empty slot that ends the probe otherwise. A slot's cached
    /// hash is compared before its row, so a probe compares a row only on
    /// a full 64-bit hash match. Terminates because the table always has
    /// an empty slot.
    fn probe(&self, hash: u64, row: &[u64]) -> Result<ConfigId, usize> {
        debug_assert_eq!(hash, hash_row(row), "stale row hash");
        let mask = self.table.len() - 1;
        let mut slot = self.home_slot(hash);
        loop {
            let entry = self.table[slot];
            if entry == 0 {
                return Err(slot);
            }
            let id = (entry - 1) as usize;
            if self.hashes[id] == hash
                && &self.data[id * self.stride..(id + 1) * self.stride] == row
            {
                return Ok(ConfigId(entry - 1));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Stores the absent `row` at `slot`, the empty slot its probe ended
    /// on, growing the table first if the row would push the load past
    /// 3/4.
    ///
    /// # Panics
    ///
    /// Panics when the slot value `id + 1` would overflow `u32`.
    fn insert_at(&mut self, slot: usize, hash: u64, row: &[u64]) -> ConfigId {
        let id = self.len();
        let entry = u32::try_from(id + 1).expect("arena full: more than u32::MAX configurations");
        let slot = if (id + 1) * 4 > self.table.len() * 3 {
            self.rebuild_table(self.table.len() * 2);
            self.vacant_slot(hash)
        } else {
            debug_assert_eq!(self.table[slot], 0, "vacant slot was taken");
            slot
        };
        self.data.extend_from_slice(row);
        self.totals.push(if self.layout.is_u64_uniform() {
            row.iter().sum()
        } else {
            self.layout.row_total(row)
        });
        self.hashes.push(hash);
        self.table[slot] = entry;
        ConfigId(entry - 1)
    }

    /// The first empty slot on `hash`'s probe sequence.
    fn vacant_slot(&self, hash: u64) -> usize {
        let mask = self.table.len() - 1;
        let mut slot = self.home_slot(hash);
        while self.table[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Refills an id table of `slots` slots from the cached hashes of the
    /// stored rows. Stored rows are distinct, so no row is hashed or
    /// compared.
    fn rebuild_table(&mut self, slots: usize) {
        self.table = vec![0; slots];
        self.shift = 64 - slots.trailing_zeros();
        for id in 0..self.hashes.len() {
            let slot = self.vacant_slot(self.hashes[id]);
            self.table[slot] = id as u32 + 1;
        }
    }

    /// The id of a stored-format `row` if it is already interned.
    #[must_use]
    pub fn lookup(&self, row: &[u64]) -> Option<ConfigId> {
        if row.len() != self.stride {
            return None;
        }
        self.probe(hash_row(row), row).ok()
    }

    /// Iterates over all rows in id order.
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> {
        (0..self.len()).map(move |i| self.row(ConfigId(i as u32)))
    }
}

fn hash_row(row: &[u64]) -> u64 {
    let mut hasher = rustc_hash::FxHasher::default();
    row.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, prop_assert_eq, ProptestConfig};

    #[test]
    fn interning_deduplicates() {
        let mut arena = ConfigArena::new(2);
        let a = arena.intern(&[3, 4]);
        let b = arena.intern(&[4, 3]);
        let a2 = arena.intern(&[3, 4]);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.total(a), 7);
        assert_eq!(arena.total(b), 7);
    }

    #[test]
    fn lookup_without_interning() {
        let mut arena = ConfigArena::new(2);
        assert_eq!(arena.lookup(&[1, 1]), None);
        let id = arena.intern(&[1, 1]);
        assert_eq!(arena.lookup(&[1, 1]), Some(id));
        assert_eq!(arena.lookup(&[1, 2]), None);
        assert_eq!(arena.lookup(&[1]), None);
    }

    #[test]
    fn rows_iterate_in_id_order() {
        let mut arena = ConfigArena::new(3);
        arena.intern(&[1, 0, 0]);
        arena.intern(&[0, 2, 0]);
        arena.intern(&[0, 0, 3]);
        let rows: Vec<&[u64]> = arena.rows().collect();
        assert_eq!(rows, vec![&[1, 0, 0][..], &[0, 2, 0], &[0, 0, 3]]);
    }

    #[test]
    fn zero_width_arena_has_one_distinct_row() {
        let mut arena = ConfigArena::new(0);
        let a = arena.intern(&[]);
        let b = arena.intern(&[]);
        assert_eq!(a, b);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.rows().count(), 1);
        assert_eq!(arena.total(a), 0);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        let mut arena = ConfigArena::new(2);
        arena.intern(&[1, 2, 3]);
    }

    #[test]
    fn heavy_interning_stays_consistent() {
        let mut arena = ConfigArena::new(4);
        let mut ids = Vec::new();
        for i in 0..1_000u64 {
            ids.push(arena.intern(&[i % 7, i % 5, i % 3, i]));
        }
        for (i, &id) in ids.iter().enumerate() {
            let i = i as u64;
            assert_eq!(arena.row(id), &[i % 7, i % 5, i % 3, i]);
        }
    }

    /// Reference model of one arena: row → id.
    #[derive(Default)]
    struct Model {
        ids: std::collections::BTreeMap<Vec<u64>, u32>,
    }

    impl Model {
        fn intern(&mut self, row: &[u64]) -> u32 {
            let next = self.ids.len() as u32;
            *self.ids.entry(row.to_vec()).or_insert(next)
        }

        fn lookup(&self, row: &[u64]) -> Option<u32> {
            self.ids.get(row).copied()
        }
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn id_table_matches_a_btreemap_model(
            ops in proptest::collection::vec((0u8..=255, (0u64..10, 0u64..10, 0u64..10)), 10_000..10_500)
        ) {
            // Every op interns a narrow row (1000 distinct, so most
            // interns are dedup hits), then probes a row that may or may
            // not be present, or a row that was never interned.
            let mut arena = ConfigArena::new(3);
            let mut model = Model::default();
            for (action, (a, b, c)) in ops {
                let row = [a, b, c];
                prop_assert_eq!(arena.intern(&row).0, model.intern(&row));
                match action {
                    0..=127 => {
                        let probe = [c, a, b];
                        prop_assert_eq!(arena.lookup(&probe).map(|id| id.0), model.lookup(&probe));
                    }
                    128..=191 => {
                        let absent = [a + 10, b, c];
                        prop_assert_eq!(arena.lookup(&absent), None);
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(arena.len(), model.ids.len());
            prop_assert!(arena.table.len() >= 512, "the table grew past several boundaries");
            for row in (0..1000u64).map(|i| [i / 100, i / 10 % 10, i % 10]) {
                prop_assert_eq!(arena.lookup(&row).map(|id| id.0), model.lookup(&row));
            }
        }
    }

    #[test]
    fn packed_layout_arena_round_trips_counts() {
        use crate::packed::{CellWidth, RowLayout};
        let layout = RowLayout::uniform(10, CellWidth::U8);
        let mut arena = ConfigArena::with_layout(layout.clone());
        assert_eq!(arena.width(), 10, "logical width is places");
        assert_eq!(arena.stride(), 2, "10 u8 cells pack into 2 words");
        let cells: Vec<u64> = (0..10u64).map(|i| i * 7 % 256).collect();
        let packed = layout.pack(&cells);
        let id = arena.intern(&packed);
        assert_eq!(arena.intern(&packed), id);
        assert_eq!(arena.total(id), cells.iter().sum::<u64>());
        assert_eq!(arena.layout().unpack(arena.row(id)), cells);
        assert_eq!(arena.lookup(&packed), Some(id));
    }
}
