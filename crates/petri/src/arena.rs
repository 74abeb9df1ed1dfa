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
//! The [`ShardedArena`] is the concurrent variant used by the parallel
//! exploration engine: rows are partitioned by the top bits of their hash
//! into independent shards, each a [`ConfigArena`] behind its own lock, so
//! worker threads interning different rows rarely contend. Sharded ids
//! ([`ShardedConfigId`]) are scratch identifiers local to one build; the
//! deterministic commit pass of the parallel reachability build renumbers
//! them into dense BFS-ordered [`ConfigId`]s.
//!
//! To support the *pipelined* renumbering protocol (main thread commits
//! level *d* while workers already expand level *d+1*), the scratch arena
//! retains **two levels** of rows at a time: ids are absolute and stay
//! valid while older epochs are retired with the crate-internal
//! `ShardedArena::retire_below`, so a row first seen at level *d* keeps
//! its stable [`ShardedConfigId`] through the whole window in which level
//! *d+1* workers may still rediscover it.
//!
//! Arenas are *layout-aware*: rows are stored in the packed word format
//! of a [`RowLayout`] (one `u64` per place in
//! the uncompressed default, down to one byte per place when the
//! compiled net's counts are provably small), and all hashing, equality
//! probing and retirement operate directly on the packed words — the
//! arena never unpacks a row to answer a membership query.

use crate::packed::{CellWidth, RowLayout};
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

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
    /// Number of *retired* leading rows (see [`retire_below`]): ids stay
    /// absolute, row `id` lives at buffer position `id - base`. Always 0
    /// for the global arenas; only the pipelined engine's scratch shards
    /// retire epochs.
    ///
    /// [`retire_below`]: Self::retire_below
    base: usize,
    data: Vec<u64>,
    totals: Vec<u64>,
    /// Cached row hashes, parallel to `totals`: probes compare them before
    /// comparing rows, the id table is rebuilt from them, and the sharded
    /// parallel engine re-interns rows across arenas without re-hashing.
    hashes: Vec<u64>,
    /// The id table: a power-of-two number of slots probed linearly from
    /// a row's home slot ([`home_slot`](Self::home_slot)). A slot holds 0
    /// when empty and `live offset + 1` of a stored row otherwise, so every
    /// `u32` id stays assignable. At most 3/4 of the slots are occupied,
    /// which keeps linear-probe runs short.
    table: Vec<u32>,
    /// `64 - log2(table.len())`: the home slot is the top bits of the
    /// remixed hash.
    shift: u32,
}

/// Slots of a fresh arena's id table.
const MIN_SLOTS: usize = 16;

/// Odd multiplier (2^64 / golden ratio) remixing a row hash before its
/// top bits pick the home slot. Fx ends with a multiply, so its low bits
/// depend only on low input bits, and inside one [`ShardedArena`] shard
/// the raw top bits are fixed because they chose the shard; the product's
/// top bits depend on every hash bit.
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
        self.arena
            .insert_at(self.slot, self.hash, self.row)
            .expect("arena full: more than u32::MAX configurations")
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
            base: 0,
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

    /// Number of distinct interned configurations (retired rows included:
    /// ids are absolute, so this is also the next id to be assigned).
    #[must_use]
    pub fn len(&self) -> usize {
        self.base + self.totals.len()
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
    /// Panics if `id` does not belong to this arena (or was retired).
    #[must_use]
    pub fn row(&self, id: ConfigId) -> &[u64] {
        let start = (id.index() - self.base) * self.stride;
        &self.data[start..start + self.stride]
    }

    /// The cached agent total `|ρ|` of configuration `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this arena (or was retired).
    #[must_use]
    pub fn total(&self, id: ConfigId) -> u64 {
        self.totals[id.index() - self.base]
    }

    /// Interns a stored-format `row`, returning the id of the unique
    /// stored copy.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong stored width or the arena is full
    /// (more than `u32::MAX` configurations); use the crate-internal
    /// `try_intern_prehashed` where id-space exhaustion must be
    /// survivable.
    pub fn intern(&mut self, row: &[u64]) -> ConfigId {
        let hash = hash_row(row);
        self.intern_prehashed(hash, row)
    }

    /// [`intern`](Self::intern) with the row hash already computed, so
    /// callers moving rows between arenas (the sharded parallel engine)
    /// hash each row once.
    pub(crate) fn intern_prehashed(&mut self, hash: u64, row: &[u64]) -> ConfigId {
        self.try_intern_prehashed(hash, row)
            .expect("arena full: more than u32::MAX configurations")
    }

    /// Fallible interning: returns `None` (leaving the arena unchanged)
    /// when assigning the next id would overflow `u32` — the id space is
    /// exhausted. Deduplication hits on already-stored rows still
    /// succeed. The parallel engine's sharded scratch arenas surface this
    /// as [`Completion::IdSpace`](crate::Completion::IdSpace) truncation
    /// instead of panicking mid-build.
    pub(crate) fn try_intern_prehashed(&mut self, hash: u64, row: &[u64]) -> Option<ConfigId> {
        assert_eq!(row.len(), self.stride, "row width mismatch");
        match self.probe(hash, row) {
            Ok(id) => Some(id),
            Err(slot) => self.insert_at(slot, hash, row),
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
            let offset = (entry - 1) as usize;
            if self.hashes[offset] == hash
                && &self.data[offset * self.stride..(offset + 1) * self.stride] == row
            {
                return Ok(ConfigId((self.base + offset) as u32));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Stores the absent `row` at `slot`, the empty slot its probe ended
    /// on, growing the table first if the row would push the load past
    /// 3/4. Returns `None` (arena unchanged) when the next id, or the
    /// slot value `live offset + 1`, would overflow `u32`.
    fn insert_at(&mut self, slot: usize, hash: u64, row: &[u64]) -> Option<ConfigId> {
        let id = u32::try_from(self.len()).ok()?;
        let live = self.totals.len() + 1;
        let entry = u32::try_from(live).ok()?;
        let slot = if live * 4 > self.table.len() * 3 {
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
        Some(ConfigId(id))
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
    /// live rows. Live rows are distinct, so no row is hashed or compared.
    fn rebuild_table(&mut self, slots: usize) {
        self.table = vec![0; slots];
        self.shift = 64 - slots.trailing_zeros();
        for offset in 0..self.hashes.len() {
            let slot = self.vacant_slot(self.hashes[offset]);
            self.table[slot] = offset as u32 + 1;
        }
    }

    /// The cached hash of configuration `id`'s row.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this arena (or was retired).
    #[must_use]
    pub(crate) fn row_hash(&self, id: ConfigId) -> u64 {
        self.hashes[id.index() - self.base]
    }

    /// The id of a stored-format `row` if it is already interned.
    #[must_use]
    pub fn lookup(&self, row: &[u64]) -> Option<ConfigId> {
        if row.len() != self.stride {
            return None;
        }
        self.lookup_prehashed(hash_row(row), row)
    }

    /// [`lookup`](Self::lookup) with the row hash already computed.
    pub(crate) fn lookup_prehashed(&self, hash: u64, row: &[u64]) -> Option<ConfigId> {
        self.probe(hash, row).ok()
    }

    /// Retires every row with absolute id below `abs`: the storage is
    /// released and the rows disappear from dedup lookups, but id
    /// assignment keeps counting upwards so the remaining (and all future)
    /// ids stay stable. The pipelined exploration engine uses this to keep
    /// exactly two levels of scratch rows alive.
    pub(crate) fn retire_below(&mut self, abs: usize) {
        let cut = abs.clamp(self.base, self.len());
        let retired = cut - self.base;
        if retired == 0 {
            return;
        }
        self.data.drain(..retired * self.stride);
        self.totals.drain(..retired);
        self.hashes.drain(..retired);
        self.base = cut;
        // Every surviving row's live offset shifted, so the id table is
        // refilled from the cached hashes at its current size:
        // O(table slots + live rows), and no row is hashed again.
        self.rebuild_table(self.table.len());
    }

    /// Iterates over all live (non-retired) rows in id order.
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> {
        (self.base..self.len()).map(move |i| self.row(ConfigId(i as u32)))
    }

    /// Fast-forwards id assignment so the next interned row receives
    /// absolute id `next`, as if that many rows had been interned and
    /// retired. Test-only: lets the id-space exhaustion path be exercised
    /// without interning four billion rows.
    #[cfg(test)]
    pub(crate) fn skip_ids_for_test(&mut self, next: usize) {
        assert!(self.totals.is_empty(), "skip ids on a fresh arena only");
        self.base = next;
    }
}

pub(crate) fn hash_row(row: &[u64]) -> u64 {
    let mut hasher = rustc_hash::FxHasher::default();
    row.hash(&mut hasher);
    hasher.finish()
}

/// Acquires `mutex` by spinning on `try_lock` instead of parking.
///
/// The critical sections guarded this way (a shard probe, a result push)
/// run for nanoseconds, while losing a `Mutex::lock` race parks the thread
/// through a futex syscall — tens of microseconds under the
/// syscall-intercepting sandboxes this suite's CI runs in, five orders of
/// magnitude more than the wait being avoided. Spinning keeps the
/// contention cost proportional to the critical section.
///
/// # Panics
///
/// Panics if the lock is poisoned.
pub(crate) fn spin_lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    loop {
        match mutex.try_lock() {
            Ok(guard) => return guard,
            Err(std::sync::TryLockError::WouldBlock) => std::hint::spin_loop(),
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("sharded arena lock poisoned"),
        }
    }
}

/// Identifier of a configuration interned in a [`ShardedArena`]: the shard
/// that owns the row plus the row's index within that shard.
///
/// Sharded ids are *scratch* identifiers: they depend on the shard count
/// and are only meaningful relative to the arena that produced them. The
/// parallel exploration engine maps them to dense BFS-ordered
/// [`ConfigId`]s in its deterministic renumbering pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardedConfigId {
    shard: u32,
    local: u32,
}

impl ShardedConfigId {
    /// The owning shard's index.
    #[must_use]
    pub fn shard(self) -> usize {
        self.shard as usize
    }

    /// The row index within the owning shard.
    #[must_use]
    pub fn local(self) -> usize {
        self.local as usize
    }
}

/// A concurrently-usable interning arena, sharded by row hash.
///
/// The arena owns a power-of-two number of shards; a row's shard is chosen
/// from the top bits of its Fx hash (inside the shard, the id table's home
/// slot comes from a multiplicative remix of the whole hash). Each shard
/// is a plain [`ConfigArena`] behind its own [`Mutex`], so
/// [`intern`](Self::intern) takes `&self` and can be called from many
/// worker threads at once — the design point of the parallel exploration
/// engine, where each BFS level's successor rows are interned concurrently
/// and renumbered deterministically afterwards.
///
/// # Examples
///
/// ```
/// use pp_petri::arena::ShardedArena;
///
/// let arena = ShardedArena::new(2, 8);
/// let a = arena.intern(&[1, 2]);
/// assert_eq!(arena.intern(&[1, 2]), a); // deduplicated across calls
/// assert_ne!(arena.intern(&[2, 1]), a);
/// assert_eq!(arena.len(), 2);
/// ```
#[derive(Debug)]
pub struct ShardedArena {
    layout: RowLayout,
    stride: usize,
    shard_bits: u32,
    shards: Vec<Mutex<ConfigArena>>,
}

impl ShardedArena {
    /// An empty sharded arena for uncompressed rows of `width` counters
    /// with at least `shards` shards (rounded up to a power of two,
    /// clamped to 1..=1024).
    #[must_use]
    pub fn new(width: usize, shards: usize) -> Self {
        ShardedArena::with_layout(RowLayout::uniform(width, CellWidth::U64), shards)
    }

    /// An empty sharded arena for packed rows of the given layout.
    #[must_use]
    pub fn with_layout(layout: RowLayout, shards: usize) -> Self {
        let count = shards.clamp(1, 1024).next_power_of_two();
        let stride = layout.words_per_row();
        ShardedArena {
            shard_bits: count.trailing_zeros(),
            shards: (0..count)
                .map(|_| Mutex::new(ConfigArena::with_layout(layout.clone())))
                .collect(),
            layout,
            stride,
        }
    }

    /// The number of places per row (the logical width).
    #[must_use]
    pub fn width(&self) -> usize {
        self.layout.places()
    }

    /// The row layout packed rows are stored in.
    #[must_use]
    pub fn layout(&self) -> &RowLayout {
        &self.layout
    }

    /// Number of shards (a power of two).
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, hash: u64) -> usize {
        if self.shard_bits == 0 {
            0
        } else {
            (hash >> (64 - self.shard_bits)) as usize
        }
    }

    /// Interns a stored-format `row`, returning the id of the unique
    /// stored copy.
    ///
    /// Safe to call concurrently: only the owning shard is locked.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong stored width or the owning shard's
    /// local id space is exhausted (more than `u32::MAX` rows ever
    /// interned into one shard). The parallel exploration engine uses the
    /// fallible crate-internal `try_intern_hashed` instead and degrades
    /// to an id-space truncation.
    pub fn intern(&self, row: &[u64]) -> ShardedConfigId {
        self.try_intern_hashed(hash_row(row), row)
            .expect("sharded arena shard full: more than u32::MAX rows")
    }

    /// [`intern`](Self::intern) with the row hash already computed,
    /// returning `None` (with the arena unchanged) when the owning
    /// shard's local id space is exhausted.
    pub(crate) fn try_intern_hashed(&self, hash: u64, row: &[u64]) -> Option<ShardedConfigId> {
        let shard = self.shard_of(hash);
        let local = spin_lock(&self.shards[shard]).try_intern_prehashed(hash, row)?;
        Some(ShardedConfigId {
            shard: u32::try_from(shard).expect("shard count fits u32"),
            local: local.0,
        })
    }

    /// Per-shard next local id, i.e. the number of rows ever interned into
    /// each shard (retired rows included). Two successive snapshots
    /// delimit an *epoch*: every row interned between them has a local id
    /// in the snapshot range of its shard. The pipelined engine snapshots
    /// at each level handoff while all workers are parked.
    #[must_use]
    pub(crate) fn snapshot_lens(&self) -> Vec<u32> {
        self.shards
            .iter()
            .map(|s| u32::try_from(spin_lock(s).len()).expect("shard id fits u32"))
            .collect()
    }

    /// Calls `f` with `(shard, local id, agent total, row)` for every live
    /// row whose local id falls in `from[shard]..to[shard]`, in shard-major
    /// local-minor order — the deterministic enumeration of one epoch that
    /// the pipelined engine turns into the next level's job.
    ///
    /// # Panics
    ///
    /// Panics if a range addresses retired or not-yet-interned rows.
    pub(crate) fn for_each_in_range(
        &self,
        from: &[u32],
        to: &[u32],
        mut f: impl FnMut(usize, u32, u64, &[u64]),
    ) {
        for (shard_index, shard) in self.shards.iter().enumerate() {
            let shard = spin_lock(shard);
            for local in from[shard_index]..to[shard_index] {
                let id = ConfigId(local);
                f(shard_index, local, shard.total(id), shard.row(id));
            }
        }
    }

    /// Retires, per shard, every row with local id below `lens[shard]`
    /// (see [`ConfigArena::retire_below`]): surviving and future ids stay
    /// stable, retired rows leave dedup. `lens` is a snapshot previously
    /// returned by [`snapshot_lens`](Self::snapshot_lens).
    pub(crate) fn retire_below(&self, lens: &[u32]) {
        for (shard, &cut) in self.shards.iter().zip(lens) {
            spin_lock(shard).retire_below(cut as usize);
        }
    }

    /// The id of a stored-format `row` if it is already interned.
    #[must_use]
    pub fn lookup(&self, row: &[u64]) -> Option<ShardedConfigId> {
        if row.len() != self.stride {
            return None;
        }
        let hash = hash_row(row);
        let shard = self.shard_of(hash);
        let local = spin_lock(&self.shards[shard]).lookup_prehashed(hash, row)?;
        Some(ShardedConfigId {
            shard: u32::try_from(shard).expect("shard count fits u32"),
            local: local.0,
        })
    }

    /// Total number of distinct interned configurations (locks every shard).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| spin_lock(s).len()).sum()
    }

    /// Returns `true` if no configuration has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `f` with the cached hash and row of configuration `id`,
    /// holding the owning shard's lock for the duration of the call.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this arena.
    pub fn with_row<R>(&self, id: ShardedConfigId, f: impl FnOnce(u64, &[u64]) -> R) -> R {
        let shard = spin_lock(&self.shards[id.shard()]);
        let local = ConfigId(id.local);
        f(shard.row_hash(local), shard.row(local))
    }
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

    #[test]
    fn sharded_arena_deduplicates_and_exposes_rows() {
        let arena = ShardedArena::new(3, 4);
        assert_eq!(arena.num_shards(), 4);
        assert_eq!(arena.width(), 3);
        assert!(arena.is_empty());
        assert_eq!(arena.lookup(&[1, 2, 3]), None);
        let a = arena.intern(&[1, 2, 3]);
        let b = arena.intern(&[3, 2, 1]);
        assert_eq!(arena.intern(&[1, 2, 3]), a);
        assert_ne!(a, b);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.lookup(&[1, 2, 3]), Some(a));
        assert_eq!(arena.lookup(&[9, 9, 9]), None);
        assert_eq!(arena.lookup(&[1, 2]), None);
        arena.with_row(a, |hash, row| {
            assert_eq!(row, &[1, 2, 3]);
            assert_eq!(hash, hash_row(&[1, 2, 3]));
        });
    }

    #[test]
    fn retire_below_keeps_ids_stable_and_drops_dedup() {
        let mut arena = ConfigArena::new(2);
        let a = arena.intern(&[1, 1]);
        let b = arena.intern(&[2, 2]);
        arena.retire_below(1);
        assert_eq!(arena.len(), 2, "retired rows still count toward ids");
        assert_eq!(arena.row(b), &[2, 2]);
        assert_eq!(arena.total(b), 4);
        assert_eq!(arena.lookup(&[1, 1]), None, "retired rows leave dedup");
        assert_eq!(arena.lookup(&[2, 2]), Some(b));
        // Re-interning a retired row assigns a fresh id: ids never recycle.
        let a2 = arena.intern(&[1, 1]);
        assert_eq!(a2, ConfigId(2));
        assert_ne!(a2, a);
        let rows: Vec<&[u64]> = arena.rows().collect();
        assert_eq!(rows, vec![&[2, 2][..], &[1, 1]]);
        // Retiring everything (or past the end) is safe and idempotent.
        arena.retire_below(100);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.rows().count(), 0);
        arena.retire_below(0);
        assert_eq!(arena.len(), 3);
    }

    #[test]
    fn sharded_retirement_keeps_the_newest_epoch() {
        let arena = ShardedArena::new(1, 4);
        let epoch0 = arena.snapshot_lens();
        assert_eq!(epoch0, vec![0; 4]);
        let a = arena.intern(&[10]);
        let b = arena.intern(&[20]);
        let epoch1 = arena.snapshot_lens();
        let c = arena.intern(&[30]);
        // Enumerate the first epoch (rows a, b) deterministically.
        let mut seen = Vec::new();
        arena.for_each_in_range(&epoch0, &epoch1, |shard, local, total, row| {
            seen.push((shard, local, total, row.to_vec()));
        });
        assert_eq!(seen.len(), 2);
        assert!(seen.iter().all(|(_, _, total, row)| *total == row[0]));
        // Retire the first epoch; the newer row keeps its stable id.
        arena.retire_below(&epoch1);
        assert_eq!(arena.lookup(&[10]), None);
        assert_eq!(arena.lookup(&[20]), None);
        assert_eq!(arena.lookup(&[30]), Some(c));
        arena.with_row(c, |_, row| assert_eq!(row, &[30]));
        let _ = (a, b);
    }

    #[test]
    fn sharded_arena_shard_count_is_clamped_to_powers_of_two() {
        assert_eq!(ShardedArena::new(1, 0).num_shards(), 1);
        assert_eq!(ShardedArena::new(1, 3).num_shards(), 4);
        assert_eq!(ShardedArena::new(1, 64).num_shards(), 64);
        assert_eq!(ShardedArena::new(1, 100_000).num_shards(), 1024);
    }

    #[test]
    fn intern_refuses_instead_of_panicking_when_id_space_is_exhausted() {
        let mut arena = ConfigArena::new(2);
        // The very last assignable id is u32::MAX; one past it must be
        // refused, not panic (regression: the sharded scratch arenas used
        // to `expect("arena full…")` here, killing the whole build).
        arena.skip_ids_for_test(u32::MAX as usize);
        let row = [1u64, 2];
        let hash = hash_row(&row);
        let last = arena
            .try_intern_prehashed(hash, &row)
            .expect("id u32::MAX itself is assignable");
        assert_eq!(last, ConfigId(u32::MAX));
        // Dedup hits keep succeeding even at the boundary…
        assert_eq!(arena.try_intern_prehashed(hash, &row), Some(last));
        // …but a *fresh* row no longer fits the id space.
        let fresh = [3u64, 4];
        assert_eq!(arena.try_intern_prehashed(hash_row(&fresh), &fresh), None);
        assert_eq!(arena.len(), u32::MAX as usize + 1);
        assert_eq!(arena.lookup(&fresh), None, "refused rows are not stored");
    }

    /// Reference model of one arena, or of one shard: live row → id.
    #[derive(Default)]
    struct Model {
        ids: std::collections::BTreeMap<Vec<u64>, u32>,
        next: u32,
    }

    impl Model {
        fn intern(&mut self, row: &[u64]) -> u32 {
            if let Some(&id) = self.ids.get(row) {
                return id;
            }
            let id = self.next;
            self.next += 1;
            self.ids.insert(row.to_vec(), id);
            id
        }

        fn lookup(&self, row: &[u64]) -> Option<u32> {
            self.ids.get(row).copied()
        }

        fn retire_below(&mut self, cut: u32) {
            self.ids.retain(|_, id| *id >= cut);
        }
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn id_table_matches_a_btreemap_model(
            ops in proptest::collection::vec((0u8..=255, (0u64..10, 0u64..10, 0u64..10)), 10_000..10_500)
        ) {
            // Every op interns a narrow row (1000 distinct, so most
            // interns are dedup hits), then probes a present-or-retired
            // row, probes a row that was never interned, or, rarely,
            // retires the previous epoch as the pipelined engine does.
            let mut flat = ConfigArena::new(3);
            let mut flat_model = Model::default();
            let mut flat_epoch = 0;
            let sharded = ShardedArena::new(3, 4);
            let mut shard_models: Vec<Model> = (0..4).map(|_| Model::default()).collect();
            let mut sharded_epoch = sharded.snapshot_lens();
            let sharded_lookup = |row: &[u64]| sharded.lookup(row).map(|id| (id.shard(), id.local()));
            let model_lookup = |models: &[Model], row: &[u64]| {
                let shard = sharded.shard_of(hash_row(row));
                models[shard].lookup(row).map(|local| (shard, local as usize))
            };
            for (action, (a, b, c)) in ops {
                let row = [a, b, c];
                prop_assert_eq!(flat.intern(&row).0, flat_model.intern(&row));
                let id = sharded.intern(&row);
                prop_assert_eq!(id.shard(), sharded.shard_of(hash_row(&row)));
                prop_assert_eq!(id.local(), shard_models[id.shard()].intern(&row) as usize);
                match action {
                    0 => {
                        flat.retire_below(flat_epoch);
                        flat_model.retire_below(flat_epoch as u32);
                        flat_epoch = flat.len();
                        sharded.retire_below(&sharded_epoch);
                        for (model, &cut) in shard_models.iter_mut().zip(&sharded_epoch) {
                            model.retire_below(cut);
                        }
                        sharded_epoch = sharded.snapshot_lens();
                    }
                    1..=127 => {
                        // A retired row misses exactly when the model
                        // dropped it.
                        let probe = [c, a, b];
                        prop_assert_eq!(flat.lookup(&probe).map(|id| id.0), flat_model.lookup(&probe));
                        prop_assert_eq!(sharded_lookup(&probe), model_lookup(&shard_models, &probe));
                    }
                    128..=191 => {
                        let absent = [a + 10, b, c];
                        prop_assert_eq!(flat.lookup(&absent), None);
                        prop_assert_eq!(sharded.lookup(&absent), None);
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(flat.len(), flat_model.next as usize);
            prop_assert_eq!(
                sharded.len(),
                shard_models.iter().map(|m| m.next as usize).sum::<usize>()
            );
            prop_assert!(flat.table.len() >= 512, "the table grew past several boundaries");
            for row in (0..1000u64).map(|i| [i / 100, i / 10 % 10, i % 10]) {
                prop_assert_eq!(flat.lookup(&row).map(|id| id.0), flat_model.lookup(&row));
                prop_assert_eq!(sharded_lookup(&row), model_lookup(&shard_models, &row));
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

    #[test]
    fn sharded_arena_concurrent_interning_deduplicates() {
        let arena = ShardedArena::new(2, 16);
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let arena = &arena;
                scope.spawn(move || {
                    // All workers intern the same 100 distinct rows, starting
                    // at different offsets so the interleavings differ.
                    for i in 0..500u64 {
                        let i = i + worker * 31;
                        let row = [(i / 10) % 10, i % 10];
                        arena.intern(&row);
                    }
                });
            }
        });
        assert_eq!(arena.len(), 100);
        // Every row is found again, and ids round-trip through with_row.
        for a in 0..10u64 {
            for b in 0..10u64 {
                let id = arena.lookup(&[a, b]).expect("row was interned");
                arena.with_row(id, |_, row| assert_eq!(row, &[a, b]));
            }
        }
    }
}
