//! The server-side session store: hot compiled nets across requests.
//!
//! Every submitted job is keyed by its *identity* — net, query shape and
//! configurations, but **not** its budget — so a follow-up request for
//! the same analysis at a raised budget lands on the same entry and
//! resumes the cached [`Analysis`] session instead of recompiling and
//! re-exploring (the session layer's `resume` guarantees the result is
//! still bit-identical to a cold run). The key doubles as the `session`
//! token frames carry, so clients can resume explicitly by token.
//!
//! Entries remember how many pool tokens their cached state-space holds
//! ([`Entry::held`]); eviction — least-recently-used, used by the server
//! when a capped pool runs dry — releases those tokens back.
//!
//! Concurrency model: the store itself is a plain map. The server keeps
//! both of its stores in its books, under the one lock that also guards
//! the token pool, and *takes* an entry out for the duration of a run
//! (ownership moves to the job, the lock is dropped), putting the updated
//! entry back afterwards. The books count the jobs running on each key,
//! so a `resume` of a key whose entry is out waits until it is put back
//! and then runs warm. Two concurrent submissions for one key simply run
//! both — deterministically equal — and the later insert wins, releasing
//! the displaced entry's tokens.

use crate::json::Json;
use pp_petri::batch::BatchQuery;
use pp_petri::{Analysis, ExplorationLimits, Parallelism, PetriNet};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The re-runnable identity of a cached job: everything needed to re-run
/// its query at a new budget when a resume request arrives with only the
/// session token.
pub struct StoredJob<P: Ord> {
    /// Display label echoed in response frames.
    pub name: String,
    /// The job's net.
    pub net: PetriNet<P>,
    /// The query shape (initials / targets included).
    pub query: BatchQuery<P>,
    /// The caps that ride along unchanged on resume (`max_agents`,
    /// `max_depth`); `max_configurations` is replaced per request.
    pub base_limits: ExplorationLimits,
    /// Unused: every query runs on one thread. Kept so existing
    /// constructors of this struct still compile.
    pub exploration: Parallelism,
    /// The canonical place order fingerprints use.
    pub places: Vec<P>,
    /// Renders a place for response payloads (protocol state names for
    /// catalog jobs, the place string itself for inline nets).
    pub namer: Arc<dyn Fn(&P) -> String + Send + Sync>,
    /// Source-description fields spliced into every response frame
    /// (`protocol`/`n`/`agents`, or `inline: true`).
    pub meta: Vec<(String, Json)>,
}

impl<P: Clone + Ord> Clone for StoredJob<P> {
    fn clone(&self) -> Self {
        StoredJob {
            name: self.name.clone(),
            net: self.net.clone(),
            query: self.query.clone(),
            base_limits: self.base_limits,
            exploration: self.exploration,
            places: self.places.clone(),
            namer: self.namer.clone(),
            meta: self.meta.clone(),
        }
    }
}

/// One cached session plus its accounting.
pub struct Entry<P: Ord> {
    /// The job identity (used verbatim by resume requests).
    pub job: StoredJob<P>,
    /// The live analysis session: compiled engine + cached, resumable
    /// results.
    pub session: Analysis<P>,
    /// Pool tokens the cached state-space holds (released on eviction).
    pub held: usize,
    /// The limits the cached result was built at — the resume watermark
    /// reported to clients.
    pub watermark: ExplorationLimits,
    stamp: u64,
}

impl<P: Clone + Ord> Entry<P> {
    /// A fresh entry (the store assigns recency on insert).
    #[must_use]
    pub fn new(
        job: StoredJob<P>,
        session: Analysis<P>,
        held: usize,
        watermark: ExplorationLimits,
    ) -> Self {
        Entry {
            job,
            session,
            held,
            watermark,
            stamp: 0,
        }
    }
}

/// The keyed session store (see the [module docs](self)).
pub struct SessionStore<P: Ord> {
    entries: BTreeMap<String, Entry<P>>,
    clock: u64,
}

impl<P: Clone + Ord> Default for SessionStore<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Clone + Ord> SessionStore<P> {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        SessionStore {
            entries: BTreeMap::new(),
            clock: 0,
        }
    }

    /// Removes and returns the entry under `key`, transferring ownership
    /// (and custody of its held tokens) to the caller.
    pub fn take(&mut self, key: &str) -> Option<Entry<P>> {
        self.entries.remove(key)
    }

    /// Inserts `entry` under `key`, stamping it most-recently-used.
    /// Returns the held-token count of any entry it displaced — the
    /// caller releases those to the pool.
    pub fn put(&mut self, key: String, mut entry: Entry<P>) -> usize {
        self.clock += 1;
        entry.stamp = self.clock;
        self.entries
            .insert(key, entry)
            .map_or(0, |displaced| displaced.held)
    }

    /// Evicts the least-recently-used entry other than `keep`, returning
    /// the tokens it held. `None` when nothing is evictable.
    pub fn evict_lru(&mut self, keep: &str) -> Option<usize> {
        let victim = self
            .entries
            .iter()
            .filter(|(key, _)| key.as_str() != keep)
            .min_by_key(|(_, entry)| entry.stamp)
            .map(|(key, _)| key.clone())?;
        self.entries.remove(&victim).map(|entry| entry.held)
    }

    /// Whether an entry is cached under `key`.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Number of cached sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total tokens held by cached entries.
    #[must_use]
    pub fn held_total(&self) -> usize {
        self.entries.values().map(|entry| entry.held).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_multiset::Multiset;
    use pp_petri::Transition;

    fn entry(held: usize) -> Entry<&'static str> {
        let net = PetriNet::from_transitions([Transition::pairwise("a", "a", "a", "b")]);
        let session = Analysis::new(&net);
        let job = StoredJob {
            name: "t".into(),
            net: net.clone(),
            query: BatchQuery::Reachability {
                initials: vec![Multiset::from_pairs([("a", 2u64)])],
            },
            base_limits: ExplorationLimits::default(),
            exploration: Parallelism::Sequential,
            places: vec!["a", "b"],
            namer: Arc::new(|p: &&'static str| (*p).to_string()),
            meta: Vec::new(),
        };
        Entry::new(job, session, held, ExplorationLimits::default())
    }

    #[test]
    fn put_take_roundtrip_and_displacement_accounting() {
        let mut store = SessionStore::new();
        assert_eq!(store.put("k".into(), entry(7)), 0);
        assert_eq!(store.put("k".into(), entry(9)), 7, "displaced tokens");
        assert_eq!(store.held_total(), 9);
        let taken = store.take("k").expect("cached");
        assert_eq!(taken.held, 9);
        assert!(store.is_empty());
        assert!(store.take("k").is_none());
    }

    #[test]
    fn eviction_is_lru_and_respects_keep() {
        let mut store = SessionStore::new();
        store.put("first".into(), entry(1));
        store.put("second".into(), entry(2));
        store.put("third".into(), entry(3));
        // Touch "first" so "second" becomes the LRU.
        let first = store.take("first").expect("cached");
        store.put("first".into(), first);
        assert_eq!(store.evict_lru("first"), Some(2), "LRU goes first");
        assert_eq!(store.evict_lru("first"), Some(3), "then the next-oldest");
        assert_eq!(store.evict_lru("first"), None, "keep is never evicted");
        assert_eq!(store.len(), 1);
    }
}
