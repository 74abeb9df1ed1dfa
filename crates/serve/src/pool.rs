//! The server's token pool: multi-tenant memory fairness.
//!
//! One token = one stored configuration (or Karp–Miller node). Every
//! in-flight job draws a fair share of the free tokens, and every graph
//! kept hot in a session store keeps its tokens checked out until the
//! entry is evicted. The capacity therefore bounds the total number of
//! configurations the server holds in memory at once, cache included:
//!
//! ```text
//! capacity = free + outstanding + Σ (cache-held tokens)
//! ```
//!
//! where `outstanding` counts the tokens running jobs hold: what they
//! drew plus what their cache entry held when they took it out. When a
//! draw comes up short, the server evicts least-recently-used cache
//! entries, from the job's own store first and then from the other, and
//! draws again.
//!
//! The pool is plain counters with no lock of its own: it lives in the
//! server's books, beside both session stores, under the books' one lock,
//! so every critical section sees (and the debug builds check) the whole
//! ledger at once.
//!
//! Fairness, not determinism, is the pool's job: how many tokens a
//! particular request is granted depends on what else is in flight or
//! cached, but whatever budget a job ends up running at is reported back
//! as its `final_limits`, and the *result at that budget* is
//! bit-identical to a solo run at those limits, which the pool cannot
//! change. An uncapped pool (capacity `None`) grants every draw in full.

/// A snapshot of the pool, as reported by `ping` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// The configured capacity; `None` means uncapped.
    pub capacity: Option<usize>,
    /// Tokens currently free (equals `capacity` when idle and nothing
    /// is cached). Zero when uncapped.
    pub free: usize,
    /// Jobs currently holding an open draw.
    pub active: usize,
}

/// The token counters (see the [module docs](self)).
pub struct TokenPool {
    capacity: Option<usize>,
    free: usize,
    active: usize,
    outstanding: usize,
}

impl TokenPool {
    /// A pool of `capacity` tokens; `None` builds the uncapped pool.
    #[must_use]
    pub fn new(capacity: Option<usize>) -> Self {
        TokenPool {
            capacity,
            free: capacity.unwrap_or(0),
            active: 0,
            outstanding: 0,
        }
    }

    /// Opens a draw for one job that took custody of `held` tokens from
    /// the cache. Must be paired with exactly one [`settle`](Self::settle).
    pub fn begin(&mut self, held: usize) {
        if self.capacity.is_none() {
            return;
        }
        self.active += 1;
        self.outstanding += held;
    }

    /// Draws up to `want` tokens for the calling job: its fair share of
    /// the free tokens (free divided by the number of open draws, rounded
    /// up), capped at `want`. Uncapped pools grant `want` in full.
    #[must_use]
    pub fn draw(&mut self, want: usize) -> usize {
        if self.capacity.is_none() {
            return want;
        }
        let share = self.free.div_ceil(self.active.max(1));
        let grant = want.min(share);
        self.free -= grant;
        self.outstanding += grant;
        grant
    }

    /// Closes a job's draw. The job held `custody` tokens (its cache
    /// entry's plus its draws); `kept` of them stay checked out by the
    /// entry it parks in the cache, and the rest return to the pool.
    pub fn settle(&mut self, custody: usize, kept: usize) {
        if self.capacity.is_none() {
            return;
        }
        self.active = self.active.saturating_sub(1);
        self.outstanding = self.outstanding.saturating_sub(custody);
        self.free += custody.saturating_sub(kept);
    }

    /// Returns tokens held by an evicted (or displaced) cache entry.
    pub fn release(&mut self, tokens: usize) {
        if self.capacity.is_none() {
            return;
        }
        self.free += tokens;
    }

    /// Whether the ledger balances with `held` tokens in the cache:
    /// `capacity = free + outstanding + held`. Always true when uncapped.
    #[must_use]
    pub fn balances(&self, held: usize) -> bool {
        self.capacity
            .is_none_or(|capacity| self.free + self.outstanding + held == capacity)
    }

    /// The counters `ping` frames report.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            capacity: self.capacity,
            free: self.free,
            active: self.active,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncapped_pools_grant_everything() {
        let mut pool = TokenPool::new(None);
        pool.begin(0);
        assert_eq!(pool.draw(1_000_000), 1_000_000);
        pool.settle(1_000_000, 0);
        assert_eq!(pool.stats().active, 0);
        assert!(pool.balances(123));
    }

    #[test]
    fn draws_fair_share_and_settles_back() {
        let mut pool = TokenPool::new(Some(100));
        pool.begin(0);
        pool.begin(0);
        // Two open draws: each is offered half the free tokens.
        let first = pool.draw(100);
        assert_eq!(first, 50);
        let second = pool.draw(10);
        assert_eq!(second, 10);
        assert!(pool.balances(0));
        pool.settle(first, 0); // nothing kept
        pool.settle(second, 4); // 4 tokens stay in a cached result
        let stats = pool.stats();
        assert_eq!(stats.active, 0);
        assert_eq!(stats.free, 96);
        assert!(pool.balances(4));
        // A job takes the cached entry out again: its 4 tokens are
        // outstanding until it settles.
        pool.begin(4);
        assert!(pool.balances(0));
        pool.settle(4, 4);
        pool.release(4); // the cache entry is evicted
        assert_eq!(pool.stats().free, 100);
        assert!(pool.balances(0));
    }

    #[test]
    fn a_dry_pool_grants_zero_not_a_panic() {
        let mut pool = TokenPool::new(Some(3));
        pool.begin(0);
        assert_eq!(pool.draw(10), 3);
        assert_eq!(pool.draw(10), 0);
        pool.settle(3, 0);
        assert_eq!(pool.stats().free, 3);
        assert!(pool.balances(0));
    }
}
