//! The server's token pool: multi-tenant memory fairness.
//!
//! One token = one stored configuration (or Karp–Miller node). Every
//! in-flight job draws a fair share of the free tokens, and every graph
//! kept hot in a session store keeps its tokens checked out until the
//! entry is evicted. The capacity therefore bounds the total number of
//! configurations the server holds in memory at once, cache included:
//!
//! ```text
//! capacity = free + Σ (outstanding job draws) + Σ (cache-held tokens)
//! ```
//!
//! When a draw comes up short, the server evicts least-recently-used
//! cache entries, from the job's own store first and then from the other,
//! and draws again.
//!
//! Fairness, not determinism, is the pool's job: how many tokens a
//! particular request is granted depends on what else is in flight or
//! cached, but whatever budget a job ends up running at is reported back
//! as its `final_limits`, and the *result at that budget* is
//! bit-identical to a solo run at those limits, which the pool cannot
//! change. An uncapped pool (capacity `None`) grants every draw in full.

use std::sync::Mutex;

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

struct PoolState {
    free: usize,
    active: usize,
}

/// The shared token pool. All methods are self-contained: the internal
/// lock is never held across a call into any other module (so the
/// server's lock order stays trivially acyclic).
pub struct TokenPool {
    capacity: Option<usize>,
    state: Mutex<PoolState>,
}

impl TokenPool {
    /// A pool of `capacity` tokens; `None` builds the uncapped pool.
    #[must_use]
    pub fn new(capacity: Option<usize>) -> Self {
        TokenPool {
            capacity,
            state: Mutex::new(PoolState {
                free: capacity.unwrap_or(0),
                active: 0,
            }),
        }
    }

    /// Opens a draw for one job. Must be paired with exactly one
    /// [`settle`](Self::settle).
    pub fn begin(&self) {
        if self.capacity.is_none() {
            return;
        }
        let mut state = self.state.lock().expect("pool state");
        state.active += 1;
    }

    /// Draws up to `want` tokens for the calling job: its fair share of
    /// the free tokens (free divided by the number of open draws, rounded
    /// up), capped at `want`. Uncapped pools grant `want` in full.
    #[must_use]
    pub fn draw(&self, want: usize) -> usize {
        if self.capacity.is_none() {
            return want;
        }
        let mut state = self.state.lock().expect("pool state");
        let holders = state.active.max(1);
        let share = state.free.div_ceil(holders);
        let grant = want.min(share);
        state.free -= grant;
        grant
    }

    /// Closes a job's draw, returning `released` tokens to the pool (the
    /// part of its held-plus-drawn total that did not end up stored in a
    /// cached result).
    pub fn settle(&self, released: usize) {
        if self.capacity.is_none() {
            return;
        }
        let mut state = self.state.lock().expect("pool state");
        state.active = state.active.saturating_sub(1);
        state.free += released;
    }

    /// Returns tokens held by an evicted (or displaced) cache entry.
    pub fn release(&self, tokens: usize) {
        if self.capacity.is_none() || tokens == 0 {
            return;
        }
        let mut state = self.state.lock().expect("pool state");
        state.free += tokens;
    }

    /// A consistent snapshot for status frames.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let state = self.state.lock().expect("pool state");
        PoolStats {
            capacity: self.capacity,
            free: state.free,
            active: state.active,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncapped_pools_grant_everything() {
        let pool = TokenPool::new(None);
        pool.begin();
        assert_eq!(pool.draw(1_000_000), 1_000_000);
        pool.settle(1_000_000);
        assert_eq!(pool.stats().active, 0);
    }

    #[test]
    fn draws_fair_share_and_settles_back() {
        let pool = TokenPool::new(Some(100));
        pool.begin();
        pool.begin();
        // Two open draws: each is offered half the free tokens.
        let first = pool.draw(100);
        assert_eq!(first, 50);
        let second = pool.draw(10);
        assert_eq!(second, 10);
        pool.settle(first); // nothing kept
        pool.settle(second - 4); // 4 tokens stay in a cached result
        let stats = pool.stats();
        assert_eq!(stats.active, 0);
        assert_eq!(stats.free, 96);
        pool.release(4); // the cache entry is evicted
        assert_eq!(pool.stats().free, 100);
    }

    #[test]
    fn a_dry_pool_grants_zero_not_a_panic() {
        let pool = TokenPool::new(Some(3));
        pool.begin();
        assert_eq!(pool.draw(10), 3);
        assert_eq!(pool.draw(10), 0);
        pool.settle(3);
        assert_eq!(pool.stats().free, 3);
    }
}
