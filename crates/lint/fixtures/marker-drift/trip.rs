// Trips marker-drift: the allow marker below suppresses nothing — the
// Relaxed load it once justified now uses Acquire — so the suppression
// itself is now the finding.
use std::sync::atomic::{AtomicUsize, Ordering};

fn peek(counter: &AtomicUsize) -> usize {
    // pp-lint: allow(relaxed-ordering-audit) — this load used to be Relaxed
    counter.load(Ordering::Acquire)
}
