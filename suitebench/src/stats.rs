//! Order statistics over timing samples.

/// The median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-quantile of `samples` (`0 < p < 1`), reported only
/// when at least ten samples lie beyond it: with fewer, the value would be
/// set by a handful of outliers. A p99 therefore needs 1000 samples.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(
        p > 0.0 && p < 1.0,
        "quantile must lie strictly between 0 and 1"
    );
    let n = samples.len();
    // 1-based nearest rank; the epsilon keeps 0.99 * 1000 at rank 990.
    let rank = ((p * n as f64) - 1e-9).ceil().max(1.0) as usize;
    if rank > n || n - rank < 10 {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}
