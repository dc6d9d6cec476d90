//! Order statistics for latency samples.

/// The `p`-th percentile (0 < p <= 100) of `samples` by the nearest-rank
/// rule: the smallest sample with at least `p`% of all samples at or below
/// it. Selection instead of a full sort, since the closed loop collects up
/// to ~10^5 samples per run. `None` for an empty sample.
pub fn percentile(samples: &[u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut scratch = samples.to_vec();
    let (_, nth, _) = scratch.select_nth_unstable(rank(samples.len(), p));
    Some(*nth)
}

/// Zero-based nearest-rank index of the `p`-th percentile in a sorted
/// sample of `n`.
pub fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The number of samples strictly above the `p`-th percentile: the guide's
/// "at least ten beyond it" test for whether the percentile is supported.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// Median of a float sample (mean of the middle pair for even sizes).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
