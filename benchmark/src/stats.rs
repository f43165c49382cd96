//! Order statistics for the reports. All functions sort a copy; inputs
//! are short (reps) or sorted once per run (cluster times).

/// The `q`-quantile of `sorted` (ascending) by linear interpolation
/// between closest ranks: `q = 0` is the minimum, `q = 1` the maximum.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted_copy(values), q)
}

/// The median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `(min, max)` of a sample.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (lo, hi)
}

/// The acceptance rule's spread: the distance between the first and the
/// third quartile, as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method), as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let v = sorted_copy(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        // statistics.quantiles, method='exclusive': rank k(n+1)/4, the
        // index clamped to the sample and the weight taken after the
        // clamp (so it extrapolates at the ends, as Python does).
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(3) - at(1)) / quantile_sorted(&v, 0.5)
}
