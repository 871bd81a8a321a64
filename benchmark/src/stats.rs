//! Order statistics for the harness: medians, quartile spread, the
//! tail percentile that still has enough samples behind it, and the
//! geometric mean of per-item medians.

/// Percentile ladder for [`tail_percentile`], lowest first.
const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0–100) of `sorted` by linear interpolation
/// between closest ranks; 0.0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sorted copy of `values` (NaN-free by construction: all inputs are
/// durations or counts).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples strictly beyond it, and its value. With fewer than 20
/// samples even the median has too few beyond it, so the median is
/// reported as percentile 50.
pub fn tail_percentile(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    let mut best = TAIL_LADDER[0];
    for p in TAIL_LADDER {
        // Samples beyond the p-th percentile: n·(1 − p/100), rounded
        // down so the requirement is never met by a fraction.
        let beyond = (n as f64 * (1.0 - p / 100.0) + 1e-9).floor() as usize;
        if beyond >= TAIL_MIN_BEYOND {
            best = p;
        }
    }
    (best, percentile(&s, best))
}

/// Distance between the first and third quartile as a share of the
/// median — the same spread the driver computes (exclusive quartiles,
/// as Python's `statistics.quantiles(values, n=4)`). `None` with fewer
/// than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let quartile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    let med = percentile(&s, 50.0);
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med.abs())
}

/// Geometric mean over items of each item's median sample, so every
/// item counts equally whatever its size. Items with no samples are
/// skipped; 0.0 when nothing was sampled.
pub fn geomean_of_medians(per_item: &[Vec<f64>]) -> f64 {
    let logs: Vec<f64> = per_item
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v).max(f64::MIN_POSITIVE).ln())
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        // 1000 samples: 1 % = 10 beyond p99, 0.1 % = 1 beyond p99.9.
        assert_eq!(tail_percentile(&v).0, 99.0);
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail_percentile(&v).0, 95.0);
        let v: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v).0, 99.9);
        let v: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (50.0, 9.0));
        let v: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(tail_percentile(&v).0, 75.0);
    }

    #[test]
    fn geomean_counts_items_equally() {
        // Medians 1, 100: geomean 10, whatever the sample counts.
        let items = vec![vec![1.0; 500], vec![50.0, 100.0, 200.0]];
        assert!((geomean_of_medians(&items) - 10.0).abs() < 1e-9);
        // An unsampled item is skipped, not treated as zero.
        let items = vec![vec![4.0], vec![], vec![9.0]];
        assert!((geomean_of_medians(&items) - 6.0).abs() < 1e-9);
        assert_eq!(geomean_of_medians(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0]), None);
    }

    #[test]
    fn median_interpolates() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
