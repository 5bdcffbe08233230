//! Order statistics used by every report: medians, nearest-rank
//! percentiles, the "at least ten samples beyond" rule for tail
//! percentiles, and the quartile spread `compare` and the acceptance
//! driver both use to decide whether a difference is resolvable.

/// Median of `values` (mean of the two middle values for even counts).
/// Returns `NaN` for an empty slice so a missing measurement can never
/// pass for a number.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `q` among `n >= 1` samples. The
/// small epsilon keeps `99.9 % of 10 000` at 9990 rather than letting
/// the product's rounding error push it to 9991.
fn rank(n: usize, q: f64) -> usize {
    let exact = q * n as f64 / 100.0;
    ((exact - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q` (0..=100) of an ascending-sorted slice:
/// the smallest sample with at least `q` percent of the samples at or
/// below it.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The highest of the conventional tail percentiles that still has at
/// least ten samples beyond it (choosing-metrics §1), or `None` when
/// even p50 does not — with fewer than ~20 samples only the median and
/// the maximum are worth stating.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// computes them — the acceptance driver uses that function, so the
/// spread printed here is the spread it will see. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |i: usize| -> f64 {
        // Cut point i of 4 on the exclusive scale: position i*(n+1)/4,
        // 1-based, linearly interpolated and clamped to the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Run-to-run spread as a share of the median: the inter-quartile
/// distance, or the full range for fewer than four samples, where
/// quartiles are extrapolations (two samples would "spread" half again
/// as far as they lie apart). 0 for fewer than two samples.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let width = match quartiles(values) {
        Some((q1, q3)) if values.len() >= 4 => q3 - q1,
        _ => {
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            hi - lo
        }
    };
    (width / m).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples leaves exactly 10 beyond it; 999 leaves 9.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // 20 samples: p50 has exactly ten beyond it; 19 has none that do.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        // The serve workloads' own floor: >= 14 beyond p99 needs 1400.
        assert!(samples_beyond(1400, 99.0) >= 14);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12); // (8.25-2.75)/5.5
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
        // Fewer than four samples: the range, not extrapolated quartiles.
        assert!((spread(&[9.5, 10.5]) - 0.1).abs() < 1e-12);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
