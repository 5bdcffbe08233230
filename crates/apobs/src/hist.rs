//! Dependency-free log2-bucket histograms.
//!
//! A [`Hist`] counts `u64` samples into 64 power-of-two buckets: bucket 0
//! holds the value 0, bucket `k ≥ 1` holds values in `[2^(k-1), 2^k)`. It
//! is a few words of state and a handful of integer operations per sample,
//! cheap enough to leave permanently enabled like the other hardware
//! counters.
//!
//! # Examples
//!
//! ```
//! use apobs::Hist;
//!
//! let mut h = Hist::new();
//! for v in [0, 1, 3, 4, 4, 1000] {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 6);
//! assert_eq!(h.max(), 1000);
//! assert_eq!(h.bucket_count(0), 1); // the zero sample
//! assert_eq!(h.bucket_count(2), 1); // 2..4 holds the 3
//! assert_eq!(h.bucket_count(3), 2); // 4..8 holds both 4s
//! ```

use aputil::Json;

/// A log2-bucket histogram over `u64` samples.
#[derive(Clone, PartialEq, Eq)]
pub struct Hist {
    counts: [u64; 64],
    n: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    pub const fn new() -> Self {
        Hist {
            counts: [0; 64],
            n: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value falls into.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
        .min(63)
    }

    /// Lower bound (inclusive) of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Upper bound (exclusive) of bucket `i`; `u64::MAX` for the last.
    pub fn bucket_hi(i: usize) -> u64 {
        match i {
            0 => 1,
            63 => u64::MAX,
            _ => 1u64 << i,
        }
    }

    /// Adds one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.n += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.n == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Samples in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// `(lo, hi_exclusive, count)` for each non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), Self::bucket_hi(i), c))
            .collect()
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
        if other.n > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// An interpolated quantile (`q` in `[0, 1]`): finds the bucket
    /// containing the q-th sample, then places the sample linearly inside
    /// the bucket's `[lo, hi)` range by its rank among the bucket's
    /// occupants. The result is clamped to the observed
    /// `[min, max]`, so `p(0.0) == min` and `p(1.0) == max` exactly.
    pub fn p(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.n as f64 * q).ceil() as u64).clamp(1, self.n);
        if rank == 1 {
            return self.min() as f64;
        }
        if rank == self.n {
            return self.max as f64;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = Self::bucket_lo(i) as f64;
                // Cap the open bucket 63 at the observed max instead of
                // u64::MAX so interpolation stays meaningful.
                let hi = if i == 63 {
                    self.max as f64
                } else {
                    Self::bucket_hi(i) as f64
                };
                // Rank position within this bucket, in (0, 1].
                let frac = (rank - seen) as f64 / c as f64;
                let v = lo + frac * (hi - lo);
                return v.clamp(self.min() as f64, self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// Compact single-line rendering: `n=… mean=… max=…` plus an ASCII
    /// sparkline over the non-empty bucket range.
    pub fn render(&self) -> String {
        if self.n == 0 {
            return "n=0".to_string();
        }
        let first = self.counts.iter().position(|&c| c > 0).unwrap_or(0);
        let last = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let peak = *self.counts.iter().max().unwrap_or(&1);
        const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let spark: String = (first..=last)
            .map(|i| {
                let c = self.counts[i];
                if c == 0 {
                    ' '
                } else {
                    RAMP[((c as u128 * 7).div_ceil(peak as u128)) as usize % 8]
                }
            })
            .collect();
        format!(
            "n={} mean={:.0} max={} [2^{}..2^{}] {}",
            self.n,
            self.mean(),
            self.max,
            first.saturating_sub(1),
            last,
            spark
        )
    }

    /// JSON form: summary stats plus the non-empty buckets.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.n)),
            ("sum", Json::from(self.sum.min(u64::MAX as u128) as u64)),
            ("min", Json::from(self.min())),
            ("max", Json::from(self.max())),
            ("mean", Json::from(self.mean())),
            ("p50", Json::from(self.p(0.5))),
            ("p90", Json::from(self.p(0.9))),
            ("p99", Json::from(self.p(0.99))),
            (
                "buckets",
                Json::Arr(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(lo, hi, c)| {
                            Json::obj([
                                ("lo", Json::from(lo)),
                                ("hi", Json::from(hi)),
                                ("count", Json::from(c)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl core::fmt::Debug for Hist {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Hist {{ {} }}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_range() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            let i = Hist::bucket_of(v);
            assert!(Hist::bucket_lo(i) <= v, "v={v} bucket {i}");
            if i < 63 {
                assert!(v < Hist::bucket_hi(i), "v={v} bucket {i}");
            }
        }
    }

    #[test]
    fn merge_equals_recording_both() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let mut all = Hist::new();
        for v in [5u64, 100, 0, 77] {
            a.record(v);
            all.record(v);
        }
        for v in [9999u64, 3] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn p_interpolates_within_buckets() {
        let mut h = Hist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.p(0.0), 1.0);
        assert_eq!(h.p(1.0), 1000.0);
        // Rank 500 lands in the [256, 512) bucket near its top.
        let p50 = h.p(0.5);
        assert!((450.0..=512.0).contains(&p50), "p50 {p50}");
        let p90 = h.p(0.9);
        assert!((512.0..=1000.0).contains(&p90), "p90 {p90}");
        // Quantiles are monotone in q.
        assert!(h.p(0.5) <= h.p(0.9) && h.p(0.9) <= h.p(0.99));
    }

    #[test]
    fn p_on_degenerate_hists() {
        let h = Hist::new();
        assert_eq!(h.p(0.5), 0.0);
        let mut one = Hist::new();
        one.record(42);
        assert_eq!(one.p(0.0), 42.0);
        assert_eq!(one.p(0.5), 42.0);
        assert_eq!(one.p(1.0), 42.0);
    }

    #[test]
    fn json_has_summary_fields() {
        let mut h = Hist::new();
        h.record(64);
        let j = h.to_json();
        assert_eq!(j.get("count").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(j.get("max").and_then(|v| v.as_u64()), Some(64));
    }

    #[test]
    fn empty_hist_percentiles_are_all_zero() {
        let h = Hist::new();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.p(q), 0.0, "p({q}) on empty");
        }
        assert_eq!(h.count(), 0);
        assert_eq!(h.render(), "n=0");
    }

    #[test]
    fn single_sample_percentiles_return_the_sample() {
        for v in [0u64, 1, 7, 1 << 20, u64::MAX] {
            let mut h = Hist::new();
            h.record(v);
            for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
                assert_eq!(h.p(q), v as f64, "p({q}) of single sample {v}");
            }
            assert_eq!(h.min(), v);
            assert_eq!(h.max(), v);
        }
    }

    #[test]
    fn saturating_bucket_percentiles_stay_within_observed_range() {
        // Values in the open top bucket 63 ([2^62, u64::MAX]): the
        // interpolation must cap at the observed max, never at u64::MAX.
        let mut h = Hist::new();
        let lo = 1u64 << 62;
        for v in [lo, lo + 10, u64::MAX - 1, u64::MAX] {
            h.record(v);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let p = h.p(q);
            assert!(
                (lo as f64..=u64::MAX as f64).contains(&p),
                "p({q}) = {p} escaped the observed range"
            );
        }
        assert_eq!(h.p(1.0), u64::MAX as f64);
        // A hist saturated into one bucket: every percentile in-bucket.
        let mut one_bucket = Hist::new();
        for _ in 0..1000 {
            one_bucket.record(300);
        }
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(one_bucket.p(q), 300.0);
        }
    }
}
