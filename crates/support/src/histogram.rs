//! Log2-bucketed histograms for latency-style distributions.
//!
//! The observability layer (see DESIGN.md §9) attributes every
//! policy-blocked cycle to a blame rule and wants the *distribution* of
//! per-instruction delay, not just its sum: a mean of 4 cycles can be
//! "everything waits a little" or "one load waits forever". Power-of-two
//! buckets keep the footprint fixed (65 counters cover the full `u64`
//! range), merging is element-wise addition (so per-cell histograms
//! aggregate deterministically in fixed cell order, matching the sweep
//! contract), and the JSON form round-trips exactly through
//! [`crate::json`].

use crate::json::Json;

/// Number of buckets: one for zero plus one per possible bit-width of a
/// nonzero `u64`.
pub const BUCKETS: usize = 65;

/// A fixed-size histogram with power-of-two bucket boundaries.
///
/// Bucket `0` holds exactly the value `0`; bucket `k >= 1` holds values in
/// `[2^(k-1), 2^k - 1]`. Every `u64` maps to exactly one bucket, so
/// [`Histogram::record`] never saturates or clips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// The bucket index `value` falls into: `0` for zero, otherwise the
    /// value's bit width. Monotonically non-decreasing in `value`.
    pub const fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive lower bound of bucket `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= BUCKETS`.
    pub const fn bucket_lo(index: usize) -> u64 {
        assert!(index < BUCKETS);
        if index == 0 {
            0
        } else {
            1u64 << (index - 1)
        }
    }

    /// Inclusive upper bound of bucket `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= BUCKETS`.
    pub const fn bucket_hi(index: usize) -> u64 {
        assert!(index < BUCKETS);
        if index == 0 {
            0
        } else if index == BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same value (equivalent to `n` calls to
    /// [`Histogram::record`]). Counters saturate at `u64::MAX` instead of
    /// wrapping, which keeps merging associative at the extremes.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = &mut self.buckets[Self::bucket_index(value)];
        *b = b.saturating_add(n);
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other` into `self`. Merging (with saturating
    /// counters) is commutative and associative, so any aggregation order
    /// yields the same result.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), by cumulative count; 0 when empty. Because
    /// buckets are power-of-two ranges this is an upper estimate, within
    /// 2x of the true order statistic.
    pub fn quantile_hi(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The histogram max tightens the top bucket's bound.
                return Self::bucket_hi(i).min(self.max);
            }
        }
        self.max
    }

    /// Iterates the non-empty buckets as `(index, lo, hi, count)` in
    /// ascending value order.
    pub fn buckets(&self) -> impl Iterator<Item = (usize, u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, Self::bucket_lo(i), Self::bucket_hi(i), n))
    }

    /// Serializes to a JSON value: counters plus a sparse
    /// `[[bucket_index, count], ...]` array. `u64` quantities are encoded
    /// as decimal strings (JSON numbers are `i64`/`f64` here and cannot
    /// carry a full `u64` exactly). Round-trips exactly through
    /// [`Histogram::from_json`].
    pub fn to_json(&self) -> Json {
        let sparse = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| Json::Arr(vec![Json::I64(i as i64), Json::Str(n.to_string())]))
            .collect();
        Json::obj([
            ("count", Json::Str(self.count.to_string())),
            ("sum", Json::Str(self.sum.to_string())),
            ("max", Json::Str(self.max.to_string())),
            ("buckets", Json::Arr(sparse)),
        ])
    }

    /// Reconstructs a histogram from [`Histogram::to_json`] output.
    /// Returns `None` on a malformed or inconsistent document.
    pub fn from_json(v: &Json) -> Option<Histogram> {
        let field =
            |key: &str| v.get(key).and_then(Json::as_str).and_then(|s| s.parse::<u64>().ok());
        let mut h = Histogram::new();
        for pair in v.get("buckets")?.as_arr()? {
            let pair = pair.as_arr().filter(|p| p.len() == 2)?;
            let idx = pair[0].as_i64().filter(|&i| (0..BUCKETS as i64).contains(&i))? as usize;
            let n = pair[1].as_str().and_then(|s| s.parse::<u64>().ok()).filter(|&n| n > 0)?;
            h.buckets[idx] = n;
            h.count = h.count.saturating_add(n);
        }
        if h.count != field("count")? {
            return None;
        }
        h.sum = field("sum")?;
        h.max = field("max")?;
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 0..BUCKETS {
            assert_eq!(Histogram::bucket_index(Histogram::bucket_lo(i)), i);
            assert_eq!(Histogram::bucket_index(Histogram::bucket_hi(i)), i);
        }
    }

    #[test]
    fn record_and_summaries() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        h.record(0);
        h.record_n(3, 2);
        h.record(10);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 16);
        assert_eq!(h.max(), 10);
        assert!((h.mean() - 4.0).abs() < 1e-12);
        let got: Vec<_> = h.buckets().collect();
        assert_eq!(got, vec![(0, 0, 0, 1), (2, 2, 3, 2), (4, 8, 15, 1)]);
    }

    #[test]
    fn quantile_hi_walks_cumulative_counts() {
        let mut h = Histogram::new();
        h.record_n(1, 90);
        h.record_n(100, 10);
        assert_eq!(h.quantile_hi(0.5), 1);
        assert_eq!(h.quantile_hi(0.95), 100); // top bucket, tightened by max
        assert_eq!(h.quantile_hi(1.0), 100);
        assert_eq!(Histogram::new().quantile_hi(0.5), 0);
    }

    #[test]
    fn json_round_trip_and_rejection() {
        let mut h = Histogram::new();
        h.record_n(7, 3);
        h.record(0);
        h.record(1 << 40);
        let j = h.to_json();
        assert_eq!(Histogram::from_json(&j).unwrap(), h);
        // Re-parse through text as well (the form stored in ATTRIB_*.json).
        let back = Json::parse(&j.emit()).unwrap();
        assert_eq!(Histogram::from_json(&back).unwrap(), h);
        assert!(Histogram::from_json(&Json::Null).is_none());
        let bad = Json::obj([
            ("count", Json::str("99")),
            ("sum", Json::str("0")),
            ("max", Json::str("0")),
            ("buckets", Json::Arr(vec![])),
        ]);
        assert!(Histogram::from_json(&bad).is_none(), "count mismatch must be rejected");
    }
}
