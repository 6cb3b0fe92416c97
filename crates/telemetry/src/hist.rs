//! Fixed-bucket log2 histograms for single-threaded hot paths.

/// Number of buckets in a [`Hist64`]: bucket 0 holds the value `0`,
/// bucket `i >= 1` holds values whose bit length is `i`, i.e. the range
/// `[2^(i-1), 2^i - 1]`. Bucket 64 therefore ends at `u64::MAX`.
pub const NUM_BUCKETS: usize = 65;

/// The bucket index a value lands in: `0` for zero, otherwise the
/// value's bit length (1..=64).
#[inline]
pub fn log2_bucket(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// A plain (non-atomic) log2-bucket histogram.
///
/// Designed for the simulator's cycle loop: recording is two array ops
/// and a handful of integer updates, no allocation, no synchronization.
/// Use [`AtomicHist`](crate::AtomicHist) where concurrent writers need
/// one histogram; inside a single simulated launch this type is the
/// right tool, and launches merge their histograms afterwards in launch
/// order (keeping aggregates deterministic).
///
/// The log2 buckets suit the quantities the RCoal paper profiles:
/// memory latency (tens to thousands of cycles), FR-FCFS queue depth,
/// and coalesced-accesses-per-subwarp (1..=32) all span orders of
/// magnitude where relative resolution matters more than absolute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist64 {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Hist64 {
    fn default() -> Self {
        Hist64 {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Hist64 {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[log2_bucket(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records `n` observations of the same value.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[log2_bucket(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation, `0.0` if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile of the recorded distribution, `None` if empty.
    ///
    /// `q` is clamped to `[0, 1]`. The estimate walks the log2 buckets
    /// to the one holding the rank-`ceil(q * count)` observation and
    /// interpolates linearly inside it, then clamps to the exact
    /// observed `[min, max]` so single-bucket histograms report the
    /// true extremes rather than bucket bounds. Resolution is therefore
    /// the bucket width (a factor of two), which matches how the
    /// histogram is recorded; the result is deterministic and
    /// merge-order independent.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based; q = 0 maps to rank 1.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = Self::bucket_bounds(i);
                // 1-based position of the target inside this bucket, so
                // the bucket's last-ranked observation reaches `hi` (and
                // the overall maximum survives the clamp below).
                let into = rank - seen;
                let width = (hi - lo) as u128;
                let offset = (width * u128::from(into) / u128::from(n)) as u64;
                return Some((lo + offset).clamp(self.min, self.max));
            }
            seen += n;
        }
        // Unreachable: counts always sum to `self.count`.
        Some(self.max)
    }

    /// Median observation (50th percentile), `None` if empty.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th-percentile observation, `None` if empty.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th-percentile observation, `None` if empty.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Count in bucket `i` (see [`NUM_BUCKETS`] for the bucket layout).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Inclusive value range `(lo, hi)` covered by bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            1..=63 => (1u64 << (i - 1), (1u64 << i) - 1),
            _ => (1u64 << 63, u64::MAX),
        }
    }

    /// Iterates `(bucket_lo, bucket_hi, count)` over non-empty buckets.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, c)
            })
    }

    /// Folds another histogram into this one (used to aggregate
    /// per-launch profiles in launch order).
    pub fn merge(&mut self, other: &Hist64) {
        if other.count == 0 {
            return;
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Rebuilds a histogram from the raw fields of an
    /// [`AtomicHist`](crate::AtomicHist), which shares this layout and
    /// the empty sentinels (`min = u64::MAX`, `max = 0`).
    pub(crate) fn from_parts(
        buckets: [u64; NUM_BUCKETS],
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) -> Self {
        Hist64 {
            buckets,
            count,
            sum,
            min,
            max,
        }
    }

    /// Serializes to a stable JSON object: count, sum, min/max/mean and
    /// the non-empty buckets as `{"lo": .., "hi": .., "n": ..}` entries
    /// in ascending bucket order.
    pub fn to_json(&self) -> String {
        let mut buckets = String::new();
        for (i, (lo, hi, n)) in self.nonzero_buckets().enumerate() {
            if i > 0 {
                buckets.push(',');
            }
            buckets.push_str(&format!("{{\"lo\":{lo},\"hi\":{hi},\"n\":{n}}}"));
        }
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\"buckets\":[{}]}}",
            self.count,
            self.sum,
            self.min().unwrap_or(0),
            self.max().unwrap_or(0),
            self.mean(),
            buckets
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_lands_in_bucket_zero() {
        assert_eq!(log2_bucket(0), 0);
        let mut h = Hist64::new();
        h.record(0);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(0));
    }

    #[test]
    fn u64_max_lands_in_the_last_bucket() {
        assert_eq!(log2_bucket(u64::MAX), 64);
        let mut h = Hist64::new();
        h.record(u64::MAX);
        assert_eq!(h.bucket(64), 1);
        assert_eq!(h.max(), Some(u64::MAX));
        // Saturating sum: a second MAX must not wrap.
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // 2^k - 1 and 2^k straddle a bucket boundary for every k.
        for k in 1..64u32 {
            let below = (1u64 << k) - 1;
            let at = 1u64 << k;
            assert_eq!(log2_bucket(below), k as usize, "2^{k} - 1");
            assert_eq!(log2_bucket(at), k as usize + 1, "2^{k}");
        }
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
    }

    #[test]
    fn bucket_bounds_cover_the_domain_without_gaps() {
        let mut next = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = Hist64::bucket_bounds(i);
            assert_eq!(
                lo,
                next,
                "bucket {i} starts where {} ended",
                i.wrapping_sub(1)
            );
            assert!(hi >= lo);
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "last bucket ends at u64::MAX");
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Hist64::new();
        let mut b = Hist64::new();
        for _ in 0..7 {
            a.record(100);
        }
        b.record_n(100, 7);
        b.record_n(5, 0); // no-op
        assert_eq!(a, b);
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = Hist64::new();
        a.record(1);
        a.record(1000);
        let mut b = Hist64::new();
        b.record(0);
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.min(), Some(0));
        assert_eq!(a.max(), Some(u64::MAX));
        let empty = Hist64::new();
        let before = a.clone();
        a.merge(&empty);
        assert_eq!(a, before, "merging an empty histogram changes nothing");
    }

    #[test]
    fn mean_and_empty_behavior() {
        let h = Hist64::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        let mut h = Hist64::new();
        h.record(10);
        h.record(20);
        assert!((h.mean() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_on_empty_and_singleton() {
        let h = Hist64::new();
        assert_eq!(h.p50(), None);
        assert_eq!(h.quantile(0.0), None);
        let mut h = Hist64::new();
        h.record(42);
        // A single observation is every quantile, exactly — the clamp
        // to [min, max] beats bucket-bound interpolation here.
        assert_eq!(h.quantile(0.0), Some(42));
        assert_eq!(h.p50(), Some(42));
        assert_eq!(h.p99(), Some(42));
        assert_eq!(h.quantile(1.0), Some(42));
    }

    #[test]
    fn quantiles_walk_buckets_in_rank_order() {
        let mut h = Hist64::new();
        // 90 observations of 4 (bucket [4,7]), 9 of 100 (bucket
        // [64,127]), 1 of 5000 (bucket [4096,8191]).
        h.record_n(4, 90);
        h.record_n(100, 9);
        h.record_n(5000, 1);
        let p50 = h.p50().unwrap();
        assert!((4..=7).contains(&p50), "p50 in the dominant bucket: {p50}");
        let p95 = h.p95().unwrap();
        assert!((64..=127).contains(&p95), "p95 in the tail bucket: {p95}");
        // p99 ranks observation 99 of 100 — still the 100s bucket; the
        // single 5000 is only reached at p100.
        let p99 = h.p99().unwrap();
        assert!((64..=127).contains(&p99), "p99: {p99}");
        assert_eq!(h.quantile(1.0), Some(5000), "max is clamped exactly");
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Hist64::new();
        for v in [0u64, 1, 3, 9, 17, 80, 81, 300, 7000, 65000] {
            h.record(v);
        }
        let mut last = 0u64;
        for i in 0..=20 {
            let q = f64::from(i) / 20.0;
            let v = h.quantile(q).unwrap();
            assert!(v >= last, "quantile({q}) = {v} < {last}");
            assert!(v <= h.max().unwrap());
            last = v;
        }
        assert_eq!(h.quantile(-0.5), h.quantile(0.0), "q clamps low");
        assert_eq!(h.quantile(1.5), h.quantile(1.0), "q clamps high");
        assert_eq!(h.quantile(1.0), Some(65000));
    }

    #[test]
    fn json_lists_nonzero_buckets_in_order() {
        let mut h = Hist64::new();
        h.record(0);
        h.record(3);
        h.record(3);
        let j = h.to_json();
        assert!(j.contains("\"count\":3"), "{j}");
        assert!(j.contains("{\"lo\":0,\"hi\":0,\"n\":1}"), "{j}");
        assert!(j.contains("{\"lo\":2,\"hi\":3,\"n\":2}"), "{j}");
    }
}
