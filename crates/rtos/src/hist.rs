//! One log-linear histogram over `u64` values, shared by every layer that
//! summarises a distribution: DRCR metrics, the contract estimator's
//! per-cycle costs and latency reports.
//!
//! Values below `2^S` are counted exactly, one bucket each. Above that,
//! each power of two `[2^e, 2^(e+1))` is split into `2^S` equal
//! sub-buckets, so a bucket's width is at most `2^-S` of any value in it.
//! `S` is [`SUB_BUCKET_BITS`]. The bucket vector grows only up to the
//! highest bucket recorded, so a histogram of small values stays small.
//!
//! ```
//! use rtos::hist::Histogram;
//!
//! let mut h = Histogram::new();
//! h.record(7);
//! h.record_n(1_000, 3);
//! assert_eq!((h.count(), h.sum(), h.min(), h.max()), (4, 3_007, Some(7), Some(1_000)));
//! // Below 2^S the quantile is exact; above, it is the bucket's upper edge.
//! assert_eq!(h.quantile(0.25), Some(7));
//! assert_eq!(h.quantile(1.0), Some(1_007));
//! ```

/// `S`: each power of two above `2^S` is split into `2^S` sub-buckets.
pub const SUB_BUCKET_BITS: u32 = 5;

const SUB: u64 = 1 << SUB_BUCKET_BITS;

/// The bucket holding `value`.
fn index(value: u64) -> usize {
    let bits = u64::BITS - value.leading_zeros();
    let shift = bits.saturating_sub(SUB_BUCKET_BITS + 1);
    (u64::from(shift) * SUB + (value >> shift)) as usize
}

/// The largest value bucket `idx` holds (its inclusive upper edge).
fn upper_edge(idx: usize) -> u64 {
    let idx = idx as u64;
    let shift = (idx / SUB).saturating_sub(1);
    let mantissa = idx - shift * SUB;
    (mantissa << shift) | ((1 << shift) - 1)
}

/// A log-linear histogram with exact count, sum, minimum and maximum. See
/// the [module docs](self).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram; allocates on the first record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of `value` (a weighted sample).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = index(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.max = self.max.max(value);
        self.count += n;
        self.sum += u128::from(value) * u128::from(n);
    }

    /// Number of recorded values (weights summed).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact (weighted) sum of the recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Conservative `q`-quantile: the upper edge of the bucket holding the
    /// value of rank `⌈q·n⌉` (at least 1). Never below the exact order
    /// statistic, at most `2^-S` of it above, and exact below `2^S`.
    /// `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // Every bucket below the minimum's is empty: start the scan there,
        // so a narrow distribution is found in a bucket or two.
        let first = index(self.min);
        let mut seen = 0;
        self.counts[first..]
            .iter()
            .zip(first..)
            .find_map(|(&c, idx)| {
                seen += c;
                (seen >= rank).then(|| upper_edge(idx))
            })
    }

    /// The non-empty buckets in ascending order, as `(upper_edge, count)`
    /// where `upper_edge` is the largest value the bucket holds.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| (upper_edge(idx), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_value_range() {
        // Each bucket starts one past the previous bucket's upper edge, and
        // every value maps back into the bucket whose range holds it.
        let mut lo = 0u64;
        for idx in 0..index(u64::MAX) + 1 {
            let hi = upper_edge(idx);
            assert!(hi >= lo, "bucket {idx}");
            assert_eq!((index(lo), index(hi)), (idx, idx), "bucket {idx}");
            assert!(
                hi - lo < SUB.max(lo >> SUB_BUCKET_BITS),
                "bucket {idx} too wide"
            );
            lo = hi.wrapping_add(1);
        }
        assert_eq!(lo, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn small_values_are_exact_and_storage_is_lazy() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for v in 0..SUB {
            h.record(v);
        }
        assert_eq!(h.counts.len(), SUB as usize);
        assert_eq!(h.quantile(0.5), Some(SUB / 2 - 1));
        assert_eq!(h.quantile(1.0), Some(SUB - 1));
        assert_eq!(h.buckets().count(), SUB as usize);
    }
}
