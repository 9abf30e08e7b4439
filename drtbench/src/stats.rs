//! Percentiles, quartiles and the outcome digest.

/// Percentiles the tail report may use, highest last.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a percentile must leave beyond it to be reported.
const MIN_BEYOND: usize = 10;

/// Zero-based nearest-rank index of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // The slack keeps 99.9% of 10,000 at rank 9,990 despite rounding.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile `p` of ascending `sorted` samples.
///
/// # Panics
///
/// On an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

/// How many samples lie beyond percentile `p` of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

/// The highest reportable tail of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.9.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// The highest percentile of [`LADDER`] that still has at least
/// [`MIN_BEYOND`] samples beyond it, with the sample count; `None` when even
/// the median has too few.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    LADDER
        .iter()
        .rev()
        .find(|&&p| beyond(n, p) >= MIN_BEYOND)
        .map(|&p| Tail {
            pct: p,
            value: percentile(sorted, p),
            n,
        })
}

/// Median of unsorted values (mean of the two middle ones for even counts).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method); a single
/// value is its own quartiles.
///
/// # Panics
///
/// On an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    assert!(n > 0, "quartiles of nothing");
    if n == 1 {
        return (d[0], d[0], d[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// FNV-1a over the semantic outcome of a run.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float by its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds a string, terminated so that `"ab","c"` differs from `"a","bc"`.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(percentile(&ramp(1000), 99.0), 990.0);
        assert_eq!(percentile(&ramp(1000), 50.0), 500.0);
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.pct, t.value, t.n), (99.9, 9990.0, 10_000));
        let t = tail(&ramp(999)).unwrap();
        assert_eq!(t.pct, 90.0);
        assert_eq!(tail(&ramp(20)).unwrap().pct, 50.0);
        assert!(tail(&ramp(19)).is_none());
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the data.
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn digest_separates_strings() {
        let mut a = Digest::default();
        a.str("ab");
        a.str("c");
        let mut b = Digest::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
