//! Order statistics, a log-bucket histogram for host-time spans, and the FNV
//! fingerprint that proves two runs produced the same simulated results.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the exclusive method), so the spreads printed here are the
/// ones the acceptance procedure measures. A single sample has zero spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    let len = sorted.len();
    if len < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / mid.abs()
    }
}

/// FNV-1a over the `Debug` rendering of simulated summaries. `Debug` prints
/// every field, so any simulated number that moves changes the fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    /// The empty fingerprint (the FNV offset basis).
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds `value`'s `Debug` rendering in.
    pub fn add(&mut self, value: &impl std::fmt::Debug) {
        for byte in format!("{value:?}").bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const SUB_BUCKETS: u64 = 16;
const SUB_BITS: u32 = 4;

/// Log-bucket histogram of nanosecond durations: 16 buckets per octave (≤ 6.25%
/// relative error), exact count and sum.
#[derive(Debug, Clone, Default)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl LogHistogram {
    fn bucket_of(value: u64) -> usize {
        if value < SUB_BUCKETS {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros();
        let sub = (value >> (octave - SUB_BITS)) & (SUB_BUCKETS - 1);
        (u64::from(octave - SUB_BITS + 1) * SUB_BUCKETS + sub) as usize
    }

    /// Upper edge of bucket `index` (the value reported for a quantile in it).
    fn bucket_upper(index: usize) -> u64 {
        let index = index as u64;
        if index < SUB_BUCKETS {
            return index;
        }
        let octave = index / SUB_BUCKETS + u64::from(SUB_BITS) - 1;
        let sub = index % SUB_BUCKETS;
        let low = (SUB_BUCKETS + sub) << (octave - u64::from(SUB_BITS));
        low + (1 << (octave - u64::from(SUB_BITS))) - 1
    }

    /// Records one duration.
    pub fn record(&mut self, nanos: u64) {
        let bucket = Self::bucket_of(nanos);
        if bucket >= self.buckets.len() {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += nanos;
    }

    /// Adds every duration recorded in `other`.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded durations (exact).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The `q`-quantile, rounded up to its bucket's upper edge; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &hits) in self.buckets.iter().enumerate() {
            seen += hits;
            if seen >= rank {
                return Self::bucket_upper(index);
            }
        }
        Self::bucket_upper(self.buckets.len() - 1)
    }

    /// Non-empty buckets as `(upper edge, count)` pairs, for the trace file.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &hits)| hits > 0)
            .map(|(index, &hits)| (Self::bucket_upper(index), hits))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        assert_eq!(median(&values), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn log_histogram_quantiles_stay_within_a_bucket_of_the_truth() {
        let mut hist = LogHistogram::default();
        for value in 1..=100_000u64 {
            hist.record(value);
        }
        for q in [0.5, 0.99, 0.999] {
            let exact = (100_000.0 * q) as u64;
            let got = hist.quantile(q);
            assert!(
                got >= exact && got as f64 <= exact as f64 * 1.07,
                "q{q}: {got} vs {exact}"
            );
        }
        assert_eq!(hist.count(), 100_000);
        for value in [0u64, 1, 15, 16, 17, 31, 32, 1000, u64::MAX / 2] {
            let upper = LogHistogram::bucket_upper(LogHistogram::bucket_of(value));
            assert!(
                upper >= value && upper as f64 <= (value as f64 * 1.07).max(value as f64 + 1.0)
            );
        }
    }

    #[test]
    fn fingerprint_depends_on_every_character() {
        let mut a = Fingerprint::default();
        a.add(&(1u64, 2.5f64));
        let mut b = Fingerprint::default();
        b.add(&(1u64, 2.5000001f64));
        assert_ne!(a, b);
    }
}
