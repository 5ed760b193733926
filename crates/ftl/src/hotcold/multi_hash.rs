//! Multi-hash counting-sketch hot/cold identification.

use crate::hotcold::Temperature;
use crate::types::Lpn;

/// A counting-Bloom-filter style classifier.
///
/// Each write hashes the LPN with `hashes` independent hash functions into a shared
/// array of saturating 4-bit counters and increments them; a page is hot when the
/// *minimum* of its counters reaches the threshold. Every `decay_period` writes all
/// counters are halved (right-shifted), implementing exponential decay in constant
/// space. This is the standard constant-memory approximation of the per-LPN frequency
/// table used when the table itself would be too large to keep in SRAM.
///
/// # Example
///
/// ```
/// use vflash_ftl::hotcold::{MultiHash, Temperature};
/// use vflash_ftl::Lpn;
///
/// let mut sketch = MultiHash::new(1024, 2, 4, 10_000);
/// assert_eq!(sketch.classify_write(Lpn(3), 4096), Temperature::Cold);
/// for _ in 0..3 {
///     sketch.classify_write(Lpn(3), 4096);
/// }
/// assert_eq!(sketch.classify_write(Lpn(3), 4096), Temperature::Hot);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiHash {
    counters: Vec<u8>,
    hashes: u32,
    threshold: u8,
    decay_period: u64,
    writes_since_decay: u64,
}

const COUNTER_MAX: u8 = 15;

impl MultiHash {
    /// Creates the sketch.
    ///
    /// # Panics
    ///
    /// Panics if `buckets`, `hashes`, `threshold` or `decay_period` is zero, or the
    /// threshold exceeds the 4-bit counter maximum (15).
    pub fn new(buckets: usize, hashes: u32, threshold: u8, decay_period: u64) -> Self {
        assert!(buckets > 0, "buckets must be positive");
        assert!(hashes > 0, "hashes must be positive");
        assert!(threshold > 0, "threshold must be positive");
        assert!(threshold <= COUNTER_MAX, "threshold must fit the 4-bit counters");
        assert!(decay_period > 0, "decay period must be positive");
        MultiHash {
            counters: vec![0; buckets],
            hashes,
            threshold,
            decay_period,
            writes_since_decay: 0,
        }
    }

    fn bucket(&self, lpn: Lpn, hash_index: u32) -> usize {
        // SplitMix64-style mixing with the hash index folded into the key; cheap,
        // deterministic and well-distributed for sequential LPNs.
        let mut x = lpn.0 ^ (u64::from(hash_index).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x % self.counters.len() as u64) as usize
    }

    /// The sketch's current estimate of how many (recent) writes `lpn` has received.
    pub fn estimate(&self, lpn: Lpn) -> u8 {
        (0..self.hashes)
            .map(|h| self.counters[self.bucket(lpn, h)])
            .min()
            .unwrap_or(0)
    }

    fn decay(&mut self) {
        for counter in &mut self.counters {
            *counter >>= 1;
        }
    }

    /// Classifies the write of `lpn` that belongs to a host request of
    /// `request_bytes` bytes.
    pub fn classify_write(&mut self, lpn: Lpn, _request_bytes: u32) -> Temperature {
        self.writes_since_decay += 1;
        if self.writes_since_decay >= self.decay_period {
            self.writes_since_decay = 0;
            self.decay();
        }
        for h in 0..self.hashes {
            let bucket = self.bucket(lpn, h);
            let counter = &mut self.counters[bucket];
            // saturating_add, not `+ 1`: a plain add only avoids u8 overflow while
            // COUNTER_MAX stays below u8::MAX, which is too easy to break silently.
            *counter = counter.saturating_add(1).min(COUNTER_MAX);
        }
        if self.estimate(lpn) >= self.threshold {
            Temperature::Hot
        } else {
            Temperature::Cold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_writes_become_hot() {
        let mut sketch = MultiHash::new(4096, 2, 3, 100_000);
        assert_eq!(sketch.classify_write(Lpn(42), 4096), Temperature::Cold);
        assert_eq!(sketch.classify_write(Lpn(42), 4096), Temperature::Cold);
        assert_eq!(sketch.classify_write(Lpn(42), 4096), Temperature::Hot);
        assert!(sketch.estimate(Lpn(42)) >= 3);
    }

    #[test]
    fn counters_saturate_instead_of_overflowing() {
        let mut sketch = MultiHash::new(64, 2, 3, 1_000_000);
        for _ in 0..100 {
            sketch.classify_write(Lpn(7), 4096);
        }
        assert_eq!(sketch.estimate(Lpn(7)), 15);
    }

    #[test]
    fn decay_cools_idle_pages() {
        let mut sketch = MultiHash::new(4096, 2, 4, 8);
        for _ in 0..6 {
            sketch.classify_write(Lpn(1), 4096);
        }
        let before = sketch.estimate(Lpn(1));
        // Unrelated traffic crosses the decay period several times.
        for other in 1_000..1_040 {
            sketch.classify_write(Lpn(other), 4096);
        }
        assert!(sketch.estimate(Lpn(1)) < before);
    }

    #[test]
    fn unrelated_lpns_rarely_alias_with_enough_buckets() {
        let mut sketch = MultiHash::new(1 << 14, 2, 3, 1_000_000);
        for _ in 0..10 {
            sketch.classify_write(Lpn(5), 4096);
        }
        let cold_estimates: Vec<u8> =
            (100..200).map(|lpn| sketch.estimate(Lpn(lpn))).collect();
        let aliased = cold_estimates.iter().filter(|&&estimate| estimate >= 3).count();
        assert!(aliased <= 2, "too many aliased cold pages: {aliased}");
    }

    #[test]
    #[should_panic(expected = "threshold must fit")]
    fn threshold_above_counter_max_rejected() {
        let _ = MultiHash::new(16, 2, 16, 100);
    }

    /// Audit regression: a threshold exactly at the counter maximum must still be
    /// reachable — saturation keeps counters at 15, and `estimate >= threshold`
    /// must hold once they get there (an off-by-one here would make hot
    /// unreachable at the boundary).
    #[test]
    fn threshold_at_counter_max_is_reachable() {
        let mut sketch = MultiHash::new(4096, 2, COUNTER_MAX, 1_000_000);
        for _ in 0..(COUNTER_MAX - 1) {
            assert_eq!(sketch.classify_write(Lpn(9), 4096), Temperature::Cold);
        }
        assert_eq!(sketch.classify_write(Lpn(9), 4096), Temperature::Hot);
        // Further writes saturate at 15 and stay hot rather than wrapping to 0.
        for _ in 0..40 {
            assert_eq!(sketch.classify_write(Lpn(9), 4096), Temperature::Hot);
        }
        assert_eq!(sketch.estimate(Lpn(9)), COUNTER_MAX);
    }
}
