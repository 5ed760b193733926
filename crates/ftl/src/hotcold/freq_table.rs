//! Table-based access-frequency hot/cold identification.

use crate::hotcold::Temperature;
use crate::types::Lpn;

/// A per-LPN write counter table with periodic exponential aging.
///
/// Pages whose write count reaches the threshold are classified hot. Every
/// `aging_period` observed writes, all counters are halved so that pages which stop
/// being written eventually cool down (following the aging idea of the table-based
/// history schemes, e.g. Hsieh et al., SAC 2005).
///
/// The counts are a table indexed by LPN: 4 bytes per LPN up to the highest one
/// written or reserved ([`FreqTable::reserve_keys`]), which must be below `u32::MAX` (a 64 TiB device at 16 KiB pages). A
/// count of zero is an untracked LPN. Equality compares the counts and the aging
/// state, not how far the table happened to grow.
///
/// # Example
///
/// ```
/// use vflash_ftl::hotcold::{FreqTable, Temperature};
/// use vflash_ftl::Lpn;
///
/// let mut table = FreqTable::new(3, 1_000);
/// assert_eq!(table.classify_write(Lpn(9), 4096), Temperature::Cold);
/// assert_eq!(table.classify_write(Lpn(9), 4096), Temperature::Cold);
/// assert_eq!(table.classify_write(Lpn(9), 4096), Temperature::Hot);
/// ```
#[derive(Debug, Clone)]
pub struct FreqTable {
    counts: Vec<u32>,
    threshold: u32,
    aging_period: u64,
    writes_since_aging: u64,
}

impl PartialEq for FreqTable {
    fn eq(&self, other: &Self) -> bool {
        (self.threshold, self.aging_period, self.writes_since_aging)
            == (other.threshold, other.aging_period, other.writes_since_aging)
            && self.entries().eq(other.entries())
    }
}

impl Eq for FreqTable {}

impl FreqTable {
    /// Creates the table.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero or `aging_period` is zero.
    pub fn new(threshold: u32, aging_period: u64) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        assert!(aging_period > 0, "aging period must be positive");
        FreqTable { counts: Vec::new(), threshold, aging_period, writes_since_aging: 0 }
    }

    /// Sizes the table for keys in `0..keys` (at most `u32::MAX` of them) up
    /// front, so writing any of them never reallocates it.
    pub fn reserve_keys(&mut self, keys: u64) {
        let keys = keys.min(u64::from(u32::MAX)) as usize;
        if keys > self.counts.len() {
            if self.counts.is_empty() {
                // Zeroed by the allocator: a page of the table costs memory
                // only once a key on it is written.
                self.counts = vec![0; keys];
            } else {
                self.counts.resize(keys, 0);
            }
        }
    }

    /// The current write count of `lpn` (zero if never seen).
    pub fn count(&self, lpn: Lpn) -> u32 {
        self.counts.get(lpn.as_usize()).copied().unwrap_or(0)
    }

    /// Number of LPNs currently tracked (with a nonzero count).
    pub fn tracked(&self) -> usize {
        self.entries().count()
    }

    /// The tracked `(LPN index, count)` pairs, in LPN order.
    fn entries(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.counts.iter().copied().enumerate().filter(|&(_, count)| count > 0)
    }

    /// Heap bytes the table holds.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<u32>()
    }

    /// Classifies the write of `lpn` that belongs to a host request of
    /// `request_bytes` bytes.
    pub fn classify_write(&mut self, lpn: Lpn, _request_bytes: u32) -> Temperature {
        self.writes_since_aging += 1;
        if self.writes_since_aging >= self.aging_period {
            self.writes_since_aging = 0;
            self.counts.iter_mut().for_each(|count| *count /= 2);
        }
        let index = lpn.as_usize();
        if index >= self.counts.len() {
            assert!(lpn.0 < u64::from(u32::MAX), "freq table keys must be below u32::MAX");
            self.counts.resize(index + 1, 0);
        }
        let count = &mut self.counts[index];
        *count = count.saturating_add(1);
        if *count >= self.threshold {
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
    fn reaches_hot_after_threshold_writes() {
        let mut table = FreqTable::new(2, 1_000);
        assert_eq!(table.classify_write(Lpn(1), 4096), Temperature::Cold);
        assert_eq!(table.classify_write(Lpn(1), 4096), Temperature::Hot);
        assert_eq!(table.count(Lpn(1)), 2);
    }

    #[test]
    fn independent_lpns_do_not_interfere() {
        let mut table = FreqTable::new(2, 1_000);
        table.classify_write(Lpn(1), 4096);
        assert_eq!(table.classify_write(Lpn(2), 4096), Temperature::Cold);
        assert_eq!(table.tracked(), 2);
    }

    #[test]
    fn aging_halves_counts_and_drops_zeroes() {
        let mut table = FreqTable::new(4, 4);
        // Three writes to LPN1, then a fourth write (to LPN2) triggers aging first.
        for _ in 0..3 {
            table.classify_write(Lpn(1), 4096);
        }
        table.classify_write(Lpn(2), 4096);
        // LPN1 count was halved from 3 to 1, LPN2 was inserted after the aging pass.
        assert_eq!(table.count(Lpn(1)), 1);
        assert_eq!(table.count(Lpn(2)), 1);
        // Entries that decay to zero are no longer tracked.
        for _ in 0..4 {
            table.classify_write(Lpn(3), 4096);
        }
        for _ in 0..8 {
            table.classify_write(Lpn(4), 4096);
        }
        assert_eq!(table.count(Lpn(2)), 0);
    }

    /// A table sized up front classifies every write as one grown on demand
    /// and equals it throughout, aging passes included.
    #[test]
    fn a_reserved_table_classifies_as_a_grown_one() {
        let mut grown = FreqTable::new(3, 50);
        let mut reserved = FreqTable::new(3, 50);
        reserved.reserve_keys(100);
        for i in 0..1_000u64 {
            let lpn = Lpn(i * i % 97 + i % 7 * 20);
            assert_eq!(reserved.classify_write(lpn, 4096), grown.classify_write(lpn, 4096));
            assert_eq!(reserved, grown);
        }
    }

    #[test]
    fn equality_ignores_how_far_the_table_grew() {
        // Both end with LPN1 at count 1 right after an aging pass; only `grown`
        // ever wrote LPN9, which aged back to untracked.
        let mut grown = FreqTable::new(2, 2);
        grown.classify_write(Lpn(9), 4096);
        grown.classify_write(Lpn(1), 4096);
        let mut small = FreqTable::new(2, 2);
        small.classify_write(Lpn(1), 4096);
        small.classify_write(Lpn(1), 4096);
        assert_eq!(grown, small);
        small.classify_write(Lpn(1), 4096);
        assert_ne!(grown, small);
    }

    #[test]
    fn cooled_down_pages_return_to_cold() {
        let mut table = FreqTable::new(3, 2);
        for _ in 0..3 {
            table.classify_write(Lpn(7), 4096);
        }
        // Plenty of unrelated traffic ages LPN7 back below the threshold.
        for other in 100..120 {
            table.classify_write(Lpn(other), 4096);
        }
        assert_eq!(table.classify_write(Lpn(7), 4096), Temperature::Cold);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_rejected() {
        let _ = FreqTable::new(0, 10);
    }

    /// Audit regression: the degenerate aging period of 1 halves the table before
    /// *every* increment, so a count is rebuilt from 0 each write and sits at 1 in
    /// steady state — classification must stay Cold without any underflow, stale
    /// Hot verdict, or unbounded table growth.
    #[test]
    fn aging_every_write_pins_counts_without_underflow() {
        let mut table = FreqTable::new(2, 1);
        assert_eq!(table.classify_write(Lpn(3), 4096), Temperature::Cold); // count 1
        assert_eq!(table.classify_write(Lpn(3), 4096), Temperature::Cold); // 1/2=0, +1
        for _ in 0..10 {
            assert_eq!(table.classify_write(Lpn(3), 4096), Temperature::Cold);
            assert_eq!(table.count(Lpn(3)), 1);
        }
        assert_eq!(table.tracked(), 1);
    }
}
