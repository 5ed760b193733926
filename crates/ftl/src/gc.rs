//! Garbage-collection accounting: the [`GcOutcome`] a collection pass reports.
//!
//! The pass itself lives in [`FtlCore`](crate::FtlCore): victims are the greedy
//! choice, [`NandDevice::greedy_victim`](vflash_nand::NandDevice::greedy_victim),
//! and where the relocated pages go is the [`Placement`](crate::Placement)'s call.

use vflash_nand::Nanos;

/// Summary of one garbage-collection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcOutcome {
    /// Blocks erased.
    pub erased_blocks: u64,
    /// Valid pages copied to new locations.
    pub copied_pages: u64,
    /// Total device time consumed (reads + programs + erases).
    pub time: Nanos,
}

impl GcOutcome {
    /// Merges another outcome into this one.
    pub fn merge(&mut self, other: GcOutcome) {
        self.erased_blocks += other.erased_blocks;
        self.copied_pages += other.copied_pages;
        self.time += other.time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_merging_accumulates() {
        let mut a = GcOutcome { erased_blocks: 1, copied_pages: 3, time: Nanos::from_millis(4) };
        let b = GcOutcome { erased_blocks: 2, copied_pages: 0, time: Nanos::from_millis(8) };
        a.merge(b);
        assert_eq!(a.erased_blocks, 3);
        assert_eq!(a.copied_pages, 3);
        assert_eq!(a.time, Nanos::from_millis(12));
    }
}
