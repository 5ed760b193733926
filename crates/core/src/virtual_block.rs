//! The virtual-block concept (paper §3.3).
//!
//! A physical 3D charge-trap block contains pages of widely different access speed.
//! To let the FTL allocate "fast space" and "slow space" separately without ever
//! mixing hot and cold data in one physical block, each physical block is divided
//! into `v` **virtual blocks**: groups of adjacent pages with similar access speed.
//! With the paper's default of `v = 2`, physical block *n* yields virtual block *2n*
//! (the slow top half) and virtual block *2n + 1* (the fast bottom half).

use std::ops::Range;

use vflash_nand::{NandConfig, PageId, SpeedClass};

/// Geometry helper mapping in-block pages to their virtual block's speed class:
/// class `c` of physical block *n* is virtual block *n · v + c*.
///
/// # Example
///
/// ```
/// use vflash_nand::{NandConfig, PageId, SpeedClass};
/// use vflash_ppb::VirtualBlockTable;
///
/// # fn main() -> Result<(), vflash_nand::NandError> {
/// let config = NandConfig::builder()
///     .chips(1)
///     .blocks_per_chip(4)
///     .pages_per_block(8)
///     .build()?;
/// let table = VirtualBlockTable::new(&config, 2);
/// assert_eq!(table.class_range(0), 0..4); // slow
/// assert_eq!(table.class_range(1), 4..8); // fast
/// assert_eq!(table.class_of_page(PageId(6)), SpeedClass(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualBlockTable {
    per_block: usize,
    boundaries: Vec<usize>,
}

impl VirtualBlockTable {
    /// Builds the table for a device geometry and a number of virtual blocks per
    /// physical block.
    ///
    /// # Panics
    ///
    /// Panics if `per_block` is zero.
    pub fn new(config: &NandConfig, per_block: usize) -> Self {
        assert!(per_block > 0, "per_block must be at least 1");
        let pages = config.pages_per_block();
        let group = pages.div_ceil(per_block);
        let mut boundaries = Vec::with_capacity(per_block + 1);
        for class in 0..per_block {
            boundaries.push((class * group).min(pages));
        }
        boundaries.push(pages);
        VirtualBlockTable { per_block, boundaries }
    }

    /// Number of virtual blocks per physical block.
    pub fn per_block(&self) -> usize {
        self.per_block
    }

    /// The page range of speed class `class` within any block.
    pub fn class_range(&self, class: usize) -> Range<usize> {
        self.boundaries[class]..self.boundaries[class + 1]
    }

    /// The speed class of an in-block page index — [`SpeedClass::of`] for every page
    /// of the block, read off the stored boundaries instead of dividing per call.
    pub fn class_of_page(&self, page: PageId) -> SpeedClass {
        let inner = &self.boundaries[1..self.per_block];
        SpeedClass(inner.iter().take_while(|&&start| start <= page.0).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(pages: usize) -> NandConfig {
        NandConfig::builder()
            .chips(2)
            .blocks_per_chip(4)
            .pages_per_block(pages)
            .build()
            .unwrap()
    }

    #[test]
    fn two_way_split_is_a_slow_then_a_fast_half() {
        let table = VirtualBlockTable::new(&config(8), 2);
        assert_eq!(table.class_range(0), 0..4);
        assert_eq!(table.class_range(1), 4..8);
        assert_eq!(table.class_of_page(PageId(0)), SpeedClass(0));
        assert_eq!(table.class_of_page(PageId(3)), SpeedClass(0));
        assert_eq!(table.class_of_page(PageId(4)), SpeedClass(1));
        assert_eq!(table.class_of_page(PageId(7)), SpeedClass(1));
    }

    #[test]
    fn four_way_split_covers_all_pages_without_overlap() {
        let table = VirtualBlockTable::new(&config(10), 4);
        let ranges: Vec<_> = (0..4).map(|class| table.class_range(class)).collect();
        assert_eq!(ranges.iter().map(Range::len).sum::<usize>(), 10);
        assert_eq!((ranges[0].start, ranges[3].end), (0, 10));
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
    }

    #[test]
    fn page_lookup_matches_ranges() {
        for (pages, per_block) in [(8, 2), (10, 4), (384, 2)] {
            let table = VirtualBlockTable::new(&config(pages), per_block);
            for page in 0..pages {
                let class = table.class_of_page(PageId(page));
                assert!(table.class_range(class.0).contains(&page), "page {page} of {pages}");
            }
        }
    }

    #[test]
    fn class_ranges_partition_the_block() {
        let table = VirtualBlockTable::new(&config(384), 2);
        assert_eq!(table.class_range(0), 0..192);
        assert_eq!(table.class_range(1), 192..384);
        assert_eq!(table.per_block(), 2);
    }
}
