//! The virtual-block concept (paper §3.3).
//!
//! A physical 3D charge-trap block contains pages of widely different access speed.
//! To let the FTL allocate "fast space" and "slow space" separately without ever
//! mixing hot and cold data in one physical block, each physical block is divided
//! into `v` **virtual blocks**: groups of adjacent pages with similar access speed.
//! With the paper's default of `v = 2`, physical block *n* yields virtual block *2n*
//! (the slow top half) and virtual block *2n + 1* (the fast bottom half).

use std::fmt;
use std::ops::Range;

use vflash_nand::{BlockAddr, NandConfig, PageId, SpeedClass};

/// Identifier of a virtual block: `physical_flat_index * v + class`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualBlockId(pub usize);

impl fmt::Display for VirtualBlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VB{}", self.0)
    }
}

/// One virtual block: a speed-homogeneous slice of a physical block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualBlock {
    id: VirtualBlockId,
    physical: BlockAddr,
    class: SpeedClass,
    pages: (usize, usize),
}

impl VirtualBlock {
    /// The virtual block's identifier.
    pub const fn id(&self) -> VirtualBlockId {
        self.id
    }

    /// The physical block this virtual block is carved out of.
    pub const fn physical(&self) -> BlockAddr {
        self.physical
    }

    /// The speed class of the pages in this virtual block (0 = slowest).
    pub const fn class(&self) -> SpeedClass {
        self.class
    }

    /// The in-block page indices covered by this virtual block.
    pub const fn page_range(&self) -> Range<usize> {
        self.pages.0..self.pages.1
    }

    /// Number of pages in this virtual block.
    pub const fn len(&self) -> usize {
        self.pages.1 - self.pages.0
    }

    /// Whether the virtual block covers zero pages (possible only for degenerate
    /// geometries where a block has fewer pages than virtual blocks).
    pub const fn is_empty(&self) -> bool {
        self.pages.0 == self.pages.1
    }
}

/// Geometry helper mapping between physical pages/blocks and virtual blocks.
///
/// # Example
///
/// ```
/// use vflash_nand::{BlockAddr, ChipId, NandConfig, PageId};
/// use vflash_ppb::VirtualBlockTable;
///
/// # fn main() -> Result<(), vflash_nand::NandError> {
/// let config = NandConfig::builder()
///     .chips(1)
///     .blocks_per_chip(4)
///     .pages_per_block(8)
///     .build()?;
/// let table = VirtualBlockTable::new(&config, 2);
/// let block = BlockAddr::new(ChipId(0), 1);
/// let slow = table.virtual_blocks_of(block)[0];
/// let fast = table.virtual_blocks_of(block)[1];
/// assert_eq!(slow.page_range(), 0..4);
/// assert_eq!(fast.page_range(), 4..8);
/// assert_eq!(table.virtual_block_of_page(block, PageId(6)).id(), fast.id());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualBlockTable {
    blocks_per_chip: usize,
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
        VirtualBlockTable {
            blocks_per_chip: config.blocks_per_chip(),
            per_block,
            boundaries,
        }
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

    /// All virtual blocks carved out of `block`, ordered slow to fast.
    pub fn virtual_blocks_of(&self, block: BlockAddr) -> Vec<VirtualBlock> {
        let flat = block.flat_index(self.blocks_per_chip);
        (0..self.per_block)
            .map(|class| VirtualBlock {
                id: VirtualBlockId(flat * self.per_block + class),
                physical: block,
                class: SpeedClass(class),
                pages: (self.boundaries[class], self.boundaries[class + 1]),
            })
            .collect()
    }

    /// The virtual block containing `page` of `block`.
    pub fn virtual_block_of_page(&self, block: BlockAddr, page: PageId) -> VirtualBlock {
        let class = self.class_of_page(page);
        self.virtual_blocks_of(block)[class.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vflash_nand::ChipId;

    fn config(pages: usize) -> NandConfig {
        NandConfig::builder()
            .chips(2)
            .blocks_per_chip(4)
            .pages_per_block(pages)
            .build()
            .unwrap()
    }

    #[test]
    fn two_way_split_matches_paper_numbering() {
        let table = VirtualBlockTable::new(&config(8), 2);
        let block_n = BlockAddr::new(ChipId(0), 3); // flat index 3
        let vbs = table.virtual_blocks_of(block_n);
        assert_eq!(vbs.len(), 2);
        assert_eq!(vbs[0].id(), VirtualBlockId(6)); // 2n
        assert_eq!(vbs[1].id(), VirtualBlockId(7)); // 2n + 1
        assert_eq!(vbs[0].page_range(), 0..4);
        assert_eq!(vbs[1].page_range(), 4..8);
        assert_eq!(vbs[0].class(), SpeedClass(0));
        assert!(vbs[1].class() > vbs[0].class());
        assert_eq!(vbs[0].len(), 4);
        assert_eq!(vbs[0].physical(), block_n);
    }

    #[test]
    fn four_way_split_covers_all_pages_without_overlap() {
        let table = VirtualBlockTable::new(&config(10), 4);
        let block = BlockAddr::new(ChipId(1), 0);
        let vbs = table.virtual_blocks_of(block);
        assert_eq!(vbs.len(), 4);
        let covered: usize = vbs.iter().map(VirtualBlock::len).sum();
        assert_eq!(covered, 10);
        for pair in vbs.windows(2) {
            assert_eq!(pair[0].page_range().end, pair[1].page_range().start);
        }
    }

    #[test]
    fn page_lookup_matches_ranges() {
        let table = VirtualBlockTable::new(&config(8), 2);
        let block = BlockAddr::new(ChipId(0), 0);
        for page in 0..8 {
            let vb = table.virtual_block_of_page(block, PageId(page));
            assert!(vb.page_range().contains(&page));
        }
        assert_eq!(table.class_of_page(PageId(0)), SpeedClass(0));
        assert_eq!(table.class_of_page(PageId(7)), SpeedClass(1));
    }

    #[test]
    fn class_ranges_partition_the_block() {
        let table = VirtualBlockTable::new(&config(384), 2);
        assert_eq!(table.class_range(0), 0..192);
        assert_eq!(table.class_range(1), 192..384);
        assert_eq!(table.per_block(), 2);
    }

    #[test]
    fn virtual_block_ids_are_globally_unique() {
        let table = VirtualBlockTable::new(&config(8), 2);
        let mut ids = Vec::new();
        for chip in 0..2 {
            for block in 0..4 {
                for vb in table.virtual_blocks_of(BlockAddr::new(ChipId(chip), block)) {
                    ids.push(vb.id());
                }
            }
        }
        let total = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), total);
    }
}
