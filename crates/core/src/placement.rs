//! Per-area write placement following the virtual-block allocation rules.
//!
//! Each data area (hot or cold) owns a set of physical blocks. Inside a block, pages
//! must be programmed in layer order, so a block naturally fills its slow virtual
//! block first and its fast virtual block afterwards. The [`AreaWriter`] tracks, per
//! speed class, which blocks currently have their write pointer inside that class —
//! these are the paper's *hot / iron-hot* (or *icy-cold / cold*) virtual-block lists —
//! and implements the allocation constraints of Figure 8 and Algorithm 1:
//!
//! * the area keeps a small, bounded set of physical blocks open at once (Figure 8
//!   shows two: one whose slow virtual block is filling and one whose fast virtual
//!   block is filling), which is what lets hot data stream into slow pages while
//!   iron-hot data streams into fast pages of a *different* block,
//! * a write that wants a class with no open virtual block is **diverted** to another
//!   class of the same area whenever the open-block budget is exhausted, rather than
//!   opening yet another block, so physical blocks never end up half-full and the
//!   hot/cold separation between blocks is preserved (Algorithm 1).
//!
//! Both per-program entry points are O(1) and allocation-free: `target` keeps a count
//! of the open blocks and walks the nearest-class order in place; `after_program`
//! touches the queues only when the block changed class, filled, or shares its class.

use std::collections::VecDeque;

use vflash_ftl::FtlError;
use vflash_nand::{BlockAddr, NandDevice};

use crate::virtual_block::VirtualBlockTable;

/// Write placement state for one data area.
///
/// `open[c]` holds the blocks whose next programmable page currently lies in speed
/// class `c` (class 0 = slow top layers). Blocks enter at class 0 when allocated,
/// advance through the classes as they fill, and leave the writer when full.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AreaWriter {
    name: &'static str,
    open: Vec<VecDeque<BlockAddr>>,
    /// Blocks across all of `open`.
    total_open: usize,
    max_open_blocks: usize,
    /// Write lanes the host keeps in flight (1 = unstriped). With `stripe > 1`
    /// the writer opens fresh blocks until that many are open at once, so the
    /// front-rotation in [`AreaWriter::after_program`] spreads consecutive
    /// programs across blocks on different chips.
    stripe: usize,
    blocks_owned: u64,
}

impl AreaWriter {
    /// Creates an empty writer for an area divided into
    /// `virtual_blocks.per_block()` speed classes, keeping at most `max_open_blocks`
    /// physical blocks open at once (the paper's Figure 8 keeps two).
    ///
    /// # Panics
    ///
    /// Panics if `max_open_blocks` is zero.
    pub fn new(
        name: &'static str,
        virtual_blocks: &VirtualBlockTable,
        max_open_blocks: usize,
    ) -> Self {
        assert!(max_open_blocks > 0, "an area needs at least one open block");
        AreaWriter {
            name,
            open: vec![VecDeque::new(); virtual_blocks.per_block()],
            total_open: 0,
            max_open_blocks,
            stripe: 1,
            blocks_owned: 0,
        }
    }

    /// Sets the write-stripe width: the writer keeps up to `lanes` blocks open
    /// (on top of the area's normal open-block budget) and rotates consecutive
    /// programs across them. `lanes == 1` restores the paper's unstriped
    /// placement exactly.
    pub fn set_stripe(&mut self, lanes: usize) {
        self.stripe = lanes.max(1);
    }

    /// The area name (for diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Total physical blocks ever allocated to this area.
    pub fn blocks_owned(&self) -> u64 {
        self.blocks_owned
    }

    /// Blocks currently open for writing in this area, slowest class first (needed
    /// to exclude them from garbage-collection victim selection).
    pub fn open_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.open.iter().flatten().copied()
    }

    /// Number of classes tracked.
    pub fn classes(&self) -> usize {
        self.open.len()
    }

    /// Picks the block whose next free page should receive a write that wants speed
    /// class `desired`.
    ///
    /// Placement follows Figure 8 / Algorithm 1:
    ///
    /// 1. If a virtual block of the desired class is open, use it.
    /// 2. A *slow*-preferring write whose class has no open virtual block may open a
    ///    fresh physical block, as long as the area stays within its open-block
    ///    budget — this is what keeps a slow and a fast virtual block open
    ///    simultaneously (from different physical blocks) so hot and iron-hot data
    ///    actually end up on pages of different speed.
    /// 3. Otherwise the write is diverted to the nearest open class of the same area;
    ///    a new block is allocated only when nothing in the area is open.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::OutOfSpace`] if a new block is needed but the device's
    /// free pool is empty.
    pub fn target(
        &mut self,
        desired: usize,
        device: &mut NandDevice,
    ) -> Result<BlockAddr, FtlError> {
        let classes = self.open.len();
        debug_assert!(desired < classes, "desired class out of range");
        // The stripe widens the open-block budget by its extra lanes; at
        // stripe 1 this is exactly the configured budget.
        let budget = self.max_open_blocks + (self.stripe - 1);
        // Striped mode: open fresh blocks until the stripe's lanes are all
        // open. The round-robin free-list puts consecutive allocations on
        // different chips, and `after_program`'s front-rotation then spreads
        // consecutive programs across the lanes. At stripe 1 this fires only
        // when nothing at all is open, which is the unstriped behavior.
        if self.total_open < self.stripe {
            return self.allocate_block(device);
        }
        // Case 1: the desired class has an open virtual block.
        if let Some(&block) = self.open[desired].front() {
            return Ok(block);
        }
        // Case 2: slow-preferring writes may open a new block within the budget,
        // because a fresh block always starts programming at its slow virtual block.
        if desired == 0 && self.total_open < budget {
            return self.allocate_block(device);
        }
        // Case 3: divert to the nearest open class, the slower one first at equal
        // distance.
        for distance in 1..classes {
            let slower = desired.checked_sub(distance);
            let faster = Some(desired + distance).filter(|&class| class < classes);
            for class in slower.into_iter().chain(faster) {
                if let Some(&block) = self.open[class].front() {
                    return Ok(block);
                }
            }
        }
        // Nothing open anywhere in the area: allocate a fresh physical block.
        self.allocate_block(device)
    }

    fn allocate_block(&mut self, device: &mut NandDevice) -> Result<BlockAddr, FtlError> {
        let fresh = device.allocate_block().ok_or(FtlError::OutOfSpace)?;
        self.blocks_owned += 1;
        self.total_open += 1;
        self.open[0].push_back(fresh);
        Ok(fresh)
    }

    /// Updates the writer after a page of `block` has been programmed: the block is
    /// moved to the class its write pointer now lies in, or retired when full.
    pub fn after_program(
        &mut self,
        block: BlockAddr,
        device: &NandDevice,
        table: &VirtualBlockTable,
    ) {
        let next = device.block(block).ok().and_then(|block| block.next_page());
        let class = next.map(|page| table.class_of_page(page).0);
        if class.is_some_and(|class| self.open[class].len() == 1 && self.open[class][0] == block) {
            return; // still alone in its class: re-queueing would be a no-op
        }
        self.evict(block);
        if let Some(class) = class {
            self.total_open += 1;
            self.open[class].push_back(block);
        }
        // A full block (no next page) is simply dropped from the open lists; it now
        // waits for garbage collection, matching the virtual-block lifecycle.
    }

    /// Whether any open virtual block of class `class` has free space.
    pub fn has_open(&self, class: usize) -> bool {
        !self.open[class].is_empty()
    }

    /// Drops `block` from the open lists without waiting for it to fill — used when
    /// the device retires it as bad mid-stream. Returns whether it was open here.
    pub fn evict(&mut self, block: BlockAddr) -> bool {
        for class_queue in &mut self.open {
            if let Some(position) = class_queue.iter().position(|&open| open == block) {
                class_queue.remove(position);
                self.total_open -= 1;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vflash_nand::{NandConfig, NandDevice};

    fn setup() -> (NandDevice, VirtualBlockTable) {
        let config = NandConfig::builder()
            .chips(1)
            .blocks_per_chip(8)
            .pages_per_block(8)
            .page_size_bytes(4096)
            .build()
            .unwrap();
        let device = NandDevice::new(config);
        let table = VirtualBlockTable::new(device.config(), 2);
        (device, table)
    }

    /// Programs one page via the writer, returning the block that received it.
    fn write_one(
        writer: &mut AreaWriter,
        desired: usize,
        device: &mut NandDevice,
        table: &VirtualBlockTable,
    ) -> BlockAddr {
        let block = writer.target(desired, device).unwrap();
        device.program_next(block).unwrap();
        writer.after_program(block, device, table);
        block
    }

    #[test]
    fn first_write_allocates_a_block_at_the_slow_class() {
        let (mut device, table) = setup();
        let mut writer = AreaWriter::new("hot", &table, 2);
        let block = write_one(&mut writer, 1, &mut device, &table);
        assert_eq!(writer.blocks_owned(), 1);
        // Even though the write wanted the fast class, the block starts at page 0.
        assert_eq!(device.block(block).unwrap().valid_pages(), 1);
        assert!(writer.has_open(0));
        assert!(!writer.has_open(1));
        assert_eq!(writer.name(), "hot");
    }

    #[test]
    fn block_advances_from_slow_class_to_fast_class() {
        let (mut device, table) = setup();
        let mut writer = AreaWriter::new("hot", &table, 2);
        // 4 slow writes fill the slow half of the 8-page block.
        for _ in 0..4 {
            write_one(&mut writer, 0, &mut device, &table);
        }
        assert!(!writer.has_open(0));
        assert!(writer.has_open(1));
        // A fast-preferring write now lands on the fast half of the same block.
        let block = write_one(&mut writer, 1, &mut device, &table);
        assert_eq!(writer.blocks_owned(), 1, "no extra block should be allocated");
        assert_eq!(device.block(block).unwrap().valid_pages(), 5);
    }

    #[test]
    fn pipeline_keeps_slow_and_fast_streams_on_different_blocks() {
        let (mut device, table) = setup();
        let mut writer = AreaWriter::new("hot", &table, 2);
        // Fill the slow half of the first block; it advances to the fast class.
        let mut first = None;
        for _ in 0..4 {
            first = Some(write_one(&mut writer, 0, &mut device, &table));
        }
        let first = first.unwrap();
        // The next slow-preferring write opens a second block (Figure 8, step 3)
        // instead of spilling into the fast half of the first.
        let second = write_one(&mut writer, 0, &mut device, &table);
        assert_ne!(first, second);
        assert_eq!(writer.blocks_owned(), 2);
        // Fast-preferring writes keep landing on the first block's fast half.
        let fast_target = write_one(&mut writer, 1, &mut device, &table);
        assert_eq!(fast_target, first);
        assert_eq!(writer.open_blocks().count(), 2);
    }

    #[test]
    fn single_open_block_budget_degenerates_to_sequential_fill() {
        let (mut device, table) = setup();
        let mut writer = AreaWriter::new("cold", &table, 1);
        for _ in 0..8 {
            write_one(&mut writer, 0, &mut device, &table);
        }
        assert_eq!(writer.open_blocks().count(), 0, "full block must be retired");
        assert_eq!(writer.blocks_owned(), 1);
        write_one(&mut writer, 0, &mut device, &table);
        assert_eq!(writer.blocks_owned(), 2);
    }

    #[test]
    fn diversion_respects_the_open_block_budget() {
        let (mut device, table) = setup();
        let mut writer = AreaWriter::new("hot", &table, 1);
        // Fill the slow half so only the fast class is open.
        for _ in 0..4 {
            write_one(&mut writer, 0, &mut device, &table);
        }
        // With a budget of one open block, a slow-preferring write is diverted into
        // the fast half rather than opening a new physical block (Algorithm 1).
        let block = write_one(&mut writer, 0, &mut device, &table);
        assert_eq!(writer.blocks_owned(), 1);
        assert_eq!(device.block(block).unwrap().valid_pages(), 5);
    }

    #[test]
    fn fast_writes_divert_to_slow_pages_rather_than_allocating() {
        let (mut device, table) = setup();
        let mut writer = AreaWriter::new("hot", &table, 2);
        // Only a slow virtual block is open; an iron-hot write must use it
        // (Algorithm 1: "if Iron-hot list has no free space, divert to Hot VB").
        let first = write_one(&mut writer, 0, &mut device, &table);
        let diverted = write_one(&mut writer, 1, &mut device, &table);
        assert_eq!(first, diverted);
        assert_eq!(writer.blocks_owned(), 1);
    }

    #[test]
    fn out_of_space_is_reported() {
        let (mut device, table) = setup();
        while device.allocate_block().is_some() {}
        let mut writer = AreaWriter::new("hot", &table, 2);
        assert!(matches!(
            writer.target(0, &mut device),
            Err(FtlError::OutOfSpace)
        ));
    }

    #[test]
    fn four_class_blocks_walk_through_every_class() {
        let config = NandConfig::builder()
            .chips(1)
            .blocks_per_chip(4)
            .pages_per_block(8)
            .page_size_bytes(4096)
            .build()
            .unwrap();
        let mut device = NandDevice::new(config);
        let table = VirtualBlockTable::new(device.config(), 4);
        let mut writer = AreaWriter::new("hot", &table, 1);
        assert_eq!(writer.classes(), 4);
        // With a budget of one open block, eight fast-preferring writes walk the block
        // through every class until it is full and retired.
        for _ in 0..8 {
            write_one(&mut writer, 3, &mut device, &table);
        }
        assert_eq!(writer.blocks_owned(), 1);
        assert_eq!(writer.open_blocks().count(), 0);
    }

    #[test]
    fn evicted_blocks_leave_the_open_lists() {
        let (mut device, table) = setup();
        let mut writer = AreaWriter::new("hot", &table, 2);
        let block = write_one(&mut writer, 0, &mut device, &table);
        assert!(writer.has_open(0));
        assert!(writer.evict(block));
        assert_eq!(writer.open_blocks().count(), 0);
        assert!(!writer.evict(block), "a second evict is a no-op");
        // The next write allocates a replacement instead of reusing the evicted block.
        let replacement = write_one(&mut writer, 0, &mut device, &table);
        assert_ne!(block, replacement);
    }

    #[test]
    fn striped_writer_rotates_consecutive_programs_across_blocks() {
        let (mut device, table) = setup();
        let mut writer = AreaWriter::new("cold", &table, 2);
        writer.set_stripe(4);
        let targets: Vec<BlockAddr> = (0..8)
            .map(|_| write_one(&mut writer, 0, &mut device, &table))
            .collect();
        // The first four programs each open a fresh lane; the next four rotate
        // through the same lanes in order.
        let lanes: Vec<BlockAddr> = targets[..4].to_vec();
        assert_eq!(lanes.iter().collect::<std::collections::HashSet<_>>().len(), 4);
        assert_eq!(&targets[4..], &lanes[..]);
        assert_eq!(writer.blocks_owned(), 4);
        // Fast-preferring writes divert into the rotation rather than stalling
        // on a single lane.
        let diverted = write_one(&mut writer, 1, &mut device, &table);
        assert!(lanes.contains(&diverted));
    }

    #[test]
    fn stripe_of_one_is_the_unstriped_baseline() {
        let (mut unstriped_device, table) = setup();
        let (mut striped_device, _) = setup();
        let mut unstriped = AreaWriter::new("hot", &table, 2);
        let mut striped = AreaWriter::new("hot", &table, 2);
        striped.set_stripe(1);
        for write in 0..24 {
            let desired = usize::from(write % 3 == 0);
            let a = write_one(&mut unstriped, desired, &mut unstriped_device, &table);
            let b = write_one(&mut striped, desired, &mut striped_device, &table);
            assert_eq!(a, b, "write {write} diverged");
        }
        assert_eq!(unstriped.blocks_owned(), striped.blocks_owned());
    }

    #[test]
    #[should_panic(expected = "at least one open block")]
    fn zero_open_block_budget_rejected() {
        let (_, table) = setup();
        let _ = AreaWriter::new("hot", &table, 0);
    }
}
