//! `AreaWriter` as it was before the O(1) rewrite: a queue scan, remove and push
//! per program, a sorted `Vec` per diverted write, `SpeedClass::of` for the class of
//! the write pointer. Code verbatim from the parent commit otherwise, docs dropped.

use std::collections::VecDeque;

use vflash_ftl::FtlError;
use vflash_nand::{BlockAddr, NandDevice};

use vflash_nand::SpeedClass;
use vflash_ppb::VirtualBlockTable;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AreaWriter {
    name: &'static str,
    open: Vec<VecDeque<BlockAddr>>,
    max_open_blocks: usize,
    stripe: usize,
    blocks_owned: u64,
}

impl AreaWriter {
    pub fn new(
        name: &'static str,
        virtual_blocks: &VirtualBlockTable,
        max_open_blocks: usize,
    ) -> Self {
        assert!(max_open_blocks > 0, "an area needs at least one open block");
        AreaWriter {
            name,
            open: vec![VecDeque::new(); virtual_blocks.per_block()],
            max_open_blocks,
            stripe: 1,
            blocks_owned: 0,
        }
    }

    pub fn set_stripe(&mut self, lanes: usize) {
        self.stripe = lanes.max(1);
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn blocks_owned(&self) -> u64 {
        self.blocks_owned
    }

    pub fn open_blocks(&self) -> Vec<BlockAddr> {
        self.open.iter().flatten().copied().collect()
    }

    pub fn classes(&self) -> usize {
        self.open.len()
    }

    fn class_of_write_pointer(
        device: &NandDevice,
        table: &VirtualBlockTable,
        block: BlockAddr,
    ) -> Option<usize> {
        let next = device.block(block).ok()?.next_page()?;
        Some(SpeedClass::of(next, device.config().pages_per_block(), table.per_block()).0)
    }

    pub fn target(
        &mut self,
        desired: usize,
        device: &mut NandDevice,
    ) -> Result<BlockAddr, FtlError> {
        let classes = self.open.len();
        debug_assert!(desired < classes, "desired class out of range");
        let total_open: usize = self.open.iter().map(VecDeque::len).sum();
        // The stripe widens the open-block budget by its extra lanes; at
        // stripe 1 this is exactly the configured budget.
        let budget = self.max_open_blocks + (self.stripe - 1);
        // Striped mode: open fresh blocks until the stripe's lanes are all
        // open. The round-robin free-list puts consecutive allocations on
        // different chips, and `after_program`'s front-rotation then spreads
        // consecutive programs across the lanes. At stripe 1 this fires only
        // when nothing at all is open, which is the unstriped behavior.
        if total_open < self.stripe {
            return self.allocate_block(device);
        }
        // Case 1: the desired class has an open virtual block.
        if let Some(&block) = self.open[desired].front() {
            return Ok(block);
        }
        // Case 2: slow-preferring writes may open a new block within the budget,
        // because a fresh block always starts programming at its slow virtual block.
        if desired == 0 && total_open < budget {
            return self.allocate_block(device);
        }
        // Case 3: divert to the nearest open class.
        let mut order: Vec<usize> = (0..classes).collect();
        order.sort_by_key(|&class| (class.abs_diff(desired), class));
        for class in order {
            if let Some(&block) = self.open[class].front() {
                return Ok(block);
            }
        }
        // Nothing open anywhere in the area: allocate a fresh physical block.
        self.allocate_block(device)
    }

    fn allocate_block(&mut self, device: &mut NandDevice) -> Result<BlockAddr, FtlError> {
        let fresh = device.allocate_block().ok_or(FtlError::OutOfSpace)?;
        self.blocks_owned += 1;
        self.open[0].push_back(fresh);
        Ok(fresh)
    }

    pub fn after_program(
        &mut self,
        block: BlockAddr,
        device: &NandDevice,
        table: &VirtualBlockTable,
    ) {
        for class_queue in &mut self.open {
            if let Some(position) = class_queue.iter().position(|&open| open == block) {
                class_queue.remove(position);
                break;
            }
        }
        if let Some(class) = Self::class_of_write_pointer(device, table, block) {
            self.open[class].push_back(block);
        }
        // A full block (no next page) is simply dropped from the open lists; it now
        // waits for garbage collection, matching the virtual-block lifecycle.
    }

    pub fn has_open(&self, class: usize) -> bool {
        !self.open[class].is_empty()
    }

    pub fn evict(&mut self, block: BlockAddr) -> bool {
        for class_queue in &mut self.open {
            if let Some(position) = class_queue.iter().position(|&open| open == block) {
                class_queue.remove(position);
                return true;
            }
        }
        false
    }
}
