//! The device: chips + latency model + flash state machine.

use crate::address::{BlockAddr, ChipId, PageAddr, PageId};
use crate::block::Block;
use crate::chip::Chip;
use crate::config::NandConfig;
use crate::error::NandError;
use crate::fault::{FaultState, ReadFaultInfo};
use crate::latency::LatencyModel;
use crate::provenance::{OpKind, OpRecord, OpSpan};
use crate::stats::DeviceStats;
use crate::time::Nanos;

/// A 3D charge-trap NAND device: an array of chips with an asymmetric per-layer
/// latency model and cumulative statistics.
///
/// Every operation returns the latency it would take on real hardware, so callers
/// (FTLs, simulators) can account time without the device owning a clock.
///
/// # Free-block accounting
///
/// Each chip keeps an exact FIFO pool of its allocatable blocks, so
/// [`NandDevice::allocate_block`] pops the front of a pool and
/// [`NandDevice::available_blocks`] adds up their lengths, neither scanning the
/// blocks; an erase appends the block to the back. The blocks a garbage collector
/// can reclaim with benefit (full, at least one invalid page) are filed per chip
/// under their invalid-page count, so [`NandDevice::greedy_victim`] reads
/// O(chips x blocks / 64) words, independent of how many candidates there are.
/// [`NandDevice::check_invariants`] recounts all of it from the blocks.
///
/// # Chip-level interleaving
///
/// Chips are independent dies behind a shared channel: operations on *different*
/// chips overlap in time, while operations on the same chip serialise. The device
/// models this with a per-chip busy clock — every operation adds its latency to
/// its chip's clock, and [`NandDevice::makespan`] (the maximum clock) is the time
/// at which a device servicing the whole operation stream with perfect chip
/// interleaving would go idle. The serial sum remains available as
/// [`DeviceStats::busy_time`]. [`NandDevice::allocate_block`] hands out blocks
/// round-robin across chips so consecutive writes actually land on different
/// chips and can overlap.
///
/// # Example
///
/// ```
/// use vflash_nand::{NandConfig, NandDevice};
///
/// # fn main() -> Result<(), vflash_nand::NandError> {
/// let mut device = NandDevice::new(NandConfig::small());
/// let block = device.allocate_block().expect("fresh device");
/// let (page, latency) = device.program_next(block)?;
/// assert!(latency > vflash_nand::Nanos::ZERO);
/// device.invalidate(block.page(page))?;
/// let erase_latency = device.erase(block)?;
/// assert_eq!(erase_latency, device.config().erase_latency());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NandDevice {
    config: NandConfig,
    latency: LatencyModel,
    chips: Vec<Chip>,
    stats: DeviceStats,
    /// Next chip to try for round-robin block allocation.
    next_alloc_chip: usize,
    /// Logical modification clock: incremented by every state-changing operation
    /// (program, invalidate, erase). Blocks record the clock at their last change;
    /// the difference is the retention age the fault model reads.
    mod_seq: u64,
    /// Whether timed operations are recorded into `op_trace`.
    trace_ops: bool,
    /// The op arena: provenance of timed operations since the last
    /// [`NandDevice::clear_ops`], only populated while `trace_ops` is set.
    /// FTLs hand out [`OpSpan`] index ranges into this buffer instead of
    /// per-request vectors, so steady-state tracing never allocates.
    op_trace: Vec<OpRecord>,
    /// The deterministic fault model, present only when
    /// [`FaultConfig::enabled`](crate::FaultConfig::enabled) is set — so the
    /// fault-free hot paths cost one `Option` branch and stay bit-identical to
    /// their golden baselines.
    fault: Option<FaultState>,
    /// Fault outcome of the most recent read (see
    /// [`NandDevice::last_read_faults`]).
    last_read_faults: ReadFaultInfo,
}

impl NandDevice {
    /// Builds a device with every block erased.
    pub fn new(config: NandConfig) -> Self {
        let latency = config.latency_model();
        let chips = (0..config.chips())
            .map(|_| Chip::new(config.blocks_per_chip(), config.pages_per_block()))
            .collect();
        let fault = config
            .faults()
            .enabled
            .then(|| FaultState::new(*config.faults(), config.chips()));
        NandDevice {
            config,
            latency,
            chips,
            stats: DeviceStats::new(),
            next_alloc_chip: 0,
            mod_seq: 0,
            trace_ops: false,
            op_trace: Vec::new(),
            fault,
            last_read_faults: ReadFaultInfo::default(),
        }
    }

    /// The configuration this device was built from.
    pub fn config(&self) -> &NandConfig {
        &self.config
    }

    /// The per-layer latency model.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// The logical modification clock: a counter incremented by every
    /// state-changing operation (program, invalidate, erase). The difference
    /// between this and a block's [`Block::last_modified`] is the block's *age*,
    /// the retention term of the fault model's error rate.
    pub fn mod_seq(&self) -> u64 {
        self.mod_seq
    }

    /// Enables or disables op-provenance tracing (see [`OpRecord`]). Toggling
    /// clears the op arena, so the first span taken after enabling only covers
    /// operations performed since.
    ///
    /// Off by default: when disabled, operations cost one predictable branch,
    /// [`NandDevice::op_mark`] stays pinned at zero and every span is empty.
    pub fn set_op_tracing(&mut self, enabled: bool) {
        self.trace_ops = enabled;
        self.op_trace.clear();
    }

    /// Whether op-provenance tracing is currently enabled.
    pub fn op_tracing(&self) -> bool {
        self.trace_ops
    }

    /// The current high-water mark of the op arena. An FTL captures this at the
    /// top of a request and turns everything recorded since into a span with
    /// [`NandDevice::ops_since`].
    pub fn op_mark(&self) -> u32 {
        self.op_trace.len() as u32
    }

    /// The span of operations recorded since `mark` (a value previously taken
    /// from [`NandDevice::op_mark`]). Empty when tracing is disabled.
    pub fn ops_since(&self, mark: u32) -> OpSpan {
        OpSpan { start: mark, len: self.op_trace.len() as u32 - mark }
    }

    /// Resolves a span back to its records. The span must come from this device
    /// and the arena must not have been cleared since it was taken.
    ///
    /// # Panics
    ///
    /// Panics if the span reaches past the end of the arena (a stale span from
    /// before a [`NandDevice::clear_ops`], or one from a different device).
    pub fn ops(&self, span: OpSpan) -> &[OpRecord] {
        &self.op_trace[span.range()]
    }

    /// Releases the op arena. Drivers call this once a completion's records
    /// have been played; the backing buffer keeps its capacity, so steady-state
    /// tracing performs no allocation at all. All previously taken spans become
    /// stale.
    pub fn clear_ops(&mut self) {
        self.op_trace.clear();
    }

    fn record_op(&mut self, chip: ChipId, kind: OpKind, latency: Nanos) {
        if self.trace_ops {
            self.op_trace.push(OpRecord::new(chip, kind, latency));
        }
    }

    /// Immutable access to one chip.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::ChipOutOfRange`] for an invalid chip id.
    pub fn chip(&self, chip: ChipId) -> Result<&Chip, NandError> {
        self.chips
            .get(chip.0)
            .ok_or(NandError::ChipOutOfRange { chip: chip.0, chips: self.chips.len() })
    }

    /// Immutable access to one block.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::ChipOutOfRange`] or [`NandError::BlockOutOfRange`] for
    /// invalid addresses.
    pub fn block(&self, addr: BlockAddr) -> Result<&Block, NandError> {
        let chip = self.chip(addr.chip())?;
        chip.block(addr.index()).ok_or(NandError::BlockOutOfRange {
            block: addr,
            blocks_per_chip: self.config.blocks_per_chip(),
        })
    }

    /// Validates `addr` and returns the owning chip mutably.
    fn chip_for(&mut self, addr: BlockAddr) -> Result<&mut Chip, NandError> {
        let chips = self.chips.len();
        let blocks_per_chip = self.config.blocks_per_chip();
        let chip = self
            .chips
            .get_mut(addr.chip().0)
            .ok_or(NandError::ChipOutOfRange { chip: addr.chip().0, chips })?;
        if addr.index() >= chip.len() {
            return Err(NandError::BlockOutOfRange { block: addr, blocks_per_chip });
        }
        Ok(chip)
    }

    /// Iterates over the addresses of all blocks in the device, chip by chip.
    pub fn block_addrs(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        let blocks_per_chip = self.config.blocks_per_chip();
        (0..self.chips.len()).flat_map(move |c| {
            (0..blocks_per_chip).map(move |b| BlockAddr::new(ChipId(c), b))
        })
    }

    /// Takes a free block out of the allocation pool, rotating round-robin across
    /// chips so consecutive allocations land on different chips (and their
    /// programs can overlap in time). O(chips) worst case, O(1) typically.
    ///
    /// The block remains in [`BlockState::Free`](crate::BlockState::Free) until programmed; it returns to
    /// the pool automatically when it is next erased.
    pub fn allocate_block(&mut self) -> Option<BlockAddr> {
        let chips = self.chips.len();
        for offset in 0..chips {
            let chip = (self.next_alloc_chip + offset) % chips;
            if let Some(index) = self.chips[chip].allocate() {
                self.next_alloc_chip = (chip + 1) % chips;
                return Some(BlockAddr::new(ChipId(chip), index));
            }
        }
        None
    }

    /// Number of blocks available for allocation (free and not leased out). O(chips).
    pub fn available_blocks(&self) -> usize {
        self.chips.iter().map(Chip::available_blocks).sum()
    }

    /// The greedy garbage-collection victim: the candidate — a full block with at
    /// least one invalid page — with the most invalid pages that is not in
    /// `exclude`, ties broken towards the lowest address (chip, then index), so
    /// the choice does not depend on the order in which blocks became
    /// candidates. Answers from the per-chip bucketed index instead of scanning
    /// the blocks, and returns exactly what that scan would.
    pub fn greedy_victim(&self, exclude: &[BlockAddr]) -> Option<BlockAddr> {
        let mut best: Option<(BlockAddr, usize)> = None;
        for (chip, c) in self.chips.iter().enumerate() {
            let addr = |index| BlockAddr::new(ChipId(chip), index);
            let Some((index, invalid)) = c.greedy_victim(|index| exclude.contains(&addr(index)))
            else {
                continue;
            };
            // Chips are walked in address order, so a later chip only wins on
            // strictly more invalid pages.
            if best.is_none_or(|(_, most)| invalid > most) {
                best = Some((addr(index), invalid));
            }
        }
        best.map(|(addr, _)| addr)
    }

    /// Recounts every index the chips keep beside their blocks — the bad and
    /// erase counters, the allocation pools, the victim index — from a walk
    /// over the blocks. O(blocks x pages per block); for tests and oracles.
    ///
    /// # Errors
    ///
    /// Describes the first disagreement found.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.chips.iter().enumerate().try_for_each(|(chip, c)| {
            c.check_invariants().map_err(|err| format!("{}: {err}", ChipId(chip)))
        })
    }

    /// Total erase operations performed across the device (total wear). O(chips).
    pub fn total_erases(&self) -> u64 {
        self.chips.iter().map(Chip::total_erases).sum()
    }

    /// Number of blocks retired as bad across the device. O(chips).
    pub fn bad_block_count(&self) -> usize {
        self.chips.iter().map(Chip::bad_blocks).sum()
    }

    /// The fault outcome of the most recent [`NandDevice::read`]: retry steps
    /// taken, the latency they added, and whether the read was uncorrectable.
    /// All zeros with faults disabled.
    pub fn last_read_faults(&self) -> ReadFaultInfo {
        self.last_read_faults
    }

    /// Retires a block as bad without a failing operation, modelling
    /// factory-marked or externally detected bad blocks. The block leaves the
    /// allocation pool and the victim index and will never accept a
    /// program or erase again; surviving valid pages remain readable.
    /// Idempotent, and takes no device time.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::ChipOutOfRange`] or [`NandError::BlockOutOfRange`]
    /// for invalid addresses.
    pub fn retire_block(&mut self, block: BlockAddr) -> Result<(), NandError> {
        if self.block(block)?.is_bad() {
            return Ok(());
        }
        let _ = self.retire_failed_block(block, |block| NandError::ProgramFailed { block });
        Ok(())
    }

    /// Retires a not-yet-bad block after a failed operation: marks it bad,
    /// fixes the chip accounting and stamps the modification clock (retirement
    /// is a state change — the block just left the usable pool).
    fn retire_failed_block(
        &mut self,
        block: BlockAddr,
        error: impl FnOnce(BlockAddr) -> NandError,
    ) -> NandError {
        self.chips[block.chip().0].retire_block(block.index());
        self.mod_seq += 1;
        self.chips[block.chip().0].touch_block(block.index(), self.mod_seq);
        error(block)
    }

    /// Total busy time of one chip.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::ChipOutOfRange`] for an invalid chip id.
    pub fn chip_busy_time(&self, chip: ChipId) -> Result<Nanos, NandError> {
        self.chip(chip).map(Chip::busy_time)
    }

    /// The time at which a device overlapping operations across its chips goes
    /// idle: the maximum per-chip busy time. For a single-chip device this equals
    /// [`DeviceStats::busy_time`](crate::DeviceStats::busy_time); for a multi-chip
    /// device with well-spread traffic it approaches `busy_time / chips`.
    pub fn makespan(&self) -> Nanos {
        self.chips.iter().map(Chip::busy_time).max().unwrap_or(Nanos::ZERO)
    }

    /// Reads a page, returning the latency (cell sensing + bus transfer).
    ///
    /// With faults enabled, the read may need retry-ladder steps whose
    /// configured penalty is folded into the returned latency (and into the op
    /// record, so replay engines charge it as ordinary service time); the
    /// per-read breakdown is available via [`NandDevice::last_read_faults`].
    ///
    /// # Errors
    ///
    /// * Address errors for out-of-range chips/blocks/pages.
    /// * [`NandError::PageNotValid`] if the page does not hold live data.
    /// * [`NandError::UncorrectableRead`] if the retry ladder was exhausted.
    ///   The device still charged the base-plus-full-ladder latency to the
    ///   chip's busy clock and recorded the op — the sensing happened, the data
    ///   is just gone.
    pub fn read(&mut self, addr: PageAddr) -> Result<Nanos, NandError> {
        let pages_per_block = self.config.pages_per_block();
        if addr.page().0 >= pages_per_block {
            return Err(NandError::PageOutOfRange { page: addr.page(), pages_per_block });
        }
        let (erase_count, last_modified) = {
            let block = self.block(addr.block())?;
            let state = block.page_state(addr.page())?;
            if !matches!(state, crate::page::PageState::Valid) {
                return Err(NandError::PageNotValid { page: addr, actual: state.label() });
            }
            (block.erase_count(), block.last_modified())
        };
        let mut latency = self.latency.read_total(addr.page());
        let mut uncorrectable = false;
        self.last_read_faults = ReadFaultInfo::default();
        if let Some(fault) = self.fault.as_mut() {
            let retention_age = self.mod_seq.saturating_sub(last_modified);
            let page_bits = self.config.page_size_bytes() as u64 * 8;
            let outcome =
                fault.read_outcome(addr.block().chip().0, erase_count, retention_age, page_bits);
            latency += outcome.retry_time;
            uncorrectable = outcome.uncorrectable;
            self.last_read_faults = ReadFaultInfo { total_time: latency, ..outcome };
        }
        self.stats.record_read(latency);
        self.chips[addr.block().chip().0].add_busy(latency);
        self.record_op(addr.block().chip(), OpKind::Read, latency);
        if uncorrectable {
            return Err(NandError::UncorrectableRead { page: addr });
        }
        Ok(latency)
    }

    /// Programs the next free page of a block, returning the page programmed
    /// and the latency. This is the device's only program operation, so a 3D
    /// NAND block is programmed strictly in layer order by construction.
    ///
    /// # Errors
    ///
    /// * Address errors for out-of-range chips/blocks.
    /// * [`NandError::BlockFull`] if the block has no free pages.
    /// * [`NandError::ProgramFailed`] if the block is bad, or the fault model
    ///   fails the program — which retires the block. Failure detection is
    ///   modelled as instantaneous: no device time is charged and no op is
    ///   recorded; the successful re-drive carries the cost.
    pub fn program_next(&mut self, block: BlockAddr) -> Result<(PageId, Nanos), NandError> {
        let blk = self.block(block)?;
        if blk.is_bad() {
            return Err(NandError::ProgramFailed { block });
        }
        let page = blk.next_page().ok_or(NandError::BlockFull { block })?;
        let erase_count = blk.erase_count();
        if let Some(fault) = self.fault.as_mut() {
            if fault.program_fails(block.chip().0, erase_count) {
                return Err(self.retire_failed_block(block, |block| {
                    NandError::ProgramFailed { block }
                }));
            }
        }
        let latency = self.latency.program_total(page);
        self.stats.record_program(latency);
        self.mod_seq += 1;
        let chip = &mut self.chips[block.chip().0];
        chip.program_block(block.index());
        chip.add_busy(latency);
        chip.touch_block(block.index(), self.mod_seq);
        self.record_op(block.chip(), OpKind::Program, latency);
        Ok((page, latency))
    }

    /// Marks a valid page as invalid (stale). This models the mapping-table update of
    /// an out-of-place write and takes no device time.
    ///
    /// # Errors
    ///
    /// * Address errors for out-of-range chips/blocks/pages.
    /// * [`NandError::PageNotValid`] if the page is free or already invalid.
    pub fn invalidate(&mut self, addr: PageAddr) -> Result<(), NandError> {
        let pages_per_block = self.config.pages_per_block();
        if addr.page().0 >= pages_per_block {
            return Err(NandError::PageOutOfRange { page: addr.page(), pages_per_block });
        }
        self.chip_for(addr.block())?
            .invalidate_page(addr.block().index(), addr.page())
            .map_err(|state| NandError::PageNotValid { page: addr, actual: state.label() })?;
        self.mod_seq += 1;
        self.chips[addr.block().chip().0].touch_block(addr.block().index(), self.mod_seq);
        Ok(())
    }

    /// Erases a block, returning the erase latency. The block re-enters the
    /// allocation pool of its chip, so no separate release step is needed after
    /// garbage collection.
    ///
    /// The caller (normally the garbage collector) must have relocated or invalidated
    /// every valid page first; erasing live data is almost always an FTL bug, so it is
    /// rejected rather than silently performed.
    ///
    /// # Errors
    ///
    /// * Address errors for out-of-range chips/blocks.
    /// * [`NandError::EraseWithValidPages`] if live pages remain in the block.
    /// * [`NandError::EraseFailed`] if the block is bad, or the fault model
    ///   fails the erase — which retires the block. Like failed programs,
    ///   failed erases charge no device time.
    pub fn erase(&mut self, block: BlockAddr) -> Result<Nanos, NandError> {
        let (valid, is_bad, erase_count) = {
            let blk = self.block(block)?;
            (blk.valid_pages(), blk.is_bad(), blk.erase_count())
        };
        if is_bad {
            return Err(NandError::EraseFailed { block });
        }
        if valid > 0 {
            return Err(NandError::EraseWithValidPages { block, valid_pages: valid });
        }
        if let Some(fault) = self.fault.as_mut() {
            if fault.erase_fails(block.chip().0, erase_count) {
                return Err(
                    self.retire_failed_block(block, |block| NandError::EraseFailed { block })
                );
            }
        }
        self.chip_for(block)?.erase_block(block.index());
        let latency = self.latency.erase_latency();
        self.stats.record_erase(latency);
        self.mod_seq += 1;
        let chip = &mut self.chips[block.chip().0];
        chip.add_busy(latency);
        chip.touch_block(block.index(), self.mod_seq);
        self.record_op(block.chip(), OpKind::Erase, latency);
        Ok(latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_device() -> NandDevice {
        let config = NandConfig::builder()
            .chips(2)
            .blocks_per_chip(4)
            .pages_per_block(4)
            .page_size_bytes(4096)
            .speed_ratio(4.0)
            .build()
            .unwrap();
        NandDevice::new(config)
    }

    #[test]
    fn fresh_device_is_fully_free() {
        let device = small_device();
        assert_eq!(device.available_blocks(), 8);
        assert_eq!(device.total_erases(), 0);
        assert_eq!(device.block_addrs().count(), 8);
    }

    #[test]
    fn read_requires_valid_page() {
        let mut device = small_device();
        let block = device.allocate_block().unwrap();
        let err = device.read(block.page(PageId(0))).unwrap_err();
        assert!(matches!(err, NandError::PageNotValid { .. }));
        device.program_next(block).unwrap();
        assert!(device.read(block.page(PageId(0))).is_ok());
    }

    #[test]
    fn program_enforces_layer_order() {
        let mut device = small_device();
        let block = device.allocate_block().unwrap();
        for expected in 0..4 {
            let (page, _) = device.program_next(block).unwrap();
            assert_eq!(page, PageId(expected));
        }
        let (before, stats) = (device.block(block).unwrap().clone(), device.stats().counts);
        assert!(matches!(device.program_next(block), Err(NandError::BlockFull { .. })));
        assert_eq!(device.block(block).unwrap(), &before, "a refused program changes nothing");
        assert_eq!(device.stats().counts, stats);
    }

    #[test]
    fn bottom_pages_are_faster_than_top_pages() {
        let mut device = small_device();
        let block = device.allocate_block().unwrap();
        let (_, top) = device.program_next(block).unwrap();
        device.program_next(block).unwrap();
        device.program_next(block).unwrap();
        let (_, bottom) = device.program_next(block).unwrap();
        assert!(bottom < top, "bottom program {bottom} should beat top {top}");

        let top_read = device.read(block.page(PageId(0))).unwrap();
        let bottom_read = device.read(block.page(PageId(3))).unwrap();
        assert!(bottom_read < top_read);
    }

    #[test]
    fn erase_rejects_blocks_with_live_data() {
        let mut device = small_device();
        let block = device.allocate_block().unwrap();
        device.program_next(block).unwrap();
        assert!(matches!(
            device.erase(block),
            Err(NandError::EraseWithValidPages { valid_pages: 1, .. })
        ));
        device.invalidate(block.page(PageId(0))).unwrap();
        assert_eq!(device.erase(block).unwrap(), device.config().erase_latency());
        assert_eq!(device.total_erases(), 1);
        // The block is usable again, from its first page.
        assert_eq!(device.program_next(block).unwrap().0, PageId(0));
    }

    #[test]
    fn invalidate_twice_is_an_error() {
        let mut device = small_device();
        let block = device.allocate_block().unwrap();
        device.program_next(block).unwrap();
        device.invalidate(block.page(PageId(0))).unwrap();
        assert!(matches!(
            device.invalidate(block.page(PageId(0))),
            Err(NandError::PageNotValid { actual: "invalid", .. })
        ));
    }

    #[test]
    fn addressing_errors_are_reported() {
        let mut device = small_device();
        let bad_chip = BlockAddr::new(ChipId(9), 0);
        assert!(matches!(device.read(bad_chip.page(PageId(0))), Err(NandError::ChipOutOfRange { .. })));
        let bad_block = BlockAddr::new(ChipId(0), 99);
        assert!(matches!(device.program_next(bad_block), Err(NandError::BlockOutOfRange { .. })));
        let good_block = device.allocate_block().unwrap();
        assert!(matches!(
            device.read(good_block.page(PageId(99))),
            Err(NandError::PageOutOfRange { .. })
        ));
    }

    #[test]
    fn stats_track_operations_and_time() {
        let mut device = small_device();
        let block = device.allocate_block().unwrap();
        let (_, p) = device.program_next(block).unwrap();
        let r = device.read(block.page(PageId(0))).unwrap();
        device.invalidate(block.page(PageId(0))).unwrap();
        let e = device.erase(block).unwrap();
        let stats = device.stats();
        assert_eq!(stats.counts.reads, 1);
        assert_eq!(stats.counts.programs, 1);
        assert_eq!(stats.counts.erases, 1);
        assert_eq!(stats.busy_time(), p + r + e);
    }

    #[test]
    fn allocation_rotates_across_chips() {
        let mut device = small_device();
        let a = device.allocate_block().unwrap();
        let b = device.allocate_block().unwrap();
        let c = device.allocate_block().unwrap();
        assert_eq!(a, BlockAddr::new(ChipId(0), 0));
        assert_eq!(b, BlockAddr::new(ChipId(1), 0));
        assert_eq!(c, BlockAddr::new(ChipId(0), 1));
        // Leased blocks are still erased but no longer allocatable.
        assert_eq!(device.block(a).unwrap().state(), crate::BlockState::Free);
        assert_eq!(device.available_blocks(), 5);
    }

    #[test]
    fn allocation_pool_drains_and_refills_through_erase() {
        let mut device = small_device();
        let mut taken = Vec::new();
        while let Some(block) = device.allocate_block() {
            taken.push(block);
        }
        assert_eq!(taken.len(), 8);
        assert_eq!(device.available_blocks(), 0);
        assert_eq!(device.allocate_block(), None);
        // Erasing a (still free) leased block returns it to its chip's pool.
        device.erase(taken[0]).unwrap();
        assert_eq!(device.available_blocks(), 1);
        assert_eq!(device.allocate_block(), Some(taken[0]));
    }

    #[test]
    fn greedy_victim_is_the_full_block_with_the_most_invalid_pages() {
        let mut device = small_device();
        let block = device.allocate_block().unwrap();
        for _ in 0..4 {
            device.program_next(block).unwrap();
        }
        assert_eq!(device.greedy_victim(&[]), None, "fully valid blocks are kept");
        device.invalidate(block.page(PageId(1))).unwrap();
        assert_eq!(device.greedy_victim(&[]), Some(block));
        // An open block is no candidate however stale; a fuller one outbids `block`.
        let open = device.allocate_block().unwrap();
        device.program_next(open).unwrap();
        device.invalidate(open.page(PageId(0))).unwrap();
        assert_eq!(device.greedy_victim(&[]), Some(block));
        for page in 1..4 {
            device.program_next(open).unwrap();
            device.invalidate(open.page(PageId(page))).unwrap();
        }
        assert_eq!(device.greedy_victim(&[]), Some(open));
        assert_eq!(device.greedy_victim(&[open]), Some(block));
        assert_eq!(device.greedy_victim(&[open, block]), None);
        device.erase(open).unwrap();
        assert_eq!(device.greedy_victim(&[]), Some(block));
        device.check_invariants().unwrap();
    }

    #[test]
    fn makespan_tracks_the_busiest_chip() {
        let mut device = small_device();
        let a = device.allocate_block().unwrap(); // chip 0
        let b = device.allocate_block().unwrap(); // chip 1
        assert_ne!(a.chip(), b.chip());
        let (_, first) = device.program_next(a).unwrap();
        let (_, second) = device.program_next(b).unwrap();
        // Both programs target page 0 of their block, so the chips are equally busy
        // and the makespan is one program, not two.
        assert_eq!(first, second);
        assert_eq!(device.makespan(), first);
        assert_eq!(device.stats().busy_time(), first + second);
        assert_eq!(device.chip_busy_time(a.chip()).unwrap(), first);
        // A second program on chip 0 makes it the busiest chip.
        let (_, third) = device.program_next(a).unwrap();
        assert_eq!(device.makespan(), first + third);
        assert!(matches!(
            device.chip_busy_time(ChipId(9)),
            Err(NandError::ChipOutOfRange { .. })
        ));
    }

    #[test]
    fn op_tracing_records_provenance_only_while_enabled() {
        let mut device = small_device();
        let block = device.allocate_block().unwrap();
        let mark = device.op_mark();
        device.program_next(block).unwrap();
        assert!(device.ops_since(mark).is_empty(), "tracing is off by default");
        assert!(!device.op_tracing());

        device.set_op_tracing(true);
        assert!(device.op_tracing());
        let mark = device.op_mark();
        let (_, program) = device.program_next(block).unwrap();
        let read = device.read(block.page(PageId(0))).unwrap();
        device.invalidate(block.page(PageId(0))).unwrap();
        let span = device.ops_since(mark);
        assert_eq!(
            device.ops(span),
            &[
                OpRecord::new(block.chip(), OpKind::Program, program),
                OpRecord::new(block.chip(), OpKind::Read, read),
            ],
            "invalidate takes no device time and must not be recorded"
        );

        // Later spans start after the earlier ones; both stay resolvable until
        // the arena is cleared.
        let mark = device.op_mark();
        device.invalidate(block.page(PageId(1))).unwrap();
        let erase = device.erase(block).unwrap();
        let erase_span = device.ops_since(mark);
        assert_eq!(erase_span.start, span.len);
        assert_eq!(device.ops(erase_span), &[OpRecord::new(block.chip(), OpKind::Erase, erase)]);
        assert_eq!(device.ops(span).len(), 2, "earlier spans remain valid");

        device.clear_ops();
        assert_eq!(device.op_mark(), 0, "clear releases the arena");

        device.set_op_tracing(false);
        let mark = device.op_mark();
        device.program_next(block).unwrap();
        assert!(device.ops_since(mark).is_empty());
    }

    #[test]
    fn op_arena_keeps_its_capacity_across_clears() {
        let mut device = small_device();
        let block = device.allocate_block().unwrap();
        device.set_op_tracing(true);
        device.program_next(block).unwrap();
        device.program_next(block).unwrap();
        let capacity = device.op_trace.capacity();
        let pointer = device.op_trace.as_ptr();
        device.clear_ops();
        device.program_next(block).unwrap();
        assert_eq!(device.op_trace.capacity(), capacity, "clear must not shrink the arena");
        assert_eq!(device.op_trace.as_ptr(), pointer, "same buffer, no reallocation");
        assert_eq!(device.ops_since(0).len(), 1);
    }

    #[test]
    fn toggling_op_tracing_clears_buffered_records() {
        let mut device = small_device();
        let block = device.allocate_block().unwrap();
        device.set_op_tracing(true);
        device.program_next(block).unwrap();
        device.set_op_tracing(true);
        assert_eq!(device.op_mark(), 0, "re-enabling drops stale records");
    }

    #[test]
    fn mod_seq_advances_on_state_changes_and_stamps_blocks() {
        let mut device = small_device();
        assert_eq!(device.mod_seq(), 0);
        let block = device.allocate_block().unwrap();
        device.program_next(block).unwrap();
        assert_eq!(device.mod_seq(), 1);
        assert_eq!(device.block(block).unwrap().last_modified(), 1);
        // Reads do not advance the clock.
        device.read(block.page(PageId(0))).unwrap();
        assert_eq!(device.mod_seq(), 1);
        device.invalidate(block.page(PageId(0))).unwrap();
        assert_eq!(device.mod_seq(), 2);
        assert_eq!(device.block(block).unwrap().last_modified(), 2);
        device.erase(block).unwrap();
        assert_eq!(device.mod_seq(), 3);
        assert_eq!(device.block(block).unwrap().last_modified(), 3);
        // Untouched blocks keep their stamp, so their age keeps growing.
        let other = device.allocate_block().unwrap();
        assert_eq!(device.block(other).unwrap().last_modified(), 0);
    }

    #[test]
    fn fault_free_reads_report_zero_fault_info() {
        let mut device = small_device();
        let block = device.allocate_block().unwrap();
        device.program_next(block).unwrap();
        device.read(block.page(PageId(0))).unwrap();
        assert_eq!(device.last_read_faults(), crate::fault::ReadFaultInfo::default());
        assert_eq!(device.bad_block_count(), 0);
    }

    #[test]
    fn retired_blocks_reject_everything_but_reads_and_invalidations() {
        let mut device = small_device();
        let block = device.allocate_block().unwrap();
        device.program_next(block).unwrap();
        device.program_next(block).unwrap();
        let available_before = device.available_blocks();
        device.retire_block(block).unwrap();
        device.retire_block(block).unwrap(); // idempotent
        assert_eq!(device.bad_block_count(), 1);
        assert_eq!(device.available_blocks(), available_before);
        assert!(matches!(device.program_next(block), Err(NandError::ProgramFailed { .. })));
        // Surviving data stays readable; invalidation still works; erase is out.
        assert!(device.read(block.page(PageId(0))).is_ok());
        device.invalidate(block.page(PageId(0))).unwrap();
        device.invalidate(block.page(PageId(1))).unwrap();
        assert!(matches!(device.erase(block), Err(NandError::EraseFailed { .. })));
        assert_eq!(device.greedy_victim(&[]), None, "bad blocks are never GC candidates");
        assert!(std::iter::from_fn(|| device.allocate_block()).all(|free| free != block));
    }

    #[test]
    fn injected_program_failure_retires_the_block_without_charging_time() {
        let mut fault = crate::FaultConfig::enabled(11);
        fault.program_fail_base = 1.0; // every program fails
        fault.erase_fail_base = 0.0;
        fault.rber_scale = 0.0; // reads never retry
        let config = NandConfig::builder()
            .chips(1)
            .blocks_per_chip(4)
            .pages_per_block(2)
            .page_size_bytes(4096)
            .faults(fault)
            .build()
            .unwrap();
        let mut device = NandDevice::new(config);
        let block = device.allocate_block().unwrap();
        let busy_before = device.stats().busy_time();
        assert!(matches!(device.program_next(block), Err(NandError::ProgramFailed { .. })));
        assert_eq!(device.bad_block_count(), 1);
        assert_eq!(device.stats().busy_time(), busy_before, "failed programs are free");
        assert_eq!(device.stats().counts.programs, 0);
        // The device still has other blocks to offer.
        assert_eq!(device.available_blocks(), 3);
    }

    #[test]
    fn retry_latency_is_folded_into_read_latency_and_op_records() {
        let mut fault = crate::FaultConfig::enabled(1);
        // ≈20 expected bit errors per 16 KiB page: about half the reads need the
        // ladder and a few exhaust it.
        fault.rber_scale = 3.0;
        fault.program_fail_base = 0.0;
        fault.erase_fail_base = 0.0;
        let config = NandConfig::builder()
            .chips(1)
            .blocks_per_chip(2)
            .pages_per_block(2)
            .page_size_bytes(16 * 1024)
            .faults(fault)
            .build()
            .unwrap();
        let mut device = NandDevice::new(config);
        device.set_op_tracing(true);
        let block = device.allocate_block().unwrap();
        device.program_next(block).unwrap();
        let mut saw_retry = false;
        for _ in 0..50 {
            let mark = device.op_mark();
            let outcome = device.read(block.page(PageId(0)));
            let info = device.last_read_faults();
            match outcome {
                Ok(latency) => assert_eq!(info.total_time, latency),
                Err(err) => {
                    assert!(matches!(err, NandError::UncorrectableRead { .. }), "{err}");
                    assert!(info.uncorrectable);
                }
            }
            let ops = device.ops(device.ops_since(mark));
            assert_eq!(ops.len(), 1);
            assert_eq!(ops[0].latency, info.total_time, "op record must carry the retry penalty");
            if info.retries > 0 {
                saw_retry = true;
                let penalty = crate::fault::READ_RETRY_PENALTY;
                assert_eq!(info.retry_time, penalty * u64::from(info.retries));
            }
        }
        assert!(saw_retry, "the RBER curve at 3x must trigger at least one retry in 50 reads");
    }

    #[test]
    fn fault_streams_replay_identically_per_device() {
        let mut fault = crate::FaultConfig::enabled(77);
        fault.rber_scale = 30.0;
        let config = NandConfig::builder()
            .chips(2)
            .blocks_per_chip(4)
            .pages_per_block(4)
            .page_size_bytes(8 * 1024)
            .faults(fault)
            .build()
            .unwrap();
        let run = |config: NandConfig| {
            let mut device = NandDevice::new(config);
            let mut log = Vec::new();
            for _ in 0..3 {
                let block = device.allocate_block().unwrap();
                for _ in 0..4 {
                    device.program_next(block).unwrap();
                }
                for page in 0..4 {
                    match device.read(block.page(PageId(page))) {
                        Ok(latency) => log.push(latency.as_nanos()),
                        Err(_) => log.push(u64::MAX),
                    }
                }
            }
            log
        };
        assert_eq!(run(config.clone()), run(config), "same seed, same outcome sequence");
    }

    /// The greedy selection the index answers, as a linear scan of every block:
    /// full, at least one invalid page, not excluded; most invalid pages first,
    /// ties to the lowest address.
    fn linear_scan_victim(device: &NandDevice, exclude: &[BlockAddr]) -> Option<BlockAddr> {
        let mut best: Option<(BlockAddr, usize)> = None;
        for addr in device.block_addrs() {
            let block = device.block(addr).expect("block_addrs yields valid addresses");
            let invalid = block.invalid_pages();
            if block.state() != crate::BlockState::Full || invalid == 0 || exclude.contains(&addr) {
                continue;
            }
            match best {
                Some((best_addr, best_invalid))
                    if invalid < best_invalid || (invalid == best_invalid && addr > best_addr) => {}
                _ => best = Some((addr, invalid)),
            }
        }
        best.map(|(addr, _)| addr)
    }

    proptest! {
        /// Differential: after every step of a random allocate / program /
        /// invalidate / erase / retire stream — with injected program and erase
        /// failures — on 1-, 2- and 4-chip devices, the bucketed query returns
        /// what the linear scan returns for several exclusion lists, and every
        /// index recounts from the block states.
        #[test]
        fn greedy_victim_matches_the_linear_scan_after_every_step(
            chips in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
            wide in any::<bool>(),
            fault_seed in 0u64..1_000,
            steps in proptest::collection::vec((0u8..12, 0usize..1 << 16, 0u64..1 << 32), 1..300),
        ) {
            // 70 blocks per chip puts candidates in both words of a bitmap.
            let blocks_per_chip = if wide { 70 } else { 6 };
            let pages_per_block = 3;
            let mut faults = crate::FaultConfig::enabled(fault_seed);
            faults.program_fail_base = 0.02;
            faults.erase_fail_base = 0.1;
            faults.rber_scale = 0.0;
            let config = NandConfig::builder()
                .chips(chips)
                .blocks_per_chip(blocks_per_chip)
                .pages_per_block(pages_per_block)
                .page_size_bytes(4096)
                .faults(faults)
                .build()
                .unwrap();
            let mut device = NandDevice::new(config);
            // Activity concentrates on a few blocks per chip, at both ends of
            // the bitmap, so blocks fill, tie on their invalid counts and
            // cycle through erases within one stream.
            let busy = [0, 1, 2, 63, 64, 65, 69];
            let pick = |selector: usize| {
                let chip = ChipId(selector % chips);
                BlockAddr::new(chip, busy[selector / 4 % busy.len()] % blocks_per_chip)
            };
            let mut leased: Vec<BlockAddr> = Vec::new();
            for (op, selector, salt) in steps {
                let block = pick(selector);
                match op {
                    0 => leased.extend(device.allocate_block()),
                    1 => {
                        if let Some(block) = leased.pop() {
                            let _ = device.program_next(block);
                        }
                    }
                    2..=5 => {
                        // Fill: most blocks must reach `Full` to matter here.
                        while device.program_next(block).is_ok() {}
                    }
                    6..=8 => {
                        let _ = device.invalidate(block.page(PageId(salt as usize % pages_per_block)));
                    }
                    9 | 10 => {
                        for page in 0..pages_per_block {
                            let _ = device.invalidate(block.page(PageId(page)));
                        }
                        let _ = device.erase(block);
                    }
                    _ => device.retire_block(block).unwrap(),
                }
                prop_assert_eq!(device.check_invariants(), Ok(()));
                // Exclusion lists that bite: nothing, the winner, the winner
                // and the runner-up, and those plus a random block.
                let mut exclude: Vec<BlockAddr> = Vec::new();
                for _ in 0..3 {
                    let expected = linear_scan_victim(&device, &exclude);
                    prop_assert_eq!(device.greedy_victim(&exclude), expected, "exclude {:?}", exclude);
                    exclude.extend(expected);
                }
                exclude.push(pick(salt as usize >> 8));
                prop_assert_eq!(device.greedy_victim(&exclude), linear_scan_victim(&device, &exclude));
            }
        }
    }
}
