//! A flash chip (die): an array of erase blocks with O(1) allocation and an
//! independent busy clock.
//!
//! Beside its blocks the chip keeps what makes the device's hot paths
//! constant-time —
//!
//! * an exact **free-block pool**: a FIFO holding exactly the allocatable
//!   blocks, never a stale entry, so allocation pops in O(1) instead of scanning
//!   every block,
//! * **counters** of wear (`total_erases`) and retired blocks (`bad_blocks`),
//! * a **greedy victim index** over the garbage-collection candidates (full
//!   blocks holding at least one invalid page): one block bitmap per
//!   invalid-page count plus a cursor on the highest occupied count, so the
//!   greedy pick (`Chip::greedy_victim`: most invalid pages, lowest index) reads
//!   the first set bit of one bitmap — O(blocks / 64) words, however many
//!   candidates exist — and refiling a block on invalidate stays O(1), and
//! * a **busy clock** accumulating the device time this chip spent servicing
//!   operations. Chips service operations independently, so the device-level
//!   makespan (`max` over chip busy times) models chip-level interleaving: a
//!   multi-chip device finishes a batch of operations as soon as its busiest chip
//!   does, not after the serial sum.
//!
//! Timing and state-machine *enforcement* still live in [`crate::NandDevice`],
//! which knows the latency model; the chip only maintains the accounting.

use std::collections::VecDeque;

use crate::address::PageId;
use crate::block::{Block, BlockState};
use crate::page::PageState;
use crate::time::Nanos;

/// One NAND die holding `blocks_per_chip` blocks.
///
/// Equality is structural and includes the free-pool order: two chips whose blocks
/// are in identical states but whose pools were built by different operation
/// histories hand out blocks in different orders, so they are genuinely different
/// states and compare unequal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chip {
    blocks: Vec<Block>,
    /// FIFO of exactly the blocks available for allocation: erased, not leased
    /// out, not bad, each queued once.
    free_pool: VecDeque<usize>,
    /// Whether each block is in `free_pool`.
    pooled: Vec<bool>,
    /// The greedy victim index: every candidate — a full block with at least one
    /// invalid page, exactly what a garbage collector can reclaim with benefit —
    /// filed under its invalid-page count. A pure function of the block states.
    victims: VictimIndex,
    /// Total erases performed on this chip.
    erases: u64,
    /// Blocks retired as bad on this chip.
    bad_blocks: usize,
    /// Total simulated time this chip spent busy servicing operations.
    busy_time: Nanos,
}

impl Chip {
    /// Creates a chip of erased blocks, all pooled for allocation.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(blocks_per_chip: usize, pages_per_block: usize) -> Self {
        assert!(blocks_per_chip > 0, "a chip needs at least one block");
        Chip {
            blocks: (0..blocks_per_chip).map(|_| Block::new(pages_per_block)).collect(),
            free_pool: (0..blocks_per_chip).collect(),
            pooled: vec![true; blocks_per_chip],
            victims: VictimIndex::new(blocks_per_chip, pages_per_block),
            erases: 0,
            bad_blocks: 0,
            busy_time: Nanos::ZERO,
        }
    }

    /// Number of blocks on the chip.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the chip holds zero blocks (never true for a constructed chip).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Immutable access to a block by index.
    pub fn block(&self, index: usize) -> Option<&Block> {
        self.blocks.get(index)
    }

    /// Iterates over the chip's blocks in index order.
    pub fn iter(&self) -> std::slice::Iter<'_, Block> {
        self.blocks.iter()
    }

    /// Number of blocks available for allocation. O(1).
    ///
    /// Blocks handed out by the crate-internal `Chip::allocate` but not
    /// programmed yet are still erased, but no longer allocatable.
    pub fn available_blocks(&self) -> usize {
        self.free_pool.len()
    }

    /// Sum of erase counts over all blocks (total wear of the chip). O(1).
    pub fn total_erases(&self) -> u64 {
        self.erases
    }

    /// Number of blocks retired as bad on this chip. O(1).
    pub fn bad_blocks(&self) -> usize {
        self.bad_blocks
    }

    /// Total simulated time this chip has spent servicing reads, programs and
    /// erases. Chips operate independently, so the device-wide makespan is the
    /// maximum of these, not the sum.
    pub fn busy_time(&self) -> Nanos {
        self.busy_time
    }

    /// Pops the front of the free pool, or `None` if no block is allocatable.
    ///
    /// The block stays in [`BlockState::Free`] until programmed but will not be
    /// handed out again until an erase returns it to the pool.
    pub(crate) fn allocate(&mut self) -> Option<usize> {
        let index = self.free_pool.pop_front()?;
        self.pooled[index] = false;
        Some(index)
    }

    /// Takes a block that is programmed or retired while still pooled out of
    /// the pool. O(blocks), and never on an FTL's path: both placements
    /// allocate a block before they program it.
    fn unpool(&mut self, index: usize) {
        if std::mem::take(&mut self.pooled[index]) {
            self.free_pool.retain(|&pooled| pooled != index);
        }
    }

    /// The greedy victim on this chip — most invalid pages, ties to the lowest
    /// index, skipping every index `excluded` accepts — with its invalid-page
    /// count. One bitmap walk, plus one per bucket that is excluded whole.
    pub(crate) fn greedy_victim(&self, excluded: impl Fn(usize) -> bool) -> Option<(usize, usize)> {
        self.victims.best(excluded)
    }

    /// Accumulates operation latency on this chip's busy clock.
    pub(crate) fn add_busy(&mut self, latency: Nanos) {
        self.busy_time += latency;
    }

    /// Stamps a block with the device's modification clock (see
    /// [`Block::last_modified`]).
    pub(crate) fn touch_block(&mut self, index: usize, seq: u64) {
        self.blocks[index].touch(seq);
    }

    /// Programs the next free page of a block, maintaining the accounting.
    pub(crate) fn program_block(&mut self, index: usize) -> Option<PageId> {
        let page = self.blocks[index].program_next()?;
        self.unpool(index);
        self.maybe_add_candidate(index);
        Some(page)
    }

    /// Invalidates a page, maintaining the victim index.
    pub(crate) fn invalidate_page(
        &mut self,
        index: usize,
        page: PageId,
    ) -> Result<(), PageState> {
        self.blocks[index].invalidate(page)?;
        self.maybe_add_candidate(index);
        Ok(())
    }

    /// Erases a block, appending it to the free pool unless it is already
    /// there and delisting it as a candidate.
    pub(crate) fn erase_block(&mut self, index: usize) {
        self.blocks[index].erase();
        self.erases += 1;
        self.victims.file(index, 0);
        if !std::mem::replace(&mut self.pooled[index], true) {
            self.free_pool.push_back(index);
        }
    }

    /// Retires a block as bad, pulling it out of the free pool (it can never
    /// be allocated) and the victim index (it can never be erased). The device
    /// layer only calls this for blocks not yet bad.
    pub(crate) fn retire_block(&mut self, index: usize) {
        self.blocks[index].mark_bad();
        self.unpool(index);
        self.victims.file(index, 0);
        self.bad_blocks += 1;
    }

    fn maybe_add_candidate(&mut self, index: usize) {
        let block = &self.blocks[index];
        let invalid = block.invalid_pages();
        if block.state() != BlockState::Full || invalid == 0 {
            return;
        }
        self.victims.file(index, invalid);
    }

    /// Recounts everything the chip keeps beside its blocks from a walk over
    /// them: the bad and erase counters; the free pool (each block queued at
    /// most once, exactly the blocks flagged as pooled, all of them free); and
    /// the victim index (a block is filed under its invalid-page count iff it is
    /// full — and so not bad — with at least one invalid page, each bucket's
    /// bitmap and occupancy say the same, and the cursor sits on the highest
    /// occupied bucket).
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let count = |state| self.blocks.iter().filter(|block| block.state() == state).count();
        let counters = [
            ("bad blocks", self.bad_blocks as u64, count(BlockState::Bad) as u64),
            ("erases", self.erases, self.blocks.iter().map(Block::erase_count).sum()),
        ];
        for (what, kept, recounted) in counters {
            if kept != recounted {
                return Err(format!("{what}: counter says {kept}, the blocks say {recounted}"));
            }
        }
        let mut queued = vec![false; self.blocks.len()];
        for &block in &self.free_pool {
            if std::mem::replace(&mut queued[block], true) {
                return Err(format!("block {block} is queued twice"));
            }
        }
        let index = &self.victims;
        let mut occupancy = vec![0u32; index.occupancy.len()];
        for (block, state) in self.blocks.iter().enumerate() {
            if self.pooled[block] != queued[block] {
                let (pooled, queued) = (self.pooled[block], queued[block]);
                return Err(format!("block {block} is flagged pooled {pooled}, queued {queued}"));
            }
            if queued[block] && state.state() != BlockState::Free {
                return Err(format!("pooled block {block} is {}", state.state()));
            }
            let expected = if state.state() == BlockState::Full { state.invalid_pages() } else { 0 };
            if index.filed[block] as usize != expected {
                let filed = index.filed[block];
                return Err(format!("block {block} is filed under {filed}, not {expected}"));
            }
            occupancy[expected] += u32::from(expected > 0);
            for bucket in 0..index.occupancy.len() {
                let word = index.bits[bucket * index.words_per_bucket + block / 64];
                if (word >> (block % 64) & 1 == 1) != (bucket == expected && bucket > 0) {
                    return Err(format!("bit of block {block} in bucket {bucket} is wrong"));
                }
            }
        }
        if index.occupancy != occupancy {
            return Err(format!("bucket occupancy {:?}, recounted {occupancy:?}", index.occupancy));
        }
        let highest = occupancy.iter().rposition(|&blocks| blocks > 0).unwrap_or(0);
        if index.max_invalid != highest {
            let cursor = index.max_invalid;
            return Err(format!("victim cursor at {cursor}, highest occupied bucket {highest}"));
        }
        Ok(())
    }
}

/// Candidates bucketed by invalid-page count: `bits` holds one block bitmap per
/// count (bucket 0, "not a candidate", stays empty), `filed[block]` the bucket a
/// block sits in, `occupancy` each bucket's population and `max_invalid` the
/// highest occupied bucket (0 = none).
#[derive(Debug, Clone, PartialEq, Eq)]
struct VictimIndex {
    bits: Vec<u64>,
    words_per_bucket: usize,
    filed: Vec<u32>,
    occupancy: Vec<u32>,
    max_invalid: usize,
}

impl VictimIndex {
    fn new(blocks: usize, pages_per_block: usize) -> Self {
        let words_per_bucket = blocks.div_ceil(64);
        VictimIndex {
            bits: vec![0; words_per_bucket * (pages_per_block + 1)],
            words_per_bucket,
            filed: vec![0; blocks],
            occupancy: vec![0; pages_per_block + 1],
            max_invalid: 0,
        }
    }

    /// Moves `block` to bucket `invalid` (0 delists it). O(1) amortised: the
    /// cursor only walks down over buckets an earlier call raised it past.
    fn file(&mut self, block: usize, invalid: usize) {
        let old = std::mem::replace(&mut self.filed[block], invalid as u32) as usize;
        if old == invalid {
            return;
        }
        let (word, mask) = (block / 64, 1u64 << (block % 64));
        if old != 0 {
            self.bits[old * self.words_per_bucket + word] &= !mask;
            self.occupancy[old] -= 1;
        }
        if invalid != 0 {
            self.bits[invalid * self.words_per_bucket + word] |= mask;
            self.occupancy[invalid] += 1;
            self.max_invalid = self.max_invalid.max(invalid);
        }
        while self.max_invalid > 0 && self.occupancy[self.max_invalid] == 0 {
            self.max_invalid -= 1;
        }
    }

    /// The lowest non-excluded block of the highest bucket that has one, with
    /// the bucket's invalid-page count.
    fn best(&self, excluded: impl Fn(usize) -> bool) -> Option<(usize, usize)> {
        for invalid in (1..=self.max_invalid).rev() {
            let bucket = &self.bits[invalid * self.words_per_bucket..][..self.words_per_bucket];
            for (word, &bits) in bucket.iter().enumerate() {
                let mut rest = bits;
                while rest != 0 {
                    let block = word * 64 + rest.trailing_zeros() as usize;
                    if !excluded(block) {
                        return Some((block, invalid));
                    }
                    rest &= rest - 1;
                }
            }
        }
        None
    }
}

impl<'a> IntoIterator for &'a Chip {
    type Item = &'a Block;
    type IntoIter = std::slice::Iter<'a, Block>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_block(chip: &mut Chip, index: usize, pages: usize) {
        for _ in 0..pages {
            chip.program_block(index).unwrap();
        }
    }

    #[test]
    fn new_chip_has_all_free_blocks() {
        let chip = Chip::new(8, 4);
        assert_eq!(chip.len(), 8);
        assert_eq!(chip.available_blocks(), 8);
        assert_eq!(chip.total_erases(), 0);
        assert_eq!(chip.busy_time(), Nanos::ZERO);
        assert!(!chip.is_empty());
    }

    #[test]
    fn block_access_is_bounds_checked() {
        let chip = Chip::new(2, 4);
        assert!(chip.block(1).is_some());
        assert!(chip.block(2).is_none());
    }

    #[test]
    fn iteration_covers_every_block() {
        let chip = Chip::new(5, 2);
        assert_eq!(chip.iter().count(), 5);
        assert_eq!((&chip).into_iter().count(), 5);
    }

    #[test]
    fn a_block_programmed_without_allocation_leaves_the_pool() {
        let mut chip = Chip::new(3, 2);
        chip.program_block(1).unwrap();
        assert_eq!(chip.available_blocks(), 2);
        assert_eq!(chip.free_pool, [0, 2], "no stale entry stays behind");
        chip.check_invariants().unwrap();
        // Erased, it rejoins at the back like any other block, not at its old place.
        chip.invalidate_page(1, PageId(0)).unwrap();
        chip.erase_block(1);
        assert_eq!(chip.allocate(), Some(0));
        assert_eq!(chip.allocate(), Some(2));
        assert_eq!(chip.allocate(), Some(1));
        assert_eq!(chip.allocate(), None);
    }

    #[test]
    fn allocation_is_fifo_and_exhaustible() {
        let mut chip = Chip::new(3, 2);
        assert_eq!(chip.allocate(), Some(0));
        assert_eq!(chip.allocate(), Some(1));
        assert_eq!(chip.allocate(), Some(2));
        assert_eq!(chip.allocate(), None);
        // All blocks are still erased; only the pool is empty.
        assert!(chip.iter().all(|block| block.state() == BlockState::Free));
        assert_eq!(chip.available_blocks(), 0);
    }

    #[test]
    fn erase_returns_blocks_to_the_back_of_the_pool() {
        let mut chip = Chip::new(2, 1);
        let a = chip.allocate().unwrap();
        chip.program_block(a).unwrap();
        chip.invalidate_page(a, PageId(0)).unwrap();
        chip.erase_block(a);
        assert_eq!(chip.total_erases(), 1);
        // Block 1 was never taken, so it is handed out before the recycled block 0.
        assert_eq!(chip.allocate(), Some(1));
        assert_eq!(chip.allocate(), Some(0));
    }

    #[test]
    fn the_victim_index_tracks_full_blocks_with_invalid_pages() {
        let mut chip = Chip::new(3, 2);
        assert_eq!(chip.greedy_victim(|_| false), None);
        fill_block(&mut chip, 0, 2);
        // Full but fully valid: not a candidate.
        assert_eq!(chip.greedy_victim(|_| false), None);
        chip.invalidate_page(0, PageId(0)).unwrap();
        assert_eq!(chip.greedy_victim(|_| false), Some((0, 1)));
        chip.invalidate_page(0, PageId(1)).unwrap();
        assert_eq!(chip.greedy_victim(|_| false), Some((0, 2)), "refiled, not filed twice");
        assert_eq!(chip.greedy_victim(|index| index == 0), None);
        chip.erase_block(0);
        assert_eq!(chip.greedy_victim(|_| false), None);
        chip.check_invariants().unwrap();
    }

    #[test]
    fn invalidating_an_open_block_defers_candidacy_until_full() {
        let mut chip = Chip::new(2, 3);
        chip.program_block(0).unwrap();
        chip.invalidate_page(0, PageId(0)).unwrap();
        assert_eq!(chip.greedy_victim(|_| false), None, "open blocks are not candidates");
        chip.program_block(0).unwrap();
        chip.program_block(0).unwrap();
        assert_eq!(
            chip.greedy_victim(|_| false),
            Some((0, 1)),
            "filling the block must promote it to candidacy"
        );
    }

    #[test]
    fn retiring_a_pooled_block_removes_it_from_allocation() {
        let mut chip = Chip::new(3, 2);
        chip.retire_block(1);
        assert_eq!(chip.bad_blocks(), 1);
        assert_eq!(chip.available_blocks(), 2);
        assert_eq!(chip.allocate(), Some(0));
        assert_eq!(chip.allocate(), Some(2), "bad block 1 must be skipped");
        assert_eq!(chip.allocate(), None);
        chip.check_invariants().unwrap();
    }

    #[test]
    fn retiring_a_candidate_delists_it() {
        let mut chip = Chip::new(2, 1);
        fill_block(&mut chip, 0, 1);
        chip.invalidate_page(0, PageId(0)).unwrap();
        assert_eq!(chip.greedy_victim(|_| false), Some((0, 1)));
        chip.retire_block(0);
        assert_eq!(chip.greedy_victim(|_| false), None);
        assert_eq!(chip.bad_blocks(), 1);
        chip.check_invariants().unwrap();
    }

    #[test]
    fn check_invariants_names_whatever_drifted_from_the_blocks() {
        let mut chip = Chip::new(4, 2);
        fill_block(&mut chip, 0, 2);
        chip.invalidate_page(0, PageId(0)).unwrap();
        chip.check_invariants().unwrap();
        let drifted = |drift: fn(&mut Chip)| {
            let mut copy = chip.clone();
            drift(&mut copy);
            copy.check_invariants().unwrap_err()
        };
        assert!(drifted(|chip| chip.bad_blocks += 1).starts_with("bad blocks"));
        assert!(drifted(|chip| chip.erases += 1).starts_with("erases"));
        assert!(drifted(|chip| chip.pooled[1] = false).contains("block 1 is flagged pooled false"));
        assert!(drifted(|chip| chip.free_pool.retain(|&b| b != 2)).contains("block 2 is flagged"));
        assert!(drifted(|chip| chip.free_pool.push_back(3)).contains("block 3 is queued twice"));
        let full_in_pool = |chip: &mut Chip| {
            chip.free_pool.push_back(0);
            chip.pooled[0] = true;
        };
        assert!(drifted(full_in_pool).contains("pooled block 0 is full"));
        assert!(drifted(|chip| chip.victims.file(0, 2)).contains("block 0 is filed under 2"));
        assert!(drifted(|chip| chip.victims.file(3, 1)).contains("block 3 is filed under 1"));
        assert!(drifted(|chip| chip.victims.max_invalid = 2).contains("cursor"));
    }

    #[test]
    fn busy_time_accumulates() {
        let mut chip = Chip::new(1, 1);
        chip.add_busy(Nanos::from_micros(10));
        chip.add_busy(Nanos::from_micros(5));
        assert_eq!(chip.busy_time(), Nanos::from_micros(15));
    }

    #[test]
    fn the_pool_stays_exact_through_a_lifecycle() {
        let mut chip = Chip::new(4, 2);
        let a = chip.allocate().unwrap();
        fill_block(&mut chip, a, 2);
        chip.program_block(1).unwrap();
        chip.invalidate_page(a, PageId(0)).unwrap();
        chip.invalidate_page(a, PageId(1)).unwrap();
        chip.erase_block(a);
        // Erasing a pooled block leaves it where it is.
        chip.erase_block(2);
        assert_eq!(chip.free_pool, [2, 3, a], "block 1 is open; a went to the back");
        assert_eq!(chip.available_blocks(), 3);
        chip.check_invariants().unwrap();
    }
}
