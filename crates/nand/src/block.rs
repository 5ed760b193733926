//! Physical block state: sequential programming, validity accounting and wear.

use std::fmt;

use crate::address::PageId;
use crate::error::NandError;
use crate::page::PageState;

/// Aggregate state of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockState {
    /// All pages are free (the block was just erased or never programmed).
    Free,
    /// Some pages have been programmed and free pages remain.
    Open,
    /// Every page has been programmed (valid or invalid); the block must be erased
    /// before it can accept new writes.
    Full,
    /// The block was retired after a program/erase failure (or marked bad at the
    /// factory). Remaining valid pages stay readable and can still be
    /// invalidated, but the block can never be programmed, erased or allocated
    /// again.
    Bad,
}

impl fmt::Display for BlockState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            BlockState::Free => "free",
            BlockState::Open => "open",
            BlockState::Full => "full",
            BlockState::Bad => "bad",
        };
        f.write_str(label)
    }
}

/// A physical erase block: an ordered run of pages sharing one vertical channel.
///
/// The block enforces the two fundamental NAND constraints:
///
/// * **sequential programming** — pages must be programmed in increasing page order
///   (`write_pointer` tracks the next programmable page), and
/// * **erase-before-write** — a page can only return to [`PageState::Free`] through a
///   whole-block erase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    pages: Vec<PageState>,
    write_pointer: usize,
    valid_pages: usize,
    erase_count: u64,
    last_modified: u64,
    bad: bool,
}

impl Block {
    /// Creates an erased block with `pages_per_block` pages.
    ///
    /// # Panics
    ///
    /// Panics if `pages_per_block` is zero.
    pub fn new(pages_per_block: usize) -> Self {
        assert!(pages_per_block > 0, "a block needs at least one page");
        Block {
            pages: vec![PageState::Free; pages_per_block],
            write_pointer: 0,
            valid_pages: 0,
            erase_count: 0,
            last_modified: 0,
            bad: false,
        }
    }

    /// Number of pages in the block.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the block holds zero pages. Always false for a constructed block; the
    /// method exists for API completeness alongside [`Block::len`].
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The state of one page.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PageOutOfRange`] if `page` is outside the block.
    pub fn page_state(&self, page: PageId) -> Result<PageState, NandError> {
        self.pages
            .get(page.0)
            .copied()
            .ok_or(NandError::PageOutOfRange { page, pages_per_block: self.pages.len() })
    }

    /// Aggregate block state. A retired block is [`BlockState::Bad`] no matter
    /// where its write pointer stopped.
    pub fn state(&self) -> BlockState {
        if self.bad {
            BlockState::Bad
        } else if self.write_pointer == 0 {
            BlockState::Free
        } else if self.write_pointer < self.pages.len() {
            BlockState::Open
        } else {
            BlockState::Full
        }
    }

    /// Whether the block has been retired as bad (see [`BlockState::Bad`]).
    pub fn is_bad(&self) -> bool {
        self.bad
    }

    /// Retires the block. Irreversible: erases are rejected at the device layer,
    /// so the block never returns to service. Page states are left as they are —
    /// surviving valid pages stay readable until the FTL relocates them.
    pub(crate) fn mark_bad(&mut self) {
        self.bad = true;
    }

    /// The next page that a program operation must target, or `None` if the block is
    /// full or has been retired as bad.
    pub fn next_page(&self) -> Option<PageId> {
        if self.bad {
            None
        } else if self.write_pointer < self.pages.len() {
            Some(PageId(self.write_pointer))
        } else {
            None
        }
    }

    /// Number of pages holding live data.
    pub fn valid_pages(&self) -> usize {
        self.valid_pages
    }

    /// Number of pages holding stale data.
    pub fn invalid_pages(&self) -> usize {
        self.write_pointer - self.valid_pages
    }

    /// Number of pages still available for programming.
    pub fn free_pages(&self) -> usize {
        self.pages.len() - self.write_pointer
    }

    /// How many times this block has been erased (wear).
    pub fn erase_count(&self) -> u64 {
        self.erase_count
    }

    /// The device's logical modification clock
    /// ([`NandDevice::mod_seq`](crate::NandDevice::mod_seq)) at the last program,
    /// invalidation or erase of this block; `mod_seq - last_modified` is the
    /// block's *age*, which the fault model's retention term reads.
    pub fn last_modified(&self) -> u64 {
        self.last_modified
    }

    /// Stamps the block with the device's current modification clock.
    pub(crate) fn touch(&mut self, seq: u64) {
        self.last_modified = seq;
    }

    /// Programs the page at the write pointer, marking it valid. `None` if the
    /// block is full or bad; the device layer, which knows the block address,
    /// turns that into [`NandError::BlockFull`] or [`NandError::ProgramFailed`].
    pub(crate) fn program_next(&mut self) -> Option<PageId> {
        let page = self.next_page()?;
        self.pages[page.0] = PageState::Valid;
        self.write_pointer += 1;
        self.valid_pages += 1;
        Some(page)
    }

    /// Marks a valid page as invalid (out-of-place update or relocation source).
    pub(crate) fn invalidate(&mut self, page: PageId) -> Result<(), PageState> {
        match self.pages[page.0] {
            PageState::Valid => {
                self.pages[page.0] = PageState::Invalid;
                self.valid_pages -= 1;
                Ok(())
            }
            other => Err(other),
        }
    }

    /// Erases the block, freeing every page and incrementing the wear counter.
    pub(crate) fn erase(&mut self) {
        self.pages.fill(PageState::Free);
        self.write_pointer = 0;
        self.valid_pages = 0;
        self.erase_count += 1;
    }

    /// Iterates over page ids of valid pages (ascending).
    pub fn valid_page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter(|(_, &state)| state == PageState::Valid)
            .map(|(i, _)| PageId(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_block_is_free() {
        let block = Block::new(8);
        assert_eq!(block.state(), BlockState::Free);
        assert_eq!(block.next_page(), Some(PageId(0)));
        assert_eq!(block.free_pages(), 8);
        assert_eq!(block.valid_pages(), 0);
        assert_eq!(block.erase_count(), 0);
    }

    #[test]
    fn programming_advances_write_pointer_in_order() {
        let mut block = Block::new(4);
        assert_eq!(block.program_next(), Some(PageId(0)));
        assert_eq!(block.program_next(), Some(PageId(1)));
        assert_eq!(block.state(), BlockState::Open);
        assert_eq!(block.program_next(), Some(PageId(2)));
        assert_eq!(block.program_next(), Some(PageId(3)));
        assert_eq!(block.state(), BlockState::Full);
        assert_eq!(block.program_next(), None);
    }

    #[test]
    fn invalidate_only_applies_to_valid_pages() {
        let mut block = Block::new(4);
        block.program_next();
        assert!(block.invalidate(PageId(0)).is_ok());
        assert_eq!(block.invalidate(PageId(0)), Err(PageState::Invalid));
        assert_eq!(block.invalidate(PageId(2)), Err(PageState::Free));
        assert_eq!(block.valid_pages(), 0);
        assert_eq!(block.invalid_pages(), 1);
    }

    #[test]
    fn erase_resets_state_and_counts_wear() {
        let mut block = Block::new(4);
        for _ in 0..4 {
            block.program_next();
        }
        for i in 0..4 {
            block.invalidate(PageId(i)).unwrap();
        }
        assert_eq!((block.state(), block.valid_pages()), (BlockState::Full, 0));
        block.erase();
        assert_eq!(block.state(), BlockState::Free);
        assert_eq!(block.erase_count(), 1);
        assert_eq!(block.free_pages(), 4);
        assert_eq!(block.page_state(PageId(0)).unwrap(), PageState::Free);
    }

    #[test]
    fn valid_page_ids_lists_only_live_pages() {
        let mut block = Block::new(6);
        for _ in 0..5 {
            block.program_next();
        }
        block.invalidate(PageId(1)).unwrap();
        block.invalidate(PageId(3)).unwrap();
        let ids: Vec<_> = block.valid_page_ids().collect();
        assert_eq!(ids, vec![PageId(0), PageId(2), PageId(4)]);
    }

    #[test]
    fn page_state_out_of_range_is_an_error() {
        let block = Block::new(4);
        assert!(matches!(
            block.page_state(PageId(4)),
            Err(NandError::PageOutOfRange { .. })
        ));
    }

    #[test]
    fn bad_blocks_trump_every_other_state() {
        let mut block = Block::new(4);
        block.program_next();
        block.program_next();
        assert_eq!(block.state(), BlockState::Open);
        block.mark_bad();
        assert!(block.is_bad());
        assert_eq!(block.state(), BlockState::Bad);
        assert_eq!(block.next_page(), None, "bad blocks accept no programs");
        assert_eq!(block.program_next(), None);
        // Surviving data stays readable and invalidatable.
        assert_eq!(block.page_state(PageId(0)).unwrap(), PageState::Valid);
        assert!(block.invalidate(PageId(0)).is_ok());
        assert!(block.invalidate(PageId(1)).is_ok());
        assert_eq!(block.state(), BlockState::Bad, "invalidation does not revive a bad block");
        assert_eq!(BlockState::Bad.to_string(), "bad");
    }

    #[test]
    fn counts_always_sum_to_len() {
        let mut block = Block::new(10);
        for _ in 0..7 {
            block.program_next();
        }
        block.invalidate(PageId(2)).unwrap();
        block.invalidate(PageId(5)).unwrap();
        assert_eq!(
            block.valid_pages() + block.invalid_pages() + block.free_pages(),
            block.len()
        );
    }
}
