//! Error type for device-level operations.

use std::error::Error;
use std::fmt;

use crate::address::{BlockAddr, PageAddr, PageId};

/// Errors produced by the NAND device model.
///
/// Every variant corresponds to a violation of a physical constraint of NAND flash
/// (erase-before-write, a block's page count, addressing limits) or an
/// invalid configuration. They are reported instead of silently "fixed" so that FTL
/// bugs surface in tests rather than being masked by the device model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NandError {
    /// The configuration is internally inconsistent (e.g. zero pages per block).
    InvalidConfig {
        /// Explanation of which parameter was rejected and why.
        reason: String,
    },
    /// A chip index was out of range.
    ChipOutOfRange {
        /// The offending chip index.
        chip: usize,
        /// The number of chips in the device.
        chips: usize,
    },
    /// A block address referenced a block index outside the chip.
    BlockOutOfRange {
        /// The offending block address.
        block: BlockAddr,
        /// The number of blocks per chip.
        blocks_per_chip: usize,
    },
    /// A page id referenced a page index outside the block.
    PageOutOfRange {
        /// The offending page id.
        page: PageId,
        /// The number of pages per block.
        pages_per_block: usize,
    },
    /// A program targeted a block with no free pages left.
    BlockFull {
        /// The full block.
        block: BlockAddr,
    },
    /// A page was read or invalidated while not holding valid data.
    PageNotValid {
        /// The offending page address.
        page: PageAddr,
        /// The state the page was actually in, as a human-readable label.
        actual: &'static str,
    },
    /// An erase targeted a block that still holds valid pages.
    EraseWithValidPages {
        /// The block that was asked to be erased.
        block: BlockAddr,
        /// How many valid pages it still holds.
        valid_pages: usize,
    },
    /// A program failed (injected fault or bad block); the block has been
    /// retired and the FTL must re-drive the write to a fresh block.
    ProgramFailed {
        /// The block whose program failed.
        block: BlockAddr,
    },
    /// An erase failed (injected fault or bad block); the block has been
    /// retired and can never be reused.
    EraseFailed {
        /// The block whose erase failed.
        block: BlockAddr,
    },
    /// A read exhausted the read-retry ladder without correcting: the data is
    /// lost. The device still charged the full base-plus-ladder latency.
    UncorrectableRead {
        /// The page whose data could not be corrected.
        page: PageAddr,
    },
}

impl fmt::Display for NandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NandError::InvalidConfig { reason } => {
                write!(f, "invalid nand configuration: {reason}")
            }
            NandError::ChipOutOfRange { chip, chips } => {
                write!(f, "chip index {chip} out of range (device has {chips} chips)")
            }
            NandError::BlockOutOfRange { block, blocks_per_chip } => write!(
                f,
                "block {block} out of range (chip has {blocks_per_chip} blocks)"
            ),
            NandError::PageOutOfRange { page, pages_per_block } => write!(
                f,
                "page {page} out of range (block has {pages_per_block} pages)"
            ),
            NandError::BlockFull { block } => write!(f, "block {block} has no free pages"),
            NandError::PageNotValid { page, actual } => {
                write!(f, "page {page} does not hold valid data (state: {actual})")
            }
            NandError::EraseWithValidPages { block, valid_pages } => write!(
                f,
                "refusing to erase block {block} still holding {valid_pages} valid pages"
            ),
            NandError::ProgramFailed { block } => {
                write!(f, "program failed in block {block}; block retired as bad")
            }
            NandError::EraseFailed { block } => {
                write!(f, "erase failed in block {block}; block retired as bad")
            }
            NandError::UncorrectableRead { page } => {
                write!(f, "uncorrectable read at page {page}: retry ladder exhausted")
            }
        }
    }
}

impl Error for NandError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::ChipId;

    #[test]
    fn errors_render_useful_messages() {
        let err = NandError::PageOutOfRange { page: PageId(5), pages_per_block: 4 };
        let text = err.to_string();
        assert!(text.contains("page P5 out of range"));
        assert!(text.contains("block has 4 pages"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NandError>();
    }

    #[test]
    fn fault_errors_render_useful_messages() {
        let block = BlockAddr::new(ChipId(1), 7);
        assert!(NandError::ProgramFailed { block }.to_string().contains("retired as bad"));
        assert!(NandError::EraseFailed { block }.to_string().contains("erase failed"));
        let err = NandError::UncorrectableRead { page: block.page(PageId(3)) };
        assert!(err.to_string().contains("uncorrectable read"));
    }

    #[test]
    fn invalid_config_mentions_reason() {
        let err = NandError::InvalidConfig { reason: "pages_per_block must be even".into() };
        assert!(err.to_string().contains("pages_per_block must be even"));
    }
}
