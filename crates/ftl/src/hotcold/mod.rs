//! Classical hot/cold data identification mechanisms.
//!
//! The PPB strategy deliberately does **not** invent a new first-stage classifier;
//! it reuses "the decades worth of work on data hotness identification" (paper §3.1)
//! and only refines the result into four levels afterwards. This module provides the
//! classifiers referenced by the paper:
//!
//! * [`SizeCheck`] — request-size based prediction (Chang, ASP-DAC 2008); the paper's
//!   case study and the default first stage,
//! * [`TwoLevelLru`] — the two-level LRU scheme (Chang & Kuo, RTAS 2002),
//! * [`FreqTable`] — table-based access-frequency history (Hsieh et al., SAC 2005),
//! * [`MultiHash`] — multi-hash-function counting sketch, a compact approximation of
//!   the frequency table.
//!
//! A [`Classifier`] names one of them; [`FirstStage::new`] builds it, and the
//! [`FirstStage`] is what the PPB placement consults on every host write.

mod freq_table;
mod multi_hash;
mod size_check;
mod two_level_lru;

pub use freq_table::FreqTable;
pub use multi_hash::MultiHash;
pub use size_check::SizeCheck;
pub use two_level_lru::TwoLevelLru;

use crate::types::Lpn;

/// First-stage, two-level data temperature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Temperature {
    /// Frequently updated data.
    Hot,
    /// Rarely updated data.
    Cold,
}

/// First-stage classifier choices for the classifier ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Classifier {
    /// Request-size check (the paper's case study).
    #[default]
    SizeCheck,
    /// Two-level LRU.
    TwoLevelLru,
    /// Per-LPN frequency table.
    FreqTable,
    /// Multi-hash counting sketch.
    MultiHash,
}

impl Classifier {
    /// All classifier choices.
    pub const ALL: [Classifier; 4] =
        [Classifier::SizeCheck, Classifier::TwoLevelLru, Classifier::FreqTable, Classifier::MultiHash];

    /// The label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Classifier::SizeCheck => "size-check",
            Classifier::TwoLevelLru => "two-level-lru",
            Classifier::FreqTable => "freq-table",
            Classifier::MultiHash => "multi-hash",
        }
    }
}

/// A [`Classifier`] with its state: the first stage a PPB placement consults on
/// every host write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FirstStage {
    /// See [`SizeCheck`].
    SizeCheck(SizeCheck),
    /// See [`TwoLevelLru`].
    TwoLevelLru(TwoLevelLru),
    /// See [`FreqTable`].
    FreqTable(FreqTable),
    /// See [`MultiHash`].
    MultiHash(MultiHash),
}

impl FirstStage {
    /// Builds `classifier` for a device of `page_size_bytes` pages and
    /// `logical_pages` logical pages: the size check at the page size, 4,096-entry
    /// hot and candidate lists over one link table sized for the logical pages, a
    /// frequency table sized for them, hot at 2 writes aged every 100,000, a sketch of 2^16
    /// buckets and 2 hashes hot at 2 and decayed every 100,000 writes.
    ///
    /// # Panics
    ///
    /// Panics if `classifier` is the size check and `page_size_bytes` is zero, or
    /// the two-level LRU and `logical_pages` exceeds [`TwoLevelLru::MAX_KEYS`].
    pub fn new(classifier: Classifier, page_size_bytes: u32, logical_pages: u64) -> Self {
        match classifier {
            Classifier::SizeCheck => FirstStage::SizeCheck(SizeCheck::new(page_size_bytes)),
            Classifier::TwoLevelLru => {
                let mut lru = TwoLevelLru::new(4096, 4096);
                lru.reserve_keys(logical_pages);
                FirstStage::TwoLevelLru(lru)
            }
            Classifier::FreqTable => {
                let mut table = FreqTable::new(2, 100_000);
                table.reserve_keys(logical_pages);
                FirstStage::FreqTable(table)
            }
            Classifier::MultiHash => FirstStage::MultiHash(MultiHash::new(1 << 16, 2, 2, 100_000)),
        }
    }

    /// Classifies the write of `lpn` that belongs to a host request of
    /// `request_bytes` bytes.
    #[inline]
    pub fn classify_write(&mut self, lpn: Lpn, request_bytes: u32) -> Temperature {
        match self {
            FirstStage::SizeCheck(classifier) => classifier.classify_write(lpn, request_bytes),
            FirstStage::TwoLevelLru(classifier) => classifier.classify_write(lpn, request_bytes),
            FirstStage::FreqTable(classifier) => classifier.classify_write(lpn, request_bytes),
            FirstStage::MultiHash(classifier) => classifier.classify_write(lpn, request_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two-level LRU PPB builds holds 8 bytes per logical page once every
    /// logical page has been written in ascending order, the order that left a
    /// table grown on demand with the most slack.
    #[test]
    fn the_two_level_lru_first_stage_is_eight_bytes_per_logical_page() {
        let logical_pages = 29_491u64;
        let mut stage = FirstStage::new(Classifier::TwoLevelLru, 16_384, logical_pages);
        for lpn in 0..logical_pages {
            stage.classify_write(Lpn(lpn), 512);
        }
        let FirstStage::TwoLevelLru(lru) = stage else { unreachable!("built as asked") };
        assert!(lru.heap_bytes() <= 8 * logical_pages as usize);
    }

    /// The frequency table PPB builds holds 4 bytes per logical page once
    /// every logical page has been written in ascending order, the order that
    /// left a table grown on demand with up to twice that.
    #[test]
    fn the_freq_table_first_stage_is_four_bytes_per_logical_page() {
        let logical_pages = 29_491u64;
        let mut stage = FirstStage::new(Classifier::FreqTable, 16_384, logical_pages);
        for lpn in 0..logical_pages {
            stage.classify_write(Lpn(lpn), 512);
        }
        let FirstStage::FreqTable(table) = stage else { unreachable!("built as asked") };
        assert!(table.heap_bytes() <= 4 * logical_pages as usize);
    }

    #[test]
    fn classifier_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            Classifier::ALL.iter().map(|classifier| classifier.label()).collect();
        assert_eq!(labels.len(), Classifier::ALL.len());
    }
}
