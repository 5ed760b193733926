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
//! All of them implement [`HotColdClassifier`], so any of them can be plugged into the
//! PPB placement as its first identification stage.

mod freq_table;
mod multi_hash;
mod size_check;
mod two_level_lru;

pub use freq_table::FreqTable;
pub use multi_hash::MultiHash;
pub use size_check::SizeCheck;
pub use two_level_lru::TwoLevelLru;

use std::fmt;

use crate::types::Lpn;

/// First-stage, two-level data temperature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Temperature {
    /// Frequently updated data.
    Hot,
    /// Rarely updated data.
    Cold,
}

impl Temperature {
    /// Whether this is [`Temperature::Hot`].
    pub const fn is_hot(self) -> bool {
        matches!(self, Temperature::Hot)
    }
}

impl fmt::Display for Temperature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Temperature::Hot => "hot",
            Temperature::Cold => "cold",
        })
    }
}

/// A first-stage hot/cold classifier consulted on every host write.
///
/// Implementations may also observe host reads (e.g. to age their state), but the
/// classification decision itself is made at write time because that is when the FTL
/// must choose a destination page.
pub trait HotColdClassifier {
    /// A short name for reports (e.g. `"size-check"`).
    fn name(&self) -> &str;

    /// Classifies the write of `lpn` that belongs to a host request of
    /// `request_bytes` bytes.
    fn classify_write(&mut self, lpn: Lpn, request_bytes: u32) -> Temperature;

    /// Observes a host read of `lpn`. The default implementation ignores reads.
    fn record_read(&mut self, lpn: Lpn) {
        let _ = lpn;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temperature_predicates_and_display() {
        assert!(Temperature::Hot.is_hot());
        assert!(!Temperature::Cold.is_hot());
        assert_eq!(Temperature::Hot.to_string(), "hot");
        assert_eq!(Temperature::Cold.to_string(), "cold");
    }

    #[test]
    fn classifier_trait_is_object_safe() {
        fn _takes(_: &mut dyn HotColdClassifier) {}
    }
}
