//! Page state tracking.

use std::fmt;

/// The lifecycle state of a physical page.
///
/// NAND pages move `Free -> Valid -> Invalid` and only return to `Free` when their
/// whole block is erased (erase-before-write). A [`Block`](crate::Block) keeps one
/// per page and no data: the FTL layers above own the mappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageState {
    /// The page has been erased and not programmed since.
    #[default]
    Free,
    /// The page holds live data referenced by the mapping table.
    Valid,
    /// The page holds stale data superseded by an out-of-place update.
    Invalid,
}

impl PageState {
    /// A short human-readable label for diagnostics.
    pub const fn label(self) -> &'static str {
        match self {
            PageState::Free => "free",
            PageState::Valid => "valid",
            PageState::Invalid => "invalid",
        }
    }
}

impl fmt::Display for PageState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_lowercase() {
        assert_eq!(PageState::Free.to_string(), "free");
        assert_eq!(PageState::Valid.to_string(), "valid");
        assert_eq!(PageState::Invalid.to_string(), "invalid");
    }
}
