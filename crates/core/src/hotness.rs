//! The four-level data hotness model.

use std::fmt;

/// Which of the two data areas a hotness level belongs to.
///
/// A physical block is dedicated to exactly one area, which is what keeps hot and
/// cold data from sharing a block and degrading garbage collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Area {
    /// The hot data area (iron-hot and hot data).
    Hot,
    /// The cold data area (cold and icy-cold data).
    Cold,
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Area::Hot => "hot-area",
            Area::Cold => "cold-area",
        })
    }
}

/// The four hotness levels of the PPB strategy (paper §3.2).
///
/// The split is driven by *re-access* (read) frequency on top of the classic
/// hot/cold (write frequency) split:
///
/// | level | write frequency | read frequency | example | preferred pages |
/// |---|---|---|---|---|
/// | [`Hotness::IronHot`] | high | high | file-system metadata | fast (bottom layers) |
/// | [`Hotness::Hot`] | high | low | temporary cache files | slow (top layers) |
/// | [`Hotness::Cold`] | low (write-once) | high (read-many) | videos, pictures | fast (bottom layers) |
/// | [`Hotness::IcyCold`] | low (write-once) | low (read-few) | backups | slow (top layers) |
///
/// Note the deliberate symmetry: in *both* areas the frequently-read level goes to
/// the fast half of the block and the rarely-read level to the slow half, so every
/// block is filled slow-half-first, which is exactly the order 3D NAND must program
/// pages in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hotness {
    /// Frequently written *and* frequently read data.
    IronHot,
    /// Frequently written but rarely read data.
    Hot,
    /// Write-once-read-many data.
    Cold,
    /// Write-once-read-few data.
    IcyCold,
}

impl Hotness {
    /// All four levels, hottest first.
    pub const ALL: [Hotness; 4] = [Hotness::IronHot, Hotness::Hot, Hotness::Cold, Hotness::IcyCold];

    /// The area this level's data is stored in.
    pub const fn area(self) -> Area {
        match self {
            Hotness::IronHot | Hotness::Hot => Area::Hot,
            Hotness::Cold | Hotness::IcyCold => Area::Cold,
        }
    }

    /// Whether data of this level should be served from fast (bottom-layer) pages.
    ///
    /// Fast pages go to the *frequently read* level of each area: iron-hot in the hot
    /// area, cold in the cold area.
    pub const fn prefers_fast_pages(self) -> bool {
        matches!(self, Hotness::IronHot | Hotness::Cold)
    }

    /// The level data of this level is promoted to when it is read
    /// (paper Figure 6: "promote if read"), or `None` if it is already the
    /// most-promoted level of its area.
    pub const fn promoted(self) -> Option<Hotness> {
        match self {
            Hotness::Hot => Some(Hotness::IronHot),
            Hotness::IcyCold => Some(Hotness::Cold),
            Hotness::IronHot | Hotness::Cold => None,
        }
    }

    /// The level data of this level is demoted to when its tracking list is full
    /// (paper Figure 6: "demote if full"), or `None` if it is already the
    /// least-promoted level of its area.
    pub const fn demoted(self) -> Option<Hotness> {
        match self {
            Hotness::IronHot => Some(Hotness::Hot),
            Hotness::Cold => Some(Hotness::IcyCold),
            Hotness::Hot | Hotness::IcyCold => None,
        }
    }

    /// A short lowercase label for reports.
    pub const fn label(self) -> &'static str {
        match self {
            Hotness::IronHot => "iron-hot",
            Hotness::Hot => "hot",
            Hotness::Cold => "cold",
            Hotness::IcyCold => "icy-cold",
        }
    }
}

impl fmt::Display for Hotness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn areas_partition_the_levels() {
        assert_eq!(Hotness::IronHot.area(), Area::Hot);
        assert_eq!(Hotness::Hot.area(), Area::Hot);
        assert_eq!(Hotness::Cold.area(), Area::Cold);
        assert_eq!(Hotness::IcyCold.area(), Area::Cold);
    }

    #[test]
    fn fast_pages_go_to_frequently_read_levels() {
        assert!(Hotness::IronHot.prefers_fast_pages());
        assert!(Hotness::Cold.prefers_fast_pages());
        assert!(!Hotness::Hot.prefers_fast_pages());
        assert!(!Hotness::IcyCold.prefers_fast_pages());
    }

    #[test]
    fn promotion_and_demotion_stay_within_an_area() {
        for level in Hotness::ALL {
            if let Some(promoted) = level.promoted() {
                assert_eq!(promoted.area(), level.area());
                assert_eq!(promoted.demoted(), Some(level));
            }
            if let Some(demoted) = level.demoted() {
                assert_eq!(demoted.area(), level.area());
                assert_eq!(demoted.promoted(), Some(level));
            }
        }
        assert_eq!(Hotness::IronHot.promoted(), None);
        assert_eq!(Hotness::IcyCold.demoted(), None);
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(Hotness::IronHot.to_string(), "iron-hot");
        assert_eq!(Hotness::IcyCold.to_string(), "icy-cold");
        assert_eq!(Area::Hot.to_string(), "hot-area");
        assert_eq!(Area::Cold.to_string(), "cold-area");
    }
}
