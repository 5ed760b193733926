//! The hot data area: two-level LRU tracking of hot and iron-hot entries.

use vflash_ftl::Lpn;

use crate::hotness::Hotness;
use crate::lru::LruList;

/// What happened when the hot area observed a read (paper Figure 10a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromotionOutcome {
    /// The entry was not tracked by the hot area.
    NotTracked,
    /// The entry was already iron-hot; its recency was refreshed.
    AlreadyIronHot,
    /// The entry was promoted from hot to iron-hot.
    Promoted {
        /// An iron-hot entry demoted back to the hot list to make room, if the
        /// iron-hot list was full.
        demoted_to_hot: Option<Lpn>,
    },
}

/// Hot-area bookkeeping: a two-level LRU.
///
/// New hot data enters the **hot list**; a read while on the hot list promotes the
/// entry to the **iron-hot list** (the "re-accessed" signal of the paper). When the
/// iron-hot list is full its least recently used entry is demoted back to the head of
/// the hot list, and when the hot list is full its least recently used entry is
/// demoted out of the hot area entirely (the caller moves it to the cold area).
///
/// Promotion and demotion here are *bookkeeping only* — the data is moved to a page of
/// suitable speed later, on its next update or during garbage collection. Both
/// lists are LPN-indexed ([`LruList`]): every operation is O(1) and hash-free, at
/// 16 bytes per logical page for the pair, sized once at construction.
///
/// # Example
///
/// ```
/// use vflash_ftl::Lpn;
/// use vflash_ppb::{HotArea, Hotness, PromotionOutcome};
///
/// let mut area = HotArea::new(1_000, 8, 8);
/// area.on_write(Lpn(1));
/// assert_eq!(area.level_of(Lpn(1)), Some(Hotness::Hot));
/// assert!(matches!(area.on_read(Lpn(1)), PromotionOutcome::Promoted { .. }));
/// assert_eq!(area.level_of(Lpn(1)), Some(Hotness::IronHot));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotArea {
    hot: LruList,
    iron_hot: LruList,
}

impl HotArea {
    /// Creates the hot area for LPNs in `0..logical_pages` with the given capacities.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(logical_pages: u64, hot_capacity: usize, iron_hot_capacity: usize) -> Self {
        let mut hot = LruList::new(hot_capacity);
        let mut iron_hot = LruList::new(iron_hot_capacity);
        hot.reserve_keys(logical_pages);
        iron_hot.reserve_keys(logical_pages);
        HotArea { hot, iron_hot }
    }

    /// Number of entries on the hot list.
    pub fn hot_len(&self) -> usize {
        self.hot.len()
    }

    /// Number of entries on the iron-hot list.
    pub fn iron_hot_len(&self) -> usize {
        self.iron_hot.len()
    }

    /// Whether the hot area tracks `lpn` at all.
    pub fn contains(&self, lpn: Lpn) -> bool {
        self.hot.contains(lpn) || self.iron_hot.contains(lpn)
    }

    /// The hotness level the hot area assigns to `lpn`, if tracked.
    pub fn level_of(&self, lpn: Lpn) -> Option<Hotness> {
        if self.iron_hot.contains(lpn) {
            Some(Hotness::IronHot)
        } else if self.hot.contains(lpn) {
            Some(Hotness::Hot)
        } else {
            None
        }
    }

    /// Records a host write of `lpn` that the first-stage classifier deemed hot.
    ///
    /// A new entry lands at the head of the hot list; an existing entry (hot or
    /// iron-hot) only has its recency refreshed. If the hot list overflows, the
    /// evicted LPN is returned so the caller can demote it to the cold area
    /// ("demote if full", Figure 6).
    pub fn on_write(&mut self, lpn: Lpn) -> Option<Lpn> {
        if self.iron_hot.contains(lpn) {
            self.iron_hot.touch(lpn);
            return None;
        }
        self.hot.insert(lpn)
    }

    /// Records a host read of `lpn`.
    ///
    /// A read of a hot-list entry is the "re-access" signal that promotes it to the
    /// iron-hot list. If the iron-hot list is full, its least recently used entry is
    /// demoted back to the head of the hot list, into the slot the promoted entry
    /// just left.
    pub fn on_read(&mut self, lpn: Lpn) -> PromotionOutcome {
        if self.iron_hot.contains(lpn) {
            self.iron_hot.touch(lpn);
            return PromotionOutcome::AlreadyIronHot;
        }
        if !self.hot.contains(lpn) {
            return PromotionOutcome::NotTracked;
        }
        self.hot.remove(lpn);
        let mut demoted_to_hot = None;
        if self.iron_hot.is_full() {
            if let Some(demoted) = self.iron_hot.pop_least_recent() {
                let evicted = self.hot.insert(demoted);
                debug_assert!(evicted.is_none());
                demoted_to_hot = Some(demoted);
            }
        }
        self.iron_hot.insert(lpn);
        PromotionOutcome::Promoted { demoted_to_hot }
    }

    /// Stops tracking `lpn` (used when a write is re-classified cold and the entry
    /// moves to the cold area). Returns `true` if it was tracked.
    pub fn remove(&mut self, lpn: Lpn) -> bool {
        let in_hot = self.hot.remove(lpn);
        let in_iron = self.iron_hot.remove(lpn);
        in_hot || in_iron
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_writes_enter_the_hot_list() {
        let mut area = HotArea::new(64, 4, 4);
        assert_eq!(area.on_write(Lpn(1)), None);
        assert_eq!(area.level_of(Lpn(1)), Some(Hotness::Hot));
        assert_eq!(area.hot_len(), 1);
        assert_eq!(area.iron_hot_len(), 0);
        assert!(area.contains(Lpn(1)));
    }

    #[test]
    fn read_promotes_hot_entries_to_iron_hot() {
        let mut area = HotArea::new(64, 4, 4);
        area.on_write(Lpn(1));
        assert_eq!(area.on_read(Lpn(1)), PromotionOutcome::Promoted { demoted_to_hot: None });
        assert_eq!(area.level_of(Lpn(1)), Some(Hotness::IronHot));
        assert_eq!(area.on_read(Lpn(1)), PromotionOutcome::AlreadyIronHot);
    }

    #[test]
    fn reads_of_untracked_entries_are_ignored() {
        let mut area = HotArea::new(64, 4, 4);
        assert_eq!(area.on_read(Lpn(9)), PromotionOutcome::NotTracked);
    }

    #[test]
    fn full_iron_hot_list_demotes_lru_back_to_hot() {
        let mut area = HotArea::new(64, 8, 2);
        for lpn in [1, 2, 3] {
            area.on_write(Lpn(lpn));
            area.on_read(Lpn(lpn));
        }
        // Promoting LPN3 overflowed the iron-hot list: LPN1 was demoted to hot.
        assert_eq!(area.level_of(Lpn(1)), Some(Hotness::Hot));
        assert_eq!(area.level_of(Lpn(2)), Some(Hotness::IronHot));
        assert_eq!(area.level_of(Lpn(3)), Some(Hotness::IronHot));
        assert_eq!(area.iron_hot_len(), 2);
    }

    #[test]
    fn full_hot_list_evicts_lru_towards_cold_area() {
        let mut area = HotArea::new(64, 2, 2);
        assert_eq!(area.on_write(Lpn(1)), None);
        assert_eq!(area.on_write(Lpn(2)), None);
        assert_eq!(area.on_write(Lpn(3)), Some(Lpn(1)));
        assert!(!area.contains(Lpn(1)));
    }

    #[test]
    fn rewrites_refresh_recency_without_duplicating() {
        let mut area = HotArea::new(64, 2, 2);
        area.on_write(Lpn(1));
        area.on_write(Lpn(2));
        area.on_write(Lpn(1));
        // LPN2 is now the LRU entry and gets evicted first.
        assert_eq!(area.on_write(Lpn(3)), Some(Lpn(2)));
        assert_eq!(area.hot_len(), 2);
    }

    #[test]
    fn writes_to_iron_hot_entries_keep_them_iron_hot() {
        let mut area = HotArea::new(64, 4, 4);
        area.on_write(Lpn(1));
        area.on_read(Lpn(1));
        assert_eq!(area.on_write(Lpn(1)), None);
        assert_eq!(area.level_of(Lpn(1)), Some(Hotness::IronHot));
    }

    #[test]
    fn remove_untracks_from_either_list() {
        let mut area = HotArea::new(64, 4, 4);
        area.on_write(Lpn(1));
        area.on_write(Lpn(2));
        area.on_read(Lpn(2));
        assert!(area.remove(Lpn(1)));
        assert!(area.remove(Lpn(2)));
        assert!(!area.remove(Lpn(3)));
        assert!(!area.contains(Lpn(1)));
        assert!(!area.contains(Lpn(2)));
    }
}
