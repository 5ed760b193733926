//! The hot data area: two-level LRU tracking of hot and iron-hot entries, threaded
//! through the [`ListTable`] PPB shares with the cold area; and the tags that
//! table's entries carry.

use vflash_ftl::{ListTable, Lpn, LruOrder};

use crate::hotness::Hotness;

/// The tag of an LPN on the hot list.
pub(crate) const HOT: u32 = 1;
/// The tag of an LPN on the iron-hot list.
pub(crate) const IRON_HOT: u32 = 2;
/// The tag of an LPN in the cold table.
pub(crate) const COLD: u32 = 3;

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
/// lists are threaded through the [`ListTable`] the caller passes in, one 8-byte
/// entry per logical page that it shares with the [`ColdArea`](crate::ColdArea):
/// its tag says whether the hot list, the iron-hot list, the cold table or
/// nothing tracks the page, so an LPN is in at most one place and a host op reads
/// one entry to find a page's level. Every operation is O(1) and hash-free, and
/// the area itself holds two list heads. An LPN the cold area tracks must leave
/// it before the hot area takes it.
///
/// # Example
///
/// ```
/// use vflash_ftl::{ListTable, Lpn};
/// use vflash_ppb::{ColdArea, HotArea, Hotness, PromotionOutcome};
///
/// let mut table = ListTable::new(1_000);
/// let (mut area, mut cold) = (HotArea::new(8, 8), ColdArea::new(64, 1));
/// area.on_write(&mut table, Lpn(1));
/// cold.on_write(&mut table, Lpn(2));
/// assert_eq!(area.level_of(&table, Lpn(1)), Some(Hotness::Hot));
/// assert_eq!(area.level_of(&table, Lpn(2)), None);
/// assert!(matches!(area.on_read(&mut table, Lpn(1)), PromotionOutcome::Promoted { .. }));
/// assert_eq!(area.level_of(&table, Lpn(1)), Some(Hotness::IronHot));
/// ```
#[derive(Debug, Clone)]
pub struct HotArea {
    hot: LruOrder,
    iron_hot: LruOrder,
}

fn lpn_of(key: u32) -> Lpn {
    Lpn(u64::from(key))
}

impl HotArea {
    /// Creates an empty hot area with the given list capacities.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(hot_capacity: usize, iron_hot_capacity: usize) -> Self {
        HotArea {
            hot: LruOrder::new(hot_capacity, HOT),
            iron_hot: LruOrder::new(iron_hot_capacity, IRON_HOT),
        }
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
    pub fn contains(&self, table: &ListTable, lpn: Lpn) -> bool {
        self.level_of(table, lpn).is_some()
    }

    /// The hotness level the hot area assigns to `lpn`, if tracked.
    pub fn level_of(&self, table: &ListTable, lpn: Lpn) -> Option<Hotness> {
        match table.tag(table.key(lpn)) {
            HOT => Some(Hotness::Hot),
            IRON_HOT => Some(Hotness::IronHot),
            _ => None,
        }
    }

    /// Records a host write of `lpn` that the first-stage classifier deemed hot.
    ///
    /// A new entry lands at the head of the hot list; an existing entry (hot or
    /// iron-hot) only has its recency refreshed. If the hot list overflows, the
    /// evicted LPN is returned so the caller can demote it to the cold area
    /// ("demote if full", Figure 6).
    pub fn on_write(&mut self, table: &mut ListTable, lpn: Lpn) -> Option<Lpn> {
        let key = table.key(lpn);
        if self.iron_hot.touch(table, key) {
            return None;
        }
        self.hot.insert(table, key).map(lpn_of)
    }

    /// Records a host read of `lpn`.
    ///
    /// A read of a hot-list entry is the "re-access" signal that promotes it to the
    /// iron-hot list. If the iron-hot list is full, its least recently used entry is
    /// demoted back to the head of the hot list, into the slot the promoted entry
    /// just left.
    pub fn on_read(&mut self, table: &mut ListTable, lpn: Lpn) -> PromotionOutcome {
        let key = table.key(lpn);
        match table.tag(key) {
            IRON_HOT => {
                self.iron_hot.touch(table, key);
                PromotionOutcome::AlreadyIronHot
            }
            HOT => {
                self.hot.remove(table, key);
                let mut demoted_to_hot = None;
                if self.iron_hot.is_full() {
                    if let Some(demoted) = self.iron_hot.pop_least_recent(table) {
                        let evicted = self.hot.insert(table, demoted);
                        debug_assert!(evicted.is_none());
                        demoted_to_hot = Some(lpn_of(demoted));
                    }
                }
                self.iron_hot.insert(table, key);
                PromotionOutcome::Promoted { demoted_to_hot }
            }
            _ => PromotionOutcome::NotTracked,
        }
    }

    /// Stops tracking `lpn` (used when a write is re-classified cold and the entry
    /// moves to the cold area). Returns `true` if it was tracked.
    pub fn remove(&mut self, table: &mut ListTable, lpn: Lpn) -> bool {
        let key = table.key(lpn);
        match table.tag(key) {
            HOT => self.hot.remove(table, key),
            IRON_HOT => self.iron_hot.remove(table, key),
            _ => false,
        }
    }

    /// Both lists are well formed in `table` (see [`LruOrder::check`]).
    pub(crate) fn check(&self, table: &ListTable) -> Result<(), String> {
        self.hot.check(table).map_err(|err| format!("the hot list: {err}"))?;
        self.iron_hot.check(table).map_err(|err| format!("the iron-hot list: {err}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area(hot: usize, iron_hot: usize) -> (ListTable, HotArea) {
        (ListTable::new(64), HotArea::new(hot, iron_hot))
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn lpns_past_the_table_panic_instead_of_aliasing() {
        let (mut table, mut area) = area(4, 4);
        area.on_write(&mut table, Lpn((1 << 32) + 1));
    }

    #[test]
    fn new_writes_enter_the_hot_list() {
        let (mut table, mut area) = area(4, 4);
        assert_eq!(area.on_write(&mut table, Lpn(1)), None);
        assert_eq!(area.level_of(&table, Lpn(1)), Some(Hotness::Hot));
        assert_eq!(area.hot_len(), 1);
        assert_eq!(area.iron_hot_len(), 0);
        assert!(area.contains(&table, Lpn(1)));
        area.check(&table).unwrap();
    }

    #[test]
    fn read_promotes_hot_entries_to_iron_hot() {
        let (mut table, mut area) = area(4, 4);
        area.on_write(&mut table, Lpn(1));
        let outcome = area.on_read(&mut table, Lpn(1));
        assert_eq!(outcome, PromotionOutcome::Promoted { demoted_to_hot: None });
        assert_eq!(area.level_of(&table, Lpn(1)), Some(Hotness::IronHot));
        assert_eq!(area.on_read(&mut table, Lpn(1)), PromotionOutcome::AlreadyIronHot);
    }

    #[test]
    fn reads_of_untracked_entries_are_ignored() {
        let (mut table, mut area) = area(4, 4);
        assert_eq!(area.on_read(&mut table, Lpn(9)), PromotionOutcome::NotTracked);
    }

    #[test]
    fn full_iron_hot_list_demotes_lru_back_to_hot() {
        let (mut table, mut area) = area(8, 2);
        for lpn in [1, 2, 3] {
            area.on_write(&mut table, Lpn(lpn));
            area.on_read(&mut table, Lpn(lpn));
        }
        // Promoting LPN3 overflowed the iron-hot list: LPN1 was demoted to hot.
        assert_eq!(area.level_of(&table, Lpn(1)), Some(Hotness::Hot));
        assert_eq!(area.level_of(&table, Lpn(2)), Some(Hotness::IronHot));
        assert_eq!(area.level_of(&table, Lpn(3)), Some(Hotness::IronHot));
        assert_eq!(area.iron_hot_len(), 2);
        area.check(&table).unwrap();
    }

    #[test]
    fn full_hot_list_evicts_lru_towards_cold_area() {
        let (mut table, mut area) = area(2, 2);
        assert_eq!(area.on_write(&mut table, Lpn(1)), None);
        assert_eq!(area.on_write(&mut table, Lpn(2)), None);
        assert_eq!(area.on_write(&mut table, Lpn(3)), Some(Lpn(1)));
        assert!(!area.contains(&table, Lpn(1)));
        assert_eq!(table.entry(1), (0, 0, 0));
    }

    #[test]
    fn rewrites_refresh_recency_without_duplicating() {
        let (mut table, mut area) = area(2, 2);
        area.on_write(&mut table, Lpn(1));
        area.on_write(&mut table, Lpn(2));
        area.on_write(&mut table, Lpn(1));
        // LPN2 is now the LRU entry and gets evicted first.
        assert_eq!(area.on_write(&mut table, Lpn(3)), Some(Lpn(2)));
        assert_eq!(area.hot_len(), 2);
    }

    #[test]
    fn writes_to_iron_hot_entries_keep_them_iron_hot() {
        let (mut table, mut area) = area(4, 4);
        area.on_write(&mut table, Lpn(1));
        area.on_read(&mut table, Lpn(1));
        assert_eq!(area.on_write(&mut table, Lpn(1)), None);
        assert_eq!(area.level_of(&table, Lpn(1)), Some(Hotness::IronHot));
    }

    #[test]
    fn remove_untracks_from_either_list() {
        let (mut table, mut area) = area(4, 4);
        area.on_write(&mut table, Lpn(1));
        area.on_write(&mut table, Lpn(2));
        area.on_read(&mut table, Lpn(2));
        assert!(area.remove(&mut table, Lpn(1)));
        assert!(area.remove(&mut table, Lpn(2)));
        assert!(!area.remove(&mut table, Lpn(3)));
        assert!(!area.contains(&table, Lpn(1)));
        assert!(!area.contains(&table, Lpn(2)));
        assert_eq!(table.census(), [64, 0, 0, 0]);
    }

    #[test]
    fn the_check_finds_a_broken_link_and_a_stray_tag() {
        let (mut table, mut area) = area(4, 4);
        for lpn in [1, 2, 3] {
            area.on_write(&mut table, Lpn(lpn));
        }
        area.check(&table).unwrap();
        let (_, prev, next) = table.entry(2);
        table.set(2, COLD, 0, 0);
        let err = area.check(&table).unwrap_err();
        assert!(err.contains("the hot list: list 1 holds key 2, tagged 3"), "{err}");
        table.set(2, HOT, prev, 9);
        assert!(area.check(&table).is_err());
        table.set(2, HOT, prev, next);
        area.check(&table).unwrap();
    }
}
