//! The hot data area: two-level LRU tracking of hot and iron-hot entries; and the
//! per-LPN records it shares with the cold area.

use vflash_ftl::{Link, LinkStore, Lpn, LruOrder};

use crate::hotness::Hotness;

/// Which of PPB's three places tracks a logical page (the top two bits of a
/// [`Record`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tag {
    Untracked = 0,
    Hot = 1,
    IronHot = 2,
    Cold = 3,
}

/// Bits of [`Record::tagged`] below the tag.
const FIELD: u32 = (1 << 30) - 1;

/// One logical page's area state in 8 bytes. The top two bits of `tagged` are its
/// [`Tag`]; the payload depends on it:
/// - on the hot or iron-hot list, the low 30 bits of `tagged` hold the link to
///   the more recently used key (all ones at the head) and `word` the link to the
///   less recently used one ([`Link::NIL`] at the tail);
/// - in the cold table, the low 30 bits of `tagged` hold the clamped read count
///   (its bucket) and `word` the entry's position inside that bucket;
/// - untracked, the record is all zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Record {
    tagged: u32,
    word: u32,
}

impl Record {
    pub(crate) const UNTRACKED: Record = Record { tagged: 0, word: 0 };

    #[inline]
    pub(crate) fn tag(self) -> Tag {
        match self.tagged >> 30 {
            0 => Tag::Untracked,
            1 => Tag::Hot,
            2 => Tag::IronHot,
            _ => Tag::Cold,
        }
    }

    #[inline]
    fn listed(tag: Tag, Link { prev, next }: Link) -> Record {
        Record { tagged: (tag as u32) << 30 | (prev & FIELD), word: next }
    }

    #[inline]
    fn link(self) -> Link {
        let prev = self.tagged & FIELD;
        Link { prev: if prev == FIELD { Link::NIL } else { prev }, next: self.word }
    }

    /// A cold-table entry at read count `count` (at most 65,535), position `pos`.
    #[inline]
    pub(crate) fn cold(count: u32, pos: u32) -> Record {
        debug_assert!(count < FIELD);
        Record { tagged: (Tag::Cold as u32) << 30 | count, word: pos }
    }

    #[inline]
    pub(crate) fn count(self) -> u32 {
        self.tagged & FIELD
    }

    #[inline]
    pub(crate) fn pos(self) -> u32 {
        self.word
    }
}

/// PPB's per-LPN area state: one 8-byte record per logical page, saying whether
/// the hot list, the iron-hot list, the cold table or nothing tracks the page —
/// an LPN cannot be in two places — and holding that place's links or slot.
///
/// [`HotArea`] and [`ColdArea`](crate::ColdArea) keep only their order (list
/// heads, buckets) and take this table on every call; a host op reads one record
/// to find a page's level.
///
/// # Example
///
/// ```
/// use vflash_ftl::Lpn;
/// use vflash_ppb::{AreaRecords, ColdArea, HotArea, Hotness};
///
/// let mut records = AreaRecords::new(1_000);
/// let (mut hot, mut cold) = (HotArea::new(8, 8), ColdArea::new(64, 1));
/// hot.on_write(&mut records, Lpn(1));
/// cold.on_write(&mut records, Lpn(2));
/// assert_eq!(hot.level_of(&records, Lpn(1)), Some(Hotness::Hot));
/// assert_eq!(cold.level_of(&records, Lpn(2)), Some(Hotness::IcyCold));
/// assert_eq!(cold.level_of(&records, Lpn(1)), None);
/// ```
#[derive(Debug, Clone)]
pub struct AreaRecords {
    records: Vec<Record>,
}

impl AreaRecords {
    /// Most logical pages a table holds: a link keeps 30 bits of key, and all
    /// ones marks the head of a list (16 TiB of 16 KiB pages).
    pub const MAX_LOGICAL_PAGES: u64 = FIELD as u64;

    /// An all-untracked table for LPNs in `0..logical_pages`. Any LPN outside that
    /// range panics when an area is asked about it.
    ///
    /// # Panics
    ///
    /// Panics if `logical_pages` exceeds [`AreaRecords::MAX_LOGICAL_PAGES`].
    pub fn new(logical_pages: u64) -> Self {
        let addressable = logical_pages <= Self::MAX_LOGICAL_PAGES;
        assert!(addressable, "area records hold at most 2^30 - 1 LPNs");
        AreaRecords { records: vec![Record::UNTRACKED; logical_pages as usize] }
    }

    /// The key of `lpn`. An LPN past the table clamps to its length, which every
    /// record access then refuses (an index panic, never an aliased key).
    #[inline]
    pub(crate) fn key(&self, lpn: Lpn) -> u32 {
        lpn.0.min(self.records.len() as u64) as u32
    }

    #[inline]
    pub(crate) fn get(&self, key: u32) -> Record {
        self.records[key as usize]
    }

    #[inline]
    pub(crate) fn set(&mut self, key: u32, record: Record) {
        self.records[key as usize] = record;
    }

    /// Patches the bucket position of the cold entry `key`.
    #[inline]
    pub(crate) fn set_pos(&mut self, key: u32, pos: u32) {
        self.records[key as usize].word = pos;
    }

    /// The records as the list of `tag` sees them.
    fn list(&mut self, tag: Tag) -> ListLinks<'_> {
        ListLinks { records: &mut self.records, tag }
    }

    /// Number of records carrying each tag, indexed by `Tag as usize`.
    pub(crate) fn census(&self) -> [usize; 4] {
        let mut census = [0; 4];
        for record in &self.records {
            census[record.tag() as usize] += 1;
        }
        census
    }

    /// Heap bytes the table holds.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<Record>()
    }
}

/// The records as one list's [`LinkStore`]: a key is on the list when its record
/// carries the list's tag.
struct ListLinks<'a> {
    records: &'a mut [Record],
    tag: Tag,
}

impl LinkStore for ListLinks<'_> {
    #[inline]
    fn link(&self, key: u32) -> Option<Link> {
        let record = self.records[key as usize];
        (record.tag() == self.tag).then(|| record.link())
    }

    #[inline]
    fn set_link(&mut self, key: u32, link: Link) {
        let record = &mut self.records[key as usize];
        debug_assert!(matches!(record.tag(), Tag::Untracked) || record.tag() == self.tag);
        *record = Record::listed(self.tag, link);
    }

    #[inline]
    fn set_prev(&mut self, key: u32, prev: u32) {
        self.records[key as usize].tagged = (self.tag as u32) << 30 | (prev & FIELD);
    }

    #[inline]
    fn set_next(&mut self, key: u32, next: u32) {
        self.records[key as usize].word = next;
    }

    #[inline]
    fn unlink(&mut self, key: u32) {
        self.records[key as usize] = Record::UNTRACKED;
    }
}

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
/// lists are threaded through the [`AreaRecords`] the caller passes in: every
/// operation is O(1) and hash-free, and the area itself holds two list heads. An
/// LPN the cold area tracks must leave it before the hot area takes it.
///
/// # Example
///
/// ```
/// use vflash_ftl::Lpn;
/// use vflash_ppb::{AreaRecords, HotArea, Hotness, PromotionOutcome};
///
/// let mut records = AreaRecords::new(1_000);
/// let mut area = HotArea::new(8, 8);
/// area.on_write(&mut records, Lpn(1));
/// assert_eq!(area.level_of(&records, Lpn(1)), Some(Hotness::Hot));
/// assert!(matches!(area.on_read(&mut records, Lpn(1)), PromotionOutcome::Promoted { .. }));
/// assert_eq!(area.level_of(&records, Lpn(1)), Some(Hotness::IronHot));
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
        HotArea { hot: LruOrder::new(hot_capacity), iron_hot: LruOrder::new(iron_hot_capacity) }
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
    pub fn contains(&self, records: &AreaRecords, lpn: Lpn) -> bool {
        self.level_of(records, lpn).is_some()
    }

    /// The hotness level the hot area assigns to `lpn`, if tracked.
    pub fn level_of(&self, records: &AreaRecords, lpn: Lpn) -> Option<Hotness> {
        match records.get(records.key(lpn)).tag() {
            Tag::Hot => Some(Hotness::Hot),
            Tag::IronHot => Some(Hotness::IronHot),
            Tag::Untracked | Tag::Cold => None,
        }
    }

    /// Records a host write of `lpn` that the first-stage classifier deemed hot.
    ///
    /// A new entry lands at the head of the hot list; an existing entry (hot or
    /// iron-hot) only has its recency refreshed. If the hot list overflows, the
    /// evicted LPN is returned so the caller can demote it to the cold area
    /// ("demote if full", Figure 6).
    pub fn on_write(&mut self, records: &mut AreaRecords, lpn: Lpn) -> Option<Lpn> {
        let key = records.key(lpn);
        if self.iron_hot.touch(&mut records.list(Tag::IronHot), key) {
            return None;
        }
        self.hot.insert(&mut records.list(Tag::Hot), key).map(lpn_of)
    }

    /// Records a host read of `lpn`.
    ///
    /// A read of a hot-list entry is the "re-access" signal that promotes it to the
    /// iron-hot list. If the iron-hot list is full, its least recently used entry is
    /// demoted back to the head of the hot list, into the slot the promoted entry
    /// just left.
    pub fn on_read(&mut self, records: &mut AreaRecords, lpn: Lpn) -> PromotionOutcome {
        let key = records.key(lpn);
        match records.get(key).tag() {
            Tag::IronHot => {
                self.iron_hot.touch(&mut records.list(Tag::IronHot), key);
                PromotionOutcome::AlreadyIronHot
            }
            Tag::Hot => {
                self.hot.remove(&mut records.list(Tag::Hot), key);
                let mut demoted_to_hot = None;
                if self.iron_hot.is_full() {
                    let demoted = self.iron_hot.pop_least_recent(&mut records.list(Tag::IronHot));
                    if let Some(demoted) = demoted {
                        let evicted = self.hot.insert(&mut records.list(Tag::Hot), demoted);
                        debug_assert!(evicted.is_none());
                        demoted_to_hot = Some(lpn_of(demoted));
                    }
                }
                self.iron_hot.insert(&mut records.list(Tag::IronHot), key);
                PromotionOutcome::Promoted { demoted_to_hot }
            }
            Tag::Untracked | Tag::Cold => PromotionOutcome::NotTracked,
        }
    }

    /// Stops tracking `lpn` (used when a write is re-classified cold and the entry
    /// moves to the cold area). Returns `true` if it was tracked.
    pub fn remove(&mut self, records: &mut AreaRecords, lpn: Lpn) -> bool {
        let key = records.key(lpn);
        match records.get(key).tag() {
            Tag::Hot => self.hot.remove(&mut records.list(Tag::Hot), key),
            Tag::IronHot => self.iron_hot.remove(&mut records.list(Tag::IronHot), key),
            Tag::Untracked | Tag::Cold => false,
        }
    }

    /// Both lists are well formed in `records`: walked from the head, each entry
    /// carries its list's tag and links back to the entry before it, and the walk
    /// ends at the tail after exactly the list's length.
    pub(crate) fn check(&self, records: &AreaRecords) -> Result<(), String> {
        check_list("hot", &self.hot, Tag::Hot, records)?;
        check_list("iron-hot", &self.iron_hot, Tag::IronHot, records)
    }
}

fn check_list(name: &str, order: &LruOrder, tag: Tag, records: &AreaRecords) -> Result<(), String> {
    let (mut prev, mut key, mut walked) = (Link::NIL, order.most_recent(), 0);
    while let Some(at) = key {
        let record = records.get(at);
        if record.tag() != tag {
            let tag = record.tag();
            return Err(format!("the {name} list holds LPN{at}, whose record is {tag:?}"));
        }
        let link = record.link();
        if link.prev != prev {
            return Err(format!("LPN{at} on the {name} list does not link back to its predecessor"));
        }
        walked += 1;
        if walked > order.len() {
            return Err(format!("the {name} list is longer than its length {}", order.len()));
        }
        prev = at;
        key = (link.next != Link::NIL).then_some(link.next);
    }
    if walked != order.len() || order.least_recent() != (prev != Link::NIL).then_some(prev) {
        return Err(format!("the {name} list walks {walked} entries but holds {}", order.len()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area(hot: usize, iron_hot: usize) -> (AreaRecords, HotArea) {
        (AreaRecords::new(64), HotArea::new(hot, iron_hot))
    }

    #[test]
    fn a_record_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 8);
        assert_eq!(Record::UNTRACKED.tag(), Tag::Untracked);
    }

    #[test]
    fn a_record_round_trips_its_links_and_its_cold_slot() {
        let last = (AreaRecords::MAX_LOGICAL_PAGES - 1) as u32;
        for tag in [Tag::Hot, Tag::IronHot] {
            for link in [
                Link { prev: Link::NIL, next: Link::NIL },
                Link { prev: 0, next: last },
                Link { prev: last, next: 0 },
            ] {
                let record = Record::listed(tag, link);
                assert_eq!((record.tag(), record.link()), (tag, link));
            }
        }
        let record = Record::cold(u32::from(u16::MAX), u32::MAX - 1);
        assert_eq!((record.tag(), record.count(), record.pos()), (Tag::Cold, 65_535, u32::MAX - 1));
    }

    #[test]
    #[should_panic(expected = "at most 2^30 - 1")]
    fn tables_past_the_key_range_are_refused() {
        let _ = AreaRecords::new(AreaRecords::MAX_LOGICAL_PAGES + 1);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn lpns_past_the_table_panic_instead_of_aliasing() {
        let (mut records, mut area) = area(4, 4);
        area.on_write(&mut records, Lpn((1 << 32) + 1));
    }

    #[test]
    fn new_writes_enter_the_hot_list() {
        let (mut records, mut area) = area(4, 4);
        assert_eq!(area.on_write(&mut records, Lpn(1)), None);
        assert_eq!(area.level_of(&records, Lpn(1)), Some(Hotness::Hot));
        assert_eq!(area.hot_len(), 1);
        assert_eq!(area.iron_hot_len(), 0);
        assert!(area.contains(&records, Lpn(1)));
        area.check(&records).unwrap();
    }

    #[test]
    fn read_promotes_hot_entries_to_iron_hot() {
        let (mut records, mut area) = area(4, 4);
        area.on_write(&mut records, Lpn(1));
        let outcome = area.on_read(&mut records, Lpn(1));
        assert_eq!(outcome, PromotionOutcome::Promoted { demoted_to_hot: None });
        assert_eq!(area.level_of(&records, Lpn(1)), Some(Hotness::IronHot));
        assert_eq!(area.on_read(&mut records, Lpn(1)), PromotionOutcome::AlreadyIronHot);
    }

    #[test]
    fn reads_of_untracked_entries_are_ignored() {
        let (mut records, mut area) = area(4, 4);
        assert_eq!(area.on_read(&mut records, Lpn(9)), PromotionOutcome::NotTracked);
    }

    #[test]
    fn full_iron_hot_list_demotes_lru_back_to_hot() {
        let (mut records, mut area) = area(8, 2);
        for lpn in [1, 2, 3] {
            area.on_write(&mut records, Lpn(lpn));
            area.on_read(&mut records, Lpn(lpn));
        }
        // Promoting LPN3 overflowed the iron-hot list: LPN1 was demoted to hot.
        assert_eq!(area.level_of(&records, Lpn(1)), Some(Hotness::Hot));
        assert_eq!(area.level_of(&records, Lpn(2)), Some(Hotness::IronHot));
        assert_eq!(area.level_of(&records, Lpn(3)), Some(Hotness::IronHot));
        assert_eq!(area.iron_hot_len(), 2);
        area.check(&records).unwrap();
    }

    #[test]
    fn full_hot_list_evicts_lru_towards_cold_area() {
        let (mut records, mut area) = area(2, 2);
        assert_eq!(area.on_write(&mut records, Lpn(1)), None);
        assert_eq!(area.on_write(&mut records, Lpn(2)), None);
        assert_eq!(area.on_write(&mut records, Lpn(3)), Some(Lpn(1)));
        assert!(!area.contains(&records, Lpn(1)));
        assert_eq!(records.get(1), Record::UNTRACKED);
    }

    #[test]
    fn rewrites_refresh_recency_without_duplicating() {
        let (mut records, mut area) = area(2, 2);
        area.on_write(&mut records, Lpn(1));
        area.on_write(&mut records, Lpn(2));
        area.on_write(&mut records, Lpn(1));
        // LPN2 is now the LRU entry and gets evicted first.
        assert_eq!(area.on_write(&mut records, Lpn(3)), Some(Lpn(2)));
        assert_eq!(area.hot_len(), 2);
    }

    #[test]
    fn writes_to_iron_hot_entries_keep_them_iron_hot() {
        let (mut records, mut area) = area(4, 4);
        area.on_write(&mut records, Lpn(1));
        area.on_read(&mut records, Lpn(1));
        assert_eq!(area.on_write(&mut records, Lpn(1)), None);
        assert_eq!(area.level_of(&records, Lpn(1)), Some(Hotness::IronHot));
    }

    #[test]
    fn remove_untracks_from_either_list() {
        let (mut records, mut area) = area(4, 4);
        area.on_write(&mut records, Lpn(1));
        area.on_write(&mut records, Lpn(2));
        area.on_read(&mut records, Lpn(2));
        assert!(area.remove(&mut records, Lpn(1)));
        assert!(area.remove(&mut records, Lpn(2)));
        assert!(!area.remove(&mut records, Lpn(3)));
        assert!(!area.contains(&records, Lpn(1)));
        assert!(!area.contains(&records, Lpn(2)));
        assert_eq!(records.census(), [64, 0, 0, 0]);
    }

    #[test]
    fn the_check_finds_a_broken_link_and_a_stray_tag() {
        let (mut records, mut area) = area(4, 4);
        for lpn in [1, 2, 3] {
            area.on_write(&mut records, Lpn(lpn));
        }
        area.check(&records).unwrap();
        let middle = records.get(2);
        records.set(2, Record::cold(0, 0));
        assert!(area.check(&records).unwrap_err().contains("whose record is Cold"));
        records.set(2, Record { word: 9, ..middle });
        assert!(area.check(&records).is_err());
    }
}
