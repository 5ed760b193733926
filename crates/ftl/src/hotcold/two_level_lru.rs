//! Two-level LRU hot/cold identification.

use crate::hotcold::Temperature;
use crate::lru::{Link, LinkStore, LruOrder};
use crate::types::Lpn;

/// The list an entry is on: the top two bits of its table word, zero for
/// neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum List {
    Hot = 1,
    Candidates = 2,
}

/// Where an entry's list tag starts.
const TAG_SHIFT: u32 = 62;
/// Where an entry's `prev` link starts.
const PREV_SHIFT: u32 = 32;
/// The bits of an entry's `prev` link: a key, or all ones at the head.
const PREV: u64 = (1 << 30) - 1;

/// The two-level LRU scheme of Chang & Kuo (RTAS 2002).
///
/// Two LRU lists are kept: a *candidate* list of recently written pages and a *hot*
/// list. A page first enters the candidate list (classified cold); if it is written
/// again while still on the candidate list it is promoted to the hot list and
/// classified hot from then on, until it ages out of the hot list.
///
/// A page is on at most one of the two lists, so both are threaded through one
/// table indexed by LPN: 8 bytes per key in `0..=highest key written` (or in the
/// range [`TwoLevelLru::reserve_keys`] sized up front), holding the key's list
/// and its links on that list. Keys must be below `2^30 - 1` (16 TiB of 16 KiB
/// pages). Equality compares the capacities and both lists' recency order, not
/// how far the table happened to grow.
///
/// # Example
///
/// ```
/// use vflash_ftl::hotcold::{Temperature, TwoLevelLru};
/// use vflash_ftl::Lpn;
///
/// let mut lru = TwoLevelLru::new(4, 4);
/// assert_eq!(lru.classify_write(Lpn(1), 4096), Temperature::Cold); // first sighting
/// assert_eq!(lru.classify_write(Lpn(1), 4096), Temperature::Hot);  // re-written soon
/// ```
#[derive(Debug, Clone)]
pub struct TwoLevelLru {
    hot: LruOrder,
    candidates: LruOrder,
    /// One word per key: its [`List`] (bits 62..64, zero for neither), its
    /// `prev` link (bits 32..62, [`PREV`] at the head) and its `next` link
    /// (bits 0..32, [`Link::NIL`] at the tail).
    entries: Vec<u64>,
}

impl PartialEq for TwoLevelLru {
    fn eq(&self, other: &Self) -> bool {
        [List::Hot, List::Candidates].into_iter().all(|list| {
            self.order(list).capacity() == other.order(list).capacity()
                && self.keys(list).eq(other.keys(list))
        })
    }
}

impl Eq for TwoLevelLru {}

/// The table as one list's [`LinkStore`]: a key is on the list when its entry
/// carries the list's tag.
struct ListLinks<'a> {
    entries: &'a mut [u64],
    list: List,
}

impl LinkStore for ListLinks<'_> {
    #[inline]
    fn link(&self, key: u32) -> Option<Link> {
        let entry = self.entries[key as usize];
        (entry >> TAG_SHIFT == self.list as u64).then(|| {
            let prev = (entry >> PREV_SHIFT) & PREV;
            Link { prev: if prev == PREV { Link::NIL } else { prev as u32 }, next: entry as u32 }
        })
    }

    #[inline]
    fn set_link(&mut self, key: u32, Link { prev, next }: Link) {
        let tag = (self.list as u64) << TAG_SHIFT;
        self.entries[key as usize] = tag | (u64::from(prev) & PREV) << PREV_SHIFT | u64::from(next);
    }

    #[inline]
    fn set_prev(&mut self, key: u32, prev: u32) {
        let entry = &mut self.entries[key as usize];
        *entry = *entry & !(PREV << PREV_SHIFT) | (u64::from(prev) & PREV) << PREV_SHIFT;
    }

    #[inline]
    fn set_next(&mut self, key: u32, next: u32) {
        let entry = &mut self.entries[key as usize];
        *entry = *entry & !u64::from(u32::MAX) | u64::from(next);
    }

    #[inline]
    fn unlink(&mut self, key: u32) {
        self.entries[key as usize] = 0;
    }
}

impl TwoLevelLru {
    /// Most keys the table holds: a `prev` link keeps 30 bits of key, and all
    /// ones marks the head of a list.
    pub const MAX_KEYS: u64 = PREV;

    /// Creates the classifier with the given list capacities.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(hot_capacity: usize, candidate_capacity: usize) -> Self {
        TwoLevelLru {
            hot: LruOrder::new(hot_capacity),
            candidates: LruOrder::new(candidate_capacity),
            entries: Vec::new(),
        }
    }

    /// Sizes the table for keys in `0..keys` up front, so writing any of them
    /// never reallocates it.
    ///
    /// # Panics
    ///
    /// Panics if `keys` exceeds [`TwoLevelLru::MAX_KEYS`].
    pub fn reserve_keys(&mut self, keys: u64) {
        if keys as usize > self.entries.len() {
            assert!(keys <= Self::MAX_KEYS, "two-level LRU keys must be below 2^30 - 1");
            if self.entries.is_empty() {
                // Zeroed by the allocator: a page of the table costs memory
                // only once a key on it is written.
                self.entries = vec![0; keys as usize];
            } else {
                self.entries.resize(keys as usize, 0);
            }
        }
    }

    /// Number of pages currently tracked as hot.
    pub fn hot_len(&self) -> usize {
        self.hot.len()
    }

    /// Number of pages currently on the candidate list.
    pub fn candidate_len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether `lpn` is currently considered hot.
    pub fn is_hot(&self, lpn: Lpn) -> bool {
        usize::try_from(lpn.0)
            .ok()
            .and_then(|key| self.entries.get(key))
            .is_some_and(|&entry| entry >> TAG_SHIFT == List::Hot as u64)
    }

    /// Classifies the write of `lpn` that belongs to a host request of
    /// `request_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is not below [`TwoLevelLru::MAX_KEYS`].
    pub fn classify_write(&mut self, lpn: Lpn, _request_bytes: u32) -> Temperature {
        self.reserve_keys(lpn.0.saturating_add(1));
        let key = lpn.0 as u32;
        let entries = &mut self.entries;
        if self.hot.touch(&mut ListLinks { entries, list: List::Hot }, key) {
            return Temperature::Hot;
        }
        let mut candidates = ListLinks { entries, list: List::Candidates };
        if self.candidates.remove(&mut candidates, key) {
            // Second write while still a candidate: promote to the hot list. A full
            // hot list demotes its least recently used entry back to the candidates,
            // into the slot the promotion just freed.
            let demoted = self.hot.insert(&mut ListLinks { entries, list: List::Hot }, key);
            if let Some(demoted) = demoted {
                let mut candidates = ListLinks { entries, list: List::Candidates };
                self.candidates.insert(&mut candidates, demoted);
            }
            return Temperature::Hot;
        }
        // First sighting: enter the candidate list, classified cold.
        self.candidates.insert(&mut candidates, key);
        Temperature::Cold
    }

    fn order(&self, list: List) -> &LruOrder {
        match list {
            List::Hot => &self.hot,
            List::Candidates => &self.candidates,
        }
    }

    /// The keys on `list`, most recently used first.
    fn keys(&self, list: List) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(self.order(list).most_recent(), move |&key| {
            let next = self.entries[key as usize] as u32;
            (next != Link::NIL).then_some(next)
        })
    }

    /// Heap bytes the table holds.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruList;
    use proptest::prelude::*;

    /// The classifier as it was before its lists shared one table: two
    /// `LruList`s, each owning a link table of its own.
    #[derive(Debug)]
    struct TwoLists {
        hot: LruList,
        candidates: LruList,
    }

    impl TwoLists {
        fn classify_write(&mut self, lpn: Lpn) -> Temperature {
            if self.hot.touch(lpn) {
                return Temperature::Hot;
            }
            if self.candidates.remove(lpn) {
                if let Some(demoted) = self.hot.insert(lpn) {
                    self.candidates.insert(demoted);
                }
                return Temperature::Hot;
            }
            self.candidates.insert(lpn);
            Temperature::Cold
        }
    }

    /// Both lists of `lru`, most recently used first.
    fn lists(lru: &TwoLevelLru) -> [Vec<Lpn>; 2] {
        [List::Hot, List::Candidates]
            .map(|list| lru.keys(list).map(|key| Lpn(key.into())).collect())
    }

    proptest! {
        /// One table threaded by both lists answers every write as the two
        /// separate lists did, and holds the same lists in the same order,
        /// after every write.
        #[test]
        fn one_table_matches_the_two_list_classifier(
            hot_cap in 1usize..12,
            candidate_cap in 1usize..12,
            lpns in proptest::collection::vec(prop_oneof![0u64..40, 0u64..4_000], 1..400),
        ) {
            let mut lru = TwoLevelLru::new(hot_cap, candidate_cap);
            let mut model = TwoLists {
                hot: LruList::new(hot_cap),
                candidates: LruList::new(candidate_cap),
            };
            for &lpn in &lpns {
                let lpn = Lpn(lpn);
                prop_assert_eq!(lru.classify_write(lpn, 4096), model.classify_write(lpn));
                prop_assert_eq!(lru.hot_len(), model.hot.len());
                prop_assert_eq!(lru.candidate_len(), model.candidates.len());
                let [hot, candidates] = lists(&lru);
                prop_assert_eq!(hot, model.hot.iter().collect::<Vec<_>>());
                prop_assert_eq!(candidates, model.candidates.iter().collect::<Vec<_>>());
                for probe in [lpn, Lpn(lpn.0 + 1), Lpn(0), Lpn(5_000)] {
                    prop_assert_eq!(lru.is_hot(probe), model.hot.contains(probe));
                }
            }
        }
    }

    /// After every LPN of `0..keys` has been written once, the table holds 8
    /// bytes per key: sized up front, or grown on demand from the highest key
    /// down.
    #[test]
    fn the_table_is_eight_bytes_per_key() {
        let keys = 10_000u64;
        let mut sized = TwoLevelLru::new(64, 64);
        sized.reserve_keys(keys);
        let mut grown = TwoLevelLru::new(64, 64);
        for lpn in 0..keys {
            sized.classify_write(Lpn(lpn), 4096);
            grown.classify_write(Lpn(keys - 1 - lpn), 4096);
        }
        assert_eq!(sized.heap_bytes(), 8 * keys as usize);
        assert_eq!(grown.heap_bytes(), 8 * keys as usize);
    }

    #[test]
    fn equality_ignores_how_far_the_table_grew() {
        let mut small = TwoLevelLru::new(4, 4);
        let mut large = TwoLevelLru::new(4, 4);
        large.reserve_keys(1_000);
        for lru in [&mut small, &mut large] {
            lru.classify_write(Lpn(3), 4096);
            lru.classify_write(Lpn(3), 4096);
            lru.classify_write(Lpn(7), 4096);
        }
        assert_eq!(small, large);
        large.classify_write(Lpn(7), 4096);
        assert_ne!(small, large);
    }

    #[test]
    fn lpns_past_the_table_are_on_no_list() {
        let mut lru = TwoLevelLru::new(2, 2);
        lru.classify_write(Lpn(1), 4096);
        lru.classify_write(Lpn(1), 4096);
        assert!(lru.is_hot(Lpn(1)));
        assert!(!lru.is_hot(Lpn((1 << 32) + 1)));
        assert!(!lru.is_hot(Lpn(u64::MAX)));
    }

    #[test]
    #[should_panic(expected = "below 2^30 - 1")]
    fn writing_past_the_key_range_panics() {
        let mut lru = TwoLevelLru::new(2, 2);
        lru.classify_write(Lpn(TwoLevelLru::MAX_KEYS), 4096);
    }

    #[test]
    fn first_write_is_cold_second_is_hot() {
        let mut lru = TwoLevelLru::new(8, 8);
        assert_eq!(lru.classify_write(Lpn(5), 4096), Temperature::Cold);
        assert_eq!(lru.classify_write(Lpn(5), 4096), Temperature::Hot);
        assert!(lru.is_hot(Lpn(5)));
    }

    #[test]
    fn candidate_list_evicts_least_recent() {
        let mut lru = TwoLevelLru::new(2, 2);
        lru.classify_write(Lpn(1), 4096);
        lru.classify_write(Lpn(2), 4096);
        lru.classify_write(Lpn(3), 4096); // evicts LPN1 from candidates
        assert_eq!(lru.candidate_len(), 2);
        // LPN1 lost its candidacy, so the next write is cold again.
        assert_eq!(lru.classify_write(Lpn(1), 4096), Temperature::Cold);
    }

    #[test]
    fn hot_list_overflow_demotes_to_candidates() {
        let mut lru = TwoLevelLru::new(2, 4);
        for lpn in [10, 11, 12] {
            lru.classify_write(Lpn(lpn), 4096);
            lru.classify_write(Lpn(lpn), 4096); // promote each
        }
        assert_eq!(lru.hot_len(), 2);
        // LPN10 was the least recently used hot entry and got demoted.
        assert!(!lru.is_hot(Lpn(10)));
        assert!(lru.is_hot(Lpn(11)));
        assert!(lru.is_hot(Lpn(12)));
        // A demoted page is still a candidate, so one write re-promotes it.
        assert_eq!(lru.classify_write(Lpn(10), 4096), Temperature::Hot);
    }

    #[test]
    fn repeated_hot_writes_keep_entry_hot() {
        let mut lru = TwoLevelLru::new(2, 2);
        lru.classify_write(Lpn(1), 4096);
        lru.classify_write(Lpn(1), 4096);
        for _ in 0..10 {
            assert_eq!(lru.classify_write(Lpn(1), 4096), Temperature::Hot);
        }
        assert_eq!(lru.hot_len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = TwoLevelLru::new(0, 4);
    }

    /// Audit regression: with both capacities at the minimum of 1, a promotion into
    /// a full hot list must demote the old occupant into the (also size-1) candidate
    /// list without either list exceeding its capacity or the demoted entry
    /// vanishing entirely.
    #[test]
    fn minimum_capacities_promote_and_demote_without_overflow() {
        let mut lru = TwoLevelLru::new(1, 1);
        lru.classify_write(Lpn(1), 4096);
        assert_eq!(lru.classify_write(Lpn(1), 4096), Temperature::Hot);
        // Promoting LPN2 displaces LPN1 from the hot list into the candidate slot.
        lru.classify_write(Lpn(2), 4096);
        assert_eq!(lru.classify_write(Lpn(2), 4096), Temperature::Hot);
        assert_eq!(lru.hot_len(), 1);
        assert_eq!(lru.candidate_len(), 1);
        assert!(lru.is_hot(Lpn(2)));
        assert!(!lru.is_hot(Lpn(1)));
        // The demoted page kept its candidacy, so one write re-promotes it.
        assert_eq!(lru.classify_write(Lpn(1), 4096), Temperature::Hot);
    }
}
