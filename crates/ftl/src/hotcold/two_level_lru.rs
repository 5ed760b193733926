//! Two-level LRU hot/cold identification: two LRU lists threaded through one
//! [`ListTable`].

use crate::hotcold::Temperature;
use crate::lru::{ListTable, LruOrder};
use crate::types::Lpn;

/// The tag of a key on the hot list.
const HOT: u32 = 1;
/// The tag of a key on the candidate list.
const CANDIDATE: u32 = 2;

/// The two-level LRU scheme of Chang & Kuo (RTAS 2002).
///
/// Two LRU lists are kept: a *candidate* list of recently written pages and a *hot*
/// list. A page first enters the candidate list (classified cold); if it is written
/// again while still on the candidate list it is promoted to the hot list and
/// classified hot from then on, until it ages out of the hot list.
///
/// A page is on at most one of the two lists, so both are threaded through one
/// [`ListTable`]: 8 bytes per key in `0..=highest key written` (or in the range
/// [`TwoLevelLru::reserve_keys`] sized up front). Keys must be below
/// [`ListTable::MAX_KEYS`] (16 TiB of 16 KiB pages). Equality compares the
/// capacities and both lists' recency order, not how far the table happened to
/// grow.
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
    table: ListTable,
}

impl PartialEq for TwoLevelLru {
    fn eq(&self, other: &Self) -> bool {
        [(&self.hot, &other.hot), (&self.candidates, &other.candidates)].into_iter().all(
            |(mine, theirs)| {
                mine.capacity() == theirs.capacity()
                    && mine.iter(&self.table).eq(theirs.iter(&other.table))
            },
        )
    }
}

impl Eq for TwoLevelLru {}

impl TwoLevelLru {
    /// Creates the classifier with the given list capacities.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(hot_capacity: usize, candidate_capacity: usize) -> Self {
        TwoLevelLru {
            hot: LruOrder::new(hot_capacity, HOT),
            candidates: LruOrder::new(candidate_capacity, CANDIDATE),
            table: ListTable::default(),
        }
    }

    /// Sizes the table for keys in `0..keys` up front, so writing any of them
    /// never reallocates it.
    ///
    /// # Panics
    ///
    /// Panics if `keys` exceeds [`ListTable::MAX_KEYS`].
    pub fn reserve_keys(&mut self, keys: u64) {
        self.table.reserve(keys);
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
        self.hot.contains(&self.table, self.table.key(lpn))
    }

    /// Classifies the write of `lpn` that belongs to a host request of
    /// `request_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is not below [`ListTable::MAX_KEYS`].
    pub fn classify_write(&mut self, lpn: Lpn, _request_bytes: u32) -> Temperature {
        self.table.reserve(lpn.0.saturating_add(1));
        let (key, table) = (lpn.0 as u32, &mut self.table);
        if self.hot.touch(table, key) {
            return Temperature::Hot;
        }
        if self.candidates.remove(table, key) {
            // Second write while still a candidate: promote to the hot list. A full
            // hot list demotes its least recently used entry back to the candidates,
            // into the slot the promotion just freed.
            if let Some(demoted) = self.hot.insert(table, key) {
                self.candidates.insert(table, demoted);
            }
            return Temperature::Hot;
        }
        // First sighting: enter the candidate list, classified cold.
        self.candidates.insert(table, key);
        Temperature::Cold
    }

    /// Heap bytes the table holds.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.table.heap_bytes()
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
        [&lru.hot, &lru.candidates]
            .map(|list| list.iter(&lru.table).map(|key| Lpn(key.into())).collect())
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
                prop_assert_eq!(lru.hot.check(&lru.table), Ok(()));
                prop_assert_eq!(lru.candidates.check(&lru.table), Ok(()));
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
        lru.classify_write(Lpn(ListTable::MAX_KEYS), 4096);
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
