//! Two-level LRU hot/cold identification.

use crate::hotcold::Temperature;
use crate::lru::LruList;
use crate::types::Lpn;

/// The two-level LRU scheme of Chang & Kuo (RTAS 2002).
///
/// Two LRU lists are kept: a *candidate* list of recently written pages and a *hot*
/// list. A page first enters the candidate list (classified cold); if it is written
/// again while still on the candidate list it is promoted to the hot list and
/// classified hot from then on, until it ages out of the hot list.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoLevelLru {
    hot: LruList,
    candidates: LruList,
}

impl TwoLevelLru {
    /// Creates the classifier with the given list capacities.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(hot_capacity: usize, candidate_capacity: usize) -> Self {
        TwoLevelLru {
            hot: LruList::new(hot_capacity),
            candidates: LruList::new(candidate_capacity),
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
        self.hot.contains(lpn)
    }

    /// Classifies the write of `lpn` that belongs to a host request of
    /// `request_bytes` bytes.
    pub fn classify_write(&mut self, lpn: Lpn, _request_bytes: u32) -> Temperature {
        if self.hot.touch(lpn) {
            return Temperature::Hot;
        }
        if self.candidates.remove(lpn) {
            // Second write while still a candidate: promote to the hot list. A full
            // hot list demotes its least recently used entry back to the candidates,
            // into the slot the promotion just freed.
            if let Some(demoted) = self.hot.insert(lpn) {
                self.candidates.insert(demoted);
            }
            return Temperature::Hot;
        }
        // First sighting: enter the candidate list, classified cold.
        self.candidates.insert(lpn);
        Temperature::Cold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
