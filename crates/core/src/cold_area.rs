//! The cold data area: an access-frequency table for cold and icy-cold entries.

use vflash_ftl::{ListTable, Lpn};

use crate::hot_area::COLD;
use crate::hotness::Hotness;

/// Cold-area bookkeeping (paper Figure 11).
///
/// Each tracked entry table how many times it has been re-read since it entered the
/// cold area. Entries with at least `promote_reads` recorded reads are considered
/// [`Hotness::Cold`] (write-once-read-**many**, worth serving from fast pages);
/// entries below the threshold — and entries not tracked at all — are
/// [`Hotness::IcyCold`].
///
/// The table is capacity-bounded: when it overflows, a least-read entry is dropped,
/// which implicitly demotes it to icy-cold ("demote if full").
///
/// # Complexity
///
/// The table sits on the host write path and its capacity scales with the logical
/// address space, so no operation — overflow eviction included — may scan entries.
/// Entries are therefore kept in per-read-count buckets: read counts are clamped to
/// the promotion threshold (beyond it the level no longer changes), bucket moves on
/// reads are position-mapped swaps, and eviction pops from the lowest occupied
/// bucket (of `promote_reads + 1`), an arbitrary but deterministic least-read
/// victim. Each tracked entry's [`ListTable`] entry — the one the caller passes in
/// and shares with the [`HotArea`](crate::HotArea) — carries the cold tag, its
/// bucket (the clamped read count) in the 30-bit field and its position inside
/// that bucket in the word: one load, no hashing, no per-LPN table of the cold
/// area's own; a bucket entry is a 4-byte LPN. An LPN the hot area tracks must
/// leave it before the cold area takes it.
///
/// # Example
///
/// ```
/// use vflash_ftl::{ListTable, Lpn};
/// use vflash_ppb::{ColdArea, HotArea, Hotness};
///
/// let mut table = ListTable::new(1_000);
/// let (mut area, mut hot) = (ColdArea::new(64, 1), HotArea::new(8, 8));
/// area.on_write(&mut table, Lpn(5));
/// hot.on_write(&mut table, Lpn(6));
/// assert_eq!(area.level_of(&table, Lpn(5)), Some(Hotness::IcyCold));
/// assert_eq!(area.level_of(&table, Lpn(6)), None);
/// area.on_read(&mut table, Lpn(5));
/// assert_eq!(area.level_of(&table, Lpn(5)), Some(Hotness::Cold));
/// ```
///
/// Equality is structural and includes the bucket order: two tables tracking the
/// same counts but built by different operation histories evict different victims
/// on overflow, so they are genuinely different states and compare unequal. The
/// buckets determine every tracked entry's [`ListTable`] entry, so equal areas
/// over the same table are the same cold state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdArea {
    /// `buckets[count]` holds every entry whose clamped read count is `count`; the
    /// overflow victim comes from here, never from the table.
    buckets: Vec<Vec<u32>>,
    len: usize,
    capacity: usize,
    promote_reads: u32,
}

impl ColdArea {
    /// Creates an empty cold area with the given table capacity and promotion
    /// threshold.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `promote_reads` is zero, or `capacity` does not fit
    /// a `u32` position.
    pub fn new(capacity: usize, promote_reads: u32) -> Self {
        assert!(capacity > 0, "cold table capacity must be positive");
        assert!(capacity < u32::MAX as usize, "cold table capacity must fit in u32");
        assert!(promote_reads > 0, "promotion threshold must be positive");
        ColdArea {
            buckets: vec![Vec::new(); promote_reads as usize + 1],
            len: 0,
            capacity,
            promote_reads,
        }
    }

    /// Number of entries currently tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The read count and bucket position of a tracked `key`.
    fn slot(table: &ListTable, key: u32) -> Option<(u32, u32)> {
        let (tag, count, pos) = table.entry(key);
        (tag == COLD).then_some((count, pos))
    }

    /// Whether `lpn` is tracked.
    pub fn contains(&self, table: &ListTable, lpn: Lpn) -> bool {
        Self::slot(table, table.key(lpn)).is_some()
    }

    /// The hotness level the cold area assigns to `lpn`, if tracked. Untracked LPNs
    /// are treated as icy-cold by the caller.
    pub fn level_of(&self, table: &ListTable, lpn: Lpn) -> Option<Hotness> {
        Self::slot(table, table.key(lpn)).map(|(count, _)| self.level(count))
    }

    fn level(&self, count: u32) -> Hotness {
        if count >= self.promote_reads { Hotness::Cold } else { Hotness::IcyCold }
    }

    /// Number of recorded reads for `lpn`, clamped to the promotion threshold (more
    /// reads no longer change the entry's level, so they are not counted).
    pub fn read_count(&self, table: &ListTable, lpn: Lpn) -> u32 {
        Self::slot(table, table.key(lpn)).map_or(0, |(count, _)| count)
    }

    /// Starts (or restarts) tracking `lpn` after a cold-classified write. The read
    /// counter resets because a rewrite produces a new version whose re-read behaviour
    /// is yet unknown.
    pub fn on_write(&mut self, table: &mut ListTable, lpn: Lpn) {
        let key = table.key(lpn);
        self.evict_if_needed_for(table, key);
        self.set_count(table, key, 0);
    }

    /// Inserts `lpn` with an initial read credit, used when the hot area demotes an
    /// entry (recently hot data is usually still re-read, so it enters as cold rather
    /// than icy-cold).
    pub fn insert_demoted(&mut self, table: &mut ListTable, lpn: Lpn) {
        let key = table.key(lpn);
        self.evict_if_needed_for(table, key);
        self.set_count(table, key, self.promote_reads);
    }

    /// Records a read of `lpn` if it is tracked. Returns the new level, or `None` if
    /// the LPN is not tracked by the cold area.
    pub fn on_read(&mut self, table: &mut ListTable, lpn: Lpn) -> Option<Hotness> {
        let key = table.key(lpn);
        let (count, _) = Self::slot(table, key)?;
        let bumped = count.saturating_add(1).min(self.promote_reads);
        if bumped != count {
            self.set_count(table, key, bumped);
        }
        Some(self.level(bumped))
    }

    /// Stops tracking `lpn` (used when it is re-classified hot). Returns `true` if it
    /// was tracked.
    pub fn remove(&mut self, table: &mut ListTable, lpn: Lpn) -> bool {
        let key = table.key(lpn);
        let Some(slot) = Self::slot(table, key) else { return false };
        self.detach(table, key, slot);
        true
    }

    /// Removes `key` from its bucket and untracks it.
    fn detach(&mut self, table: &mut ListTable, key: u32, (count, pos): (u32, u32)) {
        let bucket = &mut self.buckets[count as usize];
        debug_assert_eq!(bucket[pos as usize], key);
        bucket.swap_remove(pos as usize);
        if let Some(&moved) = bucket.get(pos as usize) {
            table.set_word(moved, pos);
        }
        table.clear(key);
        self.len -= 1;
    }

    /// Inserts `key` with the given clamped count, or moves it to that bucket.
    fn set_count(&mut self, table: &mut ListTable, key: u32, count: u32) {
        if let Some(slot) = Self::slot(table, key) {
            if slot.0 == count {
                return;
            }
            self.detach(table, key, slot);
        }
        debug_assert_eq!(table.tag(key), 0, "LPN{key} is on a hot list");
        let bucket = &mut self.buckets[count as usize];
        table.set(key, COLD, count, bucket.len() as u32);
        bucket.push(key);
        self.len += 1;
    }

    fn evict_if_needed_for(&mut self, table: &mut ListTable, key: u32) {
        if self.len < self.capacity || Self::slot(table, key).is_some() {
            return;
        }
        // Drop a least-read entry: it is the best icy-cold candidate and losing its
        // history is harmless (untracked entries are icy-cold anyway).
        let Some(bucket) = self.buckets.iter_mut().find(|bucket| !bucket.is_empty()) else {
            return;
        };
        let victim = bucket.pop().expect("the bucket was just found occupied");
        table.clear(victim);
        self.len -= 1;
    }

    /// Every bucket entry's [`ListTable`] entry carries the cold tag and points
    /// back at it (its bucket and position), and the buckets hold `len` entries.
    pub(crate) fn check(&self, table: &ListTable) -> Result<(), String> {
        let mut tracked = 0;
        for (count, bucket) in self.buckets.iter().enumerate() {
            for (pos, &key) in bucket.iter().enumerate() {
                let entry = table.entry(key);
                if entry != (COLD, count as u32, pos as u32) {
                    return Err(format!(
                        "cold bucket {count} holds LPN{key} at {pos}, but its entry is {entry:?}"
                    ));
                }
            }
            tracked += bucket.len();
        }
        if tracked != self.len {
            return Err(format!("the cold buckets hold {tracked} entries, not {}", self.len));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cold(capacity: usize, promote_reads: u32) -> (ListTable, ColdArea) {
        (ListTable::new(64), ColdArea::new(capacity, promote_reads))
    }

    #[test]
    fn writes_enter_as_icy_cold() {
        let (mut table, mut area) = cold(16, 1);
        area.on_write(&mut table, Lpn(1));
        assert_eq!(area.level_of(&table, Lpn(1)), Some(Hotness::IcyCold));
        assert_eq!(area.read_count(&table, Lpn(1)), 0);
        assert!(area.contains(&table, Lpn(1)));
        assert_eq!(area.len(), 1);
    }

    #[test]
    fn reads_promote_to_cold_at_the_threshold() {
        let (mut table, mut area) = cold(16, 2);
        area.on_write(&mut table, Lpn(1));
        assert_eq!(area.on_read(&mut table, Lpn(1)), Some(Hotness::IcyCold));
        assert_eq!(area.on_read(&mut table, Lpn(1)), Some(Hotness::Cold));
        assert_eq!(area.level_of(&table, Lpn(1)), Some(Hotness::Cold));
    }

    #[test]
    fn reads_of_untracked_entries_return_none() {
        let (mut table, mut area) = cold(16, 1);
        assert_eq!(area.on_read(&mut table, Lpn(7)), None);
        assert_eq!(area.level_of(&table, Lpn(7)), None);
    }

    #[test]
    fn rewrites_reset_the_read_history() {
        let (mut table, mut area) = cold(16, 1);
        area.on_write(&mut table, Lpn(1));
        area.on_read(&mut table, Lpn(1));
        assert_eq!(area.level_of(&table, Lpn(1)), Some(Hotness::Cold));
        area.on_write(&mut table, Lpn(1));
        assert_eq!(area.level_of(&table, Lpn(1)), Some(Hotness::IcyCold));
    }

    #[test]
    fn demoted_entries_enter_as_cold() {
        let (mut table, mut area) = cold(16, 2);
        area.insert_demoted(&mut table, Lpn(3));
        assert_eq!(area.level_of(&table, Lpn(3)), Some(Hotness::Cold));
    }

    #[test]
    fn overflow_evicts_a_least_read_entry() {
        let (mut table, mut area) = cold(2, 1);
        area.on_write(&mut table, Lpn(1));
        area.on_write(&mut table, Lpn(2));
        area.on_read(&mut table, Lpn(1));
        // Inserting a third entry evicts LPN2 (fewest reads), not LPN1.
        area.on_write(&mut table, Lpn(3));
        assert!(area.contains(&table, Lpn(1)));
        assert!(!area.contains(&table, Lpn(2)));
        assert!(area.contains(&table, Lpn(3)));
        assert_eq!(area.len(), 2);
    }

    #[test]
    fn rewriting_tracked_entry_at_capacity_does_not_evict_others() {
        let (mut table, mut area) = cold(2, 1);
        area.on_write(&mut table, Lpn(1));
        area.on_write(&mut table, Lpn(2));
        area.on_write(&mut table, Lpn(2));
        assert!(area.contains(&table, Lpn(1)));
        assert!(area.contains(&table, Lpn(2)));
    }

    #[test]
    fn remove_untracks() {
        let (mut table, mut area) = cold(4, 1);
        area.on_write(&mut table, Lpn(1));
        assert!(area.remove(&mut table, Lpn(1)));
        assert!(!area.remove(&mut table, Lpn(1)));
        assert!(area.is_empty());
    }

    #[test]
    fn read_counts_clamp_at_the_promotion_threshold() {
        let (mut table, mut area) = cold(4, 2);
        area.on_write(&mut table, Lpn(1));
        for _ in 0..10 {
            area.on_read(&mut table, Lpn(1));
        }
        assert_eq!(area.read_count(&table, Lpn(1)), 2);
        assert_eq!(area.level_of(&table, Lpn(1)), Some(Hotness::Cold));
    }

    #[test]
    fn eviction_prefers_lower_buckets_even_after_bucket_churn() {
        let (mut table, mut area) = cold(3, 2);
        area.on_write(&mut table, Lpn(1));
        area.on_write(&mut table, Lpn(2));
        area.on_write(&mut table, Lpn(3));
        // LPN1 and LPN3 gain reads; LPN2 stays at zero and must be the victim.
        area.on_read(&mut table, Lpn(1));
        area.on_read(&mut table, Lpn(3));
        area.on_read(&mut table, Lpn(3));
        area.on_write(&mut table, Lpn(4));
        assert!(!area.contains(&table, Lpn(2)));
        assert!(area.contains(&table, Lpn(1)));
        assert!(area.contains(&table, Lpn(3)));
        assert!(area.contains(&table, Lpn(4)));
    }

    #[test]
    fn bucket_positions_stay_consistent_under_interleaved_removal() {
        let (mut table, mut area) = cold(8, 1);
        for lpn in 0..6 {
            area.on_write(&mut table, Lpn(lpn));
        }
        // Remove from the middle of the zero bucket, then keep operating on the
        // entries whose positions were patched by the swap_remove.
        assert!(area.remove(&mut table, Lpn(2)));
        assert!(area.remove(&mut table, Lpn(0)));
        for lpn in [1u64, 3, 4, 5] {
            assert_eq!(area.on_read(&mut table, Lpn(lpn)), Some(Hotness::Cold), "lpn {lpn}");
        }
        assert_eq!(area.len(), 4);
    }

    #[test]
    fn the_check_finds_an_entry_that_does_not_point_back() {
        let (mut table, mut area) = cold(8, 1);
        for lpn in 0..3 {
            area.on_write(&mut table, Lpn(lpn));
        }
        area.check(&table).unwrap();
        table.set_word(1, 2);
        assert!(area.check(&table).unwrap_err().contains("holds LPN1 at 1"));
    }

    /// The bucketed table behaves exactly like a naive map with clamped counts.
    #[test]
    fn matches_a_naive_model_under_random_ops() {
        use std::collections::HashMap;
        let capacity = 8usize;
        let promote = 2u32;
        let (mut table, mut area) = cold(capacity, promote);
        let mut model: HashMap<u64, u32> = HashMap::new();
        let mut state = 0x1234_5678_u64;
        for _ in 0..4_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let lpn = (state >> 33) % 12;
            match state % 4 {
                0 => {
                    if model.len() >= capacity && !model.contains_key(&lpn) {
                        let min = model.values().min().copied().unwrap();
                        // The model cannot predict *which* least-read entry the
                        // bucketed table drops, only that one of them goes.
                        area.on_write(&mut table, Lpn(lpn));
                        let dropped: Vec<u64> = model
                            .keys()
                            .filter(|k| !area.contains(&table, Lpn(**k)))
                            .copied()
                            .collect();
                        assert_eq!(dropped.len(), 1);
                        assert_eq!(model[&dropped[0]], min, "evicted a non-minimal entry");
                        model.remove(&dropped[0]);
                        model.insert(lpn, 0);
                    } else {
                        area.on_write(&mut table, Lpn(lpn));
                        model.insert(lpn, 0);
                    }
                }
                1 => {
                    area.on_read(&mut table, Lpn(lpn));
                    if let Some(count) = model.get_mut(&lpn) {
                        *count = (*count + 1).min(promote);
                    }
                }
                2 => {
                    assert_eq!(area.remove(&mut table, Lpn(lpn)), model.remove(&lpn).is_some());
                }
                _ => {
                    assert_eq!(area.contains(&table, Lpn(lpn)), model.contains_key(&lpn));
                }
            }
            assert_eq!(area.len(), model.len());
            area.check(&table).unwrap();
            for (&lpn, &count) in &model {
                assert_eq!(area.read_count(&table, Lpn(lpn)), count, "count of {lpn}");
            }
        }
    }
}
