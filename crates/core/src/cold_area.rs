//! The cold data area: an access-frequency table for cold and icy-cold entries.

use vflash_ftl::Lpn;

use crate::hotness::Hotness;

/// `pos` value of an LPN the table does not track.
const UNTRACKED: u32 = u32::MAX;

/// Where one tracked entry lives: its clamped read count (= bucket index) and its
/// position inside that bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    count: u32,
    pos: u32,
}

/// Cold-area bookkeeping (paper Figure 11).
///
/// Each tracked entry records how many times it has been re-read since it entered the
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
/// victim. Each entry's bucket and position live in a dense table indexed by LPN —
/// one load, no hashing, 8 bytes per logical page, sized once at construction.
///
/// # Example
///
/// ```
/// use vflash_ftl::Lpn;
/// use vflash_ppb::{ColdArea, Hotness};
///
/// let mut area = ColdArea::new(1_000, 64, 1);
/// area.on_write(Lpn(5));
/// assert_eq!(area.level_of(Lpn(5)), Some(Hotness::IcyCold));
/// area.on_read(Lpn(5));
/// assert_eq!(area.level_of(Lpn(5)), Some(Hotness::Cold));
/// ```
///
/// Equality is structural and includes the bucket order: two tables tracking the
/// same counts but built by different operation histories evict different victims
/// on overflow, so they are genuinely different states and compare unequal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdArea {
    /// `slots[lpn]` locates a tracked entry inside `buckets`; eviction order never
    /// depends on this table (it comes from `buckets`).
    slots: Vec<Slot>,
    /// `buckets[count]` holds every entry whose clamped read count is `count`.
    buckets: Vec<Vec<Lpn>>,
    len: usize,
    capacity: usize,
    promote_reads: u32,
}

impl ColdArea {
    /// Creates the cold area for LPNs in `0..logical_pages` with the given table
    /// capacity and promotion threshold. Tracking an LPN outside that range panics.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `promote_reads` is zero, or `capacity` does not fit
    /// a `u32` position.
    pub fn new(logical_pages: u64, capacity: usize, promote_reads: u32) -> Self {
        assert!(capacity > 0, "cold table capacity must be positive");
        assert!(capacity < UNTRACKED as usize, "cold table capacity must fit in u32");
        assert!(promote_reads > 0, "promotion threshold must be positive");
        ColdArea {
            slots: vec![Slot { count: 0, pos: UNTRACKED }; logical_pages as usize],
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

    fn slot(&self, lpn: Lpn) -> Option<Slot> {
        self.slots.get(lpn.as_usize()).copied().filter(|slot| slot.pos != UNTRACKED)
    }

    /// Whether `lpn` is tracked.
    pub fn contains(&self, lpn: Lpn) -> bool {
        self.slot(lpn).is_some()
    }

    /// The hotness level the cold area assigns to `lpn`, if tracked. Untracked LPNs
    /// are treated as icy-cold by the caller.
    pub fn level_of(&self, lpn: Lpn) -> Option<Hotness> {
        self.slot(lpn).map(|slot| self.level(slot.count))
    }

    fn level(&self, count: u32) -> Hotness {
        if count >= self.promote_reads { Hotness::Cold } else { Hotness::IcyCold }
    }

    /// Number of recorded reads for `lpn`, clamped to the promotion threshold (more
    /// reads no longer change the entry's level, so they are not counted).
    pub fn read_count(&self, lpn: Lpn) -> u32 {
        self.slot(lpn).map(|slot| slot.count).unwrap_or(0)
    }

    /// Starts (or restarts) tracking `lpn` after a cold-classified write. The read
    /// counter resets because a rewrite produces a new version whose re-read behaviour
    /// is yet unknown.
    pub fn on_write(&mut self, lpn: Lpn) {
        self.evict_if_needed_for(lpn);
        self.set_count(lpn, 0);
    }

    /// Inserts `lpn` with an initial read credit, used when the hot area demotes an
    /// entry (recently hot data is usually still re-read, so it enters as cold rather
    /// than icy-cold).
    pub fn insert_demoted(&mut self, lpn: Lpn) {
        self.evict_if_needed_for(lpn);
        self.set_count(lpn, self.promote_reads);
    }

    /// Records a read of `lpn` if it is tracked. Returns the new level, or `None` if
    /// the LPN is not tracked by the cold area.
    pub fn on_read(&mut self, lpn: Lpn) -> Option<Hotness> {
        let count = self.slot(lpn)?.count;
        let bumped = count.saturating_add(1).min(self.promote_reads);
        if bumped != count {
            self.set_count(lpn, bumped);
        }
        Some(self.level(bumped))
    }

    /// Stops tracking `lpn` (used when it is re-classified hot). Returns `true` if it
    /// was tracked.
    pub fn remove(&mut self, lpn: Lpn) -> bool {
        let Some(slot) = self.slot(lpn) else { return false };
        self.detach(lpn, slot);
        true
    }

    /// Removes `lpn` from its bucket and untracks it.
    fn detach(&mut self, lpn: Lpn, slot: Slot) {
        let bucket = &mut self.buckets[slot.count as usize];
        debug_assert_eq!(bucket[slot.pos as usize], lpn);
        bucket.swap_remove(slot.pos as usize);
        if let Some(&moved) = bucket.get(slot.pos as usize) {
            self.slots[moved.as_usize()].pos = slot.pos;
        }
        self.slots[lpn.as_usize()].pos = UNTRACKED;
        self.len -= 1;
    }

    /// Inserts `lpn` with the given clamped count, or moves it to that bucket.
    fn set_count(&mut self, lpn: Lpn, count: u32) {
        if let Some(slot) = self.slot(lpn) {
            if slot.count == count {
                return;
            }
            self.detach(lpn, slot);
        }
        let bucket = &mut self.buckets[count as usize];
        self.slots[lpn.as_usize()] = Slot { count, pos: bucket.len() as u32 };
        bucket.push(lpn);
        self.len += 1;
    }

    fn evict_if_needed_for(&mut self, lpn: Lpn) {
        if self.len < self.capacity || self.contains(lpn) {
            return;
        }
        // Drop a least-read entry: it is the best icy-cold candidate and losing its
        // history is harmless (untracked entries are icy-cold anyway).
        let Some(bucket) = self.buckets.iter_mut().find(|bucket| !bucket.is_empty()) else {
            return;
        };
        let victim = bucket.pop().expect("the bucket was just found occupied");
        self.slots[victim.as_usize()].pos = UNTRACKED;
        self.len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_enter_as_icy_cold() {
        let mut area = ColdArea::new(64, 16, 1);
        area.on_write(Lpn(1));
        assert_eq!(area.level_of(Lpn(1)), Some(Hotness::IcyCold));
        assert_eq!(area.read_count(Lpn(1)), 0);
        assert!(area.contains(Lpn(1)));
        assert_eq!(area.len(), 1);
    }

    #[test]
    fn reads_promote_to_cold_at_the_threshold() {
        let mut area = ColdArea::new(64, 16, 2);
        area.on_write(Lpn(1));
        assert_eq!(area.on_read(Lpn(1)), Some(Hotness::IcyCold));
        assert_eq!(area.on_read(Lpn(1)), Some(Hotness::Cold));
        assert_eq!(area.level_of(Lpn(1)), Some(Hotness::Cold));
    }

    #[test]
    fn reads_of_untracked_entries_return_none() {
        let mut area = ColdArea::new(64, 16, 1);
        assert_eq!(area.on_read(Lpn(7)), None);
        assert_eq!(area.level_of(Lpn(7)), None);
    }

    #[test]
    fn rewrites_reset_the_read_history() {
        let mut area = ColdArea::new(64, 16, 1);
        area.on_write(Lpn(1));
        area.on_read(Lpn(1));
        assert_eq!(area.level_of(Lpn(1)), Some(Hotness::Cold));
        area.on_write(Lpn(1));
        assert_eq!(area.level_of(Lpn(1)), Some(Hotness::IcyCold));
    }

    #[test]
    fn demoted_entries_enter_as_cold() {
        let mut area = ColdArea::new(64, 16, 2);
        area.insert_demoted(Lpn(3));
        assert_eq!(area.level_of(Lpn(3)), Some(Hotness::Cold));
    }

    #[test]
    fn overflow_evicts_a_least_read_entry() {
        let mut area = ColdArea::new(64, 2, 1);
        area.on_write(Lpn(1));
        area.on_write(Lpn(2));
        area.on_read(Lpn(1));
        // Inserting a third entry evicts LPN2 (fewest reads), not LPN1.
        area.on_write(Lpn(3));
        assert!(area.contains(Lpn(1)));
        assert!(!area.contains(Lpn(2)));
        assert!(area.contains(Lpn(3)));
        assert_eq!(area.len(), 2);
    }

    #[test]
    fn rewriting_tracked_entry_at_capacity_does_not_evict_others() {
        let mut area = ColdArea::new(64, 2, 1);
        area.on_write(Lpn(1));
        area.on_write(Lpn(2));
        area.on_write(Lpn(2));
        assert!(area.contains(Lpn(1)));
        assert!(area.contains(Lpn(2)));
    }

    #[test]
    fn remove_untracks() {
        let mut area = ColdArea::new(64, 4, 1);
        area.on_write(Lpn(1));
        assert!(area.remove(Lpn(1)));
        assert!(!area.remove(Lpn(1)));
        assert!(area.is_empty());
    }

    #[test]
    fn read_counts_clamp_at_the_promotion_threshold() {
        let mut area = ColdArea::new(64, 4, 2);
        area.on_write(Lpn(1));
        for _ in 0..10 {
            area.on_read(Lpn(1));
        }
        assert_eq!(area.read_count(Lpn(1)), 2);
        assert_eq!(area.level_of(Lpn(1)), Some(Hotness::Cold));
    }

    #[test]
    fn eviction_prefers_lower_buckets_even_after_bucket_churn() {
        let mut area = ColdArea::new(64, 3, 2);
        area.on_write(Lpn(1));
        area.on_write(Lpn(2));
        area.on_write(Lpn(3));
        // LPN1 and LPN3 gain reads; LPN2 stays at zero and must be the victim.
        area.on_read(Lpn(1));
        area.on_read(Lpn(3));
        area.on_read(Lpn(3));
        area.on_write(Lpn(4));
        assert!(!area.contains(Lpn(2)));
        assert!(area.contains(Lpn(1)));
        assert!(area.contains(Lpn(3)));
        assert!(area.contains(Lpn(4)));
    }

    #[test]
    fn bucket_positions_stay_consistent_under_interleaved_removal() {
        let mut area = ColdArea::new(64, 8, 1);
        for lpn in 0..6 {
            area.on_write(Lpn(lpn));
        }
        // Remove from the middle of the zero bucket, then keep operating on the
        // entries whose positions were patched by the swap_remove.
        assert!(area.remove(Lpn(2)));
        assert!(area.remove(Lpn(0)));
        for lpn in [1u64, 3, 4, 5] {
            assert_eq!(area.on_read(Lpn(lpn)), Some(Hotness::Cold), "lpn {lpn}");
        }
        assert_eq!(area.len(), 4);
    }

    /// The bucketed table behaves exactly like a naive map with clamped counts.
    #[test]
    fn matches_a_naive_model_under_random_ops() {
        use std::collections::HashMap;
        let capacity = 8usize;
        let promote = 2u32;
        let mut area = ColdArea::new(64, capacity, promote);
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
                        area.on_write(Lpn(lpn));
                        let dropped: Vec<u64> = model
                            .keys()
                            .filter(|k| !area.contains(Lpn(**k)))
                            .copied()
                            .collect();
                        assert_eq!(dropped.len(), 1);
                        assert_eq!(model[&dropped[0]], min, "evicted a non-minimal entry");
                        model.remove(&dropped[0]);
                        model.insert(lpn, 0);
                    } else {
                        area.on_write(Lpn(lpn));
                        model.insert(lpn, 0);
                    }
                }
                1 => {
                    area.on_read(Lpn(lpn));
                    if let Some(count) = model.get_mut(&lpn) {
                        *count = (*count + 1).min(promote);
                    }
                }
                2 => {
                    assert_eq!(area.remove(Lpn(lpn)), model.remove(&lpn).is_some());
                }
                _ => {
                    assert_eq!(area.contains(Lpn(lpn)), model.contains_key(&lpn));
                }
            }
            assert_eq!(area.len(), model.len());
            for (&lpn, &count) in &model {
                assert_eq!(area.read_count(Lpn(lpn)), count, "count of {lpn}");
            }
        }
    }
}
