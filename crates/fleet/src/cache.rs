//! The host-side DRAM writeback cache in front of the striped keyspace.
//!
//! The cache absorbs small (hot-stream) writes in host DRAM and defers the
//! flash program until the page is evicted or a dirty-ratio flush fires, so a
//! rewrite-heavy stream costs one flash write per *eviction* instead of one
//! per host write. Cold streams — requests at or above the configured
//! write-around size — bypass the cache entirely (write-around), so one large
//! sequential pass cannot evict the whole hot set.
//!
//! Policy summary, all of it pinned by the fleet property suite:
//!
//! * **Write-allocate, write-back.** Small writes insert the page and mark it
//!   dirty; the flash write happens later. Reads never allocate: a read miss
//!   goes to the devices and leaves the cache untouched, so read scans cannot
//!   thrash the dirty set.
//! * **LRU residency.** Inserting into a full cache evicts the least-recently
//!   used page; evicting a dirty page returns it for writeback.
//! * **Dirty-ratio flush.** When more than half the capacity is dirty, the
//!   cache drains dirty pages (least-recently-used first) down to half. Flushed
//!   pages stay resident but clean.
//! * **Coherence on write-around.** A write-around of a resident page drops
//!   the cached copy (its data is superseded by the device write), keeping
//!   read-your-writes exact.
//!
//! The cache stores no data bytes — the simulator models time, not contents —
//! but it tracks residency and dirtiness exactly, which is all the timing
//! model needs. The state is two O(1) LRU lists (resident pages, and the dirty
//! ones in the same relative order), so no operation's cost depends on the
//! capacity or on how many clean pages are resident.

use vflash_ftl::{ListTable, Lpn, LruList};
use vflash_nand::Nanos;

/// Latency charged for a DRAM hit (read hit or absorbed write) — orders of
/// magnitude below a flash access.
pub(crate) const HIT_LATENCY: Nanos = Nanos::from_micros(1);

/// Tunables of the [`WritebackCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Resident capacity in pages (at least 1).
    pub capacity_pages: usize,
    /// Host requests of at least this many bytes are treated as a cold stream
    /// and written around the cache straight to the devices.
    pub write_around_bytes: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity_pages: 4096, write_around_bytes: 256 * 1024 }
    }
}

impl CacheConfig {
    /// The largest dirty count the cache tolerates before (and right after) a
    /// flush: half the capacity, rounded down.
    pub fn dirty_limit(&self) -> usize {
        self.capacity_pages / 2
    }

    /// Panics on a zero capacity.
    pub(crate) fn validate(&self) {
        assert!(self.capacity_pages > 0, "cache capacity must be at least one page");
    }

    /// Panics if a cache in front of `fleet_pages` pages could be asked to hold
    /// a page its lists cannot key (one at or past [`ListTable::MAX_KEYS`]).
    pub(crate) fn validate_keyspace(fleet_pages: u64) {
        let fits = fleet_pages <= ListTable::MAX_KEYS;
        assert!(fits, "a cached fleet must hold at most 2^30 - 1 pages");
    }
}

/// Counters the cache accumulates over a run, reported in the fleet summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Page reads served from DRAM.
    pub read_hits: u64,
    /// Page reads that missed and went to the devices.
    pub read_misses: u64,
    /// Page writes absorbed into the cache (deferred flash programs).
    pub writes_absorbed: u64,
    /// Page writes sent around the cache to the devices (cold streams).
    pub write_arounds: u64,
    /// Dirty pages written back to the devices (evictions and flushes).
    pub writebacks: u64,
    /// Dirty-ratio flush events.
    pub flushes: u64,
}

impl CacheStats {
    /// Fraction of page reads served from DRAM, in `[0, 1]`.
    pub fn read_hit_rate(&self) -> f64 {
        let total = self.read_hits + self.read_misses;
        if total == 0 {
            0.0
        } else {
            self.read_hits as f64 / total as f64
        }
    }
}

/// An LRU write-back, write-allocate page cache over fleet LPNs.
///
/// Two [`LruList`]s are the whole state: `resident` orders every cached page
/// by recency, `dirty` the dirty subset. A page enters `dirty` only in the
/// step that makes it the MRU resident, and touching a dirty page moves it to
/// the MRU end of both — so `dirty` is always `resident` restricted to dirty
/// pages, and the least-recently-used dirty page is `dirty`'s tail: flush
/// costs O(pages drained), however many older clean pages are resident.
/// The lists are indexed by page number — no hashing — at 16 bytes per fleet
/// page up to the highest one cached, and order comes only from their links, so
/// runs stay bit-reproducible.
///
/// # Example
///
/// ```
/// use vflash_fleet::{CacheConfig, WritebackCache};
///
/// let mut cache = WritebackCache::new(CacheConfig {
///     capacity_pages: 2,
///     ..CacheConfig::default()
/// });
/// assert_eq!(cache.write(7), None, "absorbing into a cold cache evicts nothing");
/// cache.write(8);
/// assert!(cache.read(7), "read-your-writes: the absorbed page hits");
/// // Inserting a third page evicts the LRU page (8 — the read refreshed 7),
/// // and the evicted page is dirty, so it comes back for writeback.
/// assert_eq!(cache.write(9), Some(8));
/// ```
#[derive(Debug, Clone)]
pub struct WritebackCache {
    config: CacheConfig,
    resident: LruList,
    dirty: LruList,
    stats: CacheStats,
    /// The victims of the latest flush, lent out by
    /// [`WritebackCache::flush_to_threshold`] and reused by the next.
    flushed: Vec<u64>,
}

impl WritebackCache {
    /// An empty cache.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity.
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        WritebackCache {
            config,
            resident: LruList::new(config.capacity_pages),
            dirty: LruList::new(config.capacity_pages),
            stats: CacheStats::default(),
            flushed: Vec::new(),
        }
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resident pages.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Resident dirty pages.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Whether `lpn` is resident (dirty or clean).
    pub fn is_resident(&self, lpn: u64) -> bool {
        self.resident.contains(Lpn(lpn))
    }

    /// Whether `lpn` is resident and dirty.
    pub fn is_dirty(&self, lpn: u64) -> bool {
        self.dirty.contains(Lpn(lpn))
    }

    /// Whether the dirty set exceeds the flush threshold.
    pub fn over_threshold(&self) -> bool {
        self.dirty.len() > self.config.dirty_limit()
    }

    /// Looks `lpn` up for a host read. A hit refreshes recency and returns
    /// `true`; a miss returns `false` and does **not** allocate.
    pub fn read(&mut self, lpn: u64) -> bool {
        let hit = self.resident.touch(Lpn(lpn));
        if hit {
            self.dirty.touch(Lpn(lpn));
            self.stats.read_hits += 1;
        } else {
            self.stats.read_misses += 1;
        }
        hit
    }

    /// Absorbs a host write of `lpn`: the page becomes the most recently used
    /// resident page and dirty. Inserting into a full cache evicts the LRU
    /// page; if that page was dirty it is returned, and the caller must write
    /// it back to the devices.
    pub fn write(&mut self, lpn: u64) -> Option<u64> {
        self.stats.writes_absorbed += 1;
        let victim = self.resident.insert(Lpn(lpn)).filter(|&victim| self.dirty.remove(victim));
        self.dirty.insert(Lpn(lpn));
        self.stats.writebacks += u64::from(victim.is_some());
        victim.map(|victim| victim.0)
    }

    /// Notes a write-around of `lpn` (a cold-stream write going straight to
    /// the devices) and drops any resident copy — the cached data is
    /// superseded, and dropping it (dirty or not) keeps read-your-writes
    /// exact without a spurious writeback.
    pub fn write_around(&mut self, lpn: u64) {
        self.stats.write_arounds += 1;
        if self.resident.remove(Lpn(lpn)) {
            self.dirty.remove(Lpn(lpn));
        }
    }

    /// Drains dirty pages, least-recently-used first, until the dirty count is
    /// back at or below the threshold. The LPNs drained stay resident — at
    /// their old recency — but clean; the caller must write them back to the
    /// devices. They are lent from a buffer of the cache's, good until its
    /// next flush: an empty list when the cache is already at or below the
    /// threshold.
    pub fn flush_to_threshold(&mut self) -> &[u64] {
        let excess = self.dirty.len().saturating_sub(self.config.dirty_limit());
        self.stats.flushes += u64::from(excess > 0);
        self.stats.writebacks += excess as u64;
        self.flushed.clear();
        self.flushed.extend((0..excess).map(|_| {
            self.dirty.pop_least_recent().expect("excess is at most the dirty count").0
        }));
        &self.flushed
    }

    /// Checks the state every operation preserves: both lists well formed,
    /// residency within the capacity, every dirty page resident, and the dirty
    /// order equal to the resident order restricted to dirty pages.
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.resident.check().map_err(|err| format!("the resident list: {err}"))?;
        self.dirty.check().map_err(|err| format!("the dirty list: {err}"))?;
        let (resident, capacity) = (self.len(), self.config.capacity_pages);
        // Equal sequences make every dirty page resident, too.
        let resident_dirty = self.resident.iter().filter(|&lpn| self.dirty.contains(lpn));
        if resident > capacity {
            Err(format!("{resident} pages resident over a capacity of {capacity}"))
        } else if !resident_dirty.eq(self.dirty.iter()) {
            Err("the dirty pages are not the resident ones in resident order".to_string())
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize) -> WritebackCache {
        WritebackCache::new(CacheConfig { capacity_pages: capacity, ..CacheConfig::default() })
    }

    #[test]
    fn read_misses_do_not_allocate() {
        let mut c = cache(4);
        assert!(!c.read(3));
        assert!(c.is_empty());
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn absorbed_writes_are_dirty_and_hit_on_readback() {
        let mut c = cache(4);
        assert_eq!(c.write(9), None);
        assert!(c.is_resident(9));
        assert!(c.is_dirty(9));
        assert!(c.read(9));
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().writes_absorbed, 1);
    }

    #[test]
    fn rewrites_do_not_double_count_dirtiness() {
        let mut c = cache(4);
        c.write(1);
        c.write(1);
        assert_eq!(c.dirty_len(), 1);
        assert_eq!(c.stats().writes_absorbed, 2);
    }

    #[test]
    fn lru_eviction_returns_dirty_victims() {
        let mut c = cache(2);
        c.write(1);
        c.write(2);
        // Touch 1 so 2 becomes LRU.
        assert!(c.read(1));
        assert_eq!(c.write(3), Some(2));
        assert!(c.is_resident(1) && c.is_resident(3) && !c.is_resident(2));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn flush_drains_to_the_threshold_oldest_first() {
        let mut c = cache(4); // dirty limit = 2
        for lpn in [10, 11, 12] {
            c.write(lpn);
        }
        assert!(c.over_threshold());
        let flushed = c.flush_to_threshold();
        assert_eq!(flushed, vec![10], "the least-recently-used dirty page flushes first");
        assert_eq!(c.dirty_len(), 2);
        assert!(!c.over_threshold());
        assert!(c.is_resident(10) && !c.is_dirty(10), "flushed pages stay resident, clean");
        assert!(c.flush_to_threshold().is_empty(), "at the threshold nothing more drains");
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn flush_skips_older_clean_pages_and_redirtied_pages_rejoin_at_the_mru_end() {
        let mut c = cache(8); // dirty limit = 4
        for lpn in 1..=6 {
            c.write(lpn);
        }
        assert_eq!(c.flush_to_threshold(), vec![1, 2]);
        // 1 and 2 are now clean and older than every dirty page. Re-dirty 1: it
        // moves to the MRU end of both orders, behind 3 to 6 and 7.
        c.write(1);
        c.write(7);
        assert_eq!(c.dirty_len(), 6);
        assert_eq!(
            c.flush_to_threshold(),
            vec![3, 4],
            "clean page 2 (the LRU resident) is skipped; re-dirtied 1 is not the oldest dirty"
        );
        assert!(c.is_dirty(1) && c.is_dirty(7) && !c.is_dirty(2));
        // A read hit refreshes a dirty page in the dirty order too: 5 was the
        // oldest dirty page, 6 is after the read.
        assert!(c.read(5));
        c.write(8);
        assert_eq!(c.flush_to_threshold(), vec![6]);
        // Residency order is untouched by flushing: clean 2 is still the LRU.
        assert_eq!(c.len(), 8);
        assert_eq!(c.write(9), None, "the evicted LRU page (2) is clean: no writeback");
        assert!(!c.is_resident(2));
    }

    #[test]
    fn write_around_drops_stale_copies_without_writeback() {
        let mut c = cache(4);
        c.write(5);
        let before = c.stats().writebacks;
        c.write_around(5);
        assert!(!c.is_resident(5));
        assert_eq!(c.dirty_len(), 0);
        assert_eq!(c.stats().writebacks, before, "superseded data is dropped, not written back");
        assert_eq!(c.stats().write_arounds, 1);
        // Write-around of a non-resident page is just a counter bump.
        c.write_around(6);
        assert_eq!(c.stats().write_arounds, 2);
    }

    #[test]
    fn hit_rate_counts_reads_only() {
        let mut c = cache(4);
        c.write(1);
        c.read(1);
        c.read(2);
        let stats = c.stats();
        assert!((stats.read_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().read_hit_rate(), 0.0);
    }

    #[test]
    fn check_invariants_names_a_stray_or_reordered_dirty_page() {
        let mut c = cache(4);
        c.write(1);
        c.write(2);
        assert_eq!(c.check_invariants(), Ok(()));
        let mut stray = c.clone();
        stray.resident.remove(Lpn(2));
        let mut reordered = c.clone();
        reordered.dirty.touch(Lpn(1));
        for broken in [stray, reordered] {
            assert!(broken.check_invariants().unwrap_err().contains("resident order"));
        }
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(std::panic::catch_unwind(|| cache(0)).is_err());
    }

    /// `Fleet::new` calls this for a cached fleet; a fleet that exported this
    /// many pages would need 2^30 page states, so the check is asked directly.
    #[test]
    fn a_keyspace_past_the_list_key_range_is_refused() {
        CacheConfig::validate_keyspace(ListTable::MAX_KEYS);
        let payload = std::panic::catch_unwind(|| {
            CacheConfig::validate_keyspace(ListTable::MAX_KEYS + 1);
        })
        .expect_err("2^30 pages must be refused");
        let message = payload.downcast_ref::<&str>();
        assert_eq!(message, Some(&"a cached fleet must hold at most 2^30 - 1 pages"));
    }
}
