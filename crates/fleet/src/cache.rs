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
//! * **Dirty-ratio flush.** When the dirty count exceeds
//!   `dirty_flush_threshold × capacity`, the cache drains dirty pages
//!   (least-recently-used first) down to the threshold. Flushed pages stay
//!   resident but clean.
//! * **Coherence on write-around.** A write-around of a resident page drops
//!   the cached copy (its data is superseded by the device write), keeping
//!   read-your-writes exact.
//!
//! The cache stores no data bytes — the simulator models time, not contents —
//! but it tracks residency and dirtiness exactly, which is all the timing
//! model needs. The state is two O(1) LRU lists (resident pages, and the dirty
//! ones in the same relative order), so no operation's cost depends on the
//! capacity or on how many clean pages are resident.

use vflash_ftl::Lpn;
use vflash_nand::Nanos;
use vflash_ppb::LruList;

/// Tunables of the [`WritebackCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Resident capacity in pages (at least 1).
    pub capacity_pages: usize,
    /// Fraction of the capacity that may be dirty before a flush drains the
    /// dirty set back down to the threshold, in `(0, 1]`.
    pub dirty_flush_threshold: f64,
    /// Host requests of at least this many bytes are treated as a cold stream
    /// and written around the cache straight to the devices.
    pub write_around_bytes: u32,
    /// Latency charged for a DRAM hit (read hit or absorbed write) — orders of
    /// magnitude below a flash access.
    pub hit_latency: Nanos,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_pages: 4096,
            dirty_flush_threshold: 0.5,
            write_around_bytes: 256 * 1024,
            hit_latency: Nanos::from_micros(1),
        }
    }
}

impl CacheConfig {
    /// The largest dirty count the cache tolerates before (and right after) a
    /// flush: `⌊dirty_flush_threshold × capacity_pages⌋`.
    pub fn dirty_limit(&self) -> usize {
        (self.dirty_flush_threshold * self.capacity_pages as f64).floor() as usize
    }

    /// Panics on a zero capacity or a threshold outside `(0, 1]` (NaN included).
    pub(crate) fn validate(&self) {
        assert!(self.capacity_pages > 0, "cache capacity must be at least one page");
        assert!(
            self.dirty_flush_threshold > 0.0 && self.dirty_flush_threshold <= 1.0,
            "dirty flush threshold must be within (0, 1]"
        );
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

    /// Flash page writes saved by absorption: absorbed writes minus the
    /// writebacks that eventually materialised, saturating at zero.
    pub fn absorbed_net(&self) -> u64 {
        self.writes_absorbed.saturating_sub(self.writebacks)
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
    /// Panics on a zero capacity or a dirty threshold outside `(0, 1]`.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize, threshold: f64) -> WritebackCache {
        WritebackCache::new(CacheConfig {
            capacity_pages: capacity,
            dirty_flush_threshold: threshold,
            ..CacheConfig::default()
        })
    }

    #[test]
    fn read_misses_do_not_allocate() {
        let mut c = cache(4, 1.0);
        assert!(!c.read(3));
        assert!(c.is_empty());
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn absorbed_writes_are_dirty_and_hit_on_readback() {
        let mut c = cache(4, 1.0);
        assert_eq!(c.write(9), None);
        assert!(c.is_resident(9));
        assert!(c.is_dirty(9));
        assert!(c.read(9));
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().writes_absorbed, 1);
    }

    #[test]
    fn rewrites_do_not_double_count_dirtiness() {
        let mut c = cache(4, 1.0);
        c.write(1);
        c.write(1);
        assert_eq!(c.dirty_len(), 1);
        assert_eq!(c.stats().writes_absorbed, 2);
    }

    #[test]
    fn lru_eviction_returns_dirty_victims() {
        let mut c = cache(2, 1.0);
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
        let mut c = cache(4, 0.5); // dirty limit = 2
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
        let mut c = cache(8, 0.25); // dirty limit = 2
        for lpn in [1, 2, 3, 4] {
            c.write(lpn);
        }
        assert_eq!(c.flush_to_threshold(), vec![1, 2]);
        // 1 and 2 are now clean and older than every dirty page. Re-dirty 1: it
        // moves to the MRU end of both orders, behind 3, 4 and 5.
        c.write(1);
        c.write(5);
        assert_eq!(c.dirty_len(), 4);
        assert_eq!(
            c.flush_to_threshold(),
            vec![3, 4],
            "clean page 2 (the LRU resident) is skipped; re-dirtied 1 is not the oldest dirty"
        );
        assert!(c.is_dirty(1) && c.is_dirty(5) && !c.is_dirty(2));
        // A read hit refreshes a dirty page in the dirty order too.
        assert!(c.read(1));
        c.write(6);
        assert_eq!(c.flush_to_threshold(), vec![5]);
        // Residency order is untouched by flushing: clean 2 is still the LRU.
        for lpn in [7, 8] {
            assert_eq!(c.write(lpn), None);
        }
        assert_eq!(c.len(), 8);
        assert_eq!(c.write(9), None, "the evicted LRU page (2) is clean: no writeback");
        assert!(!c.is_resident(2));
    }

    #[test]
    fn write_around_drops_stale_copies_without_writeback() {
        let mut c = cache(4, 1.0);
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
    fn hit_rate_and_net_absorption() {
        let mut c = cache(4, 1.0);
        c.write(1);
        c.read(1);
        c.read(2);
        let stats = c.stats();
        assert!((stats.read_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(stats.absorbed_net(), 1);
        assert_eq!(CacheStats::default().read_hit_rate(), 0.0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(std::panic::catch_unwind(|| cache(0, 0.5)).is_err());
        assert!(std::panic::catch_unwind(|| cache(4, 0.0)).is_err());
        assert!(std::panic::catch_unwind(|| cache(4, 1.5)).is_err());
        assert!(std::panic::catch_unwind(|| cache(4, f64::NAN)).is_err());
        assert!(std::panic::catch_unwind(|| cache(4, f64::INFINITY)).is_err());
    }
}
