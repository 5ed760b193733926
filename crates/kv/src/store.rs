//! The LSM store: memtable + WAL + leveled SSTables over a [`FlashStore`].
//!
//! Write path: every put/delete is appended to the WAL (small, hot device
//! writes), then buffered in the memtable. When the memtable crosses its byte
//! threshold — or the WAL region would overflow — the memtable is flushed as a
//! new L0 table (one bulk, cold device write; the memtable is streamed by
//! reference and emptied only once the table exists, so a refused flush loses
//! nothing) and compaction runs: L0 merges into L1 once it holds
//! `l0_compaction_trigger` tables, and each deeper level spills into the next
//! once it exceeds `level_base_bytes × level_size_multiplier^(n-1)`. A
//! compaction charges the reads of all its inputs first, in a fixed order, and
//! then merges them where the [`FlashStore`]'s arena holds them (`merge.rs`):
//! nothing is copied but the inputs that cross an extent boundary. Tables and
//! manifests the device refuses give their pages back, so a failed flush or
//! compaction leaves every table served and the allocator whole.
//!
//! Read path: the memtable, then every L0 table newest first (they overlap),
//! then at most one table per deeper level — the one a binary search over the
//! level's fences locates ([`SortedRun`]) — each probed through its bounds,
//! bloom filter, sparse index and one lent index bucket. A scan reads, per
//! deeper level, exactly the tables its range overlaps. Keys are compared as
//! integer prefixes first throughout (`key.rs`).
//!
//! Durability is manifest-based, modeled after LevelDB's VERSION/CURRENT pair:
//! every flush writes a fresh manifest file (WAL epoch, table metadata, extent
//! lists) and then the fixed-LPN superblock pointing at it — the superblock
//! program is the commit point. Extents freed by a flush (compaction inputs,
//! the previous manifest) are only returned to the allocator *after* the
//! superblock commits, so a crash at any intermediate point recovers a
//! consistent store: the old superblock still references intact files, and the
//! WAL's epoch check replays exactly the committed operations since the last
//! flush.

use vflash_ftl::FlashTranslationLayer;
use vflash_nand::Nanos;

use crate::error::KvError;
use crate::flash_file::{Extent, FlashStore, Lent, SegmentFile};
use crate::hash::checksum64;
use crate::key::KeyRef;
use crate::level::SortedRun;
use crate::memtable::Memtable;
use crate::merge::{NewestWins, RunSpans};
use crate::sstable::{EntryRef, TableBuilder, TableHandle, TableMeta, TableOptions, TableProbe};
use crate::wal::{Wal, WalOp};

const MANIFEST_MAGIC: u64 = 0x564b_4d41_4e49_4631; // "VKMANIF1"
const SUPERBLOCK_MAGIC: u64 = 0x564b_5355_5045_5231; // "VKSUPER1"

/// Tuning knobs of a [`KvStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvConfig {
    /// Memtable byte threshold: a put that pushes the buffered size to or past
    /// this flushes.
    pub memtable_bytes: usize,
    /// WAL region size in pages; `0` sizes it automatically to hold roughly
    /// four memtables' worth of records.
    pub wal_pages: u64,
    /// Number of L0 tables that triggers an L0 → L1 compaction.
    pub l0_compaction_trigger: usize,
    /// Byte capacity of L1; each deeper level multiplies this by
    /// [`KvConfig::level_size_multiplier`].
    pub level_base_bytes: u64,
    /// Level-to-level capacity ratio.
    pub level_size_multiplier: u64,
    /// Target data-section size of one compaction output table.
    pub target_table_bytes: u64,
    /// Queue depth for multi-page device I/O. At 1 (the default) every page
    /// goes through scalar `submit` — the serial path, bit-identical to a
    /// store without batching. Deeper, SSTable builds, compaction streams, WAL
    /// recovery scans and range scans go to the device's lane in windows of up
    /// to `io_depth` pages, each one
    /// [`submit_batch`](vflash_ftl::FlashTranslationLayer::submit_batch) call
    /// that takes as long as its busiest chain on the lane's chip clocks, not
    /// the serial sum.
    pub io_depth: usize,
    /// Bloom filter budget in bits per key for freshly built tables.
    pub bloom_bits_per_key: usize,
    /// Sparse-index stride for freshly built tables: every n-th entry is
    /// indexed. Stride 1 indexes every entry.
    pub sparse_index_interval: usize,
}

impl Default for KvConfig {
    fn default() -> Self {
        let table_defaults = TableOptions::default();
        KvConfig {
            memtable_bytes: 64 << 10,
            wal_pages: 0,
            l0_compaction_trigger: 4,
            level_base_bytes: 512 << 10,
            level_size_multiplier: 4,
            target_table_bytes: 128 << 10,
            io_depth: 1,
            bloom_bits_per_key: table_defaults.bloom_bits_per_key,
            sparse_index_interval: table_defaults.sparse_index_interval,
        }
    }
}

impl KvConfig {
    /// Panics when a knob is out of its sane range (misconfiguration is a
    /// programming error, not a runtime condition).
    pub fn validate(&self) {
        assert!(self.memtable_bytes > 0, "memtable_bytes must be positive");
        assert!(self.l0_compaction_trigger >= 2, "l0_compaction_trigger must be at least 2");
        assert!(self.level_base_bytes > 0, "level_base_bytes must be positive");
        assert!(self.level_size_multiplier >= 2, "level_size_multiplier must be at least 2");
        assert!(self.target_table_bytes > 0, "target_table_bytes must be positive");
        assert!(self.io_depth >= 1, "io_depth must be at least 1");
        assert!(self.bloom_bits_per_key >= 1, "bloom_bits_per_key must be at least 1");
        assert!(self.sparse_index_interval >= 1, "sparse_index_interval must be at least 1");
    }

    /// The table-construction knobs carried by this configuration.
    pub fn table_options(&self) -> TableOptions {
        TableOptions {
            bloom_bits_per_key: self.bloom_bits_per_key,
            sparse_index_interval: self.sparse_index_interval,
        }
    }

    /// The WAL region size in pages, resolving the `0` = automatic setting.
    pub fn wal_region_pages(&self, page_size: usize) -> u64 {
        if self.wal_pages > 0 {
            self.wal_pages
        } else {
            (4 * self.memtable_bytes as u64).div_ceil(page_size as u64).max(4)
        }
    }
}

/// Operation counters and accumulated device time of a [`KvStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvStats {
    /// Puts accepted.
    pub puts: u64,
    /// Deletes accepted.
    pub deletes: u64,
    /// Gets served.
    pub gets: u64,
    /// Range scans served.
    pub scans: u64,
    /// Gets answered (value or tombstone) by the memtable.
    pub memtable_hits: u64,
    /// Gets answered with a value read from an SSTable.
    pub sstable_hits: u64,
    /// Gets that returned no value (tombstone or never written).
    pub misses: u64,
    /// Table probes skipped by the bloom filter (no device traffic).
    pub bloom_skips: u64,
    /// Table probes that read an index bucket from the device.
    pub table_reads: u64,
    /// Memtable flushes (each builds one L0 table).
    pub flushes: u64,
    /// Flushes forced by WAL-region overflow rather than the memtable threshold.
    pub wal_forced_flushes: u64,
    /// Compactions run (any level).
    pub compactions: u64,
    /// Application payload bytes accepted: key + value per put, key per delete.
    pub app_bytes_written: u64,
    /// Device time spent inside flushes (compaction time included).
    pub flush_time: Nanos,
    /// Device time spent inside compactions (a subset of
    /// [`KvStats::flush_time`]).
    pub compaction_time: Nanos,
}

/// Where a get terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupSource {
    /// Answered (value or tombstone) by the memtable — no device traffic.
    Memtable,
    /// Answered (value or tombstone) by an SSTable read.
    SsTable,
    /// Fell through every table: the key was never written.
    Miss,
}

/// The result of a get: the value (if any), where the lookup terminated, and
/// the device time it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lookup {
    /// The value, or `None` for a tombstone or an absent key.
    pub value: Option<Vec<u8>>,
    /// Where the lookup terminated.
    pub source: LookupSource,
    /// Device time charged to this get.
    pub time: Nanos,
}

/// The result of a put/delete: the WAL-append device time and any
/// flush/compaction stall it absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteReceipt {
    /// Device time of the WAL append itself.
    pub log_time: Nanos,
    /// Device time of any flush and compaction this write triggered (zero for
    /// most writes — this is the foreground stall an application observes).
    pub stall_time: Nanos,
}

/// One table's position in the tree — the store's layout fingerprint for
/// determinism checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableLayout {
    /// Level index (0 = newest).
    pub level: usize,
    /// Table creation sequence number.
    pub id: u64,
    /// Entry count.
    pub entries: u64,
    /// Data-section byte length.
    pub data_len: u64,
    /// First backing LPN.
    pub first_lpn: u64,
}

/// The three write-amplification factors of the full stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteAmplification {
    /// Application-level WA: host page-write bytes (WAL + flush + compaction +
    /// metadata) per application payload byte.
    pub app: f64,
    /// FTL-level WA: physical page programs (GC copies and rescues included)
    /// per host page write.
    pub ftl: f64,
    /// End-to-end WA: physical page-write bytes per application payload byte —
    /// exactly `app × ftl`.
    pub end_to_end: f64,
}

/// An LSM key-value store over a flash device.
#[derive(Debug)]
pub struct KvStore<F: FlashTranslationLayer> {
    store: FlashStore<F>,
    config: KvConfig,
    memtable: Memtable,
    wal: Wal,
    manifest: Option<SegmentFile>,
    /// L0: one table per flush, newest first, key ranges overlapping.
    l0: Vec<TableHandle>,
    /// The levels below L0 — `sorted[n - 1]` is level `n` — each a sorted,
    /// non-overlapping run. A flush drops trailing empty levels.
    sorted: Vec<SortedRun>,
    next_table_id: u64,
    /// Extents obsoleted since the last superblock commit; returned to the
    /// allocator only after the next commit so a crash never finds the old
    /// manifest pointing at overwritten pages.
    pending_free: Vec<Extent>,
    /// Builds every table this store writes (flush and compaction outputs).
    builder: TableBuilder,
    /// Where the rows a scan read lie, until its merge is done.
    scanned: RunSpans,
    stats: KvStats,
}

impl<F: FlashTranslationLayer> KvStore<F> {
    /// Opens a store on `store`: recovers from the superblock when one exists,
    /// otherwise formats the device (reserving the WAL region and committing an
    /// empty manifest).
    ///
    /// # Errors
    ///
    /// Allocation, I/O and decode errors pass through.
    pub fn open(mut store: FlashStore<F>, config: KvConfig) -> Result<Self, KvError> {
        config.validate();
        // Recovery scans (manifest, index/bloom sections, WAL prefix) batch at
        // the configured depth too, so set it before touching the device.
        store.set_io_depth(config.io_depth);
        if store.has_superblock() {
            Self::recover(store, config)
        } else {
            Self::format(store, config)
        }
    }

    fn format(mut store: FlashStore<F>, config: KvConfig) -> Result<Self, KvError> {
        let mut wal_file = SegmentFile::new();
        let pages = config.wal_region_pages(store.page_size());
        store.reserve(&mut wal_file, pages)?;
        let mut kv = KvStore {
            store,
            config,
            memtable: Memtable::new(),
            wal: Wal::new(wal_file, 1),
            manifest: None,
            l0: Vec::new(),
            sorted: Vec::new(),
            next_table_id: 1,
            pending_free: Vec::new(),
            builder: TableBuilder::new(config.table_options()),
            scanned: RunSpans::default(),
            stats: KvStats::default(),
        };
        kv.write_manifest()?;
        Ok(kv)
    }

    fn recover(mut store: FlashStore<F>, config: KvConfig) -> Result<Self, KvError> {
        let superblock = store.read_superblock()?;
        let mut cursor = Cursor::new(&superblock);
        if cursor.u64()? != SUPERBLOCK_MAGIC {
            return Err(KvError::Corruption("bad superblock magic".to_string()));
        }
        let manifest_extents = cursor.extents()?;
        let manifest_len = cursor.u64()?;
        let payload_end = cursor.position();
        if cursor.u64()? != checksum64(&superblock[..payload_end]) {
            return Err(KvError::Corruption("superblock checksum mismatch".to_string()));
        }
        let manifest_file = SegmentFile::from_parts(manifest_extents, manifest_len);
        let manifest_bytes = store.read_range(&manifest_file, 0, manifest_len as usize)?;
        let manifest = decode_manifest(manifest_bytes)?;

        // The manifest is the source of truth for live extents; anything
        // allocated after it was committed (a half-built table from a crashed
        // flush) silently returns to the pool.
        let mut used: Vec<Extent> = Vec::new();
        used.extend_from_slice(manifest_file.extents());
        used.extend_from_slice(manifest.wal_file.extents());
        for level in &manifest.levels {
            for meta in level {
                used.extend_from_slice(meta.file.extents());
            }
        }
        store.reset_allocator(&used);

        let mut levels = Vec::with_capacity(manifest.levels.len());
        for level in manifest.levels {
            let mut tables = Vec::with_capacity(level.len());
            for meta in level {
                tables.push(TableHandle::recover(&mut store, meta)?);
            }
            levels.push(tables);
        }
        let mut levels = levels.into_iter();
        let l0 = levels.next().unwrap_or_default();
        let sorted = levels.map(SortedRun::new).collect();

        let (ops, consumed) = Wal::replay(&mut store, &manifest.wal_file, manifest.wal_epoch)?;
        let mut memtable = Memtable::new();
        for op in ops {
            match op {
                WalOp::Put { key, value } => memtable.insert(key, Some(value)),
                WalOp::Delete { key } => memtable.insert(key, None),
            }
        }
        // Resume appending right after the committed prefix, same epoch: the
        // replayed operations stay WAL-protected without a flush.
        let wal_file = SegmentFile::from_parts(manifest.wal_file.extents().to_vec(), consumed);
        Ok(KvStore {
            store,
            config,
            memtable,
            wal: Wal::new(wal_file, manifest.wal_epoch),
            manifest: Some(manifest_file),
            l0,
            sorted,
            next_table_id: manifest.next_table_id,
            pending_free: Vec::new(),
            builder: TableBuilder::new(config.table_options()),
            scanned: RunSpans::default(),
            stats: KvStats::default(),
        })
    }

    /// Inserts or overwrites `key`.
    ///
    /// # Errors
    ///
    /// [`KvError::EntryTooLarge`] for a key past `u16::MAX` bytes or a value
    /// past `u32::MAX` (nothing is written); [`KvError::ReadOnly`] once the
    /// device is worn out, [`KvError::OutOfSpace`] when neither the WAL nor a
    /// flush can make room; I/O errors pass through.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<WriteReceipt, KvError> {
        check_entry_size(key, value)?;
        self.stats.puts += 1;
        self.write_op(WalOp::Put { key: key.to_vec(), value: value.to_vec() })
    }

    /// Deletes `key` (writes a tombstone; absent keys are fine).
    ///
    /// # Errors
    ///
    /// As for [`KvStore::put`].
    pub fn delete(&mut self, key: &[u8]) -> Result<WriteReceipt, KvError> {
        check_entry_size(key, &[])?;
        self.stats.deletes += 1;
        self.write_op(WalOp::Delete { key: key.to_vec() })
    }

    fn write_op(&mut self, op: WalOp) -> Result<WriteReceipt, KvError> {
        let start = self.store.now();
        if self.wal.would_overflow(&op, self.store.page_size()) {
            self.stats.wal_forced_flushes += 1;
            self.flush()?;
            if self.wal.would_overflow(&op, self.store.page_size()) {
                // A single record larger than the whole region can never fit.
                return Err(KvError::OutOfSpace);
            }
        }
        let before_append = self.store.now();
        self.wal.append(&mut self.store, &op)?;
        let log_time = self.store.now() - before_append;
        let (key, value) = match op {
            WalOp::Put { key, value } => {
                self.stats.app_bytes_written += (key.len() + value.len()) as u64;
                (key, Some(value))
            }
            WalOp::Delete { key } => {
                self.stats.app_bytes_written += key.len() as u64;
                (key, None)
            }
        };
        self.memtable.insert(key, value);
        if self.memtable.bytes() >= self.config.memtable_bytes {
            self.flush()?;
        }
        let total = self.store.now() - start;
        Ok(WriteReceipt { log_time, stall_time: total - log_time })
    }

    /// Looks up `key`.
    ///
    /// # Errors
    ///
    /// Read and decode errors pass through.
    pub fn get(&mut self, key: &[u8]) -> Result<Lookup, KvError> {
        self.stats.gets += 1;
        let start = self.store.now();
        if let Some(entry) = self.memtable.get(key) {
            let value = entry.clone();
            if value.is_some() {
                self.stats.memtable_hits += 1;
            } else {
                self.stats.misses += 1;
            }
            return Ok(Lookup {
                value,
                source: LookupSource::Memtable,
                time: self.store.now() - start,
            });
        }
        let KvStore { store, l0, sorted, stats, .. } = self;
        let key = KeyRef::new(key);
        // L0 newest table first, then the one table of each deeper level
        // whose key range can hold the key.
        let candidates = l0.iter().chain(sorted.iter().filter_map(|run| run.candidate(key)));
        for table in candidates {
            let (found, probe) = table.probe(store, key)?;
            match probe {
                TableProbe::BloomSkip => stats.bloom_skips += 1,
                TableProbe::Read => stats.table_reads += 1,
                TableProbe::RangeSkip => {}
            }
            if let Some(value) = found {
                if value.is_some() {
                    stats.sstable_hits += 1;
                } else {
                    stats.misses += 1;
                }
                return Ok(Lookup {
                    value,
                    source: LookupSource::SsTable,
                    time: store.now() - start,
                });
            }
        }
        stats.misses += 1;
        Ok(Lookup { value: None, source: LookupSource::Miss, time: store.now() - start })
    }

    /// Returns every live key/value pair with key in `[lo, hi)`, in key order.
    /// Tombstones and shadowed versions are resolved; deleted keys do not
    /// appear. An empty or reversed range (`lo >= hi`) has no rows.
    ///
    /// # Errors
    ///
    /// Read and decode errors pass through.
    pub fn scan(&mut self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>, KvError> {
        self.stats.scans += 1;
        if lo >= hi {
            return Ok(Vec::new());
        }
        let KvStore { store, l0, sorted, memtable, scanned, .. } = self;
        let (lo, hi) = (KeyRef::new(lo), KeyRef::new(hi));
        scanned.clear();
        // Deepest (oldest) data first: each sorted level is one run — the
        // tables the range overlaps — each L0 table, oldest first, its own.
        for run in sorted.iter().rev() {
            scanned.begin_run();
            for table in run.overlapping(lo, hi) {
                table.scan_between(store, lo, hi, scanned)?;
            }
        }
        for table in l0.iter().rev() {
            scanned.begin_run();
            table.scan_between(store, lo, hi, scanned)?;
        }
        let buffered = memtable
            .range(lo.bytes(), hi.bytes())
            .map(|(key, value)| (key.as_slice(), value.as_deref()));
        live_rows(scanned, scanned.lent(store), buffered)
    }

    /// Flushes the memtable to a new L0 table, runs any due compactions and
    /// commits a fresh manifest. A no-op when nothing is buffered.
    ///
    /// # Errors
    ///
    /// Build and commit errors pass through. The memtable is emptied only once
    /// its L0 table exists — a build the device refuses leaves every buffered
    /// write readable — and the WAL protects the flushed operations until the
    /// commit succeeds.
    pub fn flush(&mut self) -> Result<(), KvError> {
        if self.memtable.is_empty() && self.wal.file().is_empty() {
            return Ok(());
        }
        let start = self.store.now();
        if !self.memtable.is_empty() {
            for (key, value) in self.memtable.iter() {
                self.builder.add(key, value.as_deref());
            }
            let id = self.next_table_id;
            self.next_table_id += 1;
            let table = self.builder.finish(&mut self.store, id)?;
            self.l0.insert(0, table);
            self.memtable.clear();
            self.stats.flushes += 1;
            self.maybe_compact()?;
        }
        self.wal.reset();
        self.write_manifest()?;
        self.stats.flush_time += self.store.now() - start;
        Ok(())
    }

    fn maybe_compact(&mut self) -> Result<(), KvError> {
        if self.l0.len() >= self.config.l0_compaction_trigger {
            self.compact_level(0)?;
        }
        // A compaction into a new bottom level lengthens `sorted` under the loop.
        let mut level = 1;
        while level <= self.sorted.len() {
            if self.level_bytes(level) > self.level_capacity(level) {
                self.compact_level(level)?;
            }
            level += 1;
        }
        while self.sorted.last().is_some_and(SortedRun::is_empty) {
            self.sorted.pop();
        }
        Ok(())
    }

    /// The tables of `level` (none for a level the tree does not have).
    fn level_tables(&self, level: usize) -> &[TableHandle] {
        match level.checked_sub(1) {
            None => &self.l0,
            Some(below_l0) => self.sorted.get(below_l0).map_or(&[], SortedRun::tables),
        }
    }

    /// Every level from L0 down, as the manifest lists them: none at all for
    /// a tree without tables.
    fn levels(&self) -> impl Iterator<Item = &[TableHandle]> {
        (0..self.level_count()).map(|level| self.level_tables(level))
    }

    fn level_bytes(&self, level: usize) -> u64 {
        self.level_tables(level).iter().map(|table| table.meta.data_len).sum()
    }

    fn level_capacity(&self, level: usize) -> u64 {
        let mut capacity = self.config.level_base_bytes;
        for _ in 1..level {
            capacity = capacity.saturating_mul(self.config.level_size_multiplier);
        }
        capacity
    }

    /// Merges every table of `level` and `level + 1` into a fresh sorted run at
    /// `level + 1`.
    fn compact_level(&mut self, level: usize) -> Result<(), KvError> {
        let start = self.store.now();
        // Tombstones are dropped once the output is the bottom of the tree —
        // nothing older exists for them to shadow.
        let bottom = self.sorted.iter().skip(level + 1).all(SortedRun::is_empty);
        let KvStore { store, builder, next_table_id, config, l0, sorted, .. } = self;
        // The inputs stay in their levels until the output exists: a read or
        // build that fails returns with every table still in place and served.
        let sources = if level == 0 { l0.as_slice() } else { sorted[level - 1].tables() };
        let targets = sorted.get(level).map_or(&[][..], SortedRun::tables);
        // Every input is read — charged, and lent where it lies — before the
        // first output is written: the target level, a sorted run, in order;
        // then the sources oldest first. L0 is kept newest-first and each of
        // its tables is a run of its own; a deeper source level is read last
        // table first and merged as the one sorted run it is. The spans live
        // as long as the compaction, and so does the spill buffer under the
        // inputs that cross extents — megabytes at a deep level, which the
        // store's reused scan buffer should not pin for good.
        let mut inputs = RunSpans::default();
        inputs.begin_run();
        for table in targets {
            table.lend_entries(store, &mut inputs)?;
        }
        if level > 0 {
            inputs.begin_run();
        }
        for table in sources.iter().rev() {
            if level == 0 {
                inputs.begin_run();
            }
            table.lend_entries(store, &mut inputs)?;
        }
        if level > 0 {
            inputs.reverse_run();
        }
        let run =
            build_tables(&inputs, bottom, config.target_table_bytes, builder, store, next_table_id)?;
        if sorted.len() <= level {
            sorted.push(SortedRun::default());
        }
        let targets = std::mem::replace(&mut sorted[level], SortedRun::new(run));
        let sources = match level {
            0 => std::mem::take(l0),
            _ => std::mem::take(&mut sorted[level - 1]).into_tables(),
        };
        for table in sources.into_iter().chain(targets.into_tables()) {
            self.pending_free.extend(table.meta.file.extents());
        }
        self.stats.compactions += 1;
        self.stats.compaction_time += self.store.now() - start;
        Ok(())
    }

    /// Writes the manifest, commits it via the superblock, then releases every
    /// extent obsoleted since the previous commit.
    fn write_manifest(&mut self) -> Result<(), KvError> {
        let bytes = self.encode_manifest();
        let mut file = SegmentFile::new();
        let request_bytes = u32::try_from(bytes.len()).unwrap_or(u32::MAX);
        let committed = self.store.append(&mut file, &bytes, request_bytes).and_then(|()| {
            let mut superblock = Vec::with_capacity(64);
            superblock.extend_from_slice(&SUPERBLOCK_MAGIC.to_le_bytes());
            put_extents(&mut superblock, file.extents());
            superblock.extend_from_slice(&file.len().to_le_bytes());
            let checksum = checksum64(&superblock);
            superblock.extend_from_slice(&checksum.to_le_bytes());
            self.store.write_superblock(&superblock) // the commit point
        });
        if let Err(error) = committed {
            // Nothing points at the new manifest: its pages go straight back.
            self.store.delete(file);
            return Err(error);
        }
        if let Some(old) = self.manifest.replace(file) {
            self.pending_free.extend_from_slice(old.extents());
        }
        let pending = std::mem::take(&mut self.pending_free);
        self.store.free_extents(&pending);
        Ok(())
    }

    fn encode_manifest(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.wal.epoch().to_le_bytes());
        put_extents(&mut out, self.wal.file().extents());
        out.extend_from_slice(&self.next_table_id.to_le_bytes());
        out.extend_from_slice(&(self.level_count() as u32).to_le_bytes());
        for tables in self.levels() {
            out.extend_from_slice(&(tables.len() as u32).to_le_bytes());
            for table in tables {
                let meta = &table.meta;
                out.extend_from_slice(&meta.id.to_le_bytes());
                out.extend_from_slice(&meta.entries.to_le_bytes());
                out.extend_from_slice(&meta.data_len.to_le_bytes());
                out.extend_from_slice(&meta.index_off.to_le_bytes());
                out.extend_from_slice(&meta.bloom_off.to_le_bytes());
                out.extend_from_slice(&meta.file.len().to_le_bytes());
                put_extents(&mut out, meta.file.extents());
                put_key(&mut out, &meta.min_key);
                put_key(&mut out, &meta.max_key);
            }
        }
        let checksum = checksum64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// The store's table layout — a compact fingerprint for determinism
    /// checks: two runs with equal layouts placed their data identically.
    pub fn layout(&self) -> Vec<TableLayout> {
        self.levels()
            .enumerate()
            .flat_map(|(level, tables)| {
                tables.iter().map(move |table| TableLayout {
                    level,
                    id: table.meta.id,
                    entries: table.meta.entries,
                    data_len: table.meta.data_len,
                    first_lpn: table.meta.file.lpn_at(0).unwrap_or(0),
                })
            })
            .collect()
    }

    /// Operation counters and accumulated times.
    pub fn stats(&self) -> &KvStats {
        &self.stats
    }

    /// The store's configuration.
    pub fn config(&self) -> &KvConfig {
        &self.config
    }

    /// The simulated device clock, read from the device's lane
    /// ([`FlashStore::now`]).
    pub fn device_clock(&self) -> Nanos {
        self.store.now()
    }

    /// The underlying flash store (FTL metrics, I/O counters).
    pub fn flash(&self) -> &FlashStore<F> {
        &self.store
    }

    /// Number of levels from L0 down to the deepest one holding a table (a
    /// store without tables has none).
    pub fn level_count(&self) -> usize {
        if self.l0.is_empty() && self.sorted.is_empty() {
            0
        } else {
            1 + self.sorted.len()
        }
    }

    /// Checks the structural invariants that hold between any two operations:
    /// every level below L0 is strictly sorted and disjoint with fences equal
    /// to its tables' max-key prefixes, every table's bound and index prefixes
    /// are its keys', table ids are unique and below the next one, and the
    /// extents of the WAL region, the manifest, the tables and those waiting
    /// to be freed account, with the allocator's free list, for every LPN
    /// exactly once — after failed writes too: a table or manifest the device
    /// refused gives its reservation back. The device's own bookkeeping
    /// (`NandDevice::check_invariants`) is checked first.
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.store.ftl().device().check_invariants()?;
        for run in &self.sorted {
            run.check_invariants()?;
        }
        let mut referenced = self.pending_free.clone();
        referenced.extend_from_slice(self.wal.file().extents());
        referenced.extend(self.manifest.iter().flat_map(|file| file.extents()));
        let mut ids = Vec::new();
        for table in self.levels().flatten() {
            table.check_invariants()?;
            referenced.extend_from_slice(table.meta.file.extents());
            ids.push(table.meta.id);
        }
        ids.sort_unstable();
        if ids.windows(2).any(|pair| pair[0] == pair[1]) {
            return Err("two tables share an id".to_string());
        }
        if ids.last().is_some_and(|&newest| newest >= self.next_table_id) {
            return Err(format!("a table's id is not below the next id {}", self.next_table_id));
        }
        self.store.check_allocation(&referenced)
    }

    /// Simulates a crash: drops all in-memory state (memtable, table handles,
    /// allocator) and returns the device as it stands. Re-opening a store on
    /// the returned [`FlashStore`] exercises the recovery path.
    pub fn crash(self) -> FlashStore<F> {
        self.store
    }

    /// The three write-amplification factors of the stack so far. The
    /// application and FTL factors multiply exactly to the end-to-end factor.
    pub fn write_amplification(&self) -> WriteAmplification {
        let metrics = self.store.ftl().metrics();
        let page = self.store.page_size() as f64;
        let app_bytes = self.stats.app_bytes_written as f64;
        let host_bytes = metrics.host_writes as f64 * page;
        let physical_bytes = metrics.physical_page_writes() as f64 * page;
        WriteAmplification {
            app: if app_bytes > 0.0 { host_bytes / app_bytes } else { 0.0 },
            ftl: metrics.relocation_write_amplification(),
            end_to_end: if app_bytes > 0.0 { physical_bytes / app_bytes } else { 0.0 },
        }
    }
}

/// Refuses an entry the WAL, table and manifest encodings cannot hold: they
/// store a key's length in a `u16` and a value's in a `u32`.
fn check_entry_size(key: &[u8], value: &[u8]) -> Result<(), KvError> {
    if u16::try_from(key.len()).is_err() || u32::try_from(value.len()).is_err() {
        return Err(KvError::EntryTooLarge { key_bytes: key.len(), value_bytes: value.len() });
    }
    Ok(())
}

/// Merges `inputs` newest-wins into consecutive tables, numbered from
/// `*next_table_id` on, whose data section stays at or under `target` bytes (a
/// table always takes at least one entry): an entry that would push the open
/// table past the target closes it first. `drop_tombstones` leaves tombstones
/// out (the output is the bottom of the tree). The inputs' bytes are borrowed
/// from `store` one entry at a time, never across a table write.
///
/// # Errors
///
/// A damaged input entry is [`KvError::Corruption`]; write errors pass
/// through. Either way the builder is left empty and the tables finished so
/// far are deleted again.
fn build_tables<F: FlashTranslationLayer>(
    inputs: &RunSpans,
    drop_tombstones: bool,
    target: u64,
    builder: &mut TableBuilder,
    store: &mut FlashStore<F>,
    next_table_id: &mut u64,
) -> Result<Vec<TableHandle>, KvError> {
    let mut tables = Vec::new();
    let mut finish = |builder: &mut TableBuilder, store: &mut FlashStore<F>| {
        let id = *next_table_id;
        *next_table_id += 1;
        builder.finish(store, id).map(|table| tables.push(table))
    };
    let mut merge_all = || {
        let mut merge = NewestWins::new(inputs, inputs.lent(store))?;
        while let Some(entry) = merge.next(inputs.lent(store))? {
            if drop_tombstones && entry.is_tombstone() {
                continue;
            }
            let grown = (builder.data_len() + entry.encoded_len()) as u64;
            if !builder.is_empty() && grown > target {
                finish(builder, store)?;
            }
            let (key, value) = entry.resolve(inputs.lent(store));
            builder.add(key, value);
        }
        if !builder.is_empty() {
            finish(builder, store)?;
        }
        Ok(())
    };
    match merge_all() {
        Ok(()) => Ok(tables),
        Err(error) => {
            builder.clear();
            for table in tables {
                store.delete(table.meta.file);
            }
            Err(error)
        }
    }
}

/// The rows of a scan: key and value, in key order.
type Rows = Vec<(Vec<u8>, Vec<u8>)>;

/// The live rows of a scan: the table rows in `scanned` merged newest-wins,
/// under `buffered` — the memtable's rows in range, newer than any table's —
/// with tombstones and what they shadow left out.
fn live_rows<'m>(
    scanned: &RunSpans,
    lent: Lent<'_>,
    buffered: impl Iterator<Item = EntryRef<'m>>,
) -> Result<Rows, KvError> {
    let mut rows = Vec::new();
    let mut keep = |(key, value): EntryRef<'_>| {
        if let Some(value) = value {
            rows.push((key.to_vec(), value.to_vec()));
        }
    };
    let mut buffered = buffered.peekable();
    let mut merge = NewestWins::new(scanned, lent)?;
    while let Some(entry) = merge.next(lent)? {
        let (key, value) = entry.resolve(lent);
        // Buffered rows up to this key go first; one of this key replaces it.
        let mut shadowed = false;
        while let Some(newer) = buffered.next_if(|newer| newer.0 <= key) {
            shadowed = newer.0 == key;
            keep(newer);
        }
        if !shadowed {
            keep((key, value));
        }
    }
    buffered.for_each(keep);
    Ok(rows)
}

fn put_extents(out: &mut Vec<u8>, extents: &[Extent]) {
    out.extend_from_slice(&(extents.len() as u32).to_le_bytes());
    for extent in extents {
        out.extend_from_slice(&extent.start.to_le_bytes());
        out.extend_from_slice(&extent.pages.to_le_bytes());
    }
}

fn put_key(out: &mut Vec<u8>, key: &[u8]) {
    let len = u16::try_from(key.len()).expect("table keys fit a u16 length");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(key);
}

/// A decoded manifest.
struct Manifest {
    wal_epoch: u32,
    wal_file: SegmentFile,
    next_table_id: u64,
    levels: Vec<Vec<TableMeta>>,
}

fn decode_manifest(bytes: &[u8]) -> Result<Manifest, KvError> {
    if bytes.len() < 8 {
        return Err(KvError::Corruption("truncated manifest".to_string()));
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("eight bytes were split off"));
    if checksum64(payload) != stored {
        return Err(KvError::Corruption("manifest checksum mismatch".to_string()));
    }
    let mut cursor = Cursor::new(payload);
    if cursor.u64()? != MANIFEST_MAGIC {
        return Err(KvError::Corruption("bad manifest magic".to_string()));
    }
    let wal_epoch = cursor.u32()?;
    let wal_extents = cursor.extents()?;
    let next_table_id = cursor.u64()?;
    let level_count = cursor.u32()? as usize;
    let mut levels = Vec::with_capacity(level_count);
    for _ in 0..level_count {
        let table_count = cursor.u32()? as usize;
        let mut run = Vec::with_capacity(table_count);
        for _ in 0..table_count {
            let id = cursor.u64()?;
            let entries = cursor.u64()?;
            let data_len = cursor.u64()?;
            let index_off = cursor.u64()?;
            let bloom_off = cursor.u64()?;
            let file_len = cursor.u64()?;
            let extents = cursor.extents()?;
            let min_key = cursor.key()?;
            let max_key = cursor.key()?;
            run.push(TableMeta {
                id,
                file: SegmentFile::from_parts(extents, file_len),
                entries,
                data_len,
                index_off,
                bloom_off,
                min_key,
                max_key,
            });
        }
        levels.push(run);
    }
    Ok(Manifest {
        wal_epoch,
        wal_file: SegmentFile::from_parts(wal_extents, 0),
        next_table_id,
        levels,
    })
}

/// A bounds-checked little-endian reader over an on-flash block: the
/// superblock, the manifest, a table's index and bloom sections, a WAL record.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    /// Bytes read so far.
    pub(crate) fn position(&self) -> usize {
        self.at
    }

    pub(crate) fn take(&mut self, len: usize) -> Result<&'a [u8], KvError> {
        let end = self
            .at
            .checked_add(len)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| KvError::Corruption("truncated metadata block".to_string()))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, KvError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, KvError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("two bytes")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, KvError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("four bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, KvError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("eight bytes")))
    }

    fn key(&mut self) -> Result<Vec<u8>, KvError> {
        let len = self.u16()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn extents(&mut self) -> Result<Vec<Extent>, KvError> {
        let count = self.u32()? as usize;
        // An extent list longer than the block itself is corruption, not an
        // allocation request.
        if count > self.bytes.len() / 16 + 1 {
            return Err(KvError::Corruption("oversized extent list".to_string()));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let start = self.u64()?;
            let pages = self.u64()?;
            out.push(Extent { start, pages });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::Entry;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use vflash_ftl::{Completion, ConventionalFtl, FtlConfig, FtlError, FtlMetrics, IoRequest};
    use vflash_nand::{NandConfig, NandDevice};
    use vflash_ppb::{PpbConfig, PpbFtl};

    fn flash() -> FlashStore<ConventionalFtl> {
        let device = NandDevice::new(NandConfig::small());
        FlashStore::new(ConventionalFtl::new(device, FtlConfig::default()).unwrap())
    }

    fn small_config() -> KvConfig {
        KvConfig {
            memtable_bytes: 2 << 10,
            level_base_bytes: 8 << 10,
            target_table_bytes: 4 << 10,
            ..KvConfig::default()
        }
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:06}").into_bytes()
    }

    #[test]
    fn put_get_delete_scan_round_trip_through_flushes() {
        let mut kv = KvStore::open(flash(), small_config()).unwrap();
        for i in 0..400u32 {
            kv.put(&key(i), format!("value-{i}").as_bytes()).unwrap();
        }
        for i in (0..400u32).step_by(3) {
            kv.delete(&key(i)).unwrap();
        }
        assert!(kv.stats().flushes > 0, "the memtable threshold must have tripped");
        for i in 0..400u32 {
            let lookup = kv.get(&key(i)).unwrap();
            if i % 3 == 0 {
                assert_eq!(lookup.value, None, "key {i} was deleted");
            } else {
                assert_eq!(lookup.value, Some(format!("value-{i}").into_bytes()));
            }
        }
        assert_eq!(kv.get(b"absent").unwrap().source, LookupSource::Miss);
        let scanned = kv.scan(&key(10), &key(20)).unwrap();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = (10..20u32)
            .filter(|i| i % 3 != 0)
            .map(|i| (key(i), format!("value-{i}").into_bytes()))
            .collect();
        assert_eq!(scanned, expected);
        assert!(kv.device_clock() > Nanos::ZERO);
    }

    #[test]
    fn compaction_keeps_deep_levels_sorted_and_answers_correctly() {
        let mut kv = KvStore::open(flash(), small_config()).unwrap();
        // Several overwrite rounds force flushes and multi-level compactions.
        for round in 0..6u32 {
            for i in 0..300u32 {
                kv.put(&key(i), format!("round-{round}-{i}").as_bytes()).unwrap();
            }
        }
        kv.flush().unwrap();
        assert!(kv.stats().compactions > 0);
        for i in 0..300u32 {
            assert_eq!(
                kv.get(&key(i)).unwrap().value,
                Some(format!("round-5-{i}").into_bytes()),
                "the newest round must win"
            );
        }
        // Deep runs are sorted and non-overlapping.
        for run in &kv.sorted {
            for pair in run.tables().windows(2) {
                assert!(pair[0].meta.max_key < pair[1].meta.min_key);
            }
        }
        assert_eq!(kv.check_invariants(), Ok(()));
    }

    #[test]
    fn a_deep_compaction_merges_its_source_level_as_one_run_and_keeps_tombstones_above_the_bottom() {
        // Thresholds the test never reaches: it compacts by hand.
        let config =
            KvConfig { l0_compaction_trigger: 64, level_base_bytes: 1 << 20, ..small_config() };
        for io_depth in [1usize, 16] {
            let mut kv = KvStore::open(flash(), KvConfig { io_depth, ..config }).unwrap();
            let mut model: BTreeMap<u32, Option<Vec<u8>>> = BTreeMap::new();
            // Round `r` rewrites every `r + 1`-th key — a delete where the key
            // is a multiple of 7 and the round is not the first — and is pushed
            // `3 - r` levels down: rounds 0, 1, 2 end up in L3, L2, L1.
            for round in 0..3u32 {
                for i in (0..300u32).step_by(round as usize + 1) {
                    let value = (round == 0 || i % 7 != 0).then(|| vec![round as u8; 100]);
                    match &value {
                        Some(value) => kv.put(&key(i), value).unwrap(),
                        None => kv.delete(&key(i)).unwrap(),
                    };
                    model.insert(i, value);
                }
                kv.flush().unwrap();
                for level in 0..3 - round as usize {
                    kv.compact_level(level).unwrap();
                }
            }
            let tables = |kv: &KvStore<ConventionalFtl>| {
                kv.sorted.iter().map(|run| run.tables().len()).collect::<Vec<_>>()
            };
            let before = tables(&kv);
            assert!(kv.l0.is_empty() && before.iter().all(|&level| level >= 3), "{before:?}");

            // L1 into L2, above L3: several source tables, read last first and
            // merged as one run over several target tables.
            kv.compact_level(1).unwrap();
            let after = tables(&kv);
            assert!(after[0] == 0 && after[1] >= before[1] && after[2] == before[2], "{after:?}");
            assert_eq!(kv.check_invariants(), Ok(()));
            for (&i, value) in &model {
                assert_eq!(&kv.get(&key(i)).unwrap().value, value, "key {i} at depth {io_depth}");
            }
            // The deletes of round 2 still shadow L3's values: they were kept.
            let kept = kv.sorted[1].tables().iter().map(|table| table.meta.entries).sum::<u64>();
            let rewritten = (0..300).filter(|i| i % 2 == 0 || i % 3 == 0).count() as u64;
            assert_eq!(kept, rewritten, "every key of rounds 1 and 2, tombstones included");

            // L2 into L3, the bottom: tombstones go.
            kv.compact_level(2).unwrap();
            let live = model.values().filter(|value| value.is_some()).count() as u64;
            let bottom = kv.sorted[2].tables().iter().map(|table| table.meta.entries).sum::<u64>();
            assert_eq!(bottom, live);
            for (&i, value) in &model {
                assert_eq!(&kv.get(&key(i)).unwrap().value, value, "key {i} at the bottom");
            }
            assert_eq!(kv.check_invariants(), Ok(()));
        }
    }

    /// A conventional FTL that fails the n-th read — or the n-th write — after
    /// being armed, the way an uncorrectable page surfaces mid-compaction or a
    /// worn-out device turns a table build away.
    struct FailingNth {
        inner: ConventionalFtl,
        fails_writes: bool,
        until_failure: std::rc::Rc<std::cell::Cell<Option<u32>>>,
    }

    impl FlashTranslationLayer for FailingNth {
        fn name(&self) -> &str {
            "failing-nth"
        }
        fn logical_pages(&self) -> u64 {
            self.inner.logical_pages()
        }
        fn submit(&mut self, request: IoRequest) -> Result<Completion, FtlError> {
            if request.is_write() == self.fails_writes {
                match self.until_failure.get() {
                    Some(0) => {
                        self.until_failure.set(None);
                        return Err(match self.fails_writes {
                            true => FtlError::ReadOnly,
                            false => FtlError::UnmappedRead { lpn: request.lpn },
                        });
                    }
                    Some(left) => self.until_failure.set(Some(left - 1)),
                    None => {}
                }
            }
            self.inner.submit(request)
        }
        fn metrics(&self) -> &FtlMetrics {
            self.inner.metrics()
        }
        fn device(&self) -> &NandDevice {
            self.inner.device()
        }
        fn device_mut(&mut self) -> &mut NandDevice {
            self.inner.device_mut()
        }
    }

    #[test]
    fn a_compaction_that_fails_a_read_keeps_every_input_table_served() {
        let reads_until_failure = std::rc::Rc::new(std::cell::Cell::new(None));
        let inner =
            ConventionalFtl::new(NandDevice::new(NandConfig::small()), FtlConfig::default())
                .unwrap();
        let ftl =
            FailingNth { inner, fails_writes: false, until_failure: reads_until_failure.clone() };
        // A trigger the test never reaches: L0 keeps every flushed table until
        // the test compacts by hand.
        let config = KvConfig { l0_compaction_trigger: 64, ..small_config() };
        let mut kv = KvStore::open(FlashStore::new(ftl), config).unwrap();
        let value = |round: u32, i: u32| format!("round-{round}-{i}").into_bytes();
        for i in 0..120u32 {
            kv.put(&key(i), &value(0, i)).unwrap();
        }
        kv.flush().unwrap();
        kv.compact_level(0).unwrap();
        for i in (0..120u32).step_by(2) {
            kv.put(&key(i), &value(1, i)).unwrap();
        }
        kv.flush().unwrap();
        assert!(kv.l0.len() >= 2 && !kv.sorted[0].is_empty(), "inputs at both levels");
        let newest = |i: u32| value(u32::from(i.is_multiple_of(2)), i);
        let layout = kv.layout();
        let compactions = kv.stats().compactions;

        // Fail the first input read, then the second, ... until the compaction
        // gets through: every read of the target run and of each source table
        // is the failing one once.
        let mut failed = 0u32;
        loop {
            reads_until_failure.set(Some(failed));
            if kv.compact_level(0).is_ok() {
                break;
            }
            assert_eq!(reads_until_failure.get(), None, "the armed failure fired");
            assert_eq!(kv.layout(), layout, "a failed compaction must not drop or move a table");
            assert_eq!(kv.stats().compactions, compactions);
            for i in 0..120u32 {
                assert_eq!(kv.get(&key(i)).unwrap().value, Some(newest(i)), "key {i}");
            }
            failed += 1;
        }
        reads_until_failure.set(None);
        assert!(failed >= 3, "the target run and every source table were read: {failed}");
        // The compaction that got through serves the same data.
        assert!(kv.l0.is_empty());
        for i in 0..120u32 {
            assert_eq!(kv.get(&key(i)).unwrap().value, Some(newest(i)), "key {i}");
        }
    }

    #[test]
    fn a_flush_refused_at_any_write_keeps_every_put_readable_and_leaks_no_page() {
        for io_depth in [1, 8] {
            a_flush_refused_at_any_write(io_depth);
        }
    }

    fn a_flush_refused_at_any_write(io_depth: usize) {
        // The test flushes by hand, and its second flush compacts: that one's
        // writes are an L0 table, the L1 tables, the manifest, the superblock.
        let config = KvConfig {
            memtable_bytes: 1 << 20,
            wal_pages: 8,
            l0_compaction_trigger: 2,
            io_depth,
            ..small_config()
        };
        let about_to_flush = || {
            let writes_until_failure = std::rc::Rc::new(std::cell::Cell::new(None));
            let inner =
                ConventionalFtl::new(NandDevice::new(NandConfig::small()), FtlConfig::default())
                    .unwrap();
            let until_failure = writes_until_failure.clone();
            let ftl = FailingNth { inner, fails_writes: true, until_failure };
            let mut kv = KvStore::open(FlashStore::new(ftl), config).unwrap();
            for i in 0..40u32 {
                kv.put(&key(i), &[1; 100]).unwrap();
            }
            kv.flush().unwrap();
            assert_eq!((kv.l0.len(), kv.stats().compactions), (1, 0));
            for i in 20..60u32 {
                kv.put(&key(i), &[2; 100]).unwrap();
            }
            (kv, writes_until_failure)
        };
        let serves_every_put = |kv: &mut KvStore<FailingNth>| {
            for i in 0..60u32 {
                let newest = vec![if i < 20 { 1 } else { 2 }; 100];
                assert_eq!(kv.get(&key(i)).unwrap().value, Some(newest), "key {i}");
            }
        };
        // Refuse the flush's first write, then — from the same state — its
        // second, ... until it gets through: every page of every file it
        // writes is the refused one once.
        let mut refused = 0u32;
        loop {
            let (mut kv, writes_until_failure) = about_to_flush();
            writes_until_failure.set(Some(refused));
            let flushed = kv.flush();
            if flushed.is_ok() {
                assert_eq!(kv.stats().compactions, 1);
                break;
            }
            assert!(matches!(flushed, Err(KvError::ReadOnly)), "{flushed:?}");
            assert_eq!(writes_until_failure.get(), None, "the armed failure fired");
            assert_eq!(kv.check_invariants(), Ok(()), "after refusing write {refused}");
            serves_every_put(&mut kv);
            // The device accepts writes again: the next flush commits, and
            // what it commits survives a crash.
            kv.flush().unwrap();
            assert_eq!(kv.check_invariants(), Ok(()), "flushed after refusing write {refused}");
            let mut kv = KvStore::open(kv.crash(), config).unwrap();
            serves_every_put(&mut kv);
            assert_eq!(kv.check_invariants(), Ok(()), "recovered after refusing write {refused}");
            refused += 1;
        }
        assert!(refused >= 6, "two L0 pages, two L1 tables, manifest, superblock: {refused}");
    }

    #[test]
    fn a_compaction_that_meets_a_damaged_entry_is_corruption_and_keeps_every_table_served() {
        // A trigger and an L1 capacity the test never reaches: it compacts by hand.
        let config =
            KvConfig { l0_compaction_trigger: 64, level_base_bytes: 1 << 20, ..small_config() };
        let mut kv = KvStore::open(flash(), config).unwrap();
        // Every entry is 7 + 9 + 100 bytes, so entry `n` of a table starts at
        // byte 116 n of its data section.
        let value = |round: u8| vec![round; 100];
        for i in 0..300u32 {
            kv.put(&key(i), &value(0)).unwrap();
        }
        kv.flush().unwrap();
        kv.compact_level(0).unwrap();
        for i in (0..300u32).step_by(2) {
            kv.put(&key(i), &value(1)).unwrap();
        }
        kv.flush().unwrap();
        assert!(kv.l0.len() >= 2 && kv.sorted[0].tables().len() >= 4, "inputs at both levels");
        let last_target = kv.sorted[0].tables().last().unwrap().meta.clone();
        let newest_source = kv.l0[0].meta.clone();
        let (layout, compactions) = (kv.layout(), kv.stats().compactions);

        // Damage late in key order, so tables have been written by the time
        // the merge reaches it: entry 3 of the target level's last table gets
        // a flag that is neither value nor tombstone, then a length that runs
        // past the section; the newest source table's section is cut short
        // inside its last entry.
        type Damage = Box<dyn Fn(&mut KvStore<ConventionalFtl>, bool)>;
        let flip = |file: SegmentFile, offset: u64, mask: u8| -> Damage {
            Box::new(move |kv, _| *kv.store.shadow_byte_mut(&file, offset) ^= mask)
        };
        let damages: [Damage; 3] = [
            flip(last_target.file.clone(), 3 * 116 + 2, 0x40),
            flip(last_target.file.clone(), 3 * 116 + 6, 0x01),
            Box::new(move |kv, undo| {
                kv.l0[0].meta.data_len = newest_source.data_len - if undo { 0 } else { 5 };
            }),
        ];
        for (which, damage) in damages.iter().enumerate() {
            damage(&mut kv, false);
            let ids_before = kv.next_table_id;
            let refused = kv.compact_level(0);
            assert!(matches!(refused, Err(KvError::Corruption(_))), "damage {which}: {refused:?}");
            assert!(kv.next_table_id > ids_before, "damage {which} was met after a table write");
            damage(&mut kv, true);
            assert_eq!(kv.layout(), layout, "a failed compaction must not drop or move a table");
            assert_eq!(kv.stats().compactions, compactions);
            assert_eq!(kv.check_invariants(), Ok(()), "the tables written so far were deleted");
            for i in 0..300u32 {
                let newest = value(u8::from(i.is_multiple_of(2)));
                assert_eq!(kv.get(&key(i)).unwrap().value, Some(newest), "key {i}");
            }
        }
        // Repaired, the same compaction goes through — from an empty builder.
        kv.compact_level(0).unwrap();
        assert!(kv.l0.is_empty());
        assert_eq!(kv.check_invariants(), Ok(()));
        for i in 0..300u32 {
            let newest = value(u8::from(i.is_multiple_of(2)));
            assert_eq!(kv.get(&key(i)).unwrap().value, Some(newest), "key {i}");
        }
    }

    #[test]
    fn reopen_after_clean_flush_recovers_everything() {
        let mut kv = KvStore::open(flash(), small_config()).unwrap();
        for i in 0..200u32 {
            kv.put(&key(i), format!("v{i}").as_bytes()).unwrap();
        }
        kv.flush().unwrap();
        let layout = kv.layout();
        let store = kv.crash();
        let mut kv = KvStore::open(store, small_config()).unwrap();
        assert_eq!(kv.layout(), layout, "recovery must rebuild the exact table tree");
        for i in 0..200u32 {
            assert_eq!(kv.get(&key(i)).unwrap().value, Some(format!("v{i}").into_bytes()));
        }
    }

    #[test]
    fn reopen_replays_unflushed_wal_records() {
        let mut kv = KvStore::open(flash(), small_config()).unwrap();
        for i in 0..50u32 {
            kv.put(&key(i), b"committed").unwrap();
        }
        kv.flush().unwrap();
        kv.put(b"tail-1", b"after-flush").unwrap();
        kv.delete(&key(7)).unwrap();
        let store = kv.crash();
        let mut kv = KvStore::open(store, small_config()).unwrap();
        assert_eq!(kv.get(b"tail-1").unwrap().value, Some(b"after-flush".to_vec()));
        assert_eq!(kv.get(&key(7)).unwrap().value, None, "the tail delete must replay");
        assert_eq!(kv.get(&key(8)).unwrap().value, Some(b"committed".to_vec()));
        // And the recovered store keeps working, including further flushes.
        for i in 0..200u32 {
            kv.put(&key(i), format!("w{i}").as_bytes()).unwrap();
        }
        kv.flush().unwrap();
        assert_eq!(kv.get(&key(0)).unwrap().value, Some(b"w0".to_vec()));
    }

    #[test]
    fn write_amplification_factors_multiply_exactly() {
        // The app x ftl = e2e identity must hold on the serial path and stay
        // exact under batching: batched submission changes time accounting
        // only, never the host/GC page counts the factors are built from.
        let mut amplifications = Vec::new();
        for io_depth in [1usize, 8] {
            let config = KvConfig { io_depth, ..small_config() };
            let mut kv = KvStore::open(flash(), config).unwrap();
            for round in 0..4u32 {
                for i in 0..250u32 {
                    kv.put(&key(i), format!("wa-{round}-{i}").as_bytes()).unwrap();
                }
            }
            kv.flush().unwrap();
            let wa = kv.write_amplification();
            assert!(wa.app > 1.0, "WAL + flush + compaction must amplify app bytes");
            assert!(wa.ftl >= 1.0);
            let product = wa.app * wa.ftl;
            assert!(
                (product - wa.end_to_end).abs() <= 1e-9 * wa.end_to_end,
                "io_depth {io_depth}: app WA ({}) x FTL WA ({}) must equal e2e WA ({})",
                wa.app,
                wa.ftl,
                wa.end_to_end
            );
            let metrics = kv.flash().ftl().metrics();
            if io_depth == 1 {
                assert_eq!(metrics.batched_pages, 0, "depth 1 stays on the scalar path");
            } else {
                assert!(metrics.batched_pages > 0, "bulk builds must batch at depth 8");
                assert!(metrics.batched_submissions > 0);
            }
            amplifications.push(wa);
        }
        assert_eq!(
            amplifications[0], amplifications[1],
            "batching must not change any write-amplification factor"
        );
    }

    #[test]
    fn manifest_round_trips_through_encode_decode() {
        let mut kv = KvStore::open(flash(), small_config()).unwrap();
        for i in 0..300u32 {
            kv.put(&key(i), b"manifest-test").unwrap();
        }
        kv.flush().unwrap();
        let encoded = kv.encode_manifest();
        let decoded = decode_manifest(&encoded).unwrap();
        assert_eq!(decoded.wal_epoch, kv.wal.epoch());
        assert_eq!(decoded.next_table_id, kv.next_table_id);
        let metas: Vec<Vec<TableMeta>> =
            kv.levels().map(|tables| tables.iter().map(|t| t.meta.clone()).collect()).collect();
        assert_eq!(decoded.levels, metas);
        // A flipped byte — any of them — fails the checksum.
        for at in 0..encoded.len() {
            let mut bad = encoded.clone();
            bad[at] ^= 0xFF;
            assert!(matches!(decode_manifest(&bad), Err(KvError::Corruption(_))), "byte {at}");
        }
    }

    #[test]
    fn a_flipped_superblock_byte_is_corruption_at_open() {
        let formatted = || {
            let mut kv = KvStore::open(flash(), small_config()).unwrap();
            kv.put(b"key", b"value").unwrap();
            kv.flush().unwrap();
            kv.crash()
        };
        let superblock = formatted().read_superblock().unwrap();
        // magic, extent count, the extents, manifest length, checksum.
        let extents = u32::from_le_bytes(superblock[8..12].try_into().unwrap()) as usize;
        let payload = 8 + 4 + 16 * extents + 8 + 8;
        assert!(extents >= 1 && superblock[payload..].iter().all(|&byte| byte == 0));
        for at in 0..payload {
            let mut store = formatted();
            let mut bad = superblock[..payload].to_vec();
            bad[at] ^= 0x01;
            store.write_superblock(&bad).unwrap();
            let reopened = KvStore::open(store, small_config());
            assert!(matches!(reopened, Err(KvError::Corruption(_))), "byte {at}");
        }
        let mut intact = KvStore::open(formatted(), small_config()).unwrap();
        assert_eq!(intact.get(b"key").unwrap().value, Some(b"value".to_vec()));
    }

    #[test]
    fn empty_and_reversed_scan_ranges_have_no_rows() {
        let mut kv = KvStore::open(flash(), small_config()).unwrap();
        kv.put(b"a", b"1").unwrap();
        kv.put(b"b", b"2").unwrap();
        // Once against the memtable alone, once with the keys in a table.
        for flushed in [false, true] {
            if flushed {
                kv.flush().unwrap();
            }
            let (clock, scans) = (kv.device_clock(), kv.stats().scans);
            assert_eq!(kv.scan(b"b", b"a").unwrap(), vec![], "lo > hi, flushed: {flushed}");
            assert_eq!(kv.scan(b"a", b"a").unwrap(), vec![], "lo == hi, flushed: {flushed}");
            assert_eq!(kv.stats().scans, scans + 2, "an empty scan is still a scan");
            assert_eq!(kv.device_clock(), clock, "and reads nothing");
            assert_eq!(kv.scan(b"a", b"b").unwrap(), vec![(b"a".to_vec(), b"1".to_vec())]);
        }
    }

    #[test]
    fn oversized_keys_are_rejected_before_anything_is_written() {
        // A WAL region wide enough for one record with the longest legal key.
        let config = KvConfig { wal_pages: 24, ..small_config() };
        let mut kv = KvStore::open(flash(), config).unwrap();
        kv.put(b"before", b"1").unwrap();
        let (clock, stats) = (kv.device_clock(), *kv.stats());
        let long_key = vec![b'k'; usize::from(u16::MAX) + 1];
        for refused in [kv.put(&long_key, b"value"), kv.delete(&long_key)] {
            assert!(
                matches!(refused, Err(KvError::EntryTooLarge { key_bytes: 65_536, .. })),
                "got {refused:?}"
            );
        }
        assert_eq!(kv.device_clock(), clock, "a refused entry costs no device traffic");
        assert_eq!(*kv.stats(), stats, "a refused entry is not counted as accepted");
        // The longest key that fits round-trips, and the log stays replayable:
        // before the check, the truncated length field of an oversized key
        // failed its record's checksum on replay and cut off every later op.
        let widest_key = vec![b'w'; usize::from(u16::MAX)];
        kv.put(&widest_key, b"fits").unwrap();
        kv.put(b"after", b"2").unwrap();
        let mut kv = KvStore::open(kv.crash(), config).unwrap();
        assert_eq!(kv.get(&widest_key).unwrap().value, Some(b"fits".to_vec()));
        assert_eq!(kv.get(b"after").unwrap().value, Some(b"2".to_vec()));
        assert_eq!(kv.get(b"before").unwrap().value, Some(b"1".to_vec()));
    }

    /// The merge semantics this store had before the streaming merge, kept as
    /// the model: insert every run into a sorted map oldest first (so the
    /// newest version of a key wins), drop tombstones at the bottom of the
    /// tree, then cut the sorted list into tables.
    fn model_merge(runs: &[Vec<Entry>], bottom: bool) -> Vec<Entry> {
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for (key, value) in runs.iter().flatten() {
            merged.insert(key.clone(), value.clone());
        }
        merged.into_iter().filter(|(_, value)| !(bottom && value.is_none())).collect()
    }

    fn split_for_tables(entries: &[Entry], target: u64) -> Vec<&[Entry]> {
        let mut chunks = Vec::new();
        let mut start = 0usize;
        let mut bytes = 0u64;
        for (position, (key, value)) in entries.iter().enumerate() {
            let encoded = 7 + key.len() as u64 + value.as_ref().map_or(0, Vec::len) as u64;
            if bytes > 0 && bytes + encoded > target {
                chunks.push(&entries[start..position]);
                start = position;
                bytes = 0;
            }
            bytes += encoded;
        }
        if start < entries.len() {
            chunks.push(&entries[start..]);
        }
        chunks
    }

    /// One sorted run: distinct keys out of a small space (so runs overlap),
    /// a third of them tombstones, values of assorted lengths.
    fn sorted_run() -> impl Strategy<Value = Vec<Entry>> {
        proptest::collection::vec((0u8..40, 0u8..3, 0usize..90, any::<u8>()), 0..30).prop_map(
            |rows| {
                let run: BTreeMap<Vec<u8>, Option<Vec<u8>>> = rows
                    .into_iter()
                    .map(|(key, kind, len, fill)| {
                        (format!("key{key:03}").into_bytes(), (kind > 0).then(|| vec![fill; len]))
                    })
                    .collect();
                run.into_iter().collect()
            },
        )
    }

    /// `get` as it was before the levels were fence-indexed, kept as the
    /// reference the located lookup must match probe for probe: every table
    /// of every level — L0 newest first, then each deeper level in table order
    /// — through the table's own `get`, which range-skips all but the
    /// candidates.
    fn walking_get<F: FlashTranslationLayer>(
        kv: &mut KvStore<F>,
        key: &[u8],
    ) -> Result<Lookup, KvError> {
        kv.stats.gets += 1;
        let start = kv.store.now();
        if let Some(entry) = kv.memtable.get(key) {
            let value = entry.clone();
            if value.is_some() {
                kv.stats.memtable_hits += 1;
            } else {
                kv.stats.misses += 1;
            }
            let time = kv.store.now() - start;
            return Ok(Lookup { value, source: LookupSource::Memtable, time });
        }
        let KvStore { store, l0, sorted, stats, .. } = kv;
        for table in l0.iter().chain(sorted.iter().flat_map(SortedRun::tables)) {
            let (found, probe) = table.get(store, key)?;
            match probe {
                TableProbe::BloomSkip => stats.bloom_skips += 1,
                TableProbe::Read => stats.table_reads += 1,
                TableProbe::RangeSkip => {}
            }
            if let Some(value) = found {
                if value.is_some() {
                    stats.sstable_hits += 1;
                } else {
                    stats.misses += 1;
                }
                let time = store.now() - start;
                return Ok(Lookup { value, source: LookupSource::SsTable, time });
            }
        }
        stats.misses += 1;
        Ok(Lookup { value: None, source: LookupSource::Miss, time: store.now() - start })
    }

    /// `scan` as it was before the levels were fence-indexed: every table of
    /// every level is asked for its rows in range.
    fn walking_scan<F: FlashTranslationLayer>(
        kv: &mut KvStore<F>,
        lo: &[u8],
        hi: &[u8],
    ) -> Result<Rows, KvError> {
        kv.stats.scans += 1;
        if lo >= hi {
            return Ok(Vec::new());
        }
        let KvStore { store, l0, sorted, memtable, .. } = kv;
        let (lo, hi) = (KeyRef::new(lo), KeyRef::new(hi));
        let mut scanned = RunSpans::default();
        for run in sorted.iter().rev() {
            scanned.begin_run();
            for table in run.tables() {
                table.scan_between(store, lo, hi, &mut scanned)?;
            }
        }
        for table in l0.iter().rev() {
            scanned.begin_run();
            table.scan_between(store, lo, hi, &mut scanned)?;
        }
        let buffered = memtable
            .range(lo.bytes(), hi.bytes())
            .map(|(key, value)| (key.as_slice(), value.as_deref()));
        live_rows(&scanned, scanned.lent(store), buffered)
    }

    /// Keys chosen to tie and nest in their prefixes (the empty key, keys
    /// under eight bytes, `"ab"` / `"ab\0"`, families sharing eight bytes),
    /// and big-endian counters like the benchmark's.
    fn key_pool() -> Vec<Vec<u8>> {
        let mut pool = crate::key::tricky_keys();
        pool.extend((0..26u64).map(|rank| (rank * 3).to_be_bytes().to_vec()));
        pool
    }

    #[derive(Debug, Clone)]
    enum HistoryOp {
        Put(usize, usize, u8),
        Delete(usize),
        Get(usize),
        Scan(usize, usize),
        Flush,
    }

    fn history() -> impl Strategy<Value = Vec<HistoryOp>> {
        let keys = key_pool().len();
        let op = prop_oneof![
            (0..keys, 0usize..100, any::<u8>()).prop_map(|(k, len, fill)| HistoryOp::Put(k, len, fill)),
            (0..keys, 0usize..100, any::<u8>()).prop_map(|(k, len, fill)| HistoryOp::Put(k, len, fill)),
            (0..keys, 0usize..100, any::<u8>()).prop_map(|(k, len, fill)| HistoryOp::Put(k, len, fill)),
            (0..keys).prop_map(HistoryOp::Delete),
            (0..keys).prop_map(HistoryOp::Get),
            (0..keys, 0..keys).prop_map(|(lo, hi)| HistoryOp::Scan(lo, hi)),
            (0u8..8).prop_map(|roll| if roll == 0 { HistoryOp::Flush } else { HistoryOp::Get(0) }),
        ];
        proptest::collection::vec(op, 150..400)
    }

    /// Runs `ops` on two stores over identical devices — one answering reads
    /// with the store's located lookup, one with the walk above — and after
    /// every read demands the same answer (which is also the model map's),
    /// the same counters and the same device clock. Whenever the table tree
    /// changed, every key of the pool is probed and a spread of ranges scanned.
    fn located_lookup_matches_the_walk<F: FlashTranslationLayer>(
        make_ftl: impl Fn(NandDevice) -> F,
        config: KvConfig,
        ops: &[HistoryOp],
    ) -> Result<(), TestCaseError> {
        let nand = NandConfig::builder()
            .chips(4)
            .blocks_per_chip(16)
            .pages_per_block(32)
            .page_size_bytes(4096)
            .build()
            .unwrap();
        let open = || {
            let store = FlashStore::new(make_ftl(NandDevice::new(nand.clone())));
            KvStore::open(store, config).unwrap()
        };
        let (mut located, mut walked) = (open(), open());
        let mut model: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        let pool = key_pool();
        let mut sorted_pool = pool.clone();
        sorted_pool.sort();

        macro_rules! same_state {
            ($what:expr) => {
                prop_assert_eq!(located.stats(), walked.stats(), "stats after {}", $what);
                prop_assert_eq!(located.flash().ftl().metrics(), walked.flash().ftl().metrics());
                prop_assert_eq!(located.device_clock(), walked.device_clock(), "{}", $what);
            };
        }
        macro_rules! same_get {
            ($key:expr) => {
                let key: &[u8] = $key;
                let found = located.get(key).unwrap();
                prop_assert_eq!(&found, &walking_get(&mut walked, key).unwrap(), "get {:?}", key);
                prop_assert_eq!(&found.value, &model.get(key).cloned().flatten(), "get {:?}", key);
                same_state!(format!("get {key:?}"));
            };
        }
        macro_rules! same_scan {
            ($lo:expr, $hi:expr) => {
                let (lo, hi): (&[u8], &[u8]) = ($lo, $hi);
                let rows = located.scan(lo, hi).unwrap();
                prop_assert_eq!(&rows, &walking_scan(&mut walked, lo, hi).unwrap());
                let live = model
                    .iter()
                    .filter(|(key, _)| lo <= key.as_slice() && key.as_slice() < hi)
                    .filter_map(|(key, value)| value.clone().map(|value| (key.clone(), value)));
                prop_assert_eq!(rows, live.collect::<Vec<_>>(), "scan {:?}..{:?}", lo, hi);
                same_state!(format!("scan {lo:?}..{hi:?}"));
            };
        }

        let mut tree = (0, 0);
        let mut widest_run = 0;
        for op in ops.iter().chain([&HistoryOp::Flush]) {
            match *op {
                HistoryOp::Put(key, len, fill) => {
                    let value = vec![fill; len];
                    located.put(&pool[key], &value).unwrap();
                    walked.put(&pool[key], &value).unwrap();
                    model.insert(pool[key].clone(), Some(value));
                }
                HistoryOp::Delete(key) => {
                    located.delete(&pool[key]).unwrap();
                    walked.delete(&pool[key]).unwrap();
                    model.insert(pool[key].clone(), None);
                }
                HistoryOp::Flush => {
                    located.flush().unwrap();
                    walked.flush().unwrap();
                }
                HistoryOp::Get(key) => {
                    same_get!(&pool[key]);
                }
                HistoryOp::Scan(lo, hi) => {
                    same_scan!(&pool[lo], &pool[hi]);
                }
            }
            let now = (located.stats().flushes, located.stats().compactions);
            if std::mem::replace(&mut tree, now) != now {
                prop_assert_eq!(located.layout(), walked.layout());
                let widest_now = located.sorted.iter().map(|run| run.tables().len()).max();
                widest_run = widest_run.max(widest_now.unwrap_or(0));
                for key in &pool {
                    same_get!(key);
                    // And the key sorting right after it, never written.
                    same_get!(&[key.as_slice(), &[0]].concat());
                }
                same_scan!(b"", &[0xFF; 10]);
                for window in sorted_pool.windows(7).step_by(5) {
                    same_scan!(&window[0], &window[6]);
                }
            }
        }
        prop_assert!(widest_run >= 3, "the history must build runs to locate in: {widest_run}");
        prop_assert_eq!(located.check_invariants(), Ok(()));
        prop_assert_eq!(walked.check_invariants(), Ok(()));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Differential test of the fence-indexed lookup against the linear
        /// walk it replaced, at sparse-index stride 1 and 16 and queue depth 1
        /// and 16, over both FTLs (PPB's placement also depends on the order
        /// reads arrive in).
        #[test]
        fn located_lookups_match_the_linear_walk_probe_for_probe(ops in history()) {
            // Tiny thresholds: a flush every few puts, several tables per
            // level, three or four levels within one history.
            let config = |sparse_index_interval, io_depth| KvConfig {
                memtable_bytes: 600,
                l0_compaction_trigger: 2,
                level_base_bytes: 1_500,
                level_size_multiplier: 2,
                target_table_bytes: 500,
                sparse_index_interval,
                io_depth,
                ..KvConfig::default()
            };
            let conventional =
                |device| ConventionalFtl::new(device, FtlConfig::default()).unwrap();
            let ppb = |device| PpbFtl::new(device, PpbConfig::default()).unwrap();
            located_lookup_matches_the_walk(conventional, config(16, 1), &ops)?;
            located_lookup_matches_the_walk(ppb, config(1, 16), &ops)?;
            located_lookup_matches_the_walk(ppb, config(16, 16), &ops)?;
            located_lookup_matches_the_walk(conventional, config(1, 1), &ops)?;
        }
    }

    /// A store over 512-byte pages: tables of a few hundred bytes span
    /// several, so the allocator can be made to break them into extents.
    fn small_page_flash(io_depth: usize) -> FlashStore<ConventionalFtl> {
        let nand = NandConfig::builder()
            .chips(4)
            .blocks_per_chip(16)
            .pages_per_block(16)
            .page_size_bytes(512)
            .build()
            .unwrap();
        let ftl = ConventionalFtl::new(NandDevice::new(nand), FtlConfig::default()).unwrap();
        let mut store = FlashStore::new(ftl);
        store.set_io_depth(io_depth);
        store
    }

    /// Leaves a free one-page hole at the head of the free list, cut off from
    /// the free pages after it: the next file built starts in the hole and
    /// continues elsewhere — its second page begins a second extent.
    fn punch_hole<F: FlashTranslationLayer>(store: &mut FlashStore<F>) {
        let hole = store.alloc_run(1).unwrap();
        let _pinned = store.alloc_run(1).unwrap();
        store.free_extents(&hole);
    }

    /// A fixed run of 980 data bytes whose eleventh entry lies across byte
    /// 512 — the extent boundary of a table built right after `punch_hole`.
    fn straddling_run() -> Vec<Entry> {
        let run: Vec<Entry> = (0..20u8)
            .map(|i| {
                let key = format!("key{:03}", 2 * i).into_bytes();
                (key, (i % 5 != 4).then(|| vec![i; 45]))
            })
            .collect();
        let mut at = 0;
        let crosses_a_page = run.iter().any(|(key, value)| {
            let start = at;
            at += 7 + key.len() + value.as_ref().map_or(0, Vec::len);
            start < 512 && 512 < at
        });
        assert!(crosses_a_page && at > 512);
        run
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The k-way merge over lent table spans and the streaming table
        /// split must equal the sorted-map merge and the slice split they
        /// replaced: same rows, same table boundaries, on the bottom level and
        /// above it, at queue depth 1 and 16 — with inputs the arena lends in
        /// place and inputs that cross extents (an entry across the boundary)
        /// and are spilled, asserted to both occur; and a scan's merge of the
        /// same runs under a memtable equals the model's live rows.
        #[test]
        fn streaming_merge_and_split_match_the_sorted_map_model(
            runs in proptest::collection::vec(sorted_run(), 1..5),
            fragmented in proptest::collection::vec(any::<bool>(), 5..6),
            buffered in sorted_run(),
            bottom in any::<bool>(),
            target in 60u64..900,
        ) {
            for io_depth in [1usize, 16] {
                let mut store = small_page_flash(io_depth);
                let options = TableOptions { sparse_index_interval: 4, ..TableOptions::default() };
                let build = |entries: &[Entry], store: &mut FlashStore<ConventionalFtl>| {
                    TableHandle::build(store, 1, entries, options).unwrap()
                };
                // The oldest run plays the target level: a table broken into
                // two extents inside its twelfth entry, then a table in one
                // extent, its keys past every other run's.
                let mut level = straddling_run();
                let tail: Vec<Entry> =
                    (40..44u8).map(|i| (format!("key{i:03}").into_bytes(), Some(vec![i; 9]))).collect();
                let mut inputs = RunSpans::default();
                inputs.begin_run();
                punch_hole(&mut store);
                let broken = build(&level, &mut store);
                prop_assert_eq!(broken.meta.file.extents().len(), 2);
                prop_assert_eq!(broken.meta.file.extents()[0].pages, 1);
                broken.lend_entries(&mut store, &mut inputs).unwrap();
                build(&tail, &mut store).lend_entries(&mut store, &mut inputs).unwrap();
                prop_assert_eq!(inputs.lent_and_spilled(), (1, 1));
                level.extend(tail);
                // The next plays a sorted source level of two tables, read
                // last table first and merged as one run; every other run is
                // one table. Some are built across a hole.
                for (age, run) in runs.iter().enumerate() {
                    inputs.begin_run();
                    let halves =
                        if age == 0 { run.split_at(run.len() / 2) } else { (&run[..], &[][..]) };
                    for half in [halves.1, halves.0] {
                        if !half.is_empty() {
                            if fragmented[age] {
                                punch_hole(&mut store);
                            }
                            build(half, &mut store).lend_entries(&mut store, &mut inputs).unwrap();
                        }
                    }
                    inputs.reverse_run();
                }
                let mut builder = TableBuilder::new(options);
                let tables =
                    build_tables(&inputs, bottom, target, &mut builder, &mut store, &mut 2).unwrap();

                let mut all_runs = vec![level];
                all_runs.extend(runs.iter().cloned());
                let expected = model_merge(&all_runs, bottom);
                let expected_tables = split_for_tables(&expected, target);
                prop_assert_eq!(tables.len(), expected_tables.len());
                for (table, expected) in tables.iter().zip(expected_tables) {
                    let mut rows = RunSpans::default();
                    rows.begin_run();
                    table.lend_entries(&mut store, &mut rows).unwrap();
                    let lent = rows.lent(&store);
                    let rows = NewestWins::new(&rows, lent).unwrap().collect(lent).unwrap();
                    prop_assert_eq!(rows.as_slice(), expected);
                    // Each piece is the table a plain build of the same rows gives.
                    let rebuilt = build(expected, &mut store);
                    prop_assert_eq!(&table.meta.min_key, &rebuilt.meta.min_key);
                    prop_assert_eq!(&table.meta.max_key, &rebuilt.meta.max_key);
                    let sections = |meta: &TableMeta| {
                        (meta.entries, meta.data_len, meta.bloom_off, meta.file.len())
                    };
                    prop_assert_eq!(sections(&table.meta), sections(&rebuilt.meta));
                }

                // The same runs under a memtable, the way a scan merges them.
                let top = buffered.iter().map(|(key, value)| (key.as_slice(), value.as_deref()));
                let scanned = live_rows(&inputs, inputs.lent(&store), top).unwrap();
                all_runs.push(buffered.clone());
                let live: Vec<_> = model_merge(&all_runs, true)
                    .into_iter()
                    .map(|(key, value)| (key, value.expect("tombstones were dropped")))
                    .collect();
                prop_assert_eq!(scanned, live);
            }
        }
    }
}
