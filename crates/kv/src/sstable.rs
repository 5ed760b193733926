//! Sorted string tables: immutable sorted runs with a per-table bloom filter
//! and a sparse index.
//!
//! On-flash layout of one table file (all little-endian):
//!
//! ```text
//! [ data section    ]  entries back to back: klen u16 | flag u8 | vlen u32 | key | value
//! [ index section   ]  count u32, then per sparse entry: klen u16 | data offset u64 | key
//! [ bloom section   ]  word count u32 | hash count u32 | u64 words
//! ```
//!
//! The section offsets, entry count and key bounds live in the manifest, so a
//! recovering store can rebuild a [`TableHandle`] by reading just the index and
//! bloom sections (charged as device reads). Point lookups consult the bounds,
//! then the bloom filter, then binary-search the sparse index and read a single
//! index bucket — at the default interval that is one small `read_range` per
//! probed table. The bounds and the index are searched through the keys'
//! integer prefixes (`key.rs`), kept in the handle beside the keys —
//! the index's in one contiguous array — so the full keys are compared only
//! where prefixes tie.
//!
//! Reads are borrowed: a probe compares keys inside the bytes the
//! [`FlashStore`] lends and copies out only the value it returns; a range
//! scan and a whole-table read (compaction input) charge their page reads and
//! leave the rows where they lie, handing the caller's [`RunSpans`] the
//! [`Span`](crate::flash_file::Span)s to walk — only a read that crosses
//! extents is copied, into the runs' spill buffer. Tables are written by a
//! streaming [`TableBuilder`], which gives back what it reserved when the
//! device refuses the write.

use std::cmp::Ordering;

use crate::error::KvError;
use crate::flash_file::{FlashStore, SegmentFile};
use crate::hash::fnv1a_pair;
use crate::key::{key_prefix, partition_by_prefix, KeyRef};
use crate::merge::RunSpans;
use crate::store::Cursor;
use vflash_ftl::FlashTranslationLayer;

/// Default sparse-index stride: every 16th entry lands in the sparse index
/// (the first always does).
const DEFAULT_SPARSE_INDEX_INTERVAL: usize = 16;
/// Default bloom filter budget: bits per key.
const DEFAULT_BLOOM_BITS_PER_KEY: usize = 10;

/// Construction-time tuning knobs for a table, derived from
/// [`KvConfig`](crate::KvConfig). Both are build-time only: the on-flash
/// encoding is self-describing (the bloom section stores its word and hash
/// counts; the index section stores its entry count), so tables built with any
/// options recover with no options at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableOptions {
    /// Bloom filter budget in bits per key (hash count is derived as
    /// `bits * ln 2`, floored to at least one probe). More bits, fewer false
    /// positives, bigger bloom section.
    pub bloom_bits_per_key: usize,
    /// Sparse-index stride: every `sparse_index_interval`-th entry is indexed
    /// (the first always is). Stride 1 indexes every entry — single-entry
    /// buckets, largest index; larger strides trade bucket-read bytes for
    /// index size.
    pub sparse_index_interval: usize,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions {
            bloom_bits_per_key: DEFAULT_BLOOM_BITS_PER_KEY,
            sparse_index_interval: DEFAULT_SPARSE_INDEX_INTERVAL,
        }
    }
}

/// Entry flags in the data section.
const FLAG_VALUE: u8 = 0;
const FLAG_TOMBSTONE: u8 = 1;

/// A table entry: a value or a tombstone.
pub type Entry = (Vec<u8>, Option<Vec<u8>>);

/// A table entry borrowed from encoded bytes (or from the memtable).
pub(crate) type EntryRef<'a> = (&'a [u8], Option<&'a [u8]>);

/// Fixed bytes of a data-section entry: klen(2) + flag(1) + vlen(4).
pub(crate) const ENTRY_HEADER_BYTES: usize = 7;

/// A split-block bloom filter over the table's keys (double hashing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    words: Vec<u64>,
    hashes: u32,
}

impl BloomFilter {
    /// A filter sized for `keys` keys at the default 10 bits each.
    pub fn with_capacity(keys: usize) -> Self {
        BloomFilter::with_bits_per_key(keys, DEFAULT_BLOOM_BITS_PER_KEY)
    }

    /// A filter sized for `keys` keys at `bits_per_key` bits each (floored at
    /// 64 bits total), probing with the near-optimal `bits_per_key * ln 2`
    /// hashes — at least one.
    pub fn with_bits_per_key(keys: usize, bits_per_key: usize) -> Self {
        let bits = (keys * bits_per_key).max(64);
        let hashes = ((bits_per_key as u32 * 693) / 1000).max(1);
        BloomFilter { words: vec![0; bits.div_ceil(64)], hashes }
    }

    fn bits(&self) -> u64 {
        self.words.len() as u64 * 64
    }

    /// The double-hashing pair every probe position of `key` derives from.
    fn hash_pair(key: &[u8]) -> (u64, u64) {
        let (h1, h2) = fnv1a_pair(key, (0x51_73, 0xB1_00));
        (h1, h2 | 1)
    }

    /// The `(word, mask)` positions of a hash pair: bit `h1 + i * h2` (mod the
    /// filter size) for each of the filter's `i < hashes` probes.
    fn probes(&self, (h1, h2): (u64, u64)) -> impl Iterator<Item = (usize, u64)> {
        let bits = self.bits();
        (0..u64::from(self.hashes)).map(move |i| {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % bits;
            ((bit / 64) as usize, 1u64 << (bit % 64))
        })
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        self.insert_hashed(Self::hash_pair(key));
    }

    fn insert_hashed(&mut self, pair: (u64, u64)) {
        for (word, mask) in self.probes(pair) {
            self.words[word] |= mask;
        }
    }

    /// True when the key *may* be present; false means definitely absent.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.probes(Self::hash_pair(key)).all(|(word, mask)| self.words[word] & mask != 0)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.words.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.hashes.to_le_bytes());
        for word in &self.words {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }

    fn decode(bytes: &[u8]) -> Result<Self, KvError> {
        let mut cursor = Cursor::new(bytes);
        let words = cursor.u32()?;
        let hashes = cursor.u32()?;
        if hashes == 0 || words == 0 {
            return Err(KvError::Corruption("empty bloom section".to_string()));
        }
        let words = (0..words).map(|_| cursor.u64()).collect::<Result<_, _>>()?;
        Ok(BloomFilter { words, hashes })
    }
}

/// The persisted description of one table — everything the manifest stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// Creation sequence number (unique per store, newer is larger).
    pub id: u64,
    /// The backing file (extents + length).
    pub file: SegmentFile,
    /// Number of entries (tombstones included).
    pub entries: u64,
    /// Byte length of the data section.
    pub data_len: u64,
    /// File offset of the index section.
    pub index_off: u64,
    /// File offset of the bloom section.
    pub bloom_off: u64,
    /// Smallest key in the table.
    pub min_key: Vec<u8>,
    /// Largest key in the table.
    pub max_key: Vec<u8>,
}

/// How a point lookup probed a table (bloom-filter accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableProbe {
    /// The key was outside the table's key bounds — no filter consulted, no
    /// device traffic.
    RangeSkip,
    /// The bloom filter proved the key absent — no device traffic.
    BloomSkip,
    /// An index bucket was read from the device.
    Read,
}

/// What a point lookup found — `Some(true)` a value, now in the caller's
/// buffer, `Some(false)` a tombstone, `None` no entry — and how the table was
/// probed.
type Probed = Result<(Option<bool>, TableProbe), KvError>;

/// An open table: persisted metadata plus the in-memory sparse index and bloom
/// filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableHandle {
    /// The persisted metadata.
    pub meta: TableMeta,
    /// `key_prefix` of `meta.min_key` and of `meta.max_key`.
    bound_prefixes: (u64, u64),
    index: Vec<(Vec<u8>, u64)>,
    /// `key_prefix` of every index key, in index order.
    index_prefixes: Vec<u64>,
    bloom: BloomFilter,
}

/// Streams sorted entries into one table file: [`TableBuilder::add`] encodes
/// each entry straight into the data section, [`TableBuilder::finish`] sizes
/// the bloom filter for the entries actually added, appends the index and
/// bloom sections and writes the file as one bulk append. The builder is empty
/// again afterwards and keeps its buffers, so one builder serves every table
/// of a compaction (and of the store's lifetime).
#[derive(Debug)]
pub struct TableBuilder {
    options: TableOptions,
    /// The data section so far; `finish` extends it into the whole file image.
    file_bytes: Vec<u8>,
    index: Vec<(Vec<u8>, u64)>,
    /// One bloom hash pair per entry: the filter cannot be sized before the
    /// entry count is known.
    hash_pairs: Vec<(u64, u64)>,
    min_key: Vec<u8>,
    max_key: Vec<u8>,
}

impl TableBuilder {
    /// An empty builder. `options.sparse_index_interval` must be at least 1.
    pub fn new(options: TableOptions) -> Self {
        assert!(options.sparse_index_interval >= 1, "the sparse-index stride is at least 1");
        TableBuilder {
            options,
            file_bytes: Vec::new(),
            index: Vec::new(),
            hash_pairs: Vec::new(),
            min_key: Vec::new(),
            max_key: Vec::new(),
        }
    }

    /// True when no entry has been added since the last `finish`.
    pub fn is_empty(&self) -> bool {
        self.hash_pairs.is_empty()
    }

    /// Bytes of the data section so far.
    pub fn data_len(&self) -> usize {
        self.file_bytes.len()
    }

    /// Forgets the entries added since the last `finish` (a merge that fails
    /// part-way leaves the builder empty for its next user).
    pub(crate) fn clear(&mut self) {
        self.file_bytes.clear();
        self.index.clear();
        self.hash_pairs.clear();
        self.min_key.clear();
        self.max_key.clear();
    }

    /// Appends one entry (`None` is a tombstone). Keys must arrive strictly
    /// ascending (a flush or merge output always does; a violation is a logic
    /// error and panics via `debug_assert`), at most `u16::MAX` bytes long,
    /// with values of at most `u32::MAX` bytes — [`KvStore`](crate::KvStore)
    /// rejects larger ones before they get here.
    pub fn add(&mut self, key: &[u8], value: Option<&[u8]>) {
        let key_len = u16::try_from(key.len()).expect("table keys fit a u16 length");
        let value_len = u32::try_from(value.map_or(0, <[u8]>::len))
            .expect("table values fit a u32 length");
        if self.is_empty() {
            self.min_key.extend_from_slice(key);
        } else {
            debug_assert!(self.max_key.as_slice() < key, "table entries must be strictly sorted");
        }
        self.max_key.clear();
        self.max_key.extend_from_slice(key);
        if self.hash_pairs.len().is_multiple_of(self.options.sparse_index_interval) {
            self.index.push((key.to_vec(), self.file_bytes.len() as u64));
        }
        self.hash_pairs.push(BloomFilter::hash_pair(key));
        self.file_bytes.extend_from_slice(&key_len.to_le_bytes());
        self.file_bytes.push(if value.is_some() { FLAG_VALUE } else { FLAG_TOMBSTONE });
        self.file_bytes.extend_from_slice(&value_len.to_le_bytes());
        self.file_bytes.extend_from_slice(key);
        self.file_bytes.extend_from_slice(value.unwrap_or_default());
    }

    /// Writes the table (data + index + bloom) through `store` as one bulk
    /// append — PPB's classifier sees a large sequential write; at
    /// `io_depth > 1` the pages go out batched — and leaves the builder empty.
    ///
    /// # Errors
    ///
    /// Allocation and write errors pass through, with the pages reserved for
    /// the file returned to the allocator (the entries added so far are
    /// dropped either way). At least one entry must have been added.
    pub fn finish<F: FlashTranslationLayer>(
        &mut self,
        store: &mut FlashStore<F>,
        id: u64,
    ) -> Result<TableHandle, KvError> {
        assert!(!self.is_empty(), "tables are never built empty");
        let entries = self.hash_pairs.len();
        let mut bloom = BloomFilter::with_bits_per_key(entries, self.options.bloom_bits_per_key);
        for pair in self.hash_pairs.drain(..) {
            bloom.insert_hashed(pair);
        }
        let index = std::mem::take(&mut self.index);
        let data_len = self.file_bytes.len() as u64;
        self.file_bytes.extend_from_slice(&(index.len() as u32).to_le_bytes());
        for (key, offset) in &index {
            self.file_bytes.extend_from_slice(&(key.len() as u16).to_le_bytes());
            self.file_bytes.extend_from_slice(&offset.to_le_bytes());
            self.file_bytes.extend_from_slice(key);
        }
        let bloom_off = self.file_bytes.len() as u64;
        bloom.encode(&mut self.file_bytes);
        let mut file = SegmentFile::new();
        let request_bytes = u32::try_from(self.file_bytes.len()).unwrap_or(u32::MAX);
        let written = store.append(&mut file, &self.file_bytes, request_bytes);
        self.file_bytes.clear();
        let min_key = std::mem::take(&mut self.min_key);
        let max_key = std::mem::take(&mut self.max_key);
        if let Err(error) = written {
            store.delete(file);
            return Err(error);
        }
        let meta = TableMeta {
            id,
            file,
            entries: entries as u64,
            data_len,
            index_off: data_len,
            bloom_off,
            min_key,
            max_key,
        };
        Ok(TableHandle::open(meta, index, bloom))
    }
}

impl TableHandle {
    /// Builds a table from sorted, deduplicated entries: a [`TableBuilder`]
    /// fed the whole slice.
    ///
    /// # Errors
    ///
    /// Allocation and write errors pass through. `entries` must be non-empty
    /// and strictly sorted by key, and `options.sparse_index_interval` at
    /// least 1.
    pub fn build<F: FlashTranslationLayer>(
        store: &mut FlashStore<F>,
        id: u64,
        entries: &[Entry],
        options: TableOptions,
    ) -> Result<TableHandle, KvError> {
        let mut builder = TableBuilder::new(options);
        for (key, value) in entries {
            builder.add(key, value.as_deref());
        }
        builder.finish(store, id)
    }

    /// Reopens a table from its persisted metadata, reading the index and bloom
    /// sections back from the device (the crash-recovery path).
    ///
    /// # Errors
    ///
    /// [`KvError::Corruption`] when the section offsets are out of order or a
    /// section fails to decode; read errors pass through.
    pub fn recover<F: FlashTranslationLayer>(
        store: &mut FlashStore<F>,
        meta: TableMeta,
    ) -> Result<TableHandle, KvError> {
        if meta.index_off > meta.bloom_off || meta.bloom_off > meta.file.len() {
            return Err(KvError::Corruption("table section offsets out of order".to_string()));
        }
        let index_bytes = store.read_range(
            &meta.file,
            meta.index_off,
            (meta.bloom_off - meta.index_off) as usize,
        )?;
        let mut cursor = Cursor::new(index_bytes);
        let count = cursor.u32()? as usize;
        // Every index entry takes at least 10 bytes: a corrupt count cannot
        // reserve more than the section holds.
        let mut index = Vec::with_capacity(count.min(index_bytes.len() / 10));
        for _ in 0..count {
            let klen = cursor.u16()? as usize;
            let offset = cursor.u64()?;
            index.push((cursor.take(klen)?.to_vec(), offset));
        }
        let bloom_bytes = store.read_range(
            &meta.file,
            meta.bloom_off,
            (meta.file.len() - meta.bloom_off) as usize,
        )?;
        let bloom = BloomFilter::decode(bloom_bytes)?;
        Ok(TableHandle::open(meta, index, bloom))
    }

    /// A handle over its three parts, with the key prefixes worked out.
    fn open(meta: TableMeta, index: Vec<(Vec<u8>, u64)>, bloom: BloomFilter) -> Self {
        let bound_prefixes = (key_prefix(&meta.min_key), key_prefix(&meta.max_key));
        let index_prefixes = index.iter().map(|(key, _)| key_prefix(key)).collect();
        TableHandle { meta, bound_prefixes, index, index_prefixes, bloom }
    }

    /// The smallest key in the table.
    pub(crate) fn min_key(&self) -> KeyRef<'_> {
        KeyRef::with_prefix(self.bound_prefixes.0, &self.meta.min_key)
    }

    /// The largest key in the table.
    pub(crate) fn max_key(&self) -> KeyRef<'_> {
        KeyRef::with_prefix(self.bound_prefixes.1, &self.meta.max_key)
    }

    /// The index bucket that can contain `key` — the one of the last index
    /// key at or before it — or `None` when `key` sorts before the first.
    fn bucket_for(&self, key: KeyRef<'_>) -> Option<usize> {
        let through = partition_by_prefix(&self.index_prefixes, key.prefix(), |entry| {
            self.index[entry].0.as_slice() <= key.bytes()
        });
        through.checked_sub(1)
    }

    /// The data offsets `[start, end)` of index bucket `bucket`.
    fn bucket_span(&self, bucket: usize) -> (u64, u64) {
        let end = self.index.get(bucket + 1).map_or(self.meta.data_len, |(_, offset)| *offset);
        (self.index[bucket].1, end)
    }

    /// Checks what the lookups rely on: the bound and index prefixes are the
    /// prefixes of their keys, the index starts at the table's min key and
    /// ascends strictly in key and data offset.
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let id = self.meta.id;
        if self.bound_prefixes != (key_prefix(&self.meta.min_key), key_prefix(&self.meta.max_key)) {
            return Err(format!("table {id}: the bound prefixes are not its min/max keys'"));
        }
        if !self.index_prefixes.iter().copied().eq(self.index.iter().map(|(key, _)| key_prefix(key)))
        {
            return Err(format!("table {id}: the index prefixes are not the index keys'"));
        }
        if self.index.first().map(|(key, offset)| (key, *offset)) != Some((&self.meta.min_key, 0)) {
            return Err(format!("table {id}: the index does not start at the min key"));
        }
        let ascending = self.index.windows(2).all(|pair| pair[0].0 < pair[1].0 && pair[0].1 < pair[1].1);
        let last_in_bounds = self.index.last().is_some_and(|(key, offset)| {
            *key <= self.meta.max_key && *offset < self.meta.data_len
        });
        if !ascending || !last_in_bounds {
            return Err(format!("table {id}: the index is not strictly ascending within the table"));
        }
        Ok(())
    }

    /// Point lookup. Returns the entry (`Some(None)` is a tombstone) and how
    /// the table was probed. Keys are compared inside the bucket's borrowed
    /// bytes; only a found value is copied out.
    ///
    /// # Errors
    ///
    /// Read and decode errors pass through.
    pub fn get<F: FlashTranslationLayer>(
        &self,
        store: &mut FlashStore<F>,
        key: &[u8],
    ) -> Result<(Option<Option<Vec<u8>>>, TableProbe), KvError> {
        let mut value = Vec::new();
        let (found, probe) = self.probe(store, KeyRef::new(key), &mut value)?;
        Ok((found.map(|is_value| is_value.then_some(value)), probe))
    }

    /// [`TableHandle::get`] for a key whose prefix is known already (the
    /// store probes several tables with one key), writing a found value over
    /// `value` instead of into a new allocation.
    pub(crate) fn probe<F: FlashTranslationLayer>(
        &self,
        store: &mut FlashStore<F>,
        key: KeyRef<'_>,
        value: &mut Vec<u8>,
    ) -> Probed {
        if key < self.min_key() || key > self.max_key() {
            return Ok((None, TableProbe::RangeSkip));
        }
        if !self.bloom.contains(key.bytes()) {
            return Ok((None, TableProbe::BloomSkip));
        }
        let Some(bucket) = self.bucket_for(key) else {
            return Ok((None, TableProbe::Read));
        };
        let (start, end) = self.bucket_span(bucket);
        let bytes = store.read_range(&self.meta.file, start, (end - start) as usize)?;
        let mut at = 0usize;
        while let Some(((entry_key, found), consumed)) = decode_entry(bytes, at)? {
            match entry_key.cmp(key.bytes()) {
                Ordering::Less => at += consumed,
                Ordering::Equal => {
                    if let Some(found) = found {
                        value.clear();
                        value.extend_from_slice(found);
                    }
                    return Ok((Some(found.is_some()), TableProbe::Read));
                }
                Ordering::Greater => break,
            }
        }
        Ok((None, TableProbe::Read))
    }

    /// Charges the read of the whole data section and appends it to the open
    /// run of `runs` (compaction input) as the span it lies at. Nothing is
    /// decoded here: the merge that walks the run checks each entry as it
    /// reaches it.
    ///
    /// # Errors
    ///
    /// Read errors pass through; the run is untouched then.
    pub(crate) fn lend_entries<F: FlashTranslationLayer>(
        &self,
        store: &mut FlashStore<F>,
        runs: &mut RunSpans,
    ) -> Result<(), KvError> {
        let span = runs.read(store, &self.meta.file, 0, self.meta.data_len as usize)?;
        runs.push(span);
        Ok(())
    }

    /// Appends the entries with keys in `[lo, hi)`, in key order, to the open
    /// run of `runs`, reading index buckets lazily from the first candidate
    /// bucket until a key reaches `hi`: one span per bucket, narrowed to its
    /// rows in range.
    ///
    /// # Errors
    ///
    /// Read and decode errors pass through (the run may have grown by then).
    pub(crate) fn scan_between<F: FlashTranslationLayer>(
        &self,
        store: &mut FlashStore<F>,
        lo: KeyRef<'_>,
        hi: KeyRef<'_>,
        runs: &mut RunSpans,
    ) -> Result<(), KvError> {
        if lo >= hi || hi <= self.min_key() || lo > self.max_key() {
            return Ok(());
        }
        for bucket in self.bucket_for(lo).unwrap_or(0)..self.index.len() {
            let (start, end) = self.bucket_span(bucket);
            let span = runs.read(store, &self.meta.file, start, (end - start) as usize)?;
            let bytes = runs.lent(store).bytes(span);
            // The in-range entries of a bucket are contiguous: [from, at).
            let (mut from, mut at) = (0usize, 0usize);
            let mut reached_hi = false;
            while let Some(((key, _), consumed)) = decode_entry(bytes, at)? {
                let key = KeyRef::new(key);
                if key >= hi {
                    reached_hi = true;
                    break;
                }
                at += consumed;
                if key < lo {
                    from = at;
                }
            }
            runs.push(span.part(from, at));
            if reached_hi {
                break;
            }
        }
        Ok(())
    }
}

/// Decodes the data-section entry at `bytes[at..]` without copying it;
/// `Ok(None)` at the exact end of the buffer.
pub(crate) fn decode_entry(
    bytes: &[u8],
    at: usize,
) -> Result<Option<(EntryRef<'_>, usize)>, KvError> {
    if at == bytes.len() {
        return Ok(None);
    }
    let corrupt = || KvError::Corruption("truncated table entry".to_string());
    let rest = &bytes[at..];
    if rest.len() < ENTRY_HEADER_BYTES {
        return Err(corrupt());
    }
    let klen = u16::from_le_bytes(rest[0..2].try_into().unwrap()) as usize;
    let flag = rest[2];
    let vlen = u32::from_le_bytes(rest[3..7].try_into().unwrap()) as usize;
    let total = ENTRY_HEADER_BYTES + klen + vlen;
    if rest.len() < total || (flag == FLAG_TOMBSTONE && vlen != 0) || flag > FLAG_TOMBSTONE {
        return Err(corrupt());
    }
    let key = &rest[ENTRY_HEADER_BYTES..ENTRY_HEADER_BYTES + klen];
    let value = (flag == FLAG_VALUE).then(|| &rest[ENTRY_HEADER_BYTES + klen..total]);
    Ok(Some(((key, value), total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{MergeCursors, NewestWins};
    use vflash_ftl::{ConventionalFtl, FtlConfig};
    use vflash_nand::{NandConfig, NandDevice};

    fn store() -> FlashStore<ConventionalFtl> {
        let device = NandDevice::new(NandConfig::small());
        FlashStore::new(ConventionalFtl::new(device, FtlConfig::default()).unwrap())
    }

    /// A table's whole contents, decoded.
    fn entries_of(table: &TableHandle, store: &mut FlashStore<ConventionalFtl>) -> Vec<Entry> {
        let mut run = RunSpans::default();
        run.begin_run();
        table.lend_entries(store, &mut run).unwrap();
        decoded(&run, store)
    }

    /// A table's rows in `[lo, hi)`, decoded.
    fn scanned(
        table: &TableHandle,
        store: &mut FlashStore<ConventionalFtl>,
        lo: &[u8],
        hi: &[u8],
    ) -> Vec<Entry> {
        let mut run = RunSpans::default();
        run.begin_run();
        table.scan_between(store, KeyRef::new(lo), KeyRef::new(hi), &mut run).unwrap();
        decoded(&run, store)
    }

    fn decoded(run: &RunSpans, store: &FlashStore<ConventionalFtl>) -> Vec<Entry> {
        let lent = run.lent(store);
        NewestWins::new(run, &mut MergeCursors::default(), lent).unwrap().collect(lent).unwrap()
    }

    fn sample_entries(count: usize) -> Vec<Entry> {
        (0..count)
            .map(|i| {
                let key = format!("key{i:05}").into_bytes();
                let value = (i % 7 != 3).then(|| format!("value-{i}").into_bytes());
                (key, value)
            })
            .collect()
    }

    #[test]
    fn build_get_covers_hits_tombstones_and_misses() {
        let mut store = store();
        let entries = sample_entries(100);
        let table = TableHandle::build(&mut store, 1, &entries, TableOptions::default()).unwrap();
        assert_eq!(table.meta.entries, 100);
        for (key, value) in &entries {
            let (found, probe) = table.get(&mut store, key).unwrap();
            assert_eq!(found.as_ref(), Some(value), "{}", String::from_utf8_lossy(key));
            assert_eq!(probe, TableProbe::Read);
        }
        // Out of bounds: range skip, no device read.
        let reads_before = store.ftl().metrics().host_reads;
        let (miss, probe) = table.get(&mut store, b"zzz").unwrap();
        assert_eq!((miss, probe), (None, TableProbe::RangeSkip));
        assert_eq!(store.ftl().metrics().host_reads, reads_before);
        // In bounds but absent: bloom should usually skip; either way it is a miss.
        let (miss, _) = table.get(&mut store, b"key00042x").unwrap();
        assert_eq!(miss, None);
    }

    #[test]
    fn bloom_skips_most_absent_keys() {
        let mut store = store();
        let table = TableHandle::build(&mut store, 1, &sample_entries(200), TableOptions::default()).unwrap();
        let skipped = (0..200)
            .filter(|i| {
                let probe = table
                    .get(&mut store, format!("absent{i:05}").as_bytes())
                    .unwrap()
                    .1;
                probe == TableProbe::BloomSkip || probe == TableProbe::RangeSkip
            })
            .count();
        assert!(skipped > 150, "bloom filter skipped only {skipped}/200 absent keys");
    }

    #[test]
    fn recover_rebuilds_an_identical_handle() {
        let mut store = store();
        let entries = sample_entries(64);
        let table = TableHandle::build(&mut store, 9, &entries, TableOptions::default()).unwrap();
        let recovered = TableHandle::recover(&mut store, table.meta.clone()).unwrap();
        assert_eq!(recovered, table, "index + bloom must round-trip through flash");
        assert_eq!(entries_of(&recovered, &mut store), entries);
    }

    #[test]
    fn recover_refuses_section_offsets_out_of_order() {
        // The section lengths used to be computed unchecked, so these metas
        // panicked on the subtraction in debug builds.
        let mut store = store();
        let table = TableHandle::build(&mut store, 4, &sample_entries(32), TableOptions::default())
            .unwrap();
        let meta = table.meta;
        let beyond = meta.file.len() + 1;
        for damaged in [
            TableMeta { index_off: meta.bloom_off, bloom_off: meta.index_off, ..meta.clone() },
            TableMeta { index_off: beyond, bloom_off: beyond, ..meta.clone() },
            TableMeta { bloom_off: beyond, ..meta.clone() },
        ] {
            let (index_off, bloom_off) = (damaged.index_off, damaged.bloom_off);
            let outcome = TableHandle::recover(&mut store, damaged);
            assert!(
                matches!(outcome, Err(KvError::Corruption(_))),
                "index {index_off}, bloom {bloom_off}: {outcome:?}"
            );
        }
        assert!(TableHandle::recover(&mut store, meta).is_ok());
    }

    #[test]
    fn stride_one_indexes_every_entry_and_still_answers_correctly() {
        let mut store = store();
        let entries = sample_entries(50);
        let options = TableOptions { sparse_index_interval: 1, ..TableOptions::default() };
        let table = TableHandle::build(&mut store, 3, &entries, options).unwrap();
        assert_eq!(table.index.len(), 50, "stride 1 puts every entry in the index");
        for (key, value) in &entries {
            assert_eq!(table.get(&mut store, key).unwrap().0.as_ref(), Some(value));
        }
        assert_eq!(table.get(&mut store, b"key00000a").unwrap().0, None);
        // Stride-1 single-entry buckets round-trip through recovery too.
        let recovered = TableHandle::recover(&mut store, table.meta.clone()).unwrap();
        assert_eq!(recovered, table);
        assert_eq!(entries_of(&recovered, &mut store), entries);
        assert_eq!(scanned(&recovered, &mut store, b"key00010", b"key00020"), entries[10..20]);
    }

    #[test]
    fn single_entry_table_round_trips_at_every_stride() {
        for stride in [1usize, 2, 16, 1000] {
            let mut store = store();
            let entries = sample_entries(1);
            let options = TableOptions { sparse_index_interval: stride, ..TableOptions::default() };
            let table = TableHandle::build(&mut store, 1, &entries, options).unwrap();
            assert_eq!(table.index.len(), 1, "the first entry is always indexed");
            let (found, probe) = table.get(&mut store, &entries[0].0).unwrap();
            assert_eq!(found.as_ref(), Some(&entries[0].1));
            assert_eq!(probe, TableProbe::Read);
            let recovered = TableHandle::recover(&mut store, table.meta.clone()).unwrap();
            assert_eq!(entries_of(&recovered, &mut store), entries);
        }
    }

    #[test]
    fn tiny_tables_and_tiny_bloom_budgets_stay_correct() {
        // A very small table at a very small bloom budget: the 64-bit filter
        // floor and the >= 1 hash floor keep it functional (no false
        // negatives), whatever the bits/key.
        for bits in [1usize, 2, 10, 24] {
            let mut store = store();
            let entries = sample_entries(3);
            let options = TableOptions { bloom_bits_per_key: bits, ..TableOptions::default() };
            let table = TableHandle::build(&mut store, 1, &entries, options).unwrap();
            for (key, value) in &entries {
                assert_eq!(
                    table.get(&mut store, key).unwrap().0.as_ref(),
                    Some(value),
                    "bloom filters must never produce false negatives (bits={bits})"
                );
            }
            let recovered = TableHandle::recover(&mut store, table.meta.clone()).unwrap();
            assert_eq!(recovered, table, "self-describing encoding recovers at any budget");
        }
    }

    #[test]
    fn higher_bloom_budgets_probe_with_more_hashes() {
        let few = BloomFilter::with_bits_per_key(100, 1);
        let default = BloomFilter::with_bits_per_key(100, 10);
        let many = BloomFilter::with_bits_per_key(100, 24);
        assert_eq!(few.hashes, 1, "the hash count never drops below one");
        assert_eq!(default.hashes, 6, "10 bits/key keeps the historical 6 probes");
        assert_eq!(many.hashes, 16);
        assert_eq!(BloomFilter::with_capacity(100), default);
    }

    #[test]
    fn keys_that_tie_in_their_prefix_are_found_and_scanned_exactly() {
        // Nested keys, zero padding, shared eight-byte heads: every prefix
        // comparison that can tie does, at one, three and sixteen per bucket.
        // Every second key is stored; the others are absent neighbours.
        let keys = crate::key::tricky_keys();
        let entries: Vec<Entry> = keys
            .iter()
            .step_by(2)
            .enumerate()
            .map(|(i, key)| (key.clone(), (i % 5 != 0).then(|| vec![i as u8; i])))
            .collect();
        for stride in [1usize, 3, 16] {
            let mut store = store();
            let options = TableOptions { sparse_index_interval: stride, ..TableOptions::default() };
            let table = TableHandle::build(&mut store, 1, &entries, options).unwrap();
            assert_eq!(table.check_invariants(), Ok(()));
            for key in &keys {
                let stored = entries.iter().find(|(entry_key, _)| entry_key == key);
                let found = table.get(&mut store, key).unwrap().0;
                assert_eq!(found.as_ref(), stored.map(|(_, value)| value), "{key:?} at stride {stride}");
            }
            for lo in &keys {
                for hi in &keys {
                    let expected: Vec<Entry> = entries
                        .iter()
                        .filter(|(key, _)| lo <= key && key < hi)
                        .cloned()
                        .collect();
                    assert_eq!(scanned(&table, &mut store, lo, hi), expected, "{lo:?}..{hi:?}");
                }
            }
        }
    }

    #[test]
    fn scan_range_matches_a_filtered_full_read() {
        let mut store = store();
        let entries = sample_entries(120);
        let table = TableHandle::build(&mut store, 2, &entries, TableOptions::default()).unwrap();
        let lo = b"key00017".to_vec();
        let hi = b"key00093".to_vec();
        let expected: Vec<Entry> = entries
            .iter()
            .filter(|(key, _)| key >= &lo && key < &hi)
            .cloned()
            .collect();
        assert_eq!(scanned(&table, &mut store, &lo, &hi), expected);
        assert!(scanned(&table, &mut store, &hi, &lo).is_empty());
        assert_eq!(
            scanned(&table, &mut store, b"", b"~"),
            entries,
            "an all-covering range returns every entry"
        );
    }
}
