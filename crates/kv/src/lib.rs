//! vflash-kv: an LSM key-value store running on the simulated flash device.
//!
//! The crate stacks a small-but-real log-structured merge tree on top of the
//! workspace's FTL simulators, so application-level behavior (WAL appends,
//! memtable flushes, compaction) becomes real device traffic — queueing, GC
//! attribution, fault injection and end-of-life behavior included:
//!
//! ```text
//!  put/delete ──▶ WAL append ──▶ memtable ──▶ flush ──▶ L0 table ─┐
//!                                                                 ▼
//!       get/scan ◀── memtable + bloom/index probes ◀── leveled SSTables
//!                                                                 │
//!        FlashFile appends/reads ◀── compaction merges ◀──────────┘
//!                       │
//!                       ▼
//!          IoRequest per page ──▶ ConventionalFtl / PpbFtl ──▶ NAND timing
//! ```
//!
//! A read locates instead of walking: memtable, then every L0 table newest
//! first (their key ranges overlap), then **one** table per deeper level — the
//! first whose max key reaches the probe, found by binary search over the
//! level's fences — and inside a table the bounds check, the bloom filter, a
//! binary search of the sparse index and one index bucket, which the
//! [`FlashStore`] lends as a slice of its shadow arena. A scan reads, per
//! deeper level, exactly the tables its range overlaps. Keys are compared as
//! integers first: the first eight bytes, big-endian, kept in contiguous
//! arrays beside the fences, the table bounds and the sparse index; full keys
//! are compared only where those prefixes tie. None of this is visible in
//! simulated time — every probe that reaches a bloom filter or the device is
//! the same probe, in the same order, as a walk over every table would make.
//!
//! Compaction and scans merge in place, too: their reads are charged table by
//! table in a fixed order and the rows then stay where the arena holds them —
//! the newest-wins merge walks byte spans, decodes each entry once and hands
//! the table builder slices between two table writes; only an input that
//! crosses an extent boundary of its file is gathered into a spill buffer.
//!
//! Every byte of persistence goes through [`FlashStore`]: append-only
//! [`SegmentFile`]s mapped onto LPN extents, one `IoRequest` per page touched —
//! played through the device's lane of the timing core
//! (`vflash_sim::LaneState`, the store's only clock): one at a time at
//! [`KvConfig::io_depth`] 1, or in windows of up to `io_depth` pages, one
//! `submit_batch` each, whose pages overlap on the lane's chip clocks.
//! The request sizes passed down are the application's real write sizes, so
//! PPB's size-based hotness classifier sees WAL appends as small (hot) writes
//! and bulk table builds as large (cold) ones — the exact workload contrast the
//! paper's placement policy is built around. Once a worn-out device turns
//! read-only, writes surface as [`KvError::ReadOnly`] at the KV API.
//!
//! A KV run is a `vflash_sim::RunSpec` whose source is a
//! `TraceSource::Kv`: [`run_kv_cell`] executes it on the spec's FTL with one
//! fixed zipf-skewed mix (40/50/5/5 put/get/delete/scan, [`VALUE_BYTES`]-byte
//! values, exponent [`ZIPF_S`]) and reports application-level latency
//! percentiles split into memtable-hit / sstable-read / compaction-stall
//! components, plus the three write amplification factors (app × FTL =
//! end-to-end).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod error;
mod flash_file;
mod hash;
mod key;
mod level;
mod memtable;
mod merge;
mod sstable;
mod store;
mod wal;

pub use cell::{run_kv_cell, KvRunSummary, VALUE_BYTES, ZIPF_S};
pub use error::KvError;
pub use flash_file::{Extent, FlashStore, SegmentFile, SUPERBLOCK_LPN};
pub use memtable::Memtable;
pub use sstable::{
    BloomFilter, Entry, TableBuilder, TableHandle, TableMeta, TableOptions, TableProbe,
};
pub use store::{
    KvConfig, KvStats, KvStore, Lookup, LookupSource, TableLayout, WriteAmplification,
    WriteReceipt,
};
pub use wal::{Wal, WalOp};
