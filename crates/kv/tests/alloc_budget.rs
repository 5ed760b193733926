//! Allocation budget of the KV hot paths, counted — not timed — so it holds on
//! any machine: reads lend what they find, so a `get` — answered by bounds
//! checks and bloom filters, by a table or by the memtable — and a `scan`
//! allocate nothing once the store's buffers have grown to their rows, and a
//! non-flushing `put` allocates its key, its value and an amortised B-tree
//! node. The shadow bytes under them are one arena: a `FlashStore` makes the
//! same few allocations whatever the device size, and none per page written
//! or per multi-page range read later. A compaction merges its inputs where
//! the arena holds them: what it allocates is its output tables' handles, a
//! fraction of the bytes it reads, in a number of pieces that follows the
//! tables, not the entries.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vflash_ftl::{ConventionalFtl, FtlConfig};
use vflash_kv::{FlashStore, KvConfig, KvStore, LookupSource, SegmentFile};
use vflash_nand::{NandConfig, NandDevice};

thread_local! {
    /// Allocations (and growing reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// The bytes they asked for (a reallocation counts its whole new size).
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    let _ = ALLOCATED_BYTES.try_with(|count| count.set(count.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: `ptr` and `layout` describe a live `System` allocation, as
        // the caller guarantees for this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `work` runs.
fn allocations_during<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let ((allocations, _), result) = allocated_during(work);
    (allocations, result)
}

/// Allocations this thread makes while `work` runs, and their bytes.
fn allocated_during<T>(work: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = (ALLOCATIONS.with(Cell::get), ALLOCATED_BYTES.with(Cell::get));
    let result = work();
    let after = (ALLOCATIONS.with(Cell::get), ALLOCATED_BYTES.with(Cell::get));
    ((after.0 - before.0, after.1 - before.1), result)
}

fn key(i: u64) -> [u8; 8] {
    i.to_be_bytes()
}

fn ftl(blocks: usize) -> ConventionalFtl {
    let device = NandDevice::new(
        NandConfig::builder()
            .chips(1)
            .blocks_per_chip(blocks)
            .pages_per_block(64)
            .page_size_bytes(4096)
            .build()
            .unwrap(),
    );
    ConventionalFtl::new(device, FtlConfig::default()).unwrap()
}

#[test]
fn the_shadow_arena_is_allocated_once_not_page_by_page() {
    let (small, large) = (ftl(16), ftl(64));
    let (for_small, _) = allocations_during(|| FlashStore::new(small));
    let (for_large, mut store) = allocations_during(|| FlashStore::new(large));
    assert_eq!(for_small, for_large, "a store's allocations do not grow with the device");
    // The store's own three — arena, written bitmap, free list — and the six
    // of the lane it plays its pages through, fixed per store: the chip
    // clocks, the chips' busy times at its start, four latency histograms.
    assert!(for_large <= 9, "three of the store's, six of its lane's: {for_large}");

    let page = store.page_size();
    let mut file = SegmentFile::new();
    store.reserve(&mut file, 193).unwrap();
    store.append(&mut file, &vec![1u8; page], page as u32).unwrap(); // the FTL's first block
    let data = vec![0xA5u8; 64 * page];
    let (allocations, ()) =
        allocations_during(|| store.append(&mut file, &data, data.len() as u32).unwrap());
    assert_eq!(allocations, 0, "64 pages written for the first time");
    // A range over several pages of one extent is lent, not assembled.
    let (allocations, lent) =
        allocations_during(|| store.read_range(&file, page as u64 + 100, 3 * page).unwrap().len());
    assert_eq!((allocations, lent), (0, 3 * page));

    // Deeper, a queue-depth window is one `submit_batch`, and the completions
    // it returns are all a window allocates: four windows of 16 pages, then
    // one of three.
    store.set_io_depth(16);
    store.append(&mut file, &data, data.len() as u32).unwrap(); // grows the reused buffers
    let (allocations, ()) =
        allocations_during(|| store.append(&mut file, &data, data.len() as u32).unwrap());
    assert_eq!(allocations, 4, "64 pages in windows of 16");
    let (allocations, lent) =
        allocations_during(|| store.read_range(&file, page as u64 + 100, 3 * page).unwrap().len());
    assert_eq!((allocations, lent), (1, 3 * page));
}

#[test]
fn hot_paths_stay_within_their_allocation_budget() {
    let mut kv = KvStore::open(FlashStore::new(ftl(64)), KvConfig::default()).unwrap();

    // Warm the store: even keys only, through several flushes and a
    // compaction, then everything out of the memtable.
    let value = [0x5Au8; 256];
    for i in 0..3_000u64 {
        kv.put(&key(2 * i), &value).unwrap();
    }
    kv.flush().unwrap();
    assert!(kv.stats().compactions > 0, "the warm-up must reach the levelled tables");

    // A get that no table has to be read for: past every table's key range,
    // or absent and refused by every bloom filter it meets.
    let mut skipped = 0;
    for i in (0..3_000u64).map(|i| 2 * i + 1).chain([u64::MAX]) {
        let reads_before = kv.stats().table_reads;
        let (allocations, lookup) = allocations_during(|| kv.get(&key(i)).unwrap());
        assert_eq!(lookup.value, None);
        if kv.stats().table_reads == reads_before {
            assert_eq!(allocations, 0, "a get answered by range/bloom skips (key {i})");
            skipped += 1;
        }
    }
    assert!(skipped > 2_000, "bloom filters skipped only {skipped} of 3001 absent keys");

    // An SSTable hit is copied into the store's buffer, which the first hit
    // sizes.
    kv.get(&key(0)).unwrap();
    for i in (0..3_000u64).step_by(7) {
        let (allocations, lookup) = allocations_during(|| kv.get(&key(2 * i)).unwrap());
        assert_eq!(lookup.source, LookupSource::SsTable);
        assert_eq!(lookup.value, Some(&value[..]));
        assert_eq!(allocations, 0, "an SSTable hit of key {}", 2 * i);
    }

    // Non-flushing puts: small values, so 1,000 of them stay under the
    // memtable threshold and no table is built inside the window.
    kv.put(&key(1), b"warm the WAL record buffer").unwrap();
    let flushes_before = kv.stats().flushes;
    let (allocations, ()) = allocations_during(|| {
        for i in 0..1_000u64 {
            kv.put(&key(2 * i + 1), b"sixteen byte val").unwrap();
        }
    });
    assert_eq!(kv.stats().flushes, flushes_before, "the window must not flush");
    assert!(
        allocations <= 4_000,
        "1,000 non-flushing puts made {allocations} allocations (budget: 4 each)"
    );

    // A memtable hit lends the memtable's entry.
    for i in (0..1_000u64).step_by(7) {
        let (allocations, lookup) = allocations_during(|| kv.get(&key(2 * i + 1)).unwrap());
        assert_eq!(lookup.source, LookupSource::Memtable);
        assert_eq!(lookup.value, Some(&b"sixteen byte val"[..]));
        assert_eq!(allocations, 0, "a memtable hit of key {}", 2 * i + 1);
    }

    // A scan of 20 keys, every other one in the memtable and the rest in the
    // tables, refills the row slots a first scan of as many rows laid out
    // alike left behind.
    let row_lengths = |rows: &[(Vec<u8>, Vec<u8>)]| {
        rows.iter().map(|(key, value)| (key.len(), value.len())).collect::<Vec<_>>()
    };
    let warm_up = row_lengths(kv.scan(&key(100), &key(120)).unwrap());
    for lo in [200u64, 1_000, 1_978] {
        let (allocations, rows) = allocations_during(|| kv.scan(&key(lo), &key(lo + 20)).unwrap());
        assert_eq!(row_lengths(rows), warm_up);
        assert!(rows.iter().map(|(key, _)| key.as_slice()).eq((lo..lo + 20).map(key)));
        assert_eq!(allocations, 0, "a 20-row scan from key {lo}");
    }
}

#[test]
fn a_compaction_allocates_for_its_outputs_not_for_its_inputs() {
    // At a trigger of two, every table is built in one extent: each
    // compaction frees everything below its outputs, and neither of the two
    // flushes that follow meets the one-page hole a freed manifest leaves
    // (the third would: its L0 table would start in that hole, cross into a
    // second extent and be gathered into the spill buffer instead of lent).
    let config = KvConfig { l0_compaction_trigger: 2, ..KvConfig::default() };
    let mut kv = KvStore::open(FlashStore::new(ftl(64)), config).unwrap();
    let value = [0xC3u8; 256];
    let tables_at = |kv: &KvStore<ConventionalFtl>, level: usize| {
        kv.layout().into_iter().filter(|table| table.level == level).collect::<Vec<_>>()
    };
    // Fill until the next flush is the third L0 -> L1 compaction: an L1 of two
    // tables is there to merge into and the builder's image has its size.
    let mut next_key = 0u64;
    let mut put_next = |kv: &mut KvStore<ConventionalFtl>| {
        kv.put(&key(next_key), &value).unwrap();
        next_key += 1;
    };
    while !(kv.stats().compactions == 2 && tables_at(&kv, 0).len() == 1) {
        put_next(&mut kv);
    }
    let memtable_rows = 200;
    for _ in 0..memtable_rows {
        put_next(&mut kv);
    }
    assert_eq!((kv.stats().compactions, tables_at(&kv, 0).len()), (2, 1));
    let inputs: Vec<_> = tables_at(&kv, 0).into_iter().chain(tables_at(&kv, 1)).collect();
    let input_entries = inputs.iter().map(|table| table.entries).sum::<u64>() + memtable_rows;
    let input_bytes =
        inputs.iter().map(|table| table.data_len).sum::<u64>() + memtable_rows * (7 + 8 + 256);

    let ((allocations, bytes), ()) = allocated_during(|| kv.flush().unwrap());
    assert_eq!(kv.stats().compactions, 3, "the measured flush compacted");
    assert!(tables_at(&kv, 0).is_empty());
    let outputs = tables_at(&kv, 1).len() as u64;
    assert!(input_entries > 1_000 && outputs >= 3, "{input_entries} entries, {outputs} tables");
    assert!(
        bytes < input_bytes / 4,
        "a flush with an L0 -> L1 compaction of {input_bytes} input bytes allocated {bytes}"
    );
    // Per table written — the L0 table and the outputs: the handle's key
    // bounds, bloom words, sparse index and its prefixes, the file's extent
    // list; per 16 entries, one index key. Nothing per entry.
    let sparse_keys = input_entries.div_ceil(config.sparse_index_interval as u64) + outputs + 1;
    assert!(
        allocations <= sparse_keys + 16 * (outputs + 1) + 16,
        "{allocations} allocations for {input_entries} entries in {outputs} tables"
    );
}
