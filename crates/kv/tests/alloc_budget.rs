//! Allocation budget of the KV hot paths, counted — not timed — so it holds on
//! any machine: a `get` that bounds checks and bloom filters answer allocates
//! nothing, an SSTable hit allocates only the value it returns, and a
//! non-flushing `put` allocates its key, its value and an amortised B-tree
//! node. The shadow bytes under them are one arena: a `FlashStore` makes the
//! same few allocations whatever the device size, and none per page written
//! or per multi-page range read later.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vflash_ftl::{ConventionalFtl, FtlConfig};
use vflash_kv::{FlashStore, KvConfig, KvStore, LookupSource, SegmentFile};
use vflash_nand::{NandConfig, NandDevice};

thread_local! {
    /// Allocations (and growing reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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
    let before = ALLOCATIONS.with(Cell::get);
    let result = work();
    (ALLOCATIONS.with(Cell::get) - before, result)
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
    assert!(for_large <= 3, "arena, written bitmap, free list: {for_large}");

    let page = store.page_size();
    let mut file = SegmentFile::new();
    store.reserve(&mut file, 65).unwrap();
    store.append(&mut file, &vec![1u8; page], page as u32).unwrap(); // the FTL's first block
    let data = vec![0xA5u8; 64 * page];
    let (allocations, ()) =
        allocations_during(|| store.append(&mut file, &data, data.len() as u32).unwrap());
    assert_eq!(allocations, 0, "64 pages written for the first time");
    // A range over several pages of one extent is lent, not assembled.
    let (allocations, lent) =
        allocations_during(|| store.read_range(&file, page as u64 + 100, 3 * page).unwrap().len());
    assert_eq!((allocations, lent), (0, 3 * page));
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

    // An SSTable hit: the returned value is the one allocation.
    for i in (0..3_000u64).step_by(7) {
        let (allocations, lookup) = allocations_during(|| kv.get(&key(2 * i)).unwrap());
        assert_eq!(lookup.source, LookupSource::SsTable);
        assert_eq!(lookup.value.as_deref(), Some(&value[..]));
        assert_eq!(allocations, 1, "an SSTable hit of key {}", 2 * i);
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
}
