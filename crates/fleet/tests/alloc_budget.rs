//! Allocation budget of the fleet drive loop, counted — not timed — so it holds
//! on any machine. With the cache off a fleet replay allocates per run, not
//! per request: a fixed count, the same at any trace length — the QoS
//! dispatch order streams from per-tenant cursors. The writeback cache adds
//! its own tables and the buffer its dirty-ratio flushes lend their victims
//! from — per run as well, though the flushes grow with the requests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// `FleetDriver`, the re-exported `WorkloadDriver`, keeps its old name compiled.
use vflash_fleet::{CacheConfig, Fleet, FleetConfig, FleetDriver, TenantWeight};
use vflash_ftl::{ConventionalFtl, FlashTranslationLayer, FtlConfig};
use vflash_nand::{NandConfig, NandDevice};
use vflash_ppb::{PpbConfig, PpbFtl};
use vflash_sim::RunOptions;
use vflash_trace::synthetic::{self, SyntheticConfig};
use vflash_trace::Trace;

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

const WIDTH: usize = 4;

/// One lane: 12 MiB raw, 9 MiB logical — a quarter of the 32 MiB working set
/// with room to spare, and little enough spare that overwrites reach GC.
fn device() -> NandDevice {
    NandDevice::new(
        NandConfig::builder()
            .chips(2)
            .blocks_per_chip(48)
            .pages_per_block(32)
            .page_size_bytes(4096)
            .build()
            .unwrap(),
    )
}

fn fleet<F: FlashTranslationLayer>(make: impl Fn() -> F, cache: Option<CacheConfig>) -> Fleet<F> {
    let tenants = vec![TenantWeight::new("gold", 3), TenantWeight::new("bronze", 1)];
    Fleet::new((0..WIDTH).map(|_| make()).collect(), FleetConfig { cache, tenants })
}

fn conventional() -> ConventionalFtl {
    let ftl = FtlConfig { over_provisioning: 0.25 };
    ConventionalFtl::new(device(), ftl).unwrap()
}

fn ppb() -> PpbFtl {
    let ftl = FtlConfig { over_provisioning: 0.25 };
    PpbFtl::new(device(), PpbConfig { ftl, ..PpbConfig::default() }).unwrap()
}

/// 8192 pages of working set: twice the default cache's 4096.
fn web_sql(requests: usize) -> Trace {
    synthetic::web_sql_server(SyntheticConfig {
        requests,
        seed: 7,
        working_set_bytes: 32 << 20,
        ..Default::default()
    })
}

/// Allocations of one closed-loop QD-32 replay of `trace` on a fleet that has
/// already replayed it twice, beside the dirty-ratio flushes that replay made.
/// Two warm-ups, because each device's op arena grows to the longest GC burst
/// it has traced: at 5k requests one replay leaves it a doubling short.
fn replay_allocations<F: FlashTranslationLayer>(fleet: &mut Fleet<F>, trace: &Trace) -> (u64, u64) {
    let driver = FleetDriver::closed_loop(RunOptions::default(), 32);
    for _ in 0..2 {
        driver.run_mut(fleet, trace).unwrap();
    }
    let (allocations, summary) = allocations_during(|| driver.run_mut(fleet, trace).unwrap());
    assert_eq!(summary.host_requests, trace.len() as u64);
    assert!(
        fleet.lanes().iter().any(|lane| lane.metrics().gc_erased_blocks > 0),
        "the replays must reach GC"
    );
    (allocations, summary.cache.flushes)
}

/// `[conventional, ppb]` lanes, each as `(allocations, flushes)`.
fn both_ftls(cache: Option<CacheConfig>, trace: &Trace) -> [(u64, u64); 2] {
    [
        replay_allocations(&mut fleet(conventional, cache), trace),
        replay_allocations(&mut fleet(ppb, cache), trace),
    ]
}

#[test]
fn an_uncached_fleet_run_allocates_per_run_not_per_request() {
    // Four times the requests cost not one allocation more: the dispatch
    // order streams from one cursor per tenant, where it used to collect the
    // trace's permutation and grow a FIFO per tenant. Everything — the
    // prefill's bitmap (one over the fleet's pages, not one per lane), the
    // dispatch cursors, lane states, histograms, calendar, scratch and the
    // summary — is per run.
    assert_eq!(both_ftls(None, &web_sql(5_000)), [(63, 0); 2], "5k requests");
    assert_eq!(both_ftls(None, &web_sql(20_000)), [(63, 0); 2], "20k requests");
}

#[test]
fn a_cached_fleet_run_allocates_per_run_not_per_flush() {
    // The uncached run's allocations plus the cache's own: its two LRU tables
    // and the buffer every dirty-ratio flush lends its victims from. A
    // thousand flushes or eight thousand, the count is the uncached run's
    // plus five to seven.
    let cache = Some(CacheConfig::default());
    assert_eq!(both_ftls(cache, &web_sql(5_000)), [(68, 1126); 2], "5k requests");
    assert_eq!(both_ftls(cache, &web_sql(20_000)), [(68, 7827), (70, 7827)], "20k requests");
}
