//! Allocation budget of the replay hot paths, counted — not timed — so it holds on
//! any machine: once an FTL's buffers have grown, `submit` allocates nothing — not
//! for a host read, not for a host write, not for a write that carries a whole
//! garbage-collection episode — and a `WorkloadDriver` run allocates a fixed number
//! of times however many requests it replays.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vflash_ftl::{ConventionalFtl, FlashTranslationLayer, FtlConfig, IoRequest, Lpn};
use vflash_nand::{NandConfig, NandDevice};
use vflash_ppb::{PpbConfig, PpbFtl};
use vflash_sim::{RunOptions, WorkloadDriver};
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

fn device() -> NandDevice {
    NandDevice::new(
        NandConfig::builder()
            .chips(2)
            .blocks_per_chip(64)
            .pages_per_block(32)
            .page_size_bytes(4096)
            .build()
            .unwrap(),
    )
}

/// Both FTLs on the same geometry, with the spare capacity a full-space overwrite
/// workload needs.
fn ftls() -> (ConventionalFtl, PpbFtl) {
    let ftl = FtlConfig { over_provisioning: 0.25 };
    (
        ConventionalFtl::new(device(), ftl).unwrap(),
        PpbFtl::new(device(), PpbConfig { ftl, ..PpbConfig::default() }).unwrap(),
    )
}

/// A deterministic scramble of `0..modulus` (any odd multiplier works for the
/// power-of-two-free sizes used here; repeats are harmless).
fn scrambled(step: u64, modulus: u64) -> u64 {
    step.wrapping_mul(0x9e37_79b9_7f4a_7c15) % modulus
}

/// Ages `ftl` until garbage collection is routine, then asserts that reads,
/// GC-free writes and GC-carrying writes all submit without allocating.
fn assert_steady_state_submit_does_not_allocate<F: FlashTranslationLayer>(ftl: &mut F) {
    let logical = ftl.logical_pages();
    // Hot small writes, cold large ones and reads, over the whole space, four
    // times over: every table, queue and scratch buffer reaches its working size.
    let request = |step: u64| {
        let lpn = Lpn(scrambled(step, logical));
        match step % 4 {
            0 => IoRequest::read(lpn),
            1 => IoRequest::write(lpn, 512),
            _ => IoRequest::write(lpn, 256 * 1024),
        }
    };
    for lpn in 0..logical {
        ftl.submit(IoRequest::write(Lpn(lpn), 256 * 1024)).unwrap();
    }
    for step in 0..4 * logical {
        ftl.submit(request(step)).unwrap();
    }
    assert!(ftl.metrics().gc_erased_blocks > 0, "{}: the warm-up must reach GC", ftl.name());

    let (mut reads, mut plain_writes, mut gc_writes) = (0u64, 0u64, 0u64);
    for step in 4 * logical..6 * logical {
        let request = request(step);
        let (allocations, completion) = allocations_during(|| ftl.submit(request).unwrap());
        let kind = if !request.is_write() {
            reads += 1;
            "read"
        } else if completion.gc.erased_blocks == 0 {
            plain_writes += 1;
            "GC-free write"
        } else {
            assert!(completion.gc.copied_pages > 0 || completion.gc.erased_blocks > 0);
            gc_writes += 1;
            "GC-carrying write"
        };
        assert_eq!(allocations, 0, "{}: a steady-state {kind} allocated (step {step})", ftl.name());
    }
    assert!(reads > 0 && plain_writes > 0 && gc_writes > 10, "{reads}/{plain_writes}/{gc_writes}");
}

#[test]
fn steady_state_submit_allocates_nothing_on_either_ftl() {
    let (mut conventional, mut ppb) = ftls();
    assert_steady_state_submit_does_not_allocate(&mut conventional);
    assert_steady_state_submit_does_not_allocate(&mut ppb);
}

fn web_sql(requests: usize) -> Trace {
    synthetic::web_sql_server(SyntheticConfig {
        requests,
        seed: 7,
        working_set_bytes: 8 << 20,
        ..Default::default()
    })
}

/// Allocations of one closed-loop QD-1 replay of `trace` on an FTL that has
/// already replayed it once (so nothing in the FTL is still growing).
fn replay_allocations<F: FlashTranslationLayer>(ftl: &mut F, trace: &Trace) -> u64 {
    let driver = WorkloadDriver::closed_loop(RunOptions::default(), 1);
    driver.run_mut(ftl, trace).unwrap();
    assert!(ftl.metrics().gc_erased_blocks > 0, "{}: the replay must reach GC", ftl.name());
    allocations_during(|| driver.run_mut(ftl, trace).unwrap()).0
}

#[test]
fn a_replay_allocates_the_same_however_many_requests_it_drives() {
    let (short, long) = (web_sql(5_000), web_sql(20_000));
    let (mut conventional, mut ppb) = ftls();
    // The long trace first: it ages each FTL for both measurements.
    let long_runs = [
        replay_allocations(&mut conventional, &long),
        replay_allocations(&mut ppb, &long),
    ];
    let short_runs = [
        replay_allocations(&mut conventional, &short),
        replay_allocations(&mut ppb, &short),
    ];
    // Per run, not per request: the prefill bitmap, the lane's histograms and
    // chip snapshots, and the summary.
    assert_eq!(long_runs, [REPLAY_ALLOCATIONS; 2], "20k requests");
    assert_eq!(short_runs, [REPLAY_ALLOCATIONS; 2], "5k requests");
}

/// What one `WorkloadDriver::run_mut` allocates at closed-loop depth 1.
const REPLAY_ALLOCATIONS: u64 = 11;
