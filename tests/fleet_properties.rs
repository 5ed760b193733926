//! Property-based tests of the host tier: the stripe map is a bijection, the
//! writeback cache keeps its residency/dirtiness/coherence invariants under
//! arbitrary op sequences, weighted-share QoS is work-conserving,
//! weight-monotone and streams the per-tenant-FIFO order, and fleet grid runs
//! are bit-identical across `ParallelRunner` worker counts.

use std::collections::VecDeque;

use proptest::prelude::*;

use vflash::fleet::{
    run_fleet_cell, CacheConfig, CacheStats, Fleet, FleetConfig, FleetSummary,
    StripeMap, TenantWeight, WeightedShares, WritebackCache, dispatch_order,
};
use vflash::ftl::{ConventionalFtl, FlashTranslationLayer, FtlConfig, FtlError};
use vflash::nand::{FaultConfig, NandConfig, NandDevice};
use vflash::ppb::{PpbConfig, PpbFtl};
use vflash::sim::experiments::ExperimentScale;
use vflash::sim::{ArrivalDiscipline, ExperimentGrid, ParallelRunner, RunOptions, WorkloadDriver};
use vflash::trace::synthetic::{self, ArrivalModel, SyntheticConfig};
use vflash::trace::{IoOp, IoRequest, Trace};

// ---------------------------------------------------------------------------
// Stripe map
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `locate` and `fleet_lpn` are exact inverses over the whole keyspace:
    /// every fleet LPN round-trips, and so does every `(lane, offset)` pair.
    #[test]
    fn stripe_map_round_trips(
        width in 1usize..9,
        lane_pages in 1u64..2_000,
        probe in 0u64..1_000_000,
    ) {
        let map = StripeMap::new(width, lane_pages);
        prop_assert_eq!(map.fleet_pages(), width as u64 * lane_pages);

        let fleet_lpn = probe % map.fleet_pages();
        let (lane, offset) = map.locate(fleet_lpn);
        prop_assert!(lane < width);
        prop_assert!(offset < lane_pages);
        prop_assert_eq!(map.fleet_lpn(lane, offset), fleet_lpn);

        // The inverse direction: an arbitrary in-range pair names exactly one
        // fleet LPN that locates back to it.
        let lane = (probe as usize) % width;
        let offset = (probe / 7) % lane_pages;
        prop_assert_eq!(map.locate(map.fleet_lpn(lane, offset)), (lane, offset));
    }

    /// Consecutive fleet LPNs land on consecutive lanes — the round-robin
    /// interleave the fan-out effect depends on.
    #[test]
    fn stripe_map_interleaves_round_robin(
        width in 1usize..9,
        lane_pages in 1u64..2_000,
        lpn in 0u64..1_000_000,
    ) {
        let map = StripeMap::new(width, lane_pages);
        let lpn = lpn % map.fleet_pages();
        let (lane, _) = map.locate(lpn);
        prop_assert_eq!(lane, (lpn % width as u64) as usize);
    }
}

// ---------------------------------------------------------------------------
// Writeback cache
// ---------------------------------------------------------------------------

/// A compact encoding of one cache operation for proptest generation.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Write(u64),
    Read(u64),
    WriteAround(u64),
    Flush,
}

fn arb_cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..16).prop_map(CacheOp::Write),
            (0u64..16).prop_map(CacheOp::Read),
            (0u64..16).prop_map(CacheOp::WriteAround),
            Just(CacheOp::Flush),
        ],
        1..200,
    )
}

/// The cache's semantics as a trivially simple model — the behaviour of the
/// original stamp-ordered implementation, kept only as a test oracle: resident
/// pages in recency order (front = least recently used) with a dirty bit, and
/// a linear scan for everything.
struct ModelCache {
    config: CacheConfig,
    pages: Vec<(u64, bool)>,
    stats: CacheStats,
}

impl ModelCache {
    fn dirty_len(&self) -> usize {
        self.pages.iter().filter(|&&(_, dirty)| dirty).count()
    }

    /// Removes `lpn` if resident, returning its dirty bit.
    fn take(&mut self, lpn: u64) -> Option<bool> {
        let at = self.pages.iter().position(|&(resident, _)| resident == lpn)?;
        Some(self.pages.remove(at).1)
    }

    fn read(&mut self, lpn: u64) -> bool {
        match self.take(lpn) {
            Some(dirty) => {
                self.pages.push((lpn, dirty));
                self.stats.read_hits += 1;
                true
            }
            None => {
                self.stats.read_misses += 1;
                false
            }
        }
    }

    fn write(&mut self, lpn: u64) -> Option<u64> {
        self.stats.writes_absorbed += 1;
        let mut writeback = None;
        if self.take(lpn).is_none() && self.pages.len() == self.config.capacity_pages {
            let (victim, dirty) = self.pages.remove(0);
            if dirty {
                self.stats.writebacks += 1;
                writeback = Some(victim);
            }
        }
        self.pages.push((lpn, true));
        writeback
    }

    fn write_around(&mut self, lpn: u64) {
        self.stats.write_arounds += 1;
        self.take(lpn);
    }

    fn flush_to_threshold(&mut self) -> Vec<u64> {
        let mut excess = self.dirty_len().saturating_sub(self.config.dirty_limit());
        if excess == 0 {
            return Vec::new();
        }
        self.stats.flushes += 1;
        let mut flushed = Vec::new();
        // Oldest first, walking past clean pages — the scan the real cache
        // replaced with a second list.
        for (lpn, dirty) in &mut self.pages {
            if excess > 0 && *dirty {
                *dirty = false;
                excess -= 1;
                self.stats.writebacks += 1;
                flushed.push(*lpn);
            }
        }
        flushed
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under arbitrary op sequences the cache never violates its structural
    /// invariants: dirty ⊆ resident, residency ≤ capacity, flushes drain the
    /// dirty set to at most the threshold, write-arounds drop the stale copy,
    /// and an absorbed write always hits on readback (read-your-writes).
    #[test]
    fn cache_invariants_hold_under_arbitrary_ops(
        capacity in 1usize..8,
        ops in arb_cache_ops(),
    ) {
        let config = CacheConfig { capacity_pages: capacity, ..CacheConfig::default() };
        let mut cache = WritebackCache::new(config);
        let mut write_calls = 0u64;
        for op in &ops {
            match *op {
                CacheOp::Write(lpn) => {
                    // `Option`: one insert evicts at most one page, by type.
                    let evicted = cache.write(lpn);
                    write_calls += 1;
                    if let Some(victim) = evicted {
                        prop_assert!(!cache.is_resident(victim), "evicted pages leave");
                    }
                    // Read-your-writes: the page just absorbed must hit.
                    prop_assert!(cache.is_resident(lpn) && cache.is_dirty(lpn));
                    prop_assert!(cache.read(lpn), "absorbed write must hit on readback");
                }
                CacheOp::Read(lpn) => {
                    let resident_before = cache.is_resident(lpn);
                    let len_before = cache.len();
                    prop_assert_eq!(cache.read(lpn), resident_before);
                    // Read misses never allocate.
                    prop_assert_eq!(cache.len(), len_before);
                }
                CacheOp::WriteAround(lpn) => {
                    cache.write_around(lpn);
                    prop_assert!(!cache.is_resident(lpn), "write-around drops the stale copy");
                }
                CacheOp::Flush => {
                    let flushed = cache.flush_to_threshold().to_vec();
                    prop_assert!(
                        !cache.over_threshold(),
                        "a flush must drain to at most the threshold"
                    );
                    prop_assert!(cache.dirty_len() <= config.dirty_limit());
                    for lpn in flushed {
                        prop_assert!(
                            cache.is_resident(lpn) && !cache.is_dirty(lpn),
                            "flushed pages stay resident, clean"
                        );
                    }
                }
            }
            // Structural invariants after every single operation: residency
            // within capacity, dirty ⊆ resident, dirty order = resident order.
            prop_assert_eq!(cache.check_invariants(), Ok(()));
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.writes_absorbed, write_calls);
        prop_assert!(
            stats.writebacks <= stats.writes_absorbed,
            "every writeback stems from an absorbed write"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Differential oracle: op by op, the two-list cache answers exactly as
    /// the linear-scan [`ModelCache`] does — same hits, same eviction victim,
    /// same flush list in the same order — and ends with the same counters.
    #[test]
    fn cache_matches_the_linear_scan_model(
        capacity in 1usize..20,
        ops in arb_cache_ops(),
    ) {
        let config = CacheConfig { capacity_pages: capacity, ..CacheConfig::default() };
        let mut cache = WritebackCache::new(config);
        let mut model = ModelCache { config, pages: Vec::new(), stats: CacheStats::default() };
        for (step, op) in ops.iter().enumerate() {
            match *op {
                CacheOp::Write(lpn) => {
                    prop_assert_eq!(cache.write(lpn), model.write(lpn), "step {}: {:?}", step, op)
                }
                CacheOp::Read(lpn) => {
                    prop_assert_eq!(cache.read(lpn), model.read(lpn), "step {}: {:?}", step, op)
                }
                CacheOp::WriteAround(lpn) => {
                    cache.write_around(lpn);
                    model.write_around(lpn);
                }
                CacheOp::Flush => prop_assert_eq!(
                    cache.flush_to_threshold(),
                    model.flush_to_threshold(),
                    "step {}: flush order",
                    step
                ),
            }
            prop_assert_eq!(cache.len(), model.pages.len(), "step {}: len", step);
            prop_assert_eq!(cache.dirty_len(), model.dirty_len(), "step {}: dirty_len", step);
            prop_assert_eq!(cache.over_threshold(), model.dirty_len() > config.dirty_limit());
        }
        prop_assert_eq!(cache.stats(), model.stats);
        for &(lpn, dirty) in &model.pages {
            prop_assert!(cache.is_resident(lpn));
            prop_assert_eq!(cache.is_dirty(lpn), dirty);
        }
    }
}

// ---------------------------------------------------------------------------
// Weighted-share QoS
// ---------------------------------------------------------------------------

/// The dispatch order as it was first written, kept only as a test oracle:
/// one FIFO `VecDeque` per tenant filled with the whole trace up front, then
/// drained under [`WeightedShares`] arbitration. The library streams the same
/// order from one cursor per tenant.
fn model_dispatch_order(tenants: &[TenantWeight], total: usize) -> Vec<usize> {
    if tenants.len() <= 1 {
        return (0..total).collect();
    }
    let lanes = tenants.len();
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); lanes];
    for request in 0..total {
        queues[request % lanes].push_back(request);
    }
    let mut wfq = WeightedShares::new(tenants);
    let mut order = Vec::with_capacity(total);
    let mut backlogged: Vec<bool> = queues.iter().map(|queue| !queue.is_empty()).collect();
    while let Some(winner) = wfq.pick(&backlogged) {
        order.push(queues[winner].pop_front().expect("picked tenant has backlog"));
        backlogged[winner] = !queues[winner].is_empty();
    }
    order
}

fn tenants_weighted(weights: &[u64]) -> Vec<TenantWeight> {
    weights
        .iter()
        .enumerate()
        .map(|(index, &weight)| TenantWeight::new(format!("t{index}"), weight))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Differential oracle: the streamed order is the per-tenant-FIFO model's,
    /// element by element, for any tenant set and trace length.
    #[test]
    fn dispatch_order_matches_the_fifo_model(
        weights in proptest::collection::vec(1u64..8, 1..6),
        total in 0usize..300,
    ) {
        let tenants = tenants_weighted(&weights);
        let streamed = dispatch_order(&tenants, total);
        let model = model_dispatch_order(&tenants, total);
        prop_assert_eq!(streamed.len(), model.len());
        for (position, (got, want)) in streamed.iter().zip(&model).enumerate() {
            prop_assert_eq!(got, want, "position {} of {}, weights {:?}", position, total, &weights);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dispatcher is work-conserving: every request is dispatched exactly
    /// once (the order is a permutation of `0..total`), for any tenant set.
    #[test]
    fn dispatch_order_is_a_permutation(
        weights in proptest::collection::vec(1u64..8, 1..5),
        total in 0usize..120,
    ) {
        let order = dispatch_order(&tenants_weighted(&weights), total);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..total).collect::<Vec<_>>());
    }

    /// Weight monotonicity: raising one tenant's weight (all else equal) never
    /// lowers that tenant's share of any dispatch prefix.
    #[test]
    fn raising_a_weight_never_lowers_any_prefix_share(
        base in 1u64..8,
        other in 1u64..8,
        bump in 1u64..4,
        total in 1usize..100,
    ) {
        let low = dispatch_order(
            &[TenantWeight::new("x", base), TenantWeight::new("y", other)],
            total,
        );
        let high = dispatch_order(
            &[TenantWeight::new("x", base + bump), TenantWeight::new("y", other)],
            total,
        );
        // Tenant x owns the even request indices (round-robin assignment).
        for prefix in 1..=total {
            let share = |order: &[usize]| {
                order[..prefix].iter().filter(|&&request| request % 2 == 0).count()
            };
            prop_assert!(
                share(&high) >= share(&low),
                "prefix {} share dropped when x's weight rose {} -> {}",
                prefix,
                base,
                base + bump
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet determinism
// ---------------------------------------------------------------------------

fn tiny_scale() -> ExperimentScale {
    ExperimentScale {
        requests: 200,
        working_set_bytes: 8 * 1024 * 1024,
        chips: 2,
        ..ExperimentScale::quick()
    }
}

/// Fleet cells are a pure function of their spec: every worker count the
/// ISSUE names produces the bit-identical result list, including all latency
/// percentiles and per-lane summaries.
#[test]
fn fleet_grid_is_bit_identical_across_worker_counts() {
    let mut specs = ExperimentGrid::fleet_sweep(tiny_scale()).specs;
    specs.retain(|spec| spec.fleet_width < 8);
    let serial = ParallelRunner::new(1).map(&specs, run_fleet_cell).unwrap();
    assert_eq!(serial.len(), 12, "3 widths x 2 workloads x 2 FTLs");
    for workers in [2, 3, 5, 32] {
        let parallel = ParallelRunner::new(workers).map(&specs, run_fleet_cell).unwrap();
        assert_eq!(serial, parallel, "{workers} workers diverged from the serial run");
    }
}

/// The NAND every cached-fleet test below stripes over (two per fleet).
fn cached_lane_device(faults: FaultConfig) -> NandDevice {
    NandDevice::new(
        NandConfig::builder()
            .chips(2)
            .blocks_per_chip(32)
            .pages_per_block(16)
            .page_size_bytes(8192)
            .faults(faults)
            .build()
            .unwrap(),
    )
}

fn conventional_lanes(faults: FaultConfig) -> Vec<ConventionalFtl> {
    let lane = || ConventionalFtl::new(cached_lane_device(faults), FtlConfig::default()).unwrap();
    vec![lane(), lane()]
}

fn ppb_lanes(faults: FaultConfig) -> Vec<PpbFtl> {
    let lane = || PpbFtl::new(cached_lane_device(faults), PpbConfig::default()).unwrap();
    vec![lane(), lane()]
}

/// A `capacity_pages`-page writeback cache over two tenants weighted 2:1.
fn cached_fleet_config(capacity_pages: usize, write_around_bytes: u32) -> FleetConfig {
    FleetConfig {
        cache: Some(CacheConfig { capacity_pages, write_around_bytes }),
        tenants: vec![TenantWeight::new("gold", 2), TenantWeight::new("bronze", 1)],
    }
}

fn cached_trace(requests: usize, working_set_bytes: u64) -> Trace {
    synthetic::web_sql_server(SyntheticConfig {
        requests,
        working_set_bytes,
        ..Default::default()
    })
}

/// One closed-loop QD 4 replay of `trace` over a width-2 cached fleet.
fn run_cached_fleet<F: FlashTranslationLayer>(
    lanes: Vec<F>,
    config: FleetConfig,
    trace: &Trace,
) -> Result<FleetSummary, FtlError> {
    WorkloadDriver::closed_loop(RunOptions::default(), 4).run(Fleet::new(lanes, config), trace)
}

/// A cached, multi-tenant fleet is just as deterministic: two identically
/// built fleets replaying the same trace report the bit-identical summary
/// (recency order lives in the cache's list links; its hash index is only
/// ever probed, never iterated).
#[test]
fn cached_multi_tenant_runs_are_bit_reproducible() {
    let lanes = || conventional_lanes(FaultConfig::disabled());
    let config = || cached_fleet_config(128, CacheConfig::default().write_around_bytes);
    let trace = cached_trace(500, 2 * 1024 * 1024);
    let first = run_cached_fleet(lanes(), config(), &trace).unwrap();
    let second = run_cached_fleet(lanes(), config(), &trace).unwrap();
    assert_eq!(first, second);
    assert!(first.cache.read_hits + first.cache.writes_absorbed > 0, "the cache saw traffic");
    assert_eq!(first.tenants.len(), 2);
}

/// The simulated numbers of one cached run that a host-side cache rewrite
/// must not move: every cache counter, the fan-out tails, and the flash wear
/// the writebacks caused.
#[derive(Debug, PartialEq)]
struct CachedRunFingerprint {
    cache: CacheStats,
    /// Fan-out read mean, read p99.9, write mean, write p99.9.
    fanout_nanos: [u64; 4],
    erased_blocks: u64,
    gc_copied_pages: u64,
}

fn fingerprint(summary: &FleetSummary) -> CachedRunFingerprint {
    let (read, write) = (&summary.fanout_read_latency, &summary.fanout_write_latency);
    CachedRunFingerprint {
        cache: summary.cache,
        fanout_nanos: [read.mean.0, read.p999.0, write.mean.0, write.p999.0],
        erased_blocks: summary.lanes.iter().map(|lane| lane.erased_blocks).sum(),
        gc_copied_pages: summary.lanes.iter().map(|lane| lane.gc_copied_pages).sum(),
    }
}

/// Golden values: the 128-page case was captured on the stamp-ordered
/// `BTreeMap` cache, before the two-list cache replaced it, the 16-page case
/// on the parent of the change that fixed the dirty threshold at one half —
/// "simulated results unchanged" is a tier-1 assertion, not only a benchmark
/// fingerprint. 128 pages with a 64 KiB write-around sends the trace's bulk
/// writes past the cache and makes every writeback a flush; 16 pages with the
/// default write-around absorbs every write, and seven writebacks are dirty
/// evictions.
#[test]
fn cached_fleet_summaries_match_the_golden_fingerprint() {
    let golden = |cache, fanout_nanos, erased_blocks, gc_copied_pages| CachedRunFingerprint {
        cache,
        fanout_nanos,
        erased_blocks,
        gc_copied_pages,
    };
    let bulk_around = CacheStats {
        read_hits: 2601,
        read_misses: 11793,
        writes_absorbed: 2527,
        write_arounds: 5832,
        writebacks: 1032,
        flushes: 1032,
    };
    let all_absorbed = CacheStats {
        read_hits: 497,
        read_misses: 13897,
        writes_absorbed: 8359,
        write_arounds: 0,
        writebacks: 8040,
        flushes: 8033,
    };
    let cases = [
        (
            cached_fleet_config(128, 64 * 1024),
            golden(bulk_around, [2059571, 20971519, 2055941, 23217490], 387, 552),
            golden(bulk_around, [2300297, 18350079, 1947863, 19922943], 410, 888),
        ),
        (
            cached_fleet_config(16, CacheConfig::default().write_around_bytes),
            golden(all_absorbed, [4156913, 23592959, 3041, 9000], 467, 645),
            golden(all_absorbed, [4431360, 21495807, 3041, 9000], 494, 1086),
        ),
    ];
    let trace = cached_trace(6000, 6 * 1024 * 1024);
    let healthy = FaultConfig::disabled();
    for (config, conventional, ppb) in cases {
        let cache = config.cache;
        let lanes = conventional_lanes(healthy);
        let summary = run_cached_fleet(lanes, config.clone(), &trace).unwrap();
        assert_eq!(fingerprint(&summary), conventional, "conventional, {cache:?}");
        let summary = run_cached_fleet(ppb_lanes(healthy), config, &trace).unwrap();
        assert_eq!(fingerprint(&summary), ppb, "PPB, {cache:?}");
    }
}

/// The simulated numbers of one cache-off striped run that a restructuring of
/// the drive loop must not move: the fan-out latency split, the replay clock,
/// each lane's queueing tail, the flash wear and the backlog statistics.
#[derive(Debug, PartialEq)]
struct StripedRunFingerprint {
    /// Fan-out read mean, read p99.9, write mean, write p99.9, `host_elapsed`.
    fanout_nanos: [u64; 5],
    /// Queue-delay p99 of each lane, in stripe order.
    lane_queue_delay_p99: [u64; 4],
    erased_blocks: u64,
    gc_copied_pages: u64,
    peak_queue_depth: usize,
    busy_arrivals: u64,
}

fn striped_fingerprint(summary: &FleetSummary) -> StripedRunFingerprint {
    let (read, write) = (&summary.fanout_read_latency, &summary.fanout_write_latency);
    let lane_queue_delay_p99: Vec<u64> =
        summary.lanes.iter().map(|lane| lane.queue_delay.p99.0).collect();
    StripedRunFingerprint {
        fanout_nanos: [
            read.mean.0,
            read.p999.0,
            write.mean.0,
            write.p999.0,
            summary.host_elapsed.0,
        ],
        lane_queue_delay_p99: lane_queue_delay_p99.try_into().expect("a width-4 fleet"),
        erased_blocks: summary.lanes.iter().map(|lane| lane.erased_blocks).sum(),
        gc_copied_pages: summary.lanes.iter().map(|lane| lane.gc_copied_pages).sum(),
        peak_queue_depth: summary.peak_queue_depth,
        busy_arrivals: summary.busy_arrivals,
    }
}

/// Golden values captured on the parent commit, where the fleet carried its
/// own copy of the engine's timing rule, for the configuration no engine
/// equivalence reaches: width 4, cache off, two tenants weighted 3:1 (so
/// closed loop dispatches in QoS order), both FTLs, under closed loop at depth
/// 1 (op tracing off) and 16 and open loop at the trace's own clock.
#[test]
fn striped_fleet_summaries_match_the_golden_fingerprint() {
    let golden = |fanout_nanos,
                  lane_queue_delay_p99,
                  erased_blocks,
                  gc_copied_pages,
                  peak_queue_depth,
                  busy_arrivals| StripedRunFingerprint {
        fanout_nanos,
        lane_queue_delay_p99,
        erased_blocks,
        gc_copied_pages,
        peak_queue_depth,
        busy_arrivals,
    };
    let closed = |queue_depth| ArrivalDiscipline::ClosedLoop { queue_depth };
    let cases = [
        (
            closed(1),
            golden([91085, 191477, 1850871, 22020095, 7208218958], [0; 4], 772, 2658, 1, 0),
            golden([88474, 191477, 1913520, 23592959, 7427613707], [0; 4], 814, 3296, 1, 0),
        ),
        (
            closed(16),
            golden(
                [6235627, 25165823, 7033443, 27787263, 3316422284],
                [20971519, 21495807, 20971519, 20971519],
                772,
                2658,
                16,
                7999,
            ),
            golden(
                [6594320, 29360127, 6750860, 30408703, 3344087153],
                [19922943, 22544383, 20447231, 21495807],
                814,
                3296,
                16,
                7999,
            ),
        ),
        (
            ArrivalDiscipline::OpenLoop { rate_scale: 1.0 },
            golden(
                [4101877, 24117247, 5009802, 23592959, 5301103825],
                [16777215, 18874367, 17825791, 18350079],
                723,
                1897,
                36,
                6419,
            ),
            golden(
                [4874414, 29360127, 5153469, 31981567, 5304275219],
                [18350079, 20971519, 19922943, 20971519],
                782,
                2802,
                40,
                6605,
            ),
        ),
    ];
    let trace = synthetic::web_sql_server(SyntheticConfig {
        requests: 8_000,
        seed: 31,
        working_set_bytes: 20 * 1024 * 1024,
        arrival: ArrivalModel::Pareto { shape: 1.5, mean_iops: 1_500.0 },
    });
    let healthy = FaultConfig::disabled();
    let config = || FleetConfig {
        cache: None,
        tenants: vec![TenantWeight::new("gold", 3), TenantWeight::new("bronze", 1)],
    };
    fn wide<F>(pair: impl Fn() -> Vec<F>) -> Vec<F> {
        let mut lanes = pair();
        lanes.extend(pair());
        lanes
    }
    for (discipline, conventional, ppb) in cases {
        let driver = WorkloadDriver::new(RunOptions::default(), discipline);
        let fleet = Fleet::new(wide(|| conventional_lanes(healthy)), config());
        let summary = driver.run(fleet, &trace).unwrap();
        assert_eq!(striped_fingerprint(&summary), conventional, "conventional, {discipline:?}");
        let fleet = Fleet::new(wide(|| ppb_lanes(healthy)), config());
        let summary = driver.run(fleet, &trace).unwrap();
        assert_eq!(striped_fingerprint(&summary), ppb, "PPB, {discipline:?}");
    }
}

/// A dying lane surfaces as the typed error, never a panic — including when
/// the write that finds the device read-only is a *background writeback*. The
/// trace is write-only single-page requests under the write-around size, so
/// there is no prefill and every host write is absorbed: the only device
/// writes of the whole run are the cache's evictions and flushes.
#[test]
fn cached_fleet_going_read_only_mid_run_returns_the_typed_error() {
    let dying = FaultConfig {
        program_fail_base: 0.02,
        erase_fail_base: 0.01,
        ..FaultConfig::enabled(7)
    };
    // A stride walk over 512 fleet pages (256 per lane, well inside a fresh
    // lane's capacity: read-only comes from bad-block growth).
    let requests = (0..200_000u64)
        .map(|i| IoRequest::new(i * 1_000, IoOp::Write, (i * 7919 % 512) * 8192, 8192))
        .collect();
    let trace = Trace::new("wear-out", requests);

    fn assert_typed_read_only<F: FlashTranslationLayer>(lanes: Vec<F>, trace: &Trace) {
        let mut fleet = Fleet::new(lanes, cached_fleet_config(128, u32::MAX));
        let outcome =
            WorkloadDriver::closed_loop(RunOptions::default(), 4).run_mut(&mut fleet, trace);
        assert!(matches!(outcome, Err(FtlError::ReadOnly)), "expected ReadOnly, got {outcome:?}");
        assert!(fleet.lanes().iter().any(|lane| lane.is_read_only()));
        let written: u64 = fleet.lanes().iter().map(|lane| lane.metrics().host_writes).sum();
        assert!(written > 512, "the lanes served writebacks before one died, got {written}");
    }
    assert_typed_read_only(conventional_lanes(dying), &trace);
    assert_typed_read_only(ppb_lanes(dying), &trace);
}
