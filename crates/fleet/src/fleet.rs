//! The fleet and its replay: one drive loop replaying a trace against N
//! devices on a shared virtual clock.
//!
//! # Clock sharing
//!
//! The timing rule is `vflash-sim`'s, called rather than copied: a [`Fleet`]
//! is a [`Replay`] target of the one [`WorkloadDriver`], N engine lanes under
//! one calendar. One [`HostCalendar`] carries the arrival discipline for the
//! whole fleet — closed-loop slot waits, open-loop arrival scaling and
//! retirement, the backlog statistics — exactly as it does for one device.
//! Each lane has its own [`LaneState`]: per-chip ready clocks, latency
//! histograms, and the page-chain, record and summary rules. What this module
//! adds is only what is host-tier: a multi-page host request splits into
//! per-lane stripe chains ([`StripeMap`] routing) — pages on the same lane
//! serialise (one dependent [`PageChain`] against that lane's chips), stripes
//! on different lanes run in parallel, and the request completes at the **max
//! over its stripes**, which is where fan-out tail amplification comes from —
//! plus the cache intercept, the QoS dispatch order and the
//! fan-out/stripe/tenant accounting.
//!
//! # The fleet-of-1 guarantee
//!
//! A 1-wide fleet with the cache disabled and a single tenant reproduces the
//! [`WorkloadDriver`]'s replay of one device **bit-for-bit** — same per-lane
//! [`RunSummary`], same device state — on both FTLs and every discipline. The
//! stripe map at width 1 is the identity, the per-request stripe chain is then
//! the engine's single dependent chain through the same `LaneState`, and the
//! calendar sees exactly the issue/completion instants it sees under the
//! engine (at closed-loop depth 1, where the engine runs a scalar clock
//! instead, the calendar drains fully at every arrival, so peak backlog 1 and
//! zero busy arrivals fall out by construction). `tests/fleet_equivalence.rs`
//! pins this down, and carries it to lane 0 of a wider fleet.
//!
//! # Cache and writebacks
//!
//! With a [`CacheConfig`], page reads and small page writes consult the host
//! DRAM cache first: hits cost 1 µs and never touch a device; absorbed writes
//! defer the flash program until eviction or a dirty-ratio flush. Writeback
//! traffic is **background**: it does not extend the completing request's
//! latency, but it does occupy the owning lane's chips (or, at closed-loop
//! depth 1 where op tracing is off, a lane-level ready clock), so heavy
//! writeback backlogs surface as queueing delay on later requests — the
//! classic destaging effect.

use vflash_ftl::{FlashTranslationLayer, FtlError, Lpn};
use vflash_nand::Nanos;
use vflash_sim::{
    prefill, ArrivalDiscipline, HostCalendar, LaneState, LatencyHistogram, PageChain, Replay,
    RunSummary, WorkloadDriver,
};
use vflash_trace::{IoOp, PageSplitter, TraceSlice};

use crate::cache::{CacheConfig, WritebackCache, HIT_LATENCY};
use crate::qos::{validate_tenants, DispatchOrder, TenantWeight};
use crate::stripe::StripeMap;
use crate::summary::{FleetSummary, TenantSummary};

/// Host-tier configuration: the writeback cache (if any) and the tenant set.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Writeback-cache configuration; `None` disables the cache entirely (every
    /// page goes straight to its lane, required for the fleet-of-1 bit-identity
    /// guarantee).
    pub cache: Option<CacheConfig>,
    /// The tenant set. Request `i` of the trace belongs to tenant
    /// `i % tenants.len()`; under closed loop the per-tenant FIFO queues are
    /// served by weighted-share QoS, under open loop requests issue at their
    /// arrival times and the weights only label the accounting.
    pub tenants: Vec<TenantWeight>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { cache: None, tenants: vec![TenantWeight::default()] }
    }
}

/// N homogeneous simulated devices behind one striped keyspace.
///
/// # Example
///
/// ```
/// use vflash_ftl::{ConventionalFtl, FtlConfig};
/// use vflash_nand::{NandConfig, NandDevice};
/// use vflash_fleet::{Fleet, FleetConfig};
/// use vflash_sim::{RunOptions, WorkloadDriver};
/// use vflash_trace::synthetic::{self, SyntheticConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lanes: Vec<ConventionalFtl> = (0..2)
///     .map(|_| {
///         let device = NandDevice::new(
///             NandConfig::builder()
///                 .chips(2)
///                 .blocks_per_chip(32)
///                 .pages_per_block(16)
///                 .page_size_bytes(8192)
///                 .build()
///                 .unwrap(),
///         );
///         ConventionalFtl::new(device, FtlConfig::default()).unwrap()
///     })
///     .collect();
/// let mut fleet = Fleet::new(lanes, FleetConfig::default());
/// let trace = synthetic::web_sql_server(SyntheticConfig {
///     requests: 300,
///     working_set_bytes: 2 * 1024 * 1024,
///     ..Default::default()
/// });
/// let summary = WorkloadDriver::closed_loop(RunOptions::default(), 4)
///     .run_mut(&mut fleet, &trace)?;
/// assert_eq!(summary.width, 2);
/// assert_eq!(summary.host_requests, 300);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Fleet<F: FlashTranslationLayer> {
    lanes: Vec<F>,
    config: FleetConfig,
    stripe: StripeMap,
}

impl<F: FlashTranslationLayer> Fleet<F> {
    /// Assembles a fleet from homogeneous lanes.
    ///
    /// # Panics
    ///
    /// Panics on an empty lane set, heterogeneous page sizes or logical
    /// capacities (the stripe map needs identical lanes), an empty tenant set or
    /// a zero tenant weight (what [`WeightedShares`](crate::WeightedShares)
    /// refuses, checked here for every discipline), or an invalid cache
    /// configuration — a zero capacity, or a cache in front of more than
    /// [`ListTable::MAX_KEYS`](vflash_ftl::ListTable::MAX_KEYS) fleet pages.
    pub fn new(lanes: Vec<F>, config: FleetConfig) -> Self {
        assert!(!lanes.is_empty(), "a fleet needs at least one device");
        validate_tenants(&config.tenants);
        let page_size = lanes[0].device().config().page_size_bytes();
        let lane_pages = lanes[0].logical_pages();
        for lane in &lanes[1..] {
            assert_eq!(
                lane.device().config().page_size_bytes(),
                page_size,
                "fleet lanes must share one page size"
            );
            assert_eq!(
                lane.logical_pages(),
                lane_pages,
                "fleet lanes must share one logical capacity"
            );
        }
        let stripe = StripeMap::new(lanes.len(), lane_pages);
        if let Some(cache) = &config.cache {
            // Validate eagerly so a bad config fails at assembly, not mid-run.
            cache.validate();
            CacheConfig::validate_keyspace(stripe.fleet_pages());
        }
        Fleet { lanes, config, stripe }
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// The stripe map over the fleet keyspace.
    pub fn stripe(&self) -> StripeMap {
        self.stripe
    }

    /// The host-tier configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The lanes, in stripe order.
    pub fn lanes(&self) -> &[F] {
        &self.lanes
    }
}

impl<F: FlashTranslationLayer> Replay for Fleet<F> {
    type Summary = FleetSummary;

    fn replay(
        &mut self,
        driver: &WorkloadDriver,
        trace: TraceSlice<'_>,
    ) -> Result<FleetSummary, FtlError> {
        // The engine's warm-up, routed by the stripe map.
        let stripe = self.stripe;
        let mut lanes: Vec<&mut F> = self.lanes.iter_mut().collect();
        let space = stripe.fleet_pages();
        prefill(driver.options(), &mut lanes, trace, space, |page| stripe.locate(page))?;

        let trace_ops = driver.discipline().needs_op_tracing();
        if trace_ops {
            for lane in &mut self.lanes {
                lane.device_mut().set_op_tracing(true);
            }
        }
        let outcome = drive(driver, self, trace);
        if trace_ops {
            for lane in &mut self.lanes {
                lane.device_mut().set_op_tracing(false);
            }
        }
        outcome
    }
}

/// The drive loop: the calendar issues each request, the request fans out
/// over per-lane stripe chains, and completes at the max over them.
fn drive<F: FlashTranslationLayer>(
    driver: &WorkloadDriver,
    fleet: &mut Fleet<F>,
    trace: TraceSlice<'_>,
) -> Result<FleetSummary, FtlError> {
    let discipline = driver.discipline();
    let page_size = fleet.lanes[0].device().config().page_size_bytes();
    let pages = PageSplitter::new(page_size);
    let stripe = fleet.stripe;
    let width = stripe.width();
    let fleet_pages = stripe.fleet_pages();
    let tenants = fleet.config.tenants.clone();
    let tenant_count = tenants.len();

    let mut lanes: Vec<LaneState> =
        fleet.lanes.iter().map(|lane| LaneState::new(lane, driver.options(), discipline)).collect();
    let mut calendar = HostCalendar::new(discipline);

    let mut cache = fleet.config.cache.map(WritebackCache::new);
    let write_around_bytes =
        fleet.config.cache.map(|config| config.write_around_bytes).unwrap_or(u32::MAX);

    let mut fanout_read = LatencyHistogram::new();
    let mut fanout_write = LatencyHistogram::new();
    let mut stripe_read = LatencyHistogram::new();
    let mut stripe_write = LatencyHistogram::new();
    let mut tenant_latencies: Vec<LatencyHistogram> =
        (0..tenant_count).map(|_| LatencyHistogram::new()).collect();
    let mut tenant_requests = vec![0u64; tenant_count];
    let mut tenant_last = vec![Nanos::ZERO; tenant_count];

    let mut last_completion = Nanos::ZERO;
    let mut requests = 0u64;

    // Per-request scratch, allocated once.
    let mut chains: Vec<Option<PageChain>> = vec![None; width];
    let mut touched: Vec<usize> = Vec::with_capacity(width);

    // Closed loop with several tenants dispatches via weighted-share QoS
    // over per-tenant FIFOs; one tenant (or open loop, where arrivals set
    // the order) replays the trace in order. Either way the order streams.
    let order = match discipline {
        ArrivalDiscipline::ClosedLoop { .. } => DispatchOrder::new(&tenants, trace.len()),
        ArrivalDiscipline::OpenLoop { .. } => DispatchOrder::in_trace_order(trace.len()),
    };

    for request_index in order {
        let request = trace.get(request_index).expect("the dispatch order indexes the trace");
        let tenant = request_index % tenant_count;

        let issue = calendar.issue(request.at_nanos);

        let mut cache_now = issue.at;
        let mut cache_touched = false;

        for page in pages.pages(request) {
            let fleet_lpn = page % fleet_pages;
            let (lane_index, offset) = stripe.locate(fleet_lpn);

            // Host cache first: read hits and absorbed writes never reach
            // a device; write-arounds invalidate and fall through.
            if let Some(cache) = cache.as_mut() {
                match request.op {
                    IoOp::Read => {
                        if cache.read(fleet_lpn) {
                            cache_now += HIT_LATENCY;
                            cache_touched = true;
                            continue;
                        }
                    }
                    IoOp::Write => {
                        if request.length < write_around_bytes {
                            let evicted = cache.write(fleet_lpn);
                            cache_now += HIT_LATENCY;
                            cache_touched = true;
                            // Background writebacks, in order: the dirty
                            // page this insert evicted (if any), then
                            // whatever the dirty-ratio flush drains.
                            let flushed = cache.flush_to_threshold();
                            for victim in evicted.into_iter().chain(flushed.iter().copied()) {
                                let (wb_lane, wb_offset) = stripe.locate(victim);
                                lanes[wb_lane].play_background_write(
                                    &mut fleet.lanes[wb_lane],
                                    issue.at,
                                    Lpn(wb_offset),
                                    page_size as u32,
                                )?;
                            }
                            continue;
                        }
                        cache.write_around(fleet_lpn);
                    }
                }
            }

            // Open the lane's chain before submitting, so requests whose
            // every page is skipped (unmapped reads with prefill off)
            // still record a zero-latency stripe — the engine counts them
            // too.
            let state = &mut lanes[lane_index];
            let chain = chains[lane_index].get_or_insert_with(|| {
                touched.push(lane_index);
                state.begin(issue.at)
            });
            state.play_page(
                &mut fleet.lanes[lane_index],
                chain,
                request.op,
                Lpn(offset),
                request.length,
            )?;
        }

        // A request that produced neither cache traffic nor device pages
        // (an empty byte range) still completes: park it on lane 0 with a
        // zero-length chain so the accounting matches the engine's.
        if touched.is_empty() && !cache_touched {
            chains[0] = Some(lanes[0].begin(issue.at));
            touched.push(0);
        }

        let mut completion = cache_now;
        for lane_index in touched.drain(..) {
            let chain = chains[lane_index].take().expect("touched lanes have chains");
            let sub_latency = lanes[lane_index].record(request.op, issue, &chain);
            match request.op {
                IoOp::Read => stripe_read.record(sub_latency),
                IoOp::Write => stripe_write.record(sub_latency),
            }
            if chain.now > completion {
                completion = chain.now;
            }
        }

        let latency = completion.saturating_sub(issue.at);
        match request.op {
            IoOp::Read => fanout_read.record(latency),
            IoOp::Write => fanout_write.record(latency),
        }
        tenant_latencies[tenant].record(latency);
        tenant_requests[tenant] += 1;
        if completion > tenant_last[tenant] {
            tenant_last[tenant] = completion;
        }
        if completion > last_completion {
            last_completion = completion;
        }
        calendar.schedule_completion(completion);
        requests += 1;
    }

    let lane_summaries: Vec<RunSummary> = lanes
        .into_iter()
        .zip(&fleet.lanes)
        .map(|(state, lane)| {
            state.finish(lane, trace.name(), calendar.peak_outstanding(), calendar.busy_arrivals())
        })
        .collect();

    let tenant_summaries: Vec<TenantSummary> = tenants
        .iter()
        .enumerate()
        .map(|(index, tenant)| TenantSummary {
            name: tenant.name.clone(),
            weight: tenant.weight,
            requests: tenant_requests[index],
            latency: tenant_latencies[index].percentiles(),
            last_completion: tenant_last[index],
        })
        .collect();

    Ok(FleetSummary {
        ftl: fleet.lanes[0].name().to_string(),
        trace: trace.name().to_string(),
        width,
        // Every lane ran under the one discipline; report its labels.
        mode: lane_summaries[0].mode,
        queue_depth: lane_summaries[0].queue_depth,
        lanes: lane_summaries,
        host_requests: requests,
        host_elapsed: last_completion,
        offered_duration: calendar.offered_duration(),
        peak_queue_depth: calendar.peak_outstanding(),
        busy_arrivals: calendar.busy_arrivals(),
        fanout_read_latency: fanout_read.percentiles(),
        fanout_write_latency: fanout_write.percentiles(),
        stripe_read_latency: stripe_read.percentiles(),
        stripe_write_latency: stripe_write.percentiles(),
        cache: cache.map(|cache| cache.stats()).unwrap_or_default(),
        tenants: tenant_summaries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vflash_ftl::{ConventionalFtl, FtlConfig};
    use vflash_nand::{NandConfig, NandDevice};
    use vflash_sim::RunOptions;
    use vflash_trace::synthetic::{self, SyntheticConfig};
    use vflash_trace::{IoRequest, Trace};

    fn lane() -> ConventionalFtl {
        let device = NandDevice::new(
            NandConfig::builder()
                .chips(2)
                .blocks_per_chip(32)
                .pages_per_block(16)
                .page_size_bytes(8192)
                .build()
                .unwrap(),
        );
        ConventionalFtl::new(device, FtlConfig::default()).unwrap()
    }

    fn web_trace(requests: usize) -> Trace {
        synthetic::web_sql_server(SyntheticConfig {
            requests,
            working_set_bytes: 2 * 1024 * 1024,
            ..Default::default()
        })
    }

    #[test]
    fn fleet_of_one_matches_the_engine_bit_for_bit() {
        let trace = web_trace(400);
        let driver = WorkloadDriver::closed_loop(RunOptions::default(), 1);
        let single = driver.run(lane(), &trace).unwrap();
        let summary = driver.run(Fleet::new(vec![lane()], FleetConfig::default()), &trace).unwrap();
        assert_eq!(summary.lanes[0], single);
        assert_eq!(summary.host_requests, single.host_requests);
        assert_eq!(summary.host_elapsed, single.host_elapsed);
        // At width 1 the fan-out and stripe distributions are the same thing.
        assert_eq!(summary.fanout_read_latency, summary.stripe_read_latency);
    }

    #[test]
    fn wider_fleets_serve_every_request_and_fan_out() {
        let trace = web_trace(400);
        let mut fleet = Fleet::new(vec![lane(), lane(), lane()], FleetConfig::default());
        let summary = WorkloadDriver::open_loop(RunOptions::default(), 1.0)
            .run_mut(&mut fleet, &trace)
            .unwrap();
        assert_eq!(summary.width, 3);
        assert_eq!(summary.host_requests, 400);
        let lane_requests: u64 = summary.lanes.iter().map(|lane| lane.host_requests).sum();
        assert!(lane_requests >= 400, "multi-page requests touch several lanes");
        // Fan-out latency dominates any single stripe.
        assert!(summary.fanout_read_latency.p999 >= summary.stripe_read_latency.p999);
        assert!(summary.read_tail_amplification() >= 1.0);
    }

    #[test]
    fn the_cache_absorbs_hot_rewrites() {
        // A write-only hammer on few pages: with a cache most programs are
        // absorbed in DRAM and the devices see far fewer writes.
        let requests: Vec<IoRequest> = (0..300)
            .map(|i| IoRequest::new(i * 1_000, IoOp::Write, (i % 4) * 8192, 8192))
            .collect();
        let trace = Trace::new("hammer", requests);
        let driver = WorkloadDriver::closed_loop(RunOptions::default(), 1);

        let mut plain = Fleet::new(vec![lane(), lane()], FleetConfig::default());
        let without = driver.run_mut(&mut plain, &trace).unwrap();
        let mut cached = Fleet::new(
            vec![lane(), lane()],
            FleetConfig {
                cache: Some(CacheConfig { capacity_pages: 64, ..CacheConfig::default() }),
                ..FleetConfig::default()
            },
        );
        let with = driver.run_mut(&mut cached, &trace).unwrap();

        let device_writes = |summary: &FleetSummary| {
            summary.lanes.iter().map(|lane| lane.host_writes).sum::<u64>()
        };
        assert_eq!(with.cache.writes_absorbed, 300);
        assert_eq!(device_writes(&with), 0, "everything fits in 64 cache pages");
        assert_eq!(device_writes(&without), 300);
        assert!(with.host_elapsed < without.host_elapsed, "DRAM hits are cheap");
    }

    #[test]
    fn write_around_bypasses_the_cache() {
        let requests: Vec<IoRequest> =
            (0..50).map(|i| IoRequest::new(i * 1_000, IoOp::Write, i * 8192, 8192)).collect();
        let trace = Trace::new("cold", requests);
        let mut fleet = Fleet::new(
            vec![lane(), lane()],
            FleetConfig {
                cache: Some(CacheConfig {
                    capacity_pages: 64,
                    write_around_bytes: 4096, // every 8 KiB request is "cold"
                }),
                ..FleetConfig::default()
            },
        );
        let summary = WorkloadDriver::closed_loop(RunOptions::default(), 1)
            .run_mut(&mut fleet, &trace)
            .unwrap();
        assert_eq!(summary.cache.write_arounds, 50);
        assert_eq!(summary.cache.writes_absorbed, 0);
        assert_eq!(summary.lanes.iter().map(|lane| lane.host_writes).sum::<u64>(), 50);
    }

    #[test]
    fn tenants_split_the_request_stream() {
        let trace = web_trace(90);
        let mut fleet = Fleet::new(
            vec![lane()],
            FleetConfig {
                tenants: vec![
                    TenantWeight::new("gold", 2),
                    TenantWeight::new("bronze", 1),
                    TenantWeight::new("iron", 1),
                ],
                ..FleetConfig::default()
            },
        );
        let summary = WorkloadDriver::closed_loop(RunOptions::default(), 4)
            .run_mut(&mut fleet, &trace)
            .unwrap();
        assert_eq!(summary.tenants.len(), 3);
        assert_eq!(summary.tenants.iter().map(|tenant| tenant.requests).sum::<u64>(), 90);
        assert_eq!(summary.tenants[0].requests, 30, "round-robin tenant assignment");
        assert!(summary.tenants[0].achieved_iops() > 0.0);
    }

    #[test]
    fn heterogeneous_lanes_are_rejected() {
        let small = lane();
        let big = {
            let device = NandDevice::new(
                NandConfig::builder()
                    .chips(2)
                    .blocks_per_chip(64)
                    .pages_per_block(16)
                    .page_size_bytes(8192)
                    .build()
                    .unwrap(),
            );
            ConventionalFtl::new(device, FtlConfig::default()).unwrap()
        };
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Fleet::new(vec![small, big], FleetConfig::default())
        }))
        .is_err());
    }

    /// The message of a panic raised by `assert!` with a literal message.
    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload.downcast_ref::<&str>().expect("assert! with a literal message").to_string()
    }

    #[test]
    fn invalid_cache_configs_are_rejected_at_assembly() {
        // `Fleet::new` must refuse what `WritebackCache::new` refuses, with the
        // same message.
        let cache = CacheConfig { capacity_pages: 0, ..CacheConfig::default() };
        let payload = std::panic::catch_unwind(|| {
            let config = FleetConfig { cache: Some(cache), ..FleetConfig::default() };
            Fleet::new(vec![lane()], config)
        })
        .expect_err("an invalid cache config must not assemble");
        assert_eq!(panic_message(payload), "cache capacity must be at least one page");
    }

    #[test]
    fn zero_weight_tenants_are_rejected_at_assembly_under_both_disciplines() {
        // A weight-0 tenant used to pass `Fleet::new`: closed loop then panicked
        // inside the run, after the prefill had written every lane, and open
        // loop accepted it and reported weight 0.
        let tenants = vec![TenantWeight::new("gold", 1), TenantWeight::new("idle", 0)];
        let trace = web_trace(50);
        for driver in [
            WorkloadDriver::closed_loop(RunOptions::default(), 4),
            WorkloadDriver::open_loop(RunOptions::default(), 1.0),
        ] {
            let mut assembled = false;
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let config = FleetConfig { tenants: tenants.clone(), ..FleetConfig::default() };
                let fleet = Fleet::new(vec![lane(), lane()], config);
                assembled = true;
                driver.run(fleet, &trace)
            }))
            .expect_err("a zero-weight tenant must not run");
            assert!(!assembled, "{:?}: the fleet assembled", driver.discipline());
            assert_eq!(panic_message(payload), "tenant weights must be positive");
        }
    }
}
