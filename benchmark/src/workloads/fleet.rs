//! `fleet_stripe` and `fleet_cached`: the multi-device host tier.
//!
//! Both replay a web-sql trace through `FleetDriver` over a width-4 fleet of
//! 2-chip lanes (16 KiB pages, 2x speed ratio, raw capacity twice the working
//! set), two tenants weighted 3:1, closed loop at queue depth 32, conventional
//! lanes then PPB lanes. Stripe runs with the host cache off, so the drive
//! loop, stripe map, QoS order and completion calendar are all there is above
//! the FTLs. Cached turns on the default 4096-page writeback cache over an
//! 8192-page working set, where the cache does most of the host work.

use vflash_fleet::{CacheConfig, Fleet, FleetConfig, FleetDriver, FleetSummary, TenantWeight};
use vflash_ftl::{FlashTranslationLayer, FtlError};
use vflash_nand::{NandConfig, Nanos};
use vflash_sim::experiments::{ExperimentScale, Workload as TraceKind};
use vflash_sim::{FtlKind, RunOptions};
use vflash_trace::Trace;

use super::{
    ftl_count_layers, ftl_index, ftl_span_layers, micro, spanned, with_ftl, FtlTotals, Layers,
    Meter, Rep, SimEndToEnd, TracedRun, Workload,
};
use crate::span::Name;
use crate::stats::Fingerprint;

const PAGE_SIZE: usize = 16 * 1024;
const WIDTH: usize = 4;
const LANE_CHIPS: usize = 2;
const QUEUE_DEPTH: usize = 32;
const WORKING_SET_BYTES: u64 = 128 << 20;
/// Writeback-cache capacity of `fleet_cached`: an eighth of the working set, so
/// the small-write stream keeps the dirty set at its flush threshold.
const CACHE_PAGES: usize = 1024;

/// A set-up fleet workload.
pub struct FleetRun {
    trace: Trace,
    lane: NandConfig,
    config: FleetConfig,
}

struct LanesRun {
    summary: Result<FleetSummary, FtlError>,
    totals: FtlTotals,
}

fn drive<F: FlashTranslationLayer>(lanes: Vec<F>, config: FleetConfig, trace: &Trace) -> LanesRun {
    let driver = FleetDriver::closed_loop(RunOptions::default(), QUEUE_DEPTH);
    let mut fleet = Fleet::new(lanes, config);
    let summary = spanned(Name::FleetRun, || driver.run_mut(&mut fleet, trace));
    let mut totals = FtlTotals::default();
    for lane in fleet.lanes() {
        totals.add(lane);
    }
    LanesRun { summary, totals }
}

impl FleetRun {
    /// Generates the trace from `seed`.
    pub fn setup(cached: bool, seed: u64, smoke: bool) -> Self {
        let working_set_bytes = if smoke { 16 << 20 } else { WORKING_SET_BYTES };
        let requests = match (smoke, cached) {
            (true, _) => 2_000,
            (false, false) => 400_000,
            (false, true) => 100_000,
        };
        let scale = ExperimentScale {
            requests,
            working_set_bytes,
            capacity_headroom: 2.0,
            pages_per_block: 64,
            chips: LANE_CHIPS,
            seed,
        };
        let trace = TraceKind::WebSqlServer.trace(&scale);
        // Each lane holds a quarter of the striped address space.
        let lane_scale = ExperimentScale {
            working_set_bytes: working_set_bytes / WIDTH as u64,
            ..scale
        };
        let lane = lane_scale.device_config(PAGE_SIZE, 2.0);
        // The default cache, except that the trace's 64 KiB bulk writes (asset
        // uploads, backups) count as the cold stream and go around it. With the
        // default 256 KiB threshold every write of this trace is absorbed, the
        // simulated write latency is the constant DRAM hit time, and the
        // devices see too little traffic to ever collect garbage.
        let cache = cached.then(|| CacheConfig {
            capacity_pages: if smoke { 256 } else { CACHE_PAGES },
            write_around_bytes: 64 * 1024,
            ..CacheConfig::default()
        });
        let config = FleetConfig {
            cache,
            tenants: vec![TenantWeight::new("gold", 3), TenantWeight::new("bronze", 1)],
        };
        FleetRun {
            trace,
            lane,
            config,
        }
    }
}

impl Workload for FleetRun {
    fn rep(&self, traced: bool) -> Rep {
        let mut meter = Meter::default();
        let runs = FtlKind::ALL.map(|kind| {
            meter.measure(kind, || {
                with_ftl!(kind, traced, &self.lane, |make| {
                    let lanes: Vec<_> = (0..WIDTH).map(|_| make()).collect();
                    drive(lanes, self.config.clone(), &self.trace)
                })
            })
        });

        let requests = self.trace.len() as u64;
        let ops = 2 * requests;
        let mut fingerprint = Fingerprint::default();
        let mut totals = [FtlTotals::default(); 2];
        let mut failed = 0u64;
        let mut summaries = [None, None];
        for kind in FtlKind::ALL {
            let run = &runs[ftl_index(kind)];
            totals[ftl_index(kind)] = run.totals;
            match &run.summary {
                Ok(summary) => {
                    fingerprint.add(summary);
                    failed += requests.saturating_sub(summary.host_requests)
                        + summary
                            .lanes
                            .iter()
                            .map(|lane| lane.uncorrectable_reads)
                            .sum::<u64>();
                    summaries[ftl_index(kind)] = Some(summary);
                }
                Err(error) => {
                    fingerprint.add(error);
                    failed += requests;
                }
            }
        }

        let mut sim = SimEndToEnd::default();
        let mut layers = ftl_count_layers(&totals, ops);
        if let [Some(conv), Some(ppb)] = summaries {
            let ratio = |variant: Nanos, baseline: Nanos| {
                variant.as_nanos() as f64 / baseline.as_nanos() as f64
            };
            let host_writes: u64 = ppb.lanes.iter().map(|lane| lane.host_writes).sum();
            let gc_copied: u64 = ppb.lanes.iter().map(|lane| lane.gc_copied_pages).sum();
            sim = SimEndToEnd {
                iops: ppb.request_iops(),
                read_mean_us: ppb.fanout_read_latency.mean.as_micros_f64(),
                write_mean_us: ppb.fanout_write_latency.mean.as_micros_f64(),
                wa: (host_writes + gc_copied) as f64 / host_writes as f64,
                erases: ppb.lanes.iter().map(|lane| lane.erased_blocks).sum::<u64>() as f64,
                ppb_read_lat_ratio: ratio(
                    ppb.fanout_read_latency.mean,
                    conv.fanout_read_latency.mean,
                ),
                ppb_write_lat_ratio: ratio(
                    ppb.fanout_write_latency.mean,
                    conv.fanout_write_latency.mean,
                ),
            };
            let lane_requests: Vec<f64> = ppb
                .lanes
                .iter()
                .map(|lane| lane.host_requests as f64)
                .collect();
            let mean_lane = lane_requests.iter().sum::<f64>() / lane_requests.len() as f64;
            let busiest = lane_requests.iter().copied().fold(0.0, f64::max);
            layers.extend([
                ("ppb.read_gain_pct", (1.0 - sim.ppb_read_lat_ratio) * 100.0),
                (
                    "ppb.write_gain_pct",
                    (1.0 - sim.ppb_write_lat_ratio) * 100.0,
                ),
                ("fleet.cache.hit_rate", ppb.cache.read_hit_rate()),
                ("fleet.cache.flushes", ppb.cache.flushes as f64),
                ("fleet.cache.writebacks", ppb.cache.writebacks as f64),
                (
                    "fleet.lane_imbalance",
                    if mean_lane > 0.0 {
                        busiest / mean_lane
                    } else {
                        0.0
                    },
                ),
                (
                    "sim.read_p999_us",
                    ppb.fanout_read_latency.p999.as_micros_f64(),
                ),
                (
                    "sim.write_p999_us",
                    ppb.fanout_write_latency.p999.as_micros_f64(),
                ),
                (
                    "fleet.fanout_p999_us",
                    ppb.fanout_read_latency.p999.as_micros_f64(),
                ),
                (
                    "fleet.stripe_p999_us",
                    ppb.stripe_read_latency.p999.as_micros_f64(),
                ),
                ("fleet.tail_amp", ppb.read_tail_amplification()),
                ("sim.peak_queue_depth", ppb.peak_queue_depth as f64),
            ]);
        }
        let pages: u64 = self
            .trace
            .iter()
            .map(|request| {
                let pages = request.logical_pages(PAGE_SIZE);
                pages.end - pages.start
            })
            .sum();
        layers.push(("trace.pages_per_req", pages as f64 / requests as f64));
        Rep {
            meter,
            ops,
            failed,
            fingerprint,
            sim,
            layers,
        }
    }

    fn host_layers(&self, traced: &TracedRun<'_>) -> Layers {
        let report = traced.report;
        let mut layers = ftl_span_layers(traced);
        layers.push((
            "fleet.driver.self_ns_per_req",
            report.self_ns(&[Name::FleetRun]) / (traced.rep_count() * traced.ops_per_rep()),
        ));
        let stripe =
            vflash_fleet::StripeMap::new(WIDTH, super::conventional(&self.lane).logical_pages());
        layers.extend(micro::fleet_routing(
            &self.trace,
            PAGE_SIZE,
            stripe,
            &self.config.tenants,
        ));
        if let Some(cache) = self.config.cache {
            layers.extend(micro::fleet_cache(
                &self.trace,
                PAGE_SIZE,
                stripe.fleet_pages(),
                cache,
            ));
        }
        layers.extend(micro::histogram(&report.latencies));
        layers.extend(micro::nand(&self.lane));
        layers.extend(micro::trace_generation());
        layers
    }
}
