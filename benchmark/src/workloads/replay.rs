//! `replay_serial` and `replay_queued`: the single-device replay engine.
//!
//! Both replay synthetic traces through `WorkloadDriver` on a 4-chip device
//! with 16 KiB pages and a 2x speed ratio, conventional FTL then PPB. Serial is
//! the paper's discipline (closed loop, queue depth 1: the engine's scalar fast
//! path, no calendar, no op tracing) over the web-sql and the media trace.
//! Queued replays the web-sql trace closed loop at queue depth 16 *and* open
//! loop at the trace's own clock, with bounded-Pareto arrivals at half the
//! device's probed saturation rate — op tracing on, event calendar in play.

use vflash_ftl::FlashTranslationLayer;
use vflash_nand::NandConfig;
use vflash_sim::experiments::{self, ExperimentScale, Workload as TraceKind};
use vflash_sim::{
    ArrivalDiscipline, ExperimentGrid, FtlKind, ParallelRunner, RunOptions, RunSummary,
    WorkloadDriver,
};
use vflash_trace::synthetic::ArrivalModel;
use vflash_trace::Trace;

use super::{
    ftl_count_layers, ftl_index, ftl_span_layers, micro, ns_per_call, spanned, with_ftl, FtlTotals,
    Layers, Meter, Rep, SimEndToEnd, TracedRun, Workload,
};
use crate::span::{self, Name};
use crate::stats::{median, Fingerprint};

const PAGE_SIZE: usize = 16 * 1024;
const SPEED_RATIO: f64 = 2.0;
const QUEUE_DEPTH: usize = 16;

/// Which of the two replay workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `replay_serial`.
    Serial,
    /// `replay_queued`.
    Queued,
}

/// One (trace, discipline) pairing; each is run on both FTLs.
struct Pairing {
    trace: usize,
    discipline: ArrivalDiscipline,
}

/// A set-up replay workload.
pub struct Replay {
    mode: Mode,
    traces: Vec<Trace>,
    pairings: Vec<Pairing>,
    config: NandConfig,
    pages_per_req: f64,
}

/// One FTL's run of one pairing.
struct EngineRun {
    summary: Result<RunSummary, vflash_ftl::FtlError>,
    totals: FtlTotals,
}

fn drive<F: FlashTranslationLayer>(mut ftl: F, driver: WorkloadDriver, trace: &Trace) -> EngineRun {
    let summary = spanned(Name::SimRun, || driver.run_mut(&mut ftl, trace));
    let mut totals = FtlTotals::default();
    totals.add(&ftl);
    EngineRun { summary, totals }
}

fn pages_per_request(traces: &[Trace]) -> f64 {
    let requests: usize = traces.iter().map(Trace::len).sum();
    let pages: u64 = traces
        .iter()
        .flat_map(|trace| trace.iter())
        .map(|request| {
            let pages = request.logical_pages(PAGE_SIZE);
            pages.end - pages.start
        })
        .sum();
    pages as f64 / requests as f64
}

impl Replay {
    /// Generates the traces (and, for queued, probes the saturation rate).
    pub fn setup(mode: Mode, seed: u64, smoke: bool) -> Self {
        let scale = ExperimentScale {
            requests: if smoke { 3_000 } else { 400_000 },
            working_set_bytes: if smoke { 16 << 20 } else { 256 << 20 },
            capacity_headroom: 2.0,
            pages_per_block: 64,
            chips: 4,
            seed,
        };
        let config = scale.device_config(PAGE_SIZE, SPEED_RATIO);
        let closed = |queue_depth| ArrivalDiscipline::ClosedLoop { queue_depth };
        let (traces, pairings) = match mode {
            Mode::Serial => (
                vec![
                    TraceKind::WebSqlServer.trace(&scale),
                    TraceKind::MediaServer.trace(&scale),
                ],
                vec![
                    Pairing {
                        trace: 0,
                        discipline: closed(1),
                    },
                    Pairing {
                        trace: 1,
                        discipline: closed(1),
                    },
                ],
            ),
            Mode::Queued => {
                let mean_iops = experiments::grid_burst_mean_iops(&scale)
                    .expect("the saturation probe replays on a valid device");
                let arrival = ArrivalModel::Pareto {
                    shape: 1.5,
                    mean_iops,
                };
                (
                    vec![TraceKind::WebSqlServer.trace_with_arrival(&scale, arrival)],
                    vec![
                        Pairing {
                            trace: 0,
                            discipline: closed(QUEUE_DEPTH),
                        },
                        Pairing {
                            trace: 0,
                            discipline: ArrivalDiscipline::OpenLoop { rate_scale: 1.0 },
                        },
                    ],
                )
            }
        };
        let pages_per_req = pages_per_request(&traces);
        Replay {
            mode,
            traces,
            pairings,
            config,
            pages_per_req,
        }
    }

    /// Runs every pairing on both FTLs; `[pairing][ftl]`.
    fn run_pairings(
        &self,
        pairings: &[Pairing],
        traced: bool,
        meter: &mut Meter,
    ) -> Vec<[EngineRun; 2]> {
        pairings
            .iter()
            .map(|pairing| {
                let trace = &self.traces[pairing.trace];
                let driver = WorkloadDriver::new(RunOptions::default(), pairing.discipline);
                FtlKind::ALL.map(|kind| {
                    meter.measure(kind, || {
                        with_ftl!(kind, traced, &self.config, |make| drive(
                            make(),
                            driver,
                            trace
                        ))
                    })
                })
            })
            .collect()
    }

    /// Engine self time per request of a traced serial (QD 1) replay of this
    /// workload's first trace, in its own tracer session — the baseline the
    /// calendar overlay is measured against.
    fn serial_self_ns_per_req(&self) -> f64 {
        let pairing = [Pairing {
            trace: 0,
            discipline: ArrivalDiscipline::ClosedLoop { queue_depth: 1 },
        }];
        span::start();
        span::calibrate();
        let runs = self.run_pairings(&pairing, true, &mut Meter::default());
        let report = span::finish();
        let requests: u64 = runs
            .iter()
            .flatten()
            .map(|run| {
                run.summary
                    .as_ref()
                    .map_or(0, |summary| summary.host_requests)
            })
            .sum();
        report.self_ns(&[Name::SimRun]) / requests.max(1) as f64
    }
}

impl Workload for Replay {
    fn rep(&self, traced: bool) -> Rep {
        let mut meter = Meter::default();
        let runs = self.run_pairings(&self.pairings, traced, &mut meter);

        let mut fingerprint = Fingerprint::default();
        let mut totals = [FtlTotals::default(); 2];
        let mut ops = 0u64;
        let mut failed = 0u64;
        let mut measured_pages = 0u64;
        let mut summaries: Vec<[Option<&RunSummary>; 2]> = Vec::new();
        for (pairing, pair) in self.pairings.iter().zip(&runs) {
            let requests = self.traces[pairing.trace].len() as u64;
            let mut row = [None, None];
            for kind in FtlKind::ALL {
                let run = &pair[ftl_index(kind)];
                ops += requests;
                totals[ftl_index(kind)].add_totals(&run.totals);
                match &run.summary {
                    Ok(summary) => {
                        fingerprint.add(summary);
                        failed += summary.uncorrectable_reads
                            + requests.saturating_sub(summary.host_requests);
                        measured_pages += summary.host_reads + summary.host_writes;
                        row[ftl_index(kind)] = Some(summary);
                    }
                    Err(error) => {
                        fingerprint.add(error);
                        failed += requests;
                    }
                }
            }
            summaries.push(row);
        }

        // Headline pairing: serial reports the web-sql QD 1 pair; queued takes
        // throughput from the closed-loop pair and latencies from the open-loop
        // pair (open-loop throughput is just the offered rate).
        let (iops_from, latency_from) = match self.mode {
            Mode::Serial => (0, 0),
            Mode::Queued => (0, 1),
        };
        let mut sim = SimEndToEnd::default();
        let mut layers = ftl_count_layers(&totals, ops);
        if let ([_, Some(saturated)], [Some(conv), Some(ppb)]) =
            (summaries[iops_from], summaries[latency_from])
        {
            let ratio = |variant: vflash_nand::Nanos, baseline: vflash_nand::Nanos| {
                variant.as_nanos() as f64 / baseline.as_nanos() as f64
            };
            sim = SimEndToEnd {
                iops: saturated.request_iops(),
                read_mean_us: ppb.read_latency.mean.as_micros_f64(),
                write_mean_us: ppb.write_latency.mean.as_micros_f64(),
                wa: ppb.write_amplification,
                erases: ppb.erased_blocks as f64,
                ppb_read_lat_ratio: ratio(ppb.read_latency.mean, conv.read_latency.mean),
                ppb_write_lat_ratio: ratio(ppb.write_latency.mean, conv.write_latency.mean),
            };
            layers.extend([
                ("ppb.read_gain_pct", (1.0 - sim.ppb_read_lat_ratio) * 100.0),
                (
                    "ppb.write_gain_pct",
                    (1.0 - sim.ppb_write_lat_ratio) * 100.0,
                ),
                ("sim.read_p999_us", ppb.read_latency.p999.as_micros_f64()),
                ("sim.write_p999_us", ppb.write_latency.p999.as_micros_f64()),
                (
                    "sim.queue_delay_p99_us",
                    ppb.queue_delay.p99.as_micros_f64(),
                ),
                ("sim.service_p99_us", ppb.service_time.p99.as_micros_f64()),
                ("sim.peak_queue_depth", ppb.peak_queue_depth as f64),
                ("sim.busy_arrival_fraction", ppb.busy_arrival_fraction()),
            ]);
        }
        let submits = totals[0].submits + totals[1].submits;
        layers.extend([
            (
                "sim.engine.prefill_submits",
                submits.saturating_sub(measured_pages) as f64,
            ),
            ("trace.pages_per_req", self.pages_per_req),
        ]);
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
        let self_ns_per_req =
            report.self_ns(&[Name::SimRun]) / (traced.rep_count() * traced.ops_per_rep());
        layers.push(("sim.engine.self_ns_per_req", self_ns_per_req));
        // Serial is its own baseline, so its overlay is 0 by construction.
        if self.mode == Mode::Queued {
            layers.push((
                "sim.calendar.overlay_ns_per_req",
                self_ns_per_req - self.serial_self_ns_per_req(),
            ));
        }
        layers.extend(micro::histogram(&report.latencies));
        layers.extend(micro::nand(&self.config));
        layers.extend(micro::trace_generation());
        layers.extend(micro::zipf());
        layers.push(("sim.parallel.grid_speedup", grid_speedup()));
        layers
    }
}

/// `ParallelRunner::new(2)` against `run_serial` on the quick full grid: the
/// only place the benchmark uses a second thread.
fn grid_speedup() -> f64 {
    let grid = ExperimentGrid::full(ExperimentScale::quick());
    let time = |run: &dyn Fn()| {
        let samples: Vec<f64> = (0..3).map(|_| ns_per_call(1, |_| run())).collect();
        median(&samples)
    };
    let serial = time(&|| {
        std::hint::black_box(ParallelRunner::run_serial(&grid).expect("quick grid runs"));
    });
    let parallel = time(&|| {
        std::hint::black_box(ParallelRunner::new(2).run(&grid).expect("quick grid runs"));
    });
    serial / parallel
}
