//! The contract of the workload-driver engine against an independent model.
//!
//! The engine shares its timing core (`HostCalendar` + `LaneState`) with the
//! fleet driver, so this suite keeps two **independent, trivially simple
//! reference loops** — verbatim copies of the serial and the queued replayer
//! the engine once replaced, sharing no code with it — and proves the engine
//! reproduces them bit-for-bit:
//!
//! * `ClosedLoop { queue_depth: 1 }` ≡ the serial reference — same
//!   `RunSummary` (every pre-refactor field) and same device state,
//! * `ClosedLoop { queue_depth: N }` ≡ the queued reference, same guarantees,
//! * queue depth only overlays timing: device-visible work is depth-invariant,
//!   and depth buys throughput on a multi-chip device,
//! * the open-loop discipline behaves sanely at its limits: `rate_scale → ∞`
//!   converges exactly to closed-loop saturation throughput, and at
//!   `rate_scale = 1` it reports queueing delay and service time separately
//!   with achieved IOPS ≤ offered IOPS,
//! * and golden fingerprints pin the simulated numbers themselves.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use vflash::ftl::{
    ConventionalFtl, FlashTranslationLayer, FtlConfig, FtlError, IoRequest as FtlRequest, Lpn,
};
use vflash::nand::{ChipId, NandConfig, NandDevice, Nanos};
use vflash::ppb::{PpbConfig, PpbFtl};
use vflash::sim::{ArrivalDiscipline, LatencyHistogram, RunOptions, RunSummary, WorkloadDriver};
use vflash::trace::synthetic::{self, ArrivalModel, SkewedParams, SyntheticConfig};
use vflash::trace::{IoOp, Trace};

fn device(chips: usize) -> NandDevice {
    NandDevice::new(
        NandConfig::builder()
            .chips(chips)
            .blocks_per_chip(48)
            .pages_per_block(16)
            .page_size_bytes(4096)
            .speed_ratio(4.0)
            .build()
            .unwrap(),
    )
}

fn conventional(chips: usize) -> ConventionalFtl {
    ConventionalFtl::new(device(chips), FtlConfig::default()).unwrap()
}

fn ppb(chips: usize) -> PpbFtl {
    PpbFtl::new(device(chips), PpbConfig::default()).unwrap()
}

/// The pre-refactor prefill pass (identical semantics to the engine's: every
/// touched page written once in ascending order as a 1 MiB request, skipped for
/// read-free traces).
fn reference_prefill<F: FlashTranslationLayer + ?Sized>(
    ftl: &mut F,
    trace: &Trace,
) -> Result<(), FtlError> {
    if !trace.iter().any(|request| request.op == IoOp::Read) {
        return Ok(());
    }
    let page_size = ftl.device().config().page_size_bytes();
    let logical_pages = ftl.logical_pages();
    let mut touched: Vec<bool> = vec![false; logical_pages as usize];
    for request in trace {
        for page in request.logical_pages(page_size) {
            touched[(page % logical_pages) as usize] = true;
        }
    }
    for (page, touched) in touched.iter().enumerate() {
        if *touched {
            ftl.write(Lpn(page as u64), 1 << 20)?;
        }
    }
    Ok(())
}

fn chip_busy_times<F: FlashTranslationLayer + ?Sized>(ftl: &F) -> Vec<Nanos> {
    let device = ftl.device();
    (0..device.config().chips())
        .map(|chip| device.chip_busy_time(ChipId(chip)).unwrap())
        .collect()
}

fn makespan_delta<F: FlashTranslationLayer + ?Sized>(ftl: &F, start: &[Nanos]) -> Nanos {
    chip_busy_times(ftl)
        .iter()
        .zip(start)
        .map(|(&end, &begin)| end.saturating_sub(begin))
        .max()
        .unwrap_or(Nanos::ZERO)
}

/// A verbatim re-implementation of the pre-refactor **serial** replayer
/// (its `run_mut` as of the queue-depth PR): scalar `read`/`write` calls,
/// no op tracing, per-request latency = serial sum of page latencies.
fn reference_serial<F: FlashTranslationLayer + ?Sized>(
    ftl: &mut F,
    trace: &Trace,
    options: RunOptions,
) -> Result<RunSummary, FtlError> {
    let page_size = ftl.device().config().page_size_bytes();
    let logical_pages = ftl.logical_pages();
    if options.prefill {
        reference_prefill(ftl, trace)?;
    }
    let start = *ftl.metrics();
    let busy_start = chip_busy_times(ftl);
    let mut read_latencies = LatencyHistogram::new();
    let mut write_latencies = LatencyHistogram::new();
    let mut elapsed = Nanos::ZERO;
    let mut requests = 0u64;
    for request in trace {
        let mut latency = Nanos::ZERO;
        for page in request.logical_pages(page_size) {
            let lpn = Lpn(page % logical_pages);
            match request.op {
                IoOp::Write => latency += ftl.write(lpn, request.length)?,
                IoOp::Read => match ftl.read(lpn) {
                    Ok(page_latency) => latency += page_latency,
                    Err(FtlError::UnmappedRead { .. }) if !options.prefill => {}
                    Err(err) => return Err(err),
                },
            }
        }
        match request.op {
            IoOp::Read => read_latencies.record(latency),
            IoOp::Write => write_latencies.record(latency),
        }
        elapsed += latency;
        requests += 1;
    }
    let end = *ftl.metrics();
    let mut summary = RunSummary::from_metrics_delta(ftl.name(), trace.name(), &start, &end);
    summary.device_makespan = makespan_delta(ftl, &busy_start);
    summary.queue_depth = 1;
    summary.host_requests = requests;
    summary.host_elapsed = elapsed;
    summary.read_latency = read_latencies.percentiles();
    summary.write_latency = write_latencies.percentiles();
    Ok(summary)
}

/// A verbatim re-implementation of the pre-refactor **queued** replayer
/// (its `run_mut`): op tracing on, per-chip ready clocks, a binary
/// heap of in-flight completions handing out queue slots.
fn reference_queued<F: FlashTranslationLayer + ?Sized>(
    ftl: &mut F,
    trace: &Trace,
    options: RunOptions,
    queue_depth: usize,
) -> Result<RunSummary, FtlError> {
    let page_size = ftl.device().config().page_size_bytes();
    let logical_pages = ftl.logical_pages();
    if options.prefill {
        reference_prefill(ftl, trace)?;
    }
    ftl.device_mut().set_op_tracing(true);
    let start = *ftl.metrics();
    let busy_start = chip_busy_times(ftl);
    let chips = ftl.device().config().chips();
    let mut chip_ready = vec![Nanos::ZERO; chips];
    let mut in_flight: BinaryHeap<Reverse<Nanos>> = BinaryHeap::with_capacity(queue_depth);
    let mut read_latencies = LatencyHistogram::new();
    let mut write_latencies = LatencyHistogram::new();
    let mut clock = Nanos::ZERO;
    let mut last_completion = Nanos::ZERO;
    let mut requests = 0u64;
    for request in trace {
        if in_flight.len() == queue_depth {
            let Reverse(freed) = in_flight.pop().unwrap();
            if freed > clock {
                clock = freed;
            }
        }
        let issue = clock;
        let mut now = issue;
        for page in request.logical_pages(page_size) {
            let lpn = Lpn(page % logical_pages);
            let completion = match request.op {
                IoOp::Write => ftl.submit(FtlRequest::write(lpn, request.length))?,
                IoOp::Read => match ftl.submit(FtlRequest::read(lpn)) {
                    Ok(completion) => completion,
                    Err(FtlError::UnmappedRead { .. }) if !options.prefill => continue,
                    Err(err) => return Err(err),
                },
            };
            // The pre-refactor loop consumed per-request `Vec<OpRecord>`s; the
            // FTL API now hands out spans into the device's op arena, so the
            // reference resolves the span and releases the arena — the timing
            // arithmetic is untouched.
            for op in ftl.device().ops(completion.ops) {
                let ready = chip_ready[op.chip.0];
                let op_start = if ready > now { ready } else { now };
                now = op_start + op.latency;
                chip_ready[op.chip.0] = now;
            }
            ftl.device_mut().clear_ops();
        }
        let latency = now.saturating_sub(issue);
        match request.op {
            IoOp::Read => read_latencies.record(latency),
            IoOp::Write => write_latencies.record(latency),
        }
        if now > last_completion {
            last_completion = now;
        }
        in_flight.push(Reverse(now));
        requests += 1;
    }
    let end = *ftl.metrics();
    ftl.device_mut().set_op_tracing(false);
    let mut summary = RunSummary::from_metrics_delta(ftl.name(), trace.name(), &start, &end);
    summary.device_makespan = makespan_delta(ftl, &busy_start);
    summary.queue_depth = queue_depth;
    summary.host_requests = requests;
    summary.host_elapsed = last_completion;
    summary.read_latency = read_latencies.percentiles();
    summary.write_latency = write_latencies.percentiles();
    Ok(summary)
}

/// Asserts the pre-refactor summary fields and the complete device state match.
/// (The engine adds new fields — queue delay, service time, mode — that the
/// references never produced; they are checked by the engine's own tests.)
fn assert_reproduces_reference(
    reference: (&RunSummary, &dyn FlashTranslationLayer),
    engine: (&RunSummary, &dyn FlashTranslationLayer),
    context: &str,
) {
    let (r, e) = (reference.0, engine.0);
    assert_eq!(r.ftl, e.ftl, "{context}: ftl name");
    assert_eq!(r.trace, e.trace, "{context}: trace name");
    assert_eq!(r.host_reads, e.host_reads, "{context}: host_reads");
    assert_eq!(r.host_writes, e.host_writes, "{context}: host_writes");
    assert_eq!(r.read_time, e.read_time, "{context}: read_time");
    assert_eq!(r.write_time, e.write_time, "{context}: write_time");
    assert_eq!(r.mean_read_latency, e.mean_read_latency, "{context}: mean_read_latency");
    assert_eq!(r.mean_write_latency, e.mean_write_latency, "{context}: mean_write_latency");
    assert_eq!(r.erased_blocks, e.erased_blocks, "{context}: erased_blocks");
    assert_eq!(r.gc_copied_pages, e.gc_copied_pages, "{context}: gc_copied_pages");
    assert_eq!(r.migrated_pages, e.migrated_pages, "{context}: migrated_pages");
    assert_eq!(r.write_amplification, e.write_amplification, "{context}: WAF");
    assert_eq!(r.device_makespan, e.device_makespan, "{context}: device_makespan");
    assert_eq!(r.queue_depth, e.queue_depth, "{context}: queue_depth");
    assert_eq!(r.host_requests, e.host_requests, "{context}: host_requests");
    assert_eq!(r.host_elapsed, e.host_elapsed, "{context}: host_elapsed");
    assert_eq!(r.read_latency, e.read_latency, "{context}: read percentiles");
    assert_eq!(r.write_latency, e.write_latency, "{context}: write percentiles");

    let (a, b) = (reference.1.device(), engine.1.device());
    assert_eq!(a.stats(), b.stats(), "{context}: device stats differ");
    assert_eq!(a.mod_seq(), b.mod_seq(), "{context}: modification clocks differ");
    for chip in 0..a.config().chips() {
        assert_eq!(
            a.chip(ChipId(chip)).unwrap(),
            b.chip(ChipId(chip)).unwrap(),
            "{context}: chip {chip} state differs"
        );
    }
    assert_eq!(reference.1.metrics(), engine.1.metrics(), "{context}: FTL metrics differ");
}

fn synthetic_traces() -> Vec<Trace> {
    let config = SyntheticConfig {
        requests: 1_500,
        seed: 7,
        working_set_bytes: 2 * 1024 * 1024,
        ..Default::default()
    };
    vec![
        synthetic::media_server(config),
        synthetic::web_sql_server(config),
        synthetic::skewed(config, SkewedParams::default()),
        synthetic::skewed(
            SyntheticConfig { seed: 91, ..config },
            SkewedParams { zipf_exponent: 1.2, read_ratio: 0.85, ..SkewedParams::default() },
        ),
    ]
}

#[test]
fn closed_loop_depth_1_reproduces_the_pre_refactor_serial_replayer() {
    for trace in synthetic_traces() {
        for chips in [1usize, 4] {
            let context = format!("serial, {} on {chips} chip(s)", trace.name());
            let mut reference_ftl = conventional(chips);
            let mut engine_ftl = conventional(chips);
            let reference =
                reference_serial(&mut reference_ftl, &trace, RunOptions::default()).unwrap();
            let engine = WorkloadDriver::closed_loop(RunOptions::default(), 1)
                .run_mut(&mut engine_ftl, &trace)
                .unwrap();
            assert_reproduces_reference(
                (&reference, &reference_ftl),
                (&engine, &engine_ftl),
                &format!("conventional, {context}"),
            );

            let mut reference_ppb = ppb(chips);
            let mut engine_ppb = ppb(chips);
            let reference =
                reference_serial(&mut reference_ppb, &trace, RunOptions::default()).unwrap();
            let engine = WorkloadDriver::closed_loop(RunOptions::default(), 1)
                .run_mut(&mut engine_ppb, &trace)
                .unwrap();
            assert_reproduces_reference(
                (&reference, &reference_ppb),
                (&engine, &engine_ppb),
                &format!("ppb, {context}"),
            );
        }
    }
}

#[test]
fn closed_loop_depth_n_reproduces_the_pre_refactor_queued_replayer() {
    for trace in synthetic_traces() {
        for depth in [2usize, 8, 64] {
            let context = format!("queued QD{depth}, {} on 4 chips", trace.name());
            let mut reference_ftl = conventional(4);
            let mut engine_ftl = conventional(4);
            let reference =
                reference_queued(&mut reference_ftl, &trace, RunOptions::default(), depth)
                    .unwrap();
            let engine = WorkloadDriver::closed_loop(RunOptions::default(), depth)
                .run_mut(&mut engine_ftl, &trace)
                .unwrap();
            assert_reproduces_reference(
                (&reference, &reference_ftl),
                (&engine, &engine_ftl),
                &format!("conventional, {context}"),
            );

            let mut reference_ppb = ppb(4);
            let mut engine_ppb = ppb(4);
            let reference =
                reference_queued(&mut reference_ppb, &trace, RunOptions::default(), depth)
                    .unwrap();
            let engine = WorkloadDriver::closed_loop(RunOptions::default(), depth)
                .run_mut(&mut engine_ppb, &trace)
                .unwrap();
            assert_reproduces_reference(
                (&reference, &reference_ppb),
                (&engine, &engine_ppb),
                &format!("ppb, {context}"),
            );
        }
    }
}

#[test]
fn no_prefill_paths_also_reproduce_the_references() {
    // Unmapped-read skipping is a separate code path in the engine.
    let options = RunOptions { prefill: false };
    let trace = synthetic::skewed(
        SyntheticConfig {
            requests: 800,
            seed: 3,
            working_set_bytes: 2 * 1024 * 1024,
            ..Default::default()
        },
        SkewedParams { read_ratio: 0.7, ..SkewedParams::default() },
    );
    let mut reference_ftl = conventional(2);
    let mut engine_ftl = conventional(2);
    let reference = reference_serial(&mut reference_ftl, &trace, options).unwrap();
    let engine = WorkloadDriver::closed_loop(options, 1).run_mut(&mut engine_ftl, &trace).unwrap();
    assert_reproduces_reference(
        (&reference, &reference_ftl),
        (&engine, &engine_ftl),
        "serial, no prefill",
    );

    let mut reference_ftl = conventional(2);
    let mut engine_ftl = conventional(2);
    let reference = reference_queued(&mut reference_ftl, &trace, options, 8).unwrap();
    let engine = WorkloadDriver::closed_loop(options, 8).run_mut(&mut engine_ftl, &trace).unwrap();
    assert_reproduces_reference(
        (&reference, &reference_ftl),
        (&engine, &engine_ftl),
        "queued QD8, no prefill",
    );
}

/// The acceptance criterion for the open-loop limit: with arrivals compressed to
/// (effectively) time zero, nothing bounds the outstanding requests, so the
/// open-loop overlay packs work exactly like a closed loop whose depth covers the
/// whole trace — saturation throughput, identically.
#[test]
fn open_loop_at_infinite_rate_converges_to_closed_loop_saturation() {
    let trace = synthetic::skewed(
        SyntheticConfig {
            requests: 2_000,
            seed: 11,
            working_set_bytes: 4 * 1024 * 1024,
            ..Default::default()
        },
        SkewedParams { read_ratio: 0.9, ..SkewedParams::default() },
    );
    // Scale larger than any arrival timestamp: every scaled arrival rounds to 0.
    let infinite = 1e18;
    let open = WorkloadDriver::open_loop(RunOptions::default(), infinite)
        .run(conventional(8), &trace)
        .unwrap();
    let saturated = WorkloadDriver::closed_loop(RunOptions::default(), trace.len())
        .run(conventional(8), &trace)
        .unwrap();
    assert_eq!(
        open.host_elapsed, saturated.host_elapsed,
        "all-at-once arrivals must pack exactly like an unbounded closed loop"
    );
    assert_eq!(open.read_latency, saturated.read_latency);
    assert_eq!(open.device_makespan, saturated.device_makespan);
    assert!((open.request_iops() - saturated.request_iops()).abs() < 1e-6);
}

/// The acceptance criterion for the paper-facing open-loop run: at the trace's
/// recorded rate, queueing delay and service time are reported separately and the
/// device cannot serve more than it is offered.
#[test]
fn open_loop_at_unit_rate_reports_the_queueing_split() {
    let scale_cfg = SyntheticConfig {
        requests: 4_000,
        seed: 21,
        working_set_bytes: 8 * 1024 * 1024,
        ..Default::default()
    };
    let trace = synthetic::web_sql_server(scale_cfg);
    for chips in [1usize, 4] {
        let summary = WorkloadDriver::open_loop(RunOptions::default(), 1.0)
            .run(conventional(chips), &trace)
            .unwrap();
        assert!(summary.offered_iops() > 0.0, "{chips} chips: offered rate recorded");
        assert!(
            summary.request_iops() <= summary.offered_iops(),
            "{chips} chips: achieved {} exceeds offered {}",
            summary.request_iops(),
            summary.offered_iops()
        );
        assert!(summary.service_time.p50 > Nanos::ZERO, "{chips} chips: service reported");
        // Per request the decomposition is exact (response = delay + service), so
        // no response latency can exceed the worst delay plus the worst service.
        let bound = summary.queue_delay.max + summary.service_time.max;
        let worst_response = summary.read_latency.max.max(summary.write_latency.max);
        assert!(
            worst_response <= bound,
            "{chips} chips: response max {worst_response} escapes the split bound {bound}"
        );
        assert!(summary.host_elapsed >= summary.offered_duration);
    }
}

/// The queue-depth acceptance criterion: on an 8-chip device, QD 64 beats QD 1 on
/// a read-heavy trace, and the percentile fields are populated.
#[test]
fn qd64_on_8_chips_outruns_qd1_on_a_read_heavy_trace() {
    let trace = synthetic::skewed(
        SyntheticConfig {
            requests: 4_000,
            seed: 11,
            working_set_bytes: 4 * 1024 * 1024,
            ..Default::default()
        },
        SkewedParams {
            read_ratio: 0.9,
            min_request_bytes: 4096,
            max_request_bytes: 4096,
            ..SkewedParams::default()
        },
    );
    let at_depth = |depth| {
        WorkloadDriver::closed_loop(RunOptions::default(), depth)
            .run(conventional(8), &trace)
            .unwrap()
    };
    let (qd1, qd64) = (at_depth(1), at_depth(64));

    assert_eq!(qd1.queue_depth, 1);
    assert_eq!(qd64.queue_depth, 64);
    // Same device work at both depths; only the timing overlay differs.
    assert_eq!(qd1.host_reads, qd64.host_reads);
    assert_eq!(qd1.erased_blocks, qd64.erased_blocks);
    assert!(
        qd64.request_iops() > qd1.request_iops() * 2.0,
        "QD64 should clearly outrun QD1 on 8 chips: {} vs {} IOPS",
        qd64.request_iops(),
        qd1.request_iops()
    );
    for summary in [&qd1, &qd64] {
        let read = &summary.read_latency;
        assert!(read.p50 > vflash::nand::Nanos::ZERO);
        assert!(read.p50 <= read.p95 && read.p95 <= read.p99 && read.p99 <= read.max);
        assert!(summary.request_iops() > 0.0);
    }
    // Depth trades tail latency for throughput.
    assert!(qd64.read_latency.p99 >= qd1.read_latency.p99);
}

/// The simulated numbers of one engine run that a restructuring of the drive
/// loop must not move: the latency split, the replay clock, the flash wear and
/// the backlog statistics.
#[derive(Debug, PartialEq)]
struct TimingFingerprint {
    /// Read mean, read p99.9, write mean, write p99.9, queue-delay p99,
    /// `host_elapsed`.
    nanos: [u64; 6],
    erased_blocks: u64,
    gc_copied_pages: u64,
    peak_queue_depth: usize,
    busy_arrivals: u64,
}

fn timing_fingerprint(summary: &RunSummary) -> TimingFingerprint {
    let (read, write) = (&summary.read_latency, &summary.write_latency);
    TimingFingerprint {
        nanos: [
            read.mean.0,
            read.p999.0,
            write.mean.0,
            write.p999.0,
            summary.queue_delay.p99.0,
            summary.host_elapsed.0,
        ],
        erased_blocks: summary.erased_blocks,
        gc_copied_pages: summary.gc_copied_pages,
        peak_queue_depth: summary.peak_queue_depth,
        busy_arrivals: summary.busy_arrivals,
    }
}

/// Golden values captured on the parent commit, where the engine and the fleet
/// each carried their own copy of the timing rule: "simulated results
/// unchanged" is a tier-1 assertion here, not only a benchmark fingerprint.
/// One write-heavy web/SQL trace (enough churn to garbage-collect) on 4 chips,
/// both FTLs, under the scalar QD-1 path, the calendar path at QD 16 and open
/// loop at the trace's own clock (bursty Pareto arrivals at about two thirds of
/// the device's saturation rate, so some arrivals queue and some find it idle).
#[test]
fn engine_summaries_match_the_golden_fingerprint() {
    let golden = |nanos, erased_blocks, gc_copied_pages, peak_queue_depth, busy_arrivals| {
        TimingFingerprint { nanos, erased_blocks, gc_copied_pages, peak_queue_depth, busy_arrivals }
    };
    let closed = |queue_depth| ArrivalDiscipline::ClosedLoop { queue_depth };
    let cases = [
        (
            closed(1),
            golden([280048, 718645, 3734196, 24117247, 0, 11258643975], 975, 1480, 1, 0),
            golden([279450, 789695, 4248625, 26214399, 0, 12683223745], 1107, 3606, 1, 0),
        ),
        (
            closed(16),
            golden(
                [23264478, 69206015, 30068871, 75497471, 61865983, 9921309065],
                975,
                1480,
                16,
                5999,
            ),
            golden(
                [28957796, 92274687, 33923452, 96468991, 71303167, 11729846245],
                1107,
                3606,
                16,
                5999,
            ),
        ),
        (
            ArrivalDiscipline::OpenLoop { rate_scale: 1.0 },
            golden(
                [11161682, 73400319, 17163705, 83068955, 58720255, 14016536454],
                975,
                1480,
                36,
                4404,
            ),
            golden(
                [55203848, 230686719, 59123260, 239075327, 218103807, 14191351417],
                1107,
                3606,
                102,
                5069,
            ),
        ),
    ];
    let trace = synthetic::web_sql_server(SyntheticConfig {
        requests: 6_000,
        seed: 29,
        working_set_bytes: 8 * 1024 * 1024,
        arrival: ArrivalModel::Pareto { shape: 1.5, mean_iops: 400.0 },
    });
    for (discipline, conventional_golden, ppb_golden) in cases {
        let driver = WorkloadDriver::new(RunOptions::default(), discipline);
        let summary = driver.run(conventional(4), &trace).unwrap();
        assert_eq!(
            timing_fingerprint(&summary),
            conventional_golden,
            "conventional, {discipline:?}"
        );
        let summary = driver.run(ppb(4), &trace).unwrap();
        assert_eq!(timing_fingerprint(&summary), ppb_golden, "PPB, {discipline:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random traces keep the serial bit-identity contract.
    #[test]
    fn serial_reference_equivalence_holds_on_random_traces(
        ops in proptest::collection::vec(
            (0u8..2, 0u64..512, 1u32..40_000),
            1..100,
        ),
        chips in 1usize..5,
    ) {
        let requests: Vec<vflash::trace::IoRequest> = ops
            .iter()
            .enumerate()
            .map(|(i, &(op, page, len))| {
                let op = if op == 0 { IoOp::Read } else { IoOp::Write };
                vflash::trace::IoRequest::new(i as u64 * 1_000, op, page * 4096, len)
            })
            .collect();
        let trace = Trace::new("random", requests);
        let mut reference_ftl = conventional(chips);
        let mut engine_ftl = conventional(chips);
        let reference = reference_serial(&mut reference_ftl, &trace, RunOptions::default()).unwrap();
        let engine = WorkloadDriver::closed_loop(RunOptions::default(), 1)
            .run_mut(&mut engine_ftl, &trace)
            .unwrap();
        prop_assert_eq!(&reference.read_latency, &engine.read_latency);
        prop_assert_eq!(reference.host_elapsed, engine.host_elapsed);
        prop_assert_eq!(reference.host_requests, engine.host_requests);
        prop_assert_eq!(reference_ftl.device().stats(), engine_ftl.device().stats());
        for chip in 0..chips {
            prop_assert_eq!(
                reference_ftl.device().chip(ChipId(chip)).unwrap(),
                engine_ftl.device().chip(ChipId(chip)).unwrap()
            );
        }
    }

    /// Random traces × random queue depths keep the queued bit-identity
    /// contract: the one-heap event calendar reproduces the pre-refactor
    /// two-structure loop (slot heap + per-chip clocks) on arbitrary configs,
    /// including complete device state, for both FTLs.
    #[test]
    fn queued_reference_equivalence_holds_on_random_configs(
        ops in proptest::collection::vec(
            (0u8..2, 0u64..512, 1u32..40_000),
            1..100,
        ),
        chips in 1usize..5,
        depth in 2usize..32,
        use_ppb in any::<bool>(),
    ) {
        let requests: Vec<vflash::trace::IoRequest> = ops
            .iter()
            .enumerate()
            .map(|(i, &(op, page, len))| {
                let op = if op == 0 { IoOp::Read } else { IoOp::Write };
                vflash::trace::IoRequest::new(i as u64 * 1_000, op, page * 4096, len)
            })
            .collect();
        let trace = Trace::new("random", requests);
        let context = format!("random queued QD{depth}, {chips} chip(s), ppb={use_ppb}");
        if use_ppb {
            let mut reference_ftl = ppb(chips);
            let mut engine_ftl = ppb(chips);
            let reference =
                reference_queued(&mut reference_ftl, &trace, RunOptions::default(), depth)
                    .unwrap();
            let engine = WorkloadDriver::closed_loop(RunOptions::default(), depth)
                .run_mut(&mut engine_ftl, &trace)
                .unwrap();
            assert_reproduces_reference(
                (&reference, &reference_ftl),
                (&engine, &engine_ftl),
                &context,
            );
        } else {
            let mut reference_ftl = conventional(chips);
            let mut engine_ftl = conventional(chips);
            let reference =
                reference_queued(&mut reference_ftl, &trace, RunOptions::default(), depth)
                    .unwrap();
            let engine = WorkloadDriver::closed_loop(RunOptions::default(), depth)
                .run_mut(&mut engine_ftl, &trace)
                .unwrap();
            assert_reproduces_reference(
                (&reference, &reference_ftl),
                (&engine, &engine_ftl),
                &context,
            );
        }
    }

    /// At any rate scale, open loop preserves device-state evolution and the
    /// offered/achieved ordering; only timing shifts.
    #[test]
    fn open_loop_preserves_device_state_at_any_rate(
        rate_milli in 100u64..10_000, // 0.1x .. 10x
        seed in 0u64..500,
    ) {
        let rate_scale = rate_milli as f64 / 1000.0;
        let trace = synthetic::skewed(
            SyntheticConfig {
                requests: 300,
                seed,
                working_set_bytes: 1024 * 1024,
                ..Default::default()
            },
            SkewedParams::default(),
        );
        let closed = WorkloadDriver::closed_loop(RunOptions::default(), 1)
            .run(conventional(4), &trace)
            .unwrap();
        let open = WorkloadDriver::open_loop(RunOptions::default(), rate_scale)
            .run(conventional(4), &trace)
            .unwrap();
        prop_assert_eq!(closed.host_reads, open.host_reads);
        prop_assert_eq!(closed.host_writes, open.host_writes);
        prop_assert_eq!(closed.read_time, open.read_time);
        prop_assert_eq!(closed.write_time, open.write_time);
        prop_assert_eq!(closed.erased_blocks, open.erased_blocks);
        prop_assert_eq!(closed.device_makespan, open.device_makespan);
        // The response decomposition never loses time, and the replay clock runs
        // at least as long as the arrival clock.
        prop_assert!(open.request_iops() <= open.offered_iops());
        prop_assert!(open.host_elapsed >= open.offered_duration);
        prop_assert!(open.host_elapsed >= open.device_makespan);
    }

    /// At any depth, device-visible work is identical to the serial replay; only
    /// timing differs. (The timing overlay must never change what the FTL does.)
    #[test]
    fn any_depth_preserves_device_state_evolution(
        depth in 1usize..80,
        seed in 0u64..1_000,
    ) {
        let trace = synthetic::skewed(
            SyntheticConfig {
                requests: 300,
                seed,
                working_set_bytes: 1024 * 1024,
                ..Default::default()
            },
            SkewedParams::default(),
        );
        let serial = WorkloadDriver::closed_loop(RunOptions::default(), 1)
            .run(conventional(4), &trace)
            .unwrap();
        let queued = WorkloadDriver::closed_loop(RunOptions::default(), depth)
            .run(conventional(4), &trace)
            .unwrap();
        prop_assert_eq!(serial.host_reads, queued.host_reads);
        prop_assert_eq!(serial.host_writes, queued.host_writes);
        prop_assert_eq!(serial.read_time, queued.read_time);
        prop_assert_eq!(serial.write_time, queued.write_time);
        prop_assert_eq!(serial.erased_blocks, queued.erased_blocks);
        prop_assert_eq!(serial.device_makespan, queued.device_makespan);
        // The overlay is bounded below by the busiest chip and above by the
        // serial sum.
        prop_assert!(queued.host_elapsed >= queued.device_makespan);
        prop_assert!(queued.host_elapsed <= serial.host_elapsed);
    }
}
