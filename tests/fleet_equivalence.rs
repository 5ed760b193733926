//! The host-tier contract of the fleet driver.
//!
//! A 1-wide [`Fleet`] with the cache disabled and a single tenant is the
//! single-device engine wearing a different coat: the stripe map is the
//! identity, every request's stripe chain is the engine's dependent chain, and
//! the calendar sees exactly the instants it sees under the engine. Both
//! drivers call the same timing core (`HostCalendar` + `LaneState`), so this
//! suite checks what the fleet adds around it — routing, fan-out, roll-ups —
//! **bit-for-bit** against the engine itself:
//!
//! * the lane's [`RunSummary`] equals a [`WorkloadDriver`] run of the same
//!   trace field for field (the whole struct, not a projection),
//! * the device ends in the identical state (stats, modification clock, every
//!   chip, FTL metrics),
//! * on both FTLs, under closed loop (depth 1 and 8) and open loop (rate 1.0
//!   and 2.0), with and without prefill, and on random traces × random
//!   disciplines via proptest,
//! * and at width 4, lane 0 reports what the engine reports when every
//!   request stripes onto it.

use proptest::prelude::*;

use vflash::fleet::{Fleet, FleetConfig, FleetDriver};
use vflash::ftl::{ConventionalFtl, FlashTranslationLayer, FtlConfig};
use vflash::nand::{ChipId, NandConfig, NandDevice};
use vflash::ppb::{PpbConfig, PpbFtl};
use vflash::sim::{ArrivalDiscipline, RunOptions, WorkloadDriver};
use vflash::trace::synthetic::{self, SkewedParams, SyntheticConfig};
use vflash::trace::{IoOp, IoRequest, Trace};

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

/// The disciplines the ISSUE pins: closed loop at depth 1 (the serial path,
/// op tracing off) and depth 8 (the event-calendar path), open loop at the
/// recorded rate and at 2x.
fn disciplines() -> [ArrivalDiscipline; 4] {
    [
        ArrivalDiscipline::ClosedLoop { queue_depth: 1 },
        ArrivalDiscipline::ClosedLoop { queue_depth: 8 },
        ArrivalDiscipline::OpenLoop { rate_scale: 1.0 },
        ArrivalDiscipline::OpenLoop { rate_scale: 2.0 },
    ]
}

/// Runs the same trace through the engine and through a width-1 cache-off
/// fleet, then asserts the complete contract: lane summary == engine summary
/// (full struct equality), fleet roll-ups consistent with the lane, and the
/// two devices in identical end states.
fn assert_fleet_of_one_reproduces_engine<F: FlashTranslationLayer>(
    make: impl Fn() -> F,
    trace: &Trace,
    options: RunOptions,
    discipline: ArrivalDiscipline,
    context: &str,
) {
    let mut single = make();
    let engine = WorkloadDriver::new(options, discipline).run_mut(&mut single, trace).unwrap();

    let mut fleet = Fleet::new(vec![make()], FleetConfig::default());
    let summary = FleetDriver::new(options, discipline).run_mut(&mut fleet, trace).unwrap();

    // The lane summary is the engine summary, every field.
    assert_eq!(summary.lanes.len(), 1, "{context}: one lane");
    assert_eq!(summary.lanes[0], engine, "{context}: lane RunSummary");

    // The fleet-level roll-ups collapse onto the lane at width 1.
    assert_eq!(summary.width, 1, "{context}: width");
    assert_eq!(summary.host_requests, engine.host_requests, "{context}: host_requests");
    assert_eq!(summary.host_elapsed, engine.host_elapsed, "{context}: host_elapsed");
    assert_eq!(summary.queue_depth, engine.queue_depth, "{context}: queue_depth");
    assert_eq!(summary.mode, engine.mode, "{context}: mode");
    assert_eq!(summary.offered_duration, engine.offered_duration, "{context}: offered_duration");
    assert_eq!(
        summary.peak_queue_depth, engine.peak_queue_depth,
        "{context}: peak_queue_depth"
    );
    assert_eq!(summary.busy_arrivals, engine.busy_arrivals, "{context}: busy_arrivals");
    assert_eq!(
        summary.fanout_read_latency, engine.read_latency,
        "{context}: fan-out read percentiles"
    );
    assert_eq!(
        summary.fanout_write_latency, engine.write_latency,
        "{context}: fan-out write percentiles"
    );
    // At width 1 a request has exactly one stripe, so the two distributions
    // are the same distribution.
    assert_eq!(
        summary.stripe_read_latency, summary.fanout_read_latency,
        "{context}: stripe == fan-out at width 1"
    );
    assert_eq!(
        summary.stripe_write_latency, summary.fanout_write_latency,
        "{context}: stripe == fan-out at width 1"
    );
    // Cache off, single tenant: no cache traffic, one tenant owning everything.
    assert_eq!(summary.cache, Default::default(), "{context}: cache stats stay zero");
    assert_eq!(summary.tenants.len(), 1, "{context}: one tenant");
    assert_eq!(summary.tenants[0].requests, engine.host_requests, "{context}: tenant share");

    // Device-state identity, the same checks the engine-equivalence suite runs.
    let lane = &fleet.lanes()[0];
    let (a, b) = (single.device(), lane.device());
    assert_eq!(a.stats(), b.stats(), "{context}: device stats differ");
    assert_eq!(a.mod_seq(), b.mod_seq(), "{context}: modification clocks differ");
    for chip in 0..a.config().chips() {
        assert_eq!(
            a.chip(ChipId(chip)).unwrap(),
            b.chip(ChipId(chip)).unwrap(),
            "{context}: chip {chip} state differs"
        );
    }
    assert_eq!(single.metrics(), lane.metrics(), "{context}: FTL metrics differ");
}

fn synthetic_traces() -> Vec<Trace> {
    let config = SyntheticConfig {
        requests: 1_000,
        seed: 17,
        working_set_bytes: 2 * 1024 * 1024,
        ..Default::default()
    };
    vec![
        synthetic::media_server(config),
        synthetic::web_sql_server(config),
        synthetic::skewed(
            SyntheticConfig { seed: 43, ..config },
            SkewedParams { zipf_exponent: 1.1, read_ratio: 0.8, ..SkewedParams::default() },
        ),
    ]
}

#[test]
fn fleet_of_one_reproduces_the_engine_on_conventional() {
    for trace in synthetic_traces() {
        for chips in [1usize, 4] {
            for discipline in disciplines() {
                let context = format!(
                    "conventional, {} on {chips} chip(s), {discipline:?}",
                    trace.name()
                );
                assert_fleet_of_one_reproduces_engine(
                    || conventional(chips),
                    &trace,
                    RunOptions::default(),
                    discipline,
                    &context,
                );
            }
        }
    }
}

#[test]
fn fleet_of_one_reproduces_the_engine_on_ppb() {
    for trace in synthetic_traces() {
        for discipline in disciplines() {
            let context = format!("ppb, {} on 4 chips, {discipline:?}", trace.name());
            assert_fleet_of_one_reproduces_engine(
                || ppb(4),
                &trace,
                RunOptions::default(),
                discipline,
                &context,
            );
        }
    }
}

#[test]
fn fleet_of_one_reproduces_the_engine_without_prefill() {
    // Unmapped-read skipping is a separate code path in both drivers; make
    // sure the fleet takes the engine's branch, request for request.
    let options = RunOptions { prefill: false };
    let trace = synthetic::skewed(
        SyntheticConfig {
            requests: 600,
            seed: 5,
            working_set_bytes: 2 * 1024 * 1024,
            ..Default::default()
        },
        SkewedParams { read_ratio: 0.7, ..SkewedParams::default() },
    );
    for discipline in disciplines() {
        assert_fleet_of_one_reproduces_engine(
            || conventional(2),
            &trace,
            options,
            discipline,
            &format!("conventional, no prefill, {discipline:?}"),
        );
        assert_fleet_of_one_reproduces_engine(
            || ppb(2),
            &trace,
            options,
            discipline,
            &format!("ppb, no prefill, {discipline:?}"),
        );
    }
}

/// The width-1 guarantee, carried to a wide fleet: when every request of a
/// width-W trace is a single page at `offset = k * W * page_size`, the stripe
/// map sends all of them to lane 0 at device page `k`, so lane 0 must report
/// exactly what the engine reports for the de-striped trace (`offset = k *
/// page_size`) on one device — the other lanes stay idle and must not leak
/// into lane 0's clocks, histograms or backlog statistics.
#[test]
fn lane_zero_of_a_wide_fleet_reproduces_the_engine_on_the_destriped_trace() {
    const WIDTH: usize = 4;
    const PAGE: u64 = 4096;
    // Page indices past one lane's capacity exercise the wrap on both sides.
    let pages: Vec<(IoOp, u64)> = (0..3_000u64)
        .map(|i| {
            let op = if i % 3 == 0 { IoOp::Write } else { IoOp::Read };
            (op, i * 7919 % 5_000)
        })
        .collect();
    let trace_at = |stride: u64| {
        let requests = pages
            .iter()
            .enumerate()
            .map(|(i, &(op, k))| {
                IoRequest::new(i as u64 * 40_000, op, k * stride * PAGE, PAGE as u32)
            })
            .collect();
        Trace::new("lane-zero", requests)
    };
    let (striped, destriped) = (trace_at(WIDTH as u64), trace_at(1));

    fn check<F: FlashTranslationLayer>(
        make: impl Fn() -> F,
        striped: &Trace,
        destriped: &Trace,
        discipline: ArrivalDiscipline,
        context: &str,
    ) {
        let options = RunOptions::default();
        let mut single = make();
        let engine =
            WorkloadDriver::new(options, discipline).run_mut(&mut single, destriped).unwrap();
        let lanes = (0..WIDTH).map(|_| make()).collect();
        let mut fleet = Fleet::new(lanes, FleetConfig::default());
        let summary = FleetDriver::new(options, discipline).run_mut(&mut fleet, striped).unwrap();
        assert_eq!(summary.lanes[0], engine, "{context}: lane 0 RunSummary");
        assert_eq!(single.metrics(), fleet.lanes()[0].metrics(), "{context}: FTL metrics differ");
        assert_eq!(
            single.device().stats(),
            fleet.lanes()[0].device().stats(),
            "{context}: device stats differ"
        );
        for idle in &summary.lanes[1..] {
            assert_eq!(idle.host_requests, 0, "{context}: only lane 0 is addressed");
        }
    }
    for discipline in [
        ArrivalDiscipline::ClosedLoop { queue_depth: 1 },
        ArrivalDiscipline::ClosedLoop { queue_depth: 8 },
        ArrivalDiscipline::OpenLoop { rate_scale: 1.0 },
    ] {
        let context = format!("conventional, {discipline:?}");
        check(|| conventional(2), &striped, &destriped, discipline, &context);
        check(|| ppb(2), &striped, &destriped, discipline, &format!("ppb, {discipline:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random traces × random chips × random disciplines keep the width-1
    /// bit-identity contract on both FTLs.
    #[test]
    fn fleet_of_one_equivalence_holds_on_random_configs(
        ops in proptest::collection::vec(
            (0u8..2, 0u64..512, 1u32..40_000),
            1..100,
        ),
        chips in 1usize..5,
        depth_or_rate in 0usize..4,
        use_ppb in any::<bool>(),
    ) {
        let requests: Vec<IoRequest> = ops
            .iter()
            .enumerate()
            .map(|(i, &(op, page, len))| {
                let op = if op == 0 { IoOp::Read } else { IoOp::Write };
                IoRequest::new(i as u64 * 1_000, op, page * 4096, len)
            })
            .collect();
        let trace = Trace::new("random", requests);
        let discipline = disciplines()[depth_or_rate];
        let context =
            format!("random, {chips} chip(s), ppb={use_ppb}, {discipline:?}");
        if use_ppb {
            assert_fleet_of_one_reproduces_engine(
                || ppb(chips),
                &trace,
                RunOptions::default(),
                discipline,
                &context,
            );
        } else {
            assert_fleet_of_one_reproduces_engine(
                || conventional(chips),
                &trace,
                RunOptions::default(),
                discipline,
                &context,
            );
        }
    }
}
