//! The workload-driver engine: trace replay against one device.
//!
//! [`WorkloadDriver`] replays a [`Trace`](vflash_trace::Trace) against any
//! [`FlashTranslationLayer`] under an [`ArrivalDiscipline`]:
//!
//! * [`ArrivalDiscipline::ClosedLoop`] — keep `queue_depth` requests in flight;
//!   a request is issued when the earliest in-flight request completes. Depth 1
//!   is the paper's serial replay (per-request latency = serial sum of page
//!   latencies).
//! * [`ArrivalDiscipline::OpenLoop`] — issue each request at its trace-recorded
//!   arrival time (`at_nanos`, scaled by `rate_scale`), queueing on the device
//!   when it is busy. This is what exposes *latency under load*: response time
//!   decomposes into **queueing delay** (time spent waiting for busy chips) and
//!   **service time** (time the device actually worked), reported separately in
//!   the [`RunSummary`], together with offered vs achieved IOPS.
//!
//! # One driver, two replay targets
//!
//! The replay rule — issue → retire → dependent page chain against per-chip
//! clocks → per-request latency split — exists once in this crate, in two
//! halves: [`HostCalendar`] decides *when* a request is issued and keeps the
//! heap of pending completions (`calendar.rs`); [`LaneState`] plays the
//! request's pages against one device's chip clocks, records the latency split
//! and assembles the [`RunSummary`] (`lane.rs`, which also documents the op
//! overlay). [`WorkloadDriver`] holds the options and the discipline, and hands
//! them to whatever it replays against — a [`Replay`] target. Every
//! [`FlashTranslationLayer`] is one: one calendar, **one lane**, one chain per
//! request. `vflash-fleet`'s `Fleet` is the other: one calendar, N lanes, one
//! chain per lane a request touches, request completion at the max over its
//! chains. `tests/fleet_equivalence.rs` checks that a lane of a fleet reports
//! what one device reports for the same requests, and
//! `tests/engine_equivalence.rs` checks the device replay against two
//! independent, trivially simple reference loops.
//!
//! FTL state (mapping tables, GC, hot/cold areas) evolves in **trace order**
//! regardless of discipline — requests are submitted to the FTL one after another
//! and only the timing is overlaid. This keeps device state identical across
//! queue depths and rate scales, so throughput and latency differences are
//! attributable to queuing alone. Per-op provenance comes from
//! [`submit`](vflash_ftl::FlashTranslationLayer::submit) completions with
//! [op tracing](vflash_nand::NandDevice::set_op_tracing) enabled; completions
//! carry [`OpSpan`](vflash_nand::OpSpan)s into the device's op arena rather
//! than per-request vectors, so the traced hot path performs no allocation per
//! request.
//!
//! # The scalar fast path
//!
//! At closed-loop depth 1 every `max` of the op overlay resolves to the running
//! clock, so the overlay is unnecessary; the engine then runs with tracing off
//! and charges each page's completion latency serially. Depth 1 additionally
//! needs no event bookkeeping at all (the next request issues exactly at the
//! previous completion, so no arrival ever finds the system busy), and the
//! engine runs it as a pure scalar-clock loop that only borrows the lane's
//! histograms and summary assembly.

use vflash_ftl::{FlashTranslationLayer, FtlError, IoRequest as FtlRequest, Lpn};
use vflash_nand::Nanos;
use vflash_trace::{IoOp, PageSplitter, TraceSlice};

use crate::calendar::{HostCalendar, Issue};
use crate::lane::{prefill, LaneState, PageChain};
use crate::report::RunSummary;

/// Options controlling how a trace is replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Write every logical page the trace will ever touch once before replay starts,
    /// so that reads of data the trace never wrote behave like reads of pre-existing
    /// data instead of errors. The warm-up traffic is excluded from the reported
    /// summary. Enabled by default.
    ///
    /// The warm-up exists to serve reads, so a trace containing no read at all skips
    /// it even when this flag is set: the replay then runs against a fresh device.
    /// Callers who want a write-only workload measured on a preconditioned device
    /// should age the device explicitly (replay a fill trace first via
    /// [`WorkloadDriver::run_mut`]).
    pub prefill: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { prefill: true }
    }
}

/// How the engine decides *when* each trace request is issued to the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalDiscipline {
    /// Saturation replay: keep up to `queue_depth` host requests in flight; the
    /// next request is issued the moment the earliest in-flight one completes.
    /// Arrival timestamps in the trace are ignored. Depth 1 is the classic serial
    /// replay.
    ClosedLoop {
        /// Maximum host requests in flight (at least 1).
        queue_depth: usize,
    },
    /// Arrival-time replay: each request is issued at its trace-recorded
    /// `at_nanos` divided by `rate_scale`, and queues on the device when chips
    /// are busy. `rate_scale = 1.0` offers exactly the trace's recorded load;
    /// `2.0` compresses arrivals to twice the offered rate; `0.5` halves it.
    OpenLoop {
        /// Multiplier on the trace's offered arrival rate (positive and finite).
        rate_scale: f64,
    },
}

impl ArrivalDiscipline {
    /// Whether this discipline needs per-op provenance (chips + latencies) from
    /// the FTL. Closed-loop depth 1 degenerates to serial accumulation, where the
    /// overlay is pure overhead.
    #[inline]
    pub fn needs_op_tracing(self) -> bool {
        match self {
            ArrivalDiscipline::ClosedLoop { queue_depth } => queue_depth > 1,
            ArrivalDiscipline::OpenLoop { .. } => true,
        }
    }

    /// Rejects parameters no run can use.
    ///
    /// # Errors
    ///
    /// [`FtlError::InvalidConfig`] on a zero queue depth or a
    /// non-positive/non-finite rate scale.
    pub fn validate(self) -> Result<(), FtlError> {
        let reason = match self {
            ArrivalDiscipline::ClosedLoop { queue_depth: 0 } => "queue depth must be at least 1",
            ArrivalDiscipline::OpenLoop { rate_scale }
                if !(rate_scale.is_finite() && rate_scale > 0.0) =>
            {
                "rate scale must be positive and finite"
            }
            _ => return Ok(()),
        };
        Err(FtlError::InvalidConfig { reason: reason.to_string() })
    }
}

/// What a [`WorkloadDriver`] replays a trace against: every
/// [`FlashTranslationLayer`] (one device, reported as a [`RunSummary`]) and
/// `vflash-fleet`'s `Fleet` (N striped devices, reported as a `FleetSummary`).
pub trait Replay {
    /// What one replay reports.
    type Summary;

    /// Replays `trace` against `self` under `driver`'s options and discipline.
    ///
    /// # Errors
    ///
    /// Propagates FTL errors.
    fn replay(
        &mut self,
        driver: &WorkloadDriver,
        trace: TraceSlice<'_>,
    ) -> Result<Self::Summary, FtlError>;
}

/// The workload driver: replays a [`Trace`](vflash_trace::Trace) against any
/// [`Replay`] target — one [`FlashTranslationLayer`], or a fleet of them —
/// under a chosen [`ArrivalDiscipline`] and reports the target's summary.
///
/// # Example
///
/// ```
/// use vflash_ftl::{ConventionalFtl, FtlConfig};
/// use vflash_nand::{NandConfig, NandDevice};
/// use vflash_sim::{ArrivalDiscipline, RunOptions, WorkloadDriver};
/// use vflash_trace::synthetic::{self, SyntheticConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = synthetic::web_sql_server(SyntheticConfig {
///     requests: 500,
///     working_set_bytes: 4 * 1024 * 1024,
///     ..Default::default()
/// });
/// let device = NandDevice::new(
///     NandConfig::builder()
///         .chips(4)
///         .blocks_per_chip(24)
///         .pages_per_block(32)
///         .page_size_bytes(16 * 1024)
///         .build()?,
/// );
/// let ftl = ConventionalFtl::new(device, FtlConfig::default())?;
/// let driver = WorkloadDriver::open_loop(RunOptions::default(), 1.0);
/// let summary = driver.run(ftl, &trace)?;
/// // Open-loop runs cannot serve more than they are offered.
/// assert!(summary.request_iops() <= summary.offered_iops());
/// assert!(summary.service_time.p50 > vflash_nand::Nanos::ZERO);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadDriver {
    options: RunOptions,
    discipline: ArrivalDiscipline,
}

impl WorkloadDriver {
    /// Creates a driver with explicit options and discipline.
    ///
    /// # Panics
    ///
    /// Panics on a zero queue depth or a non-positive/non-finite rate scale.
    pub fn new(options: RunOptions, discipline: ArrivalDiscipline) -> Self {
        if let Err(error) = discipline.validate() {
            panic!("{error}");
        }
        WorkloadDriver { options, discipline }
    }

    /// A closed-loop (saturation) driver at the given queue depth.
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth` is zero.
    pub fn closed_loop(options: RunOptions, queue_depth: usize) -> Self {
        WorkloadDriver::new(options, ArrivalDiscipline::ClosedLoop { queue_depth })
    }

    /// An open-loop (arrival-time) driver at the given rate scale.
    ///
    /// # Panics
    ///
    /// Panics if `rate_scale` is not positive and finite.
    pub fn open_loop(options: RunOptions, rate_scale: f64) -> Self {
        WorkloadDriver::new(options, ArrivalDiscipline::OpenLoop { rate_scale })
    }

    /// The replay options.
    pub fn options(&self) -> &RunOptions {
        &self.options
    }

    /// The arrival discipline.
    pub fn discipline(&self) -> ArrivalDiscipline {
        self.discipline
    }

    /// Replays `trace` — a `&Trace`, or a [`TraceSlice`] of one — against
    /// `target` and returns its summary.
    ///
    /// Byte offsets are translated to logical pages using the device's page size,
    /// and wrapped modulo the exported logical capacity so any trace can be
    /// replayed on any device size (the standard trick for replaying enterprise
    /// traces on scaled simulators).
    ///
    /// # Errors
    ///
    /// Propagates FTL errors ([`FtlError::OutOfSpace`] and internal device
    /// errors). Unmapped reads only occur when `prefill` is disabled; with the
    /// default options they cannot happen.
    pub fn run<'t, T: Replay>(
        &self,
        mut target: T,
        trace: impl Into<TraceSlice<'t>>,
    ) -> Result<T::Summary, FtlError> {
        target.replay(self, trace.into())
    }

    /// Like [`WorkloadDriver::run`] but borrows the target, so callers can keep
    /// using it (and its device state) after the replay — e.g. to replay a
    /// second trace on a pre-aged device.
    ///
    /// # Errors
    ///
    /// Propagates FTL errors; see [`WorkloadDriver::run`].
    pub fn run_mut<'t, T: Replay + ?Sized>(
        &self,
        target: &mut T,
        trace: impl Into<TraceSlice<'t>>,
    ) -> Result<T::Summary, FtlError> {
        target.replay(self, trace.into())
    }
}

impl<F: FlashTranslationLayer + ?Sized> Replay for F {
    type Summary = RunSummary;

    fn replay(
        &mut self,
        driver: &WorkloadDriver,
        trace: TraceSlice<'_>,
    ) -> Result<RunSummary, FtlError> {
        let logical_pages = self.logical_pages();
        prefill(&driver.options, &mut [&mut *self], trace, logical_pages, |page| (0, page))?;

        let trace_ops = driver.discipline.needs_op_tracing();
        if trace_ops {
            self.device_mut().set_op_tracing(true);
        }
        let outcome = drive(driver, self, trace, logical_pages);
        if trace_ops {
            self.device_mut().set_op_tracing(false);
        }
        outcome
    }
}

/// The drive loop of one device: the scalar clock at closed-loop depth 1,
/// otherwise one [`HostCalendar`] issuing requests into one [`LaneState`].
fn drive<F: FlashTranslationLayer + ?Sized>(
    driver: &WorkloadDriver,
    ftl: &mut F,
    trace: TraceSlice<'_>,
    logical_pages: u64,
) -> Result<RunSummary, FtlError> {
    let WorkloadDriver { options, discipline } = *driver;
    let pages = PageSplitter::new(ftl.device().config().page_size_bytes());
    let mut lane = LaneState::new(ftl, &options, discipline);

    let scalar = discipline == ArrivalDiscipline::ClosedLoop { queue_depth: 1 };
    let (peak_queue_depth, busy_arrivals) = if scalar {
        // Scalar fast path. At depth 1 each request issues exactly at the
        // previous completion: the calendar would hold at most one event,
        // retired on the very next arrival, so no arrival ever finds the
        // system busy and the whole event machinery reduces to one running
        // clock (with peak backlog 1 and zero busy arrivals by
        // construction). Tracing is off here, so pages charge serially.
        let mut clock = Nanos::ZERO;
        for request in trace {
            let issue = clock;
            for page in pages.pages(request) {
                let lpn = Lpn(page % logical_pages);
                let completion = match request.op {
                    IoOp::Write => ftl.submit(FtlRequest::write(lpn, request.length))?,
                    IoOp::Read => match ftl.submit(FtlRequest::read(lpn)) {
                        Ok(completion) => completion,
                        // Without prefill, reads of never-written data are
                        // skipped, mirroring how a real host would simply
                        // get zeroes back.
                        Err(FtlError::UnmappedRead { .. }) if !options.prefill => continue,
                        Err(err) => return Err(err),
                    },
                };
                clock += completion.latency;
            }
            let chain = PageChain { now: clock, service: clock - issue };
            lane.record(request.op, Issue { at: issue, arrival: Nanos::ZERO }, &chain);
        }
        (usize::from(!trace.is_empty()), 0)
    } else {
        let mut calendar = HostCalendar::new(discipline);
        for request in trace {
            let issue = calendar.issue(request.at_nanos);
            // A multi-page host request is one dependent chain of page
            // submissions on the lane.
            let mut chain = lane.begin(issue.at);
            for page in pages.pages(request) {
                let lpn = Lpn(page % logical_pages);
                lane.play_page(ftl, &mut chain, request.op, lpn, request.length)?;
            }
            lane.record(request.op, issue, &chain);
            calendar.schedule_completion(chain.now);
        }
        (calendar.peak_outstanding(), calendar.busy_arrivals())
    };

    Ok(lane.finish(ftl, trace.name(), peak_queue_depth, busy_arrivals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ReplayMode;
    use vflash_ftl::{ConventionalFtl, FtlConfig};
    use vflash_nand::{NandConfig, NandDevice};
    use vflash_trace::{IoRequest, Trace};

    fn ftl(chips: usize) -> ConventionalFtl {
        let device = NandDevice::new(
            NandConfig::builder()
                .chips(chips)
                .blocks_per_chip(32)
                .pages_per_block(8)
                .page_size_bytes(4096)
                .build()
                .unwrap(),
        );
        ConventionalFtl::new(device, FtlConfig::default()).unwrap()
    }

    /// A read-back trace with arrivals spaced 1 ms apart.
    fn paced_trace(requests: u64, gap_nanos: u64) -> Trace {
        let mut reqs = Vec::new();
        for i in 0..requests {
            reqs.push(IoRequest::new(
                i * gap_nanos,
                IoOp::Read,
                (i * 37 % requests) * 4096,
                4096,
            ));
        }
        Trace::new("paced", reqs)
    }

    fn trace(requests: Vec<IoRequest>) -> Trace {
        Trace::new("test", requests)
    }

    /// Scattered single-page reads: the prefill writes them, the run reads them
    /// back in a shuffled order.
    fn read_heavy_trace(requests: u64) -> Trace {
        let reqs = (0..requests)
            .map(|i| IoRequest::new(i, IoOp::Read, (i * 37 % requests) * 4096, 4096))
            .collect();
        Trace::new("read-heavy", reqs)
    }

    fn serial() -> WorkloadDriver {
        WorkloadDriver::closed_loop(RunOptions::default(), 1)
    }

    #[test]
    fn writes_and_reads_are_counted_per_page() {
        let t = trace(vec![
            IoRequest::new(0, IoOp::Write, 0, 8192),  // 2 pages
            IoRequest::new(1, IoOp::Read, 0, 4096),   // 1 page
            IoRequest::new(2, IoOp::Read, 0, 12288),  // 3 pages
        ]);
        let summary = serial().run(ftl(1), &t).unwrap();
        assert_eq!(summary.host_writes, 2);
        assert_eq!(summary.host_reads, 4);
        assert_eq!(summary.trace, "test");
        assert_eq!(summary.ftl, "conventional");
    }

    #[test]
    fn prefill_makes_cold_reads_succeed_and_is_excluded_from_the_summary() {
        // The trace reads offsets it never wrote.
        let t = trace(vec![IoRequest::new(0, IoOp::Read, 64 * 1024, 4096)]);
        let summary = serial().run(ftl(1), &t).unwrap();
        assert_eq!(summary.host_reads, 1);
        assert_eq!(summary.host_writes, 0, "warm-up writes must not be reported");
    }

    #[test]
    fn without_prefill_unmapped_reads_are_skipped_at_any_depth() {
        let t = trace(vec![
            IoRequest::new(0, IoOp::Read, 64 * 1024, 4096),
            IoRequest::new(1, IoOp::Write, 0, 4096),
            IoRequest::new(2, IoOp::Read, 0, 4096),
        ]);
        let options = RunOptions { prefill: false };
        // Depth 1 is the scalar path, depth 4 the lane's `play_page`.
        for depth in [1usize, 4] {
            let summary = WorkloadDriver::closed_loop(options, depth).run(ftl(1), &t).unwrap();
            assert_eq!(summary.host_reads, 1, "QD{depth}: only the mapped read is served");
            assert_eq!(summary.host_writes, 1, "QD{depth}");
            assert_eq!(
                summary.host_requests, 3,
                "QD{depth}: skipped requests still complete (with zero work)"
            );
        }
    }

    #[test]
    fn offsets_beyond_logical_capacity_wrap_around() {
        let ftl = ftl(1);
        let capacity_bytes = ftl.logical_pages() * 4096;
        let t = trace(vec![IoRequest::new(0, IoOp::Write, capacity_bytes * 3 + 4096, 4096)]);
        let summary = serial().run(ftl, &t).unwrap();
        assert_eq!(summary.host_writes, 1);
    }

    #[test]
    fn write_only_traces_skip_the_prefill_pass() {
        let t = trace(vec![
            IoRequest::new(0, IoOp::Write, 0, 8192),
            IoRequest::new(1, IoOp::Write, 32 * 1024, 4096),
        ]);
        let mut ftl = ftl(1);
        let summary = serial().run_mut(&mut ftl, &t).unwrap();
        assert_eq!(summary.host_writes, 3);
        // No warm-up traffic happened at all: the device saw exactly the trace's
        // three page programs.
        assert_eq!(ftl.device().stats().counts.programs, 3);
    }

    #[test]
    fn summary_reports_the_measured_phase_makespan() {
        let mut ftl = ftl(1);
        let t = trace(vec![
            IoRequest::new(0, IoOp::Write, 0, 4 * 4096),
            IoRequest::new(1, IoOp::Read, 0, 4096),
        ]);
        let summary = serial().run_mut(&mut ftl, &t).unwrap();
        // Single-chip device: the makespan equals the serial host latency.
        assert_eq!(summary.device_makespan, summary.read_time + summary.write_time);
        // A second replay reports only its own makespan, not cumulative time.
        let again = serial().run_mut(&mut ftl, &t).unwrap();
        assert!(again.device_makespan < summary.device_makespan * 2);
        assert!(again.device_makespan > Nanos::ZERO);
    }

    #[test]
    fn run_mut_allows_back_to_back_traces_on_an_aged_device() {
        let mut ftl = ftl(1);
        let first = trace(vec![IoRequest::new(0, IoOp::Write, 0, 16 * 4096)]);
        let second = trace(vec![IoRequest::new(0, IoOp::Read, 0, 4096)]);
        let s1 = serial().run_mut(&mut ftl, &first).unwrap();
        let s2 = serial().run_mut(&mut ftl, &second).unwrap();
        assert_eq!(s1.host_writes, 16);
        assert_eq!(s2.host_reads, 1);
        assert_eq!(s2.host_writes, 0);
    }

    #[test]
    fn deeper_queues_overlap_chips_and_cut_elapsed_time() {
        let t = read_heavy_trace(256);
        let qd1 = serial().run(ftl(4), &t).unwrap();
        let qd16 = WorkloadDriver::closed_loop(RunOptions::default(), 16).run(ftl(4), &t).unwrap();
        // Identical device-state evolution...
        assert_eq!(qd1.host_reads, qd16.host_reads);
        assert_eq!(qd1.read_time, qd16.read_time);
        assert_eq!(qd1.device_makespan, qd16.device_makespan);
        // ...but the queued overlay finishes sooner and serves more IOPS.
        assert!(
            qd16.host_elapsed < qd1.host_elapsed,
            "QD16 {} should beat QD1 {}",
            qd16.host_elapsed,
            qd1.host_elapsed
        );
        assert!(qd16.request_iops() > qd1.request_iops());
        // The overlay can never beat the busiest chip.
        assert!(qd16.host_elapsed >= qd16.device_makespan);
    }

    #[test]
    fn queued_latencies_include_chip_queuing_delay() {
        // Single chip: depth adds pure queuing delay, so per-request p99 grows
        // with depth while elapsed stays the serial sum.
        let t = read_heavy_trace(128);
        let qd1 = serial().run(ftl(1), &t).unwrap();
        let qd8 = WorkloadDriver::closed_loop(RunOptions::default(), 8).run(ftl(1), &t).unwrap();
        assert_eq!(qd1.host_elapsed, qd8.host_elapsed, "one chip cannot overlap anything");
        assert!(
            qd8.read_latency.p99 > qd1.read_latency.p99,
            "queuing on one chip must inflate tail latency ({} vs {})",
            qd8.read_latency.p99,
            qd1.read_latency.p99
        );
        // The queueing-delay/service-time split names the cause: service times are
        // depth-invariant, the delay is what grew.
        assert_eq!(qd1.service_time, qd8.service_time);
        assert!(qd8.queue_delay.p99 > qd1.queue_delay.p99);
    }

    #[test]
    fn tracing_is_disabled_after_the_run() {
        let t = read_heavy_trace(16);
        let mut f = ftl(2);
        WorkloadDriver::closed_loop(RunOptions::default(), 4).run_mut(&mut f, &t).unwrap();
        assert!(!f.device().op_tracing());
    }

    #[test]
    fn zero_queue_depth_and_bad_rate_scales_are_rejected() {
        assert!(std::panic::catch_unwind(|| {
            WorkloadDriver::closed_loop(RunOptions::default(), 0)
        })
        .is_err());
        let invalid = |discipline: ArrivalDiscipline| {
            matches!(discipline.validate(), Err(FtlError::InvalidConfig { .. }))
        };
        assert!(invalid(ArrivalDiscipline::ClosedLoop { queue_depth: 0 }));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                std::panic::catch_unwind(|| {
                    WorkloadDriver::open_loop(RunOptions::default(), bad)
                })
                .is_err(),
                "rate scale {bad} must be rejected"
            );
            assert!(invalid(ArrivalDiscipline::OpenLoop { rate_scale: bad }), "{bad}");
        }
        assert_eq!(ArrivalDiscipline::OpenLoop { rate_scale: 0.5 }.validate(), Ok(()));
        assert_eq!(ArrivalDiscipline::ClosedLoop { queue_depth: 1 }.validate(), Ok(()));
    }

    #[test]
    fn a_dyn_ftl_replays_like_its_concrete_type() {
        // `&mut dyn FlashTranslationLayer` is a replay target through the
        // `?Sized` blanket impl, with the same summary and device state.
        let t = read_heavy_trace(64);
        for depth in [1usize, 4] {
            let driver = WorkloadDriver::closed_loop(RunOptions::default(), depth);
            let mut concrete = ftl(2);
            let expected = driver.run_mut(&mut concrete, &t).unwrap();
            let mut boxed: Box<dyn FlashTranslationLayer> = Box::new(ftl(2));
            let dynamic: &mut dyn FlashTranslationLayer = &mut *boxed;
            assert_eq!(driver.run_mut(dynamic, &t).unwrap(), expected, "QD{depth}");
            assert_eq!(boxed.device().stats(), concrete.device().stats(), "QD{depth}");
            assert!(!boxed.device().op_tracing());
        }
    }

    #[test]
    fn open_loop_idle_device_has_zero_queue_delay() {
        // 1 ms between arrivals on a device whose reads take tens of µs: every
        // request finds the chips idle, so latency == service and delay == 0.
        let trace = paced_trace(64, 1_000_000);
        let summary = WorkloadDriver::open_loop(RunOptions::default(), 1.0)
            .run(ftl(2), &trace)
            .unwrap();
        assert_eq!(summary.queue_delay.max, Nanos::ZERO);
        assert_eq!(summary.read_latency, summary.service_time);
        assert_eq!(summary.peak_queue_depth, 1, "idle arrivals never overlap");
        assert_eq!(summary.busy_arrivals, 0);
        assert_eq!(summary.busy_arrival_fraction(), 0.0);
        assert!(summary.offered_duration > Nanos::ZERO);
        assert!(summary.request_iops() <= summary.offered_iops());
        assert_eq!(summary.queue_depth, 0, "open loop has no depth bound");
        assert!(matches!(summary.mode, ReplayMode::OpenLoop { rate_scale } if rate_scale == 1.0));
    }

    #[test]
    fn overload_builds_queueing_delay() {
        // 1 ns between arrivals: the device cannot keep up, so queueing delay
        // dominates and the tail grows far beyond the service time.
        let trace = paced_trace(256, 1);
        let summary = WorkloadDriver::open_loop(RunOptions::default(), 1.0)
            .run(ftl(1), &trace)
            .unwrap();
        assert!(summary.queue_delay.p99 > summary.service_time.p99);
        assert!(summary.request_iops() < summary.offered_iops());
        // All-at-once arrivals: every request but the first finds the device
        // busy, and the backlog peaks at (almost) the whole trace.
        assert_eq!(summary.busy_arrivals, 255);
        assert!(summary.peak_queue_depth > 200, "backlog {}", summary.peak_queue_depth);
        assert!(summary.queue_delay.p999 >= summary.queue_delay.p99);
    }

    #[test]
    fn closed_loop_peak_depth_is_bounded_by_the_configured_depth() {
        let trace = paced_trace(128, 1_000);
        for depth in [1usize, 4, 16] {
            let summary = WorkloadDriver::closed_loop(RunOptions::default(), depth)
                .run(ftl(4), &trace)
                .unwrap();
            assert!(
                summary.peak_queue_depth <= depth,
                "QD{depth}: peak {} escaped the bound",
                summary.peak_queue_depth
            );
            assert!(summary.peak_queue_depth >= 1);
            if depth == 1 {
                // Serial replay: the next request is issued exactly at the
                // previous completion, so no arrival ever finds the system busy.
                assert_eq!(summary.peak_queue_depth, 1);
                assert_eq!(summary.busy_arrivals, 0);
            } else {
                assert!(summary.busy_arrival_fraction() > 0.5, "QD{depth} keeps the queue busy");
            }
        }
    }

    #[test]
    fn rate_scale_compresses_arrivals_and_raises_offered_load() {
        let trace = paced_trace(128, 500_000);
        let relaxed = WorkloadDriver::open_loop(RunOptions::default(), 1.0)
            .run(ftl(2), &trace)
            .unwrap();
        let pressed = WorkloadDriver::open_loop(RunOptions::default(), 100.0)
            .run(ftl(2), &trace)
            .unwrap();
        assert!(pressed.offered_iops() > relaxed.offered_iops() * 50.0);
        assert!(pressed.queue_delay.p99 >= relaxed.queue_delay.p99);
        // Device-state evolution is discipline-invariant.
        assert_eq!(pressed.host_reads, relaxed.host_reads);
        assert_eq!(pressed.read_time, relaxed.read_time);
    }

    #[test]
    fn open_loop_rebases_against_the_first_arrival() {
        // The same trace shifted 10 minutes into the future (as a time-window
        // subset of an MSR file would be) must replay identically: the offset is
        // file position, not load.
        let gap = 500_000u64;
        let base_trace = paced_trace(64, gap);
        let shifted = Trace::new(
            "shifted",
            base_trace
                .iter()
                .map(|request| {
                    IoRequest::new(
                        request.at_nanos + 600_000_000_000,
                        request.op,
                        request.offset,
                        request.length,
                    )
                })
                .collect(),
        );
        let driver = WorkloadDriver::open_loop(RunOptions::default(), 1.0);
        let plain = driver.run(ftl(2), &base_trace).unwrap();
        let moved = driver.run(ftl(2), &shifted).unwrap();
        assert_eq!(plain.host_elapsed, moved.host_elapsed, "offset must not count as replay time");
        assert_eq!(plain.offered_duration, moved.offered_duration);
        assert_eq!(plain.read_latency, moved.read_latency);
        assert!((plain.request_iops() - moved.request_iops()).abs() < 1e-9);
    }

    #[test]
    fn closed_loop_records_zero_offered_duration() {
        let trace = paced_trace(32, 1_000);
        let summary =
            WorkloadDriver::closed_loop(RunOptions::default(), 4).run(ftl(2), &trace).unwrap();
        assert_eq!(summary.offered_duration, Nanos::ZERO);
        assert_eq!(summary.offered_iops(), 0.0);
        assert_eq!(summary.mode, ReplayMode::ClosedLoop);
        assert_eq!(summary.queue_depth, 4);
    }

    #[test]
    fn closed_loop_service_split_is_consistent_at_depth_1() {
        // At depth 1 nothing ever queues: delay is identically zero and the
        // service-time histogram matches the completion latencies.
        let trace = paced_trace(64, 1_000);
        let summary =
            WorkloadDriver::closed_loop(RunOptions::default(), 1).run(ftl(2), &trace).unwrap();
        assert_eq!(summary.queue_delay.max, Nanos::ZERO);
        assert_eq!(summary.read_latency, summary.service_time);
    }
}
