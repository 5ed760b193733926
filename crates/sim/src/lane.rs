//! One device's side of a run: the device half of the timing core.
//!
//! A *lane* is one FTL + NAND stack being driven. [`LaneState`] holds
//! everything the drive loop accumulates about it — per-chip ready clocks, the
//! four latency histograms, the request count, the snapshots that exclude
//! warm-up traffic from the report — and owns the rules that turn page
//! submissions into instants:
//!
//! ```text
//! chain:    start = issue (traced) | max(issue, lane ready clock) (untraced)
//! op k:     start = max(end of op k-1, chip_ready[chip(k)])
//!           chip_ready[chip(k)] = start + latency(k)
//! latency = end of last op - issue
//! service = Σ latency(k);   queueing delay = latency - service
//! window:   every request is a chain of its own, starting when the lane is
//!           idle = max(lane ready clock, every chip_ready); the window ends
//!           at the latest chain end, the lane's next idle
//! ```
//!
//! A multi-page request is a dependent [`PageChain`] of page submissions on one
//! lane. The [`WorkloadDriver`](crate::WorkloadDriver) drives one device as one
//! lane and one chain per request, and a fleet as N lanes and one chain per
//! lane a request touches. Both replays go through the same
//! [`LaneState::play_page`], [`LaneState::record`] and [`LaneState::finish`],
//! so a lane of a fleet reports exactly what one device would report for the
//! requests that lane served. The KV store's device
//! (`vflash_kv::FlashStore`) is a lane too: a scalar page is a one-page chain
//! from [`LaneState::now`], a queue-depth window of an append or a range read
//! one [`LaneState::play_window`], on chip clocks kept for the store's life.

use vflash_ftl::{
    Completion, FlashTranslationLayer, FtlError, FtlMetrics, IoRequest as FtlRequest, Lpn,
};
use vflash_nand::{ChipClocks, ChipId, NandDevice, Nanos, OpSpan};
use vflash_trace::{IoOp, PageSplitter, TraceSlice};

use crate::calendar::{ArrivalWindow, Issue};
use crate::engine::{ArrivalDiscipline, RunOptions};
use crate::histogram::LatencyHistogram;
use crate::report::{ReplayMode, RunSummary};

/// Request size (bytes) of the warm-up writes: large, so the warm-up data is
/// classified cold and does not pre-bias the hot/cold state.
const PREFILL_REQUEST_BYTES: u32 = 1 << 20;

/// A word-packed bitmap over logical page numbers.
///
/// The prefill pass needs one bit per logical page; on multi-million-page devices a
/// `Vec<bool>` would spend a byte per page, so pages are packed 64 to a `u64` (8x
/// less memory, and a request's run of pages is marked a word at a time).
#[derive(Debug, Clone)]
struct PageBitmap {
    words: Vec<u64>,
}

impl PageBitmap {
    fn new(pages: u64) -> Self {
        PageBitmap { words: vec![0; (pages as usize).div_ceil(64)] }
    }

    #[cfg(test)]
    fn set(&mut self, page: u64) {
        self.words[(page / 64) as usize] |= 1 << (page % 64);
    }

    #[cfg(test)]
    fn get(&self, page: u64) -> bool {
        self.words[(page / 64) as usize] & (1 << (page % 64)) != 0
    }

    /// Sets pages `start..end`: the partial words at either end under a mask,
    /// the whole words between them in one fill.
    fn set_range(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let (first, last) = ((start / 64) as usize, ((end - 1) / 64) as usize);
        let head = !0u64 << (start % 64);
        let tail = !0u64 >> (63 - (end - 1) % 64);
        if first == last {
            self.words[first] |= head & tail;
        } else {
            self.words[first] |= head;
            self.words[first + 1..last].fill(!0);
            self.words[last] |= tail;
        }
    }

    /// Iterates over set pages in ascending order, skipping empty words wholesale.
    fn iter_set(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(word_index, &word)| {
            let base = word_index as u64 * 64;
            std::iter::successors(
                (word != 0).then_some(word),
                |bits| {
                    let rest = bits & (bits - 1);
                    (rest != 0).then_some(rest)
                },
            )
            .map(move |bits| base + u64::from(bits.trailing_zeros()))
        })
    }
}

/// Writes every logical page the trace touches exactly once (in ascending
/// order per lane), so later reads always find mapped data. Trace pages wrap
/// modulo `space`, the pages the lanes export together; `locate` maps a
/// wrapped page (below `space`) to the `(lane, device page)` that stores it —
/// the identity for one device, the stripe map for a fleet. Shared by every
/// replay target and discipline, so any replay warms a device **identically** — a
/// precondition for the bit-identity guarantees between them. The warm-up
/// always runs serially with tracing off.
///
/// Each request marks its run of wrapped pages in one bitmap over `space` —
/// a word at a time, in two pieces when the run wraps past the end — and one
/// ascending pass over the marked pages writes them. `locate` must be
/// monotone per lane (ascending wrapped pages of one lane land on ascending
/// device pages, as they do under the identity and the stripe map), which is
/// what gives each lane its pages in ascending order.
///
/// Does nothing when `options.prefill` is off, and skips traces without a
/// single read: the prefill exists only so reads of never-written data behave
/// like reads of pre-existing data, and a write-only trace has none.
///
/// # Errors
///
/// Propagates FTL errors from the warm-up writes.
pub fn prefill<F: FlashTranslationLayer + ?Sized>(
    options: &RunOptions,
    lanes: &mut [&mut F],
    trace: TraceSlice<'_>,
    space: u64,
    locate: impl Fn(u64) -> (usize, u64),
) -> Result<(), FtlError> {
    if !options.prefill || !trace.iter().any(|request| request.op == IoOp::Read) {
        return Ok(());
    }
    let pages = PageSplitter::new(lanes[0].device().config().page_size_bytes());
    let mut touched = PageBitmap::new(space);
    for request in trace {
        let range = pages.pages(request);
        let len = range.end - range.start;
        if len >= space {
            touched.set_range(0, space);
            continue;
        }
        let start = range.start % space;
        if start + len <= space {
            touched.set_range(start, start + len);
        } else {
            touched.set_range(start, space);
            touched.set_range(0, start + len - space);
        }
    }
    for wrapped in touched.iter_set() {
        let (lane, offset) = locate(wrapped);
        lanes[lane].write(Lpn(offset), PREFILL_REQUEST_BYTES)?;
    }
    Ok(())
}

/// Snapshot of every chip's busy time, used to compute the measured-phase
/// makespan as a delta (excluding prefill traffic).
fn chip_busy_times<F: FlashTranslationLayer + ?Sized>(ftl: &F) -> Vec<Nanos> {
    let device = ftl.device();
    (0..device.config().chips())
        .map(|chip| {
            device.chip_busy_time(ChipId(chip)).expect("chip ids come from the config")
        })
        .collect()
}

/// One request's dependent chain of page submissions on one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageChain {
    /// End of the last op played so far (initially when the chain could
    /// start) — the chain's completion instant once every page has been played.
    pub now: Nanos,
    /// Device time the chain's ops took, queueing excluded.
    pub service: Nanos,
}

/// Everything one run accumulates about one device. See the module docs.
#[derive(Debug, Clone)]
pub struct LaneState {
    discipline: ArrivalDiscipline,
    /// Unmapped reads are skipped rather than failed when the run did not
    /// prefill, mirroring how a real host would simply get zeroes back.
    skip_unmapped_reads: bool,
    /// Per-chip busy-until clocks. Resource clocks, not events: ops ask for a
    /// specific chip's availability by index. The only ones a device has:
    /// chains, background writes and windows all advance these.
    chips: ChipClocks,
    /// Untraced (closed-loop depth 1) device-level ready clock: with op
    /// tracing off there are no per-chip spans to overlay, so background
    /// writes and played pages push this one clock instead.
    ready: Nanos,
    pub(crate) read_latencies: LatencyHistogram,
    pub(crate) write_latencies: LatencyHistogram,
    pub(crate) queue_delays: LatencyHistogram,
    pub(crate) service_times: LatencyHistogram,
    pub(crate) requests: u64,
    pub(crate) last_completion: Nanos,
    /// Arrival window of the requests this lane served.
    arrivals: ArrivalWindow,
    start_metrics: FtlMetrics,
    busy_start: Vec<Nanos>,
}

impl LaneState {
    /// Fresh accumulators for a measured phase starting now on `ftl`: its
    /// metrics and chip busy times are snapshotted so [`LaneState::finish`]
    /// reports deltas.
    pub fn new<F: FlashTranslationLayer + ?Sized>(
        ftl: &F,
        options: &RunOptions,
        discipline: ArrivalDiscipline,
    ) -> Self {
        LaneState {
            discipline,
            skip_unmapped_reads: !options.prefill,
            chips: ChipClocks::new(ftl.device().config().chips()),
            ready: Nanos::ZERO,
            read_latencies: LatencyHistogram::new(),
            write_latencies: LatencyHistogram::new(),
            queue_delays: LatencyHistogram::new(),
            service_times: LatencyHistogram::new(),
            requests: 0,
            last_completion: Nanos::ZERO,
            arrivals: ArrivalWindow::default(),
            start_metrics: *ftl.metrics(),
            busy_start: chip_busy_times(ftl),
        }
    }

    /// Opens the chain of a request issued at `issue`. With tracing off the
    /// chain serialises behind the lane's ready clock (background-write
    /// backlog; a no-op without background writes, where the clock never
    /// passes the previous completion).
    #[inline]
    pub fn begin(&self, issue: Nanos) -> PageChain {
        let now = if self.discipline.needs_op_tracing() { issue } else { issue.max(self.ready) };
        PageChain { now, service: Nanos::ZERO }
    }

    /// When the lane is idle: no page played so far keeps a chip, or the ready
    /// clock, busy past this instant.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.ready.max(self.chips.makespan())
    }

    /// Charges one served page to `chain`: each timed device op starts when
    /// both its predecessor in the chain and its chip are ready; an untraced
    /// completion charges its latency serially and pushes the ready clock.
    #[inline]
    fn charge(&mut self, device: &NandDevice, chain: &mut PageChain, completion: &Completion) {
        if completion.ops.is_empty() {
            chain.now += completion.latency;
            chain.service += completion.latency;
            self.ready = self.ready.max(chain.now);
        } else {
            let mut service = Nanos::ZERO;
            for op in device.ops(completion.ops) {
                chain.now = self.chips.play_op(op.chip.0, chain.now, op.latency);
                service += op.latency;
            }
            // What makes the serial charge and the overlay one cost.
            debug_assert_eq!(service, completion.latency, "latency != the sum of its ops'");
            chain.service += service;
        }
    }

    /// Submits one logical page to the lane, advances `chain` by it and
    /// returns its completion (the zero completion for a skipped read), its op
    /// span spent: the lane has played it.
    ///
    /// # Errors
    ///
    /// Propagates FTL errors, except unmapped reads on a run without prefill,
    /// which are skipped.
    #[inline]
    pub fn play_page<F: FlashTranslationLayer + ?Sized>(
        &mut self,
        ftl: &mut F,
        chain: &mut PageChain,
        op: IoOp,
        lpn: Lpn,
        request_bytes: u32,
    ) -> Result<Completion, FtlError> {
        let mut completion = match op {
            IoOp::Write => ftl.submit(FtlRequest::write(lpn, request_bytes))?,
            IoOp::Read => match ftl.submit(FtlRequest::read(lpn)) {
                Ok(completion) => completion,
                Err(FtlError::UnmappedRead { .. }) if self.skip_unmapped_reads => {
                    return Ok(Completion::default())
                }
                Err(err) => return Err(err),
            },
        };
        self.charge(ftl.device(), chain, &completion);
        if !completion.ops.is_empty() {
            // Release the op arena: spans never outlive the page that produced
            // them, so the backing buffer stays at one page's worth of records
            // and never reallocates.
            ftl.device_mut().clear_ops();
            completion.ops = OpSpan::EMPTY;
        }
        Ok(completion)
    }

    /// Plays one queue-depth window: `requests` submitted together once the
    /// lane is idle. With op tracing on that is one
    /// [`submit_batch`](FlashTranslationLayer::submit_batch), every request a
    /// chain of its own from [`LaneState::now`]; with tracing off there are no
    /// chips to overlap on and no batch to count, and the requests are scalar
    /// submissions on one serial chain. `completions` is left holding those of
    /// the requests the device applied, op spans spent.
    ///
    /// # Errors
    ///
    /// The first refusal. The requests before it were applied: they are played
    /// and in `completions` all the same.
    #[inline]
    pub fn play_window<F: FlashTranslationLayer + ?Sized>(
        &mut self,
        ftl: &mut F,
        requests: &[FtlRequest],
        completions: &mut Vec<Completion>,
    ) -> Result<(), FtlError> {
        completions.clear();
        let idle = PageChain { now: self.now(), service: Nanos::ZERO };
        if !ftl.device().op_tracing() {
            let mut chain = idle;
            for &request in requests {
                let completion = ftl.submit(request)?;
                self.charge(ftl.device(), &mut chain, &completion);
                completions.push(completion);
            }
            return Ok(());
        }
        let mut batch = ftl.submit_batch(requests)?;
        for completion in &mut batch.completions {
            let mut chain = idle;
            self.charge(ftl.device(), &mut chain, completion);
            completion.ops = OpSpan::EMPTY;
        }
        ftl.device_mut().clear_ops();
        *completions = batch.completions;
        batch.refused.map_or(Ok(()), Err)
    }

    /// Plays one background page write (a host-cache writeback) issued at
    /// `issue`: a one-page chain that no request owns. It occupies the lane's
    /// chips — or, untraced, the lane's ready clock — so later requests queue
    /// behind it, but extends no request's latency.
    ///
    /// # Errors
    ///
    /// Propagates FTL errors.
    pub fn play_background_write<F: FlashTranslationLayer + ?Sized>(
        &mut self,
        ftl: &mut F,
        issue: Nanos,
        lpn: Lpn,
        request_bytes: u32,
    ) -> Result<(), FtlError> {
        let mut chain = self.begin(issue);
        self.play_page(ftl, &mut chain, IoOp::Write, lpn, request_bytes).map(drop)
    }

    /// Records one request's finished chain: response latency into the read or
    /// write histogram, split into queueing delay and service time. Returns
    /// the response latency (chain completion minus issue instant).
    #[inline]
    pub fn record(&mut self, op: IoOp, issue: Issue, chain: &PageChain) -> Nanos {
        let latency = chain.now.saturating_sub(issue.at);
        match op {
            IoOp::Read => self.read_latencies.record(latency),
            IoOp::Write => self.write_latencies.record(latency),
        }
        self.queue_delays.record(latency.saturating_sub(chain.service));
        self.service_times.record(chain.service);
        self.requests += 1;
        if chain.now > self.last_completion {
            self.last_completion = chain.now;
        }
        self.arrivals.observe(issue.arrival);
        latency
    }

    /// Closes the measured phase: the lane's [`RunSummary`], built from the
    /// FTL's metric delta since [`LaneState::new`] and the accumulated
    /// histograms. The backlog statistics are the run's, from its
    /// [`HostCalendar`](crate::HostCalendar).
    pub fn finish<F: FlashTranslationLayer + ?Sized>(
        self,
        ftl: &F,
        trace_name: &str,
        peak_queue_depth: usize,
        busy_arrivals: u64,
    ) -> RunSummary {
        let mut summary = RunSummary::from_metrics_delta(
            ftl.name(),
            trace_name,
            &self.start_metrics,
            ftl.metrics(),
        );
        // The measured-phase makespan: largest per-chip busy-time delta.
        summary.device_makespan = chip_busy_times(ftl)
            .iter()
            .zip(&self.busy_start)
            .map(|(&end, &begin)| end.saturating_sub(begin))
            .max()
            .unwrap_or(Nanos::ZERO);
        summary.host_requests = self.requests;
        summary.host_elapsed = self.last_completion;
        summary.read_latency = self.read_latencies.percentiles();
        summary.write_latency = self.write_latencies.percentiles();
        summary.queue_delay = self.queue_delays.percentiles();
        summary.service_time = self.service_times.percentiles();
        summary.peak_queue_depth = peak_queue_depth;
        summary.busy_arrivals = busy_arrivals;
        summary.offered_duration = self.arrivals.duration();
        match self.discipline {
            ArrivalDiscipline::ClosedLoop { queue_depth } => {
                summary.queue_depth = queue_depth;
                summary.mode = ReplayMode::ClosedLoop;
            }
            ArrivalDiscipline::OpenLoop { rate_scale } => {
                // No queue-depth bound exists in open loop; 0 marks "unbounded".
                summary.queue_depth = 0;
                summary.mode = ReplayMode::OpenLoop { rate_scale };
            }
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vflash_trace::Trace;

    #[test]
    fn bitmap_sets_and_iterates_in_ascending_order() {
        let mut bitmap = PageBitmap::new(200);
        for page in [0u64, 1, 63, 64, 65, 127, 128, 199] {
            bitmap.set(page);
        }
        assert!(bitmap.get(63));
        assert!(!bitmap.get(62));
        let set: Vec<u64> = bitmap.iter_set().collect();
        assert_eq!(set, vec![0, 1, 63, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn empty_bitmap_iterates_nothing() {
        let bitmap = PageBitmap::new(500);
        assert_eq!(bitmap.iter_set().count(), 0);
    }

    #[test]
    fn set_range_matches_repeated_set() {
        // Every range of a 200-page (four-word, last one partial) bitmap, laid
        // over a pattern already set, so a range must only add bits.
        const PAGES: u64 = 200;
        let mut seeded = PageBitmap::new(PAGES);
        for page in (0..PAGES).step_by(7) {
            seeded.set(page);
        }
        for start in 0..=PAGES {
            for end in start..=PAGES {
                let (mut ranged, mut single) = (seeded.clone(), seeded.clone());
                ranged.set_range(start, end);
                for page in start..end {
                    single.set(page);
                }
                assert_eq!(ranged.words, single.words, "{start}..{end}");
            }
        }
    }

    /// An FTL that only records the requests submitted to it.
    struct Recorder {
        logical_pages: u64,
        submitted: Vec<FtlRequest>,
        metrics: FtlMetrics,
        device: NandDevice,
    }

    impl Recorder {
        fn new(logical_pages: u64, page_size: usize) -> Self {
            let config = vflash_nand::NandConfig::builder()
                .chips(1)
                .blocks_per_chip(4)
                .pages_per_block(8)
                .page_size_bytes(page_size)
                .build()
                .expect("a valid geometry");
            Recorder {
                logical_pages,
                submitted: Vec::new(),
                metrics: FtlMetrics::new(),
                device: NandDevice::new(config),
            }
        }
    }

    impl FlashTranslationLayer for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn logical_pages(&self) -> u64 {
            self.logical_pages
        }
        fn submit(&mut self, request: FtlRequest) -> Result<Completion, FtlError> {
            self.submitted.push(request);
            Ok(Completion::new(Nanos::ZERO))
        }
        fn metrics(&self) -> &FtlMetrics {
            &self.metrics
        }
        fn device(&self) -> &NandDevice {
            &self.device
        }
        fn device_mut(&mut self) -> &mut NandDevice {
            &mut self.device
        }
    }

    /// The per-page rule `prefill` replaced: every page of every request
    /// wrapped modulo the space one at a time, routed, and marked in its
    /// lane's own bitmap; then each lane writes its pages in ascending order.
    fn per_page_prefill(
        lanes: &[Recorder],
        trace: &Trace,
        locate: impl Fn(u64) -> (usize, u64),
    ) -> Vec<Vec<FtlRequest>> {
        let space: u64 = lanes.iter().map(|lane| lane.logical_pages).sum();
        let pages = PageSplitter::new(lanes[0].device.config().page_size_bytes());
        let mut touched: Vec<PageBitmap> =
            lanes.iter().map(|lane| PageBitmap::new(lane.logical_pages)).collect();
        for request in trace {
            for page in pages.pages(request) {
                let (lane, offset) = locate(page % space);
                touched[lane].set(offset);
            }
        }
        touched
            .iter()
            .map(|bitmap| {
                bitmap
                    .iter_set()
                    .map(|offset| FtlRequest::write(Lpn(offset), PREFILL_REQUEST_BYTES))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn prefill_writes_each_lane_what_the_per_page_rule_wrote() {
        use vflash_trace::synthetic::{self, SyntheticConfig};
        use vflash_trace::IoRequest;

        const LANE_PAGES: u64 = 5_000;
        for page_size in [4 << 10, 12 << 10] {
            // One device (width 0 below stands for the engine's identity map)
            // and fleets of 1, 3 and 4 lanes under the stripe map's rule.
            for width in [0usize, 1, 3, 4] {
                let lanes = width.max(1);
                let space = LANE_PAGES * lanes as u64;
                let locate = |page: u64| match width {
                    0 => (0, page),
                    _ => ((page % width as u64) as usize, page / width as u64),
                };
                // A sparse trace over 2.5 times the space, so pages wrap; then
                // the same with an unaligned run across the space's end, and
                // with one request longer than the space.
                let page = page_size as u64;
                let sparse = synthetic::web_sql_server(SyntheticConfig {
                    requests: 300,
                    seed: 3,
                    working_set_bytes: space * page * 5 / 2,
                    ..Default::default()
                });
                let with = |request: IoRequest| {
                    let mut trace = sparse.clone();
                    trace.extend([request]);
                    trace
                };
                let wraps_at = (3 * space - 2) * page + 1;
                let wraps = IoRequest::new(0, IoOp::Write, wraps_at, 4 * page as u32);
                let too_long = ((space + 3) * page) as u32;
                let too_long = IoRequest::new(0, IoOp::Read, 7 * page + 5, too_long);
                let traces = [sparse.clone(), with(wraps), with(too_long)];
                for (case, trace) in traces.iter().enumerate() {
                    let mut recorders: Vec<Recorder> =
                        (0..lanes).map(|_| Recorder::new(LANE_PAGES, page_size)).collect();
                    let expected = per_page_prefill(&recorders, trace, locate);
                    let written: usize = expected.iter().map(Vec::len).sum();
                    assert_eq!(written == space as usize, case == 2, "case {case} marks too much");
                    let mut refs: Vec<&mut Recorder> = recorders.iter_mut().collect();
                    let options = RunOptions::default();
                    prefill(&options, &mut refs, trace.into(), space, locate).unwrap();
                    for (lane, recorder) in recorders.iter().enumerate() {
                        assert_eq!(
                            recorder.submitted, expected[lane],
                            "{page_size} B pages, width {width}, case {case}, lane {lane}"
                        );
                    }
                }
            }
        }
    }
}
