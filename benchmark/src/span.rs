//! Spans recorded from the benchmark's own files, around the calls into each
//! layer: a thread-local tracer (name, start, end, parent; ids shared per root)
//! and [`SpanFtl`], a [`FlashTranslationLayer`] adapter that wraps either FTL
//! and times every `submit` / `submit_batch`.
//!
//! Spans are aggregated in memory into per-name log-bucket histograms; every
//! 1024th root span also keeps its (capped) child list. A span's self time is
//! its duration minus the part its children cover. The tracer is off unless
//! [`start`] was called: the untraced run never wraps an FTL and pays one
//! thread-local flag test per *run*, not per request.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use vflash_ftl::{
    BatchCompletion, Completion, FlashTranslationLayer, FtlError, FtlMetrics, IoCommand, IoRequest,
};
use vflash_nand::NandDevice;

use crate::json::Value;
use crate::stats::LogHistogram;

/// Every span the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One `WorkloadDriver::run_mut` (prefill included).
    SimRun,
    /// One `FleetDriver::run_mut` (prefill included).
    FleetRun,
    /// `ConventionalFtl::submit` of a read.
    FtlRead,
    /// `ConventionalFtl::submit` of a write.
    FtlWrite,
    /// `ConventionalFtl::submit_batch`.
    FtlBatch,
    /// `PpbFtl::submit` of a read.
    PpbRead,
    /// `PpbFtl::submit` of a write.
    PpbWrite,
    /// `PpbFtl::submit_batch`.
    PpbBatch,
    /// `KvStore::put`.
    KvPut,
    /// `KvStore::get`.
    KvGet,
    /// `KvStore::delete`.
    KvDelete,
    /// `KvStore::scan`.
    KvScan,
    /// The puts/deletes whose receipt reports a flush/compaction stall
    /// (recorded in addition to `KvPut` / `KvDelete`).
    KvStalledWrite,
    /// Calibration parent: measures what one child span costs its parent.
    Calibrate,
    /// Calibration child: an empty span.
    CalibrateChild,
}

impl Name {
    /// All names, in the order the trace file lists them.
    pub const ALL: [Name; 15] = [
        Name::SimRun,
        Name::FleetRun,
        Name::FtlRead,
        Name::FtlWrite,
        Name::FtlBatch,
        Name::PpbRead,
        Name::PpbWrite,
        Name::PpbBatch,
        Name::KvPut,
        Name::KvGet,
        Name::KvDelete,
        Name::KvScan,
        Name::KvStalledWrite,
        Name::Calibrate,
        Name::CalibrateChild,
    ];

    /// The span's name in the trace file.
    pub fn label(self) -> &'static str {
        match self {
            Name::SimRun => "sim.engine.run",
            Name::FleetRun => "fleet.driver.run",
            Name::FtlRead => "ftl.submit.read",
            Name::FtlWrite => "ftl.submit.write",
            Name::FtlBatch => "ftl.submit_batch",
            Name::PpbRead => "ppb.submit.read",
            Name::PpbWrite => "ppb.submit.write",
            Name::PpbBatch => "ppb.submit_batch",
            Name::KvPut => "kv.store.put",
            Name::KvGet => "kv.store.get",
            Name::KvDelete => "kv.store.delete",
            Name::KvScan => "kv.store.scan",
            Name::KvStalledWrite => "kv.store.stalled_write",
            Name::Calibrate => "host.calibrate",
            Name::CalibrateChild => "host.calibrate.child",
        }
    }
}

/// Aggregate of every span recorded under one name.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations.
    pub busy_ns: u64,
    /// Sum of (duration − time covered by children).
    pub self_ns: u64,
    /// Direct children recorded under these spans.
    pub children: u64,
    /// Duration histogram.
    pub hist: LogHistogram,
}

struct Open {
    name: Name,
    id: u64,
    start_ns: u64,
    child_ns: u64,
    children: u64,
}

/// One span kept verbatim (only under sampled roots).
#[derive(Debug, Clone, Copy)]
struct Sample {
    name: Name,
    id: u64,
    parent: u64,
    root: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Every 1024th root span keeps its spans …
const SAMPLE_EVERY: u64 = 1024;
/// … up to this many per root (a replay root has a million children) …
const SAMPLE_SPANS_PER_ROOT: usize = 256;
/// … and this many roots per run.
const SAMPLE_ROOTS: u64 = 64;
/// Simulated completion latencies kept for the isolated histogram loop.
const LATENCY_SAMPLES: usize = 1 << 18;

struct Tracer {
    origin: Instant,
    stats: Vec<SpanStats>,
    stack: Vec<Open>,
    next_id: u64,
    roots: u64,
    sampled_roots: u64,
    sampling_root: Option<u64>,
    sampled_in_root: usize,
    samples: Vec<Sample>,
    latencies: Vec<u64>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            stats: vec![SpanStats::default(); Name::ALL.len()],
            stack: Vec::with_capacity(8),
            next_id: 1,
            roots: 0,
            sampled_roots: 0,
            sampling_root: None,
            sampled_in_root: 0,
            samples: Vec::new(),
            latencies: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// Whether spans are being recorded on this thread.
fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Starts recording on this thread, discarding anything recorded before.
pub fn start() {
    TRACER.with(|tracer| *tracer.borrow_mut() = Tracer::new());
    ENABLED.with(|flag| flag.set(true));
}

/// Opens a span. A no-op unless [`start`] was called.
#[inline]
pub fn enter(name: Name) {
    if !enabled() {
        return;
    }
    TRACER.with(|tracer| {
        let mut tracer = tracer.borrow_mut();
        let id = tracer.next_id;
        tracer.next_id += 1;
        if tracer.stack.is_empty() {
            if tracer.roots % SAMPLE_EVERY == 0 && tracer.sampled_roots < SAMPLE_ROOTS {
                tracer.sampling_root = Some(id);
                tracer.sampled_in_root = 0;
                tracer.sampled_roots += 1;
            }
            tracer.roots += 1;
        }
        // The clock is read last so the bookkeeping above is charged to the
        // parent, not to this span.
        let start_ns = tracer.now_ns();
        tracer.stack.push(Open {
            name,
            id,
            start_ns,
            child_ns: 0,
            children: 0,
        });
    });
}

/// Closes the innermost open span.
#[inline]
pub fn exit() {
    exit_also(None);
}

/// Closes the innermost open span and records its duration under `extra` too
/// (for a subset that is only known once the call returns, e.g. stalled puts).
#[inline]
pub fn exit_also(extra: Option<Name>) {
    if !enabled() {
        return;
    }
    TRACER.with(|tracer| {
        let mut tracer = tracer.borrow_mut();
        // The clock is read first, for the same reason `enter` reads it last.
        let end_ns = tracer.now_ns();
        let open = tracer.stack.pop().expect("exit without a matching enter");
        let duration = end_ns.saturating_sub(open.start_ns);
        let parent = tracer.stack.last_mut().map(|parent| {
            parent.child_ns += duration;
            parent.children += 1;
            parent.id
        });
        for name in [Some(open.name), extra].into_iter().flatten() {
            let stats = &mut tracer.stats[name as usize];
            stats.count += 1;
            stats.busy_ns += duration;
            stats.self_ns += duration.saturating_sub(open.child_ns);
            stats.children += open.children;
            stats.hist.record(duration);
        }
        if let Some(root) = tracer.sampling_root {
            if tracer.sampled_in_root < SAMPLE_SPANS_PER_ROOT || parent.is_none() {
                tracer.sampled_in_root += 1;
                tracer.samples.push(Sample {
                    name: open.name,
                    id: open.id,
                    parent: parent.unwrap_or(0),
                    root,
                    start_ns: open.start_ns,
                    end_ns,
                });
            }
            if parent.is_none() {
                tracer.sampling_root = None;
            }
        }
    });
}

/// Keeps one simulated completion latency for the isolated histogram loop.
#[inline]
fn note_latency(nanos: u64) {
    TRACER.with(|tracer| {
        let mut tracer = tracer.borrow_mut();
        if tracer.latencies.len() < LATENCY_SAMPLES {
            tracer.latencies.push(nanos);
        }
    });
}

/// Measures the tracer itself: 200k empty child spans under one parent. The
/// parent's self time per child is what one span costs *its parent* (the
/// bookkeeping outside the child's own start/end), which [`Report::self_ns`]
/// subtracts so a layer's self time is not mostly tracer.
pub fn calibrate() {
    const CHILDREN: u64 = 200_000;
    enter(Name::Calibrate);
    for _ in 0..CHILDREN {
        enter(Name::CalibrateChild);
        exit();
    }
    exit();
}

/// What a traced run recorded.
pub struct Report {
    stats: Vec<SpanStats>,
    samples: Vec<Sample>,
    /// Simulated completion latencies seen by [`SpanFtl`] (capped).
    pub latencies: Vec<u64>,
}

/// Stops recording and returns everything recorded since [`start`].
pub fn finish() -> Report {
    ENABLED.with(|flag| flag.set(false));
    TRACER.with(|tracer| {
        let tracer = std::mem::replace(&mut *tracer.borrow_mut(), Tracer::new());
        assert!(tracer.stack.is_empty(), "a span was left open");
        Report {
            stats: tracer.stats,
            samples: tracer.samples,
            latencies: tracer.latencies,
        }
    })
}

impl Report {
    /// The aggregate for `name`.
    pub fn stats(&self, name: Name) -> &SpanStats {
        &self.stats[name as usize]
    }

    /// Host nanoseconds one child span adds to its parent's self time
    /// (0 before [`calibrate`] ran).
    pub fn overhead_outside_ns(&self) -> f64 {
        let parent = self.stats(Name::Calibrate);
        if parent.children == 0 {
            0.0
        } else {
            parent.self_ns as f64 / parent.children as f64
        }
    }

    /// Host nanoseconds one empty span costs end to end (inside + outside).
    pub fn overhead_total_ns(&self) -> f64 {
        let parent = self.stats(Name::Calibrate);
        if parent.children == 0 {
            0.0
        } else {
            parent.busy_ns as f64 / parent.children as f64
        }
    }

    /// Host nanoseconds an empty span measures as its own duration: the part
    /// of the tracer's cost that lands *inside* a span.
    pub fn overhead_inside_ns(&self) -> f64 {
        let child = self.stats(Name::CalibrateChild);
        if child.count == 0 {
            0.0
        } else {
            child.busy_ns as f64 / child.count as f64
        }
    }

    /// Sum of durations over `names`.
    pub fn busy_ns(&self, names: &[Name]) -> f64 {
        names
            .iter()
            .map(|&name| self.stats(name).busy_ns as f64)
            .sum()
    }

    /// Sum of durations over `names` with the calibrated in-span tracer cost
    /// removed (never below zero): the time the wrapped calls themselves took.
    pub fn net_busy_ns(&self, names: &[Name]) -> f64 {
        (self.busy_ns(names) - self.count(names) as f64 * self.overhead_inside_ns()).max(0.0)
    }

    /// Sum of span counts over `names`.
    pub fn count(&self, names: &[Name]) -> u64 {
        names.iter().map(|&name| self.stats(name).count).sum()
    }

    /// Self time over `names`, with the calibrated per-child tracer cost
    /// removed (never below zero).
    pub fn self_ns(&self, names: &[Name]) -> f64 {
        let outside = self.overhead_outside_ns();
        names
            .iter()
            .map(|&name| {
                let stats = self.stats(name);
                (stats.self_ns as f64 - stats.children as f64 * outside).max(0.0)
            })
            .sum()
    }

    /// A duration quantile over the merged histograms of `names`.
    pub fn quantile(&self, names: &[Name], q: f64) -> f64 {
        let mut merged = LogHistogram::default();
        for &name in names {
            merged.merge(&self.stats(name).hist);
        }
        merged.quantile(q) as f64
    }

    /// The trace file: per-name aggregates with their histograms, and the
    /// sampled roots with their child lists.
    pub fn to_json(&self, workload: &str) -> Value {
        let mut spans = Value::object();
        for name in Name::ALL {
            let stats = self.stats(name);
            if stats.count == 0 {
                continue;
            }
            let mut entry = Value::object();
            entry
                .set("count", stats.count)
                .set("busy_ns", stats.busy_ns)
                .set("self_ns", stats.self_ns)
                .set("children", stats.children)
                .set("p50_ns", stats.hist.quantile(0.5))
                .set("p99_ns", stats.hist.quantile(0.99))
                .set("p999_ns", stats.hist.quantile(0.999))
                .set(
                    "buckets_upper_ns_count",
                    stats
                        .hist
                        .nonzero_buckets()
                        .into_iter()
                        .map(|(upper, hits)| Value::Arr(vec![upper.into(), hits.into()]))
                        .collect::<Vec<_>>(),
                );
            spans.set(name.label(), entry);
        }
        let samples: Vec<Value> = self
            .samples
            .iter()
            .map(|sample| {
                let mut entry = Value::object();
                entry
                    .set("name", sample.name.label())
                    .set("id", sample.id)
                    .set("parent", sample.parent)
                    .set("root", sample.root)
                    .set("start_ns", sample.start_ns)
                    .set("end_ns", sample.end_ns);
                entry
            })
            .collect();
        let mut file = Value::object();
        file.set("workload", workload)
            .set("span_overhead_outside_ns", self.overhead_outside_ns())
            .set("span_overhead_total_ns", self.overhead_total_ns())
            .set("spans", spans)
            .set("sampled_spans", samples);
        file
    }
}

/// The span names one wrapped FTL records under.
#[derive(Debug, Clone, Copy)]
pub struct FtlNames {
    read: Name,
    write: Name,
    batch: Name,
}

/// Names for a wrapped [`vflash_ftl::ConventionalFtl`].
pub const CONVENTIONAL: FtlNames = FtlNames {
    read: Name::FtlRead,
    write: Name::FtlWrite,
    batch: Name::FtlBatch,
};
/// Names for a wrapped [`vflash_ppb::PpbFtl`].
pub const PPB: FtlNames = FtlNames {
    read: Name::PpbRead,
    write: Name::PpbWrite,
    batch: Name::PpbBatch,
};

/// Wraps an FTL and records one span per `submit` / `submit_batch`. Everything
/// else delegates, so the wrapped FTL behaves — and simulates — exactly as the
/// bare one; the fingerprint check between traced and untraced runs proves it.
#[derive(Debug)]
pub struct SpanFtl<F> {
    inner: F,
    names: FtlNames,
}

impl<F: FlashTranslationLayer> SpanFtl<F> {
    /// Wraps `inner`, recording under `names`.
    pub fn new(inner: F, names: FtlNames) -> Self {
        SpanFtl { inner, names }
    }
}

impl<F: FlashTranslationLayer> FlashTranslationLayer for SpanFtl<F> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn logical_pages(&self) -> u64 {
        self.inner.logical_pages()
    }

    fn submit(&mut self, request: IoRequest) -> Result<Completion, FtlError> {
        enter(match request.command {
            IoCommand::Read => self.names.read,
            IoCommand::Write { .. } => self.names.write,
        });
        let result = self.inner.submit(request);
        exit();
        if let Ok(completion) = &result {
            note_latency(completion.latency.as_nanos());
        }
        result
    }

    // The inner FTL's own `submit_batch` runs (its per-request submits are the
    // inner FTL's, so they are covered by the batch span, not double-counted).
    fn submit_batch(&mut self, requests: &[IoRequest]) -> Result<BatchCompletion, FtlError> {
        enter(self.names.batch);
        let result = self.inner.submit_batch(requests);
        exit();
        result
    }

    fn note_batch(&mut self, pages: u64) {
        self.inner.note_batch(pages);
    }

    fn set_write_stripe(&mut self, lanes: usize) {
        self.inner.set_write_stripe(lanes);
    }

    fn metrics(&self) -> &FtlMetrics {
        self.inner.metrics()
    }

    fn is_read_only(&self) -> bool {
        self.inner.is_read_only()
    }

    fn device(&self) -> &NandDevice {
        self.inner.device()
    }

    fn device_mut(&mut self) -> &mut NandDevice {
        self.inner.device_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(nanos: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < nanos {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_roots_are_sampled() {
        start();
        enter(Name::KvPut);
        spin(200_000);
        enter(Name::FtlWrite);
        spin(300_000);
        exit();
        exit_also(Some(Name::KvStalledWrite));
        let report = finish();
        let put = report.stats(Name::KvPut);
        assert_eq!((put.count, put.children), (1, 1));
        assert!(put.busy_ns >= 500_000);
        assert!(put.self_ns >= 200_000 && put.self_ns < put.busy_ns - 290_000);
        assert_eq!(report.stats(Name::KvStalledWrite).busy_ns, put.busy_ns);
        assert_eq!(report.stats(Name::FtlWrite).count, 1);
        // The first root is sampled with its child, child first.
        let file = report.to_json("test");
        let sampled = file.get("sampled_spans").unwrap().items();
        assert_eq!(sampled.len(), 2);
        assert_eq!(sampled[0].get("parent"), sampled[1].get("id"));
        assert_eq!(sampled[1].get("parent").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        enter(Name::KvGet);
        exit();
        start();
        let report = finish();
        assert_eq!(report.stats(Name::KvGet).count, 0);
    }

    #[test]
    fn calibration_measures_a_positive_per_span_cost() {
        start();
        calibrate();
        let report = finish();
        assert!(report.overhead_total_ns() > 0.0);
        assert!(report.overhead_outside_ns() <= report.overhead_total_ns());
    }
}
