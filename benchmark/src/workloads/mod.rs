//! The six workloads and what they share: how a repetition is metered, how an
//! FTL is built bare (untraced) or wrapped in [`SpanFtl`](crate::span::SpanFtl)
//! (traced), and the FTL/NAND layer numbers every workload derives from the
//! FTLs it drove.

use std::time::Instant;

use vflash_ftl::{ConventionalFtl, FlashTranslationLayer, FtlConfig};
use vflash_nand::{NandConfig, NandDevice};
use vflash_ppb::{PpbConfig, PpbFtl};
use vflash_sim::FtlKind;

use crate::alloc;
use crate::span::{self, Name, Report};
use crate::stats::Fingerprint;

pub mod fleet;
pub mod kv;
pub mod micro;
pub mod replay;

/// Named layer values, `(metric name, value)`.
pub type Layers = Vec<(&'static str, f64)>;

/// A set-up workload: generated inputs plus the device geometry to run them on.
pub trait Workload {
    /// Runs one repetition: builds every device, FTL and store from scratch and
    /// drives the generated inputs through them. `traced` wraps the FTLs in
    /// `SpanFtl` and (for KV) checks every result against a shadow model.
    fn rep(&self, traced: bool) -> Rep;

    /// Host-time layer metrics of the layers on this workload's path: numbers
    /// read off the traced repetitions' spans, and isolated micro-sections
    /// timed here.
    fn host_layers(&self, traced: &TracedRun<'_>) -> Layers;
}

/// Generates the inputs of workload `name` from `seed`. `smoke` shrinks every
/// size for the self-test.
///
/// # Panics
///
/// Panics on an unknown name (the caller validated it against the spec).
pub fn setup(name: &str, seed: u64, smoke: bool) -> Box<dyn Workload> {
    match name {
        "replay_serial" => Box::new(replay::Replay::setup(replay::Mode::Serial, seed, smoke)),
        "replay_queued" => Box::new(replay::Replay::setup(replay::Mode::Queued, seed, smoke)),
        "kv_write" => Box::new(kv::Kv::setup(kv::Mix::Write, seed, smoke)),
        "kv_read" => Box::new(kv::Kv::setup(kv::Mix::Read, seed, smoke)),
        "fleet_stripe" => Box::new(fleet::FleetRun::setup(false, seed, smoke)),
        "fleet_cached" => Box::new(fleet::FleetRun::setup(true, seed, smoke)),
        other => panic!("unknown workload {other}"),
    }
}

/// What the traced repetitions recorded, handed to [`Workload::host_layers`].
pub struct TracedRun<'a> {
    /// Span aggregates over all traced repetitions.
    pub report: &'a Report,
    /// The traced repetitions.
    pub reps: &'a [Rep],
}

impl TracedRun<'_> {
    /// Traced repetitions, as a divisor.
    pub fn rep_count(&self) -> f64 {
        self.reps.len() as f64
    }

    /// Operations per traced repetition.
    pub fn ops_per_rep(&self) -> f64 {
        self.reps[0].ops as f64
    }
}

/// Host cost of the measured region(s) of one repetition.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    /// Wall-clock nanoseconds.
    pub host_ns: u64,
    /// Wall-clock nanoseconds by FTL (`[conventional, ppb]`).
    pub host_ns_by_ftl: [u64; 2],
    /// Wall-clock nanoseconds of each measured part (one FTL's run of one
    /// trace, store or fleet), in execution order.
    pub part_ns: Vec<u64>,
    /// Heap allocations.
    pub allocs: u64,
    /// Heap bytes requested.
    pub alloc_bytes: u64,
}

impl Meter {
    /// Runs `body` as (part of) the measured region, attributed to `kind`.
    pub fn measure<T>(&mut self, kind: FtlKind, body: impl FnOnce() -> T) -> T {
        let (allocs, bytes) = alloc::snapshot();
        let start = Instant::now();
        let out = body();
        let elapsed = start.elapsed().as_nanos() as u64;
        let (allocs_after, bytes_after) = alloc::snapshot();
        self.host_ns += elapsed;
        self.host_ns_by_ftl[ftl_index(kind)] += elapsed;
        self.part_ns.push(elapsed);
        self.allocs += allocs_after - allocs;
        self.alloc_bytes += bytes_after - bytes;
        out
    }
}

/// Index of `kind` in `[conventional, ppb]` arrays.
pub fn ftl_index(kind: FtlKind) -> usize {
    match kind {
        FtlKind::Conventional => 0,
        FtlKind::Ppb => 1,
    }
}

/// The simulated end-to-end results of one repetition (PPB run unless the name
/// says otherwise); see the README for each workload's exact definition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimEndToEnd {
    /// Host requests (KV: ops) per simulated second.
    pub iops: f64,
    /// Simulated mean read latency in µs.
    pub read_mean_us: f64,
    /// Simulated mean write latency in µs.
    pub write_mean_us: f64,
    /// End-to-end write amplification.
    pub wa: f64,
    /// Blocks erased.
    pub erases: f64,
    /// PPB mean read latency / conventional mean read latency.
    pub ppb_read_lat_ratio: f64,
    /// PPB mean write latency / conventional mean write latency.
    pub ppb_write_lat_ratio: f64,
}

/// One repetition's outcome.
pub struct Rep {
    /// Host cost of the measured region.
    pub meter: Meter,
    /// Operations (trace requests or KV ops) in the measured region.
    pub ops: u64,
    /// Operations that failed: errors, uncorrectable reads, shadow mismatches.
    pub failed: u64,
    /// FNV over every simulated summary of the repetition.
    pub fingerprint: Fingerprint,
    /// Simulated end-to-end metrics.
    pub sim: SimEndToEnd,
    /// Simulated and counted layer metrics (identical traced or not).
    pub layers: Layers,
}

/// Builds a bare conventional FTL on a fresh device.
pub fn conventional(config: &NandConfig) -> ConventionalFtl {
    ConventionalFtl::new(NandDevice::new(config.clone()), FtlConfig::default())
        .expect("benchmark geometry is valid for the conventional FTL")
}

/// Builds a bare PPB FTL on a fresh device.
pub fn ppb(config: &NandConfig) -> PpbFtl {
    PpbFtl::new(NandDevice::new(config.clone()), PpbConfig::default())
        .expect("benchmark geometry is valid for the PPB FTL")
}

/// Binds `$make` to a constructor of the FTL `$kind` on `$config` — bare, or
/// wrapped in `SpanFtl` when `$traced` — and evaluates `$body` with it. A macro
/// because the four arms have four different FTL types and the code under test
/// is generic (static dispatch, as the experiments binary uses it).
macro_rules! with_ftl {
    ($kind:expr, $traced:expr, $config:expr, |$make:ident| $body:expr) => {
        match ($kind, $traced) {
            (vflash_sim::FtlKind::Conventional, false) => {
                let $make = || $crate::workloads::conventional($config);
                $body
            }
            (vflash_sim::FtlKind::Conventional, true) => {
                let $make = || {
                    $crate::span::SpanFtl::new(
                        $crate::workloads::conventional($config),
                        $crate::span::CONVENTIONAL,
                    )
                };
                $body
            }
            (vflash_sim::FtlKind::Ppb, false) => {
                let $make = || $crate::workloads::ppb($config);
                $body
            }
            (vflash_sim::FtlKind::Ppb, true) => {
                let $make = || {
                    $crate::span::SpanFtl::new($crate::workloads::ppb($config), $crate::span::PPB)
                };
                $body
            }
        }
    };
}
pub(crate) use with_ftl;

/// Counters summed over every FTL of one kind a repetition drove (several
/// traces, several lanes), read from the FTLs' own metrics and device
/// statistics once each run ends — prefill and preload included.
#[derive(Debug, Clone, Copy, Default)]
pub struct FtlTotals {
    /// `submit` calls made from outside the FTL (pages served minus pages that
    /// arrived inside a batch).
    pub submits: u64,
    /// `submit_batch` calls.
    pub batches: u64,
    /// Pages served through batches.
    pub batched_pages: u64,
    /// Pages copied by garbage collection.
    pub gc_copied: u64,
    /// Pages PPB migrated between areas.
    pub migrated: u64,
    /// Host page writes.
    pub host_writes: u64,
    /// Device operations (reads + programs + erases).
    pub device_ops: u64,
    /// Blocks erased.
    pub erases: u64,
}

impl FtlTotals {
    /// Adds the lifetime counters of `ftl`.
    pub fn add<F: FlashTranslationLayer>(&mut self, ftl: &F) {
        let metrics = ftl.metrics();
        self.submits += metrics.host_reads + metrics.host_writes - metrics.batched_pages;
        self.batches += metrics.batched_submissions;
        self.batched_pages += metrics.batched_pages;
        self.gc_copied += metrics.gc_copied_pages;
        self.migrated += metrics.migrated_pages;
        self.host_writes += metrics.host_writes;
        let counts = ftl.device().stats().counts;
        self.device_ops += counts.page_ops() + counts.erases;
        self.erases += counts.erases;
    }

    /// Adds another set of totals.
    pub fn add_totals(&mut self, other: &FtlTotals) {
        self.submits += other.submits;
        self.batches += other.batches;
        self.batched_pages += other.batched_pages;
        self.gc_copied += other.gc_copied;
        self.migrated += other.migrated;
        self.host_writes += other.host_writes;
        self.device_ops += other.device_ops;
        self.erases += other.erases;
    }

    fn wa(&self) -> f64 {
        if self.host_writes == 0 {
            0.0
        } else {
            (self.host_writes + self.gc_copied) as f64 / self.host_writes as f64
        }
    }
}

/// The counted and simulated `nand.*`, `ftl.*` and `ppb.*` layer metrics of one
/// repetition of `ops` operations.
pub fn ftl_count_layers(totals: &[FtlTotals; 2], ops: u64) -> Layers {
    let [conv, ppb] = totals;
    // Batching is the trait's shared default implementation, so the batch
    // numbers cover both FTLs.
    let batches = conv.batches + ppb.batches;
    let batch_pages_mean = if batches == 0 {
        0.0
    } else {
        (conv.batched_pages + ppb.batched_pages) as f64 / batches as f64
    };
    vec![
        (
            "nand.ops_per_req",
            (conv.device_ops + ppb.device_ops) as f64 / ops as f64,
        ),
        ("nand.erases", (conv.erases + ppb.erases) as f64),
        ("ftl.submit_calls", conv.submits as f64),
        ("ftl.batch_calls", batches as f64),
        ("ftl.batch_pages_mean", batch_pages_mean),
        ("ftl.gc_copied_pages", conv.gc_copied as f64),
        ("ftl.wa", conv.wa()),
        ("ppb.submit_calls", ppb.submits as f64),
        ("ppb.migrated_pages", ppb.migrated as f64),
        ("ppb.wa", ppb.wa()),
    ]
}

/// The host-time `ftl.*` and `ppb.*` layer metrics, read off the `SpanFtl`
/// spans: per-repetition busy time, share of the FTL's own runs, and the
/// per-call duration quantiles. Busy time and share are net of the calibrated
/// tracer cost (the quantiles are as recorded, tracer's in-span cost included),
/// so the share estimates what `submit` takes of an *untraced* run.
pub fn ftl_span_layers(traced: &TracedRun<'_>) -> Layers {
    let report = traced.report;
    let reps = traced.rep_count();
    // [conventional, ppb]: submit spans, all spans, index into per-FTL host time.
    let kinds = [
        ([Name::FtlRead, Name::FtlWrite], Name::FtlBatch),
        ([Name::PpbRead, Name::PpbWrite], Name::PpbBatch),
    ];
    let share = |index: usize| {
        let (submits, batch) = kinds[index];
        let spans = [submits[0], submits[1], batch];
        let host: f64 = traced
            .reps
            .iter()
            .map(|rep| rep.meter.host_ns_by_ftl[index] as f64)
            .sum();
        let untraced_host = host - report.count(&spans) as f64 * report.overhead_total_ns();
        if untraced_host <= 0.0 {
            0.0
        } else {
            report.net_busy_ns(&spans) / untraced_host
        }
    };
    let (conv, ppb) = (kinds[0].0, kinds[1].0);
    vec![
        ("ftl.submit_busy_s", report.net_busy_ns(&conv) / reps / 1e9),
        ("ftl.submit_share", share(0)),
        ("ftl.read_ns_p50", report.quantile(&[Name::FtlRead], 0.5)),
        ("ftl.read_ns_p999", report.quantile(&[Name::FtlRead], 0.999)),
        ("ftl.write_ns_p50", report.quantile(&[Name::FtlWrite], 0.5)),
        (
            "ftl.write_ns_p999",
            report.quantile(&[Name::FtlWrite], 0.999),
        ),
        (
            "ftl.batch_busy_s",
            report.net_busy_ns(&[Name::FtlBatch, Name::PpbBatch]) / reps / 1e9,
        ),
        ("ppb.submit_busy_s", report.net_busy_ns(&ppb) / reps / 1e9),
        ("ppb.submit_share", share(1)),
        ("ppb.read_ns_p50", report.quantile(&[Name::PpbRead], 0.5)),
        ("ppb.read_ns_p999", report.quantile(&[Name::PpbRead], 0.999)),
        ("ppb.write_ns_p50", report.quantile(&[Name::PpbWrite], 0.5)),
        (
            "ppb.write_ns_p999",
            report.quantile(&[Name::PpbWrite], 0.999),
        ),
    ]
}

/// Checks that `SpanFtl` saw exactly the submits the FTLs' own metrics report:
/// the number of violations (0 or 1 per FTL kind).
pub fn span_count_mismatches(traced: &TracedRun<'_>) -> u64 {
    let expect = |metric: &str| -> u64 {
        traced
            .reps
            .iter()
            .map(|rep| {
                rep.layers
                    .iter()
                    .find(|(name, _)| *name == metric)
                    .map_or(0.0, |(_, v)| *v) as u64
            })
            .sum()
    };
    let report = traced.report;
    let mut mismatches = 0;
    if report.count(&[Name::FtlRead, Name::FtlWrite]) != expect("ftl.submit_calls") {
        mismatches += 1;
    }
    if report.count(&[Name::PpbRead, Name::PpbWrite]) != expect("ppb.submit_calls") {
        mismatches += 1;
    }
    if report.count(&[Name::FtlBatch, Name::PpbBatch]) != expect("ftl.batch_calls") {
        mismatches += 1;
    }
    mismatches
}

/// Times `body` over `iterations` calls and returns nanoseconds per call.
pub fn ns_per_call(iterations: u64, mut body: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for index in 0..iterations {
        body(index);
    }
    start.elapsed().as_nanos() as f64 / iterations.max(1) as f64
}

/// `span::enter` + `body` + `span::exit`, returning `body`'s value.
pub fn spanned<T>(name: Name, body: impl FnOnce() -> T) -> T {
    span::enter(name);
    let out = body();
    span::exit();
    out
}
