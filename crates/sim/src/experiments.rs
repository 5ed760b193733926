//! One description of a run, one executor, and the axes of the paper's
//! evaluation (Figures 12–18).
//!
//! A [`RunSpec`] is plain data: which trace, on which device, through which
//! FTL, under which arrival discipline. [`run_spec`] is the only code that
//! turns one into a [`RunSummary`] — it builds device and FTL, prefills, warms
//! up and drives — and [`compare_specs`] runs a
//! list of them through both FTLs **on the same trace**, fanned out over a
//! [`ParallelRunner`]. Every section of the `experiments` binary in
//! `vflash-bench` is such a list over the axis constants below, so unit tests
//! and the `--quick` golden exercise the code path the full harness uses,
//! scaled down by an [`ExperimentScale`].
//!
//! The original MSR-Cambridge traces are replaced by the synthetic generators in
//! [`vflash_trace::synthetic`]; see `DESIGN.md` for the substitution rationale.

use std::borrow::Cow;

use vflash_ftl::hotcold::{FreqTable, MultiHash, TwoLevelLru};
use vflash_ftl::{ConventionalFtl, FlashTranslationLayer, FtlConfig, FtlError, IoRequest, Lpn};
use vflash_nand::{FaultConfig, NandConfig, NandDevice, NandError, Nanos};
use vflash_ppb::{PpbConfig, PpbFtl};
use vflash_trace::synthetic::{self, ArrivalModel, SyntheticConfig};
use vflash_trace::Trace;

use crate::engine::{ArrivalDiscipline, RunOptions, WorkloadDriver};
use crate::lane::prefill;
use crate::parallel::ParallelRunner;
use crate::report::{Comparison, RunSummary};

/// The speed-difference sweep used throughout the evaluation (2x to 5x).
pub const SPEED_RATIOS: [f64; 4] = [2.0, 3.0, 4.0, 5.0];

/// The page sizes compared in Figures 12 and 15.
pub const PAGE_SIZES: [usize; 2] = [8 * 1024, 16 * 1024];

/// The queue depths every figure can additionally be swept over.
pub const QUEUE_DEPTHS: [usize; 4] = [1, 4, 16, 64];

/// The open-loop rate scales the offered-load sweep replays at: from a tenth of
/// the trace's recorded arrival rate (comfortably under-saturated on the default
/// devices) to 4x (well past saturation), so the latency-vs-offered-load curve
/// shows both regimes and its knee.
pub const RATE_SCALES: [f64; 6] = [0.1, 0.25, 0.5, 1.0, 2.0, 4.0];

/// The host-tier fleet widths the fleet sweep stripes the keyspace over
/// ([`ExperimentGrid::fleet_sweep`](crate::ExperimentGrid::fleet_sweep)): 1
/// device (the single-drive reference) through 8-wide striping.
pub const FLEET_SIZES: [usize; 4] = [1, 2, 4, 8];

/// The burstiness axis: arrival models of *identical mean rate* ordered from
/// smooth to extremely bursty. The first entry is the
/// jittered-uniform reference; the Pareto entries get heavier as the shape drops
/// towards 1, and the on/off entries compress all arrivals into ever denser
/// bursts. Because the mean rate is held fixed, any latency difference down the
/// axis is attributable to burstiness alone — the queueing-theory point the
/// paper's tail-latency claims rest on: mean latency moves little, what moves
/// is the *tail* (p99/p99.9, [`RunSummary::peak_queue_depth`],
/// [`RunSummary::busy_arrival_fraction`]), where queueing amplifies every slow
/// page access.
pub fn burst_axis(mean_iops: f64) -> Vec<ArrivalModel> {
    vec![
        ArrivalModel::MeanRate { iops: mean_iops },
        ArrivalModel::Pareto { shape: 2.5, mean_iops },
        ArrivalModel::Pareto { shape: 1.5, mean_iops },
        ArrivalModel::Pareto { shape: 1.2, mean_iops },
        ArrivalModel::OnOffBurst {
            burst_iops: 4.0 * mean_iops,
            idle_fraction: 0.75,
            burst_len: 64,
        },
        ArrivalModel::OnOffBurst {
            burst_iops: 10.0 * mean_iops,
            idle_fraction: 0.9,
            burst_len: 256,
        },
    ]
}

/// The fraction of a device's probed saturation throughput the burstiness
/// sweep offers as its fixed mean rate. Half of saturation puts the smooth
/// end of the [`burst_axis`] comfortably inside the device's capacity — where
/// uniform arrivals see near-zero queueing — while the bursty end still
/// overloads the device *transiently*, exactly the regime where the tail
/// spreads.
pub const BURST_SATURATION_FRACTION: f64 = 0.5;

/// The fixed mean rate a burstiness sweep of `workload` offers on the device of
/// `scale`: [`BURST_SATURATION_FRACTION`] of the throughput the conventional
/// FTL saturates at — closed loop at QD 64, where arrivals cannot come in
/// faster than the device serves them.
///
/// # Errors
///
/// Propagates FTL construction and replay errors from the probe run.
pub fn burst_mean_iops(workload: Workload, scale: &ExperimentScale) -> Result<f64, FtlError> {
    let probe = RunSpec {
        discipline: ArrivalDiscipline::ClosedLoop { queue_depth: 64 },
        ..RunSpec::new(workload, *scale)
    };
    Ok(run_spec(&probe)?.request_iops() * BURST_SATURATION_FRACTION)
}

/// [`burst_mean_iops`] of the workload that saturates *first*: taking the
/// minimum keeps the smooth end of the [`burst_axis`] under capacity for
/// **every** workload, so differences down the axis stay attributable to
/// burstiness rather than to one workload saturating outright, and probing
/// (rather than pinning a rate) keeps the axis meaningful at any scale.
///
/// # Errors
///
/// Propagates FTL construction and replay errors from the probe runs.
pub fn grid_burst_mean_iops(scale: &ExperimentScale) -> Result<f64, FtlError> {
    let mut mean = f64::INFINITY;
    for workload in Workload::ALL {
        mean = mean.min(burst_mean_iops(workload, scale)?);
    }
    Ok(mean)
}

/// The two workloads of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Large, sequential, read-dominant media-server workload.
    MediaServer,
    /// Small, random, re-read-heavy web/SQL-server workload.
    WebSqlServer,
}

impl Workload {
    /// Both workloads, in the order the paper's figures list them.
    pub const ALL: [Workload; 2] = [Workload::MediaServer, Workload::WebSqlServer];

    /// The label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Workload::MediaServer => "media-server",
            Workload::WebSqlServer => "web-sql-server",
        }
    }

    /// Generates the synthetic trace for this workload at the given scale, with
    /// the default (uniform-gap) arrival model.
    pub fn trace(self, scale: &ExperimentScale) -> Trace {
        self.trace_with_arrival(scale, ArrivalModel::default())
    }

    /// Like [`Workload::trace`], but spacing arrivals with an explicit
    /// [`ArrivalModel`] — the burstiness axis.
    pub fn trace_with_arrival(self, scale: &ExperimentScale, arrival: ArrivalModel) -> Trace {
        let config = SyntheticConfig {
            requests: scale.requests,
            seed: scale.seed,
            working_set_bytes: scale.working_set_bytes,
            arrival,
        };
        match self {
            Workload::MediaServer => synthetic::media_server(config),
            Workload::WebSqlServer => synthetic::web_sql_server(config),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// First-stage classifier choices for the classifier ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Classifier {
    /// Request-size check (the paper's case study).
    #[default]
    SizeCheck,
    /// Two-level LRU.
    TwoLevelLru,
    /// Per-LPN frequency table.
    FreqTable,
    /// Multi-hash counting sketch.
    MultiHash,
}

impl Classifier {
    /// All classifier choices.
    pub const ALL: [Classifier; 4] =
        [Classifier::SizeCheck, Classifier::TwoLevelLru, Classifier::FreqTable, Classifier::MultiHash];

    /// The label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Classifier::SizeCheck => "size-check",
            Classifier::TwoLevelLru => "two-level-lru",
            Classifier::FreqTable => "freq-table",
            Classifier::MultiHash => "multi-hash",
        }
    }
}

/// Which flash translation layer a run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FtlKind {
    /// The conventional page-mapping baseline.
    Conventional,
    /// The paper's FTL with the PPB strategy.
    Ppb,
}

impl FtlKind {
    /// Both FTLs, baseline first.
    pub const ALL: [FtlKind; 2] = [FtlKind::Conventional, FtlKind::Ppb];

    /// The label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FtlKind::Conventional => "conventional",
            FtlKind::Ppb => "ppb",
        }
    }
}

/// How large an experiment to run: trace length, working-set size and device
/// geometry. The device is sized relative to the working set so garbage collection is
/// exercised without making runs unreasonably slow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Number of trace requests per run.
    pub requests: usize,
    /// Logical working-set size touched by the workload generators, in bytes.
    pub working_set_bytes: u64,
    /// Raw device capacity as a multiple of the working set (must be > 1 to leave
    /// room for over-provisioning). The MSR enterprise traces touch only a small
    /// fraction of the 64 GB device of Table 1, so a generous default (2.0) is the
    /// faithful choice; pushing this towards 1.0 stresses garbage collection far
    /// beyond what the paper's setup does.
    pub capacity_headroom: f64,
    /// Pages (gate-stack layers) per block.
    pub pages_per_block: usize,
    /// Number of chips.
    pub chips: usize,
    /// Seed for the synthetic workload generators.
    pub seed: u64,
}

impl ExperimentScale {
    /// A fast configuration for unit tests and `experiments --quick` (a few thousand
    /// requests, tens of megabytes).
    pub fn quick() -> Self {
        ExperimentScale {
            requests: 4_000,
            working_set_bytes: 24 * 1024 * 1024,
            capacity_headroom: 2.0,
            pages_per_block: 32,
            chips: 1,
            seed: 42,
        }
    }

    /// The default configuration for the `experiments` binary: large enough for the
    /// trends to be stable, small enough to run all figures in a few minutes.
    pub fn standard() -> Self {
        ExperimentScale {
            requests: 60_000,
            working_set_bytes: 128 * 1024 * 1024,
            capacity_headroom: 2.0,
            pages_per_block: 64,
            chips: 2,
            seed: 42,
        }
    }

    /// Builds the device configuration for a given page size and speed ratio.
    ///
    /// # Panics
    ///
    /// Panics if the scale parameters produce an invalid device configuration (for
    /// example zero chips or a non-finite speed ratio); the provided presets never
    /// do. [`RunSpec::with_ftl`] refuses those with an error instead.
    pub fn device_config(&self, page_size_bytes: usize, speed_ratio: f64) -> NandConfig {
        self.checked_device_config(page_size_bytes, speed_ratio)
            .expect("experiment scale produces a valid device configuration")
    }

    /// [`ExperimentScale::device_config`], with the builder's refusal as an
    /// error. A zero chip count or block size reaches the builder, which
    /// refuses it, rather than a division by zero here.
    fn checked_device_config(
        &self,
        page_size_bytes: usize,
        speed_ratio: f64,
    ) -> Result<NandConfig, NandError> {
        let raw_bytes = (self.working_set_bytes as f64 * self.capacity_headroom) as u64;
        let block_bytes = (self.pages_per_block as u64).saturating_mul(page_size_bytes as u64);
        let total_blocks = raw_bytes.checked_div(block_bytes).unwrap_or(0).max(8) as usize;
        let blocks_per_chip = total_blocks.div_ceil(self.chips.max(1));
        NandConfig::builder()
            .chips(self.chips)
            .blocks_per_chip(blocks_per_chip)
            .pages_per_block(self.pages_per_block)
            .page_size_bytes(page_size_bytes)
            .speed_ratio(speed_ratio)
            .build()
    }

    /// Returns a copy of this scale whose working set covers `trace`'s distinct
    /// logical-page footprint (at 16 KB pages, the sweep page size), so the
    /// devices built from it hold the trace's data at the scale's configured
    /// [`capacity_headroom`](ExperimentScale::capacity_headroom) instead of
    /// overflowing. This is what the real-trace path uses: synthetic workloads
    /// are generated *for* a working set, but an external trace arrives with its
    /// own — possibly much larger — footprint.
    ///
    /// The working set only grows, never shrinks, so a small trace still runs on
    /// the scale's default device.
    pub fn sized_for_trace(&self, trace: &Trace) -> ExperimentScale {
        const PAGE: u64 = 16 * 1024;
        let mut pages: Vec<u64> =
            trace.into_iter().flat_map(|request| request.logical_pages(PAGE as usize)).collect();
        pages.sort_unstable();
        pages.dedup();
        let footprint = pages.len() as u64 * PAGE;
        ExperimentScale {
            working_set_bytes: self.working_set_bytes.max(footprint),
            ..*self
        }
    }
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale::standard()
    }
}

/// The paper's replay discipline: closed loop at queue depth 1 (accumulated
/// access latency per trace, no request overlap).
pub const SERIAL: ArrivalDiscipline = ArrivalDiscipline::ClosedLoop { queue_depth: 1 };

/// Where a run's requests come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceSource<'a> {
    /// Generated from the spec's scale, seed and [`ArrivalModel`].
    Synthetic(Workload),
    /// A trace the caller holds (`experiments --trace file.csv`); the arrival
    /// model does not apply.
    External(&'a Trace),
    /// Key-value operations against an LSM store on the spec's device; no
    /// block trace. `vflash_kv::run_kv_cell` is its executor.
    Kv(KvSource),
}

impl TraceSource<'_> {
    /// The workload label or trace name, as reports print it.
    pub fn label(&self) -> &str {
        match self {
            TraceSource::Synthetic(workload) => workload.label(),
            TraceSource::External(trace) => trace.name(),
            TraceSource::Kv(_) => "kv-zipf",
        }
    }
}

/// A zipf-skewed key-value mix: `scale.requests` operations over `key_space`
/// keys, seeded by `scale.seed`; the mix itself is fixed in `vflash-kv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvSource {
    /// Distinct keys; a key is the 8-byte big-endian encoding of a zipf rank.
    pub key_space: usize,
    /// Pages the store submits per window (1: one page at a time).
    pub io_depth: usize,
}

impl From<KvSource> for TraceSource<'_> {
    fn from(source: KvSource) -> Self {
        TraceSource::Kv(source)
    }
}

impl From<Workload> for TraceSource<'_> {
    fn from(workload: Workload) -> Self {
        TraceSource::Synthetic(workload)
    }
}

impl<'a> From<&'a Trace> for TraceSource<'a> {
    fn from(trace: &'a Trace) -> Self {
        TraceSource::External(trace)
    }
}

/// One run, as plain data: every value some section of the evaluation varies.
/// [`RunSpec::new`] is the paper's default point (16 KB pages, 2x, QD 1,
/// PPB as published); sections move one or two fields off it with
/// struct-update syntax.
///
/// One seed rule: the trace of a synthetic spec is generated from `scale.seed`
/// and nothing else, so specs that differ only in FTL, discipline, fleet width
/// or any other device-side field replay the *same* requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec<'a> {
    /// The requests to replay.
    pub source: TraceSource<'a>,
    /// Trace length, working set, device geometry and workload seed.
    pub scale: ExperimentScale,
    /// Flash page size in bytes.
    pub page_size_bytes: usize,
    /// Top/bottom page speed ratio.
    pub speed_ratio: f64,
    /// NAND fault model for the device (`None`: fault-free). The
    /// [`FaultConfig`] carries its own seed.
    pub faults: Option<FaultConfig>,
    /// The FTL under test.
    pub ftl: FtlKind,
    /// PPB configuration (ignored by the conventional FTL).
    pub ppb: PpbConfig,
    /// PPB's first-stage hot/cold classifier (ignored by the conventional FTL).
    pub classifier: Classifier,
    /// When requests are issued: closed loop at a depth, or open loop at a rate.
    pub discipline: ArrivalDiscipline,
    /// How a synthetic trace spaces its arrivals.
    pub arrival: ArrivalModel,
    /// Fraction of the trace replayed un-measured (after the prefill of the
    /// *full* trace's pages) before the measured suffix starts, so a longer
    /// warm-up measures a genuinely aged device rather than a shorter trace on
    /// a fresh one.
    pub warmup_fraction: f64,
    /// Devices the keyspace is striped over. [`run_spec`] replays on one
    /// device and refuses any other width; `vflash_fleet::run_fleet_cell` is
    /// the width-aware executor (this crate sits below the fleet tier).
    pub fleet_width: usize,
}

impl<'a> RunSpec<'a> {
    /// The paper's default point for `source` at `scale`: conventional FTL,
    /// 16 KB pages (4 KB, the store's page, for a KV source), 2x speed
    /// difference, no faults, [`SERIAL`] replay of the default arrivals, no
    /// warm-up, one device.
    pub fn new(source: impl Into<TraceSource<'a>>, scale: ExperimentScale) -> Self {
        let source = source.into();
        RunSpec {
            source,
            scale,
            page_size_bytes: if matches!(source, TraceSource::Kv(_)) { 4 * 1024 } else { 16 * 1024 },
            speed_ratio: 2.0,
            faults: None,
            ftl: FtlKind::Conventional,
            ppb: PpbConfig::default(),
            classifier: Classifier::default(),
            discipline: SERIAL,
            arrival: ArrivalModel::default(),
            warmup_fraction: 0.0,
            fleet_width: 1,
        }
    }

    /// This spec on `ftl`. The conventional FTL has no PPB knobs, so they are
    /// reset: baselines of rows that differ only in those compare equal and
    /// [`compare_specs`] runs them once.
    pub fn on(self, ftl: FtlKind) -> Self {
        match ftl {
            FtlKind::Conventional => RunSpec {
                ftl,
                ppb: PpbConfig::default(),
                classifier: Classifier::default(),
                ..self
            },
            FtlKind::Ppb => RunSpec { ftl, ..self },
        }
    }

    /// The trace this spec replays: generated, or the caller's.
    ///
    /// # Errors
    ///
    /// [`FtlError::InvalidConfig`] for a KV source, which has no block trace,
    /// and for a synthetic source the generators cannot make: zero requests,
    /// or an arrival model [`ArrivalModel::validate`] rejects.
    pub fn trace(&self) -> Result<Cow<'a, Trace>, FtlError> {
        match self.source {
            TraceSource::Synthetic(workload) => {
                let generable = match self.scale.requests {
                    0 => Err("a synthetic trace needs at least one request"),
                    _ => self.arrival.validate(),
                };
                generable.map_err(|reason| FtlError::InvalidConfig { reason: reason.into() })?;
                Ok(Cow::Owned(workload.trace_with_arrival(&self.scale, self.arrival)))
            }
            TraceSource::External(trace) => Ok(Cow::Borrowed(trace)),
            TraceSource::Kv(_) => Err(FtlError::InvalidConfig {
                reason: "a KV source has no block trace: run it with vflash_kv::run_kv_cell".into(),
            }),
        }
    }

    /// Hands `job` a constructor of this spec's FTL — device built from the
    /// scale, page size, speed ratio and faults — whatever its concrete type.
    /// Every executor builds its FTLs here, so the paper's defaults can never
    /// diverge between a figure, a grid and a fleet lane.
    ///
    /// # Errors
    ///
    /// Propagates an invalid device configuration (a scale or page size no
    /// device has, a non-finite speed ratio), an invalid fault configuration
    /// and whatever `job` returns.
    pub fn with_ftl<J: FtlJob>(&self, job: J) -> Result<J::Output, FtlError> {
        let mut config = self.scale.checked_device_config(self.page_size_bytes, self.speed_ratio)?;
        if let Some(faults) = self.faults {
            config = config.with_faults(faults)?;
        }
        let device = || NandDevice::new(config.clone());
        let ppb = self.ppb;
        match (self.ftl, self.classifier) {
            (FtlKind::Conventional, _) => {
                job.run(|| ConventionalFtl::new(device(), FtlConfig::default()))
            }
            (FtlKind::Ppb, Classifier::SizeCheck) => job.run(|| PpbFtl::new(device(), ppb)),
            (FtlKind::Ppb, Classifier::TwoLevelLru) => {
                job.run(|| PpbFtl::new(device(), (ppb, TwoLevelLru::new(4096, 4096))))
            }
            (FtlKind::Ppb, Classifier::FreqTable) => {
                job.run(|| PpbFtl::new(device(), (ppb, FreqTable::new(2, 100_000))))
            }
            (FtlKind::Ppb, Classifier::MultiHash) => {
                job.run(|| PpbFtl::new(device(), (ppb, MultiHash::new(1 << 16, 2, 2, 100_000))))
            }
        }
    }
}

/// Work to do on the FTL a [`RunSpec`] describes. The FTLs are five concrete
/// types (the conventional placement, and PPB over four classifiers), so code
/// generic over them receives a constructor instead of a value.
pub trait FtlJob {
    /// What the job produces.
    type Output;

    /// Runs the job. Every call of `build` makes a fresh device and FTL (a
    /// fleet calls it once per lane).
    ///
    /// # Errors
    ///
    /// Propagates FTL construction and replay errors.
    fn run<F: FlashTranslationLayer>(
        self,
        build: impl Fn() -> Result<F, FtlError>,
    ) -> Result<Self::Output, FtlError>;
}

/// Runs one spec on a single device: builds device and FTL, prefills every
/// page the trace touches, replays the warm-up prefix un-measured (if any) and
/// measures the rest under the spec's discipline.
///
/// # Errors
///
/// Propagates FTL construction and replay errors; a KV source, a fleet width
/// other than 1, a discipline [`ArrivalDiscipline::validate`] rejects and a
/// synthetic source [`RunSpec::trace`] cannot generate are
/// [`FtlError::InvalidConfig`].
pub fn run_spec(spec: &RunSpec<'_>) -> Result<RunSummary, FtlError> {
    struct Single<'s, 'a>(&'s RunSpec<'a>);
    impl FtlJob for Single<'_, '_> {
        type Output = RunSummary;
        fn run<F: FlashTranslationLayer>(
            self,
            build: impl Fn() -> Result<F, FtlError>,
        ) -> Result<RunSummary, FtlError> {
            let (spec, trace) = (self.0, self.0.trace()?);
            let trace = trace.as_slice();
            let mut ftl = build()?;
            let split = ((trace.len() as f64 * spec.warmup_fraction).round() as usize).min(trace.len());
            let options = RunOptions::default();
            if split == 0 {
                return WorkloadDriver::new(options, spec.discipline).run_mut(&mut ftl, trace);
            }
            let logical_pages = ftl.logical_pages();
            prefill(&options, &mut [&mut ftl], trace, logical_pages, |page| (0, page))?;
            let driver = WorkloadDriver::new(RunOptions { prefill: false }, spec.discipline);
            let (warmup, measured) = trace.split_at(split);
            driver.run_mut(&mut ftl, warmup)?;
            driver.run_mut(&mut ftl, measured)
        }
    }
    if spec.fleet_width != 1 {
        let reason = format!(
            "run_spec replays on one device, not {}: run the spec with vflash_fleet::run_fleet_cell",
            spec.fleet_width
        );
        return Err(FtlError::InvalidConfig { reason });
    }
    spec.discipline.validate()?;
    spec.with_ftl(Single(spec))
}

/// One row of every comparison table: a spec, and both FTLs' runs of it.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow<'a> {
    /// What was run (its `ftl` field is not meaningful here).
    pub spec: RunSpec<'a>,
    /// Conventional (baseline) against PPB (variant), on the same trace.
    pub comparison: Comparison,
}

/// Runs every spec through both FTLs on `runner` and pairs the summaries up,
/// one row per spec, in order. Runs that compare equal — the conventional
/// baseline of rows that vary only a PPB knob — execute once.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing run.
pub fn compare_specs<'a>(
    runner: &ParallelRunner,
    specs: &[RunSpec<'a>],
) -> Result<Vec<ComparisonRow<'a>>, FtlError> {
    let mut runs: Vec<RunSpec<'a>> = Vec::new();
    let pairs: Vec<[usize; 2]> = specs
        .iter()
        .map(|spec| {
            FtlKind::ALL.map(|ftl| {
                let run = spec.on(ftl);
                runs.iter().position(|seen| *seen == run).unwrap_or_else(|| {
                    runs.push(run);
                    runs.len() - 1
                })
            })
        })
        .collect();
    let summaries = runner.map(&runs, run_spec)?;
    Ok(specs
        .iter()
        .zip(pairs)
        .map(|(&spec, [baseline, variant])| ComparisonRow {
            spec,
            comparison: Comparison::new(summaries[baseline].clone(), summaries[variant].clone()),
        })
        .collect())
}

/// The RBER multipliers of the fault sweep: the device's nominal error
/// curve, a mid-life 2x, and an aged 4x. At the 16 KB page size the nominal
/// curve sits just under the free ECC budget (most reads pass without
/// retries), 2x pushes the typical read one retry step down the ladder, and
/// 4x needs several steps with the occasional uncorrectable page — the
/// regimes a device traverses between fresh and end of life.
pub const RBER_SCALES: [f64; 3] = [1.0, 2.0, 4.0];

/// One row of the end-of-life probe ([`fault_lifetime`]): how far one FTL got
/// before bad-block growth drove its device read-only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifetimeRow {
    /// FTL label (`conventional` / `ppb`).
    pub ftl: &'static str,
    /// Host page writes the FTL completed before refusing further writes.
    pub writes_completed: u64,
    /// Blocks retired as bad by the time of the transition.
    pub bad_blocks: u64,
    /// Device makespan at which the FTL turned read-only.
    pub time_to_read_only: Nanos,
}

/// The number of distinct logical pages the [`fault_lifetime`] probe cycles
/// over — a third of the probe device's physical pages, so the device has
/// comfortable headroom when fresh and loses it block by block as failures
/// accumulate.
pub const LIFETIME_LPNS: u64 = 256;

/// The write cap of the [`fault_lifetime`] probe — a backstop far beyond the
/// writes the aggressive failure probabilities allow, so a regression that
/// stops blocks from dying cannot hang the probe.
pub const LIFETIME_WRITE_CAP: u64 = 500_000;

/// The end-of-life probe: each FTL gets a deliberately small device (1 chip ×
/// 48 blocks × 16 pages × 4 KB) with aggressive program/erase failure
/// probabilities, and writes are issued round-robin over [`LIFETIME_LPNS`]
/// logical pages until the FTL reports [`FtlError::ReadOnly`]. The row records
/// how many writes the FTL absorbed, how many blocks it retired, and when the
/// transition happened — the graceful-degradation curve: every program failure
/// is remapped and every resident page rescued until the spare capacity is
/// genuinely gone, at which point writes are refused but reads keep working.
///
/// # Errors
///
/// Propagates FTL construction errors and any replay error other than the
/// expected read-only transition.
pub fn fault_lifetime(scale: &ExperimentScale) -> Result<Vec<LifetimeRow>, FtlError> {
    struct Probe(FtlKind);
    impl FtlJob for Probe {
        type Output = LifetimeRow;
        fn run<F: FlashTranslationLayer>(
            self,
            build: impl Fn() -> Result<F, FtlError>,
        ) -> Result<LifetimeRow, FtlError> {
            drive_to_read_only(build()?, self.0.label())
        }
    }
    // 1.5 MiB at headroom 2 is 48 blocks of 16 × 4 KiB on the one chip.
    let device = ExperimentScale {
        working_set_bytes: 3 << 19,
        capacity_headroom: 2.0,
        pages_per_block: 16,
        chips: 1,
        ..*scale
    };
    let probe = RunSpec {
        page_size_bytes: 4096,
        faults: Some(FaultConfig {
            program_fail_base: 0.02,
            erase_fail_base: 0.01,
            ..FaultConfig::enabled(scale.seed ^ 0xE01)
        }),
        ..RunSpec::new(Workload::WebSqlServer, device)
    };
    FtlKind::ALL.into_iter().map(|ftl| probe.on(ftl).with_ftl(Probe(ftl))).collect()
}

/// Issues round-robin writes against `ftl` until it turns read-only (or the
/// [`LIFETIME_WRITE_CAP`] backstop trips) and summarises the run.
fn drive_to_read_only<F: FlashTranslationLayer>(
    mut ftl: F,
    label: &'static str,
) -> Result<LifetimeRow, FtlError> {
    let mut writes_completed = 0u64;
    for index in 0..LIFETIME_WRITE_CAP {
        match ftl.submit(IoRequest::write(Lpn(index % LIFETIME_LPNS), 4096)) {
            Ok(_) => writes_completed += 1,
            Err(FtlError::ReadOnly) => break,
            Err(err) => return Err(err),
        }
    }
    let metrics = ftl.metrics();
    Ok(LifetimeRow {
        ftl: label,
        writes_completed,
        bad_blocks: metrics.bad_blocks_grown,
        time_to_read_only: metrics.time_to_read_only,
    })
}

/// The warm-up prefix lengths of the PPB sensitivity sweep
/// ([`RunSpec::warmup_fraction`]). The sweep is one-at-a-time around the
/// default configuration: these at default knobs, then the two promotion knobs
/// below on an un-warmed device (ROADMAP carry-over: does aging the device or
/// retuning promotion widen the ~1% quick-scale win?).
pub const PPB_WARMUP_FRACTIONS: [f64; 3] = [0.0, 0.25, 0.5];

/// The [`PpbConfig::cold_promote_reads`] promotion thresholds the sensitivity
/// sweep tries on top of the default configuration (whose threshold is 1).
pub const PPB_COLD_PROMOTE_READS: [u32; 2] = [2, 4];

/// The [`PpbConfig::hot_list_fraction`] capacities the sensitivity sweep tries
/// on top of the default configuration (whose fraction is 0.15).
pub const PPB_HOT_LIST_FRACTIONS: [f64; 2] = [0.10, 0.25];

#[cfg(test)]
mod tests {
    use super::*;

    /// Both FTLs along one axis: a row per axis value.
    fn along<T: Copy>(
        axis: &[T],
        spec: impl Fn(T) -> RunSpec<'static>,
    ) -> Vec<ComparisonRow<'static>> {
        let specs: Vec<RunSpec<'static>> = axis.iter().map(|&value| spec(value)).collect();
        compare_specs(&ParallelRunner::with_available_parallelism(), &specs).unwrap()
    }

    fn compare(spec: RunSpec<'static>) -> Comparison {
        along(&[spec], |spec| spec).remove(0).comparison
    }

    #[test]
    fn quick_scale_produces_a_reasonable_device() {
        let scale = ExperimentScale::quick();
        let config = scale.device_config(16 * 1024, 3.0);
        assert_eq!(config.pages_per_block(), 32);
        assert_eq!(config.speed_ratio(), 3.0);
        assert!(config.capacity_bytes() > scale.working_set_bytes);
    }

    #[test]
    fn workload_traces_have_the_requested_length() {
        let scale = ExperimentScale { requests: 500, ..ExperimentScale::quick() };
        for workload in Workload::ALL {
            assert_eq!(workload.trace(&scale).len(), 500);
            assert!(!workload.label().is_empty());
        }
    }

    #[test]
    fn a_row_runs_both_ftls_on_the_same_trace() {
        let scale = ExperimentScale { requests: 800, ..ExperimentScale::quick() };
        let comparison = compare(RunSpec::new(Workload::WebSqlServer, scale));
        assert_eq!(comparison.baseline.ftl, "conventional");
        assert_eq!(comparison.variant.ftl, "ppb");
        assert_eq!(comparison.baseline.host_reads, comparison.variant.host_reads);
        assert_eq!(comparison.baseline.host_writes, comparison.variant.host_writes);
    }

    #[test]
    fn an_external_trace_replays_like_the_workload_that_generated_it() {
        let scale = ExperimentScale { requests: 600, ..ExperimentScale::quick() };
        let trace = Workload::MediaServer.trace(&scale);
        for ftl in FtlKind::ALL {
            let external = RunSpec::new(&trace, scale).on(ftl);
            assert_eq!(external.source.label(), "media-server");
            assert!(matches!(external.trace(), Ok(Cow::Borrowed(_))));
            let synthetic = RunSpec::new(Workload::MediaServer, scale).on(ftl);
            assert_eq!(run_spec(&external).unwrap(), run_spec(&synthetic).unwrap());
        }
    }

    #[test]
    fn run_spec_refuses_a_kv_source() {
        let kv = KvSource { key_space: 100, io_depth: 1 };
        let spec = RunSpec::new(kv, ExperimentScale::quick());
        assert_eq!((spec.source.label(), spec.page_size_bytes), ("kv-zipf", 4 * 1024));
        for ftl in FtlKind::ALL {
            let refused = run_spec(&spec.on(ftl));
            assert!(matches!(refused, Err(FtlError::InvalidConfig { .. })), "{refused:?}");
        }
    }

    #[test]
    fn run_spec_refuses_a_bad_discipline_and_any_width_but_one() {
        // A bad discipline used to panic inside `WorkloadDriver::new` (taking
        // a whole `ParallelRunner` sweep down), and a wider spec used to run
        // on one device, labelled with its width.
        let scale = ExperimentScale { requests: 50, ..ExperimentScale::quick() };
        let base = RunSpec::new(Workload::WebSqlServer, scale);
        let refused = [
            ArrivalDiscipline::ClosedLoop { queue_depth: 0 },
            ArrivalDiscipline::OpenLoop { rate_scale: 0.0 },
            ArrivalDiscipline::OpenLoop { rate_scale: f64::NAN },
        ]
        .map(|discipline| RunSpec { discipline, ..base })
        .into_iter()
        .chain([0, 2, 8].map(|fleet_width| RunSpec { fleet_width, ..base }));
        for spec in refused {
            let outcome = run_spec(&spec);
            assert!(
                matches!(outcome, Err(FtlError::InvalidConfig { .. })),
                "{spec:?}: {outcome:?}"
            );
        }
        assert_eq!(run_spec(&base).unwrap().host_requests, 50);
    }

    #[test]
    fn run_spec_refuses_a_synthetic_source_it_cannot_generate() {
        // Each used to panic in `ArrivalModel::sampler` or in a generator,
        // taking a whole `ParallelRunner` sweep down: every degenerate case
        // `sampler` lists, then zero requests.
        let scale = ExperimentScale { requests: 50, ..ExperimentScale::quick() };
        let base = RunSpec::new(Workload::WebSqlServer, scale);
        let refused = [
            ArrivalModel::UniformGap { min_nanos: 7, max_nanos: 7 },
            ArrivalModel::MeanRate { iops: 0.0 },
            ArrivalModel::MeanRate { iops: f64::NAN },
            ArrivalModel::Pareto { shape: 1.0, mean_iops: 100.0 },
            ArrivalModel::Pareto { shape: 1.5, mean_iops: f64::INFINITY },
            ArrivalModel::OnOffBurst { burst_iops: -1.0, idle_fraction: 0.5, burst_len: 8 },
            ArrivalModel::OnOffBurst { burst_iops: 1e4, idle_fraction: 1.0, burst_len: 8 },
            ArrivalModel::OnOffBurst { burst_iops: 1e4, idle_fraction: 0.5, burst_len: 0 },
        ]
        .map(|arrival| RunSpec { arrival, ..base })
        .into_iter()
        .chain(Workload::ALL.map(|workload| {
            RunSpec::new(workload, ExperimentScale { requests: 0, ..scale })
        }));
        for spec in refused {
            for ftl in FtlKind::ALL {
                let outcome = run_spec(&spec.on(ftl));
                assert!(
                    matches!(outcome, Err(FtlError::InvalidConfig { .. })),
                    "{spec:?}: {outcome:?}"
                );
            }
        }
    }

    #[test]
    fn run_spec_refuses_a_scale_that_makes_no_device() {
        // Each used to panic in `ExperimentScale::device_config` — a
        // `div_ceil(0)`, a division by zero, an `expect` on the builder —
        // taking a whole `ParallelRunner` sweep down.
        let scale = ExperimentScale { requests: 50, ..ExperimentScale::quick() };
        for ftl in FtlKind::ALL {
            let spec = RunSpec::new(Workload::WebSqlServer, scale).on(ftl);
            let refused = [
                RunSpec { scale: ExperimentScale { chips: 0, ..scale }, ..spec },
                RunSpec { scale: ExperimentScale { pages_per_block: 0, ..scale }, ..spec },
                RunSpec { page_size_bytes: 0, ..spec },
                RunSpec { speed_ratio: f64::NAN, ..spec },
            ];
            for spec in refused {
                let outcome = run_spec(&spec);
                assert!(
                    matches!(outcome, Err(FtlError::Nand(NandError::InvalidConfig { .. }))),
                    "{spec:?}: {outcome:?}"
                );
            }
        }
    }

    #[test]
    fn baselines_of_rows_that_vary_a_ppb_knob_are_one_run() {
        let base = RunSpec::new(Workload::WebSqlServer, ExperimentScale::quick());
        let retuned = RunSpec {
            ppb: PpbConfig { cold_promote_reads: 4, ..PpbConfig::default() },
            classifier: Classifier::MultiHash,
            ..base
        };
        assert_eq!(retuned.on(FtlKind::Conventional), base.on(FtlKind::Conventional));
        assert_ne!(retuned.on(FtlKind::Ppb), base.on(FtlKind::Ppb));
        // A device-side field is not a PPB knob: those baselines stay apart.
        let aged = RunSpec { warmup_fraction: 0.25, ..base };
        assert_ne!(aged.on(FtlKind::Conventional), base.on(FtlKind::Conventional));
    }

    #[test]
    fn ppb_improves_reads_without_hurting_writes_on_the_web_workload() {
        // Long enough for promotions, rewrites and GC to shape placement; the effect
        // does not exist in the first few thousand requests of a cold device.
        let scale = ExperimentScale {
            requests: 10_000,
            working_set_bytes: 20 * 1024 * 1024,
            ..ExperimentScale::quick()
        };
        let comparison =
            compare(RunSpec { speed_ratio: 4.0, ..RunSpec::new(Workload::WebSqlServer, scale) });
        assert!(
            comparison.read_enhancement_pct() > 0.0,
            "expected a read win, got {:.2}%",
            comparison.read_enhancement_pct()
        );
        assert!(
            comparison.write_enhancement_pct().abs() < 5.0,
            "write latency should be near-identical, got {:.2}%",
            comparison.write_enhancement_pct()
        );
    }

    #[test]
    fn erase_counts_stay_comparable() {
        let scale = ExperimentScale { requests: 3_000, ..ExperimentScale::quick() };
        for row in along(&Workload::ALL, |workload| RunSpec::new(workload, scale)) {
            assert!(
                row.comparison.erase_increase_pct() < 25.0,
                "{}: erase count increased by {:.1}%",
                row.spec.source.label(),
                row.comparison.erase_increase_pct()
            );
        }
    }

    #[test]
    fn classifier_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            Classifier::ALL.iter().map(|classifier| classifier.label()).collect();
        assert_eq!(labels.len(), Classifier::ALL.len());
    }

    #[test]
    fn queue_depth_rows_report_percentiles_and_gain_throughput_from_depth() {
        let scale = ExperimentScale { requests: 800, chips: 4, ..ExperimentScale::quick() };
        let rows = along(&QUEUE_DEPTHS, |queue_depth| RunSpec {
            discipline: ArrivalDiscipline::ClosedLoop { queue_depth },
            ..RunSpec::new(Workload::MediaServer, scale)
        });
        for (row, &queue_depth) in rows.iter().zip(&QUEUE_DEPTHS) {
            let Comparison { baseline, variant } = &row.comparison;
            assert_eq!(baseline.queue_depth, queue_depth);
            assert_eq!(variant.queue_depth, queue_depth);
            assert!(baseline.request_iops() > 0.0);
            assert!(baseline.read_latency.max >= baseline.read_latency.p99);
        }
        // Device-state evolution is depth-invariant: the same reads/writes/erases
        // happened at every depth.
        assert!(rows.windows(2).all(|pair| {
            let (a, b) = (&pair[0].comparison.baseline, &pair[1].comparison.baseline);
            a.host_reads == b.host_reads && a.erased_blocks == b.erased_blocks
        }));
        // On a multi-chip device the media-server (read-dominant) workload gains
        // throughput from depth.
        let (qd1, qd64) = (&rows[0].comparison.baseline, &rows[3].comparison.baseline);
        assert!(
            qd64.request_iops() > qd1.request_iops(),
            "QD64 {} IOPS should beat QD1 {}",
            qd64.request_iops(),
            qd1.request_iops()
        );
    }

    #[test]
    fn rate_scale_rows_report_offered_vs_achieved_iops() {
        let scale = ExperimentScale { requests: 800, chips: 4, ..ExperimentScale::quick() };
        let rows = along(&RATE_SCALES, |rate_scale| RunSpec {
            discipline: ArrivalDiscipline::OpenLoop { rate_scale },
            ..RunSpec::new(Workload::WebSqlServer, scale)
        });
        for row in &rows {
            for summary in [&row.comparison.baseline, &row.comparison.variant] {
                assert_eq!(summary.queue_depth, 0, "open loop has no depth bound");
                assert!(summary.offered_iops() > 0.0);
                assert!(
                    summary.request_iops() <= summary.offered_iops(),
                    "achieved {} must not exceed offered {}",
                    summary.request_iops(),
                    summary.offered_iops()
                );
                assert!(summary.service_time.p50 > Nanos::ZERO);
            }
        }
        // Device-state evolution is rate-invariant: only the arrival overlay moves.
        assert!(rows.windows(2).all(|pair| {
            let (a, b) = (&pair[0].comparison.baseline, &pair[1].comparison.baseline);
            a.host_reads == b.host_reads && a.erased_blocks == b.erased_blocks
        }));
        // Offered load scales with the rate multiplier (the trace is shared).
        let (first, last) = (&rows[0].comparison.baseline, &rows[5].comparison.baseline);
        let expected = RATE_SCALES[5] / RATE_SCALES[0];
        let actual = last.offered_iops() / first.offered_iops();
        assert!(
            (actual - expected).abs() / expected < 0.01,
            "offered load should scale ~{expected}x, got {actual}x"
        );
        // Pushing the rate never lowers queueing delay.
        assert!(last.queue_delay.mean >= first.queue_delay.mean);
    }

    #[test]
    fn burst_axis_holds_the_mean_rate_fixed() {
        let mean = 12_000.0;
        let axis = burst_axis(mean);
        assert!(axis.len() >= 4, "axis covers uniform, Pareto and on/off models");
        for model in &axis {
            assert!(
                (model.mean_iops() - mean).abs() / mean < 1e-9,
                "{model} drifted off the shared mean rate"
            );
        }
        let labels: std::collections::HashSet<String> =
            axis.iter().map(|model| model.label()).collect();
        assert_eq!(labels.len(), axis.len(), "axis labels must be distinct");
    }

    #[test]
    fn burstiness_spreads_the_tail_at_fixed_mean_rate() {
        let scale = ExperimentScale {
            requests: 4_000,
            chips: 8,
            working_set_bytes: 24 * 1024 * 1024,
            ..ExperimentScale::quick()
        };
        let mean = burst_mean_iops(Workload::WebSqlServer, &scale).unwrap();
        assert!(mean > 0.0, "the saturation probe must measure a positive rate");
        assert!(grid_burst_mean_iops(&scale).unwrap() <= mean, "the grid rate is the smallest");
        let rows = along(&burst_axis(mean), |arrival| RunSpec {
            arrival,
            discipline: ArrivalDiscipline::OpenLoop { rate_scale: 1.0 },
            ..RunSpec::new(Workload::WebSqlServer, scale)
        });
        let uniform = &rows[0].comparison;
        assert_eq!(rows[0].spec.arrival, ArrivalModel::MeanRate { iops: mean });
        // Half of saturation: the smooth reference keeps up with its offered load.
        assert!(
            uniform.baseline.request_iops() > 0.95 * uniform.baseline.offered_iops(),
            "uniform arrivals at half saturation must be served at the offered rate"
        );
        // Offered rates agree across the axis (same mean, finite-trace noise).
        for row in &rows {
            let offered = row.comparison.baseline.offered_iops();
            let reference = uniform.baseline.offered_iops();
            assert!(
                (offered - reference).abs() / reference < 0.25,
                "{}: offered {offered:.0} strayed from the shared mean {reference:.0}",
                row.spec.arrival
            );
            assert_eq!(row.comparison.baseline.queue_depth, 0, "burst rows replay open-loop");
        }
        // The burstiness symptoms grow monotonically in effect, not necessarily
        // per-row: compare the smooth reference against the most extreme burst.
        let extreme = &rows.last().unwrap().comparison;
        for (smooth, bursty) in
            [(&uniform.baseline, &extreme.baseline), (&uniform.variant, &extreme.variant)]
        {
            assert!(
                bursty.queue_delay.p999 > smooth.queue_delay.p999,
                "burstiness must spread the p99.9 queueing delay ({} vs {})",
                bursty.queue_delay.p999,
                smooth.queue_delay.p999
            );
            assert!(bursty.peak_queue_depth > smooth.peak_queue_depth, "bursts deepen the backlog");
            assert!(
                bursty.busy_arrival_fraction() > smooth.busy_arrival_fraction(),
                "bursts must raise the busy-arrival fraction"
            );
        }
    }

    #[test]
    fn faults_scale_retry_pressure_down_the_rber_axis() {
        let scale = ExperimentScale { requests: 2_000, ..ExperimentScale::quick() };
        let rows = along(&RBER_SCALES, |rber_scale| RunSpec {
            faults: Some(FaultConfig { rber_scale, ..FaultConfig::enabled(scale.seed ^ 0xFA17) }),
            ..RunSpec::new(Workload::WebSqlServer, scale)
        });
        for row in &rows {
            // Host traffic is fault-independent: the trace is shared.
            assert_eq!(row.comparison.baseline.host_reads, row.comparison.variant.host_reads);
            assert_eq!(row.comparison.baseline.host_writes, row.comparison.variant.host_writes);
        }
        // The aged end of the axis must actually exercise the retry ladder, and
        // harder than the nominal curve does.
        let (nominal, aged) = (&rows[0].comparison.baseline, &rows[2].comparison.baseline);
        assert!(aged.retried_reads > 0, "aged rows must see retries");
        assert!(
            aged.retried_reads >= nominal.retried_reads,
            "retry pressure must not fall as the RBER curve ages"
        );
        assert!(aged.read_retry_time > Nanos::ZERO);
        // Retry latency rides inside the ordinary service times.
        assert!(aged.retry_latency_fraction() > 0.0);
    }

    #[test]
    fn fault_lifetime_degrades_gracefully_to_read_only() {
        let rows = fault_lifetime(&ExperimentScale::quick()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].ftl, "conventional");
        assert_eq!(rows[1].ftl, "ppb");
        for row in &rows {
            assert!(
                row.writes_completed > LIFETIME_LPNS,
                "{}: the fresh device must absorb at least one full pass",
                row.ftl
            );
            assert!(
                row.writes_completed < LIFETIME_WRITE_CAP,
                "{}: the probe must reach read-only, not the backstop",
                row.ftl
            );
            assert!(row.bad_blocks > 0, "{}: read-only requires retired blocks", row.ftl);
            assert!(row.time_to_read_only > Nanos::ZERO, "{}: transition time unset", row.ftl);
        }
    }

    #[test]
    fn the_ppb_write_win_widens_with_warmup_on_web_sql() {
        let base = RunSpec::new(Workload::WebSqlServer, ExperimentScale::quick());
        let mut specs: Vec<RunSpec<'static>> = PPB_WARMUP_FRACTIONS
            .iter()
            .map(|&warmup_fraction| RunSpec { warmup_fraction, ..base })
            .collect();
        specs.extend(PPB_COLD_PROMOTE_READS.iter().map(|&cold_promote_reads| RunSpec {
            ppb: PpbConfig { cold_promote_reads, ..base.ppb },
            ..base
        }));
        specs.extend(PPB_HOT_LIST_FRACTIONS.iter().map(|&hot_list_fraction| RunSpec {
            ppb: PpbConfig { hot_list_fraction, ..base.ppb },
            ..base
        }));
        let rows = along(&specs, |spec| spec);
        // A warm-up measures the suffix it leaves.
        assert_eq!(rows[0].comparison.baseline.host_requests, 4_000);
        assert_eq!(rows[2].comparison.baseline.host_requests, 2_000);
        // Direction, pinned from the measured quick-scale sweep: the PPB *write*
        // win on web/SQL widens as the device ages (≈2.1% fresh → ≈4.3% after a
        // 50% warm-up), while the read win stays modest (≈0.8%) and positive at
        // every warm-up length. The promotion knobs are near-neutral at this
        // scale — the aging axis, not the thresholds, is what moves the number.
        let fresh = rows[0].comparison.write_enhancement_pct();
        let aged = rows[2].comparison.write_enhancement_pct();
        assert!(aged > fresh, "write win should widen with warm-up: {fresh:.3}% -> {aged:.3}%");
        assert!(aged > 1.5 * fresh, "the widening is substantial, not noise");
        for row in &rows {
            assert!(
                row.comparison.read_enhancement_pct() > 0.0,
                "read win stays positive on web/SQL (warmup {}, promote {}, hot {})",
                row.spec.warmup_fraction,
                row.spec.ppb.cold_promote_reads,
                row.spec.ppb.hot_list_fraction
            );
        }
    }
}
