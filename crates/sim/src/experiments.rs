//! Ready-made parameter sweeps reproducing the paper's evaluation (Figures 12–18).
//!
//! Every figure of the evaluation section has a function here that produces its data
//! rows; the `experiments` binary in `vflash-bench` prints them. The sweeps are
//! parameterised by an [`ExperimentScale`] so unit tests and the `--quick` golden
//! can run a scaled-down version of the same code path that the full harness uses.
//!
//! The original MSR-Cambridge traces are replaced by the synthetic generators in
//! [`vflash_trace::synthetic`]; see `DESIGN.md` for the substitution rationale.

use vflash_ftl::hotcold::{FreqTable, MultiHash, TwoLevelLru};
use vflash_ftl::{
    ConventionalFtl, CostBenefitVictimPolicy, FlashTranslationLayer, FtlConfig, FtlError,
    GreedyVictimPolicy, HotColdVictimPolicy, IoRequest, Lpn, VictimPolicy, WearAwareVictimPolicy,
};
use vflash_nand::{FaultConfig, NandConfig, NandDevice, Nanos};
use vflash_ppb::{PpbConfig, PpbFtl};
use vflash_trace::synthetic::{self, ArrivalModel, SyntheticConfig};
use vflash_trace::Trace;

use crate::engine::{ArrivalDiscipline, RunOptions, WorkloadDriver};
use crate::lane::prefill;
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

/// The burstiness axis of the [`burst_sweep`]: arrival models of *identical mean
/// rate* ordered from smooth to extremely bursty. The first entry is the
/// jittered-uniform reference; the Pareto entries get heavier as the shape drops
/// towards 1, and the on/off entries compress all arrivals into ever denser
/// bursts. Because the mean rate is held fixed, any latency difference down the
/// axis is attributable to burstiness alone — the queueing-theory point the
/// paper's tail-latency claims rest on.
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
/// sweeps offer as their fixed mean rate. Half of saturation puts the smooth
/// end of the [`burst_axis`] comfortably inside the device's capacity — where
/// uniform arrivals see near-zero queueing — while the bursty end still
/// overloads the device *transiently*, exactly the regime where the tail
/// spreads.
pub const BURST_SATURATION_FRACTION: f64 = 0.5;

/// The mean arrival rate the
/// [`ExperimentGrid::burst_sweep`](crate::ExperimentGrid::burst_sweep) grid
/// holds fixed across its burstiness axis: [`BURST_SATURATION_FRACTION`] of the
/// *smallest* saturation throughput any of the grid's workloads reaches on the
/// grid's device (each probed like [`burst_sweep_mean_iops`]). Taking the
/// minimum keeps the smooth end of the axis under capacity for **every**
/// workload in the grid, so differences down the axis stay attributable to
/// burstiness rather than to one workload saturating outright. Historically
/// this grid pinned ≈9.1 kIOPS (the recorded rate of the default uniform-gap
/// generators) regardless of what the device could actually serve; the
/// rate-relative probe makes the axis meaningful at any scale.
///
/// # Errors
///
/// Propagates FTL construction and replay errors from the probe runs.
pub fn grid_burst_mean_iops(scale: &ExperimentScale) -> Result<f64, FtlError> {
    let mut mean: Option<f64> = None;
    for workload in Workload::ALL {
        let probed = burst_sweep_mean_iops(workload, scale)?;
        mean = Some(mean.map_or(probed, |current| current.min(probed)));
    }
    Ok(mean.expect("Workload::ALL is non-empty"))
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
    /// [`ArrivalModel`] — the entry point of the burstiness sweeps.
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
    /// example a zero block count); the provided presets never do.
    pub fn device_config(&self, page_size_bytes: usize, speed_ratio: f64) -> NandConfig {
        let raw_bytes = (self.working_set_bytes as f64 * self.capacity_headroom) as u64;
        let block_bytes = (self.pages_per_block * page_size_bytes) as u64;
        let total_blocks = (raw_bytes / block_bytes).max(8) as usize;
        let blocks_per_chip = total_blocks.div_ceil(self.chips);
        NandConfig::builder()
            .chips(self.chips)
            .blocks_per_chip(blocks_per_chip)
            .pages_per_block(self.pages_per_block)
            .page_size_bytes(page_size_bytes)
            .speed_ratio(speed_ratio)
            .build()
            .expect("experiment scale produces a valid device configuration")
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
        let mut pages = std::collections::HashSet::new();
        for request in trace {
            for page in request.logical_pages(PAGE as usize) {
                pages.insert(page);
            }
        }
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

/// Replays `trace` against the conventional FTL on a device built from `config`,
/// under `discipline` (closed loop at any depth — [`SERIAL`] for the paper's
/// figures — or open loop at a rate scale).
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn replay_conventional(
    trace: &Trace,
    config: &NandConfig,
    discipline: ArrivalDiscipline,
) -> Result<RunSummary, FtlError> {
    let ftl = ConventionalFtl::new(NandDevice::new(config.clone()), FtlConfig::default())?;
    WorkloadDriver::new(RunOptions::default(), discipline).run(ftl, trace)
}

/// Replays `trace` against the PPB FTL with configuration `ppb` and first-stage
/// `classifier` on a device built from `config`, under `discipline`. The
/// paper's PPB is `PpbConfig::default()` with `Classifier::default()`; every
/// figure, sweep and grid row goes through this one construction path, so those
/// defaults can never diverge between them.
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn replay_ppb(
    trace: &Trace,
    config: &NandConfig,
    ppb: PpbConfig,
    classifier: Classifier,
    discipline: ArrivalDiscipline,
) -> Result<RunSummary, FtlError> {
    let device = NandDevice::new(config.clone());
    let driver = WorkloadDriver::new(RunOptions::default(), discipline);
    match classifier {
        Classifier::SizeCheck => driver.run(PpbFtl::new(device, ppb)?, trace),
        Classifier::TwoLevelLru => {
            let lru = TwoLevelLru::new(4096, 4096);
            driver.run(PpbFtl::new(device, (ppb, lru))?, trace)
        }
        Classifier::FreqTable => {
            let table = FreqTable::new(2, 100_000);
            driver.run(PpbFtl::new(device, (ppb, table))?, trace)
        }
        Classifier::MultiHash => {
            let sketch = MultiHash::new(1 << 16, 2, 2, 100_000);
            driver.run(PpbFtl::new(device, (ppb, sketch))?, trace)
        }
    }
}

/// Both FTLs at their default configurations on the same trace and device,
/// under one discipline: `(conventional, PPB)`.
fn replay_both(
    trace: &Trace,
    config: &NandConfig,
    discipline: ArrivalDiscipline,
) -> Result<(RunSummary, RunSummary), FtlError> {
    let conventional = replay_conventional(trace, config, discipline)?;
    let ppb = replay_ppb(trace, config, PpbConfig::default(), Classifier::default(), discipline)?;
    Ok((conventional, ppb))
}

/// Runs conventional vs PPB on one workload / page size / speed ratio and returns the
/// comparison.
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn compare(
    workload: Workload,
    page_size_bytes: usize,
    speed_ratio: f64,
    scale: &ExperimentScale,
) -> Result<Comparison, FtlError> {
    let trace = workload.trace(scale);
    let config = scale.device_config(page_size_bytes, speed_ratio);
    compare_trace(&trace, &config)
}

/// Runs conventional vs PPB (default configurations) on an arbitrary trace and
/// device configuration — the single comparison step [`compare`] and the
/// latency sweeps share.
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn compare_trace(trace: &Trace, config: &NandConfig) -> Result<Comparison, FtlError> {
    let (baseline, variant) = replay_both(trace, config, SERIAL)?;
    Ok(Comparison::new(baseline, variant))
}

/// One row of Figure 12 / Figure 15: a workload, a page size, and the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct EnhancementRow {
    /// Workload the row belongs to.
    pub workload: Workload,
    /// Page size in bytes.
    pub page_size_bytes: usize,
    /// The baseline/variant comparison.
    pub comparison: Comparison,
}

/// Figure 12 (read) and Figure 15 (write) share the same runs: both workloads at both
/// page sizes, 2x speed difference.
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn enhancement_rows(scale: &ExperimentScale) -> Result<Vec<EnhancementRow>, FtlError> {
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        for &page_size in &PAGE_SIZES {
            let comparison = compare(workload, page_size, 2.0, scale)?;
            rows.push(EnhancementRow { workload, page_size_bytes: page_size, comparison });
        }
    }
    Ok(rows)
}

/// One row of the latency-versus-speed-difference figures (13, 14, 16, 17).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySweepRow {
    /// Top/bottom speed ratio for this row.
    pub speed_ratio: f64,
    /// Total latency under the conventional FTL.
    pub conventional: Nanos,
    /// Total latency under the PPB FTL.
    pub ppb: Nanos,
}

/// Figures 13 and 14: total **read** latency of one workload for speed differences
/// 2x–5x, conventional vs PPB (16 KB pages).
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn read_latency_sweep(
    workload: Workload,
    scale: &ExperimentScale,
) -> Result<Vec<LatencySweepRow>, FtlError> {
    read_latency_sweep_for_trace(&workload.trace(scale), scale)
}

/// Figures 16 and 17: total **write** latency of one workload for speed differences
/// 2x–5x, conventional vs PPB (16 KB pages).
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn write_latency_sweep(
    workload: Workload,
    scale: &ExperimentScale,
) -> Result<Vec<LatencySweepRow>, FtlError> {
    write_latency_sweep_for_trace(&workload.trace(scale), scale)
}

/// [`read_latency_sweep`] over an arbitrary trace — the entry point the real-trace
/// path (`experiments --trace file.csv`) shares with the synthetic workloads.
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn read_latency_sweep_for_trace(
    trace: &Trace,
    scale: &ExperimentScale,
) -> Result<Vec<LatencySweepRow>, FtlError> {
    latency_sweep_for_trace(trace, scale, |summary| summary.read_time)
}

/// [`write_latency_sweep`] over an arbitrary trace.
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn write_latency_sweep_for_trace(
    trace: &Trace,
    scale: &ExperimentScale,
) -> Result<Vec<LatencySweepRow>, FtlError> {
    latency_sweep_for_trace(trace, scale, |summary| summary.write_time)
}

fn latency_sweep_for_trace(
    trace: &Trace,
    scale: &ExperimentScale,
    metric: impl Fn(&RunSummary) -> Nanos,
) -> Result<Vec<LatencySweepRow>, FtlError> {
    let mut rows = Vec::new();
    for &ratio in &SPEED_RATIOS {
        let comparison = compare_trace(trace, &scale.device_config(16 * 1024, ratio))?;
        rows.push(LatencySweepRow {
            speed_ratio: ratio,
            conventional: metric(&comparison.baseline),
            ppb: metric(&comparison.variant),
        });
    }
    Ok(rows)
}

/// One row of the offered-load (open-loop) sweep: both FTLs replaying the same
/// trace at one rate scale.
#[derive(Debug, Clone, PartialEq)]
pub struct RateScaleRow {
    /// Multiplier on the trace's recorded arrival rate.
    pub rate_scale: f64,
    /// The conventional FTL's summary (offered/achieved IOPS, queue-delay and
    /// service-time percentiles).
    pub conventional: RunSummary,
    /// The PPB FTL's summary.
    pub ppb: RunSummary,
}

/// The offered-load sweep: both FTLs replay one workload **open-loop** at every
/// rate scale in [`RATE_SCALES`] on the same multi-chip device (16 KB pages, 2x
/// speed difference). Device state evolves identically at every rate — only the
/// arrival overlay changes — so this is the latency-vs-offered-load curve: as the
/// offered rate passes what the device can absorb, achieved IOPS flattens and
/// queueing delay (not service time) takes over the response time.
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn rate_scale_sweep(
    workload: Workload,
    scale: &ExperimentScale,
) -> Result<Vec<RateScaleRow>, FtlError> {
    rate_scale_sweep_for_trace(&workload.trace(scale), scale)
}

/// [`rate_scale_sweep`] over an arbitrary trace (the real-trace path).
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn rate_scale_sweep_for_trace(
    trace: &Trace,
    scale: &ExperimentScale,
) -> Result<Vec<RateScaleRow>, FtlError> {
    let config = scale.device_config(16 * 1024, 2.0);
    let mut rows = Vec::new();
    for &rate_scale in &RATE_SCALES {
        let discipline = ArrivalDiscipline::OpenLoop { rate_scale };
        let (conventional, ppb) = replay_both(trace, &config, discipline)?;
        rows.push(RateScaleRow { rate_scale, conventional, ppb });
    }
    Ok(rows)
}

/// One row of the burstiness sweep: both FTLs replaying the same workload under
/// one arrival model of the shared-mean-rate [`burst_axis`].
#[derive(Debug, Clone, PartialEq)]
pub struct BurstRow {
    /// The arrival model this row was generated with.
    pub arrival: ArrivalModel,
    /// The conventional FTL's open-loop summary (tail percentiles, peak queue
    /// depth, busy-arrival fraction).
    pub conventional: RunSummary,
    /// The PPB FTL's summary.
    pub ppb: RunSummary,
}

/// Measures the saturation throughput of the burst-sweep device for `workload`
/// at `scale` (conventional FTL, closed loop at QD 64 — arrivals cannot come in
/// faster than that serves them) and returns [`BURST_SATURATION_FRACTION`] of
/// it: the fixed mean rate the [`burst_sweep`] offers.
///
/// # Errors
///
/// Propagates FTL construction and replay errors from the probe run.
pub fn burst_sweep_mean_iops(
    workload: Workload,
    scale: &ExperimentScale,
) -> Result<f64, FtlError> {
    let config = scale.device_config(16 * 1024, 2.0);
    let saturated = replay_conventional(
        &workload.trace(scale),
        &config,
        ArrivalDiscipline::ClosedLoop { queue_depth: 64 },
    )?;
    Ok(saturated.request_iops() * BURST_SATURATION_FRACTION)
}

/// The burstiness sweep: both FTLs replay one workload **open-loop at the
/// trace's own clock** (rate scale 1) under every arrival model of the
/// [`burst_axis`], at one fixed mean rate — half the device's measured
/// saturation throughput ([`burst_sweep_mean_iops`]) — on the same device the
/// offered-load sweep uses (16 KB pages, 2x speed difference).
///
/// Because the mean rate never changes, mean latency moves little down the axis
/// — what moves is the *tail*: p99/p99.9 response time, the peak backlog
/// ([`RunSummary::peak_queue_depth`]) and the fraction of requests arriving into
/// a busy system ([`RunSummary::busy_arrival_fraction`]) all grow as arrivals
/// concentrate into bursts. This is the workload dimension the paper's
/// latency-under-load claims actually depend on: a placement win that looks
/// marginal in mean latency shows up multiplied in the burst tail, where
/// queueing amplifies every slow page access.
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn burst_sweep(workload: Workload, scale: &ExperimentScale) -> Result<Vec<BurstRow>, FtlError> {
    let mean_iops = burst_sweep_mean_iops(workload, scale)?;
    burst_sweep_at(workload, scale, mean_iops)
}

/// [`burst_sweep`] at an explicit mean rate, skipping the saturation probe —
/// for callers that already ran [`burst_sweep_mean_iops`] (to report the mean)
/// or want to pin the offered load themselves.
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn burst_sweep_at(
    workload: Workload,
    scale: &ExperimentScale,
    mean_iops: f64,
) -> Result<Vec<BurstRow>, FtlError> {
    let config = scale.device_config(16 * 1024, 2.0);
    let discipline = ArrivalDiscipline::OpenLoop { rate_scale: 1.0 };
    let mut rows = Vec::new();
    for arrival in burst_axis(mean_iops) {
        let trace = workload.trace_with_arrival(scale, arrival);
        let (conventional, ppb) = replay_both(&trace, &config, discipline)?;
        rows.push(BurstRow { arrival, conventional, ppb });
    }
    Ok(rows)
}

/// One row of Figure 18: erased-block counts per workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EraseCountRow {
    /// Workload the row belongs to.
    pub workload: Workload,
    /// Blocks erased under the conventional FTL.
    pub conventional: u64,
    /// Blocks erased under the PPB FTL.
    pub ppb: u64,
}

/// Figure 18: erased block counts for both workloads (2x speed difference, 16 KB
/// pages).
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn erase_count_rows(scale: &ExperimentScale) -> Result<Vec<EraseCountRow>, FtlError> {
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let comparison = compare(workload, 16 * 1024, 2.0, scale)?;
        rows.push(EraseCountRow {
            workload,
            conventional: comparison.baseline.erased_blocks,
            ppb: comparison.variant.erased_blocks,
        });
    }
    Ok(rows)
}

/// Ablation: read enhancement as a function of the number of virtual blocks per
/// physical block (the paper notes the 2-way split as the overhead/benefit sweet
/// spot).
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn ablation_virtual_blocks(
    workload: Workload,
    scale: &ExperimentScale,
) -> Result<Vec<(usize, f64)>, FtlError> {
    let trace = workload.trace(scale);
    let config = scale.device_config(16 * 1024, 4.0);
    let baseline = replay_conventional(&trace, &config, SERIAL)?;
    let mut rows = Vec::new();
    for virtual_blocks in [1usize, 2, 4] {
        let ppb_config = PpbConfig {
            virtual_blocks_per_block: virtual_blocks,
            max_open_blocks_per_area: virtual_blocks.max(2),
            ..PpbConfig::default()
        };
        let variant = replay_ppb(&trace, &config, ppb_config, Classifier::default(), SERIAL)?;
        let comparison = Comparison::new(baseline.clone(), variant);
        rows.push((virtual_blocks, comparison.read_enhancement_pct()));
    }
    Ok(rows)
}

/// One row of the queue-depth sweep: both FTLs replaying the same trace at one
/// depth.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueDepthRow {
    /// Queue depth of this row.
    pub queue_depth: usize,
    /// The conventional FTL's summary (with percentiles and achieved IOPS).
    pub conventional: RunSummary,
    /// The PPB FTL's summary.
    pub ppb: RunSummary,
}

/// The queue-depth sweep: both FTLs replay one workload at QD ∈
/// [`QUEUE_DEPTHS`] on the same multi-chip device (16 KB pages, 2x speed
/// difference). Device state evolves identically at every depth — only the timing
/// overlay changes — so differences in IOPS and tail latency are attributable to
/// queuing alone.
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn queue_depth_sweep(
    workload: Workload,
    scale: &ExperimentScale,
) -> Result<Vec<QueueDepthRow>, FtlError> {
    let trace = workload.trace(scale);
    let config = scale.device_config(16 * 1024, 2.0);
    let mut rows = Vec::new();
    for &queue_depth in &QUEUE_DEPTHS {
        let discipline = ArrivalDiscipline::ClosedLoop { queue_depth };
        let (conventional, ppb) = replay_both(&trace, &config, discipline)?;
        rows.push(QueueDepthRow { queue_depth, conventional, ppb });
    }
    Ok(rows)
}

/// Garbage-collection victim-selection policies compared in the Figure 18
/// ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GcPolicy {
    /// Most invalid pages first (the default everywhere else).
    Greedy,
    /// Greedy score with a wear penalty per prior erase.
    WearAware,
    /// Rosenblum & Ousterhout's `(1-u)/2u x age` benefit/cost selector.
    CostBenefit,
    /// Greedy with a bonus for cold-tagged blocks, exploiting the PPB area tags
    /// (hot-area blocks clean themselves; cold valid data is stable, so copying
    /// it wastes nothing). On the untagged conventional FTL this coincides with
    /// greedy.
    HotCold,
    /// [`GcPolicy::HotCold`] with an explicit cold-victim bonus in whole
    /// invalid-page equivalents (the default `HotCold` uses 2) — the cold-bonus
    /// ablation rows of the Figure 18 sweep. A bonus of 0 disables the cold
    /// preference entirely (pure greedy even on tagged devices), so the row
    /// isolates how much of the hot-cold policy's win the bonus itself buys.
    HotColdBonus(u32),
}

impl GcPolicy {
    /// All policies, in report order: the four base policies, then the
    /// cold-bonus ablation (bonus disabled, then an aggressive bonus bracketing
    /// the `HotCold` default of 2).
    pub const ALL: [GcPolicy; 6] = [
        GcPolicy::Greedy,
        GcPolicy::WearAware,
        GcPolicy::CostBenefit,
        GcPolicy::HotCold,
        GcPolicy::HotColdBonus(0),
        GcPolicy::HotColdBonus(6),
    ];

    /// The label used in reports (e.g. `greedy`, `hot-cold`, `hot-cold(b=6)`).
    pub fn label(self) -> String {
        match self {
            GcPolicy::Greedy => "greedy".to_string(),
            GcPolicy::WearAware => "wear-aware".to_string(),
            GcPolicy::CostBenefit => "cost-benefit".to_string(),
            GcPolicy::HotCold => "hot-cold".to_string(),
            GcPolicy::HotColdBonus(bonus) => format!("hot-cold(b={bonus})"),
        }
    }

    /// Builds the policy object.
    pub fn build(self) -> Box<dyn VictimPolicy> {
        match self {
            GcPolicy::Greedy => Box::new(GreedyVictimPolicy::new()),
            GcPolicy::WearAware => Box::new(WearAwareVictimPolicy::default()),
            GcPolicy::CostBenefit => Box::new(CostBenefitVictimPolicy::new()),
            GcPolicy::HotCold => Box::new(HotColdVictimPolicy::default()),
            GcPolicy::HotColdBonus(bonus) => {
                Box::new(HotColdVictimPolicy::new(f64::from(bonus)))
            }
        }
    }
}

impl std::fmt::Display for GcPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// One row of the Figure 18 policy ablation: erased-block counts of both FTLs
/// under one victim policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyEraseRow {
    /// Workload the row belongs to.
    pub workload: Workload,
    /// Victim policy both FTLs used.
    pub policy: GcPolicy,
    /// Blocks erased under the conventional FTL.
    pub conventional: u64,
    /// Blocks erased under the PPB FTL.
    pub ppb: u64,
}

/// Figure 18 ablation: erased-block counts for both workloads under every victim
/// policy in [`GcPolicy::ALL`] (2x speed difference, 16 KB pages). The `greedy`
/// rows coincide with [`erase_count_rows`].
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn erase_count_by_policy(scale: &ExperimentScale) -> Result<Vec<PolicyEraseRow>, FtlError> {
    let serial = WorkloadDriver::new(RunOptions::default(), SERIAL);
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let trace = workload.trace(scale);
        let config = scale.device_config(16 * 1024, 2.0);
        for policy in GcPolicy::ALL {
            let mut conventional =
                ConventionalFtl::new(NandDevice::new(config.clone()), FtlConfig::default())?;
            conventional.set_victim_policy(policy.build());
            let baseline = serial.run(conventional, &trace)?;

            let mut ppb = PpbFtl::new(NandDevice::new(config.clone()), PpbConfig::default())?;
            ppb.set_victim_policy(policy.build());
            let variant = serial.run(ppb, &trace)?;

            rows.push(PolicyEraseRow {
                workload,
                policy,
                conventional: baseline.erased_blocks,
                ppb: variant.erased_blocks,
            });
        }
    }
    Ok(rows)
}

/// The RBER multipliers of the [`fault_sweep`]: the device's nominal error
/// curve, a mid-life 2x, and an aged 4x. At the 16 KB page size the nominal
/// curve sits just under the free ECC budget (most reads pass without
/// retries), 2x pushes the typical read one retry step down the ladder, and
/// 4x needs several steps with the occasional uncorrectable page — the
/// regimes a device traverses between fresh and end of life.
pub const RBER_SCALES: [f64; 3] = [1.0, 2.0, 4.0];

/// The GC policies the [`fault_sweep`] crosses with the RBER axis: the plain
/// greedy baseline and the tag-aware hot-cold policy, whose cold preference
/// keeps stable data out of the copy path (fewer relocation reads → fewer
/// chances for a retry to land on the GC critical path).
pub const FAULT_SWEEP_POLICIES: [GcPolicy; 2] = [GcPolicy::Greedy, GcPolicy::HotCold];

/// One row of the fault sweep: both FTLs replaying the web/SQL-server workload
/// under one RBER scale and GC victim policy. The summaries carry the
/// reliability counters ([`RunSummary::retried_reads`],
/// [`RunSummary::uncorrectable_reads`], [`RunSummary::bad_blocks_grown`]) and
/// the latency percentiles, so the row shows both how often the fault model
/// fired and what it did to the p99.9 tail.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRow {
    /// Multiplier applied to the device's RBER curve.
    pub rber_scale: f64,
    /// GC victim policy both FTLs used.
    pub policy: GcPolicy,
    /// The conventional FTL's summary.
    pub conventional: RunSummary,
    /// The PPB FTL's summary.
    pub ppb: RunSummary,
}

/// The fault sweep: both FTLs replay the web/SQL-server workload (16 KB pages,
/// 2x speed difference, QD 1) with the NAND fault model enabled at every RBER
/// scale in [`RBER_SCALES`], crossed with the [`FAULT_SWEEP_POLICIES`]. The
/// read-retry ladder turns raw bit errors into latency — folded into the same
/// service times the percentiles are computed from — while the default
/// program/erase failure probabilities keep a trickle of bad-block retirements
/// flowing through the remap path. The web workload is the interesting one
/// here: its re-read-heavy tail is exactly where retry latency compounds with
/// queueing.
///
/// The fault seed is derived from the scale's workload seed, so the sweep is
/// reproducible end to end.
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn fault_sweep(scale: &ExperimentScale) -> Result<Vec<FaultRow>, FtlError> {
    let trace = Workload::WebSqlServer.trace(scale);
    let base = scale.device_config(16 * 1024, 2.0);
    let serial = WorkloadDriver::new(RunOptions::default(), SERIAL);
    let mut rows = Vec::new();
    for &rber_scale in &RBER_SCALES {
        let faults = FaultConfig { rber_scale, ..FaultConfig::enabled(scale.seed ^ 0xFA17) };
        let config = base.clone().with_faults(faults)?;
        for policy in FAULT_SWEEP_POLICIES {
            let mut conventional =
                ConventionalFtl::new(NandDevice::new(config.clone()), FtlConfig::default())?;
            conventional.set_victim_policy(policy.build());
            let baseline = serial.run(conventional, &trace)?;

            let mut ppb = PpbFtl::new(NandDevice::new(config.clone()), PpbConfig::default())?;
            ppb.set_victim_policy(policy.build());
            let variant = serial.run(ppb, &trace)?;

            rows.push(FaultRow { rber_scale, policy, conventional: baseline, ppb: variant });
        }
    }
    Ok(rows)
}

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
    let faults = FaultConfig {
        program_fail_base: 0.02,
        erase_fail_base: 0.01,
        ..FaultConfig::enabled(scale.seed ^ 0xE01)
    };
    let config = NandConfig::builder()
        .chips(1)
        .blocks_per_chip(48)
        .pages_per_block(16)
        .page_size_bytes(4096)
        .speed_ratio(2.0)
        .faults(faults)
        .build()?;
    let conventional = ConventionalFtl::new(NandDevice::new(config.clone()), FtlConfig::default())?;
    let ppb = PpbFtl::new(NandDevice::new(config), PpbConfig::default())?;
    Ok(vec![
        drive_to_read_only(conventional, "conventional")?,
        drive_to_read_only(ppb, "ppb")?,
    ])
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

/// Ablation: read enhancement as a function of the first-stage hot/cold classifier.
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn ablation_classifier(
    workload: Workload,
    scale: &ExperimentScale,
) -> Result<Vec<(Classifier, f64)>, FtlError> {
    let trace = workload.trace(scale);
    let config = scale.device_config(16 * 1024, 4.0);
    let baseline = replay_conventional(&trace, &config, SERIAL)?;
    let mut rows = Vec::new();
    for classifier in Classifier::ALL {
        let variant = replay_ppb(&trace, &config, PpbConfig::default(), classifier, SERIAL)?;
        let comparison = Comparison::new(baseline.clone(), variant);
        rows.push((classifier, comparison.read_enhancement_pct()));
    }
    Ok(rows)
}

/// The warm-up prefix lengths of the [`ppb_sensitivity_sweep`], as fractions
/// of the trace replayed un-measured (after the usual prefill) to age the
/// device before the measured suffix starts.
pub const PPB_WARMUP_FRACTIONS: [f64; 3] = [0.0, 0.25, 0.5];

/// The [`PpbConfig::cold_promote_reads`] promotion thresholds the sensitivity
/// sweep tries on top of the default configuration (whose threshold is 1).
pub const PPB_COLD_PROMOTE_READS: [u32; 2] = [2, 4];

/// The [`PpbConfig::hot_list_fraction`] capacities the sensitivity sweep tries
/// on top of the default configuration (whose fraction is 0.15).
pub const PPB_HOT_LIST_FRACTIONS: [f64; 2] = [0.10, 0.25];

/// One row of the PPB sensitivity sweep: the warm-up length and the two
/// promotion knobs the row ran with, plus the conventional-vs-PPB comparison
/// on the measured (post-warm-up) suffix of the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PpbSensitivityRow {
    /// Workload the row belongs to.
    pub workload: Workload,
    /// Fraction of the trace replayed un-measured before measurement.
    pub warmup_fraction: f64,
    /// The `cold_promote_reads` threshold the PPB variant ran with.
    pub cold_promote_reads: u32,
    /// The `hot_list_fraction` capacity the PPB variant ran with.
    pub hot_list_fraction: f64,
    /// The baseline/variant comparison over the measured suffix.
    pub comparison: Comparison,
}

/// Sensitivity of the PPB win to warm-up length and promotion thresholds
/// (ROADMAP carry-over: the quick-scale win is ~1% on web/SQL vs the paper's
/// ~10%+; this sweep answers whether aging the device or retuning promotion
/// widens it). One-at-a-time axes around the default configuration: the
/// [`PPB_WARMUP_FRACTIONS`] at default knobs, then the
/// [`PPB_COLD_PROMOTE_READS`] and [`PPB_HOT_LIST_FRACTIONS`] variations on an
/// un-warmed device. Baselines are shared between rows with the same warm-up
/// split (the conventional FTL has no PPB knobs to vary).
///
/// Each row prefills the *full* trace's pages first, replays the warm-up
/// prefix serially without measuring it, and measures the remaining suffix —
/// so longer warm-ups measure a genuinely aged device rather than a shorter
/// trace on a fresh one.
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn ppb_sensitivity_sweep(
    workload: Workload,
    scale: &ExperimentScale,
) -> Result<Vec<PpbSensitivityRow>, FtlError> {
    let trace = workload.trace(scale);
    let config = scale.device_config(16 * 1024, 2.0);
    let mut cells: Vec<(f64, PpbConfig)> = PPB_WARMUP_FRACTIONS
        .iter()
        .map(|&warmup| (warmup, PpbConfig::default()))
        .collect();
    cells.extend(PPB_COLD_PROMOTE_READS.iter().map(|&promote| {
        (0.0, PpbConfig { cold_promote_reads: promote, ..PpbConfig::default() })
    }));
    cells.extend(PPB_HOT_LIST_FRACTIONS.iter().map(|&fraction| {
        (0.0, PpbConfig { hot_list_fraction: fraction, ..PpbConfig::default() })
    }));

    let mut baselines: Vec<(usize, RunSummary)> = Vec::new();
    let mut rows = Vec::new();
    for (warmup_fraction, ppb) in cells {
        let split = warmup_split(trace.len(), warmup_fraction);
        let baseline = match baselines.iter().find(|(cached, _)| *cached == split) {
            Some((_, summary)) => summary.clone(),
            None => {
                let ftl = ConventionalFtl::new(NandDevice::new(config.clone()), FtlConfig::default())?;
                let summary = sensitivity_run(ftl, &trace, split)?;
                baselines.push((split, summary.clone()));
                summary
            }
        };
        let cold_promote_reads = ppb.cold_promote_reads;
        let hot_list_fraction = ppb.hot_list_fraction;
        let variant = sensitivity_run(PpbFtl::new(NandDevice::new(config.clone()), ppb)?, &trace, split)?;
        rows.push(PpbSensitivityRow {
            workload,
            warmup_fraction,
            cold_promote_reads,
            hot_list_fraction,
            comparison: Comparison::new(baseline, variant),
        });
    }
    Ok(rows)
}

/// Number of leading requests the sensitivity sweep treats as warm-up.
fn warmup_split(total: usize, fraction: f64) -> usize {
    ((total as f64 * fraction).round() as usize).min(total)
}

/// One sensitivity measurement: prefill the full trace's pages, replay the
/// first `split` requests serially without measuring, then measure the rest.
fn sensitivity_run<F: FlashTranslationLayer>(
    mut ftl: F,
    trace: &Trace,
    split: usize,
) -> Result<RunSummary, FtlError> {
    let logical_pages = ftl.logical_pages();
    let options = RunOptions::default();
    prefill(&options, &mut [&mut ftl], trace, |page| (0, page % logical_pages))?;
    let driver = WorkloadDriver::new(RunOptions { prefill: false, ..options }, SERIAL);
    if split > 0 {
        let warmup =
            Trace::new(format!("{}+warmup", trace.name()), trace.requests()[..split].to_vec());
        driver.run_mut(&mut ftl, &warmup)?;
    }
    let measured = Trace::new(trace.name().to_string(), trace.requests()[split..].to_vec());
    driver.run_mut(&mut ftl, &measured)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn compare_runs_both_ftls_on_the_same_trace() {
        let scale = ExperimentScale { requests: 800, ..ExperimentScale::quick() };
        let comparison = compare(Workload::WebSqlServer, 16 * 1024, 2.0, &scale).unwrap();
        assert_eq!(comparison.baseline.ftl, "conventional");
        assert_eq!(comparison.variant.ftl, "ppb");
        assert_eq!(comparison.baseline.host_reads, comparison.variant.host_reads);
        assert_eq!(comparison.baseline.host_writes, comparison.variant.host_writes);
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
        let comparison = compare(Workload::WebSqlServer, 16 * 1024, 4.0, &scale).unwrap();
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
        for row in erase_count_rows(&scale).unwrap() {
            let conventional = row.conventional.max(1) as f64;
            let increase = (row.ppb as f64 - conventional) / conventional * 100.0;
            assert!(
                increase < 25.0,
                "{}: erase count increased by {increase:.1}%",
                row.workload
            );
        }
    }

    #[test]
    fn sweeps_cover_every_speed_ratio() {
        let scale = ExperimentScale { requests: 600, ..ExperimentScale::quick() };
        let rows = read_latency_sweep(Workload::WebSqlServer, &scale).unwrap();
        let ratios: Vec<f64> = rows.iter().map(|row| row.speed_ratio).collect();
        assert_eq!(ratios, SPEED_RATIOS.to_vec());
    }

    #[test]
    fn classifier_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            Classifier::ALL.iter().map(|classifier| classifier.label()).collect();
        assert_eq!(labels.len(), Classifier::ALL.len());
    }

    #[test]
    fn queue_depth_sweep_covers_every_depth_and_reports_percentiles() {
        let scale = ExperimentScale {
            requests: 800,
            chips: 4,
            ..ExperimentScale::quick()
        };
        let rows = queue_depth_sweep(Workload::MediaServer, &scale).unwrap();
        let depths: Vec<usize> = rows.iter().map(|row| row.queue_depth).collect();
        assert_eq!(depths, QUEUE_DEPTHS.to_vec());
        for row in &rows {
            assert_eq!(row.conventional.queue_depth, row.queue_depth);
            assert_eq!(row.ppb.queue_depth, row.queue_depth);
            assert!(row.conventional.request_iops() > 0.0);
            assert!(row.conventional.read_latency.max >= row.conventional.read_latency.p99);
        }
        // Device-state evolution is depth-invariant: the same reads/writes/erases
        // happened at every depth.
        assert!(rows.windows(2).all(|pair| {
            pair[0].conventional.host_reads == pair[1].conventional.host_reads
                && pair[0].conventional.erased_blocks == pair[1].conventional.erased_blocks
        }));
        // On a multi-chip device the media-server (read-dominant) workload gains
        // throughput from depth.
        let qd1 = &rows[0];
        let qd64 = rows.iter().find(|row| row.queue_depth == 64).unwrap();
        assert!(
            qd64.conventional.request_iops() > qd1.conventional.request_iops(),
            "QD64 {} IOPS should beat QD1 {}",
            qd64.conventional.request_iops(),
            qd1.conventional.request_iops()
        );
    }

    #[test]
    fn rate_scale_sweep_reports_offered_vs_achieved_iops() {
        let scale = ExperimentScale { requests: 800, chips: 4, ..ExperimentScale::quick() };
        let rows = rate_scale_sweep(Workload::WebSqlServer, &scale).unwrap();
        let scales: Vec<f64> = rows.iter().map(|row| row.rate_scale).collect();
        assert_eq!(scales, RATE_SCALES.to_vec());
        for row in &rows {
            for summary in [&row.conventional, &row.ppb] {
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
            pair[0].conventional.host_reads == pair[1].conventional.host_reads
                && pair[0].conventional.erased_blocks == pair[1].conventional.erased_blocks
        }));
        // Offered load scales with the rate multiplier (the trace is shared).
        let first = &rows[0];
        let last = rows.last().unwrap();
        let expected = last.rate_scale / first.rate_scale;
        let actual = last.conventional.offered_iops() / first.conventional.offered_iops();
        assert!(
            (actual - expected).abs() / expected < 0.01,
            "offered load should scale ~{expected}x, got {actual}x"
        );
        // Pushing the rate never lowers queueing delay.
        assert!(
            last.conventional.queue_delay.mean >= first.conventional.queue_delay.mean,
            "8x offered load should queue at least as much as 0.5x"
        );
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
    fn burst_sweep_spreads_the_tail_at_fixed_mean_rate() {
        let scale = ExperimentScale {
            requests: 4_000,
            chips: 8,
            working_set_bytes: 24 * 1024 * 1024,
            ..ExperimentScale::quick()
        };
        let mean = burst_sweep_mean_iops(Workload::WebSqlServer, &scale).unwrap();
        assert!(mean > 0.0, "the saturation probe must measure a positive rate");
        let rows = burst_sweep_at(Workload::WebSqlServer, &scale, mean).unwrap();
        assert_eq!(rows.len(), burst_axis(mean).len());
        let uniform = &rows[0];
        assert_eq!(uniform.arrival, ArrivalModel::MeanRate { iops: mean });
        // Half of saturation: the smooth reference keeps up with its offered load.
        assert!(
            uniform.conventional.request_iops() > 0.95 * uniform.conventional.offered_iops(),
            "uniform arrivals at half saturation must be served at the offered rate"
        );
        // Offered rates agree across the axis (same mean, finite-trace noise).
        for row in &rows {
            let offered = row.conventional.offered_iops();
            let reference = uniform.conventional.offered_iops();
            assert!(
                (offered - reference).abs() / reference < 0.25,
                "{}: offered {offered:.0} strayed from the shared mean {reference:.0}",
                row.arrival
            );
            assert_eq!(row.conventional.queue_depth, 0, "burst rows replay open-loop");
        }
        // The burstiness symptoms grow monotonically in effect, not necessarily
        // per-row: compare the smooth reference against the most extreme burst.
        let extreme = rows.last().unwrap();
        for (smooth, bursty) in [
            (&uniform.conventional, &extreme.conventional),
            (&uniform.ppb, &extreme.ppb),
        ] {
            assert!(
                bursty.queue_delay.p999 > smooth.queue_delay.p999,
                "burstiness must spread the p99.9 queueing delay \
                 ({} vs {})",
                bursty.queue_delay.p999,
                smooth.queue_delay.p999
            );
            assert!(
                bursty.peak_queue_depth > smooth.peak_queue_depth,
                "bursts must deepen the backlog"
            );
            assert!(
                bursty.busy_arrival_fraction() > smooth.busy_arrival_fraction(),
                "bursts must raise the busy-arrival fraction"
            );
        }
    }

    #[test]
    fn fault_sweep_scales_retry_pressure_down_the_rber_axis() {
        let scale = ExperimentScale { requests: 2_000, ..ExperimentScale::quick() };
        let rows = fault_sweep(&scale).unwrap();
        assert_eq!(rows.len(), RBER_SCALES.len() * FAULT_SWEEP_POLICIES.len());
        for row in &rows {
            // Host traffic is fault-independent: the trace is shared.
            assert_eq!(row.conventional.host_reads, row.ppb.host_reads);
            assert_eq!(row.conventional.host_writes, row.ppb.host_writes);
        }
        // The aged end of the axis must actually exercise the retry ladder, and
        // harder than the nominal curve does.
        let nominal = &rows[0];
        let aged = rows.last().unwrap();
        assert_eq!(nominal.rber_scale, RBER_SCALES[0]);
        assert_eq!(aged.rber_scale, *RBER_SCALES.last().unwrap());
        assert!(aged.conventional.retried_reads > 0, "aged rows must see retries");
        assert!(
            aged.conventional.retried_reads >= nominal.conventional.retried_reads,
            "retry pressure must not fall as the RBER curve ages"
        );
        assert!(aged.conventional.read_retry_time > Nanos::ZERO);
        // Retry latency rides inside the ordinary service times.
        assert!(aged.conventional.retry_latency_fraction() > 0.0);
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
    fn policy_ablation_covers_the_grid_and_matches_fig18_for_greedy() {
        let scale = ExperimentScale { requests: 3_000, ..ExperimentScale::quick() };
        let rows = erase_count_by_policy(&scale).unwrap();
        assert_eq!(rows.len(), Workload::ALL.len() * GcPolicy::ALL.len());
        let fig18 = erase_count_rows(&scale).unwrap();
        for baseline in &fig18 {
            let greedy = rows
                .iter()
                .find(|row| row.workload == baseline.workload && row.policy == GcPolicy::Greedy)
                .unwrap();
            assert_eq!(greedy.conventional, baseline.conventional);
            assert_eq!(greedy.ppb, baseline.ppb);
        }
        let labels: std::collections::HashSet<_> =
            GcPolicy::ALL.iter().map(|policy| policy.label()).collect();
        assert_eq!(labels.len(), GcPolicy::ALL.len());
        // The cold-bonus ablation brackets the default: a zero bonus is exactly
        // greedy (the cold preference is the *only* thing hot-cold adds), and
        // the aggressive row must still produce a full set of counts.
        for workload in Workload::ALL {
            let row = |policy: GcPolicy| {
                rows.iter()
                    .find(|row| row.workload == workload && row.policy == policy)
                    .unwrap()
            };
            let greedy = row(GcPolicy::Greedy);
            let disabled = row(GcPolicy::HotColdBonus(0));
            assert_eq!(disabled.conventional, greedy.conventional);
            assert_eq!(disabled.ppb, greedy.ppb);
            assert!(row(GcPolicy::HotColdBonus(6)).ppb > 0);
        }
    }

    #[test]
    fn ppb_sensitivity_win_widens_with_warmup_on_web_sql() {
        let rows = ppb_sensitivity_sweep(Workload::WebSqlServer, &ExperimentScale::quick()).unwrap();
        assert_eq!(
            rows.len(),
            PPB_WARMUP_FRACTIONS.len()
                + PPB_COLD_PROMOTE_READS.len()
                + PPB_HOT_LIST_FRACTIONS.len()
        );
        let at_warmup = |fraction: f64| {
            rows.iter()
                .find(|row| {
                    row.warmup_fraction == fraction
                        && row.cold_promote_reads == PpbConfig::default().cold_promote_reads
                        && row.hot_list_fraction == PpbConfig::default().hot_list_fraction
                })
                .unwrap()
        };
        // Direction, pinned from the measured quick-scale sweep: the PPB *write*
        // win on web/SQL widens as the device ages (≈2.1% fresh → ≈4.3% after a
        // 50% warm-up), while the read win stays modest (≈0.8%) and positive at
        // every warm-up length. The promotion knobs are near-neutral at this
        // scale — the aging axis, not the thresholds, is what moves the number.
        let fresh = at_warmup(0.0).comparison.write_enhancement_pct();
        let aged = at_warmup(0.5).comparison.write_enhancement_pct();
        assert!(aged > fresh, "write win should widen with warm-up: {fresh:.3}% -> {aged:.3}%");
        assert!(aged > 1.5 * fresh, "the widening is substantial, not noise");
        for row in &rows {
            assert!(
                row.comparison.read_enhancement_pct() > 0.0,
                "read win stays positive on web/SQL (warmup {}, promote {}, hot {})",
                row.warmup_fraction,
                row.cold_promote_reads,
                row.hot_list_fraction
            );
        }
    }
}

