//! # vflash-sim
//!
//! Trace-driven SSD simulation for comparing flash translation layers on the 3D
//! charge-trap NAND model.
//!
//! The crate has these layers:
//!
//! * **The timing core** — the replay rule every tier must agree on, held once:
//!   [`HostCalendar`] (the [`ArrivalDiscipline`]'s issue rule over the heap of
//!   pending host completions, with the backlog statistics) and [`LaneState`]
//!   (one device's chip clocks, dependent page chains, latency split and
//!   [`RunSummary`] assembly), plus the shared warm-up [`prefill`]. It has two
//!   callers, the two [`Replay`] targets of [`WorkloadDriver`]: a
//!   [`FlashTranslationLayer`](vflash_ftl::FlashTranslationLayer) drives one
//!   lane, `vflash-fleet`'s `Fleet` drives N lanes under one calendar.
//! * [`WorkloadDriver`] — the one replay engine, for one device or a fleet:
//!   closed-loop (keep `queue_depth` requests in flight — saturation replay;
//!   depth 1 is the serial replay of the paper's figures) or open-loop (issue
//!   each request at its trace-recorded arrival time scaled by `rate_scale` —
//!   latency under load, with per-request queueing delay separated from
//!   service time). Byte ranges are translated into logical pages, and the
//!   address space is optionally pre-filled so reads of never-written data
//!   behave like reads of pre-existing data (the standard warm-up used by
//!   trace-driven flash simulators).
//! * [`RunSummary`] / [`Comparison`] — the measurements the paper reports: total and
//!   mean read/write latency, erased-block counts, GC copies and write amplification,
//!   plus enhancement percentages between a baseline and a variant — and, from the
//!   driver engine, per-request latency/queue-delay/service-time percentiles
//!   ([`LatencyPercentiles`]), achieved IOPS and (open loop) offered IOPS.
//! * [`experiments`] — one description of a run ([`RunSpec`]: trace source,
//!   scale, device, FTL, arrival discipline and model, warm-up,
//!   fleet width), one executor of its block traces ([`run_spec`]; a
//!   [`KvSource`] is run by `vflash-kv`'s `run_kv_cell`, a fleet width by
//!   `vflash-fleet`'s `run_fleet_cell`) and one comparison of both FTLs
//!   on the same trace ([`compare_specs`]), plus the axes of the paper's
//!   evaluation (Figures 12–18) and of the queue-depth, offered-load,
//!   burstiness, fault and PPB-sensitivity sections the
//!   `experiments` binary lists its specs over, and the end-of-life probe
//!   ([`experiments::fault_lifetime`]: writes into a failing device until it
//!   degrades to read-only).
//! * [`ParallelRunner`] / [`ExperimentGrid`] — map a function over any list of
//!   runs on `std::thread` workers; every run is a pure function of its spec,
//!   so results are bit-identical to a serial run, only faster.
//!
//! Replay summaries report the tail explicitly: every [`LatencyPercentiles`]
//! carries `p50/p95/p99/p99.9` (plus exact `max` and `mean`), and open-loop
//! [`RunSummary`]s additionally record the peak backlog
//! ([`RunSummary::peak_queue_depth`]) and the fraction of requests that arrived
//! into a busy system ([`RunSummary::busy_arrival_fraction`]).
//!
//! # Example
//!
//! ```
//! use vflash_ftl::{ConventionalFtl, FtlConfig};
//! use vflash_nand::{NandConfig, NandDevice};
//! use vflash_sim::{RunOptions, WorkloadDriver};
//! use vflash_trace::synthetic::{self, SyntheticConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace = synthetic::web_sql_server(SyntheticConfig {
//!     requests: 2_000,
//!     working_set_bytes: 8 * 1024 * 1024,
//!     ..Default::default()
//! });
//! let device = NandDevice::new(
//!     NandConfig::builder()
//!         .chips(1)
//!         .blocks_per_chip(96)
//!         .pages_per_block(32)
//!         .page_size_bytes(16 * 1024)
//!         .build()?,
//! );
//! let ftl = ConventionalFtl::new(device, FtlConfig::default())?;
//! let summary = WorkloadDriver::closed_loop(RunOptions::default(), 1).run(ftl, &trace)?;
//! assert!(summary.host_reads > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

mod calendar;
mod engine;
mod histogram;
mod lane;
mod parallel;
mod report;

pub use calendar::{HostCalendar, Issue};
pub use engine::{ArrivalDiscipline, Replay, RunOptions, WorkloadDriver};
pub use histogram::{LatencyHistogram, LatencyPercentiles};
pub use lane::{prefill, LaneState, PageChain};
pub use experiments::{
    compare_specs, run_spec, ComparisonRow, FtlJob, FtlKind, KvSource, RunSpec, TraceSource,
};
pub use parallel::{ExperimentGrid, ParallelRunner};
pub use report::{Comparison, ReplayMode, RunSummary};
