//! # vflash-fleet
//!
//! A host tier over a fleet of simulated flash devices.
//!
//! The other crates in the workspace model one device: a NAND geometry, an FTL
//! on top of it, and a replay engine that drives a trace through that single
//! stack. This crate adds the layer a storage host actually runs:
//!
//! * a [`StripeMap`] that shards one flat logical keyspace over N device
//!   *lanes* (page-granular round-robin striping),
//! * a [`Fleet`] that owns the lanes and advances every lane's per-chip
//!   clocks on one shared virtual timeline, so cross-device interleavings are
//!   deterministic,
//! * an optional host-DRAM [`WritebackCache`] in front of the lanes
//!   (write-allocate with a dirty-ratio flush threshold, write-around for
//!   large cold streams),
//! * per-tenant submission queues with weighted-share scheduling
//!   ([`WeightedShares`]): the drive loop streams the dispatch order from one
//!   next-request cursor per tenant, so no queue is built and a replay's
//!   state does not grow with the trace ([`dispatch_order`] collects the same
//!   stream),
//! * the fleet's drive loop: a [`Fleet`] is a [`Replay`](vflash_sim::Replay)
//!   target, so the one [`WorkloadDriver`](vflash_sim::WorkloadDriver) replays
//!   a [`Trace`](vflash_trace::Trace) against it under the same arrival
//!   disciplines, options and discipline check as against one device, and
//! * a [`FleetSummary`] reporting per-lane [`RunSummary`](vflash_sim::RunSummary)
//!   rows next to fleet-level fan-out latency (max over the stripes each
//!   request touched) so tail amplification is directly measurable.
//!
//! The load-bearing property — pinned by `tests/fleet_equivalence.rs` — is
//! that a fleet of one device with the cache disabled reproduces the
//! single-device engine **bit for bit**: same histograms, same metrics, same
//! device state. Everything the host tier adds is therefore observable as a
//! delta against a trusted baseline.
//!
//! # Example
//!
//! ```
//! use vflash_fleet::{Fleet, FleetConfig};
//! use vflash_ftl::{ConventionalFtl, FtlConfig};
//! use vflash_nand::{NandConfig, NandDevice};
//! use vflash_sim::{ArrivalDiscipline, RunOptions, WorkloadDriver};
//! use vflash_trace::synthetic::{self, SyntheticConfig};
//!
//! # fn main() -> Result<(), vflash_ftl::FtlError> {
//! let lanes: Vec<ConventionalFtl> = (0..4)
//!     .map(|_| ConventionalFtl::new(NandDevice::new(NandConfig::small()), FtlConfig::default()))
//!     .collect::<Result<_, _>>()?;
//! let fleet = Fleet::new(lanes, FleetConfig::default());
//! let trace = synthetic::web_sql_server(SyntheticConfig { requests: 200, ..SyntheticConfig::default() });
//! let driver = WorkloadDriver::new(RunOptions::default(), ArrivalDiscipline::ClosedLoop { queue_depth: 8 });
//! let summary = driver.run(fleet, &trace)?;
//! assert_eq!(summary.width, 4);
//! assert_eq!(summary.host_requests, 200);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod fleet;
mod grid;
mod qos;
mod stripe;
mod summary;

pub use cache::{CacheConfig, CacheStats, WritebackCache};
pub use fleet::{Fleet, FleetConfig};
pub use grid::run_fleet_cell;
pub use qos::{dispatch_order, TenantWeight, WeightedShares};
pub use stripe::StripeMap;
pub use summary::{FleetSummary, TenantSummary};
/// The fleet's former driver type, now the one driver of every tier; the name
/// stays because the repository benchmark (`benchmark/`) imports it.
pub use vflash_sim::WorkloadDriver as FleetDriver;
