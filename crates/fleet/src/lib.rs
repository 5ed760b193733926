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
//!   ([`WeightedShares`] / [`dispatch_order`]),
//! * a [`FleetDriver`] replaying a [`Trace`](vflash_trace::Trace) against the
//!   fleet under the same arrival disciplines as the single-device
//!   [`WorkloadDriver`](vflash_sim::WorkloadDriver), and
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
//! use vflash_fleet::{Fleet, FleetConfig, FleetDriver};
//! use vflash_ftl::{ConventionalFtl, FtlConfig};
//! use vflash_nand::{NandConfig, NandDevice};
//! use vflash_sim::{ArrivalDiscipline, RunOptions};
//! use vflash_trace::synthetic::{self, SyntheticConfig};
//!
//! # fn main() -> Result<(), vflash_ftl::FtlError> {
//! let lanes: Vec<ConventionalFtl> = (0..4)
//!     .map(|_| ConventionalFtl::new(NandDevice::new(NandConfig::small()), FtlConfig::default()))
//!     .collect::<Result<_, _>>()?;
//! let fleet = Fleet::new(lanes, FleetConfig::default());
//! let trace = synthetic::web_sql_server(SyntheticConfig { requests: 200, ..SyntheticConfig::default() });
//! let driver = FleetDriver::new(RunOptions::default(), ArrivalDiscipline::ClosedLoop { queue_depth: 8 });
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
pub use fleet::{Fleet, FleetConfig, FleetDriver};
pub use grid::run_fleet_cell;
pub use qos::{dispatch_order, TenantWeight, WeightedShares};
pub use stripe::StripeMap;
pub use summary::{FleetSummary, TenantSummary};
