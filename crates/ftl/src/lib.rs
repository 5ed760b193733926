//! # vflash-ftl
//!
//! A baseline **flash translation layer** (FTL) for the 3D charge-trap NAND model in
//! [`vflash_nand`], plus the building blocks shared by more advanced FTLs:
//!
//! * [`MappingTable`] — page-level logical-to-physical mapping with a reverse map for
//!   garbage collection,
//! * [`gc`] — greedy victim selection and valid-page relocation,
//! * [`hotcold`] — classical two-level hot/cold data identification mechanisms
//!   (request-size check, two-level LRU, access-frequency table, multi-hash counting),
//!   which the PPB strategy reuses as its first identification stage,
//! * [`ConventionalFtl`] — the paper's comparison baseline: a page-mapping FTL with
//!   greedy garbage collection that assumes every page has the same access speed.
//!
//! The [`FlashTranslationLayer`] trait is the interface the trace-driven simulator
//! drives; the PPB strategy in `vflash-ppb` implements the same trait so the two can
//! be compared under identical workloads. The trait's entry point is the
//! submission/completion pair [`IoRequest`] → [`Completion`] (host latency, per-chip
//! op provenance, GC attribution); the scalar `read`/`write` methods are
//! default-implemented wrappers over [`FlashTranslationLayer::submit`], and
//! [`FlashTranslationLayer::submit_batch`] serves a whole queue-depth window at
//! once, scheduling its ops across per-chip ready clocks and completing at the
//! batch makespan ([`BatchCompletion`]).
//!
//! # Example
//!
//! ```
//! use vflash_ftl::{ConventionalFtl, FlashTranslationLayer, FtlConfig, Lpn};
//! use vflash_nand::{NandConfig, NandDevice};
//!
//! # fn main() -> Result<(), vflash_ftl::FtlError> {
//! let device = NandDevice::new(NandConfig::small());
//! let mut ftl = ConventionalFtl::new(device, FtlConfig::default())?;
//!
//! let write_latency = ftl.write(Lpn(0), 4096)?;
//! let read_latency = ftl.read(Lpn(0))?;
//! assert!(write_latency > read_latency);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fx;
pub mod gc;
pub mod hotcold;

mod batch;
mod config;
mod conventional;
mod error;
mod io;
mod mapping;
mod metrics;
mod traits;
mod types;
mod wear;

pub use batch::BatchCompletion;
pub use config::FtlConfig;
pub use conventional::ConventionalFtl;
pub use error::FtlError;
pub use gc::{
    CostBenefitVictimPolicy, GcOutcome, GreedyVictimPolicy, HotColdVictimPolicy, VictimPolicy,
};
pub use io::{Completion, IoCommand, IoRequest};
pub use mapping::MappingTable;
pub use metrics::FtlMetrics;
pub use traits::FlashTranslationLayer;
pub use types::Lpn;
pub use wear::{WearAwareVictimPolicy, WearStats};
