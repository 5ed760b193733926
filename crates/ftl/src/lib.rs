//! # vflash-ftl
//!
//! The **flash translation layer** (FTL) for the 3D charge-trap NAND model in
//! [`vflash_nand`]: one page-mapped core, and the seam strategies plug into.
//!
//! * [`FtlCore`] — the standard page-mapping FTL, once: [`MappingTable`], garbage
//!   collection (greedy victims, [`gc`]), bad-block rescue, the read-only transition,
//!   [`FtlMetrics`] and the only [`FlashTranslationLayer`] implementation of an FTL,
//! * [`Placement`] — what an FTL built on the core decides: which open block
//!   receives a host write or a relocated page ([`Assemble`] builds one),
//! * [`ConventionalFtl`] = `FtlCore<`[`ConventionalPlacement`]`>` — the paper's
//!   baseline: one write pointer per stream, every page assumed equally fast,
//! * [`hotcold`] — classical two-level hot/cold data identification mechanisms
//!   (request-size check, two-level LRU, access-frequency table, multi-hash counting),
//!   the first identification stage of the PPB placement.
//!
//! The [`FlashTranslationLayer`] trait is the interface the trace-driven simulator
//! drives; the PPB strategy (`vflash_ppb::PpbFtl` = `FtlCore<PpbPlacement>`) is the
//! same core with a different placement, so the two are compared under identical
//! workloads and identical fault handling. The trait's entry point is the
//! submission/completion pair [`IoRequest`] → [`Completion`] (host latency, per-chip
//! op provenance, GC attribution); the scalar `read`/`write` methods are
//! default-implemented wrappers over [`FlashTranslationLayer::submit`], and
//! [`FlashTranslationLayer::submit_batch`] serves a whole queue-depth window in
//! one counted call ([`BatchCompletion`]: the applied requests' completions, op
//! spans live, for the caller's lane to play onto the chip clocks).
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
mod ftl_core;
mod io;
mod mapping;
mod metrics;
mod traits;
mod types;

pub use batch::BatchCompletion;
pub use config::FtlConfig;
pub use conventional::{ConventionalFtl, ConventionalPlacement, ConventionalStream};
pub use error::FtlError;
pub use ftl_core::{Assemble, FtlCore, Placement};
pub use gc::GcOutcome;
pub use io::{Completion, IoCommand, IoRequest};
pub use mapping::MappingTable;
pub use metrics::FtlMetrics;
pub use traits::FlashTranslationLayer;
pub use types::Lpn;
