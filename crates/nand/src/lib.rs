//! # vflash-nand
//!
//! A behavioural model of **3D charge-trap NAND flash** with the *asymmetric feature
//! process size* characteristic described in the DAC 2017 paper
//! "Boosting the Performance of 3D Charge Trap NAND Flash with Asymmetric Feature
//! Process Size Characteristic".
//!
//! 3D charge-trap NAND is built by stacking gate layers and etching vertical,
//! cylindrical channels through the stack. Because the etch erodes a wider opening at
//! the top of the stack than at the bottom, the electric field — and therefore the page
//! access speed — differs per layer: pages on the bottom layers are typically **2x–5x
//! faster** than pages on the top layers. In the FTL view, a vertical channel maps to a
//! *block* and each gate-stack layer maps to a *page*, so pages within one block have
//! heterogeneous access latency.
//!
//! This crate models that device faithfully enough for FTL research:
//!
//! * [`NandConfig`] — geometry and timing parameters (defaults follow Table 1 of the
//!   paper: 64 GB, 16 KB pages, 384 pages/block, 600 µs program, 49 µs read,
//!   533 MB/s transfer, 4 ms erase).
//! * [`LatencyModel`] — per-layer asymmetric latency: a linear gradient from the
//!   top layer to a bottom layer 2x–5x faster.
//! * [`NandDevice`] — chips, blocks and pages with the flash state machine
//!   (erase-before-write, in-order page programming, valid/invalid/free pages) and
//!   cumulative timing/wear statistics.
//!
//! # Chip-level interleaving
//!
//! Chips (dies) are independent: operations on different chips overlap in time,
//! while operations on the same chip serialise. Each [`Chip`] therefore carries a
//! busy clock that accumulates the latency of every operation it services, and
//! [`NandDevice::makespan`] — the maximum clock across chips — is the completion
//! time of the whole operation stream under perfect chip interleaving (the serial
//! sum remains available via [`DeviceStats::busy_time`]). To make the overlap real,
//! [`NandDevice::allocate_block`] hands out free blocks round-robin across chips,
//! so consecutive writes land on different dies. Free blocks, wear and
//! garbage-collection candidates are tracked per chip in O(1) — see [`Chip`].
//!
//! # Example
//!
//! ```
//! use vflash_nand::{NandConfig, NandDevice, PageId};
//!
//! # fn main() -> Result<(), vflash_nand::NandError> {
//! // A small device: 1 chip, 16 blocks, 8 pages (= layers) per block, 3x speed difference.
//! let config = NandConfig::builder()
//!     .chips(1)
//!     .blocks_per_chip(16)
//!     .pages_per_block(8)
//!     .speed_ratio(3.0)
//!     .build()?;
//! let mut device = NandDevice::new(config);
//!
//! let block = device.allocate_block().expect("fresh device has free blocks");
//! // Programming the first (top-layer, slow) page takes longer than reading it back.
//! let (page, program) = device.program_next(block)?;
//! assert_eq!(page, PageId(0));
//! let read = device.read(block.page(page))?;
//! assert!(program > read);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod block;
mod chip;
mod config;
mod device;
mod error;
mod fault;
mod latency;
mod page;
mod provenance;
mod sched;
mod stats;
mod time;

pub use address::{BlockAddr, ChipId, LayerId, PageAddr, PageId};
pub use block::{Block, BlockState};
pub use chip::Chip;
pub use config::{NandConfig, NandConfigBuilder};
pub use device::NandDevice;
pub use error::NandError;
pub use fault::{FaultConfig, ReadFaultInfo};
pub use latency::{LatencyModel, SpeedClass};
pub use page::PageState;
pub use provenance::{OpKind, OpRecord, OpSpan};
pub use sched::ChipClocks;
pub use stats::{DeviceStats, OpCounts};
pub use time::Nanos;
