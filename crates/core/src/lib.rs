//! # vflash-ppb
//!
//! The **Progressive Performance Boosting (PPB)** strategy from the DAC 2017 paper
//! "Boosting the Performance of 3D Charge Trap NAND Flash with Asymmetric Feature
//! Process Size Characteristic" — a layer-aware FTL extension that exploits the
//! asymmetric page access speed of 3D charge-trap NAND.
//!
//! ## The idea
//!
//! In a 3D charge-trap block the bottom-layer pages are 2x–5x faster than the
//! top-layer pages, yet conventional FTLs place data wherever the write pointer
//! happens to be. Simply steering hot data to fast pages and cold data to slow pages
//! would mix hot and cold data inside the same physical block and wreck garbage
//! collection. PPB resolves the tension with three mechanisms:
//!
//! 1. **Four-level hotness** ([`Hotness`]): hot data is split into *iron-hot*
//!    (frequently read **and** written) and *hot* (frequently written, rarely read);
//!    cold data into *cold* (write-once-read-many) and *icy-cold*
//!    (write-once-read-few). See [`HotArea`] and [`ColdArea`]; they keep their
//!    per-LPN state in one shared table indexed by LPN (a
//!    [`ListTable`](vflash_ftl::ListTable), 8 bytes per logical page), never in a
//!    hash map.
//! 2. **Virtual blocks** ([`VirtualBlockTable`]): each physical block is split into
//!    speed-homogeneous groups of adjacent pages (slow half / fast half by default;
//!    the table answers which speed class an in-block page belongs to),
//!    and a physical block is dedicated to either the hot area or the cold area, so
//!    hot and cold data never share a block. See [`AreaWriter`] for the allocation
//!    rules of Figure 8 / Algorithm 1.
//! 3. **Progressive migration**: promotions and demotions only update bookkeeping;
//!    data physically moves to a page of suitable speed when it is next updated or
//!    relocated by garbage collection, so no extra write traffic is generated.
//!
//! [`PpbPlacement`] ties the pieces together as a
//! [`Placement`](vflash_ftl::Placement) — which block receives a host write or a
//! relocated page, by hotness — and [`PpbFtl`] is the shared `FtlCore` on it.
//! Mapping, garbage collection, fault handling and the
//! [`FlashTranslationLayer`](vflash_ftl::FlashTranslationLayer) implementation are the
//! conventional baseline's own: placement is the only difference between the two.
//!
//! # Example
//!
//! ```
//! use vflash_ftl::{FlashTranslationLayer, Lpn};
//! use vflash_nand::{NandConfig, NandDevice};
//! use vflash_ppb::{PpbConfig, PpbFtl};
//!
//! # fn main() -> Result<(), vflash_ftl::FtlError> {
//! let device = NandDevice::new(NandConfig::small());
//! let mut ftl = PpbFtl::new(device, PpbConfig::default())?;
//!
//! // Small (sub-page) writes are classified hot by the size-check first stage.
//! ftl.write(Lpn(1), 512)?;
//! // Reading the page promotes it towards iron-hot, so future rewrites land on
//! // fast bottom-layer pages.
//! ftl.read(Lpn(1))?;
//! ftl.write(Lpn(1), 512)?;
//! assert_eq!(ftl.metrics().host_writes, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cold_area;
mod config;
mod hot_area;
mod hotness;
mod placement;
mod ppb_ftl;
mod virtual_block;

pub use cold_area::ColdArea;
pub use config::PpbConfig;
pub use hot_area::{HotArea, PromotionOutcome};
pub use hotness::{Area, Hotness};
pub use placement::AreaWriter;
pub use ppb_ftl::{PpbFtl, PpbPlacement};
pub use virtual_block::VirtualBlockTable;
