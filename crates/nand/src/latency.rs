//! The asymmetric per-layer latency model.
//!
//! The vertical channel of a 3D charge-trap block is etched from the top of the gate
//! stack, so its diameter shrinks towards the bottom layers. A narrower channel
//! concentrates the electric field, which makes program and read operations on the
//! bottom layers faster. The paper reports the bottom layer being **2x to 5x** faster
//! than the top layer depending on the layer count.
//!
//! [`LatencyModel`] turns that physical observation into numbers: given a page index
//! (equivalently, its gate-stack layer), it produces the read/program latency for that
//! page by scaling the nominal datasheet latency with a per-layer speed factor that
//! shrinks linearly from 1 on the top layer to `1 / speed_ratio` on the bottom one —
//! the paper's gradient, whose only swept parameter is the ratio.
//!
//! Convention used throughout the workspace: **page 0 is the top layer (slowest)** and
//! the last page of the block is the bottom layer (fastest), matching the paper's
//! "the last page of one block could be much faster than the first page".

use crate::address::PageId;
use crate::config::NandConfig;
use crate::time::Nanos;

/// A group of adjacent layers with similar access speed.
///
/// Class 0 is the **slowest** group (top of the stack); higher classes are faster.
/// The PPB virtual-block concept groups the pages of one physical block into such
/// classes (two by default: slow half and fast half).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpeedClass(pub usize);

impl SpeedClass {
    /// Computes the speed class of a page when the block is divided into
    /// `classes` equal groups of adjacent layers.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero or `pages_per_block` is zero.
    pub fn of(page: PageId, pages_per_block: usize, classes: usize) -> SpeedClass {
        assert!(classes > 0, "classes must be positive");
        assert!(pages_per_block > 0, "pages_per_block must be positive");
        let group_size = pages_per_block.div_ceil(classes);
        SpeedClass((page.0 / group_size).min(classes - 1))
    }

    /// Whether this is the slowest class.
    pub const fn is_slowest(self) -> bool {
        self.0 == 0
    }
}

/// Per-layer latency model for one block geometry, built by
/// [`NandConfig::latency_model`].
///
/// # Example
///
/// ```
/// use vflash_nand::{NandConfig, Nanos, PageId};
///
/// # fn main() -> Result<(), vflash_nand::NandError> {
/// // 64 layers, the bottom layer 4x faster than the top layer.
/// let config = NandConfig::builder().pages_per_block(64).speed_ratio(4.0).build()?;
/// let model = config.latency_model();
/// let top = model.read_latency(PageId(0));
/// let bottom = model.read_latency(PageId(63));
/// assert_eq!(top, Nanos::from_micros(49));
/// assert_eq!(top.as_nanos(), bottom.as_nanos() * 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    nominal_read: Nanos,
    nominal_program: Nanos,
    erase: Nanos,
    transfer: Nanos,
    pages_per_block: usize,
    speed_ratio: f64,
    /// Pre-computed per-page latency multiplier in `[1/speed_ratio, 1.0]`.
    factors: Vec<f64>,
    /// Pre-computed `read_latency + transfer` per page: the device charges one
    /// of these on every read, so the float scale happens once at build time.
    read_totals: Vec<Nanos>,
    /// Pre-computed `program_latency + transfer` per page.
    program_totals: Vec<Nanos>,
}

impl LatencyModel {
    /// Builds the model of `config`, whose builder already rejected a zero page
    /// count and a speed ratio below 1. The nominal latencies apply to the
    /// *slowest* (top) layer; faster layers scale down from there.
    pub(crate) fn new(config: &NandConfig) -> Self {
        let pages_per_block = config.pages_per_block();
        let speed_ratio = config.speed_ratio();
        let (nominal_read, nominal_program) = (config.read_latency(), config.program_latency());
        let transfer = config.transfer_latency();
        let factors: Vec<f64> = (0..pages_per_block)
            .map(|i| Self::factor_at(i, pages_per_block, speed_ratio))
            .collect();
        let read_totals =
            factors.iter().map(|&factor| nominal_read.scale(factor) + transfer).collect();
        let program_totals =
            factors.iter().map(|&factor| nominal_program.scale(factor) + transfer).collect();
        LatencyModel {
            nominal_read,
            nominal_program,
            erase: config.erase_latency(),
            transfer,
            pages_per_block,
            speed_ratio,
            factors,
            read_totals,
            program_totals,
        }
    }

    fn factor_at(index: usize, pages: usize, ratio: f64) -> f64 {
        if pages == 1 {
            return 1.0;
        }
        let fastest = 1.0 / ratio;
        let position = index as f64 / (pages - 1) as f64; // 0.0 = top/slow, 1.0 = bottom/fast
        1.0 - position * (1.0 - fastest)
    }

    /// The per-page latency multiplier in `[1/speed_ratio, 1.0]`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the block.
    pub fn speed_factor(&self, page: PageId) -> f64 {
        self.factors[page.0]
    }

    /// Cell read latency of `page` (excluding bus transfer).
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the block.
    pub fn read_latency(&self, page: PageId) -> Nanos {
        self.nominal_read.scale(self.speed_factor(page))
    }

    /// Cell program latency of `page` (excluding bus transfer).
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the block.
    pub fn program_latency(&self, page: PageId) -> Nanos {
        self.nominal_program.scale(self.speed_factor(page))
    }

    /// Block erase latency. Erase operates on the whole vertical channel at once, so
    /// it does not vary per layer.
    pub fn erase_latency(&self) -> Nanos {
        self.erase
    }

    /// Time to move one page of data over the chip interface. Bus speed does not
    /// depend on the layer.
    pub fn transfer_latency(&self) -> Nanos {
        self.transfer
    }

    /// Total latency of servicing a page read: cell sensing plus bus transfer.
    /// Pre-computed per page, so the hot path is a table lookup.
    pub fn read_total(&self, page: PageId) -> Nanos {
        self.read_totals[page.0]
    }

    /// Total latency of servicing a page program: bus transfer plus cell programming.
    /// Pre-computed per page, so the hot path is a table lookup.
    pub fn program_total(&self, page: PageId) -> Nanos {
        self.program_totals[page.0]
    }

    /// Number of pages (layers) per block this model was built for.
    pub fn pages_per_block(&self) -> usize {
        self.pages_per_block
    }

    /// The configured top/bottom speed ratio.
    pub fn speed_ratio(&self) -> f64 {
        self.speed_ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(pages: usize, ratio: f64) -> LatencyModel {
        NandConfig::builder()
            .pages_per_block(pages)
            .speed_ratio(ratio)
            .build()
            .expect("valid test geometry")
            .latency_model()
    }

    #[test]
    fn linear_endpoints_match_ratio() {
        let m = model(384, 4.0);
        assert_eq!(m.speed_factor(PageId(0)), 1.0);
        assert!((m.speed_factor(PageId(383)) - 0.25).abs() < 1e-12);
        assert_eq!(m.read_latency(PageId(0)), Nanos::from_micros(49));
    }

    #[test]
    fn single_page_block_is_nominal() {
        let m = model(1, 5.0);
        assert_eq!(m.speed_factor(PageId(0)), 1.0);
    }

    #[test]
    fn totals_include_transfer() {
        let m = model(8, 2.0);
        let transfer = m.transfer_latency();
        assert!(transfer > Nanos::ZERO);
        assert_eq!(m.read_total(PageId(0)), Nanos::from_micros(49) + transfer);
        assert_eq!(m.program_total(PageId(0)), Nanos::from_micros(600) + transfer);
    }

    #[test]
    fn erase_is_layer_independent() {
        let m = model(8, 5.0);
        assert_eq!(m.erase_latency(), Nanos::from_millis(4));
    }

    #[test]
    fn speed_class_partitions_block_in_half() {
        assert_eq!(SpeedClass::of(PageId(0), 384, 2), SpeedClass(0));
        assert_eq!(SpeedClass::of(PageId(191), 384, 2), SpeedClass(0));
        assert_eq!(SpeedClass::of(PageId(192), 384, 2), SpeedClass(1));
        assert_eq!(SpeedClass::of(PageId(383), 384, 2), SpeedClass(1));
    }

    #[test]
    fn speed_class_handles_uneven_division() {
        // 10 pages into 4 classes: group size ceil(10/4) = 3 -> classes 0,0,0,1,1,1,2,2,2,3
        assert_eq!(SpeedClass::of(PageId(2), 10, 4), SpeedClass(0));
        assert_eq!(SpeedClass::of(PageId(3), 10, 4), SpeedClass(1));
        assert_eq!(SpeedClass::of(PageId(9), 10, 4), SpeedClass(3));
    }
}
