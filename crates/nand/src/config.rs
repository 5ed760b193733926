//! Device configuration.

use crate::error::NandError;
use crate::fault::FaultConfig;
use crate::latency::LatencyModel;
use crate::time::Nanos;

/// Table 1's nominal (slowest-layer) page read latency.
const READ_LATENCY: Nanos = Nanos::from_micros(49);
/// Table 1's nominal (slowest-layer) page program latency.
const PROGRAM_LATENCY: Nanos = Nanos::from_micros(600);
/// Table 1's block erase latency.
const ERASE_LATENCY: Nanos = Nanos::from_millis(4);
/// Table 1's interface data rate in MB/s.
const TRANSFER_RATE_MB_S: f64 = 533.0;

/// Geometry and timing parameters of a 3D charge-trap NAND device.
///
/// The default values follow Table 1 of the paper (Samsung V-NAND derived): 64 GB
/// capacity, 16 KB pages, 384 pages per block, 600 µs page program, 49 µs page read,
/// a 533 MB/s interface (Table 1's "533 Mbps" per-pin toggle rate across the 8-bit
/// bus) and 4 ms block erase. The timing is fixed; use [`NandConfig::builder`] to
/// scale the geometry down for unit tests or up for capacity studies, and to set the
/// speed ratio and the fault model.
///
/// # Example
///
/// ```
/// use vflash_nand::NandConfig;
///
/// # fn main() -> Result<(), vflash_nand::NandError> {
/// let config = NandConfig::builder()
///     .chips(2)
///     .blocks_per_chip(64)
///     .pages_per_block(32)
///     .page_size_bytes(8 * 1024)
///     .speed_ratio(2.0)
///     .build()?;
/// assert_eq!(config.total_blocks(), 128);
/// assert_eq!(config.capacity_bytes(), 128 * 32 * 8 * 1024);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NandConfig {
    chips: usize,
    blocks_per_chip: usize,
    pages_per_block: usize,
    page_size_bytes: usize,
    speed_ratio: f64,
    faults: FaultConfig,
}

impl NandConfig {
    /// Starts building a configuration from the Table 1 defaults.
    pub fn builder() -> NandConfigBuilder {
        NandConfigBuilder::default()
    }

    /// The full-size configuration of Table 1 of the paper: 4 chips x 2730 blocks x
    /// 384 pages x 16 KB ≈ 64 GB, 49 µs read, 600 µs program, 4 ms erase, 533 Mbps.
    ///
    /// The paper's 64 GB does not divide evenly into 6 MB blocks, so this uses the
    /// nearest block count below it (10 920 blocks ≈ 63.98 GB).
    pub fn table1() -> Self {
        NandConfig::builder()
            .build()
            .expect("table 1 defaults are valid")
    }

    /// A deliberately small configuration (1 chip, 64 blocks, 16 pages, 4 KB pages)
    /// for unit tests and doc examples where simulating a 64 GB device would be
    /// wasteful.
    pub fn small() -> Self {
        NandConfig::builder()
            .chips(1)
            .blocks_per_chip(64)
            .pages_per_block(16)
            .page_size_bytes(4 * 1024)
            .build()
            .expect("small test configuration is valid")
    }

    /// Number of chips (dies).
    pub fn chips(&self) -> usize {
        self.chips
    }

    /// Number of blocks per chip.
    pub fn blocks_per_chip(&self) -> usize {
        self.blocks_per_chip
    }

    /// Number of pages per block (equal to the number of gate-stack layers).
    pub fn pages_per_block(&self) -> usize {
        self.pages_per_block
    }

    /// Page size in bytes.
    pub fn page_size_bytes(&self) -> usize {
        self.page_size_bytes
    }

    /// Nominal (slowest-layer) page read latency.
    pub fn read_latency(&self) -> Nanos {
        READ_LATENCY
    }

    /// Nominal (slowest-layer) page program latency.
    pub fn program_latency(&self) -> Nanos {
        PROGRAM_LATENCY
    }

    /// Block erase latency.
    pub fn erase_latency(&self) -> Nanos {
        ERASE_LATENCY
    }

    /// Interface data rate in megabytes per second.
    ///
    /// The paper's Table 1 lists "533 Mbps", which is the per-pin signalling rate of
    /// the Samsung V-NAND toggle interface; across the 8-bit bus that corresponds to
    /// 533 MB/s, which is the figure that matters for page transfer time.
    pub fn transfer_rate_mb_s(&self) -> f64 {
        TRANSFER_RATE_MB_S
    }

    /// Top-layer/bottom-layer access speed ratio (2.0–5.0 in the paper).
    pub fn speed_ratio(&self) -> f64 {
        self.speed_ratio
    }

    /// The fault-injection knobs (disabled by default — see [`FaultConfig`]).
    pub fn faults(&self) -> &FaultConfig {
        &self.faults
    }

    /// Returns this configuration with the given fault model, validating the
    /// knobs. Convenience for enabling faults on an already-built configuration
    /// (e.g. one produced by an experiment scale).
    ///
    /// # Errors
    ///
    /// Returns [`NandError::InvalidConfig`] if the fault knobs are out of range
    /// (probabilities outside `[0, 1]`, negative or non-finite curve
    /// parameters, a zero-width retry step with retries allowed).
    pub fn with_faults(mut self, faults: FaultConfig) -> Result<Self, NandError> {
        faults
            .validate()
            .map_err(|reason| NandError::InvalidConfig { reason: reason.to_string() })?;
        self.faults = faults;
        Ok(self)
    }

    /// Total number of blocks in the device.
    pub fn total_blocks(&self) -> usize {
        self.chips * self.blocks_per_chip
    }

    /// Total number of pages in the device.
    pub fn total_pages(&self) -> usize {
        self.total_blocks() * self.pages_per_block
    }

    /// Raw capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() as u64 * self.page_size_bytes as u64
    }

    /// Time to move one page over the chip interface at the configured data rate.
    pub fn transfer_latency(&self) -> Nanos {
        let seconds = self.page_size_bytes as f64 / (TRANSFER_RATE_MB_S * 1_000_000.0);
        Nanos::from_micros_f64(seconds * 1_000_000.0)
    }

    /// Builds the per-layer latency model for this configuration.
    pub fn latency_model(&self) -> LatencyModel {
        LatencyModel::new(self)
    }
}

impl Default for NandConfig {
    fn default() -> Self {
        NandConfig::table1()
    }
}

/// Builder for [`NandConfig`].
///
/// All setters take and return the builder by value so calls can be chained; `build`
/// validates the combination.
#[derive(Debug, Clone)]
pub struct NandConfigBuilder {
    chips: usize,
    blocks_per_chip: usize,
    pages_per_block: usize,
    page_size_bytes: usize,
    speed_ratio: f64,
    faults: FaultConfig,
}

impl Default for NandConfigBuilder {
    fn default() -> Self {
        // Table 1 of the paper.
        NandConfigBuilder {
            chips: 4,
            blocks_per_chip: 2730,
            pages_per_block: 384,
            page_size_bytes: 16 * 1024,
            speed_ratio: 2.0,
            faults: FaultConfig::disabled(),
        }
    }
}

impl NandConfigBuilder {
    /// Sets the number of chips (dies).
    pub fn chips(mut self, chips: usize) -> Self {
        self.chips = chips;
        self
    }

    /// Sets the number of blocks per chip.
    pub fn blocks_per_chip(mut self, blocks: usize) -> Self {
        self.blocks_per_chip = blocks;
        self
    }

    /// Sets the number of pages per block (= gate-stack layers).
    pub fn pages_per_block(mut self, pages: usize) -> Self {
        self.pages_per_block = pages;
        self
    }

    /// Sets the page size in bytes.
    pub fn page_size_bytes(mut self, bytes: usize) -> Self {
        self.page_size_bytes = bytes;
        self
    }

    /// Sets the top/bottom layer speed ratio (>= 1.0).
    pub fn speed_ratio(mut self, ratio: f64) -> Self {
        self.speed_ratio = ratio;
        self
    }

    /// Sets the fault-injection knobs (see [`FaultConfig`]; disabled by default).
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Validates the parameters and produces a [`NandConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`NandError::InvalidConfig`] if any dimension is zero, the speed ratio
    /// is below 1.0 or not finite, or the fault knobs are out of range.
    pub fn build(self) -> Result<NandConfig, NandError> {
        fn invalid(reason: &str) -> NandError {
            NandError::InvalidConfig { reason: reason.to_string() }
        }
        if self.chips == 0 {
            return Err(invalid("chips must be positive"));
        }
        if self.blocks_per_chip == 0 {
            return Err(invalid("blocks_per_chip must be positive"));
        }
        if self.pages_per_block == 0 {
            return Err(invalid("pages_per_block must be positive"));
        }
        if self.page_size_bytes == 0 {
            return Err(invalid("page_size_bytes must be positive"));
        }
        if !self.speed_ratio.is_finite() || self.speed_ratio < 1.0 {
            return Err(invalid("speed_ratio must be finite and >= 1.0"));
        }
        self.faults.validate().map_err(invalid)?;
        Ok(NandConfig {
            chips: self.chips,
            blocks_per_chip: self.blocks_per_chip,
            pages_per_block: self.pages_per_block,
            page_size_bytes: self.page_size_bytes,
            speed_ratio: self.speed_ratio,
            faults: self.faults,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::PageId;

    #[test]
    fn table1_matches_paper_parameters() {
        let c = NandConfig::table1();
        assert_eq!(c.pages_per_block(), 384);
        assert_eq!(c.page_size_bytes(), 16 * 1024);
        assert_eq!(c.read_latency(), Nanos::from_micros(49));
        assert_eq!(c.program_latency(), Nanos::from_micros(600));
        assert_eq!(c.erase_latency(), Nanos::from_millis(4));
        assert_eq!(c.transfer_rate_mb_s(), 533.0);
        // 16 KiB at 533 MB/s ≈ 30.7 µs
        let transfer_us = c.transfer_latency().as_micros_f64();
        assert!((transfer_us - 30.7).abs() < 0.2, "transfer latency was {transfer_us} us");
        // ~64 GB
        let gb = c.capacity_bytes() as f64 / (1024.0 * 1024.0 * 1024.0);
        assert!(gb > 63.0 && gb < 64.5, "capacity was {gb} GB");
    }

    #[test]
    fn default_is_table1() {
        assert_eq!(NandConfig::default(), NandConfig::table1());
    }

    #[test]
    fn transfer_latency_follows_page_size() {
        let c = NandConfig::builder().page_size_bytes(8 * 1024).build().unwrap();
        // 8 KiB at 533 MB/s ≈ 15.37 us
        let us = c.transfer_latency().as_micros_f64();
        assert!((us - 15.37).abs() < 0.1, "transfer latency was {us} us");
    }

    #[test]
    fn latency_model_inherits_geometry() {
        let c = NandConfig::small();
        let m = c.latency_model();
        assert_eq!(m.pages_per_block(), c.pages_per_block());
        assert_eq!(m.read_latency(PageId(0)), c.read_latency());
    }

    #[test]
    fn zero_dimensions_are_rejected() {
        for (name, builder) in [
            ("chips", NandConfig::builder().chips(0)),
            ("blocks", NandConfig::builder().blocks_per_chip(0)),
            ("pages", NandConfig::builder().pages_per_block(0)),
            ("page size", NandConfig::builder().page_size_bytes(0)),
        ] {
            assert!(
                matches!(builder.build(), Err(NandError::InvalidConfig { .. })),
                "{name} = 0 should be rejected"
            );
        }
    }

    #[test]
    fn bad_speed_ratio_rejected() {
        assert!(NandConfig::builder().speed_ratio(0.9).build().is_err());
        assert!(NandConfig::builder().speed_ratio(f64::NAN).build().is_err());
    }

    #[test]
    fn faults_default_off_and_validate_on_the_way_in() {
        assert!(!NandConfig::table1().faults().enabled);
        let enabled = NandConfig::small().with_faults(FaultConfig::enabled(7)).unwrap();
        assert!(enabled.faults().enabled);
        assert_eq!(enabled.faults().seed, 7);

        let mut bad = FaultConfig::enabled(1);
        bad.program_fail_base = 2.0;
        assert!(matches!(
            NandConfig::small().with_faults(bad),
            Err(NandError::InvalidConfig { .. })
        ));
        assert!(matches!(
            NandConfig::builder().faults(bad).build(),
            Err(NandError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn capacity_math() {
        let c = NandConfig::builder()
            .chips(2)
            .blocks_per_chip(10)
            .pages_per_block(4)
            .page_size_bytes(4096)
            .build()
            .unwrap();
        assert_eq!(c.total_blocks(), 20);
        assert_eq!(c.total_pages(), 80);
        assert_eq!(c.capacity_bytes(), 80 * 4096);
    }
}
