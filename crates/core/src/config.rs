//! Configuration of the PPB strategy.

use vflash_ftl::hotcold::Classifier;
use vflash_ftl::{FtlConfig, FtlError};

/// Capacity of the hot-area *iron-hot* LRU list as a fraction of the exported
/// logical pages.
const IRON_HOT_LIST_FRACTION: f64 = 0.15;
/// Capacity of the cold-area access-frequency table as a fraction of the exported
/// logical pages. Entries evicted from the table are implicitly icy-cold.
const COLD_TABLE_FRACTION: f64 = 0.30;
/// Largest accepted [`PpbConfig::cold_promote_reads`]: the cold area keeps one
/// bucket per read count up to it, ≈1.5 MiB of bucket headers at this bound.
const MAX_COLD_PROMOTE_READS: u32 = u16::MAX as u32;

/// Tunables for [`crate::PpbFtl`].
///
/// # Example
///
/// ```
/// use vflash_ppb::PpbConfig;
///
/// let config = PpbConfig { virtual_blocks_per_block: 4, ..PpbConfig::default() };
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpbConfig {
    /// Base FTL parameters (over-provisioning).
    pub ftl: FtlConfig,
    /// How many speed-homogeneous virtual blocks each physical block is divided into.
    /// The paper uses 2 (a slow half and a fast half) and notes that more groups trade
    /// finer placement against higher bookkeeping overhead.
    pub virtual_blocks_per_block: usize,
    /// Capacity of the hot-area *hot* LRU list as a fraction of the exported logical
    /// pages.
    pub hot_list_fraction: f64,
    /// Number of recorded reads after which a cold-area entry is promoted from
    /// icy-cold to cold, from 1 to 65,535.
    pub cold_promote_reads: u32,
    /// The first-stage hot/cold classifier every host write consults; the paper's
    /// case study is the request-size check at the page size.
    pub classifier: Classifier,
}

impl Default for PpbConfig {
    fn default() -> Self {
        PpbConfig {
            ftl: FtlConfig::default(),
            virtual_blocks_per_block: 2,
            hot_list_fraction: 0.15,
            cold_promote_reads: 1,
            classifier: Classifier::SizeCheck,
        }
    }
}

impl PpbConfig {
    /// Checks the parameter combination.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::InvalidConfig`] if the base FTL configuration is invalid,
    /// the virtual-block count is zero, the hot list fraction is outside `(0, 1]`, or
    /// the cold promotion threshold is zero or above 65,535.
    pub fn validate(&self) -> Result<(), FtlError> {
        self.ftl.validate()?;
        fn invalid(reason: &str) -> FtlError {
            FtlError::InvalidConfig { reason: reason.to_string() }
        }
        if self.virtual_blocks_per_block == 0 {
            return Err(invalid("virtual_blocks_per_block must be at least 1"));
        }
        let fraction = self.hot_list_fraction;
        if !fraction.is_finite() || fraction <= 0.0 || fraction > 1.0 {
            return Err(invalid("hot_list_fraction must be within (0, 1]"));
        }
        if !(1..=MAX_COLD_PROMOTE_READS).contains(&self.cold_promote_reads) {
            let bound = format!("cold_promote_reads must be within 1..={MAX_COLD_PROMOTE_READS}");
            return Err(invalid(&bound));
        }
        Ok(())
    }

    /// Physical blocks each data area keeps open for writing at once: one per
    /// virtual block, and never fewer than two. The paper's Figure 8 keeps two —
    /// one block filling its slow virtual block and one filling its fast virtual
    /// block — which is what lets hot and iron-hot (or icy-cold and cold) data land
    /// on pages of different speed simultaneously.
    pub fn open_blocks_per_area(&self) -> usize {
        self.virtual_blocks_per_block.max(2)
    }

    /// Capacity of the hot list for a device exporting `logical_pages` pages
    /// (always at least 8 so tiny test devices still exercise the mechanism).
    pub fn hot_list_capacity(&self, logical_pages: u64) -> usize {
        ((logical_pages as f64 * self.hot_list_fraction) as usize).max(8)
    }

    /// Capacity of the iron-hot list for a device exporting `logical_pages` pages.
    pub fn iron_hot_list_capacity(&self, logical_pages: u64) -> usize {
        ((logical_pages as f64 * IRON_HOT_LIST_FRACTION) as usize).max(8)
    }

    /// Capacity of the cold-area frequency table for a device exporting
    /// `logical_pages` pages.
    pub fn cold_table_capacity(&self, logical_pages: u64) -> usize {
        ((logical_pages as f64 * COLD_TABLE_FRACTION) as usize).max(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper_choices() {
        let config = PpbConfig::default();
        assert!(config.validate().is_ok());
        assert_eq!(config.virtual_blocks_per_block, 2);
    }

    #[test]
    fn capacities_scale_with_logical_pages_but_have_floors() {
        let config = PpbConfig::default();
        assert_eq!(config.hot_list_capacity(10_000), 1_500);
        assert_eq!(config.iron_hot_list_capacity(10_000), 1_500);
        assert_eq!(config.cold_table_capacity(10_000), 3_000);
        assert_eq!(config.hot_list_capacity(10), 8);
        assert_eq!(config.cold_table_capacity(10), 16);
    }

    #[test]
    fn open_block_budget_is_one_per_virtual_block_and_at_least_two() {
        let with = |virtual_blocks_per_block| PpbConfig {
            virtual_blocks_per_block,
            ..PpbConfig::default()
        };
        assert_eq!(with(4).open_blocks_per_area(), 4);
        assert_eq!(with(2).open_blocks_per_area(), 2);
        assert_eq!(with(1).open_blocks_per_area(), 2);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let zero_vb = PpbConfig { virtual_blocks_per_block: 0, ..PpbConfig::default() };
        assert!(zero_vb.validate().is_err());
        let bad_fraction = PpbConfig { hot_list_fraction: 0.0, ..PpbConfig::default() };
        assert!(bad_fraction.validate().is_err());
        let too_big = PpbConfig { hot_list_fraction: 1.5, ..PpbConfig::default() };
        assert!(too_big.validate().is_err());
        let zero_reads = PpbConfig { cold_promote_reads: 0, ..PpbConfig::default() };
        assert!(zero_reads.validate().is_err());
        let bad_ftl = PpbConfig {
            ftl: FtlConfig { over_provisioning: 2.0 },
            ..PpbConfig::default()
        };
        assert!(bad_ftl.validate().is_err());
    }
}
