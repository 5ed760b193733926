//! FTL configuration.

use crate::error::FtlError;

/// Parameters shared by the FTL implementations in this workspace.
///
/// # Example
///
/// ```
/// use vflash_ftl::FtlConfig;
///
/// let config = FtlConfig { over_provisioning: 0.15 };
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FtlConfig {
    /// Fraction of raw capacity reserved for garbage collection headroom, in
    /// `[0, 0.9]`. The exported logical capacity is `raw * (1 - over_provisioning)`.
    pub over_provisioning: f64,
}

impl Default for FtlConfig {
    fn default() -> Self {
        FtlConfig { over_provisioning: 0.10 }
    }
}

impl FtlConfig {
    /// Checks the parameter combination.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::InvalidConfig`] if over-provisioning is outside `[0, 0.9]`.
    pub fn validate(&self) -> Result<(), FtlError> {
        if !self.over_provisioning.is_finite()
            || !(0.0..=0.9).contains(&self.over_provisioning)
        {
            return Err(FtlError::InvalidConfig {
                reason: "over_provisioning must be within [0, 0.9]".to_string(),
            });
        }
        Ok(())
    }

    /// Number of logical pages exported for a device with `total_pages` physical
    /// pages under this over-provisioning ratio.
    pub fn logical_pages(&self, total_pages: usize) -> u64 {
        ((total_pages as f64) * (1.0 - self.over_provisioning)).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(FtlConfig::default().validate().is_ok());
    }

    #[test]
    fn logical_capacity_respects_over_provisioning() {
        let config = FtlConfig { over_provisioning: 0.25 };
        assert_eq!(config.logical_pages(1000), 750);
        let none = FtlConfig { over_provisioning: 0.0 };
        assert_eq!(none.logical_pages(1000), 1000);
    }

    #[test]
    fn bad_configs_are_rejected() {
        let bad_op = FtlConfig { over_provisioning: 0.95 };
        assert!(bad_op.validate().is_err());
        let nan = FtlConfig { over_provisioning: f64::NAN };
        assert!(nan.validate().is_err());
    }
}
