//! Request-size based hot/cold prediction.

use crate::hotcold::Temperature;
use crate::types::Lpn;

/// Classifies writes by the size of the host request they belong to.
///
/// The heuristic (Chang, ASP-DAC 2008) observes that small requests — metadata,
/// database pages, log appends — are updated far more often than bulk transfers, so
/// any write whose originating request is smaller than the threshold is treated as
/// hot. The paper uses this "size check" as the case-study first stage for the PPB
/// strategy, with the flash page size as the threshold.
///
/// # Example
///
/// ```
/// use vflash_ftl::hotcold::{SizeCheck, Temperature};
/// use vflash_ftl::Lpn;
///
/// let mut classifier = SizeCheck::new(16 * 1024);
/// assert_eq!(classifier.classify_write(Lpn(0), 4 * 1024), Temperature::Hot);
/// assert_eq!(classifier.classify_write(Lpn(1), 64 * 1024), Temperature::Cold);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeCheck {
    threshold_bytes: u32,
}

impl SizeCheck {
    /// Creates the classifier with the given threshold (normally the page size).
    ///
    /// # Panics
    ///
    /// Panics if `threshold_bytes` is zero.
    pub fn new(threshold_bytes: u32) -> Self {
        assert!(threshold_bytes > 0, "threshold must be positive");
        SizeCheck { threshold_bytes }
    }

    /// The size threshold in bytes.
    pub fn threshold_bytes(&self) -> u32 {
        self.threshold_bytes
    }

    /// Classifies the write of `lpn` that belongs to a host request of
    /// `request_bytes` bytes.
    pub fn classify_write(&mut self, _lpn: Lpn, request_bytes: u32) -> Temperature {
        if request_bytes < self.threshold_bytes {
            Temperature::Hot
        } else {
            Temperature::Cold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_is_exclusive() {
        let mut c = SizeCheck::new(16 * 1024);
        assert_eq!(c.classify_write(Lpn(0), 16 * 1024 - 1), Temperature::Hot);
        assert_eq!(c.classify_write(Lpn(0), 16 * 1024), Temperature::Cold);
        assert_eq!(c.threshold_bytes(), 16 * 1024);
    }

    #[test]
    fn classification_ignores_lpn_history() {
        let mut c = SizeCheck::new(8192);
        for lpn in 0..100 {
            assert_eq!(c.classify_write(Lpn(lpn), 4096), Temperature::Hot);
            assert_eq!(c.classify_write(Lpn(lpn), 65536), Temperature::Cold);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = SizeCheck::new(0);
    }

    /// Audit regression: the extreme thresholds behave sanely — a threshold of 1
    /// classifies everything cold (no request is smaller than one byte), and a
    /// `u32::MAX` threshold classifies everything except a `u32::MAX` request hot.
    #[test]
    fn extreme_thresholds() {
        let mut everything_cold = SizeCheck::new(1);
        assert_eq!(everything_cold.classify_write(Lpn(0), 1), Temperature::Cold);
        assert_eq!(everything_cold.classify_write(Lpn(0), u32::MAX), Temperature::Cold);

        let mut everything_hot = SizeCheck::new(u32::MAX);
        assert_eq!(everything_hot.classify_write(Lpn(0), u32::MAX - 1), Temperature::Hot);
        assert_eq!(everything_hot.classify_write(Lpn(0), u32::MAX), Temperature::Cold);
    }
}
