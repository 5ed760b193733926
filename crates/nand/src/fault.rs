//! Deterministic fault injection: RBER-driven read retries, wear-dependent
//! program/erase failures and bad-block retirement.
//!
//! Real 3D charge-trap NAND does not fail all at once: the raw bit-error rate
//! (RBER) of a page climbs with the block's erase count (wear) and with how long
//! the data has sat since it was written (retention). ECC absorbs the first few
//! bit errors for free; past the correction strength the controller walks a
//! **read-retry ladder** — re-sensing with shifted reference voltages, each step
//! costing extra latency — and past the ladder the read is uncorrectable.
//! Programs and erases fail outright with a (much smaller) wear-dependent
//! probability, at which point firmware retires the block as *bad* and remaps
//! the write elsewhere.
//!
//! This module models that lifecycle deterministically. [`FaultConfig`] holds
//! the knobs (all off by default, so the fault-free simulator stays
//! bit-identical to its golden baselines); [`FaultState`] holds one independent
//! splitmix64 stream **per chip**, so the outcome of every operation depends
//! only on the seed and that chip's own operation history — never on how work
//! on other chips is interleaved. That is what keeps runs fanned out over
//! threads bit-reproducible at any worker count with faults enabled.
//!
//! Each fault query consumes exactly one draw from its chip's stream,
//! regardless of outcome, so outcome sequences are trivially reproducible.

use crate::time::Nanos;

/// Knobs of the deterministic fault model. All off by default.
///
/// The RBER curve is linear in wear and retention age:
///
/// ```text
/// rber = rber_base * rber_scale
///      * (1 + erase_count    * rber_wear_slope)
///      * (1 + retention_age  * rber_retention_slope)
/// ```
///
/// A read draws a bit-error count around `rber * page_bits`; ECC corrects up to
/// [`ecc_correctable_bits`](FaultConfig::ecc_correctable_bits) for free, each
/// retry step corrects [`retry_extra_bits`](FaultConfig::retry_extra_bits) more
/// at a cost of [`read_retry_penalty`](FaultConfig::read_retry_penalty), and a
/// read needing more than [`max_read_retries`](FaultConfig::max_read_retries)
/// steps is uncorrectable. Programs and erases fail with probability
/// `*_fail_base * (1 + erase_count * fail_wear_slope)`, retiring the block.
///
/// # Example
///
/// ```
/// use vflash_nand::FaultConfig;
///
/// let faults = FaultConfig::enabled(42);
/// assert!(faults.enabled);
/// assert_eq!(FaultConfig::default(), FaultConfig::disabled());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master switch. When false the device never consults the fault model and
    /// behaves bit-identically to a fault-free build.
    pub enabled: bool,
    /// Seed of the per-chip fault streams.
    pub seed: u64,
    /// Multiplier on the whole RBER curve (the sweep axis of the fault
    /// experiments).
    pub rber_scale: f64,
    /// Raw bit-error rate of a fresh, just-written page.
    pub rber_base: f64,
    /// Relative RBER increase per erase of the block.
    pub rber_wear_slope: f64,
    /// Relative RBER increase per unit of retention age (device modification
    /// ticks since the block was last touched).
    pub rber_retention_slope: f64,
    /// Bit errors per page the ECC corrects without any retry.
    pub ecc_correctable_bits: u32,
    /// Maximum read-retry steps before a read is declared uncorrectable.
    pub max_read_retries: u32,
    /// Additional bit errors each retry step can correct.
    pub retry_extra_bits: u32,
    /// Latency added to the read for every retry step taken.
    pub read_retry_penalty: Nanos,
    /// Failure probability of a program on a fresh block.
    pub program_fail_base: f64,
    /// Failure probability of an erase on a fresh block.
    pub erase_fail_base: f64,
    /// Relative program/erase failure increase per erase of the block.
    pub fail_wear_slope: f64,
}

impl FaultConfig {
    /// The fault-free configuration: the model is never consulted.
    pub const fn disabled() -> Self {
        FaultConfig {
            enabled: false,
            seed: 0,
            rber_scale: 1.0,
            rber_base: 5e-5,
            rber_wear_slope: 0.02,
            rber_retention_slope: 1e-6,
            ecc_correctable_bits: 8,
            max_read_retries: 4,
            retry_extra_bits: 8,
            read_retry_penalty: Nanos::from_micros(25),
            program_fail_base: 1e-4,
            erase_fail_base: 5e-5,
            fail_wear_slope: 0.05,
        }
    }

    /// Enables the fault model with its default curve under the given seed.
    pub const fn enabled(seed: u64) -> Self {
        FaultConfig { enabled: true, seed, ..FaultConfig::disabled() }
    }

    /// Validates the knob combination, returning the reason a value is rejected.
    ///
    /// Probabilities must lie in `[0, 1]`; scales and slopes must be finite and
    /// non-negative; when retries are allowed, each step must correct at least
    /// one extra bit (otherwise the ladder cannot make progress).
    pub fn validate(&self) -> Result<(), &'static str> {
        for (value, name) in [
            (self.rber_scale, "rber_scale must be finite and non-negative"),
            (self.rber_base, "rber_base must be finite and non-negative"),
            (self.rber_wear_slope, "rber_wear_slope must be finite and non-negative"),
            (
                self.rber_retention_slope,
                "rber_retention_slope must be finite and non-negative",
            ),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(name);
            }
        }
        for (value, name) in [
            (self.program_fail_base, "program_fail_base must be a probability in [0, 1]"),
            (self.erase_fail_base, "erase_fail_base must be a probability in [0, 1]"),
        ] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(name);
            }
        }
        if !self.fail_wear_slope.is_finite() || self.fail_wear_slope < 0.0 {
            return Err("fail_wear_slope must be finite and non-negative");
        }
        if self.max_read_retries > 0 && self.retry_extra_bits == 0 {
            return Err("retry_extra_bits must be positive when retries are allowed");
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

/// The outcome of the fault model for one page read.
///
/// Returned by [`NandDevice::last_read_faults`](crate::NandDevice::last_read_faults)
/// after every read; all zeros when faults are disabled or the read passed ECC
/// on the first sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadFaultInfo {
    /// Read-retry steps the read needed.
    pub retries: u32,
    /// Latency the retries added on top of the base read.
    pub retry_time: Nanos,
    /// Whether the read exhausted the retry ladder without correcting.
    pub uncorrectable: bool,
    /// Total device time the read consumed (base latency + retries).
    pub total_time: Nanos,
}

/// splitmix64 finalizer: well-mixed, reproducible streams from any seed.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-device fault state: the knobs plus one splitmix64 stream per chip.
///
/// Chips draw from independent streams so an operation's outcome depends only
/// on the seed and the chip's own operation count — deterministic under any
/// cross-chip interleaving.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    config: FaultConfig,
    /// splitmix64 counters, one per chip; each draw advances by the golden
    /// gamma and finalizes.
    streams: Vec<u64>,
}

impl FaultState {
    pub(crate) fn new(config: FaultConfig, chips: usize) -> Self {
        let streams = (0..chips as u64)
            .map(|chip| splitmix64(config.seed ^ chip.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        FaultState { config, streams }
    }

    pub(crate) fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// One uniform draw in `[0, 1)` from the chip's stream.
    fn unit(&mut self, chip: usize) -> f64 {
        let state = &mut self.streams[chip];
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let bits = splitmix64(*state);
        // 53 high bits -> [0, 1) with full double precision.
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws the retry/uncorrectable outcome for one read.
    ///
    /// The bit-error count is exponential noise around the RBER expectation
    /// (`expected * -ln(1 - u)` has mean `expected`), so occasional reads spike
    /// far above the mean — which is what exercises the ladder.
    pub(crate) fn read_outcome(
        &mut self,
        chip: usize,
        erase_count: u64,
        retention_age: u64,
        page_bits: u64,
    ) -> ReadFaultInfo {
        let c = self.config;
        let rber = c.rber_base
            * c.rber_scale
            * (1.0 + erase_count as f64 * c.rber_wear_slope)
            * (1.0 + retention_age as f64 * c.rber_retention_slope);
        let expected = rber * page_bits as f64;
        let u = self.unit(chip);
        let bit_errors = (expected * -(1.0 - u).ln()).round();
        let over = bit_errors - f64::from(c.ecc_correctable_bits);
        if over <= 0.0 {
            return ReadFaultInfo::default();
        }
        let steps = (over / f64::from(c.retry_extra_bits.max(1))).ceil();
        if steps > f64::from(c.max_read_retries) {
            ReadFaultInfo {
                retries: c.max_read_retries,
                uncorrectable: true,
                ..ReadFaultInfo::default()
            }
        } else {
            ReadFaultInfo { retries: steps as u32, ..ReadFaultInfo::default() }
        }
    }

    /// Whether this program attempt fails (retiring the block).
    pub(crate) fn program_fails(&mut self, chip: usize, erase_count: u64) -> bool {
        let p = self.config.program_fail_base
            * (1.0 + erase_count as f64 * self.config.fail_wear_slope);
        self.unit(chip) < p
    }

    /// Whether this erase attempt fails (retiring the block).
    pub(crate) fn erase_fails(&mut self, chip: usize, erase_count: u64) -> bool {
        let p = self.config.erase_fail_base
            * (1.0 + erase_count as f64 * self.config.fail_wear_slope);
        self.unit(chip) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_with_sane_curve() {
        let c = FaultConfig::default();
        assert!(!c.enabled);
        assert_eq!(c, FaultConfig::disabled());
        assert!(c.validate().is_ok());
        assert!(FaultConfig::enabled(7).enabled);
        assert_eq!(FaultConfig::enabled(7).seed, 7);
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let mut c = FaultConfig::enabled(1);
        c.rber_scale = -1.0;
        assert!(c.validate().is_err());
        let mut c = FaultConfig::enabled(1);
        c.program_fail_base = 1.5;
        assert!(c.validate().is_err());
        let mut c = FaultConfig::enabled(1);
        c.erase_fail_base = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = FaultConfig::enabled(1);
        c.retry_extra_bits = 0;
        assert!(c.validate().is_err());
        c.max_read_retries = 0;
        assert!(c.validate().is_ok(), "ladder disabled: step size irrelevant");
    }

    #[test]
    fn streams_are_deterministic_and_chip_independent() {
        let config = FaultConfig::enabled(42);
        let mut a = FaultState::new(config, 2);
        let mut b = FaultState::new(config, 2);
        // Interleave chips differently in the two replicas; per-chip sequences
        // must still agree draw by draw.
        let a_seq: Vec<f64> = (0..8).map(|_| a.unit(0)).collect();
        for _ in 0..8 {
            b.unit(1);
        }
        let b_seq: Vec<f64> = (0..8).map(|_| b.unit(0)).collect();
        assert_eq!(a_seq, b_seq, "chip 0 stream must not see chip 1 draws");
        assert!(a_seq.iter().all(|u| (0.0..1.0).contains(u)));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mut a = FaultState::new(FaultConfig::enabled(1), 1);
        let mut b = FaultState::new(FaultConfig::enabled(2), 1);
        let a_seq: Vec<u64> = (0..4).map(|_| (a.unit(0) * 1e9) as u64).collect();
        let b_seq: Vec<u64> = (0..4).map(|_| (b.unit(0) * 1e9) as u64).collect();
        assert_ne!(a_seq, b_seq);
    }

    #[test]
    fn read_outcome_scales_with_wear_and_retention() {
        let config = FaultConfig::enabled(9);
        let mut fresh = FaultState::new(config, 1);
        let mut worn = FaultState::new(config, 1);
        let page_bits = 16 * 1024 * 8;
        let fresh_retries: u32 =
            (0..200).map(|_| fresh.read_outcome(0, 0, 0, page_bits).retries).sum();
        let worn_retries: u32 =
            (0..200).map(|_| worn.read_outcome(0, 500, 10_000, page_bits).retries).sum();
        assert!(
            worn_retries > fresh_retries,
            "worn blocks must retry more ({worn_retries} vs {fresh_retries})"
        );
    }

    #[test]
    fn extreme_rber_is_uncorrectable() {
        let mut config = FaultConfig::enabled(3);
        config.rber_scale = 1e6;
        let mut state = FaultState::new(config, 1);
        let outcome = state.read_outcome(0, 100, 0, 16 * 1024 * 8);
        assert!(outcome.uncorrectable);
        assert_eq!(outcome.retries, config.max_read_retries);
    }

    #[test]
    fn failure_probabilities_respect_the_draw() {
        let mut config = FaultConfig::enabled(5);
        config.program_fail_base = 1.0;
        config.erase_fail_base = 0.0;
        let mut state = FaultState::new(config, 1);
        assert!(state.program_fails(0, 0));
        assert!(!state.erase_fails(0, 0), "zero probability never fails");
    }
}
