//! # vflash-bench
//!
//! Experiment harness for the PPB reproduction.
//!
//! The library part hosts the one table renderer and the cell formats several
//! tables share; the sections themselves — which runs, which columns — are
//! the `experiments` binary, and the runs are [`vflash_sim::experiments`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vflash_nand::Nanos;
use vflash_sim::{Comparison, LatencyPercentiles, RunSummary};

/// Prints one table: its title, its column header (when it has one), the
/// line(s) of every row, and a blank line.
pub fn render<R>(title: &str, header: &str, rows: &[R], line: impl Fn(&R) -> String) {
    println!("== {title} ==");
    if !header.is_empty() {
        println!("{header}");
    }
    for row in rows {
        println!("{}", line(row));
    }
    println!();
}

/// The two lines of a row that reports each FTL on its own: conventional
/// first, then PPB.
pub fn per_ftl(comparison: &Comparison, line: impl Fn(&RunSummary) -> String) -> String {
    format!("{}\n{}", line(&comparison.baseline), line(&comparison.variant))
}

/// Formats a duration as seconds with three decimals, the unit the paper's latency
/// figures use.
pub fn seconds(value: Nanos) -> String {
    format!("{:.3}s", value.as_secs_f64())
}

/// Formats percentiles compactly in microseconds: `p50/p95/p99/max`.
pub fn percentiles_us(percentiles: &LatencyPercentiles) -> String {
    format!(
        "{:>7.0}/{:>7.0}/{:>7.0}/{:>8.0}",
        percentiles.p50.as_micros_f64(),
        percentiles.p95.as_micros_f64(),
        percentiles.p99.as_micros_f64(),
        percentiles.max.as_micros_f64(),
    )
}

/// Formats the tail percentiles the LSM tables report: `p50/p99/p99.9` (µs).
pub fn tail_percentiles_us(percentiles: &LatencyPercentiles) -> String {
    format!(
        "{:>6.0}/{:>7.0}/{:>8.0}",
        percentiles.p50.as_micros_f64(),
        percentiles.p99.as_micros_f64(),
        percentiles.p999.as_micros_f64(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_formatting() {
        assert_eq!(seconds(Nanos::from_millis(1500)), "1.500s");
    }
}
