//! Speed-difference sweep: how the PPB advantage grows as the top-to-bottom layer
//! speed ratio increases from 2x to 5x (the paper's Figures 13/14 in miniature).
//!
//! ```text
//! cargo run --release --example speed_sweep
//! ```

use std::error::Error;

use vflash::sim::experiments::{ExperimentScale, Workload, SPEED_RATIOS};
use vflash::sim::{compare_specs, ParallelRunner, RunSpec};

fn main() -> Result<(), Box<dyn Error>> {
    let scale = ExperimentScale {
        requests: 10_000,
        working_set_bytes: 48 * 1024 * 1024,
        ..ExperimentScale::quick()
    };
    println!("read latency vs page access speed difference ({} requests per run)\n", scale.requests);
    println!("{:<16} {:>10} {:>18} {:>16} {:>12}", "workload", "speed diff", "conventional FTL", "FTL with PPB", "improvement");
    for workload in Workload::ALL {
        let base = RunSpec::new(workload, scale);
        let specs = SPEED_RATIOS.map(|speed_ratio| RunSpec { speed_ratio, ..base });
        for row in compare_specs(&ParallelRunner::with_available_parallelism(), &specs)? {
            println!(
                "{:<16} {:>9.0}x {:>17.3}s {:>15.3}s {:>11.2}%",
                workload.label(),
                row.spec.speed_ratio,
                row.comparison.baseline.read_time.as_secs_f64(),
                row.comparison.variant.read_time.as_secs_f64(),
                row.comparison.read_enhancement_pct(),
            );
        }
    }
    Ok(())
}
