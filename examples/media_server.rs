//! Media-server scenario: replay the synthetic media-server workload (the stand-in
//! for the MSR media-server trace) against both the conventional FTL and the PPB FTL
//! and compare the outcome.
//!
//! ```text
//! cargo run --release --example media_server
//! ```

use std::error::Error;

use vflash::sim::experiments::{ExperimentScale, Workload};
use vflash::sim::{run_spec, Comparison, FtlKind, RunSpec};

fn main() -> Result<(), Box<dyn Error>> {
    let scale = ExperimentScale {
        requests: 20_000,
        working_set_bytes: 64 * 1024 * 1024,
        ..ExperimentScale::quick()
    };
    let trace = Workload::MediaServer.trace(&scale);
    let stats = trace.stats();
    println!(
        "media-server workload: {} requests, {:.0}% reads, mean request {:.0} KiB, reread fraction {:.2}",
        trace.len(),
        stats.read_ratio() * 100.0,
        stats.mean_request_bytes / 1024.0,
        stats.reread_fraction,
    );

    let config = scale.device_config(16 * 1024, 2.0);
    println!(
        "device: {} blocks x {} pages x {} KiB ({:.1} MiB raw), 2x speed difference\n",
        config.total_blocks(),
        config.pages_per_block(),
        config.page_size_bytes() / 1024,
        config.capacity_bytes() as f64 / (1024.0 * 1024.0),
    );

    // The paper's default point: 16 KB pages, 2x, QD 1, on the trace above.
    let spec = RunSpec::new(&trace, scale);
    let baseline = run_spec(&spec.on(FtlKind::Conventional))?;
    let variant = run_spec(&spec.on(FtlKind::Ppb))?;
    println!("conventional FTL : {baseline}");
    println!("FTL with PPB     : {variant}");

    let comparison = Comparison::new(baseline, variant);
    println!("\nread enhancement   {:>6.2}%", comparison.read_enhancement_pct());
    println!("write enhancement  {:>6.2}%", comparison.write_enhancement_pct());
    println!("erase count change {:>6.2}%", comparison.erase_increase_pct());
    Ok(())
}
