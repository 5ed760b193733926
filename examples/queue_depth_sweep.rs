//! Queue-depth sweep: drive the same trace through the submission/completion API
//! at increasing queue depths and watch IOPS climb while tail latency pays for it.
//!
//! Device state evolves identically at every depth — the closed-loop
//! [`WorkloadDriver`](vflash::sim::WorkloadDriver) only overlays *timing* — so the
//! differences below are pure queuing effects: requests landing on distinct idle
//! chips overlap, requests hitting the same chip queue behind each other.
//!
//! ```text
//! cargo run --release --example queue_depth_sweep
//! ```

use std::error::Error;

use vflash::ftl::{ConventionalFtl, FtlConfig};
use vflash::nand::NandDevice;
use vflash::sim::experiments::{ExperimentScale, Workload, QUEUE_DEPTHS};
use vflash::sim::{RunOptions, WorkloadDriver};

fn main() -> Result<(), Box<dyn Error>> {
    let scale = ExperimentScale {
        requests: 20_000,
        working_set_bytes: 48 * 1024 * 1024,
        chips: 8,
        ..ExperimentScale::quick()
    };
    let trace = Workload::MediaServer.trace(&scale);
    let stats = trace.stats();
    let config = scale.device_config(16 * 1024, 2.0);
    println!(
        "media-server workload: {} requests, {:.0}% reads, on {} chips x {} blocks\n",
        trace.len(),
        stats.read_ratio() * 100.0,
        config.chips(),
        config.blocks_per_chip(),
    );

    println!("  qd      iops     speedup   read p50      p99       max");
    let mut qd1_iops = None;
    for &depth in &QUEUE_DEPTHS {
        let ftl = ConventionalFtl::new(NandDevice::new(config.clone()), FtlConfig::default())?;
        let summary = WorkloadDriver::closed_loop(RunOptions::default(), depth).run(ftl, &trace)?;
        let iops = summary.request_iops();
        let baseline = *qd1_iops.get_or_insert(iops);
        println!(
            "{:>4} {:>9.0} {:>9.2}x   {:>9} {:>9} {:>9}",
            depth,
            iops,
            iops / baseline,
            summary.read_latency.p50.to_string(),
            summary.read_latency.p99.to_string(),
            summary.read_latency.max.to_string(),
        );
    }
    println!(
        "\nIOPS grows with depth until every chip is saturated; p99 grows with depth\n\
         because requests serialised on a busy chip wait longer — the classic\n\
         throughput/tail-latency trade-off, now visible in the simulator."
    );
    Ok(())
}
