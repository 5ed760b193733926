//! Web/SQL-server scenario: the workload where PPB shines — small random requests
//! with a strongly skewed, frequently re-read hot set.
//!
//! The example also demonstrates swapping the first-stage hot/cold classifier
//! (two-level LRU instead of the default size check).
//!
//! ```text
//! cargo run --release --example web_sql_server
//! ```

use std::error::Error;

use vflash::sim::experiments::{Classifier, ExperimentScale, Workload};
use vflash::sim::{run_spec, Comparison, FtlKind, RunSpec};

fn main() -> Result<(), Box<dyn Error>> {
    let scale = ExperimentScale {
        requests: 20_000,
        working_set_bytes: 48 * 1024 * 1024,
        ..ExperimentScale::quick()
    };
    let trace = Workload::WebSqlServer.trace(&scale);
    let stats = trace.stats();
    println!(
        "web-sql-server workload: {} requests, {:.0}% reads, mean request {:.1} KiB, reread fraction {:.2}",
        trace.len(),
        stats.read_ratio() * 100.0,
        stats.mean_request_bytes / 1024.0,
        stats.reread_fraction,
    );

    let config = scale.device_config(16 * 1024, 4.0);
    println!(
        "device: {} blocks x {} pages x {} KiB, 4x speed difference\n",
        config.total_blocks(),
        config.pages_per_block(),
        config.page_size_bytes() / 1024,
    );

    let spec = RunSpec { speed_ratio: 4.0, ..RunSpec::new(&trace, scale) };
    let baseline = run_spec(&spec.on(FtlKind::Conventional))?;
    println!("conventional FTL           : {baseline}");

    let ppb_size_check = run_spec(&spec.on(FtlKind::Ppb))?;
    println!("PPB (size-check stage)     : {ppb_size_check}");

    let ppb_lru = run_spec(&RunSpec { classifier: Classifier::TwoLevelLru, ..spec }.on(FtlKind::Ppb))?;
    println!("PPB (two-level-LRU stage)  : {ppb_lru}");

    let size_check = Comparison::new(baseline.clone(), ppb_size_check);
    let lru = Comparison::new(baseline, ppb_lru);
    println!("\nread enhancement (size check)     {:>6.2}%", size_check.read_enhancement_pct());
    println!("read enhancement (two-level LRU)  {:>6.2}%", lru.read_enhancement_pct());
    println!("write enhancement (size check)    {:>6.2}%", size_check.write_enhancement_pct());
    println!("erase count change (size check)   {:>6.2}%", size_check.erase_increase_pct());
    Ok(())
}
