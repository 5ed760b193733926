//! Tail latency vs burstiness: replay the same mean load under increasingly
//! heavy-tailed arrival models and watch conventional vs PPB p99/p99.9 spread.
//!
//! Every row of this curve offers the **same mean rate** — half the device's
//! measured saturation throughput, so smooth arrivals are comfortably served —
//! and changes only how the arrivals clump: jittered-uniform gaps, then bounded
//! Pareto gaps of falling shape (heavier tails), then MMPP-style on/off bursts.
//! Mean latency barely moves down the table; the p99.9 is what grows, because
//! burst backlogs queue requests behind every slow page access. That is the
//! regime the paper's placement claims matter in: PPB's fast-page placement of
//! hot data shortens exactly the accesses a backlog multiplies.
//!
//! ```text
//! cargo run --release --example tail_latency_curve
//! ```

use std::error::Error;

use vflash::sim::experiments::{burst_axis, burst_mean_iops, ExperimentScale, Workload};
use vflash::sim::{compare_specs, ArrivalDiscipline, ParallelRunner, RunSpec};

fn main() -> Result<(), Box<dyn Error>> {
    let scale = ExperimentScale {
        requests: 20_000,
        working_set_bytes: 48 * 1024 * 1024,
        chips: 8,
        ..ExperimentScale::quick()
    };
    let mean = burst_mean_iops(Workload::WebSqlServer, &scale)?;
    println!(
        "web-sql-server workload: {} requests at a fixed {mean:.0} IOPS mean \
         (half of device saturation), open loop\n",
        scale.requests
    );

    println!(
        "{:<28} {:>6}  {:>10} {:>10}  {:>10} {:>10}  {:>8}",
        "arrival model", "busy%", "conv p99", "ppb p99", "conv p99.9", "ppb p99.9", "peak-qd"
    );
    let specs: Vec<RunSpec> = burst_axis(mean)
        .into_iter()
        .map(|arrival| RunSpec {
            arrival,
            discipline: ArrivalDiscipline::OpenLoop { rate_scale: 1.0 },
            ..RunSpec::new(Workload::WebSqlServer, scale)
        })
        .collect();
    for row in compare_specs(&ParallelRunner::with_available_parallelism(), &specs)? {
        let (conventional, ppb) = (&row.comparison.baseline, &row.comparison.variant);
        println!(
            "{:<28} {:>5.1}%  {:>10} {:>10}  {:>10} {:>10}  {:>8}",
            row.spec.arrival.label(),
            conventional.busy_arrival_fraction() * 100.0,
            conventional.read_latency.p99.to_string(),
            ppb.read_latency.p99.to_string(),
            conventional.read_latency.p999.to_string(),
            ppb.read_latency.p999.to_string(),
            conventional.peak_queue_depth,
        );
    }
    println!(
        "\nSame mean load in every row — only the burstiness changes. The tail spreads\n\
         between the uniform top row and the heavy-tailed bottom rows (that growth is\n\
         pure queueing), and the conventional-vs-ppb columns show how much of that\n\
         amplified tail speed-aware placement claws back."
    );
    Ok(())
}
