//! Fan-out tail amplification across stripe widths.
//!
//! ```text
//! cargo run --release --example fleet_tail
//! ```
//!
//! Stripes one web/SQL-server keyspace over fleets of 1, 2, 4 and 8 identical
//! devices and replays the *same* open-loop request stream (one seed, fixed
//! 1000 IOPS offered load) against each width on both FTLs. A striped request
//! completes at the **max** of its per-device stripes, so while the per-stripe
//! latency distribution keeps shrinking with the width, the per-request
//! fan-out p99.9 shrinks far more slowly — their ratio, the fan-out tail
//! amplification, grows monotonically with the stripe width. This is the
//! classic tail-at-scale effect the host tier exists to measure.
//!
//! The load matters: it is chosen so even the single device keeps up
//! (achieved = offered in every row). A saturated fleet would report
//! amplification 1.0 — its tail is shared backlog, identical on every stripe —
//! and a near-idle one hits the latency model's discrete floor.

use std::error::Error;

use vflash::fleet::{Fleet, FleetConfig};
use vflash::ftl::{ConventionalFtl, FlashTranslationLayer, FtlConfig, FtlError};
use vflash::nand::{NandConfig, NandDevice};
use vflash::ppb::{PpbConfig, PpbFtl};
use vflash::sim::experiments::{ExperimentScale, Workload, FLEET_SIZES};
use vflash::sim::{RunOptions, WorkloadDriver};
use vflash::trace::synthetic::ArrivalModel;
use vflash::trace::Trace;

const OFFERED_IOPS: f64 = 1_000.0;

fn device_config(scale: &ExperimentScale) -> NandConfig {
    scale.device_config(8 * 1024, 4.0)
}

fn run_width<F: FlashTranslationLayer>(
    lanes: Vec<F>,
    trace: &Trace,
) -> Result<vflash::fleet::FleetSummary, FtlError> {
    let fleet = Fleet::new(lanes, FleetConfig::default());
    WorkloadDriver::open_loop(RunOptions::default(), 1.0).run(fleet, trace)
}

fn main() -> Result<(), Box<dyn Error>> {
    let scale = ExperimentScale { requests: 20_000, chips: 4, ..ExperimentScale::quick() };
    // One seed, one arrival process: every width replays this exact stream.
    let trace = Workload::WebSqlServer
        .trace_with_arrival(&scale, ArrivalModel::MeanRate { iops: OFFERED_IOPS });
    let config = device_config(&scale);

    println!(
        "fleet_tail: web-sql-server, {} requests, open-loop {:.0} IOPS offered, \
         cache off, seed {}",
        scale.requests, OFFERED_IOPS, scale.seed
    );
    println!(
        "{:<12} {:>5}   {:>8}   fanout p50/p99/p99.9 (us)   stripe p99.9 (us)   tail-amp",
        "ftl", "width", "IOPS"
    );
    for &width in &FLEET_SIZES {
        let conventional: Vec<ConventionalFtl> = (0..width)
            .map(|_| ConventionalFtl::new(NandDevice::new(config.clone()), FtlConfig::default()))
            .collect::<Result<_, _>>()?;
        let ppb: Vec<PpbFtl> = (0..width)
            .map(|_| PpbFtl::new(NandDevice::new(config.clone()), PpbConfig::default()))
            .collect::<Result<_, _>>()?;
        for summary in [run_width(conventional, &trace)?, run_width(ppb, &trace)?] {
            println!(
                "{:<12} {:>5}   {:>8.0}   {:>8.0}/{:>7.0}/{:>8.0}   {:>17.0}   {:>7.2}x",
                summary.ftl,
                summary.width,
                summary.request_iops(),
                summary.fanout_read_latency.p50.as_micros_f64(),
                summary.fanout_read_latency.p99.as_micros_f64(),
                summary.fanout_read_latency.p999.as_micros_f64(),
                summary.stripe_read_latency.p999.as_micros_f64(),
                summary.read_tail_amplification(),
            );
        }
    }
    println!();
    println!(
        "Every row serves its full offered load; down the width axis the per-stripe\n\
         p99.9 falls fast while the per-request (max-over-stripes) p99.9 falls\n\
         slowly, so the tail-amp ratio grows with the width. Identical seeds make\n\
         every number above reproducible bit for bit."
    );
    Ok(())
}
