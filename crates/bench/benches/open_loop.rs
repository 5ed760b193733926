//! Open-loop (arrival-time) replay: wall-clock cost of the
//! [`WorkloadDriver`](vflash_sim::WorkloadDriver) at rate scales spanning the
//! latency-vs-offered-load curve, on an 8-chip device.
//!
//! Two things are measured at once:
//!
//! * Criterion times each rate scale's replay (the open-loop path always runs the
//!   traced event overlay — this bench keeps that overhead honest relative to the
//!   closed-loop replayers), and
//! * the *simulated* offered vs achieved IOPS and the mean queueing delay per
//!   rate are printed, which is the paper-facing result: below the knee the
//!   device keeps up (achieved ≈ offered, delay ≈ 0), past it achieved flattens
//!   at saturation and queueing delay explodes.
//!
//! `VFLASH_BENCH_SMOKE=1` (the CI smoke mode) shrinks the trace so the target
//! finishes in seconds.

use criterion::{criterion_group, criterion_main, smoke_mode, Criterion};
use vflash_sim::experiments::{
    replay_conventional, ExperimentScale, Workload, RATE_SCALES,
};
use vflash_sim::ArrivalDiscipline;

fn scale() -> ExperimentScale {
    let mut scale = ExperimentScale { chips: 8, ..ExperimentScale::quick() };
    if smoke_mode() {
        scale.requests = 1_000;
        scale.working_set_bytes = 16 * 1024 * 1024;
    }
    scale
}

fn open_loop(c: &mut Criterion) {
    let scale = scale();
    // Web/SQL server: the small-random end of the paper's workloads, where
    // per-request queueing (not streaming bandwidth) dominates under load.
    let trace = Workload::WebSqlServer.trace(&scale);
    let config = scale.device_config(16 * 1024, 2.0);

    let mut group = c.benchmark_group("open_loop");
    group.sample_size(if smoke_mode() { 1 } else { 10 });
    let mut curve = Vec::new();
    for &rate_scale in &RATE_SCALES {
        let discipline = ArrivalDiscipline::OpenLoop { rate_scale };
        group.bench_function(format!("rate{rate_scale}"), |b| {
            b.iter(|| {
                let summary =
                    replay_conventional(&trace, &config, discipline).expect("replay runs");
                std::hint::black_box(summary.request_iops())
            });
        });
        let summary = replay_conventional(&trace, &config, discipline).expect("replay runs");
        curve.push((
            rate_scale,
            summary.offered_iops(),
            summary.request_iops(),
            summary.queue_delay.mean,
        ));
    }
    group.finish();

    println!("  simulated offered-load curve on {} chips (web-sql-server):", scale.chips);
    for (rate, offered, achieved, delay) in curve {
        println!(
            "    x{rate:<4} {offered:>12.0} offered {achieved:>12.0} achieved IOPS   \
             mean queue delay {delay}"
        );
    }
}

criterion_group!(benches, open_loop);
criterion_main!(benches);
