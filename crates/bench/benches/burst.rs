//! Burstiness sweep: wall-clock cost of open-loop replay under each
//! fixed-mean-rate arrival model of the
//! [`burst_axis`](vflash_sim::experiments::burst_axis), on an 8-chip device.
//!
//! Two things are measured at once:
//!
//! * Criterion times each arrival model's replay (heavy-tailed gap sampling and
//!   the deeper outstanding-request heap must not make trace generation or the
//!   open-loop overlay measurably slower than the uniform baseline), and
//! * the *simulated* tail — p99.9 read latency, peak backlog and busy-arrival
//!   fraction per model — is printed, which is the paper-facing result: at one
//!   mean rate, burstiness alone spreads the tail.
//!
//! `VFLASH_BENCH_SMOKE=1` (the CI smoke mode) shrinks the trace so the target
//! finishes in seconds.

use criterion::{criterion_group, criterion_main, smoke_mode, Criterion};
use vflash_sim::experiments::{
    burst_axis, burst_sweep_mean_iops, replay_conventional, ExperimentScale, Workload,
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

fn burst(c: &mut Criterion) {
    let scale = scale();
    // Web/SQL server: small random requests, the workload whose tail queueing
    // shapes. Every row offers the same mean rate (half of saturation).
    let mean_iops =
        burst_sweep_mean_iops(Workload::WebSqlServer, &scale).expect("saturation probe runs");
    let config = scale.device_config(16 * 1024, 2.0);
    let discipline = ArrivalDiscipline::OpenLoop { rate_scale: 1.0 };

    let mut group = c.benchmark_group("burst");
    group.sample_size(if smoke_mode() { 1 } else { 10 });
    let mut curve = Vec::new();
    for arrival in burst_axis(mean_iops) {
        let trace = Workload::WebSqlServer.trace_with_arrival(&scale, arrival);
        group.bench_function(arrival.label(), |b| {
            b.iter(|| {
                let summary =
                    replay_conventional(&trace, &config, discipline).expect("replay runs");
                std::hint::black_box(summary.read_latency.p999)
            });
        });
        let summary = replay_conventional(&trace, &config, discipline).expect("replay runs");
        curve.push((
            arrival.label(),
            summary.read_latency.p999,
            summary.peak_queue_depth,
            summary.busy_arrival_fraction(),
        ));
    }
    group.finish();

    println!(
        "  simulated burstiness curve on {} chips (web-sql-server, {mean_iops:.0} IOPS mean):",
        scale.chips
    );
    for (label, p999, peak, busy) in curve {
        println!(
            "    {label:<28} read p99.9 {p999}   peak backlog {peak:>5}   \
             busy arrivals {:>5.1}%",
            busy * 100.0
        );
    }
}

criterion_group!(benches, burst);
criterion_main!(benches);
