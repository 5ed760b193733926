//! Queue-depth scaling: replay wall-clock cost and achieved (simulated) IOPS of
//! the closed-loop [`WorkloadDriver`](vflash_sim::WorkloadDriver) at QD ∈ {1, 4, 16, 64}
//! on an 8-chip device.
//!
//! Two things are measured at once:
//!
//! * Criterion times each depth's replay (the event-driven overlay adds a heap
//!   push/pop and a per-op clock merge per request — this bench keeps that
//!   overhead honest relative to the serial replayer), and
//! * the *simulated* achieved IOPS per depth is printed, which is the paper-facing
//!   result: a read-dominant workload on 8 chips should scale well past QD 1.
//!
//! `VFLASH_BENCH_SMOKE=1` (the CI smoke mode) shrinks the trace so the target
//! finishes in seconds.

use criterion::{criterion_group, criterion_main, smoke_mode, Criterion};
use vflash_sim::experiments::{replay_conventional, ExperimentScale, Workload, QUEUE_DEPTHS};
use vflash_sim::ArrivalDiscipline;

fn scale() -> ExperimentScale {
    let mut scale = ExperimentScale { chips: 8, ..ExperimentScale::quick() };
    if smoke_mode() {
        scale.requests = 1_000;
        scale.working_set_bytes = 16 * 1024 * 1024;
    }
    scale
}

fn queue_depth(c: &mut Criterion) {
    let scale = scale();
    // Media server: large sequential reads — the read-heavy end of the paper's
    // workloads, where chip-level overlap has the most to offer.
    let trace = Workload::MediaServer.trace(&scale);
    let config = scale.device_config(16 * 1024, 2.0);

    let mut group = c.benchmark_group("queue_depth");
    group.sample_size(if smoke_mode() { 1 } else { 10 });
    let mut achieved = Vec::new();
    for &depth in &QUEUE_DEPTHS {
        let discipline = ArrivalDiscipline::ClosedLoop { queue_depth: depth };
        group.bench_function(format!("qd{depth}"), |b| {
            b.iter(|| {
                let summary =
                    replay_conventional(&trace, &config, discipline).expect("replay runs");
                std::hint::black_box(summary.request_iops())
            });
        });
        let summary = replay_conventional(&trace, &config, discipline).expect("replay runs");
        achieved.push((depth, summary.request_iops(), summary.read_latency));
    }
    group.finish();

    println!("  simulated achieved IOPS on {} chips (media-server):", scale.chips);
    for (depth, iops, read) in achieved {
        println!(
            "    qd{depth:<3} {iops:>12.0} IOPS   read p50 {} / p99 {} / max {}",
            read.p50, read.p99, read.max
        );
    }
}

criterion_group!(benches, queue_depth);
criterion_main!(benches);
