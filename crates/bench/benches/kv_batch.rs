//! Batched KV submission: the same LSM workload on a 4-chip device, serial
//! (`io_depth = 1`, every page charged its scalar latency in sequence) versus
//! batched (`io_depth = 16`, multi-page flush/compaction/scan extents
//! submitted through `submit_batch` and charged the chip-parallel makespan).
//!
//! Reported alongside wall-clock: the simulated device time spent in flushes
//! and compactions for each mode — the batched path must win by a wide margin
//! on a multi-chip geometry — and the compaction-stall percentiles, which is
//! where the application feels the difference.
//!
//! `VFLASH_BENCH_SMOKE=1` (the CI smoke mode) shrinks the run so the target
//! finishes in seconds.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, smoke_mode, Criterion};
use vflash_ftl::{ConventionalFtl, FtlConfig};
use vflash_kv::workload::{run_kv_workload, KvRunSummary, KvWorkloadConfig};
use vflash_kv::{FlashStore, KvConfig};
use vflash_nand::NandDevice;
use vflash_ppb::{PpbConfig, PpbFtl};

const CHIPS: usize = 4;
const BATCH_DEPTH: usize = 16;

fn workload() -> KvWorkloadConfig {
    let base = if smoke_mode() {
        KvWorkloadConfig::smoke()
    } else {
        KvWorkloadConfig::default()
    };
    KvWorkloadConfig { device_chips: CHIPS, ..base }
}

fn kv_config(io_depth: usize) -> KvConfig {
    KvConfig { io_depth, ..KvConfig::default() }
}

fn kv_conventional(workload: &KvWorkloadConfig, io_depth: usize) -> KvRunSummary {
    let ftl =
        ConventionalFtl::new(NandDevice::new(workload.device_config()), FtlConfig::default())
            .expect("valid ftl");
    run_kv_workload(FlashStore::new(ftl), kv_config(io_depth), workload)
        .expect("kv run succeeds")
}

fn kv_ppb(workload: &KvWorkloadConfig, io_depth: usize) -> KvRunSummary {
    let ftl = PpbFtl::new(NandDevice::new(workload.device_config()), PpbConfig::default())
        .expect("valid ftl");
    run_kv_workload(FlashStore::new(ftl), kv_config(io_depth), workload)
        .expect("kv run succeeds")
}

fn report(label: &str, summary: &KvRunSummary, elapsed: Duration) {
    println!(
        "  kv_batch/{label}: wall {:.2}s, flush+compaction {:.3}s device \
         ({} batches, {} pages), stall p99 {:?} p99.9 {:?}",
        elapsed.as_secs_f64(),
        (summary.flush_time + summary.compaction_time).as_secs_f64(),
        summary.batched_submissions,
        summary.batched_pages,
        summary.compaction_stall.p99,
        summary.compaction_stall.p999,
    );
}

fn kv_batch(c: &mut Criterion) {
    let workload = workload();
    let mut serial: Option<(KvRunSummary, Duration)> = None;
    let mut batched: Option<(KvRunSummary, Duration)> = None;
    let mut batched_ppb: Option<(KvRunSummary, Duration)> = None;

    let mut group = c.benchmark_group("kv_batch");
    group.sample_size(if smoke_mode() { 1 } else { 3 });
    group.bench_function("lsm_serial_conventional", |b| {
        b.iter(|| {
            let start = Instant::now();
            let summary = kv_conventional(&workload, 1);
            serial = Some((summary, start.elapsed()));
        });
    });
    group.bench_function("lsm_batched_conventional", |b| {
        b.iter(|| {
            let start = Instant::now();
            let summary = kv_conventional(&workload, BATCH_DEPTH);
            batched = Some((summary, start.elapsed()));
        });
    });
    group.bench_function("lsm_batched_ppb", |b| {
        b.iter(|| {
            let start = Instant::now();
            let summary = kv_ppb(&workload, BATCH_DEPTH);
            batched_ppb = Some((summary, start.elapsed()));
        });
    });
    group.finish();

    if let (Some((serial, serial_wall)), Some((batched, batched_wall))) =
        (serial.as_ref(), batched.as_ref())
    {
        report("serial  (conventional, depth 1)", serial, *serial_wall);
        report(&format!("batched (conventional, depth {BATCH_DEPTH})"), batched, *batched_wall);
        let serial_device = serial.flush_time + serial.compaction_time;
        let batched_device = batched.flush_time + batched.compaction_time;
        if batched_device > vflash_nand::Nanos::ZERO {
            println!(
                "  kv_batch/speedup: {CHIPS}-chip flush+compaction device time {:.2}x lower batched",
                serial_device.as_secs_f64() / batched_device.as_secs_f64(),
            );
        }
    }
    if let Some((ppb, wall)) = batched_ppb.as_ref() {
        report(&format!("batched (ppb, depth {BATCH_DEPTH})"), ppb, *wall);
    }
}

criterion_group!(benches, kv_batch);
criterion_main!(benches);
