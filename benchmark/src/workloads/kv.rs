//! `kv_write` and `kv_read`: the LSM key-value store over either FTL.
//!
//! The benchmark drives `KvStore` with its own op loop rather than
//! `run_kv_workload`, because that function consumes the store and hides the op
//! boundaries the spans and the shadow model need; the mix logic is the same
//! few lines. Ops are generated in set-up from the seed (zipf(0.99) key ranks,
//! weighted op kinds, fill bytes), so the measured loop hands the store
//! nothing but generated inputs.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vflash_ftl::{FlashTranslationLayer, FtlMetrics};
use vflash_kv::{
    FlashStore, KvConfig, KvError, KvStats, KvStore, LookupSource, TableLayout, WriteReceipt,
};
use vflash_nand::{NandConfig, Nanos};
use vflash_sim::{FtlKind, LatencyHistogram, LatencyPercentiles};
use vflash_trace::Zipf;

use super::{
    ftl_count_layers, ftl_index, ftl_span_layers, micro, with_ftl, FtlTotals, Layers, Meter, Rep,
    SimEndToEnd, TracedRun, Workload,
};
use crate::span::{self, Name};
use crate::stats::Fingerprint;

const ZIPF_S: f64 = 0.99;
const SCAN_WIDTH: u64 = 20;
const PAGE_SIZE: usize = 4 * 1024;
const PAGES_PER_BLOCK: usize = 64;
/// KV ops per separately timed part of a repetition.
const TIMED_CHUNK_OPS: usize = 10_000;

/// Which of the two KV workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `kv_write`: 80/10/5/5 put/get/delete/scan, `io_depth` 16, 4 chips, empty
    /// store.
    Write,
    /// `kv_read`: 5/85/0/10, `io_depth` 1, 1 chip, every key preloaded.
    Read,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Put { rank: u64, fill: u8 },
    Get { rank: u64 },
    Delete { rank: u64 },
    Scan { rank: u64 },
}

/// A set-up KV workload.
pub struct Kv {
    ops: Vec<Op>,
    /// `(rank, fill)` puts applied before the measured region (shuffled).
    preload: Vec<(u64, u8)>,
    nand: NandConfig,
    config: KvConfig,
    value_bytes: usize,
}

/// Every simulated number one FTL's run produced. The store's and the FTL's
/// own counters are kept whole, as they stood after the preload and at the end
/// (`[start, end]`), so the fingerprint covers every field they have or will
/// have; the benchmark's own numbers cover the measured region only.
// Every field is read — through `Debug`, by the fingerprint.
#[allow(dead_code)]
#[derive(Debug)]
struct KvSim {
    ftl: String,
    stats: [KvStats; 2],
    ftl_metrics: [FtlMetrics; 2],
    moved: Moved,
    device_time: Nanos,
    sstable_get: LatencyPercentiles,
    memtable_get: LatencyPercentiles,
    write_total: LatencyPercentiles,
    stall: LatencyPercentiles,
    stall_p95: Nanos,
    app_wa: f64,
    ftl_wa: f64,
    end_to_end_wa: f64,
    layout: Vec<TableLayout>,
}

/// The counters the reported metrics need, as the measured region moved them
/// (end of run minus end of preload).
#[derive(Debug)]
struct Moved {
    gets: u64,
    table_reads: u64,
    bloom_skips: u64,
    flushes: u64,
    compactions: u64,
    app_bytes: u64,
    host_writes: u64,
    physical_writes: u64,
    erased_blocks: u64,
    batched_pages: u64,
    uncorrectable_reads: u64,
}

impl Moved {
    fn between(stats: &[KvStats; 2], metrics: &[FtlMetrics; 2]) -> Self {
        let [stats_start, stats_end] = stats;
        let [start, end] = metrics;
        Moved {
            gets: stats_end.gets - stats_start.gets,
            table_reads: stats_end.table_reads - stats_start.table_reads,
            bloom_skips: stats_end.bloom_skips - stats_start.bloom_skips,
            flushes: stats_end.flushes - stats_start.flushes,
            compactions: stats_end.compactions - stats_start.compactions,
            app_bytes: stats_end.app_bytes_written - stats_start.app_bytes_written,
            host_writes: end.host_writes - start.host_writes,
            physical_writes: end.physical_page_writes() - start.physical_page_writes(),
            erased_blocks: end.gc_erased_blocks - start.gc_erased_blocks,
            batched_pages: end.batched_pages - start.batched_pages,
            uncorrectable_reads: end.uncorrectable_reads - start.uncorrectable_reads,
        }
    }
}

struct KvRun {
    sim: KvSim,
    totals: FtlTotals,
    failed: u64,
}

impl Kv {
    /// Generates the op list (and the preload order) from `seed`.
    pub fn setup(mix: Mix, seed: u64, smoke: bool) -> Self {
        let key_space: usize = if smoke { 2_000 } else { 100_000 };
        let value_bytes = 256;
        // weights: put, get, delete, scan
        // Devices are sized so that host writes overwrite them several times:
        // garbage collection runs and erase counts are never zero.
        let (weights, op_count, chips, blocks, io_depth) = match (mix, smoke) {
            (Mix::Write, false) => ([80u32, 10, 5, 5], 150_000, 4, 256, 16),
            (Mix::Write, true) => ([80u32, 10, 5, 5], 3_000, 4, 32, 16),
            (Mix::Read, false) => ([5u32, 85, 0, 10], 200_000, 1, 512, 1),
            (Mix::Read, true) => ([5u32, 85, 0, 10], 20_000, 1, 16, 1),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let zipf = Zipf::new(key_space, ZIPF_S);
        let total: u32 = weights.iter().sum();
        let ops = (0..op_count)
            .map(|_| {
                let rank = zipf.sample(&mut rng) as u64;
                let draw = rng.gen_range(0..total);
                if draw < weights[0] {
                    Op::Put {
                        rank,
                        fill: rng.gen::<u8>(),
                    }
                } else if draw < weights[0] + weights[1] {
                    Op::Get { rank }
                } else if draw < weights[0] + weights[1] + weights[2] {
                    Op::Delete { rank }
                } else {
                    Op::Scan { rank }
                }
            })
            .collect();
        let preload = match mix {
            Mix::Write => Vec::new(),
            Mix::Read => {
                // Every key once, in a seeded Fisher-Yates order.
                let mut order: Vec<(u64, u8)> = (0..key_space as u64)
                    .map(|rank| (rank, rng.gen::<u8>()))
                    .collect();
                for index in (1..order.len()).rev() {
                    order.swap(index, rng.gen_range(0..index + 1));
                }
                order
            }
        };
        let nand = NandConfig::builder()
            .chips(chips)
            .blocks_per_chip(blocks / chips)
            .pages_per_block(PAGES_PER_BLOCK)
            .page_size_bytes(PAGE_SIZE)
            .build()
            .expect("KV device geometry is valid");
        let config = KvConfig {
            io_depth,
            ..KvConfig::default()
        };
        Kv {
            ops,
            preload,
            nand,
            config,
            value_bytes,
        }
    }

    fn run_one<F: FlashTranslationLayer>(
        &self,
        ftl: F,
        kind: FtlKind,
        traced: bool,
        meter: &mut Meter,
    ) -> KvRun {
        let ftl_name = ftl.name().to_string();
        let mut failed = 0u64;
        let mut kv = KvStore::open(FlashStore::new(ftl), self.config)
            .expect("a fresh device formats cleanly");
        let mut value = vec![0u8; self.value_bytes];
        // The shadow model: what a plain sorted map says each key holds.
        let mut shadow: BTreeMap<u64, u8> = BTreeMap::new();

        // Preload outside the measured region (and outside the spans' parents:
        // its submits are recorded, its KV ops are not).
        for &(rank, fill) in &self.preload {
            value.fill(fill);
            if kv.put(&rank.to_be_bytes(), &value).is_err() {
                failed += 1;
            }
            if traced {
                shadow.insert(rank, fill);
            }
        }
        if !self.preload.is_empty() && kv.flush().is_err() {
            failed += 1;
        }
        let stats_start = *kv.stats();
        let metrics_start = *kv.flash().ftl().metrics();
        let clock_start = kv.device_clock();

        let mut sstable_get = LatencyHistogram::new();
        let mut memtable_get = LatencyHistogram::new();
        let mut write_total = LatencyHistogram::new();
        let mut stall = LatencyHistogram::new();

        // Closes a put's or delete's span (also under `KvStalledWrite` when the
        // write absorbed a flush/compaction stall) and records what it cost in
        // simulated time.
        let mut finish_write = |receipt: Result<WriteReceipt, KvError>| {
            let stalled = receipt.as_ref().is_ok_and(|r| r.stall_time > Nanos::ZERO);
            span::exit_also(stalled.then_some(Name::KvStalledWrite));
            receipt.map(|receipt| {
                write_total.record(receipt.log_time + receipt.stall_time);
                if stalled {
                    stall.record(receipt.stall_time);
                }
            })
        };
        let holds = |bytes: &[u8], fill: u8| {
            bytes.len() == self.value_bytes && bytes.iter().all(|&byte| byte == fill)
        };
        let mut apply = |op: &Op| {
            let outcome: Result<(), KvError> = match *op {
                Op::Put { rank, fill } => {
                    value.fill(fill);
                    if traced {
                        shadow.insert(rank, fill);
                    }
                    span::enter(Name::KvPut);
                    finish_write(kv.put(&rank.to_be_bytes(), &value))
                }
                Op::Delete { rank } => {
                    if traced {
                        shadow.remove(&rank);
                    }
                    span::enter(Name::KvDelete);
                    finish_write(kv.delete(&rank.to_be_bytes()))
                }
                Op::Get { rank } => {
                    span::enter(Name::KvGet);
                    let lookup = kv.get(&rank.to_be_bytes());
                    span::exit();
                    lookup.map(|lookup| {
                        match lookup.source {
                            LookupSource::Memtable => memtable_get.record(lookup.time),
                            LookupSource::SsTable | LookupSource::Miss => {
                                sstable_get.record(lookup.time);
                            }
                        }
                        if traced {
                            let matches = match (&lookup.value, shadow.get(&rank)) {
                                (None, None) => true,
                                (Some(bytes), Some(&fill)) => holds(bytes, fill),
                                _ => false,
                            };
                            if !matches {
                                failed += 1;
                            }
                        }
                    })
                }
                Op::Scan { rank } => {
                    let (lo, hi) = (rank, rank + SCAN_WIDTH);
                    span::enter(Name::KvScan);
                    let rows = kv.scan(&lo.to_be_bytes(), &hi.to_be_bytes());
                    span::exit();
                    rows.map(|rows| {
                        if traced {
                            let expected = shadow.range(lo..hi);
                            let matches = rows.len() == expected.clone().count()
                                && rows.iter().zip(expected).all(
                                    |((key, bytes), (rank, &fill))| {
                                        key.as_slice() == rank.to_be_bytes() && holds(bytes, fill)
                                    },
                                );
                            if !matches {
                                failed += 1;
                            }
                        }
                    })
                }
            };
            if outcome.is_err() {
                failed += 1;
            }
        };
        // Timed in chunks, so that each chunk's fastest execution can be
        // picked out across repetitions (see `run::best_seconds`).
        for chunk in self.ops.chunks(TIMED_CHUNK_OPS) {
            meter.measure(kind, || chunk.iter().for_each(&mut apply));
        }
        if meter.measure(kind, || kv.flush()).is_err() {
            failed += 1;
        }

        let stats = [stats_start, *kv.stats()];
        let ftl_metrics = [metrics_start, *kv.flash().ftl().metrics()];
        let moved = Moved::between(&stats, &ftl_metrics);
        let page = PAGE_SIZE as f64;
        let app_bytes = moved.app_bytes as f64;
        let app_wa = moved.host_writes as f64 * page / app_bytes;
        let ftl_wa = moved.physical_writes as f64 / moved.host_writes as f64;
        let end_to_end_wa = moved.physical_writes as f64 * page / app_bytes;
        // app × FTL = end-to-end, exactly up to float rounding.
        if (app_wa * ftl_wa - end_to_end_wa).abs() > 1e-9 * end_to_end_wa {
            failed += 1;
        }
        failed += moved.uncorrectable_reads;
        if kv.flash().ftl().is_read_only() {
            failed += 1;
        }
        let mut totals = FtlTotals::default();
        totals.add(kv.flash().ftl());
        let sim = KvSim {
            ftl: ftl_name,
            stats,
            ftl_metrics,
            moved,
            device_time: kv.device_clock() - clock_start,
            sstable_get: sstable_get.percentiles(),
            memtable_get: memtable_get.percentiles(),
            write_total: write_total.percentiles(),
            stall: stall.percentiles(),
            stall_p95: stall.quantile(0.95),
            app_wa,
            ftl_wa,
            end_to_end_wa,
            layout: kv.layout(),
        };
        KvRun {
            sim,
            totals,
            failed,
        }
    }
}

impl Workload for Kv {
    fn rep(&self, traced: bool) -> Rep {
        let mut meter = Meter::default();
        let runs = FtlKind::ALL.map(|kind| {
            with_ftl!(kind, traced, &self.nand, |make| self.run_one(
                make(),
                kind,
                traced,
                &mut meter
            ))
        });
        let mut fingerprint = Fingerprint::default();
        let mut totals = [FtlTotals::default(); 2];
        let mut failed = 0;
        for kind in FtlKind::ALL {
            let run = &runs[ftl_index(kind)];
            fingerprint.add(&run.sim);
            totals[ftl_index(kind)] = run.totals;
            failed += run.failed;
        }
        let ops = 2 * self.ops.len() as u64;
        let [conv, ppb] = [&runs[0].sim, &runs[1].sim];
        let ratio = |variant: Nanos, baseline: Nanos| {
            variant.as_nanos() as f64 / baseline.as_nanos() as f64
        };
        let sim = SimEndToEnd {
            iops: self.ops.len() as f64 / ppb.device_time.as_secs_f64(),
            read_mean_us: ppb.sstable_get.mean.as_micros_f64(),
            write_mean_us: ppb.write_total.mean.as_micros_f64(),
            wa: ppb.end_to_end_wa,
            erases: ppb.moved.erased_blocks as f64,
            ppb_read_lat_ratio: ratio(ppb.sstable_get.mean, conv.sstable_get.mean),
            ppb_write_lat_ratio: ratio(ppb.write_total.mean, conv.write_total.mean),
        };
        let mut layers = ftl_count_layers(&totals, ops);
        let probes = ppb.moved.bloom_skips + ppb.moved.table_reads;
        layers.extend([
            ("ppb.read_gain_pct", (1.0 - sim.ppb_read_lat_ratio) * 100.0),
            (
                "ppb.write_gain_pct",
                (1.0 - sim.ppb_write_lat_ratio) * 100.0,
            ),
            ("kv.flushes", ppb.moved.flushes as f64),
            ("kv.compactions", ppb.moved.compactions as f64),
            (
                "kv.table_reads_per_get",
                ppb.moved.table_reads as f64 / ppb.moved.gets.max(1) as f64,
            ),
            (
                "kv.bloom_skip_ratio",
                ppb.moved.bloom_skips as f64 / probes.max(1) as f64,
            ),
            ("kv.app_wa", ppb.app_wa),
            ("kv.batched_pages", ppb.moved.batched_pages as f64),
            ("kv.sim_get_p99_us", ppb.sstable_get.p99.as_micros_f64()),
            ("kv.sim_put_p999_us", ppb.write_total.p999.as_micros_f64()),
            ("kv.sim_stall_p95_us", ppb.stall_p95.as_micros_f64()),
        ]);
        Rep {
            meter,
            ops,
            failed,
            fingerprint,
            sim,
            layers,
        }
    }

    fn host_layers(&self, traced: &TracedRun<'_>) -> Layers {
        let report = traced.report;
        let mut layers = ftl_span_layers(traced);
        let ops = [Name::KvPut, Name::KvGet, Name::KvDelete, Name::KvScan];
        let op_busy = report.busy_ns(&ops);
        let op_self = report.self_ns(&ops);
        // Preload submits run outside any KV-op span, so the time the ops'
        // children cover is the ops' busy time minus their (uncorrected) self
        // time — not the submit spans' total.
        let child_busy = op_busy
            - ops
                .iter()
                .map(|&n| report.stats(n).self_ns as f64)
                .sum::<f64>();
        layers.extend([
            ("kv.store.put_ns_p50", report.quantile(&[Name::KvPut], 0.5)),
            ("kv.store.put_ns_p99", report.quantile(&[Name::KvPut], 0.99)),
            ("kv.store.get_ns_p50", report.quantile(&[Name::KvGet], 0.5)),
            ("kv.store.get_ns_p99", report.quantile(&[Name::KvGet], 0.99)),
            (
                "kv.store.scan_ns_p50",
                report.quantile(&[Name::KvScan], 0.5),
            ),
            (
                "kv.store.scan_ns_p99",
                report.quantile(&[Name::KvScan], 0.99),
            ),
            (
                "kv.store.stalled_put_ns_p50",
                report.quantile(&[Name::KvStalledWrite], 0.5),
            ),
            (
                "kv.store.stall_share",
                report.busy_ns(&[Name::KvStalledWrite]) / op_busy,
            ),
            (
                "kv.store.self_ns_per_op",
                op_self / report.count(&ops) as f64,
            ),
            ("kv.flash.submit_share", child_busy / op_busy),
        ]);
        let ranks: Vec<u64> = self
            .ops
            .iter()
            .take(50_000)
            .map(|op| match *op {
                Op::Put { rank, .. }
                | Op::Get { rank }
                | Op::Delete { rank }
                | Op::Scan { rank } => rank,
            })
            .collect();
        layers.extend(micro::kv(&self.nand, self.config, &ranks, self.value_bytes));
        layers.extend(micro::nand(&self.nand));
        // The op generator samples the trace crate's Zipf; nothing else of the
        // trace layer is on the KV path.
        layers.extend(micro::zipf());
        layers
    }
}
