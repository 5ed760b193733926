//! Regenerates every figure of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p vflash-bench --bin experiments                # all figures
//! cargo run --release -p vflash-bench --bin experiments -- fig13       # one figure
//! cargo run --release -p vflash-bench --bin experiments -- qd          # queue-depth sweep
//! cargo run --release -p vflash-bench --bin experiments -- openloop    # offered-load sweep
//! cargo run --release -p vflash-bench --bin experiments -- burst       # burstiness sweep
//! cargo run --release -p vflash-bench --bin experiments -- faults      # fault/reliability sweep
//! cargo run --release -p vflash-bench --bin experiments -- fleet       # multi-device host tier
//! cargo run --release -p vflash-bench --bin experiments -- ppb_sensitivity  # warm-up/threshold sweep
//! cargo run --release -p vflash-bench --bin experiments -- lsm         # KV/LSM store comparison
//! cargo run --release -p vflash-bench --bin experiments -- --quick     # smaller scale
//! cargo run --release -p vflash-bench --bin experiments -- --trace mds_0.csv
//!                                      # real MSR-Cambridge trace through the same sweeps
//! ```

use std::error::Error;

use vflash_bench::{per_ftl, percentiles_us, render, seconds, tail_percentiles_us};
use vflash_fleet::run_fleet_cell;
use vflash_ftl::hotcold::Classifier;
use vflash_ftl::FtlError;
use vflash_kv::{run_kv_cell, KvRunSummary, VALUE_BYTES, ZIPF_S};
use vflash_nand::{FaultConfig, NandConfig, Nanos};
use vflash_ppb::PpbConfig;
use vflash_sim::experiments::{
    burst_axis, burst_mean_iops, fault_lifetime, ExperimentScale, Workload,
    FLEET_SIZES, PAGE_SIZES, PPB_COLD_PROMOTE_READS, PPB_HOT_LIST_FRACTIONS, PPB_WARMUP_FRACTIONS,
    QUEUE_DEPTHS, RATE_SCALES, RBER_SCALES, SPEED_RATIOS,
};
use vflash_sim::{
    compare_specs, ArrivalDiscipline, Comparison, ComparisonRow, ExperimentGrid, FtlKind,
    KvSource, ParallelRunner, RunSpec, RunSummary, TraceSource,
};
use vflash_trace::msr::{self, SubsetOptions};

type Outcome = Result<(), Box<dyn Error>>;

fn print_table1(scale: &ExperimentScale) {
    let config: NandConfig = scale.device_config(16 * 1024, 2.0);
    println!("== Table 1: experimental parameters (scaled; paper values in brackets) ==");
    println!(
        "flash size            {:>8.2} GB   [64 GB]",
        config.capacity_bytes() as f64 / 1e9
    );
    println!("page size              {:>8} KB   [16 KB]", config.page_size_bytes() / 1024);
    println!("pages per block        {:>8}      [384]", config.pages_per_block());
    println!(
        "page write latency     {:>8} us   [600 us]",
        config.program_latency().as_micros_f64()
    );
    println!(
        "page read latency      {:>8} us   [49 us]",
        config.read_latency().as_micros_f64()
    );
    println!("data transfer rate     {:>8} MB/s [533 MB/s]", config.transfer_rate_mb_s());
    println!(
        "block erase time       {:>8} ms   [4 ms]",
        config.erase_latency().as_millis_f64()
    );
    println!("trace requests         {:>8}", scale.requests);
    println!();
}

/// Both FTLs on every spec, fanned out over the machine's cores: the rows of
/// one table.
fn compare<'a>(specs: &[RunSpec<'a>]) -> Result<Vec<ComparisonRow<'a>>, FtlError> {
    compare_specs(&ParallelRunner::with_available_parallelism(), specs)
}

/// The serial figures keep the paper's chip count; the queue-depth, open-loop
/// and burstiness sections are about load on overlapping chips, so they get a
/// wider device when the scale is narrow.
fn wide(scale: &ExperimentScale) -> ExperimentScale {
    ExperimentScale { chips: scale.chips.max(8), ..*scale }
}

/// The read or the write columns of a comparison: one FTL's total latency, and
/// the enhancement between the two.
type Pick = (fn(&RunSummary) -> Nanos, fn(&Comparison) -> f64);
const READ: Pick = (|summary| summary.read_time, Comparison::read_enhancement_pct);
const WRITE: Pick = (|summary| summary.write_time, Comparison::write_enhancement_pct);

/// Figures 12 and 15 are the same eight runs — both workloads at both page
/// sizes, 2x — under the read and the write pick.
fn enhancement(scale: &ExperimentScale, title: &str, (_, pct): Pick) -> Outcome {
    let specs: Vec<RunSpec> = Workload::ALL
        .iter()
        .flat_map(|&workload| {
            PAGE_SIZES
                .map(|page_size_bytes| RunSpec { page_size_bytes, ..RunSpec::new(workload, *scale) })
        })
        .collect();
    render(title, "workload          page-size   enhancement", &compare(&specs)?, |row| {
        format!(
            "{:<17} {:>6} KiB   {:>8.2}%",
            row.spec.source.label(),
            row.spec.page_size_bytes / 1024,
            pct(&row.comparison),
        )
    });
    Ok(())
}

/// Figures 13/16 (media server) and 14/17 (web server), and the first two
/// tables of a real trace: one source at every speed difference, 16 KB pages.
fn speed_rows<'a>(
    source: impl Into<TraceSource<'a>>,
    scale: &ExperimentScale,
) -> Result<Vec<ComparisonRow<'a>>, FtlError> {
    let base = RunSpec::new(source, *scale);
    compare(&SPEED_RATIOS.map(|speed_ratio| RunSpec { speed_ratio, ..base }))
}

fn latency_table(title: &str, rows: &[ComparisonRow], (time, pct): Pick) {
    let header = "speed-diff   conventional-ftl   ftl-with-ppb   improvement";
    render(title, header, rows, |row| {
        format!(
            "{:>7.0}x   {:>16} {:>14}   {:>9.2}%",
            row.spec.speed_ratio,
            seconds(time(&row.comparison.baseline)),
            seconds(time(&row.comparison.variant)),
            pct(&row.comparison),
        )
    });
}

fn latency_vs_speed(scale: &ExperimentScale, workload: Workload, title: &str, pick: Pick) -> Outcome {
    latency_table(title, &speed_rows(workload, scale)?, pick);
    Ok(())
}

fn fig18(scale: &ExperimentScale) -> Outcome {
    render(
        "Figure 18: erased block count comparison (2x, 16 KB pages)",
        "workload          conventional-ftl   ftl-with-ppb",
        &compare(&Workload::ALL.map(|workload| RunSpec::new(workload, *scale)))?,
        |row| {
            format!(
                "{:<17} {:>16} {:>14}",
                row.spec.source.label(),
                row.comparison.baseline.erased_blocks,
                row.comparison.variant.erased_blocks,
            )
        },
    );
    Ok(())
}

/// Read enhancement on web/SQL at 4x as a function of the number of virtual
/// blocks per physical block (the paper notes the 2-way split as the
/// overhead/benefit sweet spot) and of the first-stage hot/cold classifier.
fn ablations(scale: &ExperimentScale) -> Outcome {
    let base = RunSpec { speed_ratio: 4.0, ..RunSpec::new(Workload::WebSqlServer, *scale) };
    let mut specs = [1usize, 2, 4]
        .map(|virtual_blocks| RunSpec {
            ppb: PpbConfig { virtual_blocks_per_block: virtual_blocks, ..base.ppb },
            ..base
        })
        .to_vec();
    specs.extend(Classifier::ALL.map(|classifier| RunSpec {
        ppb: PpbConfig { classifier, ..base.ppb },
        ..base
    }));
    let rows = compare(&specs)?;
    let (splits, classifiers) = rows.split_at(3);
    render("Ablation: virtual blocks per physical block (web-sql-server, 4x)", "", splits, |row| {
        format!(
            "{} virtual block(s)   read enhancement {:>6.2}%",
            row.spec.ppb.virtual_blocks_per_block,
            row.comparison.read_enhancement_pct(),
        )
    });
    render("Ablation: first-stage hot/cold classifier (web-sql-server, 4x)", "", classifiers, |row| {
        format!(
            "{:<14}   read enhancement {:>6.2}%",
            row.spec.ppb.classifier.label(),
            row.comparison.read_enhancement_pct(),
        )
    });
    Ok(())
}

/// Both FTLs at QD 1, 4, 16, 64 on the same multi-chip device. Device state
/// evolves identically at every depth — only the timing overlay changes — so
/// differences in IOPS and tail latency are attributable to queuing alone.
fn qd(scale: &ExperimentScale) -> Outcome {
    let scale = wide(scale);
    for workload in Workload::ALL {
        let base = RunSpec::new(workload, scale);
        let specs = QUEUE_DEPTHS.map(|queue_depth| RunSpec {
            discipline: ArrivalDiscipline::ClosedLoop { queue_depth },
            ..base
        });
        render(
            &format!("Queue-depth sweep: {workload}, {} chips, 16 KB pages, 2x", scale.chips),
            "  qd   ftl            iops    read p50/p95/p99/max (us)   write p50/p95/p99/max (us)",
            &compare(&specs)?,
            |row| {
                per_ftl(&row.comparison, |summary| {
                    format!(
                        "{:>4}   {:<12} {:>8.0}   {}   {}",
                        summary.queue_depth,
                        summary.ftl,
                        summary.request_iops(),
                        percentiles_us(&summary.read_latency),
                        percentiles_us(&summary.write_latency),
                    )
                })
            },
        );
    }
    Ok(())
}

/// The offered-load curve of one source: open loop at every rate scale. While
/// achieved ≈ offered the device keeps up and queue delay stays near zero;
/// past the knee, achieved flattens at saturation and the response time is
/// queueing delay, not service time. Arrivals come from the trace's recorded
/// timestamps.
fn rate_table<'a>(title: &str, source: impl Into<TraceSource<'a>>, scale: &ExperimentScale) -> Outcome {
    let base = RunSpec::new(source, *scale);
    let specs = RATE_SCALES
        .map(|rate_scale| RunSpec { discipline: ArrivalDiscipline::OpenLoop { rate_scale }, ..base });
    render(
        title,
        " rate   ftl             offered    achieved   qdelay mean/p99 (us)   service mean/p99 (us)",
        &RATE_SCALES.iter().zip(compare(&specs)?).collect::<Vec<_>>(),
        |(rate_scale, row)| {
            per_ftl(&row.comparison, |summary| {
                format!(
                    "{:>4}x   {:<12} {:>9.0} {:>11.0}   {:>9.0}/{:>9.0}   {:>9.0}/{:>9.0}",
                    rate_scale,
                    summary.ftl,
                    summary.offered_iops(),
                    summary.request_iops(),
                    summary.queue_delay.mean.as_micros_f64(),
                    summary.queue_delay.p99.as_micros_f64(),
                    summary.service_time.mean.as_micros_f64(),
                    summary.service_time.p99.as_micros_f64(),
                )
            })
        },
    );
    Ok(())
}

fn openloop(scale: &ExperimentScale) -> Outcome {
    let scale = wide(scale);
    for workload in Workload::ALL {
        let title = format!(
            "Open-loop (arrival-time) sweep: {workload}, {} chips, 16 KB pages, 2x",
            scale.chips
        );
        rate_table(&title, workload, &scale)?;
    }
    Ok(())
}

/// Open loop at the trace's own clock under every arrival model of the burst
/// axis, at one mean rate probed per workload (half the device's saturation
/// throughput), so every row offers the same load and only the arrival
/// pattern changes.
fn burst(scale: &ExperimentScale) -> Outcome {
    let scale = wide(scale);
    for workload in Workload::ALL {
        let mean = burst_mean_iops(workload, &scale)?;
        let specs: Vec<RunSpec> = burst_axis(mean)
            .into_iter()
            .map(|arrival| RunSpec {
                arrival,
                discipline: ArrivalDiscipline::OpenLoop { rate_scale: 1.0 },
                ..RunSpec::new(workload, scale)
            })
            .collect();
        render(
            &format!(
                "Burstiness sweep: {workload}, {mean:.0} IOPS mean (half of saturation), \
                 open-loop x1, {} chips",
                scale.chips
            ),
            "arrival                      ftl             offered   achieved   busy%   peak-qd   \
             read p99/p99.9 (us)",
            &compare(&specs)?,
            |row| {
                per_ftl(&row.comparison, |summary| {
                    format!(
                        "{:<28} {:<12} {:>9.0} {:>10.0} {:>6.1} {:>9}   {:>9.0}/{:>9.0}",
                        row.spec.arrival.label(),
                        summary.ftl,
                        summary.offered_iops(),
                        summary.request_iops(),
                        summary.busy_arrival_fraction() * 100.0,
                        summary.peak_queue_depth,
                        summary.read_latency.p99.as_micros_f64(),
                        summary.read_latency.p999.as_micros_f64(),
                    )
                })
            },
        );
    }
    println!(
        "Every row offers the same mean load; only its burstiness differs. Busy%, the\n\
         peak backlog and the p99/p99.9 tail grow down the table — that growth is pure\n\
         queueing, and the conventional-vs-ppb gap in the bottom rows is the tail-latency\n\
         win of speed-aware placement under realistic bursty load.\n"
    );
    Ok(())
}

/// The host tier stripes one keyspace over 1–8 identical devices; every width
/// (and both FTLs) replays the same open-loop request stream, so the only
/// thing changing down the width axis is the striping. The width-1 rows are
/// the single-device reference; down the axis the stripe distribution barely
/// moves while the fan-out p99.9 grows.
fn fleet(scale: &ExperimentScale) -> Outcome {
    let grid = ExperimentGrid::fleet_sweep(*scale);
    let rows = ParallelRunner::with_available_parallelism().map(&grid.specs, run_fleet_cell)?;
    render(
        &format!("Fleet sweep: stripe widths {FLEET_SIZES:?}, open-loop x1, cache off, both FTLs"),
        "workload          ftl            width    offered   achieved       \
         fanout p50/p99/p99.9 (us)   stripe p99.9   tail-amp",
        &rows,
        |summary| {
            format!(
                "{:<17} {:<12} {:>6} {:>10.0} {:>10.0}   {:>9.0}/{:>9.0}/{:>9.0}   {:>12.0}   {:>7.2}x",
                summary.trace,
                summary.ftl,
                summary.width,
                summary.offered_iops(),
                summary.request_iops(),
                summary.fanout_read_latency.p50.as_micros_f64(),
                summary.fanout_read_latency.p99.as_micros_f64(),
                summary.fanout_read_latency.p999.as_micros_f64(),
                summary.stripe_read_latency.p999.as_micros_f64(),
                summary.read_tail_amplification(),
            )
        },
    );
    println!(
        "A striped request completes at the max of its per-device stripes, so the\n\
         fan-out p99.9 grows with the width while the per-stripe distribution stays\n\
         put — the tail-amp column is that ratio, 1.0 by construction at width 1.\n"
    );
    Ok(())
}

/// One-at-a-time around the default configuration: the warm-up lengths at
/// default knobs, then each promotion threshold on an un-warmed device.
fn ppb_sensitivity(scale: &ExperimentScale) -> Outcome {
    let mut specs = Vec::new();
    for workload in Workload::ALL {
        let base = RunSpec::new(workload, *scale);
        specs.extend(PPB_WARMUP_FRACTIONS.map(|warmup_fraction| RunSpec { warmup_fraction, ..base }));
        specs.extend(PPB_COLD_PROMOTE_READS.map(|cold_promote_reads| RunSpec {
            ppb: PpbConfig { cold_promote_reads, ..base.ppb },
            ..base
        }));
        specs.extend(PPB_HOT_LIST_FRACTIONS.map(|hot_list_fraction| RunSpec {
            ppb: PpbConfig { hot_list_fraction, ..base.ppb },
            ..base
        }));
    }
    render(
        "PPB sensitivity: warm-up length and promotion thresholds (16 KB pages, 2x, QD 1)",
        "workload          warmup   promote-reads   hot-fraction   read-enh   write-enh",
        &compare(&specs)?,
        |row| {
            format!(
                "{:<17} {:>5.0}% {:>15} {:>14.2} {:>9.2}% {:>10.2}%",
                row.spec.source.label(),
                row.spec.warmup_fraction * 100.0,
                row.spec.ppb.cold_promote_reads,
                row.spec.ppb.hot_list_fraction,
                row.comparison.read_enhancement_pct(),
                row.comparison.write_enhancement_pct(),
            )
        },
    );
    println!(
        "Each row measures the trace suffix left after replaying the warm-up prefix\n\
         un-measured on a fully prefilled device. The default-knob rows down the\n\
         warm-up axis show whether aging widens the PPB win; the promote/hot rows\n\
         vary one threshold each on a fresh device.\n"
    );
    Ok(())
}

/// Web/SQL at every RBER scale on both FTLs with the NAND fault model on — the
/// retry columns grow down the RBER axis and drag the p99/p99.9 with them,
/// the reliability tax on tail latency, while the default program/erase
/// failure probabilities keep a trickle of bad-block retirements flowing
/// through the remap path — then the end-of-life probe.
fn faults(scale: &ExperimentScale) -> Outcome {
    // The fault seed is derived from the scale's workload seed, so the sweep
    // is reproducible end to end.
    let nominal = FaultConfig::enabled(scale.seed ^ 0xFA17);
    let specs = RBER_SCALES.map(|rber_scale| RunSpec {
        faults: Some(FaultConfig { rber_scale, ..nominal }),
        ..RunSpec::new(Workload::WebSqlServer, *scale)
    });
    render(
        "Fault sweep: web-sql-server, RBER scale x FTL, 16 KB pages, 2x, QD 1",
        "rber   ftl             retried   retry%   uncorr   bad-blk   read p99/p99.9 (us)",
        &compare(&specs)?,
        |row| {
            per_ftl(&row.comparison, |summary| {
                format!(
                    "{:>3.0}x   {:<12} {:>9} {:>8.2} {:>8} {:>9}   {:>9.0}/{:>9.0}",
                    row.spec.faults.map_or(0.0, |faults| faults.rber_scale),
                    summary.ftl,
                    summary.retried_reads,
                    summary.retry_latency_fraction() * 100.0,
                    summary.uncorrectable_reads,
                    summary.bad_blocks_grown,
                    summary.read_latency.p99.as_micros_f64(),
                    summary.read_latency.p999.as_micros_f64(),
                )
            })
        },
    );
    render(
        "End-of-life probe: round-robin writes into a failing device until read-only",
        "ftl            writes-to-read-only   bad-blocks   read-only at",
        &fault_lifetime(scale)?,
        |row| {
            format!(
                "{:<12} {:>21} {:>12}   {}",
                row.ftl,
                row.writes_completed,
                row.bad_blocks,
                seconds(row.time_to_read_only),
            )
        },
    );
    Ok(())
}

/// The conventional and the PPB row of an LSM comparison: the get-latency
/// split (memtable hits vs SSTable reads), the compaction-stall tail writes
/// absorb, and the three write-amplification factors (app × FTL = end to
/// end), then one activity line per FTL.
fn kv_table(title: &str, conventional: &KvRunSummary, ppb: &KvRunSummary) {
    render(
        title,
        "ftl            memhit p50/p99/p99.9 (us)   sstread p50/p99/p99.9 (us)   \
         stall p50/p99/p99.9 (us)   app-WA  ftl-WA  e2e-WA",
        &[conventional, ppb],
        |summary| {
            let wa = summary.write_amplification;
            format!(
                "{:<12} {:>26} {:>28} {:>26}   {:>6.2}  {:>6.2}  {:>6.2}",
                summary.ftl,
                tail_percentiles_us(&summary.memtable_hit),
                tail_percentiles_us(&summary.sstable_read),
                tail_percentiles_us(&summary.compaction_stall),
                wa.app,
                wa.ftl,
                wa.end_to_end,
            )
        },
    );
    for summary in [conventional, ppb] {
        println!(
            "{:<12} {} ops, {} flushes, {} compactions, {} stalled writes, \
             {} bloom skips, device time {}",
            summary.ftl,
            summary.ops_completed,
            summary.stats.flushes,
            summary.stats.compactions,
            summary.stalled_writes,
            summary.stats.bloom_skips,
            seconds(summary.device_time),
        );
    }
}

/// Runs the LSM KV store (vflash-kv) against both FTLs with the same
/// zipf-skewed operation mix and seed, and prints application-level latency
/// and write-amplification numbers. Unlike the block-trace sweeps above, the
/// device traffic here is *generated by a real storage engine* — WAL appends
/// (small, hot), memtable flushes and compaction rewrites (bulk, cold) — so
/// the comparison shows what PPB's placement buys an application, not a trace.
/// Then the same store on 4 chips, serial (io_depth 1) against batched
/// (io_depth 16: multi-page extents in windows, one `submit_batch` each).
fn lsm(scale: &ExperimentScale, quick: bool) -> Outcome {
    const BATCH_CHIPS: usize = 4;
    const BATCH_DEPTH: usize = 16;
    let (requests, key_space, working_set_bytes) =
        if quick { (3_000, 2_000, 12 << 20) } else { (20_000, 10_000, 16 << 20) };
    // 96 (quick) or 128 blocks of 64 × 4 KiB pages at the scale's headroom 2.0.
    let cell = |chips, io_depth| {
        let scale = ExperimentScale { requests, working_set_bytes, pages_per_block: 64, chips, ..*scale };
        RunSpec::new(KvSource { key_space, io_depth }, scale)
    };
    let specs = [
        cell(1, 1),
        cell(1, 1).on(FtlKind::Ppb),
        cell(BATCH_CHIPS, 1),
        cell(BATCH_CHIPS, BATCH_DEPTH),
        cell(BATCH_CHIPS, BATCH_DEPTH).on(FtlKind::Ppb),
    ];
    let runs = ParallelRunner::with_available_parallelism().map(&specs, run_kv_cell)?;
    let [conventional, ppb, serial, batched, batched_ppb]: [KvRunSummary; 5] =
        runs.try_into().expect("one summary per spec");
    kv_table(
        &format!(
            "LSM KV store on flash: conventional vs PPB (zipf s={ZIPF_S}, {requests} ops, \
             {key_space} keys, {VALUE_BYTES} B values)"
        ),
        &conventional,
        &ppb,
    );
    println!(
        "\nMemtable hits cost no device time; SSTable reads pay bloom/index probes plus\n\
         one bucket read; stalls are the foreground flush+compaction time a write\n\
         absorbs. app-WA x ftl-WA = e2e-WA exactly (bytes programmed per byte the\n\
         application wrote). ftl-WA ~ 1.0 is the LSM being flash-friendly: it\n\
         writes and frees whole segments, so GC victims are fully invalid and\n\
         the FTL never relocates live pages.\n"
    );

    // One line per run with the device time spent in flushes and compactions,
    // the stall tail the application absorbs and the batching counters; the
    // last line is the headline of the batched path on a multi-chip device.
    let device_time =
        |summary: &KvRunSummary| summary.stats.flush_time + summary.stats.compaction_time;
    let speedup = if device_time(&batched) > Nanos::ZERO {
        format!(
            "\nbatched flush+compaction device time is {:.2}x lower",
            device_time(&serial).as_secs_f64() / device_time(&batched).as_secs_f64(),
        )
    } else {
        String::new()
    };
    render(
        &format!(
            "LSM batched submission: io_depth 1 vs {BATCH_DEPTH} on {BATCH_CHIPS} chips \
             (conventional FTL)"
        ),
        "mode      flush+compaction   stall p50/p99/p99.9 (us)   batches   batched pages",
        &[("serial", &serial, ""), ("batched", &batched, speedup.as_str())],
        |(mode, summary, trailer)| {
            format!(
                "{:<8} {:>17} {:>26} {:>9} {:>15}{trailer}",
                mode,
                seconds(device_time(summary)),
                tail_percentiles_us(&summary.compaction_stall),
                summary.batched_submissions,
                summary.batched_pages,
            )
        },
    );

    kv_table(
        &format!(
            "LSM conventional vs PPB under batching (io_depth {BATCH_DEPTH}, {BATCH_CHIPS} chips)"
        ),
        &batched,
        &batched_ppb,
    );
    println!();
    Ok(())
}

/// Runs a real (MSR-Cambridge CSV) trace through the same tables the
/// synthetic workloads get: the Figure 13/16-style latency-vs-speed-ratio
/// comparison and the open-loop offered-load sweep.
fn real_trace(path: &str, scale: &ExperimentScale) -> Outcome {
    // Cap the request count at the scale's budget so `--quick` stays quick even
    // on a multi-GB file; streaming stops as soon as the quota fills.
    let trace = msr::parse_path_filtered(path, &SubsetOptions::first_n(scale.requests))?;
    if trace.is_empty() {
        return Err(format!("trace {path} contains no usable requests").into());
    }
    let (name, stats) = (trace.name(), trace.stats());
    println!(
        "== Real trace {name}: {} requests, {:.0}% reads, mean request {:.1} KiB, \
         recorded rate {:.0} req/s ==\n",
        trace.len(),
        stats.read_ratio() * 100.0,
        stats.mean_request_bytes / 1024.0,
        trace.offered_iops(),
    );
    // Size the simulated device to the trace's footprint: an external trace
    // arrives with its own working set, unlike the generated workloads.
    let scale = scale.sized_for_trace(&trace);
    let rows = speed_rows(&trace, &scale)?;
    latency_table(&format!("{name} read latency vs page access speed difference"), &rows, READ);
    latency_table(&format!("{name} write latency vs page access speed difference"), &rows, WRITE);
    let wide = wide(&scale);
    let title =
        format!("{name} open-loop (arrival-time) sweep, {} chips, 16 KB pages, 2x", wide.chips);
    rate_table(&title, &trace, &wide)
}

/// One printable section of the evaluation; the flag is `--quick`.
type Section = fn(&ExperimentScale, bool) -> Outcome;

/// Every selectable section, in the order `all` prints them. Dispatch,
/// validation and the usage message all read this table.
const SECTIONS: [(&str, Section); 15] = [
    ("fig12", |scale, _| {
        enhancement(scale, "Figure 12: read performance enhancement (PPB vs conventional, 2x)", READ)
    }),
    ("fig13", |scale, _| {
        let title = "Figure 13: media-server read latency vs page access speed difference";
        latency_vs_speed(scale, Workload::MediaServer, title, READ)
    }),
    ("fig14", |scale, _| {
        let title = "Figure 14: web-server read latency vs page access speed difference";
        latency_vs_speed(scale, Workload::WebSqlServer, title, READ)
    }),
    ("fig15", |scale, _| {
        enhancement(scale, "Figure 15: write performance enhancement (PPB vs conventional, 2x)", WRITE)
    }),
    ("fig16", |scale, _| {
        let title = "Figure 16: media-server write latency vs page access speed difference";
        latency_vs_speed(scale, Workload::MediaServer, title, WRITE)
    }),
    ("fig17", |scale, _| {
        let title = "Figure 17: web-server write latency vs page access speed difference";
        latency_vs_speed(scale, Workload::WebSqlServer, title, WRITE)
    }),
    ("fig18", |scale, _| fig18(scale)),
    ("ablation", |scale, _| ablations(scale)),
    ("qd", |scale, _| qd(scale)),
    ("openloop", |scale, _| openloop(scale)),
    ("burst", |scale, _| burst(scale)),
    ("faults", |scale, _| faults(scale)),
    ("fleet", |scale, _| fleet(scale)),
    ("ppb_sensitivity", |scale, _| ppb_sensitivity(scale)),
    ("lsm", lsm),
];

fn main() -> Outcome {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|arg| arg == "--quick");
    let scale = if quick { ExperimentScale::quick() } else { ExperimentScale::standard() };

    // `--trace <file.csv>` feeds a real MSR-Cambridge trace through the same
    // sweeps as the synthetic workloads, then exits.
    let mut figures: Vec<&str> = Vec::new();
    let mut trace_path: Option<&str> = None;
    let mut iter = args.iter().map(String::as_str).filter(|arg| *arg != "--quick");
    while let Some(arg) = iter.next() {
        if arg == "--trace" {
            let Some(path) = iter.next() else {
                eprintln!("--trace needs a file path (an MSR-Cambridge CSV)");
                std::process::exit(2);
            };
            trace_path = Some(path);
        } else {
            figures.push(arg);
        }
    }
    if let Some(path) = trace_path {
        if !figures.is_empty() {
            eprintln!("--trace replaces the synthetic figure selection {figures:?}");
            std::process::exit(2);
        }
        return real_trace(path, &scale);
    }

    // Nothing is printed until every name is known: a typo beside a valid
    // name must not pass for a complete run.
    let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
    let unknown: Vec<&str> = figures
        .iter()
        .copied()
        .filter(|figure| *figure != "all" && !names.contains(figure))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment selection {unknown:?}; expected {} or all", names.join(", "));
        std::process::exit(2);
    }
    let run_all = figures.is_empty() || figures.contains(&"all");

    print_table1(&scale);
    for (name, section) in SECTIONS {
        if run_all || figures.contains(&name) {
            section(&scale, quick)?;
        }
    }
    Ok(())
}
