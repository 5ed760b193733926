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

use vflash_bench::{
    format_burst_rows, format_enhancement_rows, format_erase_rows, format_fault_rows,
    format_fleet_rows, format_kv_activity, format_kv_batching_rows, format_kv_rows,
    format_latency_sweep, format_lifetime_rows, format_policy_erase_rows,
    format_ppb_sensitivity_rows, format_queue_depth_rows, format_rate_scale_rows,
};
use vflash_fleet::run_fleet_grid;
use vflash_ftl::{ConventionalFtl, FtlConfig};
use vflash_kv::workload::{compare_conventional_vs_ppb, run_kv_workload, KvWorkloadConfig};
use vflash_kv::{FlashStore, KvConfig};
use vflash_nand::{NandConfig, NandDevice};
use vflash_sim::experiments::{
    ablation_classifier, ablation_virtual_blocks, burst_sweep_at, burst_sweep_mean_iops,
    enhancement_rows, erase_count_by_policy, fault_lifetime, fault_sweep, ppb_sensitivity_sweep,
    queue_depth_sweep, rate_scale_sweep, rate_scale_sweep_for_trace, read_latency_sweep,
    read_latency_sweep_for_trace, write_latency_sweep, write_latency_sweep_for_trace,
    EraseCountRow, ExperimentScale, GcPolicy, Workload, FLEET_SIZES,
};
use vflash_sim::{Comparison, ExperimentGrid, ParallelRunner};
use vflash_trace::msr::{self, SubsetOptions};
use vflash_trace::Trace;

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

fn fig12(scale: &ExperimentScale) -> Result<(), Box<dyn Error>> {
    println!("== Figure 12: read performance enhancement (PPB vs conventional, 2x) ==");
    let rows = enhancement_rows(scale)?;
    print!("{}", format_enhancement_rows(&rows, Comparison::read_enhancement_pct));
    println!();
    Ok(())
}

fn fig15(scale: &ExperimentScale) -> Result<(), Box<dyn Error>> {
    println!("== Figure 15: write performance enhancement (PPB vs conventional, 2x) ==");
    let rows = enhancement_rows(scale)?;
    print!("{}", format_enhancement_rows(&rows, Comparison::write_enhancement_pct));
    println!();
    Ok(())
}

fn fig13(scale: &ExperimentScale) -> Result<(), Box<dyn Error>> {
    println!("== Figure 13: media-server read latency vs page access speed difference ==");
    print!("{}", format_latency_sweep(&read_latency_sweep(Workload::MediaServer, scale)?));
    println!();
    Ok(())
}

fn fig14(scale: &ExperimentScale) -> Result<(), Box<dyn Error>> {
    println!("== Figure 14: web-server read latency vs page access speed difference ==");
    print!("{}", format_latency_sweep(&read_latency_sweep(Workload::WebSqlServer, scale)?));
    println!();
    Ok(())
}

fn fig16(scale: &ExperimentScale) -> Result<(), Box<dyn Error>> {
    println!("== Figure 16: media-server write latency vs page access speed difference ==");
    print!("{}", format_latency_sweep(&write_latency_sweep(Workload::MediaServer, scale)?));
    println!();
    Ok(())
}

fn fig17(scale: &ExperimentScale) -> Result<(), Box<dyn Error>> {
    println!("== Figure 17: web-server write latency vs page access speed difference ==");
    print!("{}", format_latency_sweep(&write_latency_sweep(Workload::WebSqlServer, scale)?));
    println!();
    Ok(())
}

fn fig18(scale: &ExperimentScale) -> Result<(), Box<dyn Error>> {
    // The ablation's greedy rows are exactly the classic Figure 18 data
    // (asserted in vflash-sim's tests), so one sweep feeds both tables.
    let by_policy = erase_count_by_policy(scale)?;
    let classic: Vec<EraseCountRow> = by_policy
        .iter()
        .filter(|row| row.policy == GcPolicy::Greedy)
        .map(|row| EraseCountRow {
            workload: row.workload,
            conventional: row.conventional,
            ppb: row.ppb,
        })
        .collect();
    println!("== Figure 18: erased block count comparison (2x, 16 KB pages) ==");
    print!("{}", format_erase_rows(&classic));
    println!();
    println!("== Figure 18 ablation: GC victim policy (greedy / wear-aware / cost-benefit) ==");
    print!("{}", format_policy_erase_rows(&by_policy));
    println!();
    Ok(())
}

fn qd(scale: &ExperimentScale) -> Result<(), Box<dyn Error>> {
    // The serial figures keep the paper's chip count; the queue-depth sweep is
    // about chip overlap, so give it a wider device when the scale is narrow.
    let scale = ExperimentScale { chips: scale.chips.max(8), ..*scale };
    for workload in Workload::ALL {
        println!(
            "== Queue-depth sweep: {workload}, {} chips, 16 KB pages, 2x ==",
            scale.chips
        );
        print!("{}", format_queue_depth_rows(&queue_depth_sweep(workload, &scale)?));
        println!();
    }
    Ok(())
}

fn openloop(scale: &ExperimentScale) -> Result<(), Box<dyn Error>> {
    // Like the queue-depth sweep, the open-loop sweep is about load on a wide
    // device; arrivals come from the synthetic traces' recorded timestamps.
    let scale = ExperimentScale { chips: scale.chips.max(8), ..*scale };
    for workload in Workload::ALL {
        println!(
            "== Open-loop (arrival-time) sweep: {workload}, {} chips, 16 KB pages, 2x ==",
            scale.chips
        );
        print!("{}", format_rate_scale_rows(&rate_scale_sweep(workload, &scale)?));
        println!();
    }
    Ok(())
}

fn burst(scale: &ExperimentScale) -> Result<(), Box<dyn Error>> {
    // Burstiness is a queueing phenomenon: give it the same wide device the
    // other open-loop sections use. The mean rate is probed per workload (half
    // the device's saturation throughput), so every row offers the same load
    // and only the arrival pattern changes.
    let scale = ExperimentScale { chips: scale.chips.max(8), ..*scale };
    for workload in Workload::ALL {
        let mean = burst_sweep_mean_iops(workload, &scale)?;
        println!(
            "== Burstiness sweep: {workload}, {:.0} IOPS mean (half of saturation), \
             open-loop x1, {} chips ==",
            mean, scale.chips
        );
        print!("{}", format_burst_rows(&burst_sweep_at(workload, &scale, mean)?));
        println!();
    }
    println!(
        "Every row offers the same mean load; only its burstiness differs. Busy%, the\n\
         peak backlog and the p99/p99.9 tail grow down the table — that growth is pure\n\
         queueing, and the conventional-vs-ppb gap in the bottom rows is the tail-latency\n\
         win of speed-aware placement under realistic bursty load.\n"
    );
    Ok(())
}

fn fleet(scale: &ExperimentScale) -> Result<(), Box<dyn Error>> {
    // The host tier stripes one keyspace over 1–8 identical devices; every
    // width replays the same open-loop request stream at the same seed, so the
    // only thing changing down the width axis is the striping.
    println!(
        "== Fleet sweep: stripe widths {FLEET_SIZES:?}, open-loop x1, cache off, \
         both FTLs =="
    );
    let grid = ExperimentGrid::fleet_sweep(*scale);
    let rows = run_fleet_grid(&ParallelRunner::with_available_parallelism(), &grid)?;
    print!("{}", format_fleet_rows(&rows));
    println!();
    println!(
        "A striped request completes at the max of its per-device stripes, so the\n\
         fan-out p99.9 grows with the width while the per-stripe distribution stays\n\
         put — the tail-amp column is that ratio, 1.0 by construction at width 1.\n"
    );
    Ok(())
}

fn ppb_sensitivity(scale: &ExperimentScale) -> Result<(), Box<dyn Error>> {
    println!(
        "== PPB sensitivity: warm-up length and promotion thresholds \
         (16 KB pages, 2x, QD 1) =="
    );
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        rows.extend(ppb_sensitivity_sweep(workload, scale)?);
    }
    print!("{}", format_ppb_sensitivity_rows(&rows));
    println!();
    println!(
        "Each row measures the trace suffix left after replaying the warm-up prefix\n\
         un-measured on a fully prefilled device. The default-knob rows down the\n\
         warm-up axis show whether aging widens the PPB win; the promote/hot rows\n\
         vary one threshold each on a fresh device.\n"
    );
    Ok(())
}

fn faults(scale: &ExperimentScale) -> Result<(), Box<dyn Error>> {
    println!("== Fault sweep: web-sql-server, RBER scale x GC policy, 16 KB pages, 2x, QD 1 ==");
    print!("{}", format_fault_rows(&fault_sweep(scale)?));
    println!();
    println!("== End-of-life probe: round-robin writes into a failing device until read-only ==");
    print!("{}", format_lifetime_rows(&fault_lifetime(scale)?));
    println!();
    Ok(())
}

/// Runs the LSM KV store (vflash-kv) against both FTLs with the same
/// zipf-skewed operation mix and seed, and prints application-level latency
/// and write-amplification numbers. Unlike the block-trace sweeps above, the
/// device traffic here is *generated by a real storage engine* — WAL appends
/// (small, hot), memtable flushes and compaction rewrites (bulk, cold) — so
/// the comparison shows what PPB's placement buys an application, not a trace.
fn lsm(quick: bool) -> Result<(), Box<dyn Error>> {
    let workload =
        if quick { KvWorkloadConfig::smoke() } else { KvWorkloadConfig::default() };
    println!(
        "== LSM KV store on flash: conventional vs PPB (zipf s={}, {} ops, {} keys, \
         {} B values) ==",
        workload.zipf_s, workload.ops, workload.key_space, workload.value_bytes
    );
    let comparison = compare_conventional_vs_ppb(KvConfig::default(), &workload)?;
    print!("{}", format_kv_rows(&comparison));
    println!();
    print!("{}", format_kv_activity(&comparison.conventional));
    print!("{}", format_kv_activity(&comparison.ppb));
    println!(
        "\nMemtable hits cost no device time; SSTable reads pay bloom/index probes plus\n\
         one bucket read; stalls are the foreground flush+compaction time a write\n\
         absorbs. app-WA x ftl-WA = e2e-WA exactly (bytes programmed per byte the\n\
         application wrote). ftl-WA ~ 1.0 is the LSM being flash-friendly: it\n\
         writes and frees whole segments, so GC victims are fully invalid and\n\
         the FTL never relocates live pages.\n"
    );

    // The batched submission path: the same store on a multi-chip device,
    // serial (io_depth 1, scalar submits, clock charged the serial sum) versus
    // batched (io_depth 16, multi-page extents through submit_batch, clock
    // charged the chip-parallel makespan).
    const BATCH_CHIPS: usize = 4;
    const BATCH_DEPTH: usize = 16;
    let batch_workload = KvWorkloadConfig { device_chips: BATCH_CHIPS, ..workload.clone() };
    println!(
        "== LSM batched submission: io_depth 1 vs {BATCH_DEPTH} on {BATCH_CHIPS} chips \
         (conventional FTL) =="
    );
    let serial = {
        let ftl = ConventionalFtl::new(
            NandDevice::new(batch_workload.device_config()),
            FtlConfig::default(),
        )?;
        run_kv_workload(FlashStore::new(ftl), KvConfig::default(), &batch_workload)?
    };
    let batched = {
        let ftl = ConventionalFtl::new(
            NandDevice::new(batch_workload.device_config()),
            FtlConfig::default(),
        )?;
        let kv_config = KvConfig { io_depth: BATCH_DEPTH, ..KvConfig::default() };
        run_kv_workload(FlashStore::new(ftl), kv_config, &batch_workload)?
    };
    print!("{}", format_kv_batching_rows(&serial, &batched));
    println!();

    println!(
        "== LSM conventional vs PPB under batching (io_depth {BATCH_DEPTH}, \
         {BATCH_CHIPS} chips) =="
    );
    let kv_config = KvConfig { io_depth: BATCH_DEPTH, ..KvConfig::default() };
    let batched_comparison = compare_conventional_vs_ppb(kv_config, &batch_workload)?;
    print!("{}", format_kv_rows(&batched_comparison));
    println!();
    print!("{}", format_kv_activity(&batched_comparison.conventional));
    print!("{}", format_kv_activity(&batched_comparison.ppb));
    println!();
    Ok(())
}

/// Runs a real (MSR-Cambridge CSV) trace through the same sweeps the synthetic
/// workloads get: the Figure 13/16-style latency-vs-speed-ratio comparison and
/// the open-loop offered-load sweep.
fn real_trace(path: &str, scale: &ExperimentScale) -> Result<(), Box<dyn Error>> {
    // Cap the request count at the scale's budget so `--quick` stays quick even
    // on a multi-GB file; streaming stops as soon as the quota fills.
    let trace = msr::parse_path_filtered(path, &SubsetOptions::first_n(scale.requests))?;
    if trace.is_empty() {
        return Err(format!("trace {path} contains no usable requests").into());
    }
    let stats = trace.stats();
    println!(
        "== Real trace {}: {} requests, {:.0}% reads, mean request {:.1} KiB, \
         recorded rate {:.0} req/s ==",
        trace.name(),
        trace.len(),
        stats.read_ratio() * 100.0,
        stats.mean_request_bytes / 1024.0,
        trace.offered_iops(),
    );
    println!();
    // Size the simulated device to the trace's footprint: an external trace
    // arrives with its own working set, unlike the generated workloads.
    let scale = scale.sized_for_trace(&trace);
    real_trace_sweeps(&trace, &scale)
}

fn real_trace_sweeps(trace: &Trace, scale: &ExperimentScale) -> Result<(), Box<dyn Error>> {
    println!("== {} read latency vs page access speed difference ==", trace.name());
    print!("{}", format_latency_sweep(&read_latency_sweep_for_trace(trace, scale)?));
    println!();
    println!("== {} write latency vs page access speed difference ==", trace.name());
    print!("{}", format_latency_sweep(&write_latency_sweep_for_trace(trace, scale)?));
    println!();
    let wide = ExperimentScale { chips: scale.chips.max(8), ..*scale };
    println!(
        "== {} open-loop (arrival-time) sweep, {} chips, 16 KB pages, 2x ==",
        trace.name(),
        wide.chips
    );
    print!("{}", format_rate_scale_rows(&rate_scale_sweep_for_trace(trace, &wide)?));
    println!();
    Ok(())
}

fn ablations(scale: &ExperimentScale) -> Result<(), Box<dyn Error>> {
    println!("== Ablation: virtual blocks per physical block (web-sql-server, 4x) ==");
    for (virtual_blocks, enhancement) in ablation_virtual_blocks(Workload::WebSqlServer, scale)? {
        println!("{virtual_blocks} virtual block(s)   read enhancement {enhancement:>6.2}%");
    }
    println!();
    println!("== Ablation: first-stage hot/cold classifier (web-sql-server, 4x) ==");
    for (classifier, enhancement) in ablation_classifier(Workload::WebSqlServer, scale)? {
        println!("{:<14}   read enhancement {enhancement:>6.2}%", classifier.label());
    }
    println!();
    Ok(())
}

/// One printable section of the evaluation; the flag is `--quick`.
type Section = fn(&ExperimentScale, bool) -> Result<(), Box<dyn Error>>;

/// Every selectable section, in the order `all` prints them. Dispatch,
/// validation and the usage message all read this table.
const SECTIONS: [(&str, Section); 15] = [
    ("fig12", |scale, _| fig12(scale)),
    ("fig13", |scale, _| fig13(scale)),
    ("fig14", |scale, _| fig14(scale)),
    ("fig15", |scale, _| fig15(scale)),
    ("fig16", |scale, _| fig16(scale)),
    ("fig17", |scale, _| fig17(scale)),
    ("fig18", |scale, _| fig18(scale)),
    ("ablation", |scale, _| ablations(scale)),
    ("qd", |scale, _| qd(scale)),
    ("openloop", |scale, _| openloop(scale)),
    ("burst", |scale, _| burst(scale)),
    ("faults", |scale, _| faults(scale)),
    ("fleet", |scale, _| fleet(scale)),
    ("ppb_sensitivity", |scale, _| ppb_sensitivity(scale)),
    ("lsm", |_, quick| lsm(quick)),
];

fn main() -> Result<(), Box<dyn Error>> {
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
