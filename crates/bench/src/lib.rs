//! # vflash-bench
//!
//! Experiment harness for the PPB reproduction.
//!
//! The library part only hosts the table formatting helpers the `experiments`
//! binary prints with; the interesting code lives in
//! [`vflash_sim::experiments`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vflash_fleet::FleetCellResult;
use vflash_kv::workload::{KvComparison, KvRunSummary};
use vflash_nand::Nanos;
use vflash_sim::experiments::{
    BurstRow, EnhancementRow, EraseCountRow, FaultRow, LatencySweepRow, LifetimeRow,
    PolicyEraseRow, PpbSensitivityRow, QueueDepthRow, RateScaleRow,
};
use vflash_sim::{Comparison, LatencyPercentiles, RunSummary};

/// Formats a duration as seconds with three decimals, the unit the paper's latency
/// figures use.
pub fn seconds(value: Nanos) -> String {
    format!("{:.3}s", value.as_secs_f64())
}

/// Renders Figure 12/15 rows (read or write enhancement per workload and page size).
pub fn format_enhancement_rows(
    rows: &[EnhancementRow],
    metric: impl Fn(&Comparison) -> f64,
) -> String {
    let mut out = String::from("workload          page-size   enhancement\n");
    for row in rows {
        out.push_str(&format!(
            "{:<17} {:>6} KiB   {:>8.2}%\n",
            row.workload.label(),
            row.page_size_bytes / 1024,
            metric(&row.comparison),
        ));
    }
    out
}

/// Renders Figure 13/14/16/17 rows (latency vs speed difference).
pub fn format_latency_sweep(rows: &[LatencySweepRow]) -> String {
    let mut out = String::from("speed-diff   conventional-ftl   ftl-with-ppb   improvement\n");
    for row in rows {
        let improvement = if row.conventional == Nanos::ZERO {
            0.0
        } else {
            (row.conventional.as_nanos() as f64 - row.ppb.as_nanos() as f64)
                / row.conventional.as_nanos() as f64
                * 100.0
        };
        out.push_str(&format!(
            "{:>7.0}x   {:>16} {:>14}   {:>9.2}%\n",
            row.speed_ratio,
            seconds(row.conventional),
            seconds(row.ppb),
            improvement,
        ));
    }
    out
}

/// Formats percentiles compactly in microseconds: `p50/p95/p99/max`.
fn percentiles_us(percentiles: &LatencyPercentiles) -> String {
    format!(
        "{:>7.0}/{:>7.0}/{:>7.0}/{:>8.0}",
        percentiles.p50.as_micros_f64(),
        percentiles.p95.as_micros_f64(),
        percentiles.p99.as_micros_f64(),
        percentiles.max.as_micros_f64(),
    )
}

/// Formats the tail percentiles the LSM table reports: `p50/p99/p99.9` (µs).
fn tail_percentiles_us(percentiles: &LatencyPercentiles) -> String {
    format!(
        "{:>6.0}/{:>7.0}/{:>8.0}",
        percentiles.p50.as_micros_f64(),
        percentiles.p99.as_micros_f64(),
        percentiles.p999.as_micros_f64(),
    )
}

/// Renders the LSM KV-store comparison: for each FTL, the application-level
/// get-latency split (memtable hits vs SSTable reads), the compaction-stall
/// tail absorbed by writes, and the three write-amplification factors (app ×
/// FTL = end-to-end). The interesting columns are the SSTable-read and stall
/// tails — that is where the device's placement policy shows through the LSM —
/// and the end-to-end WA, which multiplies the LSM's own rewrite cost by the
/// FTL's relocation cost.
pub fn format_kv_rows(comparison: &KvComparison) -> String {
    let mut out = String::from(
        "ftl            memhit p50/p99/p99.9 (us)   sstread p50/p99/p99.9 (us)   \
         stall p50/p99/p99.9 (us)   app-WA  ftl-WA  e2e-WA\n",
    );
    let mut push = |summary: &KvRunSummary| {
        let wa = summary.write_amplification;
        out.push_str(&format!(
            "{:<12} {:>26} {:>28} {:>26}   {:>6.2}  {:>6.2}  {:>6.2}\n",
            summary.ftl,
            tail_percentiles_us(&summary.memtable_hit),
            tail_percentiles_us(&summary.sstable_read),
            tail_percentiles_us(&summary.compaction_stall),
            wa.app,
            wa.ftl,
            wa.end_to_end,
        ));
    };
    push(&comparison.conventional);
    push(&comparison.ppb);
    out
}

/// Renders the serial-vs-batched KV rows: one line per run with the device
/// time spent in flushes and compactions, the compaction-stall tail the
/// application absorbs, and the batching counters. A final line reports the
/// flush+compaction device-time speedup, the headline of the batched
/// submission path on a multi-chip device.
pub fn format_kv_batching_rows(serial: &KvRunSummary, batched: &KvRunSummary) -> String {
    let mut out = String::from(
        "mode      flush+compaction   stall p50/p99/p99.9 (us)   batches   batched pages\n",
    );
    let mut push = |mode: &str, summary: &KvRunSummary| {
        out.push_str(&format!(
            "{:<8} {:>17} {:>26} {:>9} {:>15}\n",
            mode,
            seconds(summary.flush_time + summary.compaction_time),
            tail_percentiles_us(&summary.compaction_stall),
            summary.batched_submissions,
            summary.batched_pages,
        ));
    };
    push("serial", serial);
    push("batched", batched);
    let serial_device = serial.flush_time + serial.compaction_time;
    let batched_device = batched.flush_time + batched.compaction_time;
    if batched_device > Nanos::ZERO {
        out.push_str(&format!(
            "batched flush+compaction device time is {:.2}x lower\n",
            serial_device.as_secs_f64() / batched_device.as_secs_f64(),
        ));
    }
    out
}

/// One-line activity summary of a KV run (flushes, compactions, stalls, device
/// time) printed under the comparison table.
pub fn format_kv_activity(summary: &KvRunSummary) -> String {
    format!(
        "{:<12} {} ops, {} flushes, {} compactions, {} stalled writes, \
         {} bloom skips, device time {}\n",
        summary.ftl,
        summary.ops_completed,
        summary.flushes,
        summary.compactions,
        summary.stalled_writes,
        summary.bloom_skips,
        seconds(summary.device_time),
    )
}

/// Renders queue-depth sweep rows: achieved IOPS and per-request read/write
/// latency percentiles (µs) for both FTLs at every depth.
pub fn format_queue_depth_rows(rows: &[QueueDepthRow]) -> String {
    let mut out = String::from(
        "  qd   ftl            iops    read p50/p95/p99/max (us)   write p50/p95/p99/max (us)\n",
    );
    let mut push = |queue_depth: usize, summary: &RunSummary| {
        out.push_str(&format!(
            "{:>4}   {:<12} {:>8.0}   {}   {}\n",
            queue_depth,
            summary.ftl,
            summary.request_iops(),
            percentiles_us(&summary.read_latency),
            percentiles_us(&summary.write_latency),
        ));
    };
    for row in rows {
        push(row.queue_depth, &row.conventional);
        push(row.queue_depth, &row.ppb);
    }
    out
}

/// Renders offered-load (open-loop rate-scale) sweep rows: offered vs achieved
/// IOPS and the queueing-delay/service-time split (µs) for both FTLs at every
/// rate scale. Reading the curve: while achieved ≈ offered the device keeps up
/// and queue delay stays near zero; past the knee, achieved flattens at
/// saturation and the response time is queueing delay, not service time.
pub fn format_rate_scale_rows(rows: &[RateScaleRow]) -> String {
    let mut out = String::from(
        " rate   ftl             offered    achieved   qdelay mean/p99 (us)   service mean/p99 (us)\n",
    );
    let mut push = |rate_scale: f64, summary: &RunSummary| {
        out.push_str(&format!(
            "{:>4}x   {:<12} {:>9.0} {:>11.0}   {:>9.0}/{:>9.0}   {:>9.0}/{:>9.0}\n",
            rate_scale,
            summary.ftl,
            summary.offered_iops(),
            summary.request_iops(),
            summary.queue_delay.mean.as_micros_f64(),
            summary.queue_delay.p99.as_micros_f64(),
            summary.service_time.mean.as_micros_f64(),
            summary.service_time.p99.as_micros_f64(),
        ));
    };
    for row in rows {
        push(row.rate_scale, &row.conventional);
        push(row.rate_scale, &row.ppb);
    }
    out
}

/// Renders burstiness-sweep rows: for each arrival model of the fixed-mean-rate
/// axis, the busy-arrival fraction, the peak backlog and the read-latency tail
/// (p99 and p99.9, µs) of both FTLs. Reading the table: the mean rate is the
/// same in every row, so everything that grows down the table — busy fraction,
/// backlog, and above all the p99.9 — is the cost of burstiness, and the
/// conventional-vs-PPB gap at the bottom rows is the tail win the paper's
/// placement strategy buys under realistic (non-smooth) load.
pub fn format_burst_rows(rows: &[BurstRow]) -> String {
    let mut out = String::from(
        "arrival                      ftl             offered   achieved   busy%   peak-qd   \
         read p99/p99.9 (us)\n",
    );
    let mut push = |label: &str, summary: &RunSummary| {
        out.push_str(&format!(
            "{:<28} {:<12} {:>9.0} {:>10.0} {:>6.1} {:>9}   {:>9.0}/{:>9.0}\n",
            label,
            summary.ftl,
            summary.offered_iops(),
            summary.request_iops(),
            summary.busy_arrival_fraction() * 100.0,
            summary.peak_queue_depth,
            summary.read_latency.p99.as_micros_f64(),
            summary.read_latency.p999.as_micros_f64(),
        ));
    };
    for row in rows {
        let label = row.arrival.label();
        push(&label, &row.conventional);
        push(&label, &row.ppb);
    }
    out
}

/// Renders the Figure 18 victim-policy ablation rows (erased block counts per
/// workload and GC policy).
pub fn format_policy_erase_rows(rows: &[PolicyEraseRow]) -> String {
    let mut out = String::from("workload          gc-policy        conventional-ftl   ftl-with-ppb\n");
    for row in rows {
        out.push_str(&format!(
            "{:<17} {:<16} {:>16} {:>14}\n",
            row.workload.label(),
            row.policy.label(),
            row.conventional,
            row.ppb,
        ));
    }
    out
}

/// Renders fault-sweep rows: for every RBER scale × GC policy, how often the
/// fault model fired (retried/uncorrectable reads, bad-block growth), the
/// fraction of host time the retry ladder cost, and the read-latency tail of
/// both FTLs. Reading the table: the retry columns grow down the RBER axis and
/// drag the p99/p99.9 with them — the reliability tax on tail latency.
pub fn format_fault_rows(rows: &[FaultRow]) -> String {
    let mut out = String::from(
        "rber   gc-policy        ftl             retried   retry%   uncorr   bad-blk   \
         read p99/p99.9 (us)\n",
    );
    let mut push = |rber: f64, policy: &str, summary: &RunSummary| {
        out.push_str(&format!(
            "{:>3.0}x   {:<16} {:<12} {:>9} {:>8.2} {:>8} {:>9}   {:>9.0}/{:>9.0}\n",
            rber,
            policy,
            summary.ftl,
            summary.retried_reads,
            summary.retry_latency_fraction() * 100.0,
            summary.uncorrectable_reads,
            summary.bad_blocks_grown,
            summary.read_latency.p99.as_micros_f64(),
            summary.read_latency.p999.as_micros_f64(),
        ));
    };
    for row in rows {
        let policy = row.policy.label();
        push(row.rber_scale, &policy, &row.conventional);
        push(row.rber_scale, &policy, &row.ppb);
    }
    out
}

/// Renders end-of-life probe rows: how many writes each FTL absorbed on a
/// failing device, how many blocks it retired, and when it turned read-only.
pub fn format_lifetime_rows(rows: &[LifetimeRow]) -> String {
    let mut out = String::from("ftl            writes-to-read-only   bad-blocks   read-only at\n");
    for row in rows {
        out.push_str(&format!(
            "{:<12} {:>21} {:>12}   {}\n",
            row.ftl,
            row.writes_completed,
            row.bad_blocks,
            seconds(row.time_to_read_only),
        ));
    }
    out
}

/// Renders fleet-sweep rows: for each workload × FTL × stripe width, the
/// achieved (and, open loop, offered) IOPS, the per-request **fan-out**
/// read-latency tail (max over the request's stripes) next to the per-stripe
/// p99.9 it is compared against, and their ratio — the fan-out tail
/// amplification. Reading the table: the width-1 row is the single-device
/// reference (amplification 1.0 by construction); down the width axis the
/// stripe distribution barely moves while the fan-out p99.9 grows, because a
/// striped request completes at the *max* of ever more stripes.
pub fn format_fleet_rows(rows: &[FleetCellResult]) -> String {
    let mut out = String::from(
        "workload          ftl            width    offered   achieved       \
         fanout p50/p99/p99.9 (us)   stripe p99.9   tail-amp\n",
    );
    for row in rows {
        let summary = &row.summary;
        out.push_str(&format!(
            "{:<17} {:<12} {:>6} {:>10.0} {:>10.0}   {:>9.0}/{:>9.0}/{:>9.0}   {:>12.0}   {:>7.2}x\n",
            row.cell.workload.label(),
            summary.ftl,
            summary.width,
            summary.offered_iops(),
            summary.request_iops(),
            summary.fanout_read_latency.p50.as_micros_f64(),
            summary.fanout_read_latency.p99.as_micros_f64(),
            summary.fanout_read_latency.p999.as_micros_f64(),
            summary.stripe_read_latency.p999.as_micros_f64(),
            summary.read_tail_amplification(),
        ));
    }
    out
}

/// Renders the PPB sensitivity rows (ROADMAP carry-over): the warm-up length
/// and promotion knobs each row ran with and the read/write enhancement over
/// the measured suffix. The default-knob rows down the warm-up axis answer
/// whether aging the device widens the win; the threshold rows answer whether
/// promotion tuning does.
pub fn format_ppb_sensitivity_rows(rows: &[PpbSensitivityRow]) -> String {
    let mut out = String::from(
        "workload          warmup   promote-reads   hot-fraction   read-enh   write-enh\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:<17} {:>5.0}% {:>15} {:>14.2} {:>9.2}% {:>10.2}%\n",
            row.workload.label(),
            row.warmup_fraction * 100.0,
            row.cold_promote_reads,
            row.hot_list_fraction,
            row.comparison.read_enhancement_pct(),
            row.comparison.write_enhancement_pct(),
        ));
    }
    out
}

/// Renders Figure 18 rows (erased block counts).
pub fn format_erase_rows(rows: &[EraseCountRow]) -> String {
    let mut out = String::from("workload          conventional-ftl   ftl-with-ppb\n");
    for row in rows {
        out.push_str(&format!(
            "{:<17} {:>16} {:>14}\n",
            row.workload.label(),
            row.conventional,
            row.ppb,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vflash_sim::experiments::Workload;
    use vflash_sim::RunSummary;

    fn summary(ftl: &str, read_us: u64) -> RunSummary {
        let mut end = vflash_ftl::FtlMetrics::new();
        end.record_host_read(Nanos::from_micros(read_us));
        end.record_host_write(Nanos::from_micros(600));
        RunSummary::from_metrics_delta(ftl, "t", &vflash_ftl::FtlMetrics::new(), &end)
    }

    #[test]
    fn formatting_includes_every_row() {
        let comparison = Comparison::new(summary("conventional", 100), summary("ppb", 80));
        let rows = vec![EnhancementRow {
            workload: Workload::MediaServer,
            page_size_bytes: 16 * 1024,
            comparison,
        }];
        let text = format_enhancement_rows(&rows, Comparison::read_enhancement_pct);
        assert!(text.contains("media-server"));
        assert!(text.contains("16 KiB"));
        assert!(text.contains("20.00%"));
    }

    #[test]
    fn latency_sweep_formatting_reports_improvement() {
        let rows = vec![LatencySweepRow {
            speed_ratio: 2.0,
            conventional: Nanos::from_millis(200),
            ppb: Nanos::from_millis(150),
        }];
        let text = format_latency_sweep(&rows);
        assert!(text.contains("2x"));
        assert!(text.contains("25.00%"));
    }

    #[test]
    fn erase_formatting_lists_counts() {
        let rows = vec![EraseCountRow { workload: Workload::WebSqlServer, conventional: 40, ppb: 41 }];
        let text = format_erase_rows(&rows);
        assert!(text.contains("web-sql-server"));
        assert!(text.contains("40"));
        assert!(text.contains("41"));
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(seconds(Nanos::from_millis(1500)), "1.500s");
    }

    #[test]
    fn queue_depth_formatting_reports_iops_and_percentiles() {
        let mut conventional = summary("conventional", 100);
        conventional.host_requests = 1_000;
        conventional.host_elapsed = Nanos::from_millis(100);
        conventional.read_latency.p99 = Nanos::from_micros(250);
        let ppb = summary("ppb", 80);
        let rows = vec![QueueDepthRow { queue_depth: 16, conventional, ppb }];
        let text = format_queue_depth_rows(&rows);
        assert!(text.contains("16"), "{text}");
        assert!(text.contains("conventional"));
        assert!(text.contains("10000"), "1000 reqs / 0.1 s = 10000 IOPS: {text}");
        assert!(text.contains("250"), "p99 column: {text}");
    }

    #[test]
    fn rate_scale_formatting_reports_offered_and_achieved() {
        let mut conventional = summary("conventional", 100);
        conventional.host_requests = 1_000;
        conventional.host_elapsed = Nanos::from_millis(200);
        conventional.offered_duration = Nanos::from_millis(100);
        conventional.queue_delay.mean = Nanos::from_micros(75);
        let ppb = summary("ppb", 80);
        let rows = vec![RateScaleRow { rate_scale: 2.0, conventional, ppb }];
        let text = format_rate_scale_rows(&rows);
        assert!(text.contains("2x"), "{text}");
        assert!(text.contains("10000"), "1000 reqs / 0.1 s offered: {text}");
        assert!(text.contains("5000"), "1000 reqs / 0.2 s achieved: {text}");
        assert!(text.contains("75"), "queue-delay mean column: {text}");
    }

    #[test]
    fn burst_formatting_reports_tail_and_busy_fraction() {
        use vflash_trace::synthetic::ArrivalModel;
        let mut conventional = summary("conventional", 100);
        conventional.host_requests = 1_000;
        conventional.host_elapsed = Nanos::from_millis(200);
        conventional.offered_duration = Nanos::from_millis(100);
        conventional.busy_arrivals = 250;
        conventional.peak_queue_depth = 77;
        conventional.read_latency.p999 = Nanos::from_micros(1_234);
        let ppb = summary("ppb", 80);
        let rows = vec![BurstRow {
            arrival: ArrivalModel::Pareto { shape: 1.5, mean_iops: 10_000.0 },
            conventional,
            ppb,
        }];
        let text = format_burst_rows(&rows);
        assert!(text.contains("pareto(a=1.5)"), "{text}");
        assert!(text.contains("25.0"), "busy-arrival percent: {text}");
        assert!(text.contains("77"), "peak backlog: {text}");
        assert!(text.contains("1234"), "p99.9 column: {text}");
    }

    #[test]
    fn fault_formatting_reports_reliability_counters() {
        use vflash_sim::experiments::{FaultRow, GcPolicy};
        let mut end = vflash_ftl::FtlMetrics::new();
        end.record_host_read(Nanos::from_micros(400));
        end.record_host_write(Nanos::from_micros(600));
        end.record_read_retries(3, Nanos::from_micros(100));
        end.record_uncorrectable_read();
        end.record_bad_block();
        let conventional = RunSummary::from_metrics_delta(
            "conventional",
            "t",
            &vflash_ftl::FtlMetrics::new(),
            &end,
        );
        let rows = vec![FaultRow {
            rber_scale: 4.0,
            policy: GcPolicy::Greedy,
            conventional,
            ppb: summary("ppb", 80),
        }];
        let text = format_fault_rows(&rows);
        assert!(text.contains("4x"), "{text}");
        assert!(text.contains("greedy"), "{text}");
        assert!(text.contains("10.00"), "retry fraction 100us/1000us: {text}");
    }

    #[test]
    fn lifetime_formatting_reports_the_transition() {
        use vflash_sim::experiments::LifetimeRow;
        let rows = vec![LifetimeRow {
            ftl: "ppb",
            writes_completed: 1234,
            bad_blocks: 40,
            time_to_read_only: Nanos::from_millis(1500),
        }];
        let text = format_lifetime_rows(&rows);
        assert!(text.contains("1234"), "{text}");
        assert!(text.contains("40"), "{text}");
        assert!(text.contains("1.500s"), "{text}");
    }

    #[test]
    fn fleet_formatting_reports_width_and_amplification() {
        use vflash_fleet::{CacheStats, FleetCellResult, FleetSummary};
        use vflash_sim::experiments::ExperimentScale;
        use vflash_sim::{ArrivalDiscipline, FtlKind, GridCell, ReplayMode};
        use vflash_trace::synthetic::ArrivalModel;

        let mut fanout = LatencyPercentiles::default();
        fanout.p999 = Nanos::from_micros(900);
        let mut stripe = LatencyPercentiles::default();
        stripe.p999 = Nanos::from_micros(300);
        let rows = vec![FleetCellResult {
            cell: GridCell {
                index: 0,
                ftl: FtlKind::Ppb,
                workload: Workload::WebSqlServer,
                discipline: ArrivalDiscipline::OpenLoop { rate_scale: 1.0 },
                arrival: ArrivalModel::default(),
                fleet_size: 4,
                scale: ExperimentScale::quick(),
            },
            summary: FleetSummary {
                ftl: "ppb".into(),
                trace: "web-sql-server".into(),
                width: 4,
                lanes: Vec::new(),
                mode: ReplayMode::OpenLoop { rate_scale: 1.0 },
                queue_depth: 0,
                host_requests: 1_000,
                host_elapsed: Nanos::from_millis(100),
                offered_duration: Nanos::from_millis(50),
                peak_queue_depth: 3,
                busy_arrivals: 10,
                fanout_read_latency: fanout,
                fanout_write_latency: LatencyPercentiles::default(),
                stripe_read_latency: stripe,
                stripe_write_latency: LatencyPercentiles::default(),
                cache: CacheStats::default(),
                tenants: Vec::new(),
            },
        }];
        let text = format_fleet_rows(&rows);
        assert!(text.contains("web-sql-server"), "{text}");
        assert!(text.contains("10000"), "1000 reqs / 0.1 s achieved: {text}");
        assert!(text.contains("20000"), "1000 reqs / 0.05 s offered: {text}");
        assert!(text.contains("3.00x"), "900us / 300us tail amplification: {text}");
    }

    #[test]
    fn ppb_sensitivity_formatting_reports_knobs_and_enhancements() {
        use vflash_sim::experiments::PpbSensitivityRow;
        let rows = vec![PpbSensitivityRow {
            workload: Workload::WebSqlServer,
            warmup_fraction: 0.5,
            cold_promote_reads: 4,
            hot_list_fraction: 0.25,
            comparison: Comparison::new(summary("conventional", 100), summary("ppb", 80)),
        }];
        let text = format_ppb_sensitivity_rows(&rows);
        assert!(text.contains("web-sql-server"), "{text}");
        assert!(text.contains("50%"), "{text}");
        assert!(text.contains("0.25"), "{text}");
        assert!(text.contains("20.00%"), "read enhancement: {text}");
    }

    #[test]
    fn policy_erase_formatting_lists_policies() {
        use vflash_sim::experiments::GcPolicy;
        let rows = vec![PolicyEraseRow {
            workload: Workload::MediaServer,
            policy: GcPolicy::CostBenefit,
            conventional: 17,
            ppb: 18,
        }];
        let text = format_policy_erase_rows(&rows);
        assert!(text.contains("cost-benefit"));
        assert!(text.contains("17"));
        assert!(text.contains("18"));
    }
}
