//! Run summaries and baseline/variant comparisons.

use std::fmt;

use vflash_ftl::FtlMetrics;
use vflash_nand::Nanos;

use crate::histogram::LatencyPercentiles;

/// How a summary's replay issued its requests: the engine's arrival discipline,
/// as recorded in the result.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ReplayMode {
    /// Closed-loop (saturation) replay: a fixed number of requests in flight,
    /// arrival timestamps ignored. See [`RunSummary::queue_depth`].
    #[default]
    ClosedLoop,
    /// Open-loop (arrival-time) replay: requests issued at their trace-recorded
    /// arrival times scaled by `rate_scale`, unbounded outstanding requests.
    OpenLoop {
        /// The multiplier applied to the trace's offered arrival rate.
        rate_scale: f64,
    },
}

/// The measurements of one trace replay against one FTL.
///
/// These are exactly the quantities the paper's evaluation plots: total read/write
/// latency (Figures 13, 14, 16, 17), their relative enhancement (Figures 12 and 15)
/// and the erased block count (Figure 18).
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Name of the FTL that served the trace (e.g. `"conventional"` or `"ppb"`).
    pub ftl: String,
    /// Name of the trace that was replayed.
    pub trace: String,
    /// Host page reads served.
    pub host_reads: u64,
    /// Host page writes served.
    pub host_writes: u64,
    /// Total host read latency.
    pub read_time: Nanos,
    /// Total host write latency (garbage collection included).
    pub write_time: Nanos,
    /// Mean host read latency.
    pub mean_read_latency: Nanos,
    /// Mean host write latency.
    pub mean_write_latency: Nanos,
    /// Blocks erased by garbage collection.
    pub erased_blocks: u64,
    /// Valid pages copied by garbage collection.
    pub gc_copied_pages: u64,
    /// Pages migrated across speed classes during garbage collection.
    pub migrated_pages: u64,
    /// Page programs the FTL issued on its own behalf: GC valid-page copies plus
    /// bad-block rescue copies. `host_writes + relocation_writes` is the device's
    /// physical program count, which is what an application stacked on top needs
    /// to report true end-to-end write amplification.
    pub relocation_writes: u64,
    /// Write amplification factor.
    pub write_amplification: f64,
    /// Device time consumed with chip-level interleaving: the largest per-chip busy
    /// time accumulated during the measured phase. On a single-chip device this is
    /// the serial sum of operation latencies; on a multi-chip device it is the time
    /// the busiest chip needed, since the chips service operations independently.
    /// [`Nanos::ZERO`] when the summary was not produced by a replay.
    pub device_makespan: Nanos,
    /// The queue depth the replay was driven at: how many host requests were kept
    /// in flight — the configured depth of a
    /// [`ClosedLoop`](crate::ArrivalDiscipline::ClosedLoop) run (`1` is the serial
    /// replay); `0` for open-loop runs, where nothing bounds the number of
    /// outstanding requests.
    pub queue_depth: usize,
    /// The arrival discipline the replay was driven under (closed loop by
    /// default; open loop carries its rate scale).
    pub mode: ReplayMode,
    /// Host requests replayed in the measured phase (trace requests, not pages —
    /// one request may span several logical pages).
    pub host_requests: u64,
    /// Replay-clock time at which the last request completed. At queue depth 1
    /// this is the serial sum of request latencies (`read_time + write_time`); at
    /// higher depths requests on distinct chips overlap and this shrinks towards
    /// [`RunSummary::device_makespan`]. [`Nanos::ZERO`] when the summary was not
    /// produced by a replay.
    pub host_elapsed: Nanos,
    /// Per-request completion-latency percentiles of the read requests.
    pub read_latency: LatencyPercentiles,
    /// Per-request completion-latency percentiles of the write requests.
    pub write_latency: LatencyPercentiles,
    /// Per-request **queueing delay** percentiles (all requests): the part of a
    /// request's response time spent waiting for busy chips, i.e. completion
    /// latency minus [`RunSummary::service_time`]. Identically zero at closed-loop
    /// depth 1 (nothing to queue behind); under open-loop overload this is the
    /// component that grows without bound.
    pub queue_delay: LatencyPercentiles,
    /// Per-request **service time** percentiles (all requests): the device time a
    /// request's operations actually consumed, excluding any waiting. Unlike the
    /// completion latency, this is invariant across queue depths and rate scales.
    pub service_time: LatencyPercentiles,
    /// For open-loop replays: the span of the (rate-scaled) arrival clock over
    /// which the trace's load was offered. [`Nanos::ZERO`] for closed-loop
    /// replays, where no load is "offered" — the device is simply saturated.
    pub offered_duration: Nanos,
    /// The largest number of requests simultaneously outstanding at any issue
    /// instant (the issued request included). In closed loop this saturates at
    /// the configured [`RunSummary::queue_depth`]; in open loop nothing bounds
    /// it — bursty arrivals drive it far past what the mean rate suggests, which
    /// is exactly the backlog that shows up as p99.9 queueing delay.
    pub peak_queue_depth: usize,
    /// Requests that arrived while at least one earlier request was still in
    /// flight — i.e. that found the system busy and joined a queue. Under
    /// uniform arrivals at low load this stays near zero; heavy-tailed arrivals
    /// at the *same mean rate* push most requests into busy bursts. See
    /// [`RunSummary::busy_arrival_fraction`].
    pub busy_arrivals: u64,
    /// Reads (host and GC alike) that needed at least one read-retry step to
    /// pass ECC. Zero with fault injection off.
    pub retried_reads: u64,
    /// Total extra latency spent in read-retry steps, already folded into the
    /// read/GC times above. See [`RunSummary::retry_latency_fraction`].
    pub read_retry_time: Nanos,
    /// Reads whose retry ladder was exhausted — the data was lost.
    pub uncorrectable_reads: u64,
    /// Blocks retired as bad after program or erase failures during the
    /// measured phase.
    pub bad_blocks_grown: u64,
    /// Page programs re-driven to a fresh block after a program failure.
    pub remapped_writes: u64,
    /// Device makespan at which the FTL entered read-only mode, if it did so by
    /// the end of the measured phase ([`Nanos::ZERO`] otherwise).
    pub time_to_read_only: Nanos,
}

impl RunSummary {
    /// Builds a summary from the delta between two metric snapshots (end minus
    /// start), which is how the replayer excludes warm-up traffic from the report.
    pub fn from_metrics_delta(
        ftl: impl Into<String>,
        trace: impl Into<String>,
        start: &FtlMetrics,
        end: &FtlMetrics,
    ) -> RunSummary {
        let host_reads = end.host_reads - start.host_reads;
        let host_writes = end.host_writes - start.host_writes;
        let read_time = end.host_read_time - start.host_read_time;
        let write_time = end.host_write_time - start.host_write_time;
        let gc_copied_pages = end.gc_copied_pages - start.gc_copied_pages;
        let migrated_pages = end.migrated_pages - start.migrated_pages;
        RunSummary {
            ftl: ftl.into(),
            trace: trace.into(),
            host_reads,
            host_writes,
            read_time,
            write_time,
            mean_read_latency: if host_reads == 0 { Nanos::ZERO } else { read_time / host_reads },
            mean_write_latency: if host_writes == 0 {
                Nanos::ZERO
            } else {
                write_time / host_writes
            },
            erased_blocks: end.gc_erased_blocks - start.gc_erased_blocks,
            gc_copied_pages,
            migrated_pages,
            relocation_writes: end.relocation_writes - start.relocation_writes,
            // Migrated pages are a subset of the GC copies, so they are not added
            // again to the physical write count.
            write_amplification: if host_writes == 0 {
                0.0
            } else {
                (host_writes + gc_copied_pages) as f64 / host_writes as f64
            },
            device_makespan: Nanos::ZERO,
            queue_depth: 1,
            mode: ReplayMode::ClosedLoop,
            host_requests: 0,
            host_elapsed: Nanos::ZERO,
            read_latency: LatencyPercentiles::default(),
            write_latency: LatencyPercentiles::default(),
            queue_delay: LatencyPercentiles::default(),
            service_time: LatencyPercentiles::default(),
            offered_duration: Nanos::ZERO,
            peak_queue_depth: 0,
            busy_arrivals: 0,
            retried_reads: end.retried_reads - start.retried_reads,
            read_retry_time: end.read_retry_time - start.read_retry_time,
            uncorrectable_reads: end.uncorrectable_reads - start.uncorrectable_reads,
            bad_blocks_grown: end.bad_blocks_grown - start.bad_blocks_grown,
            remapped_writes: end.remapped_writes - start.remapped_writes,
            // The read-only transition is a one-shot event: report it only when
            // it happened during the measured phase.
            time_to_read_only: if start.time_to_read_only == Nanos::ZERO {
                end.time_to_read_only
            } else {
                Nanos::ZERO
            },
        }
    }

    /// The fraction of total host latency (reads + writes) that was spent in
    /// read-retry steps, in `[0, 1]`. Zero with fault injection off — and the
    /// knob the fault sweep plots against the RBER scale.
    pub fn retry_latency_fraction(&self) -> f64 {
        let total = self.read_time + self.write_time;
        if total == Nanos::ZERO {
            0.0
        } else {
            self.read_retry_time.as_nanos() as f64 / total.as_nanos() as f64
        }
    }

    /// Fraction of requests that arrived while the system was busy (joined a
    /// queue instead of finding idle chips), in `[0, 1]`. Zero when the replay
    /// served no requests. At fixed mean rate this is the headline burstiness
    /// symptom: uniform arrivals below saturation keep it near zero, while
    /// Pareto/on-off arrivals concentrate requests into busy bursts.
    pub fn busy_arrival_fraction(&self) -> f64 {
        if self.host_requests == 0 {
            0.0
        } else {
            self.busy_arrivals as f64 / self.host_requests as f64
        }
    }

    /// Host page operations (reads + writes, counted per logical page, not per
    /// request) served per second of simulated device time (chip-interleaved), or
    /// zero when no makespan was recorded. Divide by the workload's mean pages per
    /// request to get a request rate.
    pub fn host_ops_per_sec(&self) -> f64 {
        if self.device_makespan == Nanos::ZERO {
            0.0
        } else {
            (self.host_reads + self.host_writes) as f64 / self.device_makespan.as_secs_f64()
        }
    }

    /// Achieved IOPS: host requests completed per second of replay-clock time
    /// ([`RunSummary::host_elapsed`]), or zero when no elapsed time was recorded.
    /// This is the throughput the queue-depth sweep reports — at depth 1 it is the
    /// reciprocal of the mean request latency, and it grows with depth as long as
    /// independent requests land on distinct idle chips.
    pub fn request_iops(&self) -> f64 {
        if self.host_elapsed == Nanos::ZERO {
            0.0
        } else {
            self.host_requests as f64 / self.host_elapsed.as_secs_f64()
        }
    }

    /// Offered IOPS: host requests per second of (rate-scaled) arrival-clock time
    /// — the load an open-loop replay *asked* the device to absorb. Zero for
    /// closed-loop replays (no [`RunSummary::offered_duration`] is recorded). The
    /// achieved [`RunSummary::request_iops`] never exceeds this: the replay clock
    /// runs at least as long as the arrival clock, so a device that keeps up
    /// achieves ≈ offered and an overloaded one falls behind.
    pub fn offered_iops(&self) -> f64 {
        if self.offered_duration == Nanos::ZERO {
            0.0
        } else {
            self.host_requests as f64 / self.offered_duration.as_secs_f64()
        }
    }
}

impl fmt::Display for RunSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: {} reads ({} total, {} mean), {} writes ({} total, {} mean), {} erases, WAF {:.3}",
            self.trace,
            self.ftl,
            self.host_reads,
            self.read_time,
            self.mean_read_latency,
            self.host_writes,
            self.write_time,
            self.mean_write_latency,
            self.erased_blocks,
            self.write_amplification,
        )?;
        if self.host_elapsed > Nanos::ZERO {
            match self.mode {
                ReplayMode::ClosedLoop => write!(
                    f,
                    ", QD{} {:.0} IOPS (read p99 {}, write p99 {})",
                    self.queue_depth,
                    self.request_iops(),
                    self.read_latency.p99,
                    self.write_latency.p99,
                )?,
                ReplayMode::OpenLoop { rate_scale } => write!(
                    f,
                    ", open-loop x{rate_scale} {:.0}/{:.0} IOPS achieved/offered \
                     (queue delay p99 {}, service p99 {}, peak QD {}, {:.0}% busy arrivals)",
                    self.request_iops(),
                    self.offered_iops(),
                    self.queue_delay.p99,
                    self.service_time.p99,
                    self.peak_queue_depth,
                    self.busy_arrival_fraction() * 100.0,
                )?,
            }
        }
        if self.retried_reads > 0 || self.uncorrectable_reads > 0 || self.bad_blocks_grown > 0 {
            write!(
                f,
                ", faults: {} retried reads ({:.2}% of host time), {} uncorrectable, \
                 {} bad blocks, {} remaps",
                self.retried_reads,
                self.retry_latency_fraction() * 100.0,
                self.uncorrectable_reads,
                self.bad_blocks_grown,
                self.remapped_writes,
            )?;
            if self.time_to_read_only > Nanos::ZERO {
                write!(f, ", read-only at {}", self.time_to_read_only)?;
            }
        }
        Ok(())
    }
}

/// A baseline-versus-variant comparison of two runs of the same trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The baseline run (the paper's "conventional FTL").
    pub baseline: RunSummary,
    /// The variant run (the paper's "FTL with PPB strategy").
    pub variant: RunSummary,
}

impl Comparison {
    /// Pairs a baseline run with a variant run.
    pub fn new(baseline: RunSummary, variant: RunSummary) -> Self {
        Comparison { baseline, variant }
    }

    fn enhancement_pct(baseline: Nanos, variant: Nanos) -> f64 {
        if baseline == Nanos::ZERO {
            0.0
        } else {
            (baseline.as_nanos() as f64 - variant.as_nanos() as f64) / baseline.as_nanos() as f64
                * 100.0
        }
    }

    /// Read performance enhancement in percent (positive = the variant is faster).
    /// This is the quantity plotted in Figure 12.
    pub fn read_enhancement_pct(&self) -> f64 {
        Self::enhancement_pct(self.baseline.read_time, self.variant.read_time)
    }

    /// Write performance enhancement in percent (positive = the variant is faster).
    /// This is the quantity plotted in Figure 15.
    pub fn write_enhancement_pct(&self) -> f64 {
        Self::enhancement_pct(self.baseline.write_time, self.variant.write_time)
    }

    /// Relative change in erased blocks in percent (positive = the variant erased
    /// more). The paper's Figure 18 argues this stays near zero.
    pub fn erase_increase_pct(&self) -> f64 {
        if self.baseline.erased_blocks == 0 {
            0.0
        } else {
            (self.variant.erased_blocks as f64 - self.baseline.erased_blocks as f64)
                / self.baseline.erased_blocks as f64
                * 100.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(reads: u64, read_us: u64, writes: u64, write_us: u64, erased: u64) -> FtlMetrics {
        let mut m = FtlMetrics::new();
        for _ in 0..reads {
            m.record_host_read(Nanos::from_micros(read_us));
        }
        for _ in 0..writes {
            m.record_host_write(Nanos::from_micros(write_us));
        }
        m.record_gc(0, erased, Nanos::ZERO);
        m
    }

    #[test]
    fn summary_from_delta_excludes_warmup() {
        let start = metrics(10, 100, 10, 600, 2);
        let mut end = start;
        end.record_host_read(Nanos::from_micros(50));
        end.record_host_write(Nanos::from_micros(700));
        end.record_gc(3, 1, Nanos::from_millis(4));
        let summary = RunSummary::from_metrics_delta("ppb", "web", &start, &end);
        assert_eq!(summary.host_reads, 1);
        assert_eq!(summary.host_writes, 1);
        assert_eq!(summary.read_time, Nanos::from_micros(50));
        assert_eq!(summary.write_time, Nanos::from_micros(700));
        assert_eq!(summary.erased_blocks, 1);
        assert_eq!(summary.gc_copied_pages, 3);
        assert_eq!(summary.write_amplification, 4.0);
        assert!(summary.to_string().contains("web/ppb"));
    }

    #[test]
    fn zero_request_summaries_do_not_divide_by_zero() {
        let m = FtlMetrics::new();
        let summary = RunSummary::from_metrics_delta("x", "y", &m, &m);
        assert_eq!(summary.mean_read_latency, Nanos::ZERO);
        assert_eq!(summary.mean_write_latency, Nanos::ZERO);
        assert_eq!(summary.write_amplification, 0.0);
        assert_eq!(summary.request_iops(), 0.0);
        assert_eq!(summary.queue_depth, 1);
        assert_eq!(summary.read_latency, LatencyPercentiles::default());
    }

    #[test]
    fn request_iops_uses_the_replay_clock() {
        let m = FtlMetrics::new();
        let mut summary = RunSummary::from_metrics_delta("x", "y", &m, &m);
        summary.host_requests = 2_000;
        summary.host_elapsed = Nanos::from_millis(500);
        assert_eq!(summary.request_iops(), 4_000.0);
        summary.queue_depth = 16;
        assert!(summary.to_string().contains("QD16"), "display shows depth: {summary}");
    }

    #[test]
    fn offered_iops_uses_the_arrival_clock() {
        let m = FtlMetrics::new();
        let mut summary = RunSummary::from_metrics_delta("x", "y", &m, &m);
        assert_eq!(summary.offered_iops(), 0.0, "closed loop offers nothing");
        summary.host_requests = 1_000;
        summary.host_elapsed = Nanos::from_millis(250);
        summary.offered_duration = Nanos::from_millis(100);
        summary.mode = ReplayMode::OpenLoop { rate_scale: 2.0 };
        assert_eq!(summary.offered_iops(), 10_000.0);
        assert_eq!(summary.request_iops(), 4_000.0);
        let text = summary.to_string();
        assert!(text.contains("open-loop x2"), "display names the mode: {text}");
        assert!(text.contains("achieved/offered"), "{text}");
    }

    #[test]
    fn reliability_metrics_flow_through_the_delta() {
        let mut start = FtlMetrics::new();
        start.record_read_retries(2, Nanos::from_micros(50));
        let mut end = start;
        end.record_host_read(Nanos::from_micros(100));
        end.record_host_write(Nanos::from_micros(300));
        end.record_read_retries(3, Nanos::from_micros(100));
        end.record_uncorrectable_read();
        end.record_bad_block();
        end.record_remap();
        end.record_read_only(Nanos::from_millis(7));
        let summary = RunSummary::from_metrics_delta("ppb", "t", &start, &end);
        assert_eq!(summary.retried_reads, 1);
        assert_eq!(summary.read_retry_time, Nanos::from_micros(100));
        assert_eq!(summary.uncorrectable_reads, 1);
        assert_eq!(summary.bad_blocks_grown, 1);
        assert_eq!(summary.remapped_writes, 1);
        assert_eq!(summary.time_to_read_only, Nanos::from_millis(7));
        assert!((summary.retry_latency_fraction() - 0.25).abs() < 1e-12);
        let text = summary.to_string();
        assert!(text.contains("1 retried reads"), "{text}");
        assert!(text.contains("read-only at"), "{text}");

        // A transition that happened before the measured phase is not re-reported.
        let mut warm = FtlMetrics::new();
        warm.record_read_only(Nanos::from_millis(1));
        let again = RunSummary::from_metrics_delta("ppb", "t", &warm, &warm);
        assert_eq!(again.time_to_read_only, Nanos::ZERO);
    }

    #[test]
    fn fault_free_summaries_stay_quiet() {
        let summary = RunSummary::from_metrics_delta(
            "conventional",
            "t",
            &FtlMetrics::new(),
            &metrics(10, 100, 10, 600, 2),
        );
        assert_eq!(summary.retried_reads, 0);
        assert_eq!(summary.retry_latency_fraction(), 0.0);
        assert!(!summary.to_string().contains("faults:"));
    }

    #[test]
    fn enhancement_percentages() {
        let baseline = RunSummary::from_metrics_delta(
            "conventional",
            "t",
            &FtlMetrics::new(),
            &metrics(10, 100, 10, 600, 10),
        );
        let variant = RunSummary::from_metrics_delta(
            "ppb",
            "t",
            &FtlMetrics::new(),
            &metrics(10, 80, 10, 600, 11),
        );
        let comparison = Comparison::new(baseline, variant);
        assert!((comparison.read_enhancement_pct() - 20.0).abs() < 1e-9);
        assert!(comparison.write_enhancement_pct().abs() < 1e-9);
        assert!((comparison.erase_increase_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_baselines_report_zero_enhancement() {
        let empty = RunSummary::from_metrics_delta("a", "t", &FtlMetrics::new(), &FtlMetrics::new());
        let comparison = Comparison::new(empty.clone(), empty);
        assert_eq!(comparison.read_enhancement_pct(), 0.0);
        assert_eq!(comparison.write_enhancement_pct(), 0.0);
        assert_eq!(comparison.erase_increase_pct(), 0.0);
    }
}
