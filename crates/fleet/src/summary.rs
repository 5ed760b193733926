//! The measurements of one fleet run: per-device summaries plus the host-tier
//! quantities no single device can report — fan-out tail amplification, cache
//! effectiveness, and per-tenant shares.

use vflash_nand::Nanos;
use vflash_sim::{LatencyPercentiles, ReplayMode, RunSummary};

use crate::cache::CacheStats;

/// One tenant's share of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// The tenant's name.
    pub name: String,
    /// The QoS weight the tenant was dispatched under.
    pub weight: u64,
    /// Host requests the tenant completed.
    pub requests: u64,
    /// Per-request completion-latency percentiles of the tenant's requests.
    pub latency: LatencyPercentiles,
    /// Replay-clock instant of the tenant's last completion.
    pub last_completion: Nanos,
}

impl TenantSummary {
    /// The tenant's achieved request rate: requests per second of replay-clock
    /// time up to its last completion. Zero when the tenant completed nothing.
    pub fn achieved_iops(&self) -> f64 {
        if self.last_completion == Nanos::ZERO {
            0.0
        } else {
            self.requests as f64 / self.last_completion.as_secs_f64()
        }
    }
}

/// The measurements of one trace replay against a device fleet.
///
/// The per-device [`RunSummary`]s carry everything a single device reports
/// (offered vs achieved IOPS, latency splits, GC and fault counters); the
/// fleet-level fields add what only the host tier can see: the **fan-out**
/// distribution (per-request latency = max over the request's stripes) next to
/// the **stripe** distribution (each per-device sub-request on its own), whose
/// tail ratio is the fan-out amplification the fleet exists to measure.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Name of the FTL serving every lane (lanes are homogeneous).
    pub ftl: String,
    /// Name of the replayed trace.
    pub trace: String,
    /// Number of devices the keyspace was striped over.
    pub width: usize,
    /// One single-device summary per lane, in lane order. At width 1 with the
    /// cache disabled, `lanes[0]` is bit-identical to a single-device
    /// [`WorkloadDriver`](vflash_sim::WorkloadDriver) run of the same trace.
    pub lanes: Vec<RunSummary>,
    /// The arrival discipline the replay was driven under.
    pub mode: ReplayMode,
    /// Closed-loop queue depth (`0` for open loop, matching [`RunSummary`]).
    pub queue_depth: usize,
    /// Host requests replayed in the measured phase, fleet-wide.
    pub host_requests: u64,
    /// Replay-clock time at which the last request completed.
    pub host_elapsed: Nanos,
    /// For open-loop replays: the span of the (rate-scaled) arrival clock.
    /// [`Nanos::ZERO`] for closed loop.
    pub offered_duration: Nanos,
    /// Largest number of host requests simultaneously outstanding.
    pub peak_queue_depth: usize,
    /// Requests that arrived while an earlier request was still in flight.
    pub busy_arrivals: u64,
    /// Per-request fan-out latency percentiles of read requests: each sample is
    /// the **max over the request's per-device stripes** (plus any cache time).
    pub fanout_read_latency: LatencyPercentiles,
    /// Per-request fan-out latency percentiles of write requests.
    pub fanout_write_latency: LatencyPercentiles,
    /// Per-stripe latency percentiles of read requests: each per-device
    /// sub-request contributes one sample — the single-device distribution the
    /// fan-out tail is compared against.
    pub stripe_read_latency: LatencyPercentiles,
    /// Per-stripe latency percentiles of write requests.
    pub stripe_write_latency: LatencyPercentiles,
    /// Writeback-cache counters (all zero when the cache is disabled).
    pub cache: CacheStats,
    /// Per-tenant shares, in tenant order.
    pub tenants: Vec<TenantSummary>,
}

impl FleetSummary {
    /// Achieved IOPS fleet-wide: host requests per second of replay-clock time.
    pub fn request_iops(&self) -> f64 {
        if self.host_elapsed == Nanos::ZERO {
            0.0
        } else {
            self.host_requests as f64 / self.host_elapsed.as_secs_f64()
        }
    }

    /// Offered IOPS fleet-wide (open loop only; zero for closed loop).
    pub fn offered_iops(&self) -> f64 {
        if self.offered_duration == Nanos::ZERO {
            0.0
        } else {
            self.host_requests as f64 / self.offered_duration.as_secs_f64()
        }
    }

    /// Fraction of requests that arrived while the fleet was busy, in `[0, 1]`.
    pub fn busy_arrival_fraction(&self) -> f64 {
        if self.host_requests == 0 {
            0.0
        } else {
            self.busy_arrivals as f64 / self.host_requests as f64
        }
    }

    /// Read fan-out tail amplification: fan-out p99.9 over stripe p99.9. A
    /// request striped over N devices completes at the max of its stripes, so
    /// this ratio grows with the stripe width — the core fleet-scale effect.
    /// Zero when no read stripe was served.
    pub fn read_tail_amplification(&self) -> f64 {
        let (fanout, stripe) = (self.fanout_read_latency.p999, self.stripe_read_latency.p999);
        if stripe == Nanos::ZERO {
            0.0
        } else {
            fanout.as_nanos() as f64 / stripe.as_nanos() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_summary() -> FleetSummary {
        FleetSummary {
            ftl: "conventional".into(),
            trace: "t".into(),
            width: 2,
            lanes: Vec::new(),
            mode: ReplayMode::ClosedLoop,
            queue_depth: 1,
            host_requests: 0,
            host_elapsed: Nanos::ZERO,
            offered_duration: Nanos::ZERO,
            peak_queue_depth: 0,
            busy_arrivals: 0,
            fanout_read_latency: LatencyPercentiles::default(),
            fanout_write_latency: LatencyPercentiles::default(),
            stripe_read_latency: LatencyPercentiles::default(),
            stripe_write_latency: LatencyPercentiles::default(),
            cache: CacheStats::default(),
            tenants: Vec::new(),
        }
    }

    #[test]
    fn empty_runs_report_zero_rates_and_amplification() {
        let summary = empty_summary();
        assert_eq!(summary.request_iops(), 0.0);
        assert_eq!(summary.offered_iops(), 0.0);
        assert_eq!(summary.busy_arrival_fraction(), 0.0);
        assert_eq!(summary.read_tail_amplification(), 0.0);
    }

    #[test]
    fn amplification_is_the_p999_ratio() {
        let mut summary = empty_summary();
        summary.fanout_read_latency.p999 = Nanos(300);
        summary.stripe_read_latency.p999 = Nanos(100);
        assert!((summary.read_tail_amplification() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tenant_iops_uses_its_own_completion_clock() {
        let tenant = TenantSummary {
            name: "gold".into(),
            weight: 2,
            requests: 500,
            latency: LatencyPercentiles::default(),
            last_completion: Nanos::from_millis(250),
        };
        assert_eq!(tenant.achieved_iops(), 2_000.0);
        let idle = TenantSummary { requests: 0, last_completion: Nanos::ZERO, ..tenant };
        assert_eq!(idle.achieved_iops(), 0.0);
    }
}
