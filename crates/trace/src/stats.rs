//! Summary statistics of a trace.

use crate::request::{IoOp, IoRequest};

/// Aggregate statistics describing a workload.
///
/// The fields the PPB strategy is sensitive to are the *re-access* measures: how often
/// a logical region is read again after being written (`reread_fraction`), which is
/// exactly the behaviour that makes fast pages valuable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceStats {
    /// Number of read requests.
    pub reads: u64,
    /// Number of write requests.
    pub writes: u64,
    /// Total bytes read.
    pub read_bytes: u64,
    /// Total bytes written.
    pub write_bytes: u64,
    /// Mean request size in bytes across all requests.
    pub mean_request_bytes: f64,
    /// Number of distinct 4 KiB-aligned logical regions touched.
    pub unique_regions: u64,
    /// Fraction of requests whose 4 KiB region had been accessed before (temporal
    /// locality / re-access skew), in `[0, 1]`.
    pub reread_fraction: f64,
    /// Fraction of requests whose offset immediately follows the previous request
    /// (sequentiality), in `[0, 1]`.
    pub sequential_fraction: f64,
}

impl TraceStats {
    /// Computes statistics over a sequence of requests.
    pub fn from_requests(requests: impl IntoIterator<Item = IoRequest>) -> TraceStats {
        const REGION: u64 = 4096;
        let requests = requests.into_iter();
        let mut stats = TraceStats::default();
        let mut regions = Vec::with_capacity(requests.size_hint().0);
        let mut sequential = 0u64;
        let mut previous_end: Option<u64> = None;
        let mut total_bytes = 0u64;

        for req in requests {
            match req.op {
                IoOp::Read => {
                    stats.reads += 1;
                    stats.read_bytes += u64::from(req.length);
                }
                IoOp::Write => {
                    stats.writes += 1;
                    stats.write_bytes += u64::from(req.length);
                }
            }
            total_bytes += u64::from(req.length);
            regions.push(req.offset / REGION);
            if previous_end == Some(req.offset) {
                sequential += 1;
            }
            previous_end = Some(req.offset + u64::from(req.length));
        }

        let total = stats.reads + stats.writes;
        if total == 0 {
            return stats;
        }
        // Every request but the first to touch its region is a re-access.
        regions.sort_unstable();
        regions.dedup();
        let unique = regions.len() as u64;
        stats.mean_request_bytes = total_bytes as f64 / total as f64;
        stats.unique_regions = unique;
        stats.reread_fraction = (total - unique) as f64 / total as f64;
        stats.sequential_fraction = sequential as f64 / total as f64;
        stats
    }

    /// Total number of requests.
    pub fn total_requests(&self) -> u64 {
        self.reads + self.writes
    }

    /// Read share of the request count, in `[0, 1]` (zero for an empty trace).
    pub fn read_ratio(&self) -> f64 {
        let total = self.total_requests();
        if total == 0 {
            0.0
        } else {
            self.reads as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(at: u64, op: IoOp, offset: u64, length: u32) -> IoRequest {
        IoRequest::new(at, op, offset, length)
    }

    #[test]
    fn empty_trace_has_zero_stats() {
        let stats = TraceStats::from_requests([]);
        assert_eq!(stats.total_requests(), 0);
        assert_eq!(stats.read_ratio(), 0.0);
    }

    #[test]
    fn counts_and_bytes_split_by_direction() {
        let reqs = [
            req(0, IoOp::Write, 0, 4096),
            req(1, IoOp::Read, 0, 8192),
            req(2, IoOp::Read, 8192, 4096),
        ];
        let stats = TraceStats::from_requests(reqs);
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.read_bytes, 12288);
        assert_eq!(stats.write_bytes, 4096);
        assert!((stats.read_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert!((stats.mean_request_bytes - 16384.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn reread_fraction_detects_temporal_locality() {
        let reqs = [
            req(0, IoOp::Write, 0, 4096),
            req(1, IoOp::Read, 0, 4096),
            req(2, IoOp::Read, 0, 4096),
            req(3, IoOp::Read, 40960, 4096),
        ];
        let stats = TraceStats::from_requests(reqs);
        assert_eq!(stats.unique_regions, 2);
        assert!((stats.reread_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sequential_fraction_detects_streams() {
        let reqs = [
            req(0, IoOp::Read, 0, 4096),
            req(1, IoOp::Read, 4096, 4096),
            req(2, IoOp::Read, 8192, 4096),
            req(3, IoOp::Read, 1_000_000, 4096),
        ];
        let stats = TraceStats::from_requests(reqs);
        assert!((stats.sequential_fraction - 0.5).abs() < 1e-12);
    }
}
