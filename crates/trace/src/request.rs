//! I/O request and trace containers.

use std::fmt;

use crate::stats::TraceStats;

/// Direction of an I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// A block read.
    Read,
    /// A block write.
    Write,
}

impl fmt::Display for IoOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IoOp::Read => "read",
            IoOp::Write => "write",
        })
    }
}

/// A single block-level I/O request.
///
/// Offsets and lengths are in bytes, matching the MSR-Cambridge trace format; the FTL
/// converts them into logical page numbers with [`IoRequest::logical_pages`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IoRequest {
    /// Arrival time in nanoseconds from the start of the trace.
    pub at_nanos: u64,
    /// Read or write.
    pub op: IoOp,
    /// Byte offset of the first byte accessed.
    pub offset: u64,
    /// Number of bytes accessed (never zero).
    pub length: u32,
}

impl IoRequest {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero: zero-length I/O has no meaning for an FTL and is
    /// always a generator or parser bug. Panics too if `offset + length` exceeds
    /// `u64::MAX`: such a range has no logical pages.
    pub fn new(at_nanos: u64, op: IoOp, offset: u64, length: u32) -> Self {
        assert!(length > 0, "I/O requests must access at least one byte");
        assert!(
            offset.checked_add(u64::from(length)).is_some(),
            "I/O requests must end within the 64-bit byte address space"
        );
        IoRequest { at_nanos, op, offset, length }
    }

    /// The logical page numbers touched by this request for the given page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    pub fn logical_pages(&self, page_size: usize) -> std::ops::Range<u64> {
        PageSplitter::new(page_size).pages(self)
    }
}

/// [`IoRequest::logical_pages`] for one fixed page size, prepared once per run: a
/// power-of-two page size (every stock geometry) turns the two divisions per
/// request into shifts; any other size divides as before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageSplitter {
    page_size: u64,
    /// `log2(page_size)` when it is a power of two.
    shift: Option<u32>,
}

impl PageSplitter {
    /// Prepares the split for `page_size`-byte pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        let shift = page_size.is_power_of_two().then(|| page_size.trailing_zeros());
        PageSplitter { page_size: page_size as u64, shift }
    }

    /// The logical page numbers `request` touches.
    pub fn pages(&self, request: &IoRequest) -> std::ops::Range<u64> {
        let last_byte = request.offset + u64::from(request.length) - 1;
        match self.shift {
            Some(shift) => (request.offset >> shift)..(last_byte >> shift) + 1,
            None => (request.offset / self.page_size)..(last_byte / self.page_size) + 1,
        }
    }
}

/// An ordered sequence of I/O requests.
///
/// Construction goes through [`Trace::new`] (validating time ordering is *not*
/// required — real traces contain ties and minor inversions — but requests must be
/// non-empty length, which [`IoRequest::new`] already enforces).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    name: String,
    requests: Vec<IoRequest>,
}

impl Trace {
    /// Creates a trace from a name and request list.
    pub fn new(name: impl Into<String>, requests: Vec<IoRequest>) -> Self {
        Trace { name: name.into(), requests }
    }

    /// Human-readable name of the workload (e.g. `"media-server"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace contains no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Iterates over the requests in arrival order.
    pub fn iter(&self) -> std::slice::Iter<'_, IoRequest> {
        self.requests.iter()
    }

    /// Borrow the raw request slice.
    pub fn requests(&self) -> &[IoRequest] {
        &self.requests
    }

    /// Computes summary statistics for the trace.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_requests(&self.requests)
    }

    /// Arrival time of the first request, or `None` for an empty trace.
    pub fn first_arrival_nanos(&self) -> Option<u64> {
        self.requests.first().map(|request| request.at_nanos)
    }

    /// The largest recorded arrival time, or `None` for an empty trace. Real traces
    /// may contain minor timestamp inversions, so this scans rather than trusting
    /// the last entry.
    pub fn last_arrival_nanos(&self) -> Option<u64> {
        self.requests.iter().map(|request| request.at_nanos).max()
    }

    /// The span of the recorded arrival clock: largest arrival minus first arrival.
    /// Zero for traces with fewer than two requests. This is the duration an
    /// open-loop replay offers the trace's load over.
    pub fn arrival_span_nanos(&self) -> u64 {
        match (self.first_arrival_nanos(), self.last_arrival_nanos()) {
            (Some(first), Some(last)) => last.saturating_sub(first),
            _ => 0,
        }
    }

    /// The request rate the trace's timestamps encode (requests per second over the
    /// arrival span), or zero when the span is zero. An open-loop replay at
    /// `rate_scale = 1` offers exactly this rate.
    pub fn offered_iops(&self) -> f64 {
        let span = self.arrival_span_nanos();
        if span == 0 {
            0.0
        } else {
            self.requests.len() as f64 / (span as f64 / 1e9)
        }
    }

    /// Returns a copy of this trace truncated to at most `limit` requests, useful for
    /// keeping benchmark iterations short.
    pub fn truncated(&self, limit: usize) -> Trace {
        Trace {
            name: self.name.clone(),
            requests: self.requests.iter().take(limit).copied().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a IoRequest;
    type IntoIter = std::slice::Iter<'a, IoRequest>;

    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
    }
}

impl IntoIterator for Trace {
    type Item = IoRequest;
    type IntoIter = std::vec::IntoIter<IoRequest>;

    fn into_iter(self) -> Self::IntoIter {
        self.requests.into_iter()
    }
}

impl FromIterator<IoRequest> for Trace {
    fn from_iter<T: IntoIterator<Item = IoRequest>>(iter: T) -> Self {
        Trace { name: String::from("unnamed"), requests: iter.into_iter().collect() }
    }
}

impl Extend<IoRequest> for Trace {
    fn extend<T: IntoIterator<Item = IoRequest>>(&mut self, iter: T) {
        self.requests.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_pages_follow_the_page_size() {
        let req = IoRequest::new(0, IoOp::Write, 16 * 1024, 4 * 1024);
        assert_eq!(req.logical_pages(16 * 1024), 1..2);
        assert_eq!(req.logical_pages(4 * 1024), 4..5);
    }

    #[test]
    fn request_spanning_multiple_pages() {
        let req = IoRequest::new(0, IoOp::Read, 10_000, 40_000);
        // bytes [10000, 50000) with 16 KiB pages -> pages 0..4 (byte 49999 is page 3)
        assert_eq!(req.logical_pages(16 * 1024), 0..4);
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_length_requests_are_rejected() {
        let _ = IoRequest::new(0, IoOp::Read, 0, 0);
    }

    #[test]
    #[should_panic(expected = "64-bit byte address space")]
    fn requests_ending_past_the_address_space_are_rejected() {
        let _ = IoRequest::new(0, IoOp::Read, u64::MAX - 4_095, 4_096);
    }

    #[test]
    fn trace_collection_traits() {
        let reqs = [
            IoRequest::new(0, IoOp::Write, 0, 4096),
            IoRequest::new(10, IoOp::Read, 0, 4096),
        ];
        let trace: Trace = reqs.iter().copied().collect();
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
        let mut extended = trace.clone();
        extended.extend([IoRequest::new(20, IoOp::Read, 4096, 4096)]);
        assert_eq!(extended.len(), 3);
        assert_eq!(extended.iter().count(), 3);
        assert_eq!(extended.into_iter().count(), 3);
    }

    #[test]
    fn arrival_accessors_report_span_and_rate() {
        let trace = Trace::new(
            "t",
            vec![
                IoRequest::new(1_000, IoOp::Write, 0, 4096),
                // A minor inversion: the maximum is found anyway.
                IoRequest::new(2_000_000, IoOp::Read, 0, 4096),
                IoRequest::new(1_500_000, IoOp::Read, 4096, 4096),
            ],
        );
        assert_eq!(trace.first_arrival_nanos(), Some(1_000));
        assert_eq!(trace.last_arrival_nanos(), Some(2_000_000));
        assert_eq!(trace.arrival_span_nanos(), 1_999_000);
        // 3 requests over ~2 ms ≈ 1500 req/s.
        assert!((trace.offered_iops() - 3.0 / 1_999_000e-9).abs() < 1e-6);
    }

    #[test]
    fn empty_and_single_request_traces_offer_no_rate() {
        let empty = Trace::new("e", Vec::new());
        assert_eq!(empty.first_arrival_nanos(), None);
        assert_eq!(empty.arrival_span_nanos(), 0);
        assert_eq!(empty.offered_iops(), 0.0);
        let one = Trace::new("o", vec![IoRequest::new(42, IoOp::Read, 0, 4096)]);
        assert_eq!(one.arrival_span_nanos(), 0);
        assert_eq!(one.offered_iops(), 0.0);
    }

    #[test]
    fn truncation_preserves_prefix() {
        let reqs: Vec<_> =
            (0..10).map(|i| IoRequest::new(i, IoOp::Read, i * 4096, 4096)).collect();
        let trace = Trace::new("t", reqs.clone());
        let cut = trace.truncated(3);
        assert_eq!(cut.len(), 3);
        assert_eq!(cut.requests(), &reqs[..3]);
        assert_eq!(cut.name(), "t");
    }
}
