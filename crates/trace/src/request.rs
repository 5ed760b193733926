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
        PageSplitter::new(page_size).pages(*self)
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
    pub fn pages(&self, request: IoRequest) -> std::ops::Range<u64> {
        let last_byte = request.offset + u64::from(request.length) - 1;
        match self.shift {
            Some(shift) => (request.offset >> shift)..(last_byte >> shift) + 1,
            None => (request.offset / self.page_size)..(last_byte / self.page_size) + 1,
        }
    }
}

/// Bits of a packed record's word that hold the byte offset.
const OFFSET_BITS: u32 = 40;
/// Bits of a packed record's word that hold `length - 1`.
const LENGTH_BITS: u32 = 23;
/// The word of a record whose request is in the side table, at the index the
/// record's first field holds. No packed word equals it: that would take the
/// offset `2^40 - 1`, which is stored wide.
const WIDE: u64 = u64::MAX;

/// One request of a [`Trace`] in 16 bytes: the arrival time, then a word
/// holding the offset (bits 24..64), `length - 1` (bits 1..24) and the op
/// (bit 0, set for a write).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    at_nanos: u64,
    word: u64,
}

impl Record {
    /// `request` packed, or `None` when its offset or length does not fit the
    /// word (or its length is zero, which only a struct literal can make).
    fn pack(request: IoRequest) -> Option<Record> {
        let fits = request.offset < (1 << OFFSET_BITS) - 1
            && (1..=1 << LENGTH_BITS).contains(&request.length);
        fits.then(|| Record {
            at_nanos: request.at_nanos,
            word: request.offset << (LENGTH_BITS + 1)
                | u64::from(request.length - 1) << 1
                | u64::from(request.op == IoOp::Write),
        })
    }

    /// The request this record holds; `wide` is its trace's side table.
    #[inline]
    fn unpack(self, wide: &[IoRequest]) -> IoRequest {
        if self.word == WIDE {
            return wide[self.at_nanos as usize];
        }
        IoRequest {
            at_nanos: self.at_nanos,
            op: if self.word & 1 == 0 { IoOp::Read } else { IoOp::Write },
            offset: self.word >> (LENGTH_BITS + 1),
            length: ((self.word >> 1) & ((1 << LENGTH_BITS) - 1)) as u32 + 1,
        }
    }
}

/// An ordered sequence of I/O requests, 16 bytes per request.
///
/// Time ordering is *not* validated — real traces contain ties and minor
/// inversions. A request is stored packed (see `Record`) when its offset is
/// below `2^40 - 1` (1 TiB) and its length at most `2^23` bytes (8 MiB), as
/// every request of the stock synthetic workloads is. One that does not fit
/// is kept whole in a side
/// table — 16 bytes of record plus 24 of side entry — so any [`IoRequest`]
/// comes back exactly as it went in. Requests are yielded by value.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Trace {
    name: String,
    records: Vec<Record>,
    /// The requests that do not pack, in trace order. Only `push` adds to a
    /// trace and nothing removes from one, so the table holds exactly the
    /// wide requests of `records`: equal requests are equal fields, and the
    /// derived `PartialEq` means "same name, same requests".
    wide: Vec<IoRequest>,
}

impl Trace {
    /// Creates a trace from a name and request list.
    pub fn new(name: impl Into<String>, requests: Vec<IoRequest>) -> Self {
        let mut trace = Trace::with_capacity(name, requests.len());
        trace.extend(requests);
        trace
    }

    /// An empty trace with room for `capacity` requests: what a generator or
    /// parser pushes into, so no second copy of the requests ever exists.
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> Self {
        Trace { name: name.into(), records: Vec::with_capacity(capacity), wide: Vec::new() }
    }

    /// Appends `request`.
    pub fn push(&mut self, request: IoRequest) {
        let record = Record::pack(request).unwrap_or_else(|| {
            self.wide.push(request);
            Record { at_nanos: (self.wide.len() - 1) as u64, word: WIDE }
        });
        self.records.push(record);
    }

    /// Human-readable name of the workload (e.g. `"media-server"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace contains no requests.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The whole trace as a [`TraceSlice`].
    pub fn as_slice(&self) -> TraceSlice<'_> {
        TraceSlice { name: &self.name, records: &self.records, wide: &self.wide }
    }

    /// The request at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<IoRequest> {
        self.as_slice().get(index)
    }

    /// Iterates over the requests in arrival order.
    pub fn iter(&self) -> TraceIter<'_> {
        self.as_slice().iter()
    }

    /// Computes summary statistics for the trace.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_requests(self)
    }

    /// Arrival time of the first request, or `None` for an empty trace.
    pub fn first_arrival_nanos(&self) -> Option<u64> {
        self.get(0).map(|request| request.at_nanos)
    }

    /// The largest recorded arrival time, or `None` for an empty trace. Real traces
    /// may contain minor timestamp inversions, so this scans rather than trusting
    /// the last entry.
    pub fn last_arrival_nanos(&self) -> Option<u64> {
        self.iter().map(|request| request.at_nanos).max()
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
            self.len() as f64 / (span as f64 / 1e9)
        }
    }

    /// Returns a copy of this trace truncated to at most `limit` requests, useful for
    /// keeping benchmark iterations short.
    pub fn truncated(&self, limit: usize) -> Trace {
        let mut cut = Trace::with_capacity(self.name.clone(), limit.min(self.len()));
        cut.extend(self.iter().take(limit));
        cut
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// A run of consecutive requests of a [`Trace`], under the trace's name: what
/// a replay reads. `&Trace` converts into the whole trace, and
/// [`TraceSlice::split_at`] cuts a slice in two without copying a request.
#[derive(Clone, Copy)]
pub struct TraceSlice<'a> {
    name: &'a str,
    records: &'a [Record],
    /// The whole trace's side table: wide records index it absolutely.
    wide: &'a [IoRequest],
}

impl<'a> TraceSlice<'a> {
    /// The name of the trace this slice is of.
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the slice contains no requests.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The request at `index`, or `None` past the end.
    #[inline]
    pub fn get(&self, index: usize) -> Option<IoRequest> {
        self.records.get(index).map(|record| record.unpack(self.wide))
    }

    /// Iterates over the requests in arrival order.
    pub fn iter(&self) -> TraceIter<'a> {
        TraceIter { records: self.records.iter(), wide: self.wide }
    }

    /// The first `mid` requests and the rest.
    ///
    /// # Panics
    ///
    /// Panics if `mid` exceeds the length.
    pub fn split_at(self, mid: usize) -> (TraceSlice<'a>, TraceSlice<'a>) {
        let (head, tail) = self.records.split_at(mid);
        (TraceSlice { records: head, ..self }, TraceSlice { records: tail, ..self })
    }
}

/// Prints the requests, not their packed records.
impl fmt::Debug for TraceSlice<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("name", &self.name)
            .field("requests", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

impl<'a> From<&'a Trace> for TraceSlice<'a> {
    fn from(trace: &'a Trace) -> Self {
        trace.as_slice()
    }
}

/// The requests of a [`Trace`] or [`TraceSlice`], by value.
#[derive(Debug, Clone)]
pub struct TraceIter<'a> {
    records: std::slice::Iter<'a, Record>,
    wide: &'a [IoRequest],
}

impl Iterator for TraceIter<'_> {
    type Item = IoRequest;

    #[inline]
    fn next(&mut self) -> Option<IoRequest> {
        self.records.next().map(|record| record.unpack(self.wide))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl ExactSizeIterator for TraceIter<'_> {}

impl<'a> IntoIterator for &'a Trace {
    type Item = IoRequest;
    type IntoIter = TraceIter<'a>;

    fn into_iter(self) -> TraceIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for TraceSlice<'a> {
    type Item = IoRequest;
    type IntoIter = TraceIter<'a>;

    fn into_iter(self) -> TraceIter<'a> {
        self.iter()
    }
}

impl FromIterator<IoRequest> for Trace {
    fn from_iter<T: IntoIterator<Item = IoRequest>>(iter: T) -> Self {
        let mut trace = Trace::with_capacity("unnamed", 0);
        trace.extend(iter);
        trace
    }
}

impl Extend<IoRequest> for Trace {
    fn extend<T: IntoIterator<Item = IoRequest>>(&mut self, iter: T) {
        let iter = iter.into_iter();
        self.records.reserve(iter.size_hint().0);
        for request in iter {
            self.push(request);
        }
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
        assert_eq!(cut.get(2), Some(reqs[2]));
        assert_eq!(cut.get(3), None);
        assert_eq!(cut.iter().collect::<Vec<_>>(), &reqs[..3]);
        assert_eq!(cut.name(), "t");
    }

    #[test]
    fn a_record_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 16);
    }
}
