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

/// Bits of a packed word that hold the byte offset.
const OFFSET_BITS: u32 = 40;
/// Bits of a packed word that hold `length - 1`.
const LENGTH_BITS: u32 = 23;
/// The word of a request kept whole in the side table, at the index its
/// 32-bit field holds. No packed word equals it: that would take the offset
/// `2^40 - 1`, which is stored wide.
const WIDE: u64 = u64::MAX;
/// `log2` of [`CHUNK`].
const CHUNK_BITS: u32 = 6;
/// Consecutive requests under one [`Chunk`] header.
const CHUNK: usize = 1 << CHUNK_BITS;
/// [`Chunk::far`] of a narrow chunk.
const NARROW: u32 = u32::MAX;

/// `request`'s offset (bits 24..64), `length - 1` (bits 1..24) and op (bit 0,
/// set for a write) in one word, or [`WIDE`] when its offset or length does
/// not fit (or its length is zero, which only a struct literal can make).
#[inline]
fn pack(request: IoRequest) -> u64 {
    let fits = request.offset < (1 << OFFSET_BITS) - 1
        && (1..=1 << LENGTH_BITS).contains(&request.length);
    if !fits {
        return WIDE;
    }
    request.offset << (LENGTH_BITS + 1)
        | u64::from(request.length - 1) << 1
        | u64::from(request.op == IoOp::Write)
}

/// The header of 64 consecutive requests of a [`Trace`] (the last chunk may
/// hold fewer), 16 bytes.
///
/// A chunk is *narrow* while the arrival of each of its packed requests lies
/// in `base..base + 2^32` ns: each stores its offset from `base` in its 32-bit
/// field. The first packed arrival outside that window (an inversion, or a
/// gap of 2^32 ns, about 4.3 s, or more) turns the chunk *far*: every request
/// of it, those already pushed included, then stores its arrival's low half
/// in its field and the high half in [`Trace`]'s `highs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chunk {
    /// The arrival of the chunk's first request.
    base: u64,
    /// [`NARROW`], or the ordinal of the far chunk among the trace's far
    /// chunks: its high halves are `highs[far * 64..]`, one per request.
    far: u32,
}

/// The parts of a [`Trace`] a request may need beyond its word and field,
/// indexed by the request's position in the whole trace.
#[derive(Debug, Clone, Copy)]
struct Headers<'a> {
    chunks: &'a [Chunk],
    highs: &'a [u32],
    wide: &'a [IoRequest],
}

impl Headers<'_> {
    /// The request at position `at` of the trace, stored as `word` and `field`.
    #[inline]
    fn unpack(&self, at: usize, word: u64, field: u32) -> IoRequest {
        if word == WIDE {
            return self.wide[field as usize];
        }
        let chunk = self.chunks[at >> CHUNK_BITS];
        let at_nanos = if chunk.far == NARROW {
            chunk.base + u64::from(field)
        } else {
            let high = self.highs[((chunk.far as usize) << CHUNK_BITS) | (at % CHUNK)];
            u64::from(high) << 32 | u64::from(field)
        };
        IoRequest {
            at_nanos,
            op: if word & 1 == 0 { IoOp::Read } else { IoOp::Write },
            offset: word >> (LENGTH_BITS + 1),
            length: ((word >> 1) & ((1 << LENGTH_BITS) - 1)) as u32 + 1,
        }
    }
}

/// An ordered sequence of I/O requests, 12 bytes per request plus a 16-byte
/// header per 64 requests.
///
/// Time ordering is *not* validated — real traces contain ties and minor
/// inversions. A request is stored as one packed word (offset, length, op)
/// and one 32-bit field, when its offset is below `2^40 - 1` (1 TiB) and its
/// length at most `2^23` bytes (8 MiB), as every request of the stock
/// synthetic workloads is. Every 64 consecutive requests (a *chunk*) share a
/// header holding their first arrival; in a *narrow* chunk the field is the
/// request's arrival offset from it. A chunk that meets an arrival before its
/// first one, or 2^32 ns (4.3 s) or more after it, turns *far* and keeps each
/// of its arrivals' high halves in a side vector: its requests cost 16 bytes.
/// A request that does not pack is kept whole in a side table, 24 bytes more,
/// so any [`IoRequest`] comes back exactly as it went in. Requests are
/// yielded by value.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Trace {
    name: String,
    /// Each request's packed word, or [`WIDE`].
    words: Vec<u64>,
    /// Each request's arrival offset from its chunk's base (narrow chunk),
    /// its arrival's low half (far chunk) or its index in `wide`.
    fields: Vec<u32>,
    /// One header per 64 requests; the last is the *open* chunk, which the
    /// next push fills unless it holds 64.
    chunks: Vec<Chunk>,
    /// The far chunks' arrival high halves, 64 per chunk (as many as it
    /// holds for the open chunk), 0 for a wide request.
    highs: Vec<u32>,
    /// The requests that do not pack, in trace order. Only `push` adds to a
    /// trace and nothing removes from one, and a chunk's mode is a function
    /// of the requests pushed into it, so equal requests are equal fields and
    /// the derived `PartialEq` means "same name, same requests".
    wide: Vec<IoRequest>,
    /// The open chunk's base, kept here so that `push` reads no header.
    base: u64,
    /// Whether the open chunk is far.
    far: bool,
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
        Trace {
            name: name.into(),
            words: Vec::with_capacity(capacity),
            fields: Vec::with_capacity(capacity),
            chunks: Vec::with_capacity(capacity.div_ceil(CHUNK)),
            ..Trace::default()
        }
    }

    /// Appends `request`.
    ///
    /// # Panics
    ///
    /// Panics past `2^32` requests that do not pack (96 GiB of side table).
    // Always inlined: the generators push from five sites in one loop, and
    // left to itself the compiler called `push` out of line, which cost
    // generation a few nanoseconds per request.
    #[inline(always)]
    pub fn push(&mut self, request: IoRequest) {
        let slot = self.words.len() % CHUNK;
        if slot == 0 {
            self.base = request.at_nanos;
            self.far = false;
            self.chunks.push(Chunk { base: request.at_nanos, far: NARROW });
        }
        let word = pack(request);
        let offset = request.at_nanos.wrapping_sub(self.base);
        if word != WIDE && offset <= u64::from(u32::MAX) && !self.far {
            self.words.push(word);
            self.fields.push(offset as u32);
        } else {
            self.push_apart(slot, word, request);
        }
    }

    /// [`Trace::push`] of a request that is wide, turns its chunk far or
    /// lands in a far chunk; `slot` is its position in the open chunk.
    fn push_apart(&mut self, slot: usize, word: u64, request: IoRequest) {
        let field = if word == WIDE {
            self.wide.push(request);
            u32::try_from(self.wide.len() - 1).expect("a trace holds at most 2^32 wide requests")
        } else {
            if !self.far {
                self.turn_far(slot);
            }
            request.at_nanos as u32
        };
        if self.far {
            self.highs.push(if word == WIDE { 0 } else { (request.at_nanos >> 32) as u32 });
        }
        self.words.push(word);
        self.fields.push(field);
    }

    /// Turns the open chunk far. Its first `slot` requests, stored narrow,
    /// keep their exact arrivals: each field becomes the arrival's low half
    /// and the high half goes to `highs`.
    fn turn_far(&mut self, slot: usize) {
        let ordinal = u32::try_from(self.highs.len() / CHUNK)
            .ok()
            .filter(|&ordinal| ordinal != NARROW)
            .expect("a trace holds fewer than 2^32 - 1 far chunks");
        self.chunks.last_mut().expect("a push opened the chunk").far = ordinal;
        self.far = true;
        let first = self.words.len() - slot;
        for (&word, field) in self.words[first..].iter().zip(&mut self.fields[first..]) {
            let high = if word == WIDE {
                0
            } else {
                let at_nanos = self.base + u64::from(*field);
                *field = at_nanos as u32;
                (at_nanos >> 32) as u32
            };
            self.highs.push(high);
        }
    }

    /// Human-readable name of the workload (e.g. `"media-server"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the trace contains no requests.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The whole trace as a [`TraceSlice`].
    pub fn as_slice(&self) -> TraceSlice<'_> {
        TraceSlice {
            name: &self.name,
            words: &self.words,
            fields: &self.fields,
            start: 0,
            headers: Headers { chunks: &self.chunks, highs: &self.highs, wide: &self.wide },
        }
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
    words: &'a [u64],
    fields: &'a [u32],
    /// The position of the slice's first request in the trace, which the
    /// chunk headers are indexed by.
    start: usize,
    /// The whole trace's headers, high halves and side table.
    headers: Headers<'a>,
}

impl<'a> TraceSlice<'a> {
    /// The name of the trace this slice is of.
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the slice contains no requests.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The request at `index`, or `None` past the end.
    #[inline]
    pub fn get(&self, index: usize) -> Option<IoRequest> {
        let word = *self.words.get(index)?;
        Some(self.headers.unpack(self.start + index, word, self.fields[index]))
    }

    /// Iterates over the requests in arrival order.
    pub fn iter(&self) -> TraceIter<'a> {
        TraceIter {
            stored: self.words.iter().zip(self.fields),
            at: self.start,
            headers: self.headers,
        }
    }

    /// The first `mid` requests and the rest.
    ///
    /// # Panics
    ///
    /// Panics if `mid` exceeds the length.
    pub fn split_at(self, mid: usize) -> (TraceSlice<'a>, TraceSlice<'a>) {
        let (head_words, tail_words) = self.words.split_at(mid);
        let (head_fields, tail_fields) = self.fields.split_at(mid);
        (
            TraceSlice { words: head_words, fields: head_fields, ..self },
            TraceSlice { words: tail_words, fields: tail_fields, start: self.start + mid, ..self },
        )
    }
}

/// Prints the requests, not their packed words.
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
    stored: std::iter::Zip<std::slice::Iter<'a, u64>, std::slice::Iter<'a, u32>>,
    /// The position in the trace of the next request.
    at: usize,
    headers: Headers<'a>,
}

impl Iterator for TraceIter<'_> {
    type Item = IoRequest;

    #[inline]
    fn next(&mut self) -> Option<IoRequest> {
        let (&word, &field) = self.stored.next()?;
        let request = self.headers.unpack(self.at, word, field);
        self.at += 1;
        Some(request)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.stored.size_hint()
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
        let additional = iter.size_hint().0;
        self.words.reserve(additional);
        self.fields.reserve(additional);
        self.chunks.reserve((self.len() + additional).div_ceil(CHUNK) - self.chunks.len());
        for request in iter {
            self.push(request);
        }
    }
}

/// What a [`Trace`] stores, counted by length rather than capacity.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Footprint {
    /// Bytes of words, fields, headers, high halves and side table.
    pub bytes: usize,
    /// The chunk headers among `bytes`.
    pub header_bytes: usize,
    /// Far chunks.
    pub far_chunks: usize,
    /// Requests kept whole in the side table.
    pub wide: usize,
}

#[cfg(test)]
impl Trace {
    /// What the trace stores.
    pub(crate) fn footprint(&self) -> Footprint {
        use std::mem::size_of;
        let header_bytes = self.chunks.len() * size_of::<Chunk>();
        Footprint {
            bytes: self.words.len() * size_of::<u64>()
                + self.fields.len() * size_of::<u32>()
                + header_bytes
                + self.highs.len() * size_of::<u32>()
                + self.wide.len() * size_of::<IoRequest>(),
            header_bytes,
            far_chunks: self.highs.len().div_ceil(CHUNK),
            wide: self.wide.len(),
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

    /// `n` packed requests, arrivals `gap` ns apart.
    fn spaced(n: usize, gap: u64) -> Trace {
        (0..n as u64).map(|i| IoRequest::new(i * gap, IoOp::Read, i * 4096, 4096)).collect()
    }

    #[test]
    fn a_request_is_12_bytes_in_a_narrow_chunk_and_16_in_a_far_one() {
        assert!(std::mem::size_of::<Chunk>() <= 16);
        for n in [0usize, 1, 63, 64, 65, 129, 1_000] {
            let headers = n.div_ceil(64) * std::mem::size_of::<Chunk>();
            let narrow = spaced(n, 1_000).footprint();
            assert_eq!((narrow.bytes, narrow.header_bytes), (n * (8 + 4) + headers, headers));
            assert_eq!((narrow.far_chunks, narrow.wide), (0, 0));
            // 2^32 ns apart: every chunk of two requests or more is far.
            let far = spaced(n, 1 << 32).footprint();
            let far_requests = n - n % 64 + if n % 64 > 1 { n % 64 } else { 0 };
            assert_eq!(far.bytes, n * (8 + 4) + far_requests * 4 + headers, "{n} requests");
            assert!(far.bytes <= n * 16 + headers);
        }
    }
}
