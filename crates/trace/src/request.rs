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

/// `log2` of [`CHUNK`].
const CHUNK_BITS: u32 = 6;
/// Consecutive requests under one [`Chunk`] header.
const CHUNK: usize = 1 << CHUNK_BITS;

/// The header of 64 consecutive requests of a [`Trace`], written when the
/// 64th arrives, 40 bytes.
///
/// Each request of the chunk is one *record*, three fields from the low bit
/// up: its arrival less the chunk's earliest; its offset less the chunk's
/// lowest, shifted right by `offset_shift`; and its length less the chunk's
/// shortest, shifted right by `length_shift`, above its op bit (set for a
/// write). Each field is as wide as its largest value in the chunk, and the
/// shifts drop the trailing zeros every offset (every length) shares. A
/// record is as many bits as the three widths add up to, at most 161, so 64
/// records fill exactly that many words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chunk {
    /// Where the chunk's records start in [`Trace`]'s `words`.
    start: usize,
    /// The earliest arrival of the chunk's requests.
    arrival: u64,
    /// The lowest offset.
    offset: u64,
    /// The shortest length.
    length: u32,
    /// Bits of the arrival, offset and length-and-op fields.
    widths: [u8; 3],
    offset_shift: u8,
    length_shift: u8,
}

impl Chunk {
    /// The header of `requests`, whose records start at word `start`.
    fn of(requests: &[IoRequest; CHUNK], start: usize) -> Chunk {
        let fields = |request: &IoRequest| {
            [request.at_nanos, request.offset, u64::from(request.length)]
        };
        let first = fields(&requests[0]);
        // Each field's smallest and largest value, and the bits in which any
        // value differs from the first: the differences from the smallest
        // share the trailing zeros those bits have (all of them when every
        // value is alike, which `%` turns into no shift).
        let (mut low, mut high, mut varied) = (first, first, [0; 3]);
        for request in requests {
            for (field, value) in fields(request).into_iter().enumerate() {
                low[field] = low[field].min(value);
                high[field] = high[field].max(value);
                varied[field] |= value ^ first[field];
            }
        }
        let [offset_shift, length_shift] = [1, 2].map(|field| varied[field].trailing_zeros() % 64);
        let width = |field: usize, shift: u32| {
            (u64::BITS - ((high[field] - low[field]) >> shift).leading_zeros()) as u8
        };
        Chunk {
            start,
            arrival: low[0],
            offset: low[1],
            length: low[2] as u32,
            widths: [width(0, 0), width(1, offset_shift), width(2, length_shift) + 1],
            offset_shift: offset_shift as u8,
            length_shift: length_shift as u8,
        }
    }
}

/// A [`Chunk`] header unpacked for writing and reading its records, once
/// per chunk.
///
/// A record of at most 64 bits is read as one *window*, the 64 bits from
/// its first; a wider one as three, one from each field's first bit. A
/// field is found in its window by a mask of its bits in place, and is
/// turned into the difference from its minimum by one rotation: the shift
/// that drops its trailing zeros and the shift from its place in the window
/// taken together. The rotation never wraps a set bit, since the field fits
/// its place and the trailing zeros it drops are zeros.
#[derive(Debug, Clone, Copy)]
struct Frame {
    arrival: u64,
    offset: u64,
    length: u32,
    /// The chunk's first bit in the trace's words.
    bit: usize,
    /// Bits per record.
    bits: usize,
    /// Where each field starts in a record.
    starts: [usize; 3],
    /// Each field's bits in its window; the length's without the op bit.
    masks: [u64; 3],
    /// How far right the offset's and the length's windows turn into
    /// their differences (the arrival's is in place).
    turns: [u32; 2],
    /// The op bit in the length's window, set for a write.
    write: u64,
}

impl Frame {
    #[inline(always)]
    fn new(chunk: &Chunk) -> Frame {
        let [arrival, offset, length] = chunk.widths.map(u32::from);
        let bits = arrival + offset + length;
        let starts = [0, arrival, arrival + offset];
        // Where each field starts in its window.
        let places = if bits <= 64 { starts } else { [0; 3] };
        // A place of 64 only ever holds a field of no bits.
        let mask = |width: u32, place: u32| {
            u64::MAX.checked_shr(64 - width).unwrap_or(0).wrapping_shl(place)
        };
        Frame {
            arrival: chunk.arrival,
            offset: chunk.offset,
            length: chunk.length,
            bit: chunk.start * 64,
            bits: bits as usize,
            starts: starts.map(|start| start as usize),
            masks: [
                mask(arrival, 0),
                mask(offset, places[1]),
                mask(length - 1, places[2] + 1),
            ],
            turns: [
                places[1].wrapping_sub(u32::from(chunk.offset_shift)) % 64,
                (places[2] + 1).wrapping_sub(u32::from(chunk.length_shift)) % 64,
            ],
            write: 1 << places[2],
        }
    }

    /// `request`'s fields, each in its place in its window.
    #[inline(always)]
    fn fields(&self, request: &IoRequest) -> [u64; 3] {
        let write = if request.op == IoOp::Write { self.write } else { 0 };
        [
            request.at_nanos - self.arrival,
            (request.offset - self.offset).rotate_left(self.turns[0]),
            u64::from(request.length - self.length).rotate_left(self.turns[1]) | write,
        ]
    }

    /// The request whose fields are in `windows`.
    #[inline(always)]
    fn request(&self, windows: [u64; 3]) -> IoRequest {
        let [arrival, offset, length] = [0, 1, 2].map(|field| windows[field] & self.masks[field]);
        IoRequest {
            at_nanos: self.arrival + arrival,
            op: if windows[2] & self.write == 0 { IoOp::Read } else { IoOp::Write },
            offset: self.offset + offset.rotate_right(self.turns[0]),
            length: self.length + length.rotate_right(self.turns[1]) as u32,
        }
    }

    /// The request in slot `slot` of the chunk, read from its records in
    /// `words`.
    #[inline(always)]
    fn decode(&self, words: &[u64], slot: usize) -> IoRequest {
        let at = self.bit + slot * self.bits;
        if self.bits <= 64 {
            self.request([bits(words, at); 3])
        } else {
            self.request(self.starts.map(|start| bits(words, at + start)))
        }
    }

    /// All 64 requests of the chunk.
    fn decode_all(&self, words: &[u64], requests: &mut [IoRequest; CHUNK]) {
        for (slot, request) in requests.iter_mut().enumerate() {
            *request = self.decode(words, slot);
        }
    }
}

/// The 64 bits of `words` from bit `at` on, zeros past the end. The
/// length-and-op field is at least one bit wide and ends each record, so
/// every field starts inside `words`.
#[inline(always)]
fn bits(words: &[u64], at: usize) -> u64 {
    let word = at / 64;
    let next = words.get(word + 1).copied().unwrap_or_default();
    ((u128::from(next) << 64 | u128::from(words[word])) >> (at % 64)) as u64
}

/// What fills a request slot that holds no request yet.
const VACANT: IoRequest = IoRequest { at_nanos: 0, op: IoOp::Read, offset: 0, length: 0 };

/// An ordered sequence of I/O requests, bit-packed 64 at a time: a request
/// costs the bits its chunk's widest arrival, offset and length need (at
/// most 161), plus a 40-byte header per 64.
///
/// Time ordering is *not* validated — real traces contain ties and minor
/// inversions. Every 64 consecutive requests (a *chunk*) are stored as
/// differences from the chunk's earliest arrival, lowest offset and shortest
/// length, each field as wide as its largest difference needs and the
/// offsets' and lengths' shared trailing zeros dropped. The stock synthetic
/// workloads' chunks take 5.5–7.7 bytes per request. The last requests,
/// fewer than 64, wait in a fixed array inside the trace until the 64th
/// arrives. Any [`IoRequest`] comes back exactly as it went in; requests
/// are yielded by value.
#[derive(Clone)]
pub struct Trace {
    name: String,
    /// The sealed chunks' records, each chunk's in whole words of its own.
    words: Vec<u64>,
    /// One header per sealed chunk.
    chunks: Vec<Chunk>,
    /// The open chunk's requests: the first `len % 64`. The last slot
    /// holds the 64th only while it is being sealed.
    open: [IoRequest; CHUNK],
    len: usize,
}

impl Trace {
    /// Creates a trace from a name and request list.
    pub fn new(name: impl Into<String>, requests: Vec<IoRequest>) -> Self {
        let mut trace = Trace::with_capacity(name, requests.len());
        trace.extend(requests);
        trace
    }

    /// An empty trace with room for `capacity` requests at 8 bytes each:
    /// what a generator or parser pushes into, so no second copy of the
    /// requests ever exists.
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> Self {
        Trace {
            name: name.into(),
            words: Vec::with_capacity(capacity),
            chunks: Vec::with_capacity(capacity / CHUNK),
            open: [VACANT; CHUNK],
            len: 0,
        }
    }

    /// Appends `request`.
    // Always inlined: the generators push from five sites in one loop, and
    // left to itself the compiler called `push` out of line, which cost
    // generation a few nanoseconds per request.
    #[inline(always)]
    pub fn push(&mut self, request: IoRequest) {
        let slot = self.len % CHUNK;
        self.len += 1;
        self.open[slot] = request;
        if slot == CHUNK - 1 {
            self.seal();
        }
    }

    /// Seals the open chunk, now 64 requests, into a header and records.
    #[inline(never)]
    fn seal(&mut self) {
        let requests = &self.open;
        let chunk = Chunk::of(requests, self.words.len());
        let frame = Frame::new(&chunk);
        // The word being filled waits in `partial`, stored whole each time,
        // so no record reads back what the one before it wrote.
        let mut words = [0u64; 161];
        let (mut word, mut skip, mut partial) = (0, 0, 0);
        let mut put = |value: u64, width: usize| {
            let filled = partial | value << skip;
            words[word] = filled;
            let end = skip + width;
            partial = if end >= 64 { value >> 1 >> (63 - skip) } else { filled };
            word += end / 64;
            skip = end % 64;
        };
        for request in requests {
            let [arrival, offset, length] = frame.fields(request);
            if frame.bits <= 64 {
                put(arrival | offset | length, frame.bits);
            } else {
                put(arrival, frame.starts[1]);
                put(offset, frame.starts[2] - frame.starts[1]);
                put(length, frame.bits - frame.starts[2]);
            }
        }
        debug_assert_eq!((word, skip), (frame.bits, 0));
        self.words.extend_from_slice(&words[..frame.bits]);
        self.chunks.push(chunk);
    }

    /// The request at position `at`, which must be below the length.
    #[inline]
    fn at(&self, at: usize) -> IoRequest {
        match self.chunks.get(at >> CHUNK_BITS) {
            Some(chunk) => Frame::new(chunk).decode(&self.words, at % CHUNK),
            None => self.open[at % CHUNK],
        }
    }

    /// Human-readable name of the workload (e.g. `"media-server"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace contains no requests.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The whole trace as a [`TraceSlice`].
    pub fn as_slice(&self) -> TraceSlice<'_> {
        TraceSlice { trace: self, start: 0, end: self.len }
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

impl Default for Trace {
    fn default() -> Self {
        Trace::with_capacity(String::new(), 0)
    }
}

/// "Same name, same requests": a sealed chunk's header and records are a
/// function of its requests, and so is where the next chunk starts.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        fn open(trace: &Trace) -> &[IoRequest] {
            &trace.open[..trace.len % CHUNK]
        }
        (&self.name, self.len, &self.words, &self.chunks, open(self))
            == (&other.name, other.len, &other.words, &other.chunks, open(other))
    }
}

impl Eq for Trace {}

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
    trace: &'a Trace,
    /// The positions in the trace of the slice's first request and of the
    /// one after its last.
    start: usize,
    end: usize,
}

impl<'a> TraceSlice<'a> {
    /// The name of the trace this slice is of.
    pub fn name(&self) -> &'a str {
        &self.trace.name
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the slice contains no requests.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The request at `index`, or `None` past the end.
    #[inline]
    pub fn get(&self, index: usize) -> Option<IoRequest> {
        (index < self.len()).then(|| self.trace.at(self.start + index))
    }

    /// Iterates over the requests in arrival order.
    pub fn iter(&self) -> TraceIter<'a> {
        TraceIter {
            trace: self.trace,
            at: self.start,
            end: self.end,
            ready: self.start,
            chunk: [VACANT; CHUNK],
        }
    }

    /// The first `mid` requests and the rest.
    ///
    /// # Panics
    ///
    /// Panics if `mid` exceeds the length.
    pub fn split_at(self, mid: usize) -> (TraceSlice<'a>, TraceSlice<'a>) {
        assert!(mid <= self.len(), "mid > len");
        let cut = self.start + mid;
        (TraceSlice { end: cut, ..self }, TraceSlice { start: cut, ..self })
    }
}

/// Prints the requests, not their records.
impl fmt::Debug for TraceSlice<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("name", &self.name())
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
#[derive(Clone)]
pub struct TraceIter<'a> {
    trace: &'a Trace,
    /// The position in the trace of the next request.
    at: usize,
    end: usize,
    /// Where `chunk` stops holding `at`'s chunk: the end of that chunk, or
    /// the slice's first position before the first request is read.
    ready: usize,
    /// `at`'s chunk, decoded whole when the iterator enters it.
    chunk: [IoRequest; CHUNK],
}

/// Prints where the iterator is, not the chunk it holds.
impl fmt::Debug for TraceIter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceIter")
            .field("name", &self.trace.name)
            .field("at", &self.at)
            .field("end", &self.end)
            .finish()
    }
}

impl TraceIter<'_> {
    /// Decodes the chunk `at` is in.
    #[inline(never)]
    fn enter(&mut self) {
        let index = self.at >> CHUNK_BITS;
        self.ready = (index + 1) * CHUNK;
        match self.trace.chunks.get(index) {
            Some(chunk) => Frame::new(chunk).decode_all(&self.trace.words, &mut self.chunk),
            None => self.chunk = self.trace.open,
        }
    }
}

impl Iterator for TraceIter<'_> {
    type Item = IoRequest;

    // Always inlined: a replay's drive loop is large, and left to itself the
    // compiler called `next` out of line there, which cost the queued replay
    // a few percent of its host time.
    #[inline(always)]
    fn next(&mut self) -> Option<IoRequest> {
        let at = self.at;
        if at == self.end {
            return None;
        }
        if at == self.ready {
            self.enter();
        }
        self.at += 1;
        Some(self.chunk[at % CHUNK])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.at;
        (left, Some(left))
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
        self.chunks.reserve((self.len + additional) / CHUNK - self.chunks.len());
        for request in iter {
            self.push(request);
        }
    }
}

/// What a [`Trace`]'s sealed chunks store on the heap, counted by length
/// rather than capacity. The open chunk's requests live in the trace itself.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Footprint {
    /// Bytes of records and headers.
    pub bytes: usize,
    /// The headers among `bytes`.
    pub header_bytes: usize,
}

#[cfg(test)]
impl Trace {
    /// What the trace stores.
    pub(crate) fn footprint(&self) -> Footprint {
        use std::mem::size_of;
        let header_bytes = self.chunks.len() * size_of::<Chunk>();
        Footprint { bytes: self.words.len() * size_of::<u64>() + header_bytes, header_bytes }
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

    /// `n` requests of 4 KiB at consecutive 4 KiB offsets, arrivals `gap` ns
    /// apart.
    fn spaced(n: usize, gap: u64) -> Trace {
        (0..n as u64).map(|i| IoRequest::new(i * gap, IoOp::Read, i * 4096, 4096)).collect()
    }

    /// A sealed chunk costs the bits its widest differences need, in whole
    /// words, and a 40-byte header; the open chunk's requests cost no heap.
    #[test]
    fn a_chunk_costs_the_bits_its_widest_fields_need() {
        assert_eq!(std::mem::size_of::<Chunk>(), 40);
        // Arrivals up to 63 gaps after the chunk's first; offsets up to 63
        // pages past its lowest, 6 bits once their 12 shared zeros go;
        // equal lengths, the op bit alone.
        for (gap, arrival_bits) in [(1_000, 16), (1 << 24, 30), (1 << 40, 46)] {
            let bits = arrival_bits + 6 + 1;
            for n in [0usize, 1, 63, 64, 65, 129, 1_000] {
                let sealed = n / CHUNK;
                let expected =
                    Footprint { bytes: sealed * (bits * 8 + 40), header_bytes: sealed * 40 };
                assert_eq!(spaced(n, gap).footprint(), expected, "gap {gap}, {n} requests");
            }
        }
    }

    /// Records of 63, 64 and 65 bits whose length field is the op bit
    /// alone, so at 64 bits it is the record's top bit: the last record that
    /// is read as one window and the first that is read as three.
    #[test]
    fn records_either_side_of_one_window_round_trip() {
        for arrival_bits in [31, 32, 33] {
            let requests: Vec<_> = (0..CHUNK as u64)
                .map(|i| {
                    let last = i + 1 == CHUNK as u64;
                    let spread = |bits: u32| if last { (1 << bits) - 1 } else { i };
                    let op = if i % 2 == 0 { IoOp::Write } else { IoOp::Read };
                    IoRequest::new(spread(arrival_bits), op, spread(31), 4096)
                })
                .collect();
            let trace = Trace::new("t", requests.clone());
            assert_eq!(trace.footprint().bytes, (arrival_bits as usize + 32) * 8 + 40);
            assert_eq!(trace.iter().collect::<Vec<_>>(), requests);
            for (index, &request) in requests.iter().enumerate() {
                assert_eq!(trace.get(index), Some(request), "{arrival_bits} bits, {index}");
            }
        }
    }

    /// The widest record is 161 bits: arrivals spanning all of `u64`, odd
    /// offset differences spanning all of it and odd length differences
    /// spanning all of `u32`. So no request costs more than 21 bytes and its
    /// share of a header.
    #[test]
    fn no_request_costs_more_than_21_bytes_and_its_header() {
        let shapes = [
            (0, 0, 1),
            (u64::MAX, u64::MAX - u64::from(u32::MAX), u32::MAX),
            (1, 1, 2),
            (u64::MAX - 1, 0, 4096),
        ];
        let requests: Vec<_> = (0..2 * CHUNK)
            .map(|i| {
                let (at, offset, length) = shapes[i % shapes.len()];
                let op = if i % 3 == 0 { IoOp::Write } else { IoOp::Read };
                IoRequest::new(at, op, offset, length)
            })
            .collect();
        let trace = Trace::new("t", requests.clone());
        assert_eq!(trace.iter().collect::<Vec<_>>(), requests);
        let footprint = trace.footprint();
        assert_eq!(footprint.bytes, 2 * (161 * 8 + 40));
        assert!(footprint.bytes <= requests.len() * 21 + footprint.header_bytes);
    }

    /// `with_capacity` and `extend` reserve 8 bytes of records per request,
    /// which every stock trace's chunks fit, and a header per 64.
    #[test]
    fn a_trace_reserves_8_bytes_per_request() {
        let mut trace = Trace::with_capacity("t", 1_000);
        assert_eq!((trace.words.capacity(), trace.chunks.capacity()), (1_000, 15));
        trace.extend(spaced(1_000, 1_000).iter());
        assert_eq!((trace.words.capacity(), trace.chunks.capacity()), (1_000, 15));
        let mut extended = Trace::default();
        extended.extend(spaced(1_000, 1_000).iter());
        assert_eq!((extended.words.capacity(), extended.chunks.capacity()), (1_000, 15));
    }
}
