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
/// Bits of a compact word that hold the arrival offset from the chunk's base.
const COMPACT_ARRIVAL_BITS: u32 = 24;
/// Bits of a compact word that hold the byte offset.
const COMPACT_OFFSET_BITS: u32 = 35;
/// Bits of a compact word that hold `log2(length) - 9`.
const COMPACT_LENGTH_BITS: u32 = 4;
/// `log2` of the shortest length a compact word holds, 512 bytes.
const COMPACT_LENGTH_SHIFT: u32 = 9;
/// Where a compact word's byte offset starts.
const COMPACT_OFFSET_SHIFT: u32 = COMPACT_LENGTH_BITS + 1;
/// Where a compact word's arrival offset starts.
const COMPACT_ARRIVAL_SHIFT: u32 = COMPACT_OFFSET_BITS + COMPACT_OFFSET_SHIFT;
/// `log2` of [`CHUNK`].
const CHUNK_BITS: u32 = 6;
/// Consecutive requests under one [`Chunk`] header.
const CHUNK: usize = 1 << CHUNK_BITS;
/// [`Chunk::far`] of a compact or narrow chunk.
const NARROW: u32 = u32::MAX;
/// [`Chunk::block`] of a compact chunk.
const COMPACT: u32 = u32::MAX;

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

/// `request` as the compact word of a chunk whose first arrival is `base`:
/// its arrival offset from `base` (bits 40..64), byte offset (bits 5..40),
/// `log2(length) - 9` (bits 1..5) and op (bit 0, set for a write). `None`
/// when the arrival offset (`at_nanos - base`, wrapping, so an arrival
/// shortly before `base` is a huge one) is `2^24` ns or more, the byte offset
/// `2^35` or more, or the length not a power of two from 512 bytes to 16 MiB.
#[inline(always)]
fn compact(request: IoRequest, base: u64) -> Option<u64> {
    let arrival = request.at_nanos.wrapping_sub(base);
    let code = request.length.trailing_zeros().wrapping_sub(COMPACT_LENGTH_SHIFT);
    // `&`, not `&&`: three compares and no branch until the last. A zero
    // length has 32 trailing zeros, so `code` rules it out.
    let fits = (arrival >> COMPACT_ARRIVAL_BITS | request.offset >> COMPACT_OFFSET_BITS == 0)
        & (request.length & request.length.wrapping_sub(1) == 0)
        & (code < 1 << COMPACT_LENGTH_BITS);
    fits.then(|| {
        arrival << COMPACT_ARRIVAL_SHIFT
            | request.offset << COMPACT_OFFSET_SHIFT
            | u64::from(code) << 1
            | u64::from(request.op == IoOp::Write)
    })
}

/// The request a [`compact`] word of a chunk based at `base` holds.
#[inline(always)]
fn uncompact(base: u64, word: u64) -> IoRequest {
    let code = (word >> 1) as u32 & ((1 << COMPACT_LENGTH_BITS) - 1);
    IoRequest {
        at_nanos: base.wrapping_add(word >> COMPACT_ARRIVAL_SHIFT),
        op: if word & 1 == 0 { IoOp::Read } else { IoOp::Write },
        offset: (word >> COMPACT_OFFSET_SHIFT) & ((1 << COMPACT_OFFSET_BITS) - 1),
        length: 1 << (code + COMPACT_LENGTH_SHIFT),
    }
}

/// The header of 64 consecutive requests of a [`Trace`] (the last chunk may
/// hold fewer), 16 bytes.
///
/// A chunk opens *compact*: each request is one [`compact`] word holding its
/// arrival as an offset from `base`, and the chunk keeps no 32-bit fields.
/// The first request that does not fit a compact word turns the chunk
/// *narrow*: every request of it, those already pushed included, is then a
/// packed word plus a 32-bit field in the chunk's block of 64 in [`Trace`]'s
/// `fields`, holding its arrival's offset from `base` while that lies in
/// `base..base + 2^32` ns. The first packed arrival outside that window (an
/// inversion, or a gap of 2^32 ns, about 4.3 s, or more) turns the chunk
/// *far*: each field then holds its arrival's low half and the high half goes
/// to [`Trace`]'s `highs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chunk {
    /// The arrival of the chunk's first request.
    base: u64,
    /// [`NARROW`], or the ordinal of the far chunk among the trace's far
    /// chunks: its high halves are `highs[far * 64..]`, one per request.
    far: u32,
    /// [`COMPACT`], or the ordinal of the chunk among the trace's chunks that
    /// are not compact: its fields are `fields[block * 64..]`, one per request.
    block: u32,
}

/// The parts of a [`Trace`] a request may need beyond its word, indexed by
/// the request's position in the whole trace.
#[derive(Debug, Clone, Copy)]
struct Headers<'a> {
    chunks: &'a [Chunk],
    fields: &'a [u32],
    highs: &'a [u32],
    wide: &'a [IoRequest],
}

impl Headers<'_> {
    /// The request at position `at` of the trace, stored as `word`.
    #[inline]
    fn unpack(&self, at: usize, word: u64) -> IoRequest {
        self.decode(self.chunks[at >> CHUNK_BITS], at, word)
    }

    /// [`Headers::unpack`] with the header of `at`'s chunk already read.
    #[inline(always)]
    fn decode(&self, chunk: Chunk, at: usize, word: u64) -> IoRequest {
        if chunk.block == COMPACT {
            return uncompact(chunk.base, word);
        }
        let field = self.fields[((chunk.block as usize) << CHUNK_BITS) | (at % CHUNK)];
        if word == WIDE {
            return self.wide[field as usize];
        }
        let at_nanos = if chunk.far == NARROW {
            chunk.base.wrapping_add(u64::from(field))
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

/// Appends `request` to a trace's side table; its index there.
fn keep_wide(wide: &mut Vec<IoRequest>, request: IoRequest) -> u32 {
    wide.push(request);
    u32::try_from(wide.len() - 1).expect("a trace holds at most 2^32 wide requests")
}

/// The layout of a [`Trace`]'s open chunk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Open {
    #[default]
    Compact,
    Narrow,
    Far,
}

/// An ordered sequence of I/O requests, 8 bytes per request in a chunk where
/// every request fits a compact word and at most 16 elsewhere, plus a 16-byte
/// header per 64 requests.
///
/// Time ordering is *not* validated — real traces contain ties and minor
/// inversions. Every 64 consecutive requests (a *chunk*) share a header
/// holding their first arrival. In a *compact* chunk each request is one
/// word: its arrival's offset from that base (below 2^24 ns, 16.8 ms), its
/// byte offset (below 2^35, 32 GiB), `log2` of its length (a power of two
/// from 512 bytes to 16 MiB) and its op, as every request of the stock
/// synthetic workloads at their default arrivals is. A chunk with a request
/// that does not fit turns *narrow*: each request is a packed word (offset
/// below `2^40 - 1`, 1 TiB; length at most `2^23` bytes, 8 MiB) and a 32-bit
/// arrival offset from the base, 12 bytes. A narrow chunk that meets an
/// arrival before its first one, or 2^32 ns (4.3 s) or more after it, turns
/// *far* and keeps each of its arrivals' high halves in a side vector: its
/// requests cost 16 bytes. A request that does not pack is kept whole in a
/// side table, 24 bytes more, so any [`IoRequest`] comes back exactly as it
/// went in. Requests are yielded by value.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Trace {
    name: String,
    /// Each request's compact word (compact chunk), packed word or [`WIDE`].
    words: Vec<u64>,
    /// 64 per chunk that is not compact (as many as it holds for the open
    /// chunk): each request's arrival offset from its chunk's base (narrow
    /// chunk), its arrival's low half (far chunk) or its index in `wide`.
    fields: Vec<u32>,
    /// One header per 64 requests; the last is the *open* chunk, which the
    /// next push fills unless it holds 64.
    chunks: Vec<Chunk>,
    /// The far chunks' arrival high halves, 64 per chunk (as many as it
    /// holds for the open chunk), 0 for a wide request.
    highs: Vec<u32>,
    /// The requests that do not pack, in trace order. Only `push` adds to a
    /// trace and nothing removes from one, and a chunk's layout is a function
    /// of the requests pushed into it, so equal requests are equal words and
    /// fields and the derived `PartialEq` means "same name, same requests".
    wide: Vec<IoRequest>,
    /// The open chunk's base, kept here so that `push` reads no header.
    base: u64,
    /// The open chunk's layout.
    open: Open,
}

impl Trace {
    /// Creates a trace from a name and request list.
    pub fn new(name: impl Into<String>, requests: Vec<IoRequest>) -> Self {
        let mut trace = Trace::with_capacity(name, requests.len());
        trace.extend(requests);
        trace
    }

    /// An empty trace with room for `capacity` requests: what a generator or
    /// parser pushes into, so no second copy of the requests ever exists. The
    /// 32-bit fields are reserved by the first chunk that needs them.
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> Self {
        Trace {
            name: name.into(),
            words: Vec::with_capacity(capacity),
            chunks: Vec::with_capacity(capacity.div_ceil(CHUNK)),
            ..Trace::default()
        }
    }

    /// Appends `request`.
    ///
    /// # Panics
    ///
    /// Panics on a count that outgrows its 32-bit index, each far beyond any
    /// trace that fits in memory:
    /// - past `2^32` requests that do not pack (96 GiB of side table): the
    ///   side-table index is a 32-bit field;
    /// - past `2^32 - 1` far chunks (2^38 requests): a far chunk's ordinal is
    ///   32 bits and all ones marks a chunk that is not far;
    /// - past `2^32 - 1` chunks that are not compact (2^38 requests): the
    ///   ordinal of a chunk's block of fields is 32 bits and all ones marks a
    ///   compact chunk.
    ///
    /// Turning a chunk narrow or far also expects the open chunk's header,
    /// which the push that opened the chunk added; so that one never panics.
    // Always inlined: the generators push from five sites in one loop, and
    // left to itself the compiler called `push` out of line, which cost
    // generation a few nanoseconds per request.
    #[inline(always)]
    pub fn push(&mut self, request: IoRequest) {
        let slot = self.words.len() % CHUNK;
        if slot == 0 {
            self.base = request.at_nanos;
            self.open = Open::Compact;
            self.chunks.push(Chunk { base: request.at_nanos, far: NARROW, block: COMPACT });
        }
        if self.open == Open::Compact {
            if let Some(word) = compact(request, self.base) {
                self.words.push(word);
                return;
            }
            self.turn_narrow(slot);
        }
        let word = pack(request);
        let offset = request.at_nanos.wrapping_sub(self.base);
        if word != WIDE && offset <= u64::from(u32::MAX) && self.open == Open::Narrow {
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
            keep_wide(&mut self.wide, request)
        } else {
            if self.open != Open::Far {
                self.turn_far(slot);
            }
            request.at_nanos as u32
        };
        if self.open == Open::Far {
            self.highs.push(if word == WIDE { 0 } else { (request.at_nanos >> 32) as u32 });
        }
        self.words.push(word);
        self.fields.push(field);
    }

    /// The open chunk's header.
    fn open_chunk(&mut self) -> &mut Chunk {
        self.chunks.last_mut().expect("a push opened the chunk")
    }

    /// Turns the open chunk narrow. Its first `slot` requests, stored compact,
    /// become packed words and fields in a block of `fields` of the chunk's
    /// own, which a trace's first such chunk reserves for every request the
    /// words have room for from there on. A compact request longer than
    /// `2^23` bytes does not pack and goes to the side table.
    #[inline(never)]
    fn turn_narrow(&mut self, slot: usize) {
        let block = u32::try_from(self.fields.len() / CHUNK)
            .ok()
            .filter(|&block| block != COMPACT)
            .expect("a trace holds fewer than 2^32 - 1 chunks that are not compact");
        self.open_chunk().block = block;
        self.open = Open::Narrow;
        let first = self.words.len() - slot;
        self.fields.reserve(self.words.capacity() - first);
        for word in &mut self.words[first..] {
            let request = uncompact(self.base, *word);
            let arrival = (*word >> COMPACT_ARRIVAL_SHIFT) as u32;
            *word = pack(request);
            let field = if *word == WIDE { keep_wide(&mut self.wide, request) } else { arrival };
            self.fields.push(field);
        }
    }

    /// Turns the open chunk far. Its first `slot` requests, stored narrow,
    /// keep their exact arrivals: each field becomes the arrival's low half
    /// and the high half goes to `highs`.
    fn turn_far(&mut self, slot: usize) {
        let ordinal = u32::try_from(self.highs.len() / CHUNK)
            .ok()
            .filter(|&ordinal| ordinal != NARROW)
            .expect("a trace holds fewer than 2^32 - 1 far chunks");
        self.open_chunk().far = ordinal;
        self.open = Open::Far;
        let words = &self.words[self.words.len() - slot..];
        let first = self.fields.len() - slot;
        for (&word, field) in words.iter().zip(&mut self.fields[first..]) {
            let high = if word == WIDE {
                0
            } else {
                let at_nanos = self.base.wrapping_add(u64::from(*field));
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
            start: 0,
            headers: Headers {
                chunks: &self.chunks,
                fields: &self.fields,
                highs: &self.highs,
                wide: &self.wide,
            },
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
    /// The position of the slice's first request in the trace, which the
    /// chunk headers are indexed by.
    start: usize,
    /// The whole trace's headers, fields, high halves and side table.
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
        Some(self.headers.unpack(self.start + index, word))
    }

    /// Iterates over the requests in arrival order.
    pub fn iter(&self) -> TraceIter<'a> {
        // A slice that starts mid-chunk reads its first header here; an
        // empty one may start past the last header and reads none.
        let chunk = self.headers.chunks.get(self.start >> CHUNK_BITS).copied();
        TraceIter {
            words: self.words.iter(),
            at: self.start,
            chunk: chunk.unwrap_or(Chunk { base: 0, far: NARROW, block: COMPACT }),
            headers: self.headers,
        }
    }

    /// The first `mid` requests and the rest.
    ///
    /// # Panics
    ///
    /// Panics if `mid` exceeds the length.
    pub fn split_at(self, mid: usize) -> (TraceSlice<'a>, TraceSlice<'a>) {
        let (head, tail) = self.words.split_at(mid);
        (
            TraceSlice { words: head, ..self },
            TraceSlice { words: tail, start: self.start + mid, ..self },
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
    words: std::slice::Iter<'a, u64>,
    /// The position in the trace of the next request.
    at: usize,
    /// The header of `at`'s chunk, read again where a chunk starts.
    chunk: Chunk,
    headers: Headers<'a>,
}

impl Iterator for TraceIter<'_> {
    type Item = IoRequest;

    // Always inlined: a replay's drive loop is large, and left to itself the
    // compiler called `next` out of line there, which cost the queued replay
    // a few percent of its host time.
    #[inline(always)]
    fn next(&mut self) -> Option<IoRequest> {
        let &word = self.words.next()?;
        if self.at.is_multiple_of(CHUNK) {
            self.chunk = self.headers.chunks[self.at >> CHUNK_BITS];
        }
        let request = self.headers.decode(self.chunk, self.at, word);
        self.at += 1;
        Some(request)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.words.size_hint()
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
    /// Compact chunks.
    pub compact_chunks: usize,
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
            compact_chunks: self.chunks.iter().filter(|chunk| chunk.block == COMPACT).count(),
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
    fn a_request_is_8_bytes_in_a_compact_chunk_12_in_a_narrow_one_and_16_in_a_far_one() {
        assert!(std::mem::size_of::<Chunk>() <= 16);
        for n in [0usize, 1, 63, 64, 65, 129, 1_000] {
            let chunks = n.div_ceil(64);
            let headers = chunks * std::mem::size_of::<Chunk>();
            let compact = spaced(n, 1_000).footprint();
            assert_eq!((compact.bytes, compact.header_bytes), (n * 8 + headers, headers));
            assert_eq!((compact.compact_chunks, compact.far_chunks, compact.wide), (chunks, 0, 0));
            // A chunk's lone request fits a compact word; in a chunk of two or
            // more, the second arrival turns it narrow (2^24 ns after the
            // first) or far (2^32 ns).
            let lone = usize::from(n % 64 == 1);
            let loose = n - lone;
            let narrow = spaced(n, 1 << 24).footprint();
            assert_eq!(narrow.bytes, n * 8 + loose * 4 + headers, "{n} requests");
            assert_eq!((narrow.compact_chunks, narrow.far_chunks), (lone, 0));
            let far = spaced(n, 1 << 32).footprint();
            assert_eq!(far.bytes, n * 8 + loose * 8 + headers, "{n} requests");
            assert_eq!((far.compact_chunks, far.far_chunks), (lone, chunks - lone));
            assert!(far.bytes <= n * 16 + headers);
        }
    }

    /// The 32-bit fields are reserved by the first chunk that needs them, for
    /// the requests the words have room for from there: a compact trace
    /// reserves none, and no trace reserves more fields than words.
    #[test]
    fn fields_are_reserved_by_the_first_chunk_that_needs_them() {
        let mut compact = Trace::with_capacity("c", 1_000);
        compact.extend(spaced(1_000, 1_000).iter());
        assert_eq!(compact.fields.capacity(), 0);
        for gap in [1 << 24, 1 << 32] {
            let mut loose = Trace::with_capacity("l", 1_000);
            loose.extend(spaced(1_000, gap).iter());
            assert!(loose.fields.capacity() <= loose.words.capacity(), "gap {gap}");
            assert_eq!(loose.fields.len(), 1_000);
        }
    }

    /// A chunk based just below `u64::MAX` holds an arrival that wrapped past
    /// it as a small offset, compact or narrow, and hands it back exactly.
    #[test]
    fn arrivals_that_wrap_past_the_base_round_trip() {
        let base = u64::MAX - 5;
        for (later, length) in [(3, 4096), (3, 4095), ((1 << 30) - 6, 4096)] {
            let requests = [
                IoRequest::new(base, IoOp::Write, 0, 4096),
                IoRequest::new(later, IoOp::Read, 8192, length),
            ];
            let trace: Trace = requests.iter().copied().collect();
            assert_eq!(trace.iter().collect::<Vec<_>>(), requests, "{later} {length}");
            assert_eq!(trace.get(1), Some(requests[1]));
        }
    }
}
