//! A [`Trace`] stores its requests bit-packed 64 at a time: each chunk of 64
//! keeps its earliest arrival, lowest offset and shortest length in a header,
//! and each request as its differences from those, each field as wide as the
//! chunk's largest difference needs (from zero bits, every request alike, to
//! 64) once the offsets' and lengths' shared trailing zeros are dropped; the
//! last requests, fewer than 64, wait unpacked. These tests hold it to the
//! plain `Vec<IoRequest>` it replaced: the same operations on both must give
//! the same requests, lengths, statistics and equalities, at chunk lengths
//! 63, 64 and 65, for every field width and for the extremes of each field.

use proptest::prelude::*;

use vflash_trace::{IoOp, IoRequest, Trace, TraceStats};

/// An offset at which the differences in a chunk of small offsets need 40
/// bits and share no trailing zero.
const ODD_OFFSET: u64 = (1 << 40) - 1;
/// The longest request of the stock shapes' neighbourhood, and one past it.
const LONG: u32 = 1 << 23;
/// Stands for "as high as the length allows": `u64::MAX - length`.
const TOP: u64 = u64::MAX;
/// Requests under one chunk header.
const CHUNK: usize = 64;
/// A gap of 2^32 ns, about 4.3 s.
const WINDOW: u64 = 1 << 32;
/// A gap of 2^24 ns, about 16.8 ms.
const SHORT_WINDOW: u64 = 1 << 24;
/// An offset of 32 GiB.
const FAR_OFFSET: u64 = 1 << 35;
/// Power-of-two lengths from 512 bytes to 16 MiB: their differences share
/// trailing zeros.
const SHORTEST_ALIGNED: u32 = 1 << 9;
const LONGEST_ALIGNED: u32 = 1 << 24;

fn request(at_nanos: u64, offset: u64, length: u32, write: bool) -> IoRequest {
    let offset = if offset == TOP { u64::MAX - u64::from(length) } else { offset };
    let op = if write { IoOp::Write } else { IoOp::Read };
    IoRequest::new(at_nanos, op, offset, length)
}

/// Offsets, lengths and ops from each end of their range and between:
/// `request`'s arguments but the arrival.
fn shapes() -> impl Strategy<Value = (u64, u32, bool)> {
    let offset = prop_oneof![
        Just(ODD_OFFSET - 1),
        Just(ODD_OFFSET),
        Just(TOP),
        0u64..ODD_OFFSET,
        ODD_OFFSET..u64::MAX / 2,
    ];
    let length = prop_oneof![
        Just(1u32),
        Just(LONG),
        Just(LONG + 1),
        Just(u32::MAX),
        1u32..LONG,
    ];
    (offset, length, any::<bool>())
}

/// Mostly offsets below 2^40 and lengths up to 8 MiB, any shape now and then.
fn mostly_moderate() -> impl Strategy<Value = (u64, u32, bool)> {
    let packed = (0u64..ODD_OFFSET, 1u32..LONG + 1, any::<bool>());
    (0u8..9, packed, shapes()).prop_map(|(pick, packed, any)| if pick == 0 { any } else { packed })
}

/// Requests of any shape at any arrival: a chunk of them is almost always
/// 64 bits wide in its arrival field.
fn requests() -> impl Strategy<Value = IoRequest> {
    (any::<u64>(), shapes())
        .prop_map(|(at, (offset, length, write))| request(at, offset, length, write))
}

/// How a request's arrival follows the trace so far.
#[derive(Debug, Clone, Copy)]
enum Arrival {
    /// This many nanoseconds after the previous request, as every stock
    /// generator spaces them.
    After(u32),
    /// The chunk's first arrival plus `2^32 - 1`, the most a 32-bit field
    /// holds.
    Edge,
    /// The chunk's first arrival plus `2^32`.
    Past,
    /// One nanosecond before the chunk's first arrival, an inversion.
    Before,
    /// The chunk's first arrival plus `2^24 - 1`.
    ShortEdge,
    /// The chunk's first arrival plus `2^24`.
    ShortPast,
    /// `u64::MAX`.
    Max,
}

fn arrival() -> impl Strategy<Value = Arrival> {
    (0u8..28, 0u32..200_000).prop_map(|(pick, gap)| match pick {
        0 => Arrival::Edge,
        1 => Arrival::Past,
        2 => Arrival::Before,
        3 => Arrival::Max,
        _ => Arrival::After(gap),
    })
}

/// The requests `arrivals` and `shapes` describe, the first arriving at
/// `first`.
fn build(first: u64, arrivals: &[Arrival], shapes: &[(u64, u32, bool)]) -> Vec<IoRequest> {
    let (mut clock, mut base) = (first, first);
    let mut model = Vec::with_capacity(arrivals.len());
    for (index, (&arrival, &(offset, length, write))) in arrivals.iter().zip(shapes).enumerate() {
        let at_nanos = match arrival {
            _ if index == 0 => first,
            Arrival::After(gap) => clock.saturating_add(u64::from(gap)),
            Arrival::Edge => base.saturating_add(WINDOW - 1),
            Arrival::Past => base.saturating_add(WINDOW),
            Arrival::Before => base.wrapping_sub(1),
            Arrival::ShortEdge => base.saturating_add(SHORT_WINDOW - 1),
            Arrival::ShortPast => base.saturating_add(SHORT_WINDOW),
            Arrival::Max => u64::MAX,
        };
        if index % CHUNK == 0 {
            base = at_nanos;
        }
        clock = at_nanos;
        model.push(request(at_nanos, offset, length, write));
    }
    model
}

/// Arrivals a few microseconds apart, with a gap to either side of 2^24 and
/// 2^32 ns after the chunk's first, or an inversion, now and then.
fn close_arrival() -> impl Strategy<Value = Arrival> {
    (0u8..40, 0u32..50_000).prop_map(|(pick, gap)| match pick {
        0 | 1 => Arrival::ShortEdge,
        2 => Arrival::ShortPast,
        3 => Arrival::Past,
        4 => Arrival::Before,
        _ => Arrival::After(gap),
    })
}

/// Offsets below 32 GiB and power-of-two lengths, whose differences share
/// trailing zeros, with an odd length or a far offset now and then and any
/// shape at all rarely.
fn mostly_aligned() -> impl Strategy<Value = (u64, u32, bool)> {
    let fits = (0u64..FAR_OFFSET, 9u32..25, any::<bool>())
        .prop_map(|(offset, log2, write)| (offset, 1 << log2, write));
    let offset = prop_oneof![
        Just(FAR_OFFSET - 1),
        Just(FAR_OFFSET),
        0u64..FAR_OFFSET
    ];
    let length = prop_oneof![
        Just(SHORTEST_ALIGNED),
        Just(LONGEST_ALIGNED),
        Just(SHORTEST_ALIGNED - 1),
        Just(3 << 12),
        Just(LONGEST_ALIGNED * 2),
    ];
    let limit = (offset, length, any::<bool>());
    (0u8..24, fits, limit, shapes()).prop_map(|(pick, fits, limit, any)| match pick {
        0..=2 => limit,
        3 => any,
        _ => fits,
    })
}

#[derive(Debug, Clone)]
enum Op {
    Push(IoRequest),
    Extend(Vec<IoRequest>),
}

fn ops() -> impl Strategy<Value = Op> {
    prop_oneof![
        requests().prop_map(Op::Push),
        proptest::collection::vec(requests(), 0..6).prop_map(Op::Extend),
    ]
}

/// What `Trace::offered_iops` computed over the request slice it replaced.
fn offered_iops(model: &[IoRequest]) -> f64 {
    let (Some(first), Some(last)) =
        (model.first(), model.iter().map(|request| request.at_nanos).max())
    else {
        return 0.0;
    };
    match last.saturating_sub(first.at_nanos) {
        0 => 0.0,
        span => model.len() as f64 / (span as f64 / 1e9),
    }
}

/// Every read accessor of `trace` against `model`.
fn agrees(trace: &Trace, model: &[IoRequest]) -> Result<(), TestCaseError> {
    prop_assert_eq!(trace.len(), model.len());
    prop_assert_eq!(trace.is_empty(), model.is_empty());
    prop_assert_eq!(trace.iter().collect::<Vec<_>>(), model.to_vec());
    prop_assert_eq!(trace.into_iter().len(), model.len());
    for (index, &expected) in model.iter().enumerate() {
        prop_assert_eq!(trace.get(index), Some(expected));
    }
    prop_assert_eq!(trace.get(model.len()), None);
    prop_assert_eq!(trace.stats(), TraceStats::from_requests(model.iter().copied()));
    prop_assert_eq!(trace.offered_iops().to_bits(), offered_iops(model).to_bits());
    prop_assert_eq!(
        format!("{trace:?}"),
        format!("Trace {{ name: \"t\", requests: {model:?} }}")
    );

    // Equality is "same name, same requests": a trace equals the one built
    // fresh from its requests.
    let fresh = Trace::new("t", model.to_vec());
    prop_assert_eq!(trace, &fresh);
    prop_assert_ne!(trace, &Trace::new("u", model.to_vec()));
    for limit in [0, model.len() / 2, model.len(), model.len() + 1] {
        let prefix = &model[..limit.min(model.len())];
        prop_assert_eq!(trace.truncated(limit), Trace::new("t", prefix.to_vec()));
        let (head, tail) = trace.as_slice().split_at(limit.min(model.len()));
        prop_assert_eq!(head.iter().collect::<Vec<_>>(), prefix.to_vec());
        prop_assert_eq!(tail.iter().collect::<Vec<_>>(), model[prefix.len()..].to_vec());
        prop_assert_eq!(tail.get(0), model.get(prefix.len()).copied());
        prop_assert_eq!((head.name(), tail.len()), ("t", model.len() - prefix.len()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A trace and a request vector driven through the same pushes and
    /// extends hold the same requests after every step.
    #[test]
    fn a_packed_trace_behaves_like_a_request_vector(
        initial in proptest::collection::vec(requests(), 0..8),
        steps in proptest::collection::vec(ops(), 1..32),
    ) {
        let mut trace = Trace::new("t", initial.clone());
        let mut model = initial;
        agrees(&trace, &model)?;
        for step in steps {
            match step {
                Op::Push(request) => {
                    trace.push(request);
                    model.push(request);
                }
                Op::Extend(requests) => {
                    trace.extend(requests.iter().copied());
                    model.extend(requests);
                }
            }
            agrees(&trace, &model)?;
        }
        let collected: Trace = model.iter().copied().collect();
        prop_assert_eq!(collected.iter().collect::<Vec<_>>(), model);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Chunks whose arrivals need from a few bits to all 64, at lengths
    /// around the chunk size, hold the same requests as the vector, and a
    /// trace pushed one request at a time equals the one `new` built.
    #[test]
    fn chunked_arrivals_behave_like_a_request_vector(
        first in prop_oneof![Just(0u64), Just(u64::MAX), 0u64..1 << 50, any::<u64>()],
        len in prop_oneof![Just(63usize), Just(64), Just(65), Just(129)],
        arrivals in proptest::collection::vec(arrival(), 129..130),
        shapes in proptest::collection::vec(mostly_moderate(), 129..130),
    ) {
        let model = build(first, &arrivals[..len], &shapes[..len]);
        let trace = Trace::new("t", model.clone());
        agrees(&trace, &model)?;
        let mut pushed = Trace::with_capacity("t", 0);
        for &request in &model {
            pushed.push(request);
        }
        prop_assert_eq!(pushed, trace);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Chunks of close arrivals and aligned shapes, whose fields shift and
    /// narrow, with a misfit that widens them now and then, at lengths around
    /// the chunk size: pushed one request at a time, the trace agrees with the
    /// vector after every push.
    #[test]
    fn aligned_chunks_behave_like_a_request_vector(
        first in prop_oneof![Just(0u64), Just(u64::MAX - 1_000), 0u64..1 << 50],
        len in prop_oneof![Just(63usize), Just(64), Just(65), Just(129)],
        arrivals in proptest::collection::vec(close_arrival(), 129..130),
        shapes in proptest::collection::vec(mostly_aligned(), 129..130),
    ) {
        let model = build(first, &arrivals[..len], &shapes[..len]);
        let mut trace = Trace::with_capacity("t", len);
        for (pushed, &request) in model.iter().enumerate() {
            trace.push(request);
            agrees(&trace, &model[..=pushed])?;
        }
    }
}

/// One way a request can stand out from the ordinary ones of its chunk.
#[derive(Debug, Clone, Copy)]
enum Misfit {
    /// Arrives `2^24` ns after the chunk's first request.
    Late,
    /// Arrives `2^32` ns after it.
    Later,
    /// Arrives 1 ns before it, an inversion.
    Early,
    /// Arrives at `u64::MAX`.
    Last,
    /// Starts at byte `2^35`.
    FarOffset,
    /// Starts as high as its length allows.
    TopOffset,
    /// Starts at an odd byte.
    OddOffset,
    /// Is `2^9 - 1` bytes long.
    Short,
    /// Is `3 * 2^12` bytes long, not a power of two.
    Uneven,
    /// Is `u32::MAX` bytes long.
    Longest,
}

/// A chunk of ordinary requests (4 KiB pages, 1 µs apart) with one misfit at
/// any slot from 0 to 63, of any kind, in any of the first two chunks, keeps
/// every request exactly, and so do the chunks around it.
#[test]
fn a_misfit_at_any_slot_of_any_chunk_round_trips() {
    let misfits = [
        Misfit::Late,
        Misfit::Later,
        Misfit::Early,
        Misfit::Last,
        Misfit::FarOffset,
        Misfit::TopOffset,
        Misfit::OddOffset,
        Misfit::Short,
        Misfit::Uneven,
        Misfit::Longest,
    ];
    let ordinary_arrivals = vec![Arrival::After(1_000); 2 * CHUNK + 3];
    let ordinary_shapes: Vec<_> =
        (0..2 * CHUNK as u64 + 3).map(|i| (i * 4096, 4096, i % 2 == 0)).collect();
    for at in 0..2 * CHUNK {
        for misfit in misfits {
            let (mut arrivals, mut shapes) = (ordinary_arrivals.clone(), ordinary_shapes.clone());
            match misfit {
                Misfit::Late => arrivals[at] = Arrival::ShortPast,
                Misfit::Later => arrivals[at] = Arrival::Past,
                Misfit::Early => arrivals[at] = Arrival::Before,
                Misfit::Last => arrivals[at] = Arrival::Max,
                Misfit::FarOffset => shapes[at].0 = FAR_OFFSET,
                Misfit::TopOffset => shapes[at].0 = TOP,
                Misfit::OddOffset => shapes[at].0 = ODD_OFFSET,
                Misfit::Short => shapes[at].1 = SHORTEST_ALIGNED - 1,
                Misfit::Uneven => shapes[at].1 = 3 << 12,
                Misfit::Longest => shapes[at].1 = u32::MAX,
            }
            let model = build(1 << 40, &arrivals, &shapes);
            let trace = Trace::new("t", model.clone());
            assert_eq!(trace.iter().collect::<Vec<_>>(), model, "{misfit:?} at {at}");
            for (index, &expected) in model.iter().enumerate() {
                assert_eq!(trace.get(index), Some(expected), "{misfit:?} at {at}");
            }
            let mut pushed = Trace::with_capacity("t", 0);
            for &request in &model {
                pushed.push(request);
            }
            assert_eq!(pushed, trace, "{misfit:?} at {at}");
        }
    }
}

/// A request at an extreme of each field: arrivals 0, `u64::MAX` and
/// between (so a chunk's inversions span the whole clock), offsets 0 or up
/// to 2 bytes below `u64::MAX - length`, lengths 1, 2 and `u32::MAX`.
fn extreme() -> impl Strategy<Value = IoRequest> {
    let at = prop_oneof![Just(0), Just(1), Just(u64::MAX - 1), Just(u64::MAX), any::<u64>()];
    let length = prop_oneof![Just(1), Just(2), Just(u32::MAX), 1..u32::MAX];
    let below_top = prop_oneof![Just(None), (0u64..3).prop_map(Some)];
    (at, length, below_top, any::<bool>()).prop_map(|(at, length, below_top, write)| {
        let offset = below_top.map_or(0, |gap| u64::MAX - u64::from(length) - gap);
        request(at, offset, length, write)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chunks of field extremes round-trip through `push`, `get`, `iter` and
    /// `split_at` at every index: one request repeated (every field zero bits
    /// wide but the op's) or requests drawn from [`extreme`] (fields up to
    /// 64, 64 and 33 bits), at lengths around one and two chunks.
    #[test]
    fn field_extremes_round_trip_at_every_index(
        len in prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(128), Just(129)],
        repeated in any::<bool>(),
        requests in proptest::collection::vec(extreme(), 129..130),
    ) {
        let model =
            if repeated { vec![requests[0]; len] } else { requests[..len].to_vec() };
        let mut trace = Trace::with_capacity("t", 0);
        for &request in &model {
            trace.push(request);
        }
        agrees(&trace, &model)?;
        for mid in 0..=len {
            let (head, tail) = trace.as_slice().split_at(mid);
            prop_assert_eq!(head.iter().collect::<Vec<_>>(), model[..mid].to_vec());
            prop_assert_eq!(tail.iter().collect::<Vec<_>>(), model[mid..].to_vec());
            for (index, &expected) in model.iter().enumerate() {
                let got = if index < mid { head.get(index) } else { tail.get(index - mid) };
                prop_assert_eq!(got, Some(expected));
            }
        }
    }
}

/// `split_at` at every index of a trace whose chunks differ in width, side
/// by side: both halves' `get` and `iter` find the right header, and so does
/// a second cut of the tail.
#[test]
fn split_at_every_index_finds_the_right_header() {
    let len = 4 * CHUNK + 2;
    let mut arrivals = vec![Arrival::After(50_000); len];
    arrivals[CHUNK + 20] = Arrival::Before;
    arrivals[CHUNK + 40] = Arrival::Past;
    let mut shapes: Vec<_> = (0..len as u64).map(|i| (i * 4096, 4096, i % 3 == 0)).collect();
    shapes[CHUNK + 5].0 = ODD_OFFSET;
    shapes[2 * CHUNK + 10].1 = 3 << 12;
    shapes[4 * CHUNK].0 = TOP;
    let model = build(1 << 35, &arrivals, &shapes);
    let trace = Trace::new("t", model.clone());
    for mid in 0..=len {
        let (head, tail) = trace.as_slice().split_at(mid);
        assert_eq!(head.iter().collect::<Vec<_>>(), model[..mid], "head of {mid}");
        assert_eq!(tail.iter().collect::<Vec<_>>(), model[mid..], "tail of {mid}");
        for (index, &expected) in model[..mid].iter().enumerate() {
            assert_eq!(head.get(index), Some(expected), "head of {mid}");
        }
        for (index, &expected) in model[mid..].iter().enumerate() {
            assert_eq!(tail.get(index), Some(expected), "tail of {mid}");
        }
        assert_eq!((head.get(mid), tail.get(len - mid)), (None, None));
        let (_, rest) = tail.split_at((len - mid) / 2);
        assert_eq!(rest.iter().collect::<Vec<_>>(), model[mid + (len - mid) / 2..]);
    }
}

/// Chunks whose arrival, offset and length differences need each width
/// from 0 to 64 bits (lengths up to 32), sharing no trailing zero, so records
/// start and straddle words at every bit: each request comes back exactly,
/// and a cut through any chunk equals the fresh trace of its prefix.
#[test]
fn every_field_width_round_trips() {
    let ones = |bits: u32| u64::MAX.checked_shr(64 - bits).unwrap_or(0);
    let mut model = Vec::new();
    for width in 0..=64u32 {
        let (arrival, offset, length) = (width, (width * 7) % 65, (width * 3) % 33);
        let base = (u64::MAX - ones(arrival)) / 2;
        for i in 0..CHUNK as u64 {
            let spread = |bits: u32| if i + 1 == CHUNK as u64 { ones(bits) } else { i & ones(bits) };
            let length = spread(length).max(1) as u32;
            let offset = spread(offset).min(u64::MAX - u64::from(length));
            model.push(request(base + spread(arrival), offset, length, i % 3 == 0));
        }
    }
    let trace = Trace::new("t", model.clone());
    assert_eq!(trace.iter().collect::<Vec<_>>(), model);
    for (index, &expected) in model.iter().enumerate() {
        assert_eq!(trace.get(index), Some(expected), "request {index}");
    }
    for len in [model.len() - 1, model.len() / 2 + 17, 3, 0] {
        assert_eq!(trace.truncated(len), Trace::new("t", model[..len].to_vec()), "truncated({len})");
    }
}
