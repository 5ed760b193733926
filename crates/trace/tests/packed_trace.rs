//! A [`Trace`] stores its requests packed, 12 bytes each plus a header per 64
//! requests (16 bytes each in a chunk whose arrivals do not fit 32-bit offsets
//! from its first), with the few that do not fit the packed word kept whole in
//! a side table. These tests hold it to the plain `Vec<IoRequest>` it replaced:
//! the same operations on both must give the same requests, lengths,
//! statistics and equalities, at and around every packing boundary (a 40-bit
//! offset, a 23-bit `length - 1`, a 64-request chunk, a 2^32 ns arrival
//! window on either side of a chunk's first arrival).

use proptest::prelude::*;

use vflash_trace::{IoOp, IoRequest, Trace, TraceStats};

/// The first offset stored wide: `2^40 - 1` (its packed word would be the
/// side-table sentinel).
const FIRST_WIDE_OFFSET: u64 = (1 << 40) - 1;
/// The longest request that packs.
const LONGEST_PACKED: u32 = 1 << 23;
/// Stands for "as high as the length allows": `u64::MAX - length`.
const TOP: u64 = u64::MAX;
/// Requests under one chunk header.
const CHUNK: usize = 64;
/// The first arrival offset from a chunk's first arrival that turns it far.
const WINDOW: u64 = 1 << 32;

fn request(at_nanos: u64, offset: u64, length: u32, write: bool) -> IoRequest {
    let offset = if offset == TOP { u64::MAX - u64::from(length) } else { offset };
    let op = if write { IoOp::Write } else { IoOp::Read };
    IoRequest::new(at_nanos, op, offset, length)
}

/// Offsets, lengths and ops on both sides of each packing boundary, and
/// between: `request`'s arguments but the arrival.
fn shapes() -> impl Strategy<Value = (u64, u32, bool)> {
    let offset = prop_oneof![
        Just(FIRST_WIDE_OFFSET - 1),
        Just(FIRST_WIDE_OFFSET),
        Just(TOP),
        0u64..FIRST_WIDE_OFFSET,
        FIRST_WIDE_OFFSET..u64::MAX / 2,
    ];
    let length = prop_oneof![
        Just(1u32),
        Just(LONGEST_PACKED),
        Just(LONGEST_PACKED + 1),
        Just(u32::MAX),
        1u32..LONGEST_PACKED,
    ];
    (offset, length, any::<bool>())
}

/// Mostly packed shapes, a wide one now and then.
fn mostly_packed() -> impl Strategy<Value = (u64, u32, bool)> {
    let packed = (0u64..FIRST_WIDE_OFFSET, 1u32..LONGEST_PACKED + 1, any::<bool>());
    (0u8..9, packed, shapes()).prop_map(|(pick, packed, any)| if pick == 0 { any } else { packed })
}

/// Requests of any shape at any arrival: a chunk of them is almost always far.
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
    /// The last arrival that keeps the chunk narrow: its first plus `2^32 - 1`.
    Edge,
    /// The first one past it: the chunk's first arrival plus `2^32`.
    Past,
    /// One nanosecond before the chunk's first arrival, an inversion.
    Before,
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

/// A request of 4 KiB at `offset` pages, arriving at `at_nanos`.
fn page(at_nanos: u64, offset: u64) -> IoRequest {
    IoRequest::new(at_nanos, IoOp::Write, offset * 4096, 4096)
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
    // fresh from its requests, so a side-table entry no request refers to
    // makes them differ.
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

    /// Chunks that stay narrow, start far or turn far part-way, at lengths
    /// around the chunk size, hold the same requests as the vector, and a
    /// trace pushed one request at a time equals the one `new` built.
    #[test]
    fn chunked_arrivals_behave_like_a_request_vector(
        first in prop_oneof![Just(0u64), Just(u64::MAX), 0u64..1 << 50, any::<u64>()],
        len in prop_oneof![Just(63usize), Just(64), Just(65), Just(129)],
        arrivals in proptest::collection::vec(arrival(), 129..130),
        shapes in proptest::collection::vec(mostly_packed(), 129..130),
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

/// A chunk that turns far after `k` narrow requests keeps the arrivals of
/// those `k` exactly, whichever arrival turns it and whichever chunk it is.
#[test]
fn a_chunk_turns_far_after_any_number_of_narrow_requests() {
    let shapes: Vec<_> = (0..3 * CHUNK as u64).map(|i| (i * 4096, 4096, i % 2 == 0)).collect();
    for chunk in 0..2 {
        for k in 1..CHUNK {
            for breaker in [Arrival::Past, Arrival::Before, Arrival::Max] {
                let mut arrivals = vec![Arrival::After(1_000); 3 * CHUNK];
                arrivals[chunk * CHUNK + k] = breaker;
                let model = build(1 << 40, &arrivals, &shapes);
                let trace = Trace::new("t", model.clone());
                assert_eq!(trace.iter().collect::<Vec<_>>(), model, "{breaker:?} at {k}");
                for (index, &expected) in model.iter().enumerate() {
                    assert_eq!(trace.get(index), Some(expected), "{breaker:?} at {k}");
                }
            }
        }
    }
}

/// A wide request first in its chunk is the chunk's base: the packed
/// requests after it store offsets from its arrival, and the chunk still
/// turns far on an inversion against it.
#[test]
fn a_wide_request_first_in_its_chunk_sets_its_base() {
    let mut model: Vec<_> = (0..CHUNK as u64).map(|i| page(i * 1_000, i)).collect();
    model.push(request(5 << 32, FIRST_WIDE_OFFSET, 4096, false));
    model.extend((1..CHUNK as u64).map(|i| page((5 << 32) + i * 1_000, i)));
    model.push(request(9 << 32, TOP, u32::MAX, true));
    model.extend((1..10).map(|i| page((9 << 32) + i, i)));
    model.push(page((9 << 32) - 1, 10));
    model.push(request(9 << 32, 0, LONGEST_PACKED + 1, false));
    model.extend((12..CHUNK as u64 + 3).map(|i| page((9 << 32) + i, i)));
    let trace = Trace::new("t", model.clone());
    agrees(&trace, &model).unwrap();
}

/// `split_at` at every index of a trace with narrow, far and part-far chunks
/// and wide requests: both halves' `get` and `iter` find the right header,
/// and so does a second cut of the tail.
#[test]
fn split_at_every_index_finds_the_right_header() {
    let len = 130;
    let mut arrivals = vec![Arrival::After(50_000); len];
    arrivals[CHUNK + 20] = Arrival::Before;
    arrivals[CHUNK + 40] = Arrival::Past;
    let mut shapes: Vec<_> = (0..len as u64).map(|i| (i * 4096, 4096, i % 3 == 0)).collect();
    shapes[CHUNK + 5].0 = FIRST_WIDE_OFFSET;
    shapes[2 * CHUNK].0 = TOP;
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

#[test]
fn every_packing_boundary_round_trips() {
    let offsets = [0, FIRST_WIDE_OFFSET - 1, FIRST_WIDE_OFFSET, TOP];
    let lengths = [1, 2, LONGEST_PACKED, LONGEST_PACKED + 1, u32::MAX];
    let mut model = Vec::new();
    for offset in offsets {
        for length in lengths {
            for write in [false, true] {
                let at_nanos = u64::MAX - model.len() as u64;
                model.push(request(at_nanos, offset, length, write));
            }
        }
    }
    let trace = Trace::new("t", model.clone());
    assert_eq!(trace.iter().collect::<Vec<_>>(), model);
    // Cut through the middle of the wide requests, then past all of them.
    for len in [model.len() - 1, model.len() / 2, 3, 0] {
        assert_eq!(trace.truncated(len), Trace::new("t", model[..len].to_vec()), "truncated({len})");
    }
}
