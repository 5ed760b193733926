//! A [`Trace`] stores its requests packed, 16 bytes each, with the few that do
//! not fit the packed word kept whole in a side table. These tests hold it to
//! the plain `Vec<IoRequest>` it replaced: the same operations on both must
//! give the same requests, lengths, statistics and equalities, at and around
//! every packing boundary (a 40-bit offset, a 23-bit `length - 1`).

use proptest::prelude::*;

use vflash_trace::{IoOp, IoRequest, Trace, TraceStats};

/// The first offset stored wide: `2^40 - 1` (its packed word would be the
/// side-table sentinel).
const FIRST_WIDE_OFFSET: u64 = (1 << 40) - 1;
/// The longest request that packs.
const LONGEST_PACKED: u32 = 1 << 23;
/// Stands for "as high as the length allows": `u64::MAX - length`.
const TOP: u64 = u64::MAX;

fn request(at_nanos: u64, offset: u64, length: u32, write: bool) -> IoRequest {
    let offset = if offset == TOP { u64::MAX - u64::from(length) } else { offset };
    let op = if write { IoOp::Write } else { IoOp::Read };
    IoRequest::new(at_nanos, op, offset, length)
}

/// Offsets and lengths on both sides of each packing boundary, and between.
fn requests() -> impl Strategy<Value = IoRequest> {
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
    (any::<u64>(), offset, length, any::<bool>())
        .prop_map(|(at, offset, length, write)| request(at, offset, length, write))
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
    // fresh from its requests, so a side-table entry no record refers to
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
