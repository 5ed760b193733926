//! Property-based contracts of the queue-depth window — one
//! `FlashTranslationLayer::submit_batch` played by `LaneState::play_window` —
//! for both FTLs, with fault injection off and on:
//!
//! * a window never takes longer than the serial sum of its pages' latencies
//!   (chip overlap can only help),
//! * nor less than the busiest chip's op time (a chip does one op at a time),
//! * and it leaves the device exactly where serial submission leaves it —
//!   same completions, same metrics, same refusal after the same pages;
//! * a completion's latency is the sum of its ops' latencies: what lets a page
//!   charged serially (depth 1) and the same page overlaid op by op (deeper)
//!   cost the same.

use proptest::prelude::*;
use vflash::ftl::{
    Completion, ConventionalFtl, FlashTranslationLayer, FtlConfig, FtlError, IoRequest, Lpn,
};
use vflash::nand::{FaultConfig, NandConfig, NandDevice, Nanos, OpSpan};
use vflash::ppb::{PpbConfig, PpbFtl};
use vflash::sim::{ArrivalDiscipline, LaneState, RunOptions};

/// A compact encoding of one batched host operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write { lpn: u64, small: bool },
    Read { lpn: u64 },
}

impl Op {
    fn request(self, page_bytes: u32) -> IoRequest {
        match self {
            Op::Write { lpn, small } => {
                let bytes = if small { 512 } else { 16 * page_bytes };
                IoRequest::write(Lpn(lpn), bytes)
            }
            Op::Read { lpn } => IoRequest::read(Lpn(lpn)),
        }
    }
}

fn arb_ops(logical: u64) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0..logical, any::<bool>()).prop_map(|(lpn, small)| Op::Write { lpn, small }),
            (0..logical).prop_map(|lpn| Op::Read { lpn }),
        ],
        1..48,
    )
}

const PAGE_BYTES: u32 = 4096;

fn device(faults: Option<u64>) -> NandDevice {
    let mut builder = NandConfig::builder()
        .chips(4)
        .blocks_per_chip(16)
        .pages_per_block(8)
        .page_size_bytes(PAGE_BYTES as usize)
        .speed_ratio(4.0);
    if let Some(seed) = faults {
        builder = builder.faults(FaultConfig {
            rber_scale: 3.0,
            ..FaultConfig::enabled(seed)
        });
    }
    NandDevice::new(builder.build().expect("valid test geometry"))
}

fn conventional(faults: Option<u64>) -> ConventionalFtl {
    ConventionalFtl::new(device(faults), FtlConfig::default()).expect("ftl builds")
}

fn ppb(faults: Option<u64>) -> PpbFtl {
    PpbFtl::new(device(faults), PpbConfig::default()).expect("ftl builds")
}

/// Writes every logical page once so subsequent reads are all valid. Returns
/// `false` when fault injection wore the device into read-only mode first —
/// the timing properties are vacuous on a dead device.
fn prefill(ftl: &mut dyn FlashTranslationLayer) -> bool {
    for lpn in 0..ftl.logical_pages() {
        match ftl.submit(IoRequest::write(Lpn(lpn), 16 * PAGE_BYTES)) {
            Ok(_) => {}
            Err(FtlError::ReadOnly) => return false,
            Err(err) => panic!("prefill write failed: {err:?}"),
        }
    }
    true
}

/// The pages of one queue-depth window.
const WINDOW: usize = 16;

/// Plays `ops` in windows on one lane over `batched`, and one by one through
/// scalar `submit` on its twin `serial`, whose op spans say what each window's
/// bounds are.
fn check_window_bounds(
    mut batched: Box<dyn FlashTranslationLayer>,
    mut serial: Box<dyn FlashTranslationLayer>,
    ops: &[Op],
) {
    let alive = prefill(batched.as_mut());
    assert_eq!(alive, prefill(serial.as_mut()), "prefill evolution diverged");
    if !alive {
        return;
    }
    let chips = batched.device().config().chips();
    for ftl in [&mut batched, &mut serial] {
        // Stripe the write stream like a depth>1 host would, so windows
        // genuinely overlap and the bounds are exercised away from the
        // degenerate window == serial sum case.
        ftl.set_write_stripe(chips);
        ftl.device_mut().set_op_tracing(true);
    }
    let discipline = ArrivalDiscipline::ClosedLoop { queue_depth: WINDOW };
    let mut lane = LaneState::new(batched.as_ref(), &RunOptions::default(), discipline);
    let requests: Vec<IoRequest> = ops.iter().map(|op| op.request(PAGE_BYTES)).collect();
    let mut completions = Vec::new();
    let (mut windows, mut pages) = (0, 0);
    for window in requests.chunks(WINDOW) {
        let start = lane.now();
        let played = lane.play_window(batched.as_mut(), window, &mut completions);
        let took = lane.now() - start;

        // The same pages, serially: the reference for state and for time.
        let mut expected: Vec<Completion> = Vec::new();
        let mut refused = Ok(());
        let mut per_chip = vec![Nanos::ZERO; chips];
        for &request in window {
            match serial.submit(request) {
                Ok(completion) => {
                    for op in serial.device().ops(completion.ops) {
                        per_chip[op.chip.0] += op.latency;
                    }
                    expected.push(Completion { ops: OpSpan::EMPTY, ..completion });
                }
                Err(error) => {
                    refused = Err(error);
                    break;
                }
            }
        }
        serial.device_mut().clear_ops();
        assert_eq!(completions, expected, "the window applied other pages, or other costs");
        assert_eq!(played, refused, "the window and the serial twin were refused differently");

        let serial_sum: Nanos = expected.iter().map(|completion| completion.latency).sum();
        assert!(took <= serial_sum, "window took {took:?}, the serial sum is {serial_sum:?}");
        let busiest = per_chip.into_iter().max().unwrap_or(Nanos::ZERO);
        assert!(took >= busiest, "window took {took:?}, its busiest chip works {busiest:?}");

        windows += u64::from(!expected.is_empty());
        pages += expected.len() as u64;
        if played.is_err() {
            break;
        }
    }
    // The batched side only differs in its batching counters: one submission
    // per window that applied a page, every applied page counted.
    let mut batched_metrics = *batched.metrics();
    let counted = (batched_metrics.batched_submissions, batched_metrics.batched_pages);
    assert_eq!(counted, (windows, pages));
    batched_metrics.batched_submissions = 0;
    batched_metrics.batched_pages = 0;
    assert_eq!(batched_metrics, *serial.metrics());
    assert_eq!(batched.device().makespan(), serial.device().makespan());
}

/// Submits `ops`, then overwrites every logical page once more so garbage
/// collection runs whatever `ops` held, and demands of every completion that
/// its latency is the sum of its ops' latencies.
fn check_latency_is_the_sum_of_op_latencies(ftl: &mut dyn FlashTranslationLayer, ops: &[Op]) {
    if !prefill(ftl) {
        return;
    }
    ftl.device_mut().set_op_tracing(true);
    let overwrites = (0..ftl.logical_pages()).map(|lpn| Op::Write { lpn, small: lpn % 3 == 0 });
    for op in ops.iter().copied().chain(overwrites) {
        let completion = match ftl.submit(op.request(PAGE_BYTES)) {
            Ok(completion) => completion,
            Err(FtlError::ReadOnly) => return,
            Err(err) => panic!("{op:?} failed: {err:?}"),
        };
        let op_sum: Nanos = ftl.device().ops(completion.ops).iter().map(|op| op.latency).sum();
        assert_eq!(completion.latency, op_sum, "{op:?}: {completion:?}");
        ftl.device_mut().clear_ops();
    }
    assert!(ftl.metrics().gc_erased_blocks > 0, "the overwrites never reached GC");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_makespan_is_bounded_on_both_ftls(ops in arb_ops(96), seed in any::<u64>()) {
        for faults in [None, Some(seed)] {
            check_window_bounds(
                Box::new(conventional(faults)),
                Box::new(conventional(faults)),
                &ops,
            );
            check_window_bounds(Box::new(ppb(faults)), Box::new(ppb(faults)), &ops);
        }
    }

    #[test]
    fn completion_latency_is_the_sum_of_its_op_latencies(ops in arb_ops(96), seed in any::<u64>()) {
        for faults in [None, Some(seed)] {
            check_latency_is_the_sum_of_op_latencies(&mut conventional(faults), &ops);
            check_latency_is_the_sum_of_op_latencies(&mut ppb(faults), &ops);
        }
    }
}
