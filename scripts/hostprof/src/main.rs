//! `hostprof <workload> [seed] [seconds] [out]`: repeats one benchmark
//! workload (untraced) for `seconds` under a 4 ms `ITIMER_PROF` tick and dumps
//! `/proc/self/maps` plus one line of addresses per sample — the interrupted
//! RIP, the word at the top of the stack (the return address, when the tick
//! fell in a libc leaf that keeps no frame), then the frame-pointer chain —
//! for `sym.py` to symbolise.
//! x86-64 Linux only: the handler reads RIP/RBP/RSP at fixed `ucontext`
//! offsets. See README.md.

use std::ffi::c_void;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

use vflash_benchmark::workloads;

const SIGPROF: i32 = 27;
const ITIMER_PROF: i32 = 2;
const SA_SIGINFO: i32 = 4;
const SA_RESTART: i32 = 0x1000_0000;
const TICK_MICROS: i64 = 4_000;
/// `ucontext_t` byte offsets of the saved registers (glibc, x86-64).
const UC_RBP: usize = 120;
const UC_RSP: usize = 160;
const UC_RIP: usize = 168;
/// Addresses per sample: RIP, the stack-top word, the chain.
const MAX_FRAMES: usize = 48;

/// glibc's `struct sigaction` on x86-64.
#[repr(C)]
struct SigAction {
    handler: extern "C" fn(i32, *mut c_void, *mut c_void),
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

/// `struct itimerval`: interval then first expiry, each seconds + microseconds.
#[repr(C)]
struct ITimerVal([i64; 4]);

extern "C" {
    fn sigaction(signal: i32, action: *const SigAction, old: *mut SigAction) -> i32;
    fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
}

/// Samples back to back: a frame count, then that many addresses.
static SAMPLES: [AtomicU64; 1 << 21] = [const { AtomicU64::new(0) }; 1 << 21];
static USED: AtomicUsize = AtomicUsize::new(0);
/// The main thread's stack mapping: frame pointers outside it are not followed.
static STACK: [AtomicU64; 2] = [const { AtomicU64::new(0) }; 2];

extern "C" fn on_tick(_signal: i32, _info: *mut c_void, ucontext: *mut c_void) {
    // SAFETY: the kernel passes a valid `ucontext_t` to an SA_SIGINFO handler;
    // the three reads are inside it (offsets above).
    let register = |offset: usize| unsafe { *ucontext.cast::<u8>().add(offset).cast::<u64>() };
    let (mut rbp, rsp) = (register(UC_RBP), register(UC_RSP));
    let (stack_low, stack_high) = (STACK[0].load(Relaxed), STACK[1].load(Relaxed));
    let at = USED.load(Relaxed);
    if at + MAX_FRAMES + 1 > SAMPLES.len() {
        return;
    }
    let mut frames = 2;
    SAMPLES[at + 1].store(register(UC_RIP), Relaxed);
    let in_stack = rsp % 8 == 0 && rsp >= stack_low && rsp + 8 <= stack_high;
    // SAFETY: `[rsp, rsp + 8)` is inside the mapped stack when read.
    SAMPLES[at + 2].store(if in_stack { unsafe { *(rsp as *const u64) } } else { 0 }, Relaxed);
    // A frame is [saved rbp, return address]; follow it only while it lies in
    // the stack mapping above the interrupted stack pointer (code without
    // frame pointers — libc — leaves anything in rbp).
    while frames < MAX_FRAMES && rbp % 8 == 0 && rbp >= rsp.max(stack_low) && rbp + 16 <= stack_high {
        // SAFETY: `[rbp, rbp + 16)` is inside the mapped stack, checked above.
        let (next, ret) = unsafe { (*(rbp as *const u64), *((rbp + 8) as *const u64)) };
        SAMPLES[at + 1 + frames].store(ret, Relaxed);
        frames += 1;
        if next <= rbp {
            break;
        }
        rbp = next;
    }
    SAMPLES[at].store(frames as u64, Relaxed);
    USED.store(at + 1 + frames, Relaxed);
}

fn set_timer(micros: i64) {
    let timer = ITimerVal([0, micros, 0, micros]);
    // SAFETY: `timer` is a valid `itimerval`; a null old-value pointer is allowed.
    assert_eq!(unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) }, 0);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let usage = "usage: hostprof <workload> [seed=7] [seconds=12] [out=hostprof.prof]";
    let name = args.next().expect(usage);
    let seed: u64 = args.next().map_or(7, |seed| seed.parse().expect(usage));
    let seconds: f64 = args.next().map_or(12.0, |seconds| seconds.parse().expect(usage));
    let out = args.next().unwrap_or_else(|| "hostprof.prof".to_string());

    let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs is mounted");
    let stack = maps.lines().find(|line| line.ends_with("[stack]")).expect("a [stack] mapping");
    let (low, high) = stack.split(' ').next().and_then(|range| range.split_once('-')).expect(usage);
    STACK[0].store(u64::from_str_radix(low, 16).expect("hex"), Relaxed);
    STACK[1].store(u64::from_str_radix(high, 16).expect("hex"), Relaxed);

    let workload = workloads::setup(&name, seed, false);
    let action =
        SigAction { handler: on_tick, mask: [0; 16], flags: SA_SIGINFO | SA_RESTART, restorer: 0 };
    // SAFETY: `action` is a valid `struct sigaction` whose handler only touches
    // atomics and the interrupted thread's own stack.
    assert_eq!(unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) }, 0);
    set_timer(TICK_MICROS);
    let (start, mut reps) = (Instant::now(), 0u32);
    while start.elapsed() < Duration::from_secs_f64(seconds) {
        let rep = std::hint::black_box(workload.rep(false));
        assert_eq!(rep.failed, 0, "the profiled workload must run clean");
        reps += 1;
    }
    set_timer(0);

    let mut text = maps;
    text.push_str("SAMPLES\n");
    let (mut at, mut samples) = (0, 0u32);
    while at < USED.load(Relaxed) {
        let frames = SAMPLES[at].load(Relaxed) as usize;
        for frame in &SAMPLES[at + 1..at + 1 + frames] {
            write!(text, "{:x} ", frame.load(Relaxed)).expect("writing to a String");
        }
        text.push('\n');
        (at, samples) = (at + 1 + frames, samples + 1);
    }
    std::fs::write(&out, text).expect("the profile is writable");
    eprintln!("{name} seed {seed}: {reps} repetitions, {samples} samples -> {out}");
}
