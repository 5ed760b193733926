//! Streams a generated multi-hundred-MB synthetic MSR file through the subset
//! filters in constant memory.
//!
//! The MSR-Cambridge originals are multi-GB; the reader claims to handle them
//! streaming, but until now it had only ever seen strings of a few lines. This
//! test manufactures a file of a few hundred megabytes (a couple of million
//! requests), runs a **full-scan** filter over it (an LBA range that keeps ~0.1%
//! of the requests — every line must be visited), and checks that
//!
//! 1. the filter keeps exactly the expected requests,
//! 2. a `first_n` subset stops reading after its quota (so it is instant), and
//! 3. on Linux, the process's peak RSS grows by far less than the file size —
//!    i.e. neither the file nor the full request vector was ever materialised.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

use vflash_trace::msr::{parse_path_filtered, SubsetOptions};
use vflash_trace::IoOp;

/// ~210 MB of trace: 4 M lines x ~53 bytes.
const LINES: u64 = 4_000_000;
/// One request every millisecond (FILETIME is 100 ns ticks).
const TICKS_PER_LINE: u64 = 10_000;
const BASE_TIMESTAMP: u64 = 128_166_372_003_061_629;
/// Logical space the synthetic offsets cycle through (16 GiB).
const SPAN: u64 = 16 << 30;

fn offset_of(line: u64) -> u64 {
    // A coprime stride scatters offsets over the whole span, 4 KiB aligned.
    (line.wrapping_mul(2_654_435_761) % (SPAN / 4096)) * 4096
}

fn generate(path: &PathBuf) -> u64 {
    let mut writer = BufWriter::with_capacity(1 << 20, File::create(path).expect("temp file"));
    let mut bytes = 0u64;
    let mut line = String::with_capacity(80);
    for i in 0..LINES {
        use std::fmt::Write as _;
        line.clear();
        let op = if i % 5 == 0 { "Write" } else { "Read" };
        let timestamp = BASE_TIMESTAMP + i * TICKS_PER_LINE;
        writeln!(line, "{timestamp},src1,0,{op},{},{},120", offset_of(i), 4096 + (i % 2) * 4096)
            .unwrap();
        bytes += line.len() as u64;
        writer.write_all(line.as_bytes()).unwrap();
    }
    writer.flush().unwrap();
    bytes
}

#[cfg(target_os = "linux")]
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn multi_hundred_mb_file_streams_in_constant_memory() {
    let path = std::env::temp_dir().join(format!("vflash_big_msr_{}.csv", std::process::id()));
    let bytes = generate(&path);
    assert!(bytes >= 200 * 1000 * 1000, "generated only {bytes} bytes; not multi-hundred-MB");

    #[cfg(target_os = "linux")]
    let rss_before = peak_rss_bytes();

    // Full scan: an LBA window of 16 MiB out of 16 GiB keeps ~0.1% of requests,
    // but every one of the 3.6 M lines must be parsed to decide.
    let window = 16 << 20;
    let filter = SubsetOptions::lba_range(0, window);
    let trace = parse_path_filtered(&path, &filter).expect("big file parses");
    let expected = (0..LINES).filter(|&i| offset_of(i) < window).count();
    assert_eq!(trace.len(), expected, "LBA filter kept the wrong subset");
    assert!(trace.len() > 1_000, "window too small to be a meaningful test");
    for request in trace.iter() {
        assert!(request.offset < window);
        assert!(request.at_nanos % 1_000_000 == 0, "arrival times are whole milliseconds");
    }

    // first_n stops reading at the quota: correct prefix, instant even on a
    // multi-hundred-MB file.
    let head = parse_path_filtered(&path, &SubsetOptions::first_n(1_000)).expect("head parses");
    assert_eq!(head.len(), 1_000);
    assert_eq!(head.get(0).unwrap().at_nanos, 0);
    assert_eq!(head.get(5).unwrap().op, IoOp::Write);
    assert_eq!(head.get(999).unwrap().at_nanos, 999 * 1_000_000);

    #[cfg(target_os = "linux")]
    if let (Some(before), Some(after)) = (rss_before, peak_rss_bytes()) {
        let growth = after.saturating_sub(before);
        assert!(
            growth < 64 * 1024 * 1024,
            "peak RSS grew {growth} bytes while streaming a {bytes}-byte file — \
             that is not constant memory"
        );
    }

    std::fs::remove_file(&path).ok();
}
