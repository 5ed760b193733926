//! Parser for the MSR-Cambridge block trace format.
//!
//! The traces published by Narayanan et al. ("Write Off-Loading: Practical Power
//! Management for Enterprise Storage", TOS 2008) are CSV files with one request per
//! line:
//!
//! ```text
//! Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//! 128166372003061629,mds,0,Read,7014609920,24576,41286
//! ```
//!
//! * `Timestamp` — Windows FILETIME (100 ns ticks since 1601-01-01),
//! * `Type` — `Read` or `Write` (case-insensitive),
//! * `Offset`, `Size` — bytes,
//! * `ResponseTime` — measured service time in microseconds (ignored here; the
//!   simulator computes its own).
//!
//! The real MSR traces cannot be redistributed with this repository; the synthetic
//! generators in [`crate::synthetic`] stand in for them, but this parser lets the
//! original files be used unmodified when available.

use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

use crate::request::{IoOp, IoRequest, Trace};

/// Error produced while parsing an MSR-Cambridge CSV trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid msr trace line {}: {}", self.line, self.reason)
    }
}

impl Error for ParseTraceError {}

/// Parses an MSR-Cambridge CSV trace from a reader.
///
/// The input is consumed **streaming, line by line**, into a single reused buffer:
/// neither the file nor per-line `String`s are materialised, so multi-GB raw traces
/// parse within a constant memory budget (plus the decoded [`Trace`], which the
/// parser pushes into directly: each 64 requests cost the bits their widest
/// arrival, offset and length differences need, plus a 40-byte header).
///
/// Timestamps are re-based so the first request arrives at time zero. A line
/// stamped before the file's first request arrives at time zero too (the
/// difference saturates), without an error: real files carry such minor
/// inversions near their head. Blank lines are skipped. Requests with zero size are skipped (they occasionally appear in the raw
/// traces and carry no FTL-visible work).
///
/// # Errors
///
/// Returns [`ParseTraceError`] for malformed lines (wrong field count, unparsable
/// numbers, unknown request type, a byte range or rebased timestamp past 64 bits)
/// and wraps I/O errors from the reader in the same error with the failing line
/// number.
///
/// # Example
///
/// ```
/// use vflash_trace::msr;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let csv = "\
/// 128166372003061629,mds,0,Read,7014609920,24576,41286
/// 128166372016853766,mds,0,Write,1317441536,8192,1763";
/// let trace = msr::parse(csv.as_bytes(), "mds_0")?;
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.get(0).map(|request| request.at_nanos), Some(0));
/// # Ok(())
/// # }
/// ```
pub fn parse<R: BufRead>(reader: R, name: &str) -> Result<Trace, ParseTraceError> {
    parse_filtered(reader, name, &SubsetOptions::default())
}

/// One decoded trace line, before timestamp rebasing.
struct ParsedLine {
    timestamp: u64,
    op: IoOp,
    offset: u64,
    size: u32,
}

/// Parses one non-blank CSV line into its FTL-relevant fields. Returns `None` for
/// zero-size requests (they occasionally appear in the raw traces and carry no
/// FTL-visible work).
fn parse_line(trimmed: &str, line_number: usize) -> Result<Option<ParsedLine>, ParseTraceError> {
    let fields: Vec<&str> = trimmed.split(',').collect();
    if fields.len() < 6 {
        return Err(ParseTraceError {
            line: line_number,
            reason: format!("expected at least 6 comma-separated fields, found {}", fields.len()),
        });
    }
    let timestamp: u64 = fields[0].trim().parse().map_err(|_| ParseTraceError {
        line: line_number,
        reason: format!("bad timestamp `{}`", fields[0]),
    })?;
    let op = match fields[3].trim().to_ascii_lowercase().as_str() {
        "read" | "r" => IoOp::Read,
        "write" | "w" => IoOp::Write,
        other => {
            return Err(ParseTraceError {
                line: line_number,
                reason: format!("unknown request type `{other}`"),
            })
        }
    };
    let offset: u64 = fields[4].trim().parse().map_err(|_| ParseTraceError {
        line: line_number,
        reason: format!("bad offset `{}`", fields[4]),
    })?;
    let size: u64 = fields[5].trim().parse().map_err(|_| ParseTraceError {
        line: line_number,
        reason: format!("bad size `{}`", fields[5]),
    })?;
    if size == 0 {
        return Ok(None);
    }
    let size = u32::try_from(size).map_err(|_| ParseTraceError {
        line: line_number,
        reason: format!("request size {size} does not fit in 32 bits"),
    })?;
    // Checked like the timestamp: a range ending past the 64-bit byte address
    // space has no logical pages, and wrapping it would drop the request.
    if offset.checked_add(u64::from(size)).is_none() {
        return Err(ParseTraceError {
            line: line_number,
            reason: format!(
                "byte range at offset {offset} of size {size} overflows 64-bit addresses"
            ),
        });
    }
    Ok(Some(ParsedLine { timestamp, op, offset, size }))
}

/// Walks a trace stream line by line through one reused buffer, handing each
/// decoded request (with its rebased arrival time and the raw line **including
/// its original line ending**) to `visit`. `visit` returns `false` to stop
/// early — that is what makes [`SubsetOptions::first_n`] constant-*time* on
/// huge files, on top of the constant memory every path here has.
fn scan<R: BufRead>(
    mut reader: R,
    mut visit: impl FnMut(usize, u64, &ParsedLine, &str) -> bool,
) -> Result<ScanStats, ParseTraceError> {
    let mut stats = ScanStats::default();
    let mut first_timestamp: Option<u64> = None;
    let mut line = String::new();
    let mut line_number = 0usize;

    loop {
        line.clear();
        let bytes = reader.read_line(&mut line).map_err(|e| ParseTraceError {
            line: line_number + 1,
            reason: format!("read error: {e}"),
        })?;
        if bytes == 0 {
            break;
        }
        line_number += 1;
        stats.lines = line_number;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let Some(parsed) = parse_line(trimmed, line_number)? else { continue };
        stats.requests += 1;
        // Times are rebased against the first request of the *file* (not of the
        // subset), so a time window means the same thing whatever other filters
        // are active. FILETIME ticks are 100 ns each. The tick-to-nanosecond
        // conversion is checked: a rebased timestamp that does not fit in 64-bit
        // nanoseconds (~584 years of trace) is a corrupt line, and silently
        // saturating it would fold the tail of the trace onto one instant.
        let base = *first_timestamp.get_or_insert(parsed.timestamp);
        let ticks = parsed.timestamp.saturating_sub(base);
        let at_nanos = ticks.checked_mul(100).ok_or_else(|| ParseTraceError {
            line: line_number,
            reason: format!(
                "timestamp {} is {ticks} ticks after the file's first request, which \
                 overflows the 64-bit nanosecond clock",
                parsed.timestamp
            ),
        })?;
        if !visit(line_number, at_nanos, &parsed, &line) {
            break;
        }
    }
    Ok(stats)
}

/// Counters describing one streaming pass over a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanStats {
    /// Physical lines consumed (including blank and zero-size lines).
    pub lines: usize,
    /// Well-formed, non-zero-size requests seen before any early stop.
    pub requests: usize,
}

/// Filters selecting a subset of a trace. All active filters must match
/// (conjunction); the default matches everything.
///
/// Used by [`parse_filtered`] / [`parse_path_filtered`] (decode the subset into a
/// [`Trace`]) and by [`subset`] (copy the subset's raw lines to a writer, for
/// cutting a small file out of a multi-GB original). Both paths stream in
/// constant memory, and `first_n` additionally stops reading the input as soon as
/// the quota is filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubsetOptions {
    /// Keep only the first N matching requests, then stop reading.
    pub first_n: Option<usize>,
    /// Keep requests arriving within `[start, end)` nanoseconds, measured from
    /// the first request of the file (the same rebasing [`parse`] applies).
    pub time_window_nanos: Option<(u64, u64)>,
    /// Keep requests whose byte range `[offset, offset + size)` overlaps this
    /// `[start, end)` range of the logical address space.
    pub lba_range_bytes: Option<(u64, u64)>,
}

impl SubsetOptions {
    /// Keeps only the first `n` matching requests.
    pub fn first_n(n: usize) -> Self {
        SubsetOptions { first_n: Some(n), ..SubsetOptions::default() }
    }

    /// Keeps requests arriving within `[start, end)` ns from the file's start.
    pub fn time_window(start_nanos: u64, end_nanos: u64) -> Self {
        SubsetOptions { time_window_nanos: Some((start_nanos, end_nanos)), ..Default::default() }
    }

    /// Keeps requests overlapping the byte range `[start, end)`.
    pub fn lba_range(start_byte: u64, end_byte: u64) -> Self {
        SubsetOptions { lba_range_bytes: Some((start_byte, end_byte)), ..Default::default() }
    }

    /// Whether a request with the given rebased arrival time and byte extent
    /// passes the time-window and LBA filters (`first_n` is enforced by the
    /// consumers, which count what they keep).
    fn matches(&self, at_nanos: u64, offset: u64, size: u32) -> bool {
        if let Some((start, end)) = self.time_window_nanos {
            if at_nanos < start || at_nanos >= end {
                return false;
            }
        }
        if let Some((start, end)) = self.lba_range_bytes {
            let request_end = offset.saturating_add(u64::from(size));
            if request_end <= start || offset >= end {
                return false;
            }
        }
        true
    }
}

/// Like [`parse`], but keeps only the requests matching `options`. The input is
/// consumed streaming; memory stays proportional to the *kept* subset, and with
/// [`SubsetOptions::first_n`] the reader is dropped as soon as the quota fills.
///
/// # Errors
///
/// Returns [`ParseTraceError`] as [`parse`] does.
pub fn parse_filtered<R: BufRead>(
    reader: R,
    name: &str,
    options: &SubsetOptions,
) -> Result<Trace, ParseTraceError> {
    let quota = options.first_n.unwrap_or(usize::MAX);
    let mut trace = Trace::with_capacity(name, 0);
    scan(reader, |_line, at_nanos, parsed, _raw| {
        if trace.len() >= quota {
            return false;
        }
        if options.matches(at_nanos, parsed.offset, parsed.size) {
            trace.push(IoRequest::new(at_nanos, parsed.op, parsed.offset, parsed.size));
        }
        trace.len() < quota
    })?;
    Ok(trace)
}

/// Copies the raw lines of the requests matching `options` from `reader` to
/// `writer`, preserving the original CSV bytes — line endings (`\n` or `\r\n`)
/// and surrounding whitespace included, so the output is a byte-exact subset of
/// the input. Timestamps are *not* rebased in the output: the subset file
/// remains a valid MSR trace whose own rebase happens when it is parsed.
/// Returns how many lines were scanned and kept.
///
/// This is the engine of the `trace-subset` tool: cutting a tractable slice out
/// of a multi-GB MSR-Cambridge file without ever materialising either file.
///
/// # Errors
///
/// Returns [`ParseTraceError`] for malformed input as [`parse`] does, and wraps
/// writer errors with the line number being written.
pub fn subset<R: BufRead, W: Write>(
    reader: R,
    mut writer: W,
    options: &SubsetOptions,
) -> Result<SubsetStats, ParseTraceError> {
    let mut kept = 0usize;
    let quota = options.first_n.unwrap_or(usize::MAX);
    let mut write_error: Option<(usize, std::io::Error)> = None;
    let scanned = scan(reader, |line_number, at_nanos, parsed, raw| {
        if kept >= quota {
            return false;
        }
        if options.matches(at_nanos, parsed.offset, parsed.size) {
            if let Err(error) = writer.write_all(raw.as_bytes()) {
                write_error = Some((line_number, error));
                return false;
            }
            kept += 1;
        }
        kept < quota
    })?;
    if let Some((line, error)) = write_error {
        return Err(ParseTraceError { line, reason: format!("write error: {error}") });
    }
    Ok(SubsetStats { scanned, kept })
}

/// The outcome of one [`subset`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubsetStats {
    /// What the pass read before stopping.
    pub scanned: ScanStats,
    /// Requests written to the output.
    pub kept: usize,
}

/// Opens an MSR-Cambridge CSV trace file and parses it streaming through a buffered
/// reader; the file is never held in memory as a whole. The trace is named after the
/// file stem (`mds_0.csv` → `"mds_0"`).
///
/// # Errors
///
/// Returns [`ParseTraceError`] with line 0 if the file cannot be opened, and the
/// usual malformed-line errors (with their 1-based line number) from [`parse`].
///
/// # Example
///
/// ```no_run
/// use vflash_trace::msr;
///
/// let trace = msr::parse_path("/traces/mds_0.csv").expect("readable, well-formed trace");
/// println!("{} requests", trace.len());
/// ```
pub fn parse_path<P: AsRef<Path>>(path: P) -> Result<Trace, ParseTraceError> {
    parse_path_filtered(path, &SubsetOptions::default())
}

/// Like [`parse_path`], but keeps only the requests matching `options`. Streams
/// the file through a buffered reader in constant memory (plus the kept subset),
/// and stops reading early once a [`SubsetOptions::first_n`] quota fills — so
/// pulling the first thousand requests out of a multi-GB MSR-Cambridge file costs
/// a few kilobytes of I/O, not a full scan.
///
/// # Errors
///
/// Returns [`ParseTraceError`] as [`parse_path`] does.
pub fn parse_path_filtered<P: AsRef<Path>>(
    path: P,
    options: &SubsetOptions,
) -> Result<Trace, ParseTraceError> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .map(|stem| stem.to_string_lossy().into_owned())
        .unwrap_or_else(|| "msr-trace".to_string());
    let file = File::open(path).map_err(|e| ParseTraceError {
        line: 0,
        reason: format!("cannot open {}: {e}", path.display()),
    })?;
    parse_filtered(BufReader::new(file), &name, options)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
128166372003061629,mds,0,Read,7014609920,24576,41286
128166372016853766,mds,0,Write,1317441536,8192,1763

128166372026937550,mds,0,READ,1317441536,8192,993
";

    #[test]
    fn parses_well_formed_lines_and_rebases_time() {
        let trace = parse(SAMPLE.as_bytes(), "mds_0").unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.name(), "mds_0");
        let reqs: Vec<_> = trace.iter().collect();
        assert_eq!(trace.get(0), Some(reqs[0]));
        assert_eq!(reqs[0].at_nanos, 0);
        assert_eq!(reqs[0].op, IoOp::Read);
        assert_eq!(reqs[0].offset, 7014609920);
        assert_eq!(reqs[0].length, 24576);
        // (128166372016853766 - 128166372003061629) ticks * 100 ns
        assert_eq!(reqs[1].at_nanos, 13_792_137 * 100);
        // case-insensitive op parsing
        assert_eq!(reqs[2].op, IoOp::Read);
    }

    #[test]
    fn zero_size_requests_are_skipped() {
        let csv = "1,host,0,Read,0,0,10\n2,host,0,Write,4096,4096,10\n";
        let trace = parse(csv.as_bytes(), "t").unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.get(0).unwrap().op, IoOp::Write);
    }

    #[test]
    fn malformed_lines_report_line_numbers() {
        let csv = "1,host,0,Read,0,4096,10\nnot,a,valid,line\n";
        let err = parse(csv.as_bytes(), "t").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn unknown_op_is_rejected() {
        let csv = "1,host,0,Trim,0,4096,10\n";
        let err = parse(csv.as_bytes(), "t").unwrap_err();
        assert!(err.reason.contains("unknown request type"));
    }

    #[test]
    fn parse_path_streams_a_file_and_names_it_after_the_stem() {
        let path = std::env::temp_dir().join(format!(
            "vflash_msr_test_{}_{}.csv",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len(),
        ));
        std::fs::write(&path, SAMPLE).unwrap();
        let trace = parse_path(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(trace.len(), 3);
        assert!(trace.name().starts_with("vflash_msr_test_"));
    }

    #[test]
    fn parse_path_reports_unopenable_files() {
        let err = parse_path("/nonexistent/vflash/msr.csv").unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.reason.contains("cannot open"));
    }

    #[test]
    fn line_numbers_survive_blank_line_skipping() {
        // The blank line still counts towards line numbering, so a later error
        // points at the physical line of the file.
        let csv = "1,host,0,Read,0,4096,10\n\nbroken\n";
        let err = parse(csv.as_bytes(), "t").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn first_n_keeps_a_prefix_and_stops_early() {
        let trace = parse_filtered(SAMPLE.as_bytes(), "t", &SubsetOptions::first_n(2)).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.get(1).unwrap().op, IoOp::Write);
        // A malformed line *after* the quota is never reached.
        let csv = "1,h,0,Read,0,4096,9\nbroken line\n";
        let trace = parse_filtered(csv.as_bytes(), "t", &SubsetOptions::first_n(1)).unwrap();
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn time_window_is_rebased_against_the_file_start() {
        // Requests at +0, +1379.2137 ms, +2387.5921 ms (FILETIME ticks x 100 ns).
        let window = SubsetOptions::time_window(1_000_000_000, 2_000_000_000);
        let trace = parse_filtered(SAMPLE.as_bytes(), "t", &window).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.get(0).unwrap().op, IoOp::Write);
        // The kept request retains its file-relative arrival time.
        assert_eq!(trace.get(0).unwrap().at_nanos, 13_792_137 * 100);
    }

    #[test]
    fn lba_range_keeps_overlapping_requests() {
        let range = SubsetOptions::lba_range(1_317_441_536, 1_317_441_536 + 1);
        let trace = parse_filtered(SAMPLE.as_bytes(), "t", &range).unwrap();
        assert_eq!(trace.len(), 2, "write and re-read of the same offset");
        // A range that starts exactly at a request's end excludes it.
        let disjoint = SubsetOptions::lba_range(7_014_609_920 + 24_576, u64::MAX);
        let trace = parse_filtered(SAMPLE.as_bytes(), "t", &disjoint).unwrap();
        assert_eq!(trace.len(), 0);
    }

    #[test]
    fn filters_conjoin() {
        let options = SubsetOptions {
            first_n: Some(10),
            time_window_nanos: Some((0, u64::MAX)),
            lba_range_bytes: Some((0, 2_000_000_000)),
        };
        let trace = parse_filtered(SAMPLE.as_bytes(), "t", &options).unwrap();
        assert_eq!(trace.len(), 2, "only the two requests below 2 GB match");
    }

    #[test]
    fn subset_echoes_matching_raw_lines_unchanged() {
        let mut out = Vec::new();
        let stats = subset(SAMPLE.as_bytes(), &mut out, &SubsetOptions::first_n(2)).unwrap();
        assert_eq!(stats.kept, 2);
        assert_eq!(stats.scanned.requests, 2, "reading stopped at the quota");
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "128166372003061629,mds,0,Read,7014609920,24576,41286\n\
             128166372016853766,mds,0,Write,1317441536,8192,1763\n",
            "original bytes (timestamps included) are preserved"
        );
        // The subset is itself a parsable MSR trace.
        let reparsed = parse(text.as_bytes(), "sub").unwrap();
        assert_eq!(reparsed.len(), 2);
        assert_eq!(reparsed.get(0).unwrap().at_nanos, 0);
    }

    #[test]
    fn subset_preserves_crlf_line_endings_byte_for_byte() {
        let csv = "1,h,0,Read,0,4096,9\r\n2,h,0,Write,8192,4096,9\r\n";
        let mut out = Vec::new();
        let stats = subset(csv.as_bytes(), &mut out, &SubsetOptions::default()).unwrap();
        assert_eq!(stats.kept, 2);
        assert_eq!(out, csv.as_bytes(), "CRLF input must round-trip byte-exact");
        // A final line without a newline stays without one.
        let csv = "1,h,0,Read,0,4096,9\n2,h,0,Write,8192,4096,9";
        let mut out = Vec::new();
        subset(csv.as_bytes(), &mut out, &SubsetOptions::default()).unwrap();
        assert_eq!(out, csv.as_bytes());
    }

    #[test]
    fn subset_scans_everything_when_unlimited() {
        let mut out = Vec::new();
        let stats = subset(SAMPLE.as_bytes(), &mut out, &SubsetOptions::default()).unwrap();
        assert_eq!(stats.kept, 3);
        assert_eq!(stats.scanned.lines, 4, "blank line counted");
        assert_eq!(stats.scanned.requests, 3);
    }

    #[test]
    fn subset_propagates_malformed_lines() {
        let csv = "1,h,0,Read,0,4096,9\nbroken\n";
        let mut out = Vec::new();
        let err = subset(csv.as_bytes(), &mut out, &SubsetOptions::default()).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn timestamp_overflow_is_a_parse_error_with_line_number() {
        // The second timestamp is u64::MAX ticks; rebased against the first request
        // the tick delta no longer fits in nanoseconds (x100), so the line must be
        // rejected rather than silently saturated onto one instant.
        let csv = format!("1,h,0,Read,0,4096,9\n{},h,0,Write,0,4096,9\n", u64::MAX);
        let err = parse(csv.as_bytes(), "t").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            err.reason.contains("overflows"),
            "reason should name the overflow: {}",
            err.reason
        );
        // Rebasing keeps large absolute timestamps fine as long as the *delta* fits.
        let big_base = u64::MAX - 1_000;
        let csv = format!("{big_base},h,0,Read,0,4096,9\n{},h,0,Write,0,4096,9\n", u64::MAX);
        let trace = parse(csv.as_bytes(), "t").unwrap();
        assert_eq!(trace.get(1).unwrap().at_nanos, 1_000 * 100);
    }

    #[test]
    fn a_byte_range_past_64_bits_is_a_parse_error_with_line_number() {
        // 615 bytes below u64::MAX, a 4 KiB request ends past the address space:
        // it used to parse, then panic in debug or drop out as an empty page
        // range in release.
        let csv = "1,h,0,Read,0,4096,9\n2,h,0,Write,18446744073709551000,4096,9\n";
        let err = parse(csv.as_bytes(), "t").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            err.reason.contains("overflows"),
            "reason should name the overflow: {}",
            err.reason
        );
        let err = subset(csv.as_bytes(), Vec::new(), &SubsetOptions::default()).unwrap_err();
        assert_eq!(err.line, 2);
        // A range ending exactly at the top of the address space is well formed.
        let csv = format!("1,h,0,Read,{},4096,9\n", u64::MAX - 4_096);
        let trace = parse(csv.as_bytes(), "t").unwrap();
        assert_eq!(trace.get(0).unwrap().logical_pages(4_096).end, u64::MAX / 4_096 + 1);
    }

    #[test]
    fn bad_numbers_are_rejected() {
        for csv in [
            "abc,host,0,Read,0,4096,10\n",
            "1,host,0,Read,xyz,4096,10\n",
            "1,host,0,Read,0,many,10\n",
        ] {
            assert!(parse(csv.as_bytes(), "t").is_err(), "should reject: {csv}");
        }
    }

    /// A real trace's shapes, generated: an idle gap of 10 s, a line stamped
    /// before the file's first request and a 200-line stretch at 2 IOPS. The
    /// parser returns every request exactly (the early line folded onto
    /// t = 0, not refused), and the chunks holding those shapes cost at most
    /// 8 bytes per request.
    #[test]
    fn real_trace_shapes_round_trip_at_8_bytes_per_request_or_less() {
        const FIRST: u64 = 128_166_372_003_061_629;
        let mut ticks = Vec::new();
        let mut clock = FIRST;
        // (lines, ticks after each): 10^8 ticks is 10 s, 5 * 10^6 is 2 IOPS.
        for (lines, gap) in
            [(99, 1_000), (1, 100_000_000), (100, 1_000), (200, 5_000_000), (100, 1_000)]
        {
            for _ in 0..lines {
                ticks.push(clock);
                clock += gap;
            }
        }
        ticks.insert(150, FIRST - 5_000);
        let mut csv = String::new();
        let mut expected = Vec::new();
        for (index, &tick) in ticks.iter().enumerate() {
            let (op, offset, size) = if index % 3 == 0 {
                ("Write", index as u64 * 8_192, 8_192)
            } else {
                ("Read", index as u64 * 4_096 + (1 << 35), 4_096)
            };
            csv.push_str(&format!("{tick},host,0,{op},{offset},{size},10\n"));
            let op = if op == "Write" { IoOp::Write } else { IoOp::Read };
            expected.push(IoRequest::new(tick.saturating_sub(FIRST) * 100, op, offset, size));
        }
        assert_eq!(expected[150].at_nanos, 0, "an early line folds onto t = 0");

        let trace = parse(csv.as_bytes(), "shapes").unwrap();
        assert_eq!(trace.iter().collect::<Vec<_>>(), expected);
        for (index, &request) in expected.iter().enumerate() {
            assert_eq!(trace.get(index), Some(request));
        }
        // The gap, the early line and the 2-IOPS stretch widen their chunks'
        // arrival fields to 34-35 bits, and the two regions 2^35 bytes apart
        // their offset fields to 36; the sealed chunks still pack into 8
        // bytes per request.
        let footprint = trace.footprint();
        let sealed = expected.len() / 64 * 64;
        assert!(footprint.bytes <= sealed * 8 + footprint.header_bytes, "{footprint:?}");
    }
}
