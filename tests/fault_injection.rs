//! End-of-life integration: a device with aggressive program/erase failure
//! rates is written until its spare capacity is gone, and both FTLs must
//! degrade gracefully — remapping failed programs and rescuing resident data
//! block by block, then refusing writes (read-only) instead of panicking,
//! while reads of surviving data keep completing.

use vflash::ftl::{
    ConventionalFtl, FlashTranslationLayer, FtlConfig, FtlCore, FtlError, FtlMetrics, Lpn,
    Placement,
};
use vflash::nand::{FaultConfig, NandConfig, NandDevice, Nanos};
use vflash::ppb::{PpbConfig, PpbFtl};
use vflash::sim::RunSummary;

/// Distinct logical pages the write loop cycles over — well under the device's
/// fresh capacity, so the transition to read-only is caused by bad-block
/// growth, not by the working set outgrowing the device.
const LPNS: u64 = 256;

/// Backstop so a regression that stops blocks from dying fails the test
/// instead of hanging it.
const WRITE_CAP: u64 = 1_000_000;

fn failing_config(seed: u64) -> NandConfig {
    let faults = FaultConfig {
        program_fail_base: 0.02,
        erase_fail_base: 0.01,
        ..FaultConfig::enabled(seed)
    };
    NandConfig::builder()
        .chips(2)
        .blocks_per_chip(24)
        .pages_per_block(16)
        .page_size_bytes(4096)
        .speed_ratio(2.0)
        .faults(faults)
        .build()
        .expect("the failing end-of-life configuration is valid")
}

/// Writes round-robin until the FTL reports read-only; returns the number of
/// writes it absorbed. Any other error is a graceful-degradation bug.
fn drive_to_read_only<F: FlashTranslationLayer>(ftl: &mut F) -> u64 {
    let mut writes = 0u64;
    for index in 0..WRITE_CAP {
        match ftl.write(Lpn(index % LPNS), 4096) {
            Ok(_) => writes += 1,
            Err(FtlError::ReadOnly) => return writes,
            Err(err) => panic!("unexpected error before read-only: {err}"),
        }
    }
    panic!("the failing device never reached read-only within {WRITE_CAP} writes");
}

fn assert_graceful_end_of_life<P: Placement>(mut ftl: FtlCore<P>, label: &str) {
    let writes = drive_to_read_only(&mut ftl);
    ftl.check_invariants().unwrap_or_else(|violation| panic!("{label}: {violation}"));
    assert!(writes > LPNS, "{label}: the fresh device must absorb at least one full pass");
    assert!(ftl.is_read_only(), "{label}: the transition must be reported");

    // Read-only is sticky: writes keep failing, reads keep working.
    assert!(
        matches!(ftl.write(Lpn(0), 4096), Err(FtlError::ReadOnly)),
        "{label}: writes after the transition must keep failing with ReadOnly"
    );
    let latency = ftl.read(Lpn(0)).expect("surviving data stays readable");
    assert!(latency > Nanos::ZERO, "{label}: reads still cost device time");

    // The reliability counters flow into the run summary unchanged.
    let summary =
        RunSummary::from_metrics_delta(label, "end-of-life", &FtlMetrics::new(), ftl.metrics());
    assert!(summary.bad_blocks_grown > 0, "{label}: read-only requires retired blocks");
    assert!(summary.remapped_writes > 0, "{label}: program failures must have been remapped");
    assert!(
        summary.time_to_read_only > Nanos::ZERO,
        "{label}: the transition time must be recorded"
    );
    let text = summary.to_string();
    assert!(text.contains("read-only at"), "{label}: summary must report the transition: {text}");
    assert!(text.contains("bad blocks"), "{label}: summary must report bad blocks: {text}");
}

#[test]
fn conventional_ftl_degrades_to_read_only_gracefully() {
    let ftl = ConventionalFtl::new(NandDevice::new(failing_config(7)), FtlConfig::default())
        .expect("construction");
    assert_graceful_end_of_life(ftl, "conventional");
}

#[test]
fn ppb_ftl_degrades_to_read_only_gracefully() {
    let ftl =
        PpbFtl::new(NandDevice::new(failing_config(7)), PpbConfig::default()).expect("construction");
    assert_graceful_end_of_life(ftl, "ppb");
}

#[test]
fn end_of_life_runs_are_bit_reproducible() {
    let run = || {
        let mut ftl =
            ConventionalFtl::new(NandDevice::new(failing_config(21)), FtlConfig::default())
                .expect("construction");
        let writes = drive_to_read_only(&mut ftl);
        let summary = RunSummary::from_metrics_delta(
            "conventional",
            "end-of-life",
            &FtlMetrics::new(),
            ftl.metrics(),
        );
        (writes, summary)
    };
    let (writes_a, summary_a) = run();
    let (writes_b, summary_b) = run();
    assert_eq!(writes_a, writes_b, "the fault streams are seeded: same writes every run");
    assert_eq!(summary_a, summary_b, "the whole summary must reproduce bit-for-bit");
}
