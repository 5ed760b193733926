//! The shared FTL core, exercised once per behaviour and instantiated for both
//! placements: range checks, garbage collection (fault-free and faulted), the
//! fault paths (program failures to end of life, data lost in relocation, op
//! accounting) and write-stripe toggling. Requests mix 512 B and 64 KiB sizes so
//! the PPB placement uses both of its areas; every test ends on
//! `FtlCore::check_invariants`.

use vflash::ftl::{
    ConventionalFtl, FlashTranslationLayer, FtlConfig, FtlCore, FtlError, IoRequest, Lpn,
    Placement,
};
use vflash::nand::{FaultConfig, NandConfig, NandDevice, Nanos};
use vflash::ppb::{PpbConfig, PpbFtl};

fn device(chips: usize, blocks_per_chip: usize, faults: FaultConfig) -> NandDevice {
    NandDevice::new(
        NandConfig::builder()
            .chips(chips)
            .blocks_per_chip(blocks_per_chip)
            .pages_per_block(8)
            .page_size_bytes(4096)
            .speed_ratio(4.0)
            .faults(faults)
            .build()
            .expect("valid test geometry"),
    )
}

fn base_config(over_provisioning: f64) -> FtlConfig {
    FtlConfig { over_provisioning }
}

/// Both placements on 1 chip x 24 blocks x 8 pages at 25% over-provisioning
/// (144 logical pages).
fn conventional(faults: FaultConfig) -> ConventionalFtl {
    ConventionalFtl::new(device(1, 24, faults), base_config(0.25)).expect("ftl builds")
}

fn ppb(faults: FaultConfig) -> PpbFtl {
    let config = PpbConfig { ftl: base_config(0.25), ..PpbConfig::default() };
    PpbFtl::new(device(1, 24, faults), config).expect("ftl builds")
}

/// Alternating sub-page (hot for PPB) and bulk (cold) request sizes.
fn size(index: u64) -> u32 {
    if index.is_multiple_of(2) {
        512
    } else {
        64 * 1024
    }
}

/// Every read exhausts the retry ladder; programs and erases never fail.
fn unreadable() -> FaultConfig {
    FaultConfig {
        rber_scale: 1e12,
        program_fail_base: 0.0,
        erase_fail_base: 0.0,
        ..FaultConfig::enabled(11)
    }
}

fn ops_total<P: Placement>(ftl: &FtlCore<P>, completion: &vflash::ftl::Completion) -> Nanos {
    ftl.device().ops(completion.ops).iter().map(|op| op.latency).sum()
}

fn out_of_range_lpns_are_rejected<P: Placement>(make: fn(FaultConfig) -> FtlCore<P>) {
    let mut ftl = make(FaultConfig::disabled());
    let beyond = Lpn(ftl.logical_pages());
    for bytes in [512, 4096, 64 * 1024] {
        assert!(matches!(ftl.write(beyond, bytes), Err(FtlError::LpnOutOfRange { .. })));
    }
    assert!(matches!(ftl.read(beyond), Err(FtlError::LpnOutOfRange { .. })));
    assert!(matches!(ftl.read(Lpn(0)), Err(FtlError::UnmappedRead { .. })));
    ftl.check_invariants().unwrap();
}

fn sustained_overwrites_trigger_gc_and_stay_readable<P: Placement>(
    make: fn(FaultConfig) -> FtlCore<P>,
) {
    let mut ftl = make(FaultConfig::disabled());
    let logical = ftl.logical_pages();
    // Write 10x the logical capacity, re-reading every fifth page.
    for i in 0..(logical * 10) {
        let lpn = Lpn(i % logical);
        ftl.write(lpn, size(lpn.0)).unwrap();
        if i % 5 == 0 {
            ftl.read(lpn).unwrap();
        }
    }
    assert!(ftl.metrics().gc_erased_blocks > 0, "GC never ran");
    assert_eq!(ftl.metrics().host_writes, logical * 10);
    assert!(ftl.device().available_blocks() >= 1);
    // Every LPN is still readable after heavy GC.
    for i in 0..logical {
        ftl.read(Lpn(i)).unwrap();
    }
    ftl.check_invariants().unwrap();
}

fn a_faulted_gc_heavy_run_leaves_the_device_indices_recountable<P: Placement>(
    make: fn(FaultConfig) -> FtlCore<P>,
) {
    // Skewed overwrites — a hot tenth plus a cold sweep, so the blocks GC chooses
    // among differ in how stale they are — while program and erase failures
    // retire blocks under the collector. Nothing is corrupted: the device's
    // counters, pools and victim index must recount from its blocks throughout.
    let mut ftl = make(FaultConfig {
        rber_scale: 0.0,
        program_fail_base: 0.002,
        erase_fail_base: 0.01,
        ..FaultConfig::enabled(5)
    });
    let logical = ftl.logical_pages();
    for i in 0..(logical * 8) {
        let lpn = if i % 2 == 0 { Lpn(i % (logical / 10).max(1)) } else { Lpn(i % logical) };
        match ftl.write(lpn, size(i)) {
            Ok(_) => {}
            Err(FtlError::ReadOnly) => break,
            Err(err) => panic!("unexpected error: {err}"),
        }
        if i % 16 == 0 {
            assert_eq!(ftl.device().check_invariants(), Ok(()), "after write {i}");
        }
    }
    assert!(ftl.metrics().gc_erased_blocks > 0, "workload never triggered GC");
    assert!(ftl.metrics().bad_blocks_grown > 0, "fault model never fired");
    assert_eq!(ftl.check_invariants(), Ok(()));
}

fn program_failures_remap_writes_until_spares_run_out<P: Placement>(
    make: fn(FaultConfig) -> FtlCore<P>,
) {
    let mut ftl = make(FaultConfig {
        program_fail_base: 0.02,
        erase_fail_base: 0.0,
        rber_scale: 0.0,
        ..FaultConfig::enabled(7)
    });
    let logical = ftl.logical_pages();
    let mut writes = 0u64;
    loop {
        match ftl.write(Lpn(writes % logical), size(writes)) {
            Ok(_) => writes += 1,
            Err(FtlError::ReadOnly) => break,
            Err(err) => panic!("unexpected error before end of life: {err}"),
        }
        assert!(writes < 1_000_000, "device never reached end of life");
    }
    assert!(ftl.is_read_only());
    assert!(writes > 0, "no writes succeeded before end of life");
    let metrics = *ftl.metrics();
    assert!(metrics.bad_blocks_grown > 0);
    assert!(metrics.remapped_writes > 0);
    assert!(metrics.time_to_read_only > Nanos::ZERO);
    assert_eq!(metrics.bad_blocks_grown, ftl.device().bad_block_count() as u64);
    // Read-only mode is sticky and instantaneous...
    assert!(matches!(ftl.write(Lpn(0), 512), Err(FtlError::ReadOnly)));
    // ...but surviving data is still readable and the bookkeeping intact.
    let readable = (0..logical).filter(|&i| ftl.read(Lpn(i)).is_ok()).count();
    assert!(readable > 0, "read-only mode must keep serving reads");
    ftl.check_invariants().unwrap();
}

fn reads_of_data_lost_in_relocation_complete_with_the_data_lost_flag<P: Placement>(
    make: fn(FaultConfig) -> FtlCore<P>,
) {
    // Every GC relocation read loses its page. Lost LPNs must not surface as
    // UnmappedRead — the host read completes instantly with the uncorrectable
    // flag, and a rewrite brings the LPN back to life.
    let mut ftl = make(unreadable());
    let logical = ftl.logical_pages();
    // Fill once, then churn three LPNs in four in a scrambled order (the stride
    // is coprime with the logical size): GC victims still hold the fourth, loses
    // every page it relocates, and those LPNs are never rewritten — so they must
    // still read back as lost afterwards.
    for i in 0..logical {
        ftl.write(Lpn(i), size(i)).unwrap();
    }
    for round in 0..(logical * 4) {
        let lpn = Lpn((round * 37) % logical);
        if !lpn.0.is_multiple_of(4) {
            ftl.write(lpn, size(lpn.0)).unwrap();
        }
    }
    assert!(ftl.metrics().gc_erased_blocks > 0, "workload never triggered GC");
    let mut lost = None;
    for i in 0..logical {
        let completion = ftl.submit(IoRequest::read(Lpn(i))).unwrap();
        assert!(completion.uncorrectable, "every read on this device fails");
        if completion.latency == Nanos::ZERO {
            // A lost LPN: no device work happened, no retries charged.
            assert_eq!(completion.read_retries, 0);
            lost = Some(Lpn(i));
        }
    }
    let lost = lost.expect("an uncorrectable-everything device must lose data in GC");
    assert!(ftl.mapping().lookup(lost).is_none());
    ftl.check_invariants().unwrap();
    // Rewriting a lost LPN revives it: the mapping points at real data again.
    ftl.write(lost, 4096).unwrap();
    assert!(ftl.mapping().lookup(lost).is_some());
    assert!(ftl.submit(IoRequest::read(lost)).unwrap().latency > Nanos::ZERO);
    ftl.check_invariants().unwrap();
}

fn fault_paths_preserve_op_latency_accounting<P: Placement>(make: fn(FaultConfig) -> FtlCore<P>) {
    // Retries on every few reads plus occasional program and erase failures: the
    // sum-of-ops identity must survive rescue relocations and retry latency.
    let mut ftl = make(FaultConfig {
        rber_scale: 30.0,
        program_fail_base: 0.005,
        erase_fail_base: 0.002,
        ..FaultConfig::enabled(42)
    });
    ftl.device_mut().set_op_tracing(true);
    let logical = ftl.logical_pages();
    for i in 0..(logical * 6) {
        let lpn = Lpn(i % logical);
        ftl.device_mut().clear_ops();
        let write = match ftl.submit(IoRequest::write(lpn, size(i))) {
            Ok(completion) => completion,
            Err(FtlError::ReadOnly) => break,
            Err(err) => panic!("unexpected error: {err}"),
        };
        assert_eq!(ops_total(&ftl, &write), write.latency, "write ops must sum to the charge");

        ftl.device_mut().clear_ops();
        if let Ok(read) = ftl.submit(IoRequest::read(lpn)) {
            assert_eq!(ops_total(&ftl, &read), read.latency, "read ops must sum to the charge");
        }
    }
    assert!(ftl.metrics().retried_reads > 0, "fault model never fired");
    ftl.check_invariants().unwrap();
}

macro_rules! for_both_placements {
    ($($test:ident),* $(,)?) => {
        mod conventional {
            $(#[test] fn $test() { super::$test(super::conventional) })*
        }
        mod ppb {
            $(#[test] fn $test() { super::$test(super::ppb) })*
        }
    };
}

for_both_placements!(
    out_of_range_lpns_are_rejected,
    sustained_overwrites_trigger_gc_and_stay_readable,
    a_faulted_gc_heavy_run_leaves_the_device_indices_recountable,
    program_failures_remap_writes_until_spares_run_out,
    reads_of_data_lost_in_relocation_complete_with_the_data_lost_flag,
    fault_paths_preserve_op_latency_accounting,
);

/// A host that toggles its queue depth shrinks the write stripe again and again.
/// The lanes a shrink drops hold partially-filled blocks, which are neither
/// written to nor — not being full — ever garbage-collection victims: unless the
/// remaining streams adopt them, they strand the device's spare capacity within a
/// few rounds (`OutOfSpace` in round 5 on this geometry).
fn stripe_toggling_strands_no_blocks<P: Placement>(mut ftl: FtlCore<P>) {
    let logical = ftl.logical_pages();
    for round in 0..200u64 {
        ftl.set_write_stripe(4);
        for i in 0..4 {
            let lpn = Lpn((round * 4 + i) % logical);
            ftl.write(lpn, size(i)).unwrap_or_else(|err| panic!("round {round}, striped: {err}"));
        }
        ftl.set_write_stripe(1);
        for lpn in 0..logical {
            ftl.write(Lpn(lpn), size(lpn)).unwrap_or_else(|err| panic!("round {round}: {err}"));
        }
    }
    for lpn in 0..logical {
        ftl.read(Lpn(lpn)).unwrap();
    }
    ftl.check_invariants().unwrap();
}

#[test]
fn conventional_stripe_toggling_strands_no_blocks() {
    let device = device(4, 16, FaultConfig::disabled());
    stripe_toggling_strands_no_blocks(ConventionalFtl::new(device, base_config(0.3)).unwrap());
}

#[test]
fn ppb_stripe_toggling_strands_no_blocks() {
    let config = PpbConfig { ftl: base_config(0.3), ..PpbConfig::default() };
    let device = device(4, 16, FaultConfig::disabled());
    stripe_toggling_strands_no_blocks(PpbFtl::new(device, config).unwrap());
}
