//! Property-based integration tests across crates: whatever workload is thrown at
//! either FTL, data integrity and accounting invariants hold.

use proptest::prelude::*;
use vflash::ftl::{ConventionalFtl, FlashTranslationLayer, FtlConfig, FtlCore, Lpn, Placement};
use vflash::nand::{NandConfig, NandDevice};
use vflash::ppb::{PpbConfig, PpbFtl};

/// A compact encoding of a host operation for proptest generation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write { lpn: u64, small: bool },
    Read { lpn: u64 },
}

fn arb_ops(logical: u64) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0..logical, any::<bool>()).prop_map(|(lpn, small)| Op::Write { lpn, small }),
            (0..logical).prop_map(|lpn| Op::Read { lpn }),
        ],
        1..400,
    )
}

fn device() -> NandDevice {
    NandDevice::new(
        NandConfig::builder()
            .chips(1)
            .blocks_per_chip(20)
            .pages_per_block(8)
            .page_size_bytes(4096)
            .speed_ratio(3.0)
            .build()
            .expect("valid test geometry"),
    )
}

fn apply_ops(ftl: &mut dyn FlashTranslationLayer, ops: &[Op]) -> Vec<bool> {
    let mut written = vec![false; ftl.logical_pages() as usize];
    for op in ops {
        match *op {
            Op::Write { lpn, small } => {
                let bytes = if small { 512 } else { 64 * 1024 };
                ftl.write(Lpn(lpn), bytes).expect("write succeeds");
                written[lpn as usize] = true;
            }
            Op::Read { lpn } => {
                let result = ftl.read(Lpn(lpn));
                assert_eq!(
                    result.is_ok(),
                    written[lpn as usize],
                    "read of LPN{lpn} disagreed with write history"
                );
            }
        }
    }
    written
}

fn check_data_and_metrics<P: Placement>(
    ftl: &mut FtlCore<P>,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let written = apply_ops(ftl, ops);
    // Every page that was ever written is still readable afterwards.
    for (lpn, was_written) in written.iter().enumerate() {
        if *was_written {
            prop_assert!(ftl.read(Lpn(lpn as u64)).is_ok(), "lost LPN{lpn}");
        }
    }
    ftl.check_invariants().map_err(TestCaseError::fail)?;
    let metrics = ftl.metrics();
    prop_assert!(metrics.host_write_time >= metrics.gc_time);
    if metrics.host_writes > 0 {
        prop_assert!(metrics.write_amplification() >= 1.0);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Both FTLs preserve every written logical page under arbitrary workloads, and
    /// their metrics add up.
    #[test]
    fn arbitrary_workloads_preserve_data(ops in arb_ops(120)) {
        let mut conventional =
            ConventionalFtl::new(device(), FtlConfig::default()).expect("ftl builds");
        let mut ppb = PpbFtl::new(
            device(),
            PpbConfig { ftl: FtlConfig::default(), ..PpbConfig::default() },
        )
        .expect("ftl builds");

        check_data_and_metrics(&mut conventional, &ops)?;
        check_data_and_metrics(&mut ppb, &ops)?;
    }

    /// The two FTLs always agree on how many host operations they served — the PPB
    /// machinery never drops or duplicates requests.
    #[test]
    fn ftls_agree_on_served_request_counts(ops in arb_ops(120)) {
        let mut conventional =
            ConventionalFtl::new(device(), FtlConfig::default()).expect("ftl builds");
        let mut ppb = PpbFtl::new(device(), PpbConfig::default()).expect("ftl builds");
        apply_ops(&mut conventional, &ops);
        apply_ops(&mut ppb, &ops);
        prop_assert_eq!(conventional.metrics().host_writes, ppb.metrics().host_writes);
        prop_assert_eq!(conventional.metrics().host_reads, ppb.metrics().host_reads);
    }
}
