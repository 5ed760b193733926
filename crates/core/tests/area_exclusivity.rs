//! Every LPN is tracked in at most one of PPB's three places — the hot list, the
//! iron-hot list and the cold table — whatever the first-stage classifier and
//! whatever mix of request sizes and reads drives the FTL. The placement's
//! `check_invariants` states it; this drives it after every host op.

use proptest::prelude::*;
use vflash_ftl::hotcold::Classifier;
use vflash_ftl::{FlashTranslationLayer, FtlConfig, Lpn};
use vflash_nand::{NandConfig, NandDevice};
use vflash_ppb::{PpbConfig, PpbFtl};

/// Request sizes on both sides of the 4 KiB page the size check compares with.
const SIZES: [u32; 5] = [512, 2048, 4096, 16 * 1024, 128 * 1024];

fn small_ppb(classifier: Classifier) -> PpbFtl {
    let nand = NandConfig::builder()
        .chips(1)
        .blocks_per_chip(24)
        .pages_per_block(8)
        .page_size_bytes(4096)
        .speed_ratio(4.0)
        .build()
        .unwrap();
    let ftl = FtlConfig { over_provisioning: 0.25 };
    let config = PpbConfig { ftl, classifier, ..PpbConfig::default() };
    PpbFtl::new(NandDevice::new(nand), config).unwrap()
}

proptest! {
    /// 144 logical pages against a 21-entry hot list, a 21-entry iron-hot list and
    /// a 43-entry cold table: every list overflows and demotes, and GC relocates.
    #[test]
    fn no_lpn_is_in_two_areas_after_any_op(
        classifier in 0..Classifier::ALL.len(),
        ops in proptest::collection::vec((0u8..3, 0u64..144, 0..SIZES.len()), 1..600),
    ) {
        let classifier = Classifier::ALL[classifier];
        let mut ftl = small_ppb(classifier);
        prop_assert_eq!(ftl.logical_pages(), 144);
        for (op, lpn, size) in ops {
            let lpn = Lpn(lpn);
            if op == 0 && ftl.mapping().lookup(lpn).is_some() {
                ftl.read(lpn).unwrap();
            } else {
                ftl.write(lpn, SIZES[size]).unwrap();
            }
            if let Err(violation) = ftl.check_invariants() {
                prop_assert!(false, "{}: {}", classifier.label(), violation);
            }
        }
    }
}
