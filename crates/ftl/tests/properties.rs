//! Property-based tests for the baseline FTL and the hot/cold classifiers.

use proptest::prelude::*;
use vflash_ftl::hotcold::{
    FreqTable, HotColdClassifier, MultiHash, SizeCheck, Temperature, TwoLevelLru,
};
use vflash_ftl::{ConventionalFtl, FlashTranslationLayer, FtlConfig, FtlError, Lpn};
use vflash_nand::{NandConfig, NandDevice};

fn small_ftl(blocks: usize, pages: usize, over_provisioning: f64) -> ConventionalFtl {
    let device = NandDevice::new(
        NandConfig::builder()
            .chips(1)
            .blocks_per_chip(blocks)
            .pages_per_block(pages)
            .page_size_bytes(4096)
            .build()
            .expect("valid geometry"),
    );
    ConventionalFtl::new(device, FtlConfig { over_provisioning, ..FtlConfig::default() })
        .expect("valid ftl configuration")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any in-range write sequence keeps the mapping table consistent and every
    /// written page readable, regardless of how much garbage collection it forces.
    #[test]
    fn conventional_ftl_never_loses_data(
        writes in proptest::collection::vec(0u64..60, 1..500),
    ) {
        let mut ftl = small_ftl(16, 8, 0.2);
        let logical = ftl.logical_pages();
        let mut written = vec![false; logical as usize];
        for lpn in writes {
            let lpn = lpn % logical;
            ftl.write(Lpn(lpn), 4096).expect("write succeeds");
            written[lpn as usize] = true;
        }
        ftl.check_invariants().expect("mapping and device stay consistent");
        for (lpn, was_written) in written.iter().enumerate() {
            let result = ftl.read(Lpn(lpn as u64));
            if *was_written {
                prop_assert!(result.is_ok());
            } else {
                let unmapped = matches!(result, Err(FtlError::UnmappedRead { .. }));
                prop_assert!(unmapped, "unexpected result for unwritten page: {result:?}");
            }
        }
    }

    /// The device's valid pages are exactly the FTL's mapped LPNs, block by block (no
    /// leaked or duplicated mappings), and free accounting stays sane.
    #[test]
    fn valid_page_accounting_matches_mapping(
        writes in proptest::collection::vec(0u64..80, 1..600),
    ) {
        let mut ftl = small_ftl(24, 8, 0.15);
        let logical = ftl.logical_pages();
        for lpn in writes {
            ftl.write(Lpn(lpn % logical), 4096).expect("write succeeds");
        }
        ftl.check_invariants().expect("every mapped page is valid, every valid page mapped");
        prop_assert!(ftl.free_blocks() >= 1);
    }

    /// The size-check classifier is a pure function of the request size.
    #[test]
    fn size_check_is_pure(threshold in 1u32..1_000_000, request in 1u32..10_000_000, lpn in 0u64..1_000) {
        let mut classifier = SizeCheck::new(threshold);
        let first = classifier.classify_write(Lpn(lpn), request);
        let second = classifier.classify_write(Lpn(lpn + 1), request);
        prop_assert_eq!(first, second);
        prop_assert_eq!(first == Temperature::Hot, request < threshold);
    }

    /// The two-level LRU never reports more tracked entries than its capacities, and
    /// an LPN written twice in a row is always hot on the second write.
    #[test]
    fn two_level_lru_respects_capacities(
        lpns in proptest::collection::vec(0u64..50, 1..300),
        hot_cap in 1usize..16,
        candidate_cap in 1usize..16,
    ) {
        let mut lru = TwoLevelLru::new(hot_cap, candidate_cap);
        for &lpn in &lpns {
            lru.classify_write(Lpn(lpn), 4096);
            prop_assert!(lru.hot_len() <= hot_cap);
            prop_assert!(lru.candidate_len() <= candidate_cap);
        }
        let probe = Lpn(999);
        lru.classify_write(probe, 4096);
        prop_assert_eq!(lru.classify_write(probe, 4096), Temperature::Hot);
    }

    /// The frequency table reaches the hot verdict after exactly `threshold`
    /// back-to-back writes (when no aging happens in between).
    #[test]
    fn freq_table_threshold_behaviour(threshold in 1u32..10) {
        let mut table = FreqTable::new(threshold, 1_000_000);
        for i in 1..=threshold {
            let verdict = table.classify_write(Lpn(7), 4096);
            if i < threshold {
                prop_assert_eq!(verdict, Temperature::Cold);
            } else {
                prop_assert_eq!(verdict, Temperature::Hot);
            }
        }
    }

    /// The multi-hash sketch never under-estimates below zero or over-estimates past
    /// the saturating counter maximum, for any write mix.
    #[test]
    fn multi_hash_estimates_stay_bounded(
        lpns in proptest::collection::vec(0u64..1_000, 1..300),
    ) {
        let mut sketch = MultiHash::new(512, 2, 3, 1_000_000);
        for &lpn in &lpns {
            sketch.classify_write(Lpn(lpn), 4096);
        }
        for &lpn in &lpns {
            prop_assert!(sketch.estimate(Lpn(lpn)) <= 15);
            prop_assert!(sketch.estimate(Lpn(lpn)) >= 1);
        }
    }
}
