//! Property-based tests for the baseline FTL and the hot/cold classifiers.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use proptest::prelude::*;
use vflash_ftl::hotcold::{FreqTable, MultiHash, SizeCheck, Temperature, TwoLevelLru};
use vflash_ftl::{ConventionalFtl, FlashTranslationLayer, FtlConfig, FtlError, Lpn, MappingTable};
use vflash_nand::{BlockAddr, ChipId, NandConfig, NandDevice, PageAddr, PageId};

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
    ConventionalFtl::new(device, FtlConfig { over_provisioning })
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
        prop_assert!(ftl.device().available_blocks() >= 1);
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

/// `FreqTable` as it was before its counts became a table indexed by LPN: a hash
/// map whose aging pass drops the entries that halve to zero.
struct HashedFreqTable {
    counts: HashMap<Lpn, u32>,
    threshold: u32,
    aging_period: u64,
    writes_since_aging: u64,
}

impl HashedFreqTable {
    fn new(threshold: u32, aging_period: u64) -> Self {
        HashedFreqTable { counts: HashMap::new(), threshold, aging_period, writes_since_aging: 0 }
    }

    fn classify_write(&mut self, lpn: Lpn) -> Temperature {
        self.writes_since_aging += 1;
        if self.writes_since_aging >= self.aging_period {
            self.writes_since_aging = 0;
            self.counts.retain(|_, count| {
                *count /= 2;
                *count > 0
            });
        }
        let count = self.counts.entry(lpn).or_insert(0);
        *count = count.saturating_add(1);
        if *count >= self.threshold {
            Temperature::Hot
        } else {
            Temperature::Cold
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The LPN-indexed frequency table classifies every write, and reports every
    /// count and the tracked total, as the hashed table it replaced does.
    #[test]
    fn freq_table_matches_the_hashed_model(
        threshold in 1u32..6,
        aging_period in 1u64..64,
        lpns in proptest::collection::vec(
            // Half from a small hot set, so counts build up between aging passes.
            prop_oneof![0u64..16, 0u64..4096],
            1..400,
        ),
    ) {
        let mut table = FreqTable::new(threshold, aging_period);
        let mut model = HashedFreqTable::new(threshold, aging_period);
        for lpn in lpns {
            let lpn = Lpn(lpn);
            prop_assert_eq!(table.classify_write(lpn, 4096), model.classify_write(lpn));
            prop_assert_eq!(table.count(lpn), model.counts.get(&lpn).copied().unwrap_or(0));
            prop_assert_eq!(table.tracked(), model.counts.len());
        }
        for lpn in 0..4096 {
            let lpn = Lpn(lpn);
            prop_assert_eq!(table.count(lpn), model.counts.get(&lpn).copied().unwrap_or(0));
        }
    }
}

/// One call on a [`MappingTable`]: LPNs run a little past the logical range, so
/// `lookup`, `unmap`, `mark_lost` and `is_lost` also see LPNs the table does not
/// hold.
#[derive(Debug, Clone)]
enum MapOp {
    Map { lpn: u64, ordinal: usize },
    Unmap { lpn: u64 },
    MarkLost { lpn: u64 },
    Lookup { lpn: u64 },
    Residents { block: usize },
}

const MODEL_CHIPS: usize = 3;
const MODEL_BLOCKS: usize = 5;
const MODEL_PAGES: usize = 7;
const MODEL_PHYSICAL: usize = MODEL_CHIPS * MODEL_BLOCKS * MODEL_PAGES;
const MODEL_LOGICAL: u64 = 80;

fn map_op() -> impl Strategy<Value = MapOp> {
    let lpn = 0..MODEL_LOGICAL + 4;
    let map = || {
        (0..MODEL_LOGICAL, 0..MODEL_PHYSICAL).prop_map(|(lpn, ordinal)| MapOp::Map { lpn, ordinal })
    };
    // `map` twice: half the calls map, so the table fills up.
    prop_oneof![
        map(),
        map(),
        lpn.clone().prop_map(|lpn| MapOp::Unmap { lpn }),
        lpn.clone().prop_map(|lpn| MapOp::MarkLost { lpn }),
        lpn.prop_map(|lpn| MapOp::Lookup { lpn }),
        (0..MODEL_CHIPS * MODEL_BLOCKS).prop_map(|block| MapOp::Residents { block }),
    ]
}

fn model_block(flat: usize) -> BlockAddr {
    BlockAddr::new(ChipId(flat / MODEL_BLOCKS), flat % MODEL_BLOCKS)
}

fn model_page(ordinal: usize) -> PageAddr {
    model_block(ordinal / MODEL_PAGES).page(PageId(ordinal % MODEL_PAGES))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The packed mapping table answers every call as a `BTreeMap` from LPN to
    /// page plus a `BTreeSet` of lost LPNs does, and stays consistent after each
    /// one.
    #[test]
    fn mapping_table_matches_the_btree_model(ops in proptest::collection::vec(map_op(), 1..300)) {
        let mut table = MappingTable::new(MODEL_LOGICAL, MODEL_CHIPS, MODEL_BLOCKS, MODEL_PAGES);
        let mut model: BTreeMap<Lpn, PageAddr> = BTreeMap::new();
        let mut lost: BTreeSet<Lpn> = BTreeSet::new();
        let mut residents = Vec::new();
        for op in ops {
            let touched = match op {
                MapOp::Map { lpn, .. }
                | MapOp::Unmap { lpn }
                | MapOp::MarkLost { lpn }
                | MapOp::Lookup { lpn } => Some(Lpn(lpn)),
                MapOp::Residents { .. } => None,
            };
            match op {
                MapOp::Map { lpn, ordinal } => {
                    let addr = model_page(ordinal);
                    // An FTL programs a page once before its block is erased:
                    // never map onto a page that still holds another LPN.
                    if model.values().any(|&held| held == addr) {
                        continue;
                    }
                    prop_assert_eq!(table.map(Lpn(lpn), addr), model.insert(Lpn(lpn), addr));
                    lost.remove(&Lpn(lpn));
                }
                MapOp::Unmap { lpn } => {
                    prop_assert_eq!(table.unmap(Lpn(lpn)), model.remove(&Lpn(lpn)));
                    lost.remove(&Lpn(lpn));
                }
                MapOp::MarkLost { lpn } => {
                    prop_assert_eq!(table.mark_lost(Lpn(lpn)), model.remove(&Lpn(lpn)));
                    if lpn < MODEL_LOGICAL {
                        lost.insert(Lpn(lpn));
                    }
                }
                MapOp::Lookup { lpn } => {
                    prop_assert_eq!(table.lookup(Lpn(lpn)), model.get(&Lpn(lpn)).copied());
                }
                MapOp::Residents { block } => {
                    let block = model_block(block);
                    table.residents_into(block, &mut residents);
                    let mut expected: Vec<(PageAddr, Lpn)> = model
                        .iter()
                        .filter(|(_, addr)| addr.block() == block)
                        .map(|(&lpn, &addr)| (addr, lpn))
                        .collect();
                    expected.sort();
                    prop_assert_eq!(&residents, &expected);
                }
            }
            prop_assert_eq!(table.check_consistency(), Ok(model.len() as u64));
            prop_assert_eq!(table.mapped_pages(), model.len() as u64);
            if let Some(lpn) = touched {
                prop_assert_eq!(table.lookup(lpn), model.get(&lpn).copied());
                prop_assert_eq!(table.is_lost(lpn), lost.contains(&lpn));
            }
        }
        for lpn in (0..MODEL_LOGICAL + 4).map(Lpn) {
            prop_assert_eq!(table.is_lost(lpn), lost.contains(&lpn));
        }
    }
}

#[test]
fn ftl_core_refuses_the_first_geometry_the_mapping_table_cannot_address() {
    // A packed forward entry gives the chip 16 bits: 2^16 - 1 chips build,
    // 2^16 is refused before the table is allocated.
    let ftl = |chips: usize| {
        let nand = NandConfig::builder()
            .chips(chips)
            .blocks_per_chip(1)
            .pages_per_block(1)
            .page_size_bytes(4096)
            .build()
            .expect("valid geometry");
        ConventionalFtl::new(NandDevice::new(nand), FtlConfig::default())
    };
    assert_eq!(ftl((1 << 16) - 1).expect("addressable").device().config().chips(), (1 << 16) - 1);
    match ftl(1 << 16) {
        Err(FtlError::InvalidConfig { reason }) => assert!(reason.contains("chips"), "{reason}"),
        other => panic!("2^16 chips must be refused, got {:?}", other.map(|_| ())),
    }
}
