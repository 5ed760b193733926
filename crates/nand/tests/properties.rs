//! Property-based tests for the NAND device model.

use std::cmp::Reverse;

use proptest::prelude::*;
use vflash_nand::{
    BlockAddr, ChipId, LatencyModel, NandConfig, NandDevice, NandError, Nanos, PageId,
    SpeedProfile,
};

fn arb_profile() -> impl Strategy<Value = SpeedProfile> {
    prop_oneof![
        Just(SpeedProfile::Linear),
        Just(SpeedProfile::Exponential),
        Just(SpeedProfile::Uniform),
        (1usize..8).prop_map(|steps| SpeedProfile::Stepped { steps }),
    ]
}

proptest! {
    /// Speed factors always stay inside [1/ratio, 1] and never increase towards the
    /// bottom of the stack, for any profile and ratio.
    #[test]
    fn speed_factors_bounded_and_monotone(
        pages in 1usize..512,
        ratio in 1.0f64..8.0,
        profile in arb_profile(),
    ) {
        let model = LatencyModel::new(
            Nanos::from_micros(49),
            Nanos::from_micros(600),
            Nanos::from_millis(4),
            Nanos::from_micros(246),
            pages,
            ratio,
            profile,
        );
        let mut previous = f64::INFINITY;
        for i in 0..pages {
            let factor = model.speed_factor(PageId(i));
            prop_assert!(factor <= 1.0 + 1e-12);
            prop_assert!(factor >= 1.0 / ratio - 1e-12);
            prop_assert!(factor <= previous + 1e-12, "factor increased at page {i}");
            previous = factor;
        }
    }

    /// Read latency of a faster page never exceeds that of a slower page, and
    /// totals always include the transfer time.
    #[test]
    fn read_latency_ordering_matches_factors(
        pages in 2usize..256,
        ratio in 1.0f64..6.0,
    ) {
        let model = LatencyModel::new(
            Nanos::from_micros(49),
            Nanos::from_micros(600),
            Nanos::from_millis(4),
            Nanos::from_micros(246),
            pages,
            ratio,
            SpeedProfile::Linear,
        );
        let first = model.read_latency(PageId(0));
        let last = model.read_latency(PageId(pages - 1));
        prop_assert!(last <= first);
        prop_assert_eq!(
            model.read_total(PageId(0)),
            first + Nanos::from_micros(246)
        );
    }

    /// Whatever sequence of program / invalidate / erase operations an FTL issues,
    /// the per-block accounting identity `valid + invalid + free == pages_per_block`
    /// holds, and erase never succeeds while valid pages remain.
    #[test]
    fn block_accounting_identity_under_random_ops(
        ops in proptest::collection::vec(0u8..3, 1..200),
        pages_per_block in 2usize..16,
    ) {
        let config = NandConfig::builder()
            .chips(1)
            .blocks_per_chip(2)
            .pages_per_block(pages_per_block)
            .page_size_bytes(4096)
            .build()
            .unwrap();
        let mut device = NandDevice::new(config);
        let block = BlockAddr::new(ChipId(0), 0);
        let mut next_to_invalidate = 0usize;

        for op in ops {
            match op {
                0 => {
                    // program the next page if possible
                    let _ = device.program_next(block);
                }
                1 => {
                    // invalidate the oldest still-valid page we know about
                    if next_to_invalidate < pages_per_block {
                        let addr = block.page(PageId(next_to_invalidate));
                        if device.invalidate(addr).is_ok() {
                            next_to_invalidate += 1;
                        }
                    }
                }
                _ => {
                    let valid = device.block(block).unwrap().valid_pages();
                    match device.erase(block) {
                        Ok(_) => {
                            prop_assert_eq!(valid, 0, "erase succeeded with valid pages");
                            next_to_invalidate = 0;
                        }
                        Err(NandError::EraseWithValidPages { .. }) => {
                            prop_assert!(valid > 0);
                        }
                        Err(other) => return Err(TestCaseError::fail(format!("{other}"))),
                    }
                }
            }
            let blk = device.block(block).unwrap();
            prop_assert_eq!(
                blk.valid_pages() + blk.invalid_pages() + blk.free_pages(),
                pages_per_block
            );
        }
    }

    /// Program order is strictly sequential: programming any page other than the
    /// next free one is always rejected and leaves the block untouched.
    #[test]
    fn out_of_order_programs_always_rejected(
        target in 0usize..8,
        programmed in 0usize..8,
    ) {
        let config = NandConfig::builder()
            .chips(1)
            .blocks_per_chip(1)
            .pages_per_block(8)
            .page_size_bytes(4096)
            .build()
            .unwrap();
        let mut device = NandDevice::new(config);
        let block = BlockAddr::new(ChipId(0), 0);
        for _ in 0..programmed {
            device.program_next(block).unwrap();
        }
        let before = device.block(block).unwrap().clone();
        if target != programmed {
            prop_assert!(device.program(block, PageId(target)).is_err());
            prop_assert_eq!(device.block(block).unwrap(), &before);
        } else {
            prop_assert!(device.program(block, PageId(target)).is_ok());
        }
    }

    /// Whatever interleaving of allocate / program / invalidate / erase / retire
    /// an FTL issues, each chip's O(1) free-block counter equals a brute-force
    /// recount of blocks in the `Free` state, the garbage-collection candidate
    /// index equals a brute-force scan for full blocks with invalid pages (and
    /// therefore never yields a `Bad` block), the bad-block counter matches a
    /// state scan, and the allocatable count never exceeds the free count.
    #[test]
    fn free_list_accounting_matches_brute_force(
        ops in proptest::collection::vec((0u8..5, 0usize..8, 0usize..6), 1..300),
        chips in 1usize..4,
    ) {
        use vflash_nand::BlockState;

        let blocks_per_chip = 4usize;
        let pages_per_block = 3usize;
        let config = NandConfig::builder()
            .chips(chips)
            .blocks_per_chip(blocks_per_chip)
            .pages_per_block(pages_per_block)
            .page_size_bytes(4096)
            .build()
            .unwrap();
        let mut device = NandDevice::new(config);
        let mut leased: Vec<BlockAddr> = Vec::new();

        for (op, raw_block, raw_page) in ops {
            match op {
                0 => {
                    if let Some(block) = device.allocate_block() {
                        // The pool never hands out a block that is not erased, and
                        // never hands the same block out twice before an erase.
                        prop_assert_eq!(
                            device.block(block).unwrap().state(),
                            BlockState::Free
                        );
                        prop_assert!(!leased.contains(&block), "double allocation");
                        leased.push(block);
                    }
                }
                1 => {
                    let block = BlockAddr::new(
                        ChipId(raw_page % chips),
                        raw_block % blocks_per_chip,
                    );
                    let _ = device.program_next(block);
                }
                2 => {
                    let block = BlockAddr::new(
                        ChipId(raw_block % chips),
                        raw_block % blocks_per_chip,
                    );
                    let _ = device.invalidate(block.page(PageId(raw_page % pages_per_block)));
                }
                3 => {
                    let block = BlockAddr::new(
                        ChipId(raw_page % chips),
                        raw_block % blocks_per_chip,
                    );
                    if device.erase(block).is_ok() {
                        leased.retain(|&b| b != block);
                    }
                }
                _ => {
                    // Retire a block as bad; leased-but-bad blocks leave the
                    // `Free` state, which the identities below must absorb.
                    let block = BlockAddr::new(
                        ChipId(raw_block % chips),
                        raw_page % blocks_per_chip,
                    );
                    device.retire_block(block).unwrap();
                    prop_assert!(
                        matches!(
                            device.program_next(block),
                            Err(NandError::ProgramFailed { .. })
                        ),
                        "bad blocks must reject programs"
                    );
                    prop_assert!(
                        matches!(device.erase(block), Err(NandError::EraseFailed { .. })),
                        "bad blocks must reject erases"
                    );
                }
            }

            // Per-chip O(1) counters vs. brute-force recount.
            for chip_index in 0..chips {
                let chip = device.chip(ChipId(chip_index)).unwrap();
                let recount = chip.iter().filter(|b| b.state() == BlockState::Free).count();
                prop_assert_eq!(chip.free_blocks(), recount, "chip {} free count", chip_index);
                prop_assert!(chip.available_blocks() <= chip.free_blocks());
            }
            prop_assert_eq!(
                device.free_block_count(),
                device.block_addrs()
                    .filter(|&a| device.block(a).unwrap().state() == BlockState::Free)
                    .count()
            );

            // Victim index vs. brute-force scan: excluding each pick in turn
            // drains the candidates in greedy order — most invalid pages first,
            // lowest address on ties.
            let mut expected: Vec<BlockAddr> = device
                .block_addrs()
                .filter(|&a| {
                    let b = device.block(a).unwrap();
                    b.state() == BlockState::Full && b.invalid_pages() > 0
                })
                .collect();
            expected.sort_by_key(|&a| (Reverse(device.block(a).unwrap().invalid_pages()), a));
            let mut drained: Vec<BlockAddr> = Vec::new();
            while let Some(victim) = device.greedy_victim(&drained) {
                drained.push(victim);
            }
            prop_assert_eq!(drained, expected);
            prop_assert_eq!(device.check_invariants(), Ok(()));

            // Bad-block accounting: the O(chips) counter matches a state scan,
            // and bad blocks are never allocatable.
            prop_assert_eq!(
                device.bad_block_count(),
                device.block_addrs()
                    .filter(|&a| device.block(a).unwrap().state() == BlockState::Bad)
                    .count()
            );
            if let Some(free) = device.any_free_block() {
                prop_assert!(!device.block(free).unwrap().is_bad());
            }

            // The allocatable pool is exactly the free blocks minus leased ones.
            prop_assert_eq!(
                device.available_blocks(),
                device.free_block_count()
                    - leased
                        .iter()
                        .filter(|&&b| device.block(b).unwrap().state() == BlockState::Free)
                        .count()
            );
        }
    }

    /// Device statistics busy time equals the sum of latencies returned to callers.
    #[test]
    fn stats_busy_time_matches_returned_latencies(rounds in 1usize..20) {
        let config = NandConfig::builder()
            .chips(1)
            .blocks_per_chip(4)
            .pages_per_block(4)
            .page_size_bytes(4096)
            .speed_ratio(3.0)
            .build()
            .unwrap();
        let mut device = NandDevice::new(config);
        let mut total = Nanos::ZERO;
        for round in 0..rounds {
            let block = BlockAddr::new(ChipId(0), round % 4);
            if let Ok((page, program)) = device.program_next(block) {
                total += program;
                total += device.read(block.page(page)).unwrap();
            }
        }
        prop_assert_eq!(device.stats().busy_time(), total);
    }
}
