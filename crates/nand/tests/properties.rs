//! Property-based tests for the NAND device model.

use std::cmp::Reverse;

use proptest::prelude::*;
use vflash_nand::{
    BlockAddr, ChipId, FaultConfig, LatencyModel, NandConfig, NandDevice, NandError, Nanos, PageId,
};

/// The latency model of a Table 1 device with `pages` layers and speed `ratio`.
fn model(pages: usize, ratio: f64) -> LatencyModel {
    NandConfig::builder()
        .pages_per_block(pages)
        .speed_ratio(ratio)
        .build()
        .expect("valid geometry")
        .latency_model()
}

proptest! {
    /// Speed factors always stay inside [1/ratio, 1] and never increase towards the
    /// bottom of the stack, for any page count and ratio.
    #[test]
    fn speed_factors_bounded_and_monotone(
        pages in 1usize..512,
        ratio in 1.0f64..8.0,
    ) {
        let model = model(pages, ratio);
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
        let model = model(pages, ratio);
        let first = model.read_latency(PageId(0));
        let last = model.read_latency(PageId(pages - 1));
        prop_assert!(last <= first);
        prop_assert_eq!(
            model.read_total(PageId(0)),
            first + model.transfer_latency()
        );
        prop_assert!(model.transfer_latency() > Nanos::ZERO);
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

    /// Whatever interleaving of allocate / program / invalidate / erase / retire
    /// an FTL issues, the allocatable count is exactly the blocks in the `Free`
    /// state that are not leased out, the garbage-collection candidate index
    /// equals a brute-force scan for full blocks with invalid pages (and
    /// therefore never yields a `Bad` block), and the bad-block counter matches
    /// a state scan.
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

            for chip_index in 0..chips {
                let chip = device.chip(ChipId(chip_index)).unwrap();
                let free = chip.iter().filter(|b| b.state() == BlockState::Free).count();
                prop_assert!(chip.available_blocks() <= free, "chip {} pool", chip_index);
            }

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

            // Bad-block accounting: the O(chips) counter matches a state scan.
            let in_state = |state| {
                device.block_addrs().filter(|&a| device.block(a).unwrap().state() == state).count()
            };
            prop_assert_eq!(device.bad_block_count(), in_state(BlockState::Bad));

            // The allocatable pool is exactly the free blocks minus leased ones.
            prop_assert_eq!(
                device.available_blocks(),
                in_state(BlockState::Free)
                    - leased
                        .iter()
                        .filter(|&&b| device.block(b).unwrap().state() == BlockState::Free)
                        .count()
            );
        }
    }

    /// Allocation order: each chip's pool is a plain FIFO and `allocate_block`
    /// walks the chips round-robin from a cursor. Allocation pops the front of
    /// the first non-empty pool from the cursor on, an erase puts a block that
    /// is not pooled at the back, and a block that is programmed (or fails to
    /// program) or retired leaves its pool. Whatever interleaving of allocate,
    /// program on leased and on still-pooled blocks, invalidate, erase and
    /// retire runs — with injected program and erase failures — the device
    /// answers every allocation as the model does, and after every step its
    /// pool counts, its whole remaining allocation order (drained on a clone)
    /// and `check_invariants` agree with the model.
    #[test]
    fn allocation_order_matches_the_fifo_model(
        chips in 1usize..5,
        fault_seed in 0u64..1_000,
        steps in proptest::collection::vec((0u8..8, 0usize..1 << 12, 0usize..8), 1..300),
    ) {
        use std::collections::VecDeque;

        let blocks_per_chip = 6usize;
        let pages_per_block = 2usize;
        let mut faults = FaultConfig::enabled(fault_seed);
        faults.program_fail_base = 0.02;
        faults.erase_fail_base = 0.05;
        faults.rber_scale = 0.0;
        let config = NandConfig::builder()
            .chips(chips)
            .blocks_per_chip(blocks_per_chip)
            .pages_per_block(pages_per_block)
            .page_size_bytes(4096)
            .faults(faults)
            .build()
            .unwrap();
        let mut device = NandDevice::new(config);
        let mut pools: Vec<VecDeque<usize>> =
            (0..chips).map(|_| (0..blocks_per_chip).collect()).collect();
        let mut cursor = 0usize;
        let allocate = |pools: &mut [VecDeque<usize>], cursor: &mut usize| {
            let start = *cursor;
            (0..chips).map(|offset| (start + offset) % chips).find_map(|chip| {
                let index = pools[chip].pop_front()?;
                *cursor = (chip + 1) % chips;
                Some(BlockAddr::new(ChipId(chip), index))
            })
        };
        let unpool = |pools: &mut [VecDeque<usize>], block: BlockAddr| {
            pools[block.chip().0].retain(|&index| index != block.index());
        };

        for (op, selector, page) in steps {
            let chip = selector % chips;
            let block = BlockAddr::new(ChipId(chip), selector / chips % blocks_per_chip);
            match op {
                0 | 1 => {
                    let expected = allocate(&mut pools, &mut cursor);
                    prop_assert_eq!(device.allocate_block(), expected);
                }
                2 | 3 => {
                    // Program a block: a still-pooled one on 2, any block on 3.
                    let pool = &pools[chip];
                    let block = if op == 2 && !pool.is_empty() {
                        BlockAddr::new(ChipId(chip), pool[page % pool.len()])
                    } else {
                        block
                    };
                    match device.program_next(block) {
                        Ok(_) | Err(NandError::ProgramFailed { .. }) => unpool(&mut pools, block),
                        Err(NandError::BlockFull { .. }) => {}
                        Err(other) => return Err(TestCaseError::fail(format!("{other}"))),
                    }
                }
                4 => {
                    let _ = device.invalidate(block.page(PageId(page % pages_per_block)));
                }
                5 | 6 => {
                    for page in 0..pages_per_block {
                        let _ = device.invalidate(block.page(PageId(page)));
                    }
                    match device.erase(block) {
                        Ok(_) => {
                            if !pools[chip].contains(&block.index()) {
                                pools[chip].push_back(block.index());
                            }
                        }
                        Err(NandError::EraseFailed { .. }) => unpool(&mut pools, block),
                        Err(other) => return Err(TestCaseError::fail(format!("{other}"))),
                    }
                }
                _ => {
                    device.retire_block(block).unwrap();
                    unpool(&mut pools, block);
                }
            }
            for (chip, pool) in pools.iter().enumerate() {
                let kept = device.chip(ChipId(chip)).unwrap().available_blocks();
                prop_assert_eq!(kept, pool.len(), "chip {} pool size", chip);
            }
            prop_assert_eq!(device.available_blocks(), pools.iter().map(VecDeque::len).sum::<usize>());
            prop_assert_eq!(device.check_invariants(), Ok(()));
            let (mut drained, mut model, mut model_cursor) = (device.clone(), pools.clone(), cursor);
            loop {
                let expected = allocate(&mut model, &mut model_cursor);
                prop_assert_eq!(drained.allocate_block(), expected, "remaining allocation order");
                if expected.is_none() {
                    break;
                }
            }
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
