//! Differential tests: the hash-free, O(1) bookkeeping types against their previous
//! implementations (kept verbatim under `model/`), step by step under random
//! operation streams. Simulated placement depends on every eviction victim and every
//! write target these types choose, so "same answers" here is what keeps the golden
//! fingerprints where they are.

mod model;

use proptest::prelude::*;
use vflash_ftl::Lpn;
use vflash_nand::{BlockAddr, NandConfig, NandDevice, PageId, SpeedClass};
use vflash_ppb::{AreaWriter, ColdArea, HotArea, LruList, VirtualBlockTable};

/// LPNs are drawn from a space a little larger than the capacities below, so the
/// lists and the table overflow constantly.
const LPNS: u64 = 24;

fn lpn_ops(ops: std::ops::Range<u8>) -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((ops, 0..LPNS), 1..400)
}

proptest! {
    #[test]
    fn lru_list_matches_its_hash_indexed_self(
        capacity in 1usize..12,
        presized in any::<bool>(),
        ops in lpn_ops(0..6),
    ) {
        let mut new = LruList::new(capacity);
        if presized {
            new.reserve_keys(LPNS);
        }
        let mut old = model::lru::LruList::new(capacity);
        for (op, lpn) in ops {
            let lpn = Lpn(lpn);
            match op {
                0 | 1 => prop_assert_eq!(new.insert(lpn), old.insert(lpn)),
                2 => prop_assert_eq!(new.touch(lpn), old.touch(lpn)),
                3 => prop_assert_eq!(new.remove(lpn), old.remove(lpn)),
                4 => prop_assert_eq!(new.pop_least_recent(), old.pop_least_recent()),
                _ => prop_assert_eq!(new.contains(lpn), old.contains(lpn)),
            }
            prop_assert_eq!(new.len(), old.len());
            prop_assert_eq!(new.is_full(), old.is_full());
            prop_assert_eq!(new.most_recent(), old.most_recent());
            prop_assert_eq!(new.least_recent(), old.least_recent());
            prop_assert_eq!(new.iter().collect::<Vec<_>>(), old.iter().collect::<Vec<_>>());
        }
        // Equality is about the list, not about how far the key table grew.
        let mut rebuilt = LruList::new(capacity);
        rebuilt.reserve_keys(4 * LPNS);
        let order: Vec<Lpn> = new.iter().collect();
        for &lpn in order.iter().rev() {
            rebuilt.insert(lpn);
        }
        prop_assert_eq!(&rebuilt, &new);
        if let Some(&head) = order.first() {
            rebuilt.remove(head);
            prop_assert_ne!(&rebuilt, &new);
        }
    }

    #[test]
    fn hot_area_matches_its_hash_indexed_self(
        hot_capacity in 1usize..8,
        iron_capacity in 1usize..8,
        ops in lpn_ops(0..6),
    ) {
        let mut new = HotArea::new(LPNS, hot_capacity, iron_capacity);
        let mut old = model::hot_area::HotArea::new(hot_capacity, iron_capacity);
        for (op, lpn) in ops {
            let lpn = Lpn(lpn);
            match op {
                0..=2 => prop_assert_eq!(new.on_write(lpn), old.on_write(lpn)),
                3 | 4 => prop_assert_eq!(new.on_read(lpn), old.on_read(lpn)),
                _ => prop_assert_eq!(new.remove(lpn), old.remove(lpn)),
            }
            prop_assert_eq!(new.hot_len(), old.hot_len());
            prop_assert_eq!(new.iron_hot_len(), old.iron_hot_len());
            for probe in 0..LPNS {
                prop_assert_eq!(new.level_of(Lpn(probe)), old.level_of(Lpn(probe)), "lpn {}", probe);
                prop_assert_eq!(new.contains(Lpn(probe)), old.contains(Lpn(probe)));
            }
        }
    }

    #[test]
    fn cold_area_matches_its_hash_indexed_self(
        capacity in 1usize..12,
        promote_reads in 1u32..4,
        ops in lpn_ops(0..8),
    ) {
        let mut new = ColdArea::new(LPNS, capacity, promote_reads);
        let mut old = model::cold_area::ColdArea::new(capacity, promote_reads);
        for (op, lpn) in ops {
            let lpn = Lpn(lpn);
            match op {
                0..=2 => {
                    new.on_write(lpn);
                    old.on_write(lpn);
                }
                3 => {
                    new.insert_demoted(lpn);
                    old.insert_demoted(lpn);
                }
                4..=6 => prop_assert_eq!(new.on_read(lpn), old.on_read(lpn)),
                _ => prop_assert_eq!(new.remove(lpn), old.remove(lpn)),
            }
            prop_assert_eq!(new.len(), old.len());
            // The same entries survive every overflow — the eviction victim is
            // whatever the other one evicted — at the same count and level.
            for probe in 0..LPNS {
                let probe = Lpn(probe);
                prop_assert_eq!(new.contains(probe), old.contains(probe), "{}", probe);
                prop_assert_eq!(new.level_of(probe), old.level_of(probe), "{}", probe);
                prop_assert_eq!(new.read_count(probe), old.read_count(probe), "{}", probe);
            }
        }
    }

    /// Same target block for every write and the same `open_blocks()` order, at
    /// stripe 1 and 4, 2 and 4 classes, budgets 1-3, with blocks retired (and
    /// evicted) mid-stream.
    #[test]
    fn area_writer_matches_its_queue_scanning_self(
        classes in prop_oneof![Just(2usize), Just(4usize)],
        stripe in prop_oneof![Just(1usize), Just(4usize)],
        budget in 1usize..4,
        ops in proptest::collection::vec((0u8..16, 0usize..4), 1..400),
    ) {
        let config = NandConfig::builder()
            .chips(4)
            .blocks_per_chip(48)
            .pages_per_block(6)
            .page_size_bytes(4096)
            .build()
            .unwrap();
        let table = VirtualBlockTable::new(&config, classes);
        // One device per writer: `target` allocates from it.
        let (mut new_device, mut old_device) = (NandDevice::new(config.clone()), NandDevice::new(config));
        let mut new = AreaWriter::new("hot", &table, budget);
        let mut old = model::placement::AreaWriter::new("hot", &table, budget);
        new.set_stripe(stripe);
        old.set_stripe(stripe);
        for (op, desired) in ops {
            if op == 0 {
                // Retire some open block, as a failed program would, and evict it.
                let Some(block) = old.open_blocks().get(desired).copied() else { continue };
                new_device.retire_block(block).unwrap();
                old_device.retire_block(block).unwrap();
                prop_assert_eq!(new.evict(block), old.evict(block));
                prop_assert!(!new.evict(block), "a second evict finds nothing");
            } else {
                let desired = desired % classes;
                let block = new.target(desired, &mut new_device).unwrap();
                prop_assert_eq!(block, old.target(desired, &mut old_device).unwrap());
                new_device.program_next(block).unwrap();
                old_device.program_next(block).unwrap();
                new.after_program(block, &new_device, &table);
                old.after_program(block, &old_device, &table);
            }
            prop_assert_eq!(new.open_blocks().collect::<Vec<BlockAddr>>(), old.open_blocks());
            prop_assert_eq!(new.blocks_owned(), old.blocks_owned());
            for class in 0..classes {
                prop_assert_eq!(new.has_open(class), old.has_open(class));
            }
        }
    }
}

/// The boundary table and the division agree on every page of every geometry
/// `VirtualBlockTable::new` accepts, uneven splits and empty classes included.
#[test]
fn class_of_page_matches_speed_class_of_for_every_geometry() {
    for pages_per_block in 1..=256usize {
        let config = NandConfig::builder()
            .chips(1)
            .blocks_per_chip(4)
            .pages_per_block(pages_per_block)
            .page_size_bytes(4096)
            .build()
            .unwrap();
        for per_block in 1..=8usize {
            let table = VirtualBlockTable::new(&config, per_block);
            for page in 0..pages_per_block {
                assert_eq!(
                    table.class_of_page(PageId(page)),
                    SpeedClass::of(PageId(page), pages_per_block, per_block),
                    "page {page} of {pages_per_block}, {per_block} classes"
                );
                assert!(table.class_range(table.class_of_page(PageId(page)).0).contains(&page));
            }
        }
    }
}
