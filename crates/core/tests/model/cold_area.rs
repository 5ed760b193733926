//! `ColdArea` as it was before the per-LPN slot table: an fx hash map of slots over
//! a `BTreeMap` of buckets. Code verbatim from the parent commit, docs dropped.

use std::collections::BTreeMap;

use vflash_ftl::fx::FxHashMap;
use vflash_ftl::Lpn;

use vflash_ppb::Hotness;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    count: u32,
    pos: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdArea {
    slots: FxHashMap<Lpn, Slot>,
    buckets: BTreeMap<u32, Vec<Lpn>>,
    capacity: usize,
    promote_reads: u32,
}

impl ColdArea {
    pub fn new(capacity: usize, promote_reads: u32) -> Self {
        assert!(capacity > 0, "cold table capacity must be positive");
        assert!(promote_reads > 0, "promotion threshold must be positive");
        ColdArea {
            slots: FxHashMap::with_capacity_and_hasher(capacity.min(1024), Default::default()),
            buckets: BTreeMap::new(),
            capacity,
            promote_reads,
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub fn contains(&self, lpn: Lpn) -> bool {
        self.slots.contains_key(&lpn)
    }

    pub fn level_of(&self, lpn: Lpn) -> Option<Hotness> {
        self.slots.get(&lpn).map(|slot| {
            if slot.count >= self.promote_reads {
                Hotness::Cold
            } else {
                Hotness::IcyCold
            }
        })
    }

    pub fn read_count(&self, lpn: Lpn) -> u32 {
        self.slots.get(&lpn).map(|slot| slot.count).unwrap_or(0)
    }

    pub fn on_write(&mut self, lpn: Lpn) {
        self.evict_if_needed_for(lpn);
        self.set_count(lpn, 0);
    }

    pub fn insert_demoted(&mut self, lpn: Lpn) {
        self.evict_if_needed_for(lpn);
        self.set_count(lpn, self.promote_reads);
    }

    pub fn on_read(&mut self, lpn: Lpn) -> Option<Hotness> {
        let count = self.slots.get(&lpn)?.count;
        let bumped = count.saturating_add(1).min(self.promote_reads);
        if bumped != count {
            self.set_count(lpn, bumped);
        }
        Some(if bumped >= self.promote_reads { Hotness::Cold } else { Hotness::IcyCold })
    }

    pub fn remove(&mut self, lpn: Lpn) -> bool {
        let Some(slot) = self.slots.remove(&lpn) else { return false };
        self.detach(lpn, slot);
        true
    }

    fn detach(&mut self, lpn: Lpn, slot: Slot) {
        let bucket = self.buckets.get_mut(&slot.count).expect("tracked entries have a bucket");
        debug_assert_eq!(bucket[slot.pos], lpn);
        bucket.swap_remove(slot.pos);
        if let Some(&moved) = bucket.get(slot.pos) {
            self.slots.get_mut(&moved).expect("bucket entries are tracked").pos = slot.pos;
        } else if bucket.is_empty() {
            self.buckets.remove(&slot.count);
        }
    }

    fn set_count(&mut self, lpn: Lpn, count: u32) {
        if let Some(slot) = self.slots.get(&lpn).copied() {
            if slot.count == count {
                return;
            }
            self.detach(lpn, slot);
        }
        let bucket = self.buckets.entry(count).or_default();
        bucket.push(lpn);
        self.slots.insert(lpn, Slot { count, pos: bucket.len() - 1 });
    }

    fn evict_if_needed_for(&mut self, lpn: Lpn) {
        if self.slots.len() < self.capacity || self.slots.contains_key(&lpn) {
            return;
        }
        // Drop a least-read entry: it is the best icy-cold candidate and losing its
        // history is harmless (untracked entries are icy-cold anyway). Buckets are
        // never left empty, so the first one holds the lowest read count.
        let Some((&count, bucket)) = self.buckets.iter_mut().next() else { return };
        let victim = bucket.pop().expect("buckets are never left empty");
        if bucket.is_empty() {
            self.buckets.remove(&count);
        }
        self.slots.remove(&victim);
    }
}
