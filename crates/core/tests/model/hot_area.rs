//! `HotArea` over the old [`LruList`](super::lru::LruList). Code verbatim from the
//! parent commit, docs dropped; `PromotionOutcome` is the crate's own.

use vflash_ftl::Lpn;

use vflash_ppb::{Hotness, PromotionOutcome};

use super::lru::LruList;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotArea {
    hot: LruList,
    iron_hot: LruList,
}

impl HotArea {
    pub fn new(hot_capacity: usize, iron_hot_capacity: usize) -> Self {
        HotArea { hot: LruList::new(hot_capacity), iron_hot: LruList::new(iron_hot_capacity) }
    }

    pub fn hot_len(&self) -> usize {
        self.hot.len()
    }

    pub fn iron_hot_len(&self) -> usize {
        self.iron_hot.len()
    }

    pub fn contains(&self, lpn: Lpn) -> bool {
        self.hot.contains(lpn) || self.iron_hot.contains(lpn)
    }

    pub fn level_of(&self, lpn: Lpn) -> Option<Hotness> {
        if self.iron_hot.contains(lpn) {
            Some(Hotness::IronHot)
        } else if self.hot.contains(lpn) {
            Some(Hotness::Hot)
        } else {
            None
        }
    }

    pub fn on_write(&mut self, lpn: Lpn) -> Option<Lpn> {
        if self.iron_hot.contains(lpn) {
            self.iron_hot.touch(lpn);
            return None;
        }
        self.hot.insert(lpn)
    }

    pub fn on_read(&mut self, lpn: Lpn) -> PromotionOutcome {
        if self.iron_hot.contains(lpn) {
            self.iron_hot.touch(lpn);
            return PromotionOutcome::AlreadyIronHot;
        }
        if !self.hot.contains(lpn) {
            return PromotionOutcome::NotTracked;
        }
        self.hot.remove(lpn);
        let mut demoted_to_hot = None;
        if self.iron_hot.is_full() {
            if let Some(demoted) = self.iron_hot.pop_least_recent() {
                self.hot.insert(demoted);
                demoted_to_hot = Some(demoted);
            }
        }
        self.iron_hot.insert(lpn);
        PromotionOutcome::Promoted { demoted_to_hot }
    }

    pub fn remove(&mut self, lpn: Lpn) -> bool {
        let in_hot = self.hot.remove(lpn);
        let in_iron = self.iron_hot.remove(lpn);
        in_hot || in_iron
    }
}
