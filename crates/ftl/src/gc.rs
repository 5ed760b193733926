//! Garbage-collection building blocks.
//!
//! The relocation loop itself differs between FTLs (the conventional FTL copies valid
//! pages into a single destination stream, while the PPB strategy uses garbage
//! collection as its opportunity to migrate data towards pages of suitable speed), so
//! this module only provides the shared pieces: victim selection policies and the
//! [`GcOutcome`] accounting type.

use vflash_nand::{BlockAddr, BlockState, NandDevice, Nanos};

/// Summary of one garbage-collection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcOutcome {
    /// Blocks erased.
    pub erased_blocks: u64,
    /// Valid pages copied to new locations.
    pub copied_pages: u64,
    /// Total device time consumed (reads + programs + erases).
    pub time: Nanos,
}

impl GcOutcome {
    /// Merges another outcome into this one.
    pub fn merge(&mut self, other: GcOutcome) {
        self.erased_blocks += other.erased_blocks;
        self.copied_pages += other.copied_pages;
        self.time += other.time;
    }
}

/// Strategy for choosing which block to reclaim next.
///
/// `Debug` is a supertrait so FTLs holding a `Box<dyn VictimPolicy>` can keep
/// deriving `Debug` themselves.
pub trait VictimPolicy: std::fmt::Debug {
    /// Picks a victim block, or `None` if no block is worth (or capable of being)
    /// reclaimed. `exclude` lists blocks that must not be chosen — typically the
    /// currently-open write streams.
    fn select_victim(&self, device: &NandDevice, exclude: &[BlockAddr]) -> Option<BlockAddr>;
}

/// The classic greedy policy: reclaim the full block with the most invalid pages.
///
/// Blocks with zero invalid pages are never selected (erasing them would only move
/// data around without freeing anything). Selection is one
/// [`NandDevice::greedy_victim`] query: the device files every candidate — full
/// blocks with at least one invalid page — under its invalid-page count, so the
/// pick costs O(chips x blocks / 64) bitmap words, not a scan of the candidates.
/// Ties on the invalid-page count are broken towards the lowest address, keeping
/// victim choice independent of the order in which blocks became candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GreedyVictimPolicy;

impl GreedyVictimPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        GreedyVictimPolicy
    }
}

impl VictimPolicy for GreedyVictimPolicy {
    fn select_victim(&self, device: &NandDevice, exclude: &[BlockAddr]) -> Option<BlockAddr> {
        device.greedy_victim(exclude)
    }
}

/// The classic cost-benefit policy (Rosenblum & Ousterhout's LFS cleaner, as used
/// by eNVy and countless FTLs since): reclaim the block maximising
///
/// ```text
/// benefit   (1 - u)
/// ------- = ------- x age
///  cost       2u
/// ```
///
/// where `u` is the block's valid-page utilisation (cost `2u`: read `u` to copy
/// `u` back out) and `age` is the time since the block last changed — here the
/// device's logical [modification clock](NandDevice::mod_seq) minus the block's
/// [`last_modified`](vflash_nand::Block::last_modified) stamp. Old, mostly-stale
/// blocks score highest; recently-written blocks are left alone because their
/// remaining valid pages are likely to be invalidated for free soon ("hot" blocks
/// clean themselves).
///
/// Fully-invalid blocks (`u = 0`) have infinite score and are always taken first,
/// oldest first. Scoring needs every candidate's age, so — unlike the greedy
/// policy — selection walks the device's O(candidates)
/// [`gc_candidates`](NandDevice::gc_candidates) list; ties break
/// towards the lowest address so victim choice is independent of the index's
/// internal ordering.
///
/// **Pressure fallback:** when fewer than two blocks remain allocatable,
/// cost-benefit scoring is only trusted for *copy-free* victims. Cost-benefit
/// happily picks an old block that is still mostly valid, and relocating those
/// valid pages consumes free pages *before* the erase returns any — with the
/// pool nearly empty (a dual-stream FTL can need two fresh blocks for one
/// relocation) that deadlocks the collector. Under pressure the policy
/// therefore takes the oldest fully-invalid candidate — exactly what undiluted
/// cost-benefit ranks first anyway — and only when no copy-free victim exists
/// does it degrade to greedy (most invalid pages = fewest relocations), the
/// emergency mode real FTLs reserve for this situation. Note that with the
/// default `gc_trigger_free_blocks = 2` every collection *episode* starts under
/// pressure, so its first victim may be a greedy choice; once the first erase
/// replenishes the pool, subsequent selections use the full benefit/cost score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostBenefitVictimPolicy;

impl CostBenefitVictimPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        CostBenefitVictimPolicy
    }

    /// Returns the benefit/cost score and the block's age in one lookup.
    fn score(device: &NandDevice, addr: BlockAddr) -> (f64, u64) {
        let block = device.block(addr).expect("candidate addresses are valid");
        debug_assert_eq!(block.state(), BlockState::Full);
        let age = device.mod_seq().saturating_sub(block.last_modified());
        let utilisation = block.valid_pages() as f64 / block.len() as f64;
        if utilisation == 0.0 {
            // Copy-free victims: rank above every utilised block, oldest first.
            return (f64::INFINITY, age);
        }
        ((1.0 - utilisation) / (2.0 * utilisation) * age as f64, age)
    }
}

impl VictimPolicy for CostBenefitVictimPolicy {
    fn select_victim(&self, device: &NandDevice, exclude: &[BlockAddr]) -> Option<BlockAddr> {
        if device.available_blocks() < 2 {
            // Pressure: only copy-free victims are guaranteed reclaimable
            // without consuming free pages first. Take the oldest one (the
            // cost-benefit order among infinite scores); greedy otherwise.
            let mut best: Option<(BlockAddr, u64)> = None;
            for addr in device.gc_candidates() {
                if exclude.contains(&addr) {
                    continue;
                }
                let block = device.block(addr).expect("candidate addresses are valid");
                if block.valid_pages() > 0 {
                    continue;
                }
                let age = device.mod_seq().saturating_sub(block.last_modified());
                match best {
                    Some((best_addr, best_age))
                        if age < best_age || (age == best_age && addr > best_addr) => {}
                    _ => best = Some((addr, age)),
                }
            }
            return best
                .map(|(addr, _)| addr)
                .or_else(|| GreedyVictimPolicy::new().select_victim(device, exclude));
        }
        let mut best: Option<(BlockAddr, f64, u64)> = None;
        for addr in device.gc_candidates() {
            if exclude.contains(&addr) {
                continue;
            }
            // Infinite scores tie among themselves; prefer the older block (it has
            // waited longest), then the lower address, keeping selection fully
            // deterministic.
            let (score, age) = Self::score(device, addr);
            match best {
                Some((best_addr, best_score, best_age))
                    if score < best_score
                        || (score == best_score && age < best_age)
                        || (score == best_score && age == best_age && addr > best_addr) => {}
                _ => best = Some((addr, score, age)),
            }
        }
        best.map(|(addr, _, _)| addr)
    }
}

/// Conventional area-tag value for blocks holding cold-area (cold / icy-cold)
/// data. See [`HotColdVictimPolicy`].
pub const COLD_AREA_TAG: u8 = 0;

/// Conventional area-tag value for blocks holding hot-area (hot / iron-hot) data.
pub const HOT_AREA_TAG: u8 = 1;

/// A hotness-aware greedy policy exploiting the PPB block area tags.
///
/// The PPB strategy never mixes hot-area and cold-area data in one physical block
/// and labels each block with its area via
/// [`NandDevice::set_block_area_tag`](vflash_nand::NandDevice::set_block_area_tag).
/// That separation carries a classic GC insight: the valid pages remaining in a
/// **hot-area** block are likely to be invalidated soon anyway (hot data is
/// rewritten frequently — waiting lets the block clean itself for free), while the
/// valid pages in a **cold-area** block are stable, so copying them now wastes
/// nothing that time would have saved. The policy therefore scores candidates as
///
/// ```text
/// score = invalid_pages + cold_bonus   (cold_bonus only for cold-tagged blocks)
/// ```
///
/// and reclaims the highest score — i.e. it behaves greedily but prefers a
/// cold-tagged victim unless a hot-tagged one offers more than `cold_bonus` extra
/// invalid pages. Untagged blocks (a conventional FTL never tags) get no bonus, so
/// on an untagged device the policy degenerates to [`GreedyVictimPolicy`] exactly.
/// Ties break towards the lowest address, keeping selection deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotColdVictimPolicy {
    cold_bonus: f64,
}

impl HotColdVictimPolicy {
    /// Creates the policy with an explicit cold-victim bonus, measured in
    /// invalid-page equivalents.
    ///
    /// # Panics
    ///
    /// Panics if `cold_bonus` is negative or not finite.
    pub fn new(cold_bonus: f64) -> Self {
        assert!(
            cold_bonus.is_finite() && cold_bonus >= 0.0,
            "cold bonus must be finite and non-negative"
        );
        HotColdVictimPolicy { cold_bonus }
    }

    /// The configured cold-victim bonus.
    pub fn cold_bonus(&self) -> f64 {
        self.cold_bonus
    }
}

impl Default for HotColdVictimPolicy {
    /// A bonus of 2 invalid pages: enough to flip close calls towards cold blocks
    /// without overriding a clearly better hot victim.
    fn default() -> Self {
        HotColdVictimPolicy::new(2.0)
    }
}

impl VictimPolicy for HotColdVictimPolicy {
    fn select_victim(&self, device: &NandDevice, exclude: &[BlockAddr]) -> Option<BlockAddr> {
        let mut best: Option<(BlockAddr, f64)> = None;
        for addr in device.gc_candidates() {
            if exclude.contains(&addr) {
                continue;
            }
            let block = device.block(addr).expect("candidate addresses are valid");
            debug_assert_eq!(block.state(), BlockState::Full);
            let mut score = block.invalid_pages() as f64;
            if block.area_tag() == Some(COLD_AREA_TAG) {
                score += self.cold_bonus;
            }
            match best {
                Some((best_addr, best_score))
                    if score < best_score || (score == best_score && addr > best_addr) => {}
                _ => best = Some((addr, score)),
            }
        }
        best.map(|(addr, _)| addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vflash_nand::{ChipId, NandConfig, NandDevice, PageId};

    fn device() -> NandDevice {
        NandDevice::new(
            NandConfig::builder()
                .chips(1)
                .blocks_per_chip(4)
                .pages_per_block(4)
                .page_size_bytes(4096)
                .build()
                .unwrap(),
        )
    }

    fn fill_block(device: &mut NandDevice, block: BlockAddr, invalid: usize) {
        for _ in 0..4 {
            device.program_next(block).unwrap();
        }
        for page in 0..invalid {
            device.invalidate(block.page(PageId(page))).unwrap();
        }
    }

    #[test]
    fn greedy_prefers_most_invalid_full_block() {
        let mut dev = device();
        let b0 = BlockAddr::new(ChipId(0), 0);
        let b1 = BlockAddr::new(ChipId(0), 1);
        let b2 = BlockAddr::new(ChipId(0), 2);
        fill_block(&mut dev, b0, 1);
        fill_block(&mut dev, b1, 3);
        fill_block(&mut dev, b2, 2);
        let policy = GreedyVictimPolicy::new();
        assert_eq!(policy.select_victim(&dev, &[]), Some(b1));
    }

    #[test]
    fn excluded_blocks_are_never_selected() {
        let mut dev = device();
        let b0 = BlockAddr::new(ChipId(0), 0);
        let b1 = BlockAddr::new(ChipId(0), 1);
        fill_block(&mut dev, b0, 4);
        fill_block(&mut dev, b1, 1);
        let policy = GreedyVictimPolicy::new();
        assert_eq!(policy.select_victim(&dev, &[b0]), Some(b1));
    }

    #[test]
    fn blocks_without_invalid_pages_are_ignored() {
        let mut dev = device();
        let b0 = BlockAddr::new(ChipId(0), 0);
        fill_block(&mut dev, b0, 0);
        let policy = GreedyVictimPolicy::new();
        assert_eq!(policy.select_victim(&dev, &[]), None);
    }

    #[test]
    fn open_blocks_are_not_victims() {
        let mut dev = device();
        let b0 = BlockAddr::new(ChipId(0), 0);
        dev.program_next(b0).unwrap();
        dev.invalidate(b0.page(PageId(0))).unwrap();
        let policy = GreedyVictimPolicy::new();
        assert_eq!(policy.select_victim(&dev, &[]), None);
    }

    #[test]
    fn cost_benefit_prefers_old_sparse_blocks_over_fresh_dense_ones() {
        let mut dev = device();
        let old_sparse = BlockAddr::new(ChipId(0), 0);
        let fresh_dense = BlockAddr::new(ChipId(0), 1);
        // The sparse block fills and invalidates first, then ages while the dense
        // block is churned: its (1-u)/2u factor AND its age both win.
        fill_block(&mut dev, old_sparse, 3); // u = 1/4
        fill_block(&mut dev, fresh_dense, 1); // u = 3/4, freshly modified
        let policy = CostBenefitVictimPolicy::new();
        assert_eq!(policy.select_victim(&dev, &[]), Some(old_sparse));
        // Greedy would agree here (more invalid pages) — the interesting case is
        // below, where age overrules a slightly better utilisation.
    }

    #[test]
    fn cost_benefit_lets_age_overrule_utilisation() {
        let mut dev = device();
        let aged = BlockAddr::new(ChipId(0), 0);
        let recent = BlockAddr::new(ChipId(0), 1);
        fill_block(&mut dev, aged, 2); // u = 1/2, modified early
        // Lots of churn elsewhere makes `aged` old.
        let churn = BlockAddr::new(ChipId(0), 2);
        fill_block(&mut dev, churn, 4);
        dev.erase(churn).unwrap();
        fill_block(&mut dev, churn, 4);
        dev.erase(churn).unwrap();
        fill_block(&mut dev, recent, 3); // u = 1/4: better ratio, but brand new
        let policy = CostBenefitVictimPolicy::new();
        // score(aged) = (1/2)/(2*1/2) * age_aged, score(recent) = (3/4)/(1/2) * ~1.
        // The churn ran age_aged far ahead, so the aged block wins despite keeping
        // twice the valid data.
        assert_eq!(policy.select_victim(&dev, &[]), Some(aged));
        // Plain greedy picks the other one.
        assert_eq!(GreedyVictimPolicy::new().select_victim(&dev, &[]), Some(recent));
    }

    #[test]
    fn cost_benefit_takes_copy_free_victims_first() {
        let mut dev = device();
        let partial = BlockAddr::new(ChipId(0), 0);
        let empty = BlockAddr::new(ChipId(0), 1);
        fill_block(&mut dev, partial, 3);
        fill_block(&mut dev, empty, 4); // fully invalid: infinite benefit/cost
        let policy = CostBenefitVictimPolicy::new();
        assert_eq!(policy.select_victim(&dev, &[]), Some(empty));
        assert_eq!(policy.select_victim(&dev, &[empty]), Some(partial));
    }

    #[test]
    fn cost_benefit_respects_exclusions_and_empty_devices() {
        let mut dev = device();
        let policy = CostBenefitVictimPolicy::new();
        assert_eq!(policy.select_victim(&dev, &[]), None);
        let b0 = BlockAddr::new(ChipId(0), 0);
        fill_block(&mut dev, b0, 1);
        assert_eq!(policy.select_victim(&dev, &[b0]), None);
    }

    #[test]
    fn hot_cold_policy_prefers_cold_tagged_victims_on_close_calls() {
        let mut dev = device();
        let hot = BlockAddr::new(ChipId(0), 0);
        let cold = BlockAddr::new(ChipId(0), 1);
        dev.set_block_area_tag(hot, Some(HOT_AREA_TAG)).unwrap();
        dev.set_block_area_tag(cold, Some(COLD_AREA_TAG)).unwrap();
        fill_block(&mut dev, hot, 3); // 3 invalid, hot-tagged: score 3
        fill_block(&mut dev, cold, 2); // 2 invalid, cold-tagged: score 2 + 2 = 4
        let policy = HotColdVictimPolicy::default();
        assert_eq!(policy.select_victim(&dev, &[]), Some(cold));
        // Greedy would have taken the hot block.
        assert_eq!(GreedyVictimPolicy::new().select_victim(&dev, &[]), Some(hot));
        // A decisively better hot victim overcomes the bonus: 4 invalid beats 1 + 2.
        let mut dev = device();
        let hot = BlockAddr::new(ChipId(0), 0);
        let cold = BlockAddr::new(ChipId(0), 1);
        dev.set_block_area_tag(hot, Some(HOT_AREA_TAG)).unwrap();
        dev.set_block_area_tag(cold, Some(COLD_AREA_TAG)).unwrap();
        fill_block(&mut dev, hot, 4);
        fill_block(&mut dev, cold, 1);
        assert_eq!(policy.select_victim(&dev, &[]), Some(hot));
    }

    #[test]
    fn hot_cold_policy_degenerates_to_greedy_without_tags() {
        let mut dev = device();
        let b0 = BlockAddr::new(ChipId(0), 0);
        let b1 = BlockAddr::new(ChipId(0), 1);
        fill_block(&mut dev, b0, 1);
        fill_block(&mut dev, b1, 3);
        let policy = HotColdVictimPolicy::default();
        let greedy = GreedyVictimPolicy::new();
        assert_eq!(policy.select_victim(&dev, &[]), greedy.select_victim(&dev, &[]));
        assert_eq!(policy.select_victim(&dev, &[b1]), greedy.select_victim(&dev, &[b1]));
        assert_eq!(policy.select_victim(&dev, &[b0, b1]), None);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn hot_cold_policy_rejects_negative_bonus() {
        let _ = HotColdVictimPolicy::new(-0.5);
    }

    #[test]
    fn outcome_merging_accumulates() {
        let mut a = GcOutcome { erased_blocks: 1, copied_pages: 3, time: Nanos::from_millis(4) };
        let b = GcOutcome { erased_blocks: 2, copied_pages: 0, time: Nanos::from_millis(8) };
        a.merge(b);
        assert_eq!(a.erased_blocks, 3);
        assert_eq!(a.copied_pages, 3);
        assert_eq!(a.time, Nanos::from_millis(12));
    }
}
