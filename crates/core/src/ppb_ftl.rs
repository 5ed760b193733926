//! The PPB flash translation layer: the hotness-aware [`Placement`] on the shared
//! [`FtlCore`].

use vflash_ftl::hotcold::{HotColdClassifier, SizeCheck, Temperature};
use vflash_ftl::{Assemble, FtlConfig, FtlCore, FtlError, Lpn, MappingTable, Placement};
use vflash_nand::{BlockAddr, NandConfig, NandDevice, PageAddr};

use crate::cold_area::ColdArea;
use crate::config::PpbConfig;
use crate::hot_area::{HotArea, PromotionOutcome};
use crate::hotness::{Area, Hotness};
use crate::placement::AreaWriter;
use crate::virtual_block::VirtualBlockTable;

/// The paper's FTL: conventional page mapping plus the Progressive Performance
/// Boosting strategy.
///
/// On every host write the first-stage classifier (`C`, the request-size check by
/// default) decides hot vs cold; the hot/cold areas refine the decision into the four
/// hotness levels based on observed re-reads; and the [`AreaWriter`]s place the data
/// on a virtual block of suitable speed — always respecting the rule that a physical
/// block belongs to exactly one area. Promotions and demotions never move data by
/// themselves: relocation happens when the data is next rewritten or garbage
/// collected, which is why write latency and erase counts stay at the level of the
/// conventional FTL. Everything else — mapping, garbage collection, fault handling —
/// is the [`FtlCore`] it shares with the baseline.
///
/// # Example
///
/// ```
/// use vflash_ftl::hotcold::TwoLevelLru;
/// use vflash_ftl::{FlashTranslationLayer, Lpn};
/// use vflash_nand::{NandConfig, NandDevice};
/// use vflash_ppb::{Hotness, PpbConfig, PpbFtl};
///
/// # fn main() -> Result<(), vflash_ftl::FtlError> {
/// // Default first stage (size check); the strategy's state is `placement()`:
/// let mut ftl = PpbFtl::new(NandDevice::new(NandConfig::small()), PpbConfig::default())?;
/// ftl.write(Lpn(1), 512)?;
/// assert_eq!((ftl.name(), ftl.placement().hotness_of(Lpn(1))), ("ppb", Hotness::Hot));
///
/// // Any other classifier plugs in unchanged, paired with the configuration:
/// let lru = TwoLevelLru::new(512, 512);
/// let _ftl = PpbFtl::new(NandDevice::new(NandConfig::small()), (PpbConfig::default(), lru))?;
/// # Ok(())
/// # }
/// ```
pub type PpbFtl<C = SizeCheck> = FtlCore<PpbPlacement<C>>;

/// Hotness-aware placement: classifier, hot/cold areas, one [`AreaWriter`] per area and
/// the block → area table. A page's stream is the [`Hotness`] level it is written at.
#[derive(Debug)]
pub struct PpbPlacement<C = SizeCheck> {
    config: PpbConfig,
    virtual_blocks: VirtualBlockTable,
    hot_writer: AreaWriter,
    cold_writer: AreaWriter,
    hot_area: HotArea,
    cold_area: ColdArea,
    classifier: C,
    /// Which area each physical block currently belongs to (by flat block index).
    /// `None` means the block is free or has never been written since its last erase.
    block_areas: Vec<Option<Area>>,
    blocks_per_chip: usize,
}

/// The paper's case-study first stage: the request-size check with the flash page
/// size as threshold.
impl Assemble<PpbConfig> for PpbPlacement<SizeCheck> {
    fn assemble(config: PpbConfig, nand: &NandConfig) -> Result<(FtlConfig, Self), FtlError> {
        let classifier = SizeCheck::new(nand.page_size_bytes() as u32);
        Self::assemble((config, classifier), nand)
    }
}

/// An explicit first-stage hot/cold classifier.
impl<C: HotColdClassifier> Assemble<(PpbConfig, C)> for PpbPlacement<C> {
    fn assemble(
        (config, classifier): (PpbConfig, C),
        nand: &NandConfig,
    ) -> Result<(FtlConfig, Self), FtlError> {
        config.validate()?;
        if config.virtual_blocks_per_block > nand.pages_per_block() {
            return Err(FtlError::InvalidConfig {
                reason: "virtual_blocks_per_block exceeds pages_per_block".to_string(),
            });
        }
        let logical_pages = config.ftl.logical_pages(nand.total_pages());
        let virtual_blocks = VirtualBlockTable::new(nand, config.virtual_blocks_per_block);
        let placement = PpbPlacement {
            hot_writer: AreaWriter::new("hot", &virtual_blocks, config.max_open_blocks_per_area),
            cold_writer: AreaWriter::new("cold", &virtual_blocks, config.max_open_blocks_per_area),
            hot_area: HotArea::new(
                logical_pages,
                config.hot_list_capacity(logical_pages),
                config.iron_hot_list_capacity(logical_pages),
            ),
            cold_area: ColdArea::new(
                logical_pages,
                config.cold_table_capacity(logical_pages),
                config.cold_promote_reads,
            ),
            config,
            virtual_blocks,
            classifier,
            block_areas: vec![None; nand.total_blocks()],
            blocks_per_chip: nand.blocks_per_chip(),
        };
        Ok((config.ftl, placement))
    }
}

impl<C> PpbPlacement<C> {
    /// The PPB configuration.
    pub fn config(&self) -> &PpbConfig {
        &self.config
    }

    /// The virtual-block geometry helper.
    pub fn virtual_blocks(&self) -> &VirtualBlockTable {
        &self.virtual_blocks
    }

    /// The current hotness level the strategy assigns to `lpn`. LPNs never seen by
    /// either area default to icy-cold, matching the paper's treatment of
    /// write-once-read-few data.
    pub fn hotness_of(&self, lpn: Lpn) -> Hotness {
        self.hot_area
            .level_of(lpn)
            .or_else(|| self.cold_area.level_of(lpn))
            .unwrap_or(Hotness::IcyCold)
    }

    /// The data area `block` is currently dedicated to, or `None` if the block has
    /// not been written since its last erase. A physical block never holds data from
    /// both areas at once — that is the core garbage-collection-preserving invariant
    /// of the virtual-block design.
    pub fn block_area(&self, block: BlockAddr) -> Option<Area> {
        self.block_areas[block.flat_index(self.blocks_per_chip)]
    }
}

impl<C: HotColdClassifier> Placement for PpbPlacement<C> {
    type Stream = Hotness;

    const NAME: &'static str = "ppb";
    /// A hot and a cold write stream.
    const RESERVED_BLOCKS: usize = 2;

    /// Updates the area bookkeeping for a write; returns the level to place it at.
    #[inline]
    fn host_write(&mut self, lpn: Lpn, request_bytes: u32) -> Hotness {
        match self.classifier.classify_write(lpn, request_bytes) {
            Temperature::Hot => {
                self.cold_area.remove(lpn);
                if let Some(evicted) = self.hot_area.on_write(lpn) {
                    // "Demote if full": the evicted entry leaves the hot area but was
                    // recently hot, so it enters the cold area at the cold level.
                    self.cold_area.insert_demoted(evicted);
                }
                self.hot_area.level_of(lpn).expect("hot write keeps the LPN tracked")
            }
            Temperature::Cold => {
                // A cold-classified write of a previously hot LPN demotes it: large
                // rewrites signal the data stopped behaving like metadata.
                self.hot_area.remove(lpn);
                // A rewrite resets the read history, so the entry always lands at
                // icy-cold — no need to re-probe either area.
                self.cold_area.on_write(lpn);
                Hotness::IcyCold
            }
        }
    }

    /// Re-access tracking: a read is the signal that promotes hot -> iron-hot and
    /// icy-cold -> cold. The data itself is not moved here (progressive migration).
    fn host_read(&mut self, lpn: Lpn) {
        self.classifier.record_read(lpn);
        if self.hot_area.on_read(lpn) == PromotionOutcome::NotTracked {
            self.cold_area.on_read(lpn);
        }
    }

    /// Progressive migration: a relocated page is rewritten at its **current** level, so
    /// data promoted or demoted since it was written lands on a page of suitable speed.
    fn relocation_stream(&self, lpn: Lpn, _rescued_from: Option<Hotness>) -> Hotness {
        self.hotness_of(lpn)
    }

    #[inline]
    fn target(&mut self, level: Hotness, device: &mut NandDevice) -> Result<BlockAddr, FtlError> {
        let fastest = self.virtual_blocks.per_block() - 1;
        let desired = if level.prefers_fast_pages() { fastest } else { 0 };
        let area = level.area();
        let block = match area {
            Area::Hot => self.hot_writer.target(desired, device)?,
            Area::Cold => self.cold_writer.target(desired, device)?,
        };
        // The first data in a block since its erase claims it for the area.
        let owner = *self.block_areas[block.flat_index(self.blocks_per_chip)].get_or_insert(area);
        debug_assert_eq!(owner, area, "block {block} received {level} data");
        Ok(block)
    }

    fn programmed(&mut self, level: Hotness, block: BlockAddr, device: &NandDevice) {
        match level.area() {
            Area::Hot => self.hot_writer.after_program(block, device, &self.virtual_blocks),
            Area::Cold => self.cold_writer.after_program(block, device, &self.virtual_blocks),
        }
    }

    fn retired(&mut self, _level: Hotness, block: BlockAddr) {
        self.hot_writer.evict(block);
        self.cold_writer.evict(block);
    }

    /// The erase dissolves the area claim; a failed erase leaves it on the dead block.
    fn erased(&mut self, block: BlockAddr) {
        self.block_areas[block.flat_index(self.blocks_per_chip)] = None;
    }

    fn open_blocks(&self, open: &mut Vec<BlockAddr>) {
        open.extend(self.hot_writer.open_blocks().chain(self.cold_writer.open_blocks()));
    }

    /// Both areas stripe: bulk table builds land in the cold area, WAL appends in the
    /// hot area, and either benefits from rotating programs across chips under batching.
    fn set_write_stripe(&mut self, lanes: usize) {
        self.hot_writer.set_stripe(lanes);
        self.cold_writer.set_stripe(lanes);
    }

    /// A copy that changed speed class.
    fn migrated(&self, source: PageAddr, destination: PageAddr) -> bool {
        self.virtual_blocks.class_of_page(source.page())
            != self.virtual_blocks.class_of_page(destination.page())
    }

    /// Every block with resident data has an owner, and every LPN tracked as hot
    /// lives in a hot-area block: a hot classification always rewrites into the hot
    /// area (a demotion moves nothing, so the converse does not hold). Except for the
    /// write that hit end of life — it was classified, then failed — so a read-only
    /// FTL skips that last check.
    fn check_invariants(
        &self,
        device: &NandDevice,
        mapping: &MappingTable,
        read_only: bool,
    ) -> Result<(), String> {
        for block in device.block_addrs() {
            let owner = self.block_area(block);
            for (_, lpn) in mapping.lpns_in_block(block) {
                let Some(owner) = owner else {
                    return Err(format!("{block} holds {lpn} but belongs to no area"));
                };
                if !read_only && owner != Area::Hot && self.hotness_of(lpn).area() == Area::Hot {
                    return Err(format!("hot {lpn} resides in a {owner} block {block}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vflash_ftl::{FlashTranslationLayer, IoRequest};
    use vflash_nand::Nanos;

    fn device(blocks: usize, pages: usize) -> NandDevice {
        NandDevice::new(
            NandConfig::builder()
                .chips(1)
                .blocks_per_chip(blocks)
                .pages_per_block(pages)
                .page_size_bytes(4096)
                .speed_ratio(4.0)
                .build()
                .unwrap(),
        )
    }

    fn small_ftl() -> PpbFtl {
        let config = PpbConfig {
            ftl: vflash_ftl::FtlConfig { over_provisioning: 0.25, ..Default::default() },
            ..PpbConfig::default()
        };
        PpbFtl::new(device(24, 8), config).unwrap()
    }

    #[test]
    fn small_writes_are_hot_large_writes_are_cold() {
        let mut ftl = small_ftl();
        ftl.write(Lpn(1), 512).unwrap();
        ftl.write(Lpn(2), 64 * 1024).unwrap();
        assert_eq!(ftl.placement().hotness_of(Lpn(1)), Hotness::Hot);
        assert_eq!(ftl.placement().hotness_of(Lpn(2)), Hotness::IcyCold);
    }

    #[test]
    fn reads_promote_within_each_area() {
        let mut ftl = small_ftl();
        ftl.write(Lpn(1), 512).unwrap();
        ftl.write(Lpn(2), 64 * 1024).unwrap();
        ftl.read(Lpn(1)).unwrap();
        ftl.read(Lpn(2)).unwrap();
        assert_eq!(ftl.placement().hotness_of(Lpn(1)), Hotness::IronHot);
        assert_eq!(ftl.placement().hotness_of(Lpn(2)), Hotness::Cold);
    }

    #[test]
    fn untouched_lpns_default_to_icy_cold() {
        let ftl = small_ftl();
        assert_eq!(ftl.placement().hotness_of(Lpn(40)), Hotness::IcyCold);
    }

    #[test]
    fn promoted_data_moves_to_fast_pages_on_rewrite() {
        let mut ftl = small_ftl();
        // Establish iron-hot status with several hot writes + a read.
        ftl.write(Lpn(1), 512).unwrap();
        ftl.read(Lpn(1)).unwrap();
        // Fill the slow half of the hot block with other hot data so the next
        // iron-hot write can actually target the fast half.
        for lpn in 10..14 {
            ftl.write(Lpn(lpn), 512).unwrap();
        }
        ftl.write(Lpn(1), 512).unwrap();
        let location = ftl.mapping().lookup(Lpn(1)).unwrap();
        let class = ftl.placement().virtual_blocks().class_of_page(location.page());
        assert!(!class.is_slowest(), "iron-hot rewrite should land on the fast half");
    }

    #[test]
    fn hot_and_cold_data_never_share_a_physical_block() {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        // Interleave hot (small) and cold (large) writes across the logical space.
        for i in 0..(logical * 3) {
            let lpn = Lpn(i % logical);
            if i.is_multiple_of(2) {
                ftl.write(lpn, 512).unwrap();
            } else {
                ftl.write(lpn, 128 * 1024).unwrap();
            }
        }
        // Every block with resident data is owned by exactly one area, and every LPN
        // the strategy still tracks as hot lives in a hot-area block.
        ftl.check_invariants().unwrap();
        let owned = ftl.device().block_addrs().filter_map(|block| ftl.placement().block_area(block));
        let owned: std::collections::HashSet<Area> = owned.collect();
        assert_eq!(owned.len(), 2, "the workload must populate both areas");
    }

    #[test]
    fn gc_relocates_survivors_according_to_current_hotness() {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        // Fill the whole logical space, then read a prefix so it is promoted to cold
        // (write-once-read-many), then churn the rest in a scrambled order so garbage
        // collection has to copy surviving valid pages.
        for i in 0..logical {
            ftl.write(Lpn(i), 128 * 1024).unwrap();
        }
        for _ in 0..2 {
            for i in 0..16 {
                ftl.read(Lpn(i)).unwrap();
            }
        }
        let churn = logical - 16;
        let stride = 37; // coprime with the churn range, scrambles block residency
        for round in 0..(churn * 8) {
            let lpn = Lpn(16 + (round * stride) % churn);
            ftl.write(lpn, 128 * 1024).unwrap();
        }
        let metrics = ftl.metrics();
        assert!(metrics.gc_copied_pages > 0, "workload never forced GC to copy valid pages");
        assert!(
            metrics.migrated_pages > 0,
            "GC never migrated data across speed classes (copied {}, erased {})",
            metrics.gc_copied_pages,
            metrics.gc_erased_blocks
        );
    }

    #[test]
    fn read_latency_beats_conventional_when_read_hot_and_write_only_data_mix() {
        use vflash_ftl::{ConventionalFtl, FtlConfig};

        // Same device geometry and workload for both FTLs.
        let make_device = || device(32, 16);
        let mut conventional =
            ConventionalFtl::new(make_device(), FtlConfig { over_provisioning: 0.25, ..Default::default() })
                .unwrap();
        let mut ppb = PpbFtl::new(
            make_device(),
            PpbConfig {
                ftl: FtlConfig { over_provisioning: 0.25, ..Default::default() },
                ..PpbConfig::default()
            },
        )
        .unwrap();

        let logical = conventional.logical_pages().min(ppb.logical_pages());
        let read_hot = 16u64; // metadata-like: frequently written *and* read
        let write_only = 16u64; // cache-like: frequently written, never read
        let run = |ftl: &mut dyn FlashTranslationLayer| {
            // Fill the space cold, then drive a mix of iron-hot and hot traffic.
            for i in 0..logical {
                ftl.write(Lpn(i), 256 * 1024).unwrap();
            }
            for round in 0..(logical * 4) {
                let cache = Lpn(100 + round % write_only);
                ftl.write(cache, 512).unwrap();
                let metadata = Lpn(round % read_hot);
                ftl.write(metadata, 512).unwrap();
                ftl.read(metadata).unwrap();
                ftl.read(metadata).unwrap();
            }
            ftl.metrics().host_read_time
        };
        let conventional_time = run(&mut conventional);
        let ppb_time = run(&mut ppb);
        assert!(
            ppb_time < conventional_time,
            "PPB read time {ppb_time} should beat conventional {conventional_time}"
        );
    }

    #[test]
    fn submit_traces_ops_and_sums_to_the_charged_latency() {
        let mut ftl = small_ftl();
        ftl.device_mut().set_op_tracing(true);
        let logical = ftl.logical_pages();
        let mut gc_seen = false;
        for i in 0..(logical * 8) {
            let lpn = Lpn(i % logical);
            let size = if lpn.0.is_multiple_of(3) { 512 } else { 32 * 1024 };
            ftl.device_mut().clear_ops();
            let write = ftl.submit(IoRequest::write(lpn, size)).unwrap();
            let ops_total: Nanos =
                ftl.device().ops(write.ops).iter().map(|op| op.latency).sum();
            assert_eq!(ops_total, write.latency);
            gc_seen |= write.gc.erased_blocks > 0;
            if i % 5 == 0 {
                let read = ftl.submit(IoRequest::read(lpn)).unwrap();
                assert_eq!(read.ops.len(), 1);
                assert_eq!(ftl.device().ops(read.ops)[0].latency, read.latency);
            }
        }
        assert!(gc_seen, "workload never triggered GC");
    }

    #[test]
    fn area_claims_hold_through_garbage_collection() {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        for i in 0..(logical * 6) {
            let lpn = Lpn(i % logical);
            ftl.write(lpn, if i % 2 == 0 { 512 } else { 64 * 1024 }).unwrap();
        }
        assert!(ftl.metrics().gc_erased_blocks > 0, "workload never exercised GC");
        ftl.check_invariants().unwrap();
        let claimed =
            ftl.device().block_addrs().filter(|&block| ftl.placement().block_area(block).is_some());
        assert!(claimed.count() > 0, "no block ended up claimed");
    }

    #[test]
    fn tiny_devices_are_rejected() {
        let tiny = device(4, 4);
        assert!(matches!(
            PpbFtl::new(tiny, PpbConfig::default()),
            Err(FtlError::InvalidConfig { .. })
        ));
    }
}
