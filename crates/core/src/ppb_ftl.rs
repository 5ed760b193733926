//! The PPB flash translation layer.

use std::collections::HashSet;

use vflash_ftl::hotcold::{HotColdClassifier, SizeCheck, Temperature};
use vflash_ftl::{
    Completion, FlashTranslationLayer, FtlError, FtlMetrics, GcOutcome, GreedyVictimPolicy,
    IoCommand, IoRequest, Lpn, MappingTable, VictimPolicy,
};
use vflash_nand::{BlockAddr, NandDevice, NandError, Nanos, PageAddr};

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
/// conventional FTL.
///
/// # Example
///
/// ```
/// use vflash_ftl::hotcold::TwoLevelLru;
/// use vflash_ftl::{FlashTranslationLayer, Lpn};
/// use vflash_nand::{NandConfig, NandDevice};
/// use vflash_ppb::{PpbConfig, PpbFtl};
///
/// # fn main() -> Result<(), vflash_ftl::FtlError> {
/// // Default first stage (size check):
/// let ftl = PpbFtl::new(NandDevice::new(NandConfig::small()), PpbConfig::default())?;
/// assert_eq!(ftl.name(), "ppb");
///
/// // Any other classifier plugs in unchanged:
/// let lru = TwoLevelLru::new(512, 512);
/// let _ftl = PpbFtl::with_classifier(
///     NandDevice::new(NandConfig::small()),
///     PpbConfig::default(),
///     lru,
/// )?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PpbFtl<C = SizeCheck> {
    device: NandDevice,
    config: PpbConfig,
    mapping: MappingTable,
    virtual_blocks: VirtualBlockTable,
    hot_writer: AreaWriter,
    cold_writer: AreaWriter,
    hot_area: HotArea,
    cold_area: ColdArea,
    classifier: C,
    victim_policy: Box<dyn VictimPolicy>,
    metrics: FtlMetrics,
    logical_pages: u64,
    read_only: bool,
    /// Which area each physical block currently belongs to (by flat block index).
    /// `None` means the block is free or has never been written since its last erase.
    block_areas: Vec<Option<Area>>,
    /// LPNs whose data was lost to an uncorrectable relocation read. A host read
    /// of a lost LPN completes instantly with the `uncorrectable` flag (the
    /// device no longer holds the data); a successful rewrite clears the entry.
    lost: HashSet<Lpn>,
    /// Scratch reused across GC rounds so steady-state collection allocates nothing:
    /// the victim-selection exclusion list and the residents of the block emptied.
    exclude: Vec<BlockAddr>,
    residents: Vec<(PageAddr, Lpn)>,
}

impl PpbFtl<SizeCheck> {
    /// Builds the PPB FTL with the paper's case-study first stage: the request-size
    /// check with the flash page size as threshold.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::InvalidConfig`] for inconsistent configurations.
    pub fn new(device: NandDevice, config: PpbConfig) -> Result<Self, FtlError> {
        let page_size = device.config().page_size_bytes() as u32;
        PpbFtl::with_classifier(device, config, SizeCheck::new(page_size))
    }
}

impl<C: HotColdClassifier> PpbFtl<C> {
    /// Builds the PPB FTL with an explicit first-stage hot/cold classifier.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::InvalidConfig`] for inconsistent configurations.
    pub fn with_classifier(
        device: NandDevice,
        config: PpbConfig,
        classifier: C,
    ) -> Result<Self, FtlError> {
        config.validate()?;
        let nand = device.config();
        let logical_pages = config.ftl.logical_pages(nand.total_pages());
        if logical_pages == 0 {
            return Err(FtlError::InvalidConfig {
                reason: "over-provisioning leaves zero logical pages".to_string(),
            });
        }
        if nand.total_blocks() <= config.ftl.gc_target_free_blocks + 2 {
            return Err(FtlError::InvalidConfig {
                reason: format!(
                    "device has only {} blocks; the PPB strategy needs room for a hot and a cold write stream plus {} free GC blocks",
                    nand.total_blocks(),
                    config.ftl.gc_target_free_blocks
                ),
            });
        }
        if config.virtual_blocks_per_block > nand.pages_per_block() {
            return Err(FtlError::InvalidConfig {
                reason: "virtual_blocks_per_block exceeds pages_per_block".to_string(),
            });
        }
        let mapping = MappingTable::new(
            logical_pages,
            nand.chips(),
            nand.blocks_per_chip(),
            nand.pages_per_block(),
        );
        let virtual_blocks = VirtualBlockTable::new(nand, config.virtual_blocks_per_block);
        let hot_writer =
            AreaWriter::new("hot", &virtual_blocks, config.max_open_blocks_per_area);
        let cold_writer =
            AreaWriter::new("cold", &virtual_blocks, config.max_open_blocks_per_area);
        let hot_area = HotArea::new(
            logical_pages,
            config.hot_list_capacity(logical_pages),
            config.iron_hot_list_capacity(logical_pages),
        );
        let cold_area = ColdArea::new(
            logical_pages,
            config.cold_table_capacity(logical_pages),
            config.cold_promote_reads,
        );
        let block_areas = vec![None; nand.total_blocks()];
        Ok(PpbFtl {
            device,
            config,
            mapping,
            virtual_blocks,
            hot_writer,
            cold_writer,
            hot_area,
            cold_area,
            classifier,
            victim_policy: Box::new(GreedyVictimPolicy::new()),
            metrics: FtlMetrics::new(),
            logical_pages,
            read_only: false,
            block_areas,
            lost: HashSet::new(),
            exclude: Vec::new(),
            residents: Vec::new(),
        })
    }

    /// The PPB configuration.
    pub fn config(&self) -> &PpbConfig {
        &self.config
    }

    /// Replaces the garbage-collection victim policy (greedy by default). Used by
    /// the Figure 18 policy ablation to compare greedy, wear-aware and
    /// cost-benefit selection on identical workloads.
    pub fn set_victim_policy(&mut self, policy: Box<dyn VictimPolicy>) {
        self.victim_policy = policy;
    }

    /// The mapping table, for inspection in tests and tools.
    pub fn mapping(&self) -> &MappingTable {
        &self.mapping
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

    /// Number of free blocks currently available for allocation. O(chips): the
    /// device tracks the count, no block scan happens.
    pub fn free_blocks(&self) -> usize {
        self.device.available_blocks()
    }

    /// The data area `block` is currently dedicated to, or `None` if the block has
    /// not been written since its last erase. A physical block never holds data from
    /// both areas at once — that is the core garbage-collection-preserving invariant
    /// of the virtual-block design.
    pub fn block_area(&self, block: BlockAddr) -> Option<Area> {
        self.block_areas[block.flat_index(self.device.config().blocks_per_chip())]
    }

    fn check_range(&self, lpn: Lpn) -> Result<(), FtlError> {
        if lpn.0 >= self.logical_pages {
            Err(FtlError::LpnOutOfRange { lpn, logical_pages: self.logical_pages })
        } else {
            Ok(())
        }
    }

    /// Updates the area bookkeeping for a write and returns the level the data should
    /// be placed at.
    fn classify_and_track_write(&mut self, lpn: Lpn, request_bytes: u32) -> Hotness {
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

    /// Converts an allocation failure into the right terminal error: when bad-block
    /// growth has eaten the spare capacity, the FTL transitions (stickily) to
    /// read-only mode instead of reporting a capacity bug.
    fn out_of_space(&mut self) -> FtlError {
        if self.device.bad_block_count() > 0 {
            self.read_only = true;
            self.metrics.record_read_only(self.device.makespan());
            FtlError::ReadOnly
        } else {
            FtlError::OutOfSpace
        }
    }

    /// Writes `lpn` at hotness `level`, returning the device time charged.
    ///
    /// An injected program failure retires the target block; the writer evicts it,
    /// its surviving valid pages are rescued (each at its *current* hotness level)
    /// and the write re-drives into a fresh block, with the rescue time charged to
    /// the returned latency.
    fn place_page(&mut self, lpn: Lpn, level: Hotness) -> Result<Nanos, FtlError> {
        let mut time = Nanos::ZERO;
        loop {
            let fastest = self.virtual_blocks.per_block() - 1;
            let desired = if level.prefers_fast_pages() { fastest } else { 0 };
            let targeted = match level.area() {
                Area::Hot => self.hot_writer.target(desired, &mut self.device),
                Area::Cold => self.cold_writer.target(desired, &mut self.device),
            };
            let block = match targeted {
                Ok(block) => block,
                Err(FtlError::OutOfSpace) => return Err(self.out_of_space()),
                Err(err) => return Err(err),
            };
            let flat = block.flat_index(self.device.config().blocks_per_chip());
            if self.block_areas[flat].is_none() {
                // First data in this block since its erase: claim it for the area and
                // mirror the claim onto the device as a block tag, so hotness-aware
                // victim policies (which only see the device) can tell areas apart.
                self.block_areas[flat] = Some(level.area());
                self.device
                    .set_block_area_tag(block, Some(level.area().tag()))
                    .expect("write target addresses are valid");
            }
            let owner = self.block_areas[flat].expect("just claimed above");
            debug_assert_eq!(
                owner,
                level.area(),
                "block {block} owned by {owner} received {level} data"
            );
            match self.device.program_next(block) {
                Ok((page, program)) => {
                    let writer = match level.area() {
                        Area::Hot => &mut self.hot_writer,
                        Area::Cold => &mut self.cold_writer,
                    };
                    writer.after_program(block, &self.device, &self.virtual_blocks);
                    if let Some(previous) = self.mapping.map(lpn, block.page(page)) {
                        self.device.invalidate(previous)?;
                    }
                    return Ok(time + program);
                }
                Err(NandError::ProgramFailed { .. }) => {
                    // The device retired `block`. Evict it from its writer, move
                    // its surviving valid pages to safety and try again.
                    self.metrics.record_bad_block();
                    self.hot_writer.evict(block);
                    self.cold_writer.evict(block);
                    time += self.rescue_block(block)?;
                    self.metrics.record_remap();
                }
                Err(err) => return Err(err.into()),
            }
        }
    }

    /// Relocates every surviving valid page out of `bad` (a freshly retired block),
    /// each at its current hotness level. Pages whose relocation read is
    /// uncorrectable are dropped from the mapping and remembered as lost — the
    /// host's next read of the LPN completes with the `uncorrectable` flag.
    /// Returns the time charged.
    fn rescue_block(&mut self, bad: BlockAddr) -> Result<Nanos, FtlError> {
        let mut time = Nanos::ZERO;
        // Taken, not borrowed: a rescue nested in a relocation grows its own.
        let mut residents = std::mem::take(&mut self.residents);
        self.mapping.residents_into(bad, &mut residents);
        for &(source, lpn) in &residents {
            match self.relocation_read(source, lpn)? {
                Some(read) => time += read,
                None => {
                    time += self.device.last_read_faults().total_time;
                    continue;
                }
            }
            let level = self.hotness_of(lpn);
            // place_page remaps the LPN and invalidates its previous location,
            // which is exactly the source page being rescued.
            time += self.place_page(lpn, level)?;
            self.metrics.record_rescue(1);
        }
        self.residents = residents;
        Ok(time)
    }

    /// Reads `source` on behalf of a relocation (GC or bad-block rescue). Returns
    /// `Ok(Some(latency))` on success; on an uncorrectable read the data is lost,
    /// so the LPN is unmapped and remembered as lost, the page invalidated and
    /// `Ok(None)` returned (the caller charges
    /// [`NandDevice::last_read_faults`]'s total time).
    fn relocation_read(&mut self, source: PageAddr, lpn: Lpn) -> Result<Option<Nanos>, FtlError> {
        let outcome = self.device.read(source);
        let faults = self.device.last_read_faults();
        self.metrics.record_read_retries(faults.retries, faults.retry_time);
        match outcome {
            Ok(latency) => Ok(Some(latency)),
            Err(NandError::UncorrectableRead { .. }) => {
                self.metrics.record_uncorrectable_read();
                self.mapping.unmap(lpn);
                self.lost.insert(lpn);
                self.device.invalidate(source)?;
                Ok(None)
            }
            Err(err) => Err(err.into()),
        }
    }

    /// Reclaims blocks until the free pool reaches the configured target.
    ///
    /// Relocation is where the *progressive* movement happens: each surviving page is
    /// rewritten according to its **current** hotness level, so data promoted or
    /// demoted since it was written finally lands on a page of suitable speed — at
    /// zero extra cost, because the page had to be copied anyway.
    fn collect_garbage(&mut self) -> Result<GcOutcome, FtlError> {
        let mut outcome = GcOutcome::default();
        while self.device.available_blocks() < self.config.ftl.gc_target_free_blocks {
            self.exclude.clear();
            self.exclude.extend(self.hot_writer.open_blocks().chain(self.cold_writer.open_blocks()));
            let Some(victim) = self.victim_policy.select_victim(&self.device, &self.exclude) else {
                break;
            };
            outcome.merge(self.reclaim_block(victim)?);
        }
        Ok(outcome)
    }

    fn reclaim_block(&mut self, victim: BlockAddr) -> Result<GcOutcome, FtlError> {
        let mut outcome = GcOutcome::default();
        let mut residents = std::mem::take(&mut self.residents);
        self.mapping.residents_into(victim, &mut residents);
        let mut migrated = 0u64;
        for &(source, lpn) in &residents {
            match self.relocation_read(source, lpn)? {
                Some(read) => outcome.time += read,
                None => {
                    outcome.time += self.device.last_read_faults().total_time;
                    continue;
                }
            }
            let level = self.hotness_of(lpn);
            let source_class = self.virtual_blocks.class_of_page(source.page()).0;
            // place_page remaps the LPN and invalidates its previous location, which
            // is exactly the source page being relocated.
            outcome.time += self.place_page(lpn, level)?;
            outcome.copied_pages += 1;
            let destination = self.mapping.lookup(lpn).expect("page was just mapped");
            let destination_class = self.virtual_blocks.class_of_page(destination.page()).0;
            if destination_class != source_class {
                migrated += 1;
            }
        }
        self.residents = residents;
        // The erase returns the victim to the device's free pool. A failed erase
        // is instantaneous (the device charges no time) and retires the victim;
        // its valid data is already safe, so GC simply moves on without counting
        // an erase, leaving the area claim on the dead block.
        match self.device.erase(victim) {
            Ok(erase) => {
                outcome.time += erase;
                outcome.erased_blocks += 1;
                self.block_areas[victim.flat_index(self.device.config().blocks_per_chip())] =
                    None;
            }
            Err(NandError::EraseFailed { .. }) => self.metrics.record_bad_block(),
            Err(err) => return Err(err.into()),
        }
        self.metrics.record_migration(migrated);
        Ok(outcome)
    }
}

impl<C: HotColdClassifier> FlashTranslationLayer for PpbFtl<C> {
    fn name(&self) -> &str {
        "ppb"
    }

    fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    fn submit(&mut self, request: IoRequest) -> Result<Completion, FtlError> {
        let lpn = request.lpn;
        self.check_range(lpn)?;
        // Everything recorded into the op arena from here on is this request's.
        let mark = self.device.op_mark();
        match request.command {
            IoCommand::Read => {
                let Some(addr) = self.mapping.lookup(lpn) else {
                    if self.lost.contains(&lpn) {
                        // The data fell to an uncorrectable relocation read and is
                        // gone from the media: the read completes instantly (no
                        // device work) with the data-lost flag. No re-access
                        // tracking either — a lost read is no re-use signal.
                        self.metrics.record_uncorrectable_read();
                        self.metrics.record_host_read(Nanos::ZERO);
                        return Ok(Completion {
                            latency: Nanos::ZERO,
                            ops: self.device.ops_since(mark),
                            gc: GcOutcome::default(),
                            read_retries: 0,
                            uncorrectable: true,
                        });
                    }
                    return Err(FtlError::UnmappedRead { lpn });
                };
                // An uncorrectable read still completes towards the host — the
                // full retry-ladder latency was spent — but the data is lost.
                let (latency, uncorrectable) = match self.device.read(addr) {
                    Ok(latency) => (latency, false),
                    Err(NandError::UncorrectableRead { .. }) => {
                        (self.device.last_read_faults().total_time, true)
                    }
                    Err(err) => return Err(err.into()),
                };
                let faults = self.device.last_read_faults();
                self.metrics.record_read_retries(faults.retries, faults.retry_time);
                if uncorrectable {
                    self.metrics.record_uncorrectable_read();
                }
                self.metrics.record_host_read(latency);

                if !uncorrectable {
                    // Re-access tracking: a read is the signal that promotes hot ->
                    // iron-hot and icy-cold -> cold. The data itself is not moved
                    // here (progressive migration). A lost read is no re-use signal.
                    self.classifier.record_read(lpn);
                    if self.hot_area.on_read(lpn) == PromotionOutcome::NotTracked {
                        self.cold_area.on_read(lpn);
                    }
                }
                Ok(Completion {
                    latency,
                    ops: self.device.ops_since(mark),
                    gc: GcOutcome::default(),
                    read_retries: faults.retries,
                    uncorrectable,
                })
            }
            IoCommand::Write { request_bytes } => {
                if self.read_only {
                    return Err(FtlError::ReadOnly);
                }
                let mut latency = Nanos::ZERO;
                let mut gc = GcOutcome::default();

                if self.device.available_blocks() < self.config.ftl.gc_trigger_free_blocks {
                    gc = self.collect_garbage()?;
                    latency += gc.time;
                    self.metrics.record_gc(gc.copied_pages, gc.erased_blocks, gc.time);
                }

                let level = self.classify_and_track_write(lpn, request_bytes);
                latency += self.place_page(lpn, level)?;
                if !self.lost.is_empty() {
                    self.lost.remove(&lpn); // faults off: never hashed
                }
                self.metrics.record_host_write(latency);
                Ok(Completion {
                    latency,
                    ops: self.device.ops_since(mark),
                    gc,
                    read_retries: 0,
                    uncorrectable: false,
                })
            }
        }
    }

    fn note_batch(&mut self, pages: u64) {
        self.metrics.record_batch(pages);
    }

    fn set_write_stripe(&mut self, lanes: usize) {
        // Both areas stripe: bulk table builds land in the cold area, WAL
        // appends in the hot area, and either stream benefits from rotating
        // programs across chips when the host batches.
        self.hot_writer.set_stripe(lanes);
        self.cold_writer.set_stripe(lanes);
    }

    fn metrics(&self) -> &FtlMetrics {
        &self.metrics
    }

    fn is_read_only(&self) -> bool {
        self.read_only
    }

    fn device(&self) -> &NandDevice {
        &self.device
    }

    fn device_mut(&mut self) -> &mut NandDevice {
        &mut self.device
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vflash_nand::NandConfig;

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
        assert_eq!(ftl.hotness_of(Lpn(1)), Hotness::Hot);
        assert_eq!(ftl.hotness_of(Lpn(2)), Hotness::IcyCold);
    }

    #[test]
    fn reads_promote_within_each_area() {
        let mut ftl = small_ftl();
        ftl.write(Lpn(1), 512).unwrap();
        ftl.write(Lpn(2), 64 * 1024).unwrap();
        ftl.read(Lpn(1)).unwrap();
        ftl.read(Lpn(2)).unwrap();
        assert_eq!(ftl.hotness_of(Lpn(1)), Hotness::IronHot);
        assert_eq!(ftl.hotness_of(Lpn(2)), Hotness::Cold);
    }

    #[test]
    fn untouched_lpns_default_to_icy_cold() {
        let ftl = small_ftl();
        assert_eq!(ftl.hotness_of(Lpn(40)), Hotness::IcyCold);
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
        let class = ftl.virtual_blocks().class_of_page(location.page());
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
        // the strategy still tracks as hot lives in a hot-area block. (Cold-tracked
        // LPNs may temporarily sit in hot-area blocks right after a demotion — that is
        // the "progressive" part — but hot classifications always trigger a rewrite
        // into the hot area, so the converse holds unconditionally.)
        for block in ftl.device().block_addrs() {
            let residents: Vec<_> = ftl.mapping().lpns_in_block(block).collect();
            if residents.is_empty() {
                continue;
            }
            let owner = ftl.block_area(block).expect("resident data implies an owner area");
            for (_, lpn) in residents {
                if ftl.hotness_of(lpn).area() == Area::Hot {
                    assert_eq!(
                        owner,
                        Area::Hot,
                        "hot {lpn} resides in a {owner} block {block}"
                    );
                }
            }
        }
    }

    #[test]
    fn sustained_overwrites_survive_gc_and_stay_readable() {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        for i in 0..(logical * 8) {
            let lpn = Lpn(i % logical);
            let size = if lpn.0.is_multiple_of(3) { 512 } else { 32 * 1024 };
            ftl.write(lpn, size).unwrap();
            if i % 5 == 0 {
                ftl.read(lpn).unwrap();
            }
        }
        assert!(ftl.metrics().gc_erased_blocks > 0, "GC never ran");
        for i in 0..logical {
            ftl.read(Lpn(i)).unwrap();
        }
        ftl.mapping().check_consistency().unwrap();
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
    fn out_of_range_lpns_are_rejected() {
        let mut ftl = small_ftl();
        let beyond = Lpn(ftl.logical_pages());
        assert!(matches!(ftl.write(beyond, 512), Err(FtlError::LpnOutOfRange { .. })));
        assert!(matches!(ftl.read(beyond), Err(FtlError::LpnOutOfRange { .. })));
        assert!(matches!(ftl.read(Lpn(0)), Err(FtlError::UnmappedRead { .. })));
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
    fn device_block_tags_mirror_the_area_bookkeeping() {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        for i in 0..(logical * 6) {
            let lpn = Lpn(i % logical);
            ftl.write(lpn, if i % 2 == 0 { 512 } else { 64 * 1024 }).unwrap();
        }
        assert!(ftl.metrics().gc_erased_blocks > 0, "workload never exercised GC");
        let mut tagged = 0;
        for block in ftl.device().block_addrs() {
            let tag = ftl.device().block(block).unwrap().area_tag();
            let area = ftl.block_area(block);
            assert_eq!(
                tag,
                area.map(Area::tag),
                "device tag of {block} disagrees with FTL area {area:?}"
            );
            tagged += usize::from(tag.is_some());
        }
        assert!(tagged > 0, "no block ended up tagged");
    }

    #[test]
    fn hot_cold_victim_policy_runs_the_full_workload() {
        use vflash_ftl::HotColdVictimPolicy;
        let mut ftl = small_ftl();
        ftl.set_victim_policy(Box::new(HotColdVictimPolicy::default()));
        let logical = ftl.logical_pages();
        for i in 0..(logical * 8) {
            ftl.write(Lpn(i % logical), if i % 2 == 0 { 512 } else { 64 * 1024 }).unwrap();
        }
        assert!(ftl.metrics().gc_erased_blocks > 0);
        ftl.mapping().check_consistency().unwrap();
        for i in 0..logical {
            ftl.read(Lpn(i)).unwrap();
        }
    }

    #[test]
    fn victim_policy_is_swappable() {
        use vflash_ftl::CostBenefitVictimPolicy;
        let mut ftl = small_ftl();
        ftl.set_victim_policy(Box::new(CostBenefitVictimPolicy::new()));
        let logical = ftl.logical_pages();
        for i in 0..(logical * 8) {
            ftl.write(Lpn(i % logical), if i % 2 == 0 { 512 } else { 64 * 1024 }).unwrap();
        }
        assert!(ftl.metrics().gc_erased_blocks > 0);
        ftl.mapping().check_consistency().unwrap();
        for i in 0..logical {
            ftl.read(Lpn(i)).unwrap();
        }
    }

    fn faulty_ftl(faults: vflash_nand::FaultConfig) -> PpbFtl {
        let device = NandDevice::new(
            NandConfig::builder()
                .chips(1)
                .blocks_per_chip(24)
                .pages_per_block(8)
                .page_size_bytes(4096)
                .speed_ratio(4.0)
                .faults(faults)
                .build()
                .unwrap(),
        );
        let config = PpbConfig {
            ftl: vflash_ftl::FtlConfig { over_provisioning: 0.25, ..Default::default() },
            ..PpbConfig::default()
        };
        PpbFtl::new(device, config).unwrap()
    }

    #[test]
    fn program_failures_remap_writes_until_spares_run_out() {
        let mut ftl = faulty_ftl(vflash_nand::FaultConfig {
            program_fail_base: 0.02,
            erase_fail_base: 0.0,
            rber_scale: 0.0,
            ..vflash_nand::FaultConfig::enabled(13)
        });
        let logical = ftl.logical_pages();
        let mut writes = 0u64;
        loop {
            let size = if writes % 2 == 0 { 512 } else { 64 * 1024 };
            match ftl.write(Lpn(writes % logical), size) {
                Ok(_) => writes += 1,
                Err(FtlError::ReadOnly) => break,
                Err(err) => panic!("unexpected error before end of life: {err}"),
            }
            assert!(writes < 1_000_000, "device never reached end of life");
        }
        assert!(ftl.is_read_only());
        assert!(writes > 0, "no writes succeeded before end of life");
        let metrics = *ftl.metrics();
        assert!(metrics.bad_blocks_grown > 0);
        assert!(metrics.remapped_writes > 0);
        assert!(metrics.time_to_read_only > Nanos::ZERO);
        // Read-only mode is sticky...
        assert!(matches!(ftl.write(Lpn(0), 512), Err(FtlError::ReadOnly)));
        // ...but surviving data is still readable and the mapping is intact.
        let readable = (0..logical).filter(|&i| ftl.read(Lpn(i)).is_ok()).count();
        assert!(readable > 0, "read-only mode must keep serving reads");
        ftl.mapping().check_consistency().unwrap();
    }

    #[test]
    fn reads_of_data_lost_in_relocation_complete_with_the_data_lost_flag() {
        // Every read exhausts the retry ladder, so every GC relocation read
        // loses its page. Lost LPNs must not surface as UnmappedRead — the
        // host read completes instantly with the uncorrectable flag.
        let mut ftl = faulty_ftl(vflash_nand::FaultConfig {
            rber_scale: 1e12,
            ecc_correctable_bits: 0,
            retry_extra_bits: 1,
            max_read_retries: 2,
            program_fail_base: 0.0,
            erase_fail_base: 0.0,
            ..vflash_nand::FaultConfig::enabled(11)
        });
        let logical = ftl.logical_pages();
        // Fill once, then hammer a small hot set: GC keeps relocating the cold
        // majority, loses every page it touches, and the lost LPNs are never
        // rewritten — so they must still read back as lost afterwards.
        for i in 0..logical {
            ftl.write(Lpn(i), 4096).unwrap();
        }
        for round in 0..(logical * 4) {
            ftl.write(Lpn(round % 8), 4096).unwrap();
        }
        assert!(ftl.metrics().gc_erased_blocks > 0, "workload never triggered GC");
        let mut lost_seen = false;
        for i in 0..logical {
            let completion = ftl.submit(IoRequest::read(Lpn(i))).unwrap();
            assert!(completion.uncorrectable, "every read on this device fails");
            if completion.latency == Nanos::ZERO {
                assert_eq!(completion.read_retries, 0);
                lost_seen = true;
            }
        }
        assert!(lost_seen, "an uncorrectable-everything device must lose data in GC");
        // Rewriting a lost LPN revives it.
        ftl.write(Lpn(0), 4096).unwrap();
        assert!(ftl.mapping().lookup(Lpn(0)).is_some());
    }

    #[test]
    fn fault_paths_preserve_op_latency_accounting() {
        let mut ftl = faulty_ftl(vflash_nand::FaultConfig {
            rber_scale: 30.0,
            program_fail_base: 0.005,
            erase_fail_base: 0.002,
            ..vflash_nand::FaultConfig::enabled(42)
        });
        ftl.device_mut().set_op_tracing(true);
        let logical = ftl.logical_pages();
        for i in 0..(logical * 6) {
            let lpn = Lpn(i % logical);
            let size = if i % 2 == 0 { 512 } else { 64 * 1024 };
            ftl.device_mut().clear_ops();
            let write = match ftl.submit(IoRequest::write(lpn, size)) {
                Ok(completion) => completion,
                Err(FtlError::ReadOnly) => break,
                Err(err) => panic!("unexpected error: {err}"),
            };
            let ops_total: Nanos =
                ftl.device().ops(write.ops).iter().map(|op| op.latency).sum();
            assert_eq!(ops_total, write.latency, "write ops must sum to the charge");

            ftl.device_mut().clear_ops();
            if let Ok(read) = ftl.submit(IoRequest::read(lpn)) {
                let ops_total: Nanos =
                    ftl.device().ops(read.ops).iter().map(|op| op.latency).sum();
                assert_eq!(ops_total, read.latency, "read ops must sum to the charge");
            }
        }
        assert!(ftl.metrics().retried_reads > 0, "fault model never fired");
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
