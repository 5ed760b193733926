//! The conventional page-mapping FTL: the paper's comparison baseline.

use std::collections::HashSet;

use vflash_nand::{BlockAddr, NandDevice, NandError, Nanos, PageAddr};

use crate::config::FtlConfig;
use crate::error::FtlError;
use crate::gc::{GcOutcome, GreedyVictimPolicy, VictimPolicy};
use crate::io::{Completion, IoCommand, IoRequest};
use crate::mapping::MappingTable;
use crate::metrics::FtlMetrics;
use crate::traits::FlashTranslationLayer;
use crate::types::Lpn;

/// A conventional page-mapping FTL with greedy garbage collection.
///
/// This is the baseline the paper compares against: it performs out-of-place updates
/// into a single active block and reclaims space with greedy victim selection, but it
/// **assumes every page has the same access speed** — data lands on whatever page the
/// write pointer happens to reach, so fast bottom-layer pages are wasted on cold data
/// as often as they serve hot data.
///
/// # Example
///
/// ```
/// use vflash_ftl::{ConventionalFtl, FlashTranslationLayer, FtlConfig, Lpn};
/// use vflash_nand::{NandConfig, NandDevice};
///
/// # fn main() -> Result<(), vflash_ftl::FtlError> {
/// let device = NandDevice::new(NandConfig::small());
/// let mut ftl = ConventionalFtl::new(device, FtlConfig::default())?;
/// for lpn in 0..100 {
///     ftl.write(Lpn(lpn), 4096)?;
/// }
/// assert_eq!(ftl.metrics().host_writes, 100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ConventionalFtl {
    device: NandDevice,
    config: FtlConfig,
    mapping: MappingTable,
    /// Host write lanes: one active block per lane, filled round-robin. Length
    /// is the write-stripe width (1 unless [`FlashTranslationLayer::set_write_stripe`]
    /// raised it), so the unstriped layout is the single-active-block baseline.
    active: Vec<Option<BlockAddr>>,
    /// Next host lane to program (always 0 when unstriped).
    lane: usize,
    gc_active: Option<BlockAddr>,
    victim_policy: Box<dyn VictimPolicy>,
    metrics: FtlMetrics,
    logical_pages: u64,
    read_only: bool,
    /// LPNs whose data was lost to an uncorrectable relocation read. A host read
    /// of a lost LPN completes instantly with the `uncorrectable` flag (the
    /// device no longer holds the data); a successful rewrite clears the entry.
    lost: HashSet<Lpn>,
    /// Scratch reused across GC rounds so steady-state collection allocates nothing:
    /// the victim-selection exclusion list and the residents of the block emptied.
    exclude: Vec<BlockAddr>,
    residents: Vec<(PageAddr, Lpn)>,
}

impl ConventionalFtl {
    /// Builds the FTL on top of `device`.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::InvalidConfig`] if the configuration is inconsistent or
    /// leaves no usable logical capacity.
    pub fn new(device: NandDevice, config: FtlConfig) -> Result<Self, FtlError> {
        config.validate()?;
        let nand = device.config();
        let logical_pages = config.logical_pages(nand.total_pages());
        if logical_pages == 0 {
            return Err(FtlError::InvalidConfig {
                reason: "over-provisioning leaves zero logical pages".to_string(),
            });
        }
        if nand.total_blocks() <= config.gc_target_free_blocks + 1 {
            return Err(FtlError::InvalidConfig {
                reason: format!(
                    "device has only {} blocks; gc target of {} leaves no room for data",
                    nand.total_blocks(),
                    config.gc_target_free_blocks
                ),
            });
        }
        let mapping = MappingTable::new(
            logical_pages,
            nand.chips(),
            nand.blocks_per_chip(),
            nand.pages_per_block(),
        );
        Ok(ConventionalFtl {
            device,
            config,
            mapping,
            active: vec![None],
            lane: 0,
            gc_active: None,
            victim_policy: Box::new(GreedyVictimPolicy::new()),
            metrics: FtlMetrics::new(),
            logical_pages,
            read_only: false,
            lost: HashSet::new(),
            exclude: Vec::new(),
            residents: Vec::new(),
        })
    }

    /// The FTL configuration.
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// Replaces the garbage-collection victim policy (greedy by default). Used by
    /// the Figure 18 policy ablation to compare greedy, wear-aware and
    /// cost-benefit selection on identical workloads.
    pub fn set_victim_policy(&mut self, policy: Box<dyn VictimPolicy>) {
        self.victim_policy = policy;
    }

    /// The mapping table (for inspection in tests and tools).
    pub fn mapping(&self) -> &MappingTable {
        &self.mapping
    }

    /// Number of free blocks currently available for allocation. O(chips): the
    /// device tracks the count, no block scan happens.
    pub fn free_blocks(&self) -> usize {
        self.device.available_blocks()
    }

    fn check_range(&self, lpn: Lpn) -> Result<(), FtlError> {
        if lpn.0 >= self.logical_pages {
            Err(FtlError::LpnOutOfRange { lpn, logical_pages: self.logical_pages })
        } else {
            Ok(())
        }
    }

    /// Returns a block with at least one free page for the given stream, allocating a
    /// fresh block from the device free-list when the current one is full.
    fn writable_block(
        device: &mut NandDevice,
        slot: &mut Option<BlockAddr>,
    ) -> Result<BlockAddr, FtlError> {
        if let Some(block) = *slot {
            if device.block(block)?.next_page().is_some() {
                return Ok(block);
            }
        }
        let fresh = device.allocate_block().ok_or(FtlError::OutOfSpace)?;
        *slot = Some(fresh);
        Ok(fresh)
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

    /// Programs the next page of the write stream tracked by `gc_stream`'s slot,
    /// re-driving into a fresh block when the device injects a program failure.
    /// A failed program retires its block; the surviving valid pages are rescued
    /// into replacement blocks before the program is retried, and the rescue
    /// time is charged to the returned latency.
    fn program_next_with_redrive(
        &mut self,
        gc_stream: bool,
    ) -> Result<(PageAddr, Nanos), FtlError> {
        let mut time = Nanos::ZERO;
        let lane = self.lane;
        loop {
            let allocated = {
                let slot = if gc_stream { &mut self.gc_active } else { &mut self.active[lane] };
                Self::writable_block(&mut self.device, slot)
            };
            let block = match allocated {
                Ok(block) => block,
                Err(FtlError::OutOfSpace) => return Err(self.out_of_space()),
                Err(err) => return Err(err),
            };
            match self.device.program_next(block) {
                Ok((page, program)) => {
                    time += program;
                    if !gc_stream {
                        self.lane = (lane + 1) % self.active.len();
                    }
                    return Ok((block.page(page), time));
                }
                Err(NandError::ProgramFailed { .. }) => {
                    // The device retired `block`. Drop it from the stream, move
                    // its surviving valid pages to safety and try again.
                    self.metrics.record_bad_block();
                    if gc_stream {
                        self.gc_active = None;
                    } else {
                        self.active[lane] = None;
                    }
                    time += self.rescue_block(block, gc_stream)?;
                    self.metrics.record_remap();
                }
                Err(err) => return Err(err.into()),
            }
        }
    }

    /// Relocates every surviving valid page out of `bad` (a freshly retired block)
    /// into the stream's replacement blocks. Pages whose relocation read is
    /// uncorrectable are dropped from the mapping and remembered as lost — the
    /// host's next read of the LPN completes with the `uncorrectable` flag.
    /// Returns the time charged.
    fn rescue_block(&mut self, bad: BlockAddr, gc_stream: bool) -> Result<Nanos, FtlError> {
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
            let (destination, program) = self.program_next_with_redrive(gc_stream)?;
            time += program;
            self.metrics.record_rescue(1);
            self.device.invalidate(source)?;
            self.mapping.map(lpn, destination);
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

    /// Reclaims blocks until the free pool reaches the configured target, charging the
    /// work to the returned outcome.
    fn collect_garbage(&mut self) -> Result<GcOutcome, FtlError> {
        let mut outcome = GcOutcome::default();
        while self.device.available_blocks() < self.config.gc_target_free_blocks {
            // The open write streams are off limits.
            self.exclude.clear();
            self.exclude.extend(self.active.iter().flatten().chain(&self.gc_active));
            let Some(victim) = self.victim_policy.select_victim(&self.device, &self.exclude) else {
                break;
            };
            outcome.merge(self.reclaim_block(victim)?);
        }
        Ok(outcome)
    }

    /// Relocates every valid page out of `victim`, erases it and returns it to the
    /// free pool. An injected erase failure retires the victim instead: its valid
    /// data is already safe, so GC simply moves on without counting an erase.
    fn reclaim_block(&mut self, victim: BlockAddr) -> Result<GcOutcome, FtlError> {
        let mut outcome = GcOutcome::default();
        let mut residents = std::mem::take(&mut self.residents);
        self.mapping.residents_into(victim, &mut residents);
        for &(source, lpn) in &residents {
            match self.relocation_read(source, lpn)? {
                Some(read) => outcome.time += read,
                None => {
                    outcome.time += self.device.last_read_faults().total_time;
                    continue;
                }
            }
            let (destination, program) = self.program_next_with_redrive(true)?;
            outcome.time += program;
            self.device.invalidate(source)?;
            self.mapping.map(lpn, destination);
            outcome.copied_pages += 1;
        }
        self.residents = residents;
        // The erase returns the victim to the device's free pool; no separate
        // release step exists any more. Failed erases are instantaneous (the
        // device charges no time) and retire the block.
        match self.device.erase(victim) {
            Ok(erase) => {
                outcome.time += erase;
                outcome.erased_blocks += 1;
            }
            Err(NandError::EraseFailed { .. }) => self.metrics.record_bad_block(),
            Err(err) => return Err(err.into()),
        }
        Ok(outcome)
    }
}

impl FlashTranslationLayer for ConventionalFtl {
    fn name(&self) -> &str {
        "conventional"
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
                        // device work) with the data-lost flag, like a failed
                        // host read after its retry ladder.
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
                Ok(Completion {
                    latency,
                    ops: self.device.ops_since(mark),
                    gc: GcOutcome::default(),
                    read_retries: faults.retries,
                    uncorrectable,
                })
            }
            IoCommand::Write { request_bytes: _ } => {
                if self.read_only {
                    return Err(FtlError::ReadOnly);
                }
                let mut latency = Nanos::ZERO;
                let mut gc = GcOutcome::default();

                if self.device.available_blocks() < self.config.gc_trigger_free_blocks {
                    gc = self.collect_garbage()?;
                    latency += gc.time;
                    self.metrics.record_gc(gc.copied_pages, gc.erased_blocks, gc.time);
                }

                let (addr, program) = self.program_next_with_redrive(false)?;
                latency += program;

                if let Some(previous) = self.mapping.map(lpn, addr) {
                    self.device.invalidate(previous)?;
                }
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
        let lanes = lanes.max(1);
        // Lanes dropped on a shrink simply stop receiving writes; their
        // partially-filled blocks become ordinary GC candidates.
        self.active.resize(lanes, None);
        self.lane %= lanes;
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

    fn small_ftl() -> ConventionalFtl {
        // 1 chip x 16 blocks x 8 pages = 128 physical pages, ~20% OP -> 102 logical
        let device = NandDevice::new(
            NandConfig::builder()
                .chips(1)
                .blocks_per_chip(16)
                .pages_per_block(8)
                .page_size_bytes(4096)
                .speed_ratio(4.0)
                .build()
                .unwrap(),
        );
        let config = FtlConfig { over_provisioning: 0.2, ..FtlConfig::default() };
        ConventionalFtl::new(device, config).unwrap()
    }

    #[test]
    fn write_stripe_spreads_consecutive_writes_across_chips() {
        let device = NandDevice::new(
            NandConfig::builder()
                .chips(4)
                .blocks_per_chip(8)
                .pages_per_block(8)
                .page_size_bytes(4096)
                .build()
                .unwrap(),
        );
        let config = FtlConfig { over_provisioning: 0.2, ..FtlConfig::default() };
        let mut ftl = ConventionalFtl::new(device, config).unwrap();
        ftl.set_write_stripe(4);
        for lpn in 0..8 {
            ftl.write(Lpn(lpn), 4096).unwrap();
        }
        let chips: HashSet<usize> = (0..8)
            .map(|lpn| ftl.mapping().lookup(Lpn(lpn)).unwrap().block().chip().0)
            .collect();
        assert_eq!(chips.len(), 4, "8 striped writes must touch all 4 chips");
        // Releasing the stripe funnels writes back into a single active block.
        ftl.set_write_stripe(1);
        ftl.write(Lpn(100), 4096).unwrap();
        ftl.write(Lpn(101), 4096).unwrap();
        let a = ftl.mapping().lookup(Lpn(100)).unwrap();
        let b = ftl.mapping().lookup(Lpn(101)).unwrap();
        assert_eq!(a.block(), b.block(), "unstriped writes share the active block");
        ftl.mapping().check_consistency().unwrap();
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut ftl = small_ftl();
        let write = ftl.write(Lpn(7), 4096).unwrap();
        let read = ftl.read(Lpn(7)).unwrap();
        assert!(write > read);
        assert_eq!(ftl.metrics().host_writes, 1);
        assert_eq!(ftl.metrics().host_reads, 1);
    }

    #[test]
    fn read_of_never_written_lpn_is_an_error() {
        let mut ftl = small_ftl();
        assert!(matches!(ftl.read(Lpn(3)), Err(FtlError::UnmappedRead { .. })));
    }

    #[test]
    fn out_of_range_lpns_are_rejected() {
        let mut ftl = small_ftl();
        let beyond = Lpn(ftl.logical_pages());
        assert!(matches!(ftl.write(beyond, 4096), Err(FtlError::LpnOutOfRange { .. })));
        assert!(matches!(ftl.read(beyond), Err(FtlError::LpnOutOfRange { .. })));
    }

    #[test]
    fn overwrites_invalidate_old_locations() {
        let mut ftl = small_ftl();
        ftl.write(Lpn(1), 4096).unwrap();
        let first = ftl.mapping().lookup(Lpn(1)).unwrap();
        ftl.write(Lpn(1), 4096).unwrap();
        let second = ftl.mapping().lookup(Lpn(1)).unwrap();
        assert_ne!(first, second);
        // The old physical page is now invalid.
        let block = ftl.device().block(first.block()).unwrap();
        assert_eq!(block.invalid_pages(), 1);
        ftl.mapping().check_consistency().unwrap();
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_never_run_out_of_space() {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        // Write 10x the logical capacity, uniformly.
        for i in 0..(logical * 10) {
            ftl.write(Lpn(i % logical), 4096).unwrap();
        }
        assert!(ftl.metrics().gc_erased_blocks > 0, "GC never ran");
        assert!(ftl.metrics().host_writes == logical * 10);
        assert!(ftl.free_blocks() >= 1);
        ftl.mapping().check_consistency().unwrap();
        // Every LPN is still readable after heavy GC.
        for i in 0..logical {
            ftl.read(Lpn(i)).unwrap();
        }
    }

    #[test]
    fn gc_preserves_data_integrity_under_skewed_overwrites() {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        // Fill once, then hammer a small hot set.
        for i in 0..logical {
            ftl.write(Lpn(i), 4096).unwrap();
        }
        for round in 0..(logical * 8) {
            ftl.write(Lpn(round % 10), 4096).unwrap();
        }
        for i in 0..logical {
            assert!(ftl.read(Lpn(i)).is_ok(), "LPN{i} lost after GC");
        }
        assert_eq!(ftl.mapping().mapped_pages(), logical);
    }

    #[test]
    fn write_amplification_is_reported() {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        for i in 0..(logical * 6) {
            ftl.write(Lpn(i % logical), 4096).unwrap();
        }
        let waf = ftl.metrics().write_amplification();
        assert!(waf >= 1.0, "WAF below 1: {waf}");
    }

    #[test]
    fn gc_time_is_charged_to_triggering_writes() {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        for i in 0..(logical * 6) {
            ftl.write(Lpn(i % logical), 4096).unwrap();
        }
        let metrics = ftl.metrics();
        assert!(metrics.gc_time > Nanos::ZERO);
        assert!(metrics.host_write_time > metrics.gc_time);
    }

    #[test]
    fn submit_reports_op_provenance_and_gc_attribution() {
        let mut ftl = small_ftl();
        // Without tracing, completions stay lean.
        let completion = ftl.submit(IoRequest::write(Lpn(0), 4096)).unwrap();
        assert!(completion.ops.is_empty());
        assert_eq!(completion.gc, GcOutcome::default());

        ftl.device_mut().set_op_tracing(true);
        let write = ftl.submit(IoRequest::write(Lpn(1), 4096)).unwrap();
        assert_eq!(write.ops.len(), 1, "a GC-free write is a single program");
        assert_eq!(ftl.device().ops(write.ops)[0].kind, vflash_nand::OpKind::Program);
        assert_eq!(ftl.device().ops(write.ops)[0].latency, write.latency);

        let read = ftl.submit(IoRequest::read(Lpn(1))).unwrap();
        assert_eq!(read.ops.len(), 1);
        assert_eq!(ftl.device().ops(read.ops)[0].kind, vflash_nand::OpKind::Read);
        assert_eq!(ftl.device().ops(read.ops)[0].latency, read.latency);

        // Force garbage collection: the triggering write's completion owns the GC
        // work, and its ops sum to exactly the charged latency. Clearing the
        // arena between requests is the replayer's job; doing it here also keeps
        // each span anchored at zero.
        let logical = ftl.logical_pages();
        let mut gc_seen = false;
        for i in 0..(logical * 6) {
            ftl.device_mut().clear_ops();
            let completion = ftl.submit(IoRequest::write(Lpn(i % logical), 4096)).unwrap();
            let ops_total: Nanos =
                ftl.device().ops(completion.ops).iter().map(|op| op.latency).sum();
            assert_eq!(ops_total, completion.latency);
            if completion.gc.erased_blocks > 0 {
                gc_seen = true;
                assert!(completion.ops.len() > 1, "GC adds reads/programs/erases");
                assert!(completion.gc.time > Nanos::ZERO);
                assert!(completion.latency >= completion.gc.time);
            }
        }
        assert!(gc_seen, "workload never triggered GC");
    }

    #[test]
    fn victim_policy_is_swappable() {
        use crate::gc::CostBenefitVictimPolicy;
        let mut greedy = small_ftl();
        let mut cost_benefit = small_ftl();
        cost_benefit.set_victim_policy(Box::new(CostBenefitVictimPolicy::new()));
        let logical = greedy.logical_pages();
        for ftl in [&mut greedy, &mut cost_benefit] {
            for i in 0..(logical * 8) {
                // Skewed overwrites: a hot tenth plus a cold sweep, so utilisation
                // and age actually differ across blocks.
                let lpn = if i % 2 == 0 { Lpn(i % (logical / 10).max(1)) } else { Lpn(i % logical) };
                ftl.write(lpn, 4096).unwrap();
            }
            assert!(ftl.metrics().gc_erased_blocks > 0);
            ftl.mapping().check_consistency().unwrap();
            for i in 0..logical {
                ftl.read(Lpn(i)).ok();
            }
        }
        // Both policies keep the FTL functional; erase counts may differ.
    }

    fn faulty_ftl(faults: vflash_nand::FaultConfig) -> ConventionalFtl {
        let device = NandDevice::new(
            NandConfig::builder()
                .chips(1)
                .blocks_per_chip(16)
                .pages_per_block(8)
                .page_size_bytes(4096)
                .faults(faults)
                .build()
                .unwrap(),
        );
        let config = FtlConfig { over_provisioning: 0.2, ..FtlConfig::default() };
        ConventionalFtl::new(device, config).unwrap()
    }

    #[test]
    fn uncorrectable_host_reads_complete_with_the_data_lost_flag() {
        // An absurd raw bit-error rate: every read exhausts the retry ladder.
        let mut ftl = faulty_ftl(vflash_nand::FaultConfig {
            rber_scale: 1e12,
            ecc_correctable_bits: 0,
            retry_extra_bits: 1,
            max_read_retries: 2,
            program_fail_base: 0.0,
            erase_fail_base: 0.0,
            ..vflash_nand::FaultConfig::enabled(11)
        });
        ftl.write(Lpn(1), 4096).unwrap();
        let completion = ftl.submit(IoRequest::read(Lpn(1))).unwrap();
        assert!(completion.uncorrectable, "extreme RBER must exhaust the ladder");
        assert_eq!(completion.read_retries, 2);
        assert_eq!(ftl.metrics().uncorrectable_reads, 1);
        assert_eq!(ftl.metrics().retried_reads, 1);
        assert!(ftl.metrics().read_retry_time > Nanos::ZERO);
        // The full ladder latency was charged even though the data is gone.
        assert!(completion.latency > Nanos::ZERO);
    }

    #[test]
    fn reads_of_data_lost_in_relocation_complete_with_the_data_lost_flag() {
        // Every read exhausts the retry ladder, so every GC relocation read
        // loses its page. Lost LPNs must not surface as UnmappedRead — the
        // host read completes instantly with the uncorrectable flag, and a
        // rewrite brings the LPN back to life.
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
        for i in 0..(logical * 3) {
            ftl.write(Lpn(i % logical), 4096).unwrap();
        }
        assert!(ftl.metrics().gc_erased_blocks > 0, "workload never triggered GC");
        let mut lost_seen = false;
        for i in 0..logical {
            let completion = ftl.submit(IoRequest::read(Lpn(i))).unwrap();
            assert!(completion.uncorrectable, "every read on this device fails");
            if completion.latency == Nanos::ZERO {
                // A lost LPN: no device work happened, no retries charged.
                assert_eq!(completion.read_retries, 0);
                lost_seen = true;
            }
        }
        assert!(lost_seen, "an uncorrectable-everything device must lose data in GC");
        // Rewriting a lost LPN revives it: the mapping points at real data again.
        let victim = Lpn(0);
        ftl.write(victim, 4096).unwrap();
        assert!(ftl.mapping().lookup(victim).is_some());
    }

    #[test]
    fn program_failures_remap_writes_until_spares_run_out() {
        let mut ftl = faulty_ftl(vflash_nand::FaultConfig {
            program_fail_base: 0.02,
            erase_fail_base: 0.0,
            rber_scale: 0.0,
            ..vflash_nand::FaultConfig::enabled(7)
        });
        let logical = ftl.logical_pages();
        let mut writes = 0u64;
        let read_only = loop {
            match ftl.write(Lpn(writes % logical), 4096) {
                Ok(_) => writes += 1,
                Err(FtlError::ReadOnly) => break true,
                Err(err) => panic!("unexpected error before end of life: {err}"),
            }
            assert!(writes < 1_000_000, "device never reached end of life");
        };
        assert!(read_only);
        assert!(ftl.is_read_only());
        assert!(writes > 0, "no writes succeeded before end of life");
        let metrics = *ftl.metrics();
        assert!(metrics.bad_blocks_grown > 0);
        assert!(metrics.remapped_writes > 0);
        assert!(metrics.time_to_read_only > Nanos::ZERO);
        assert_eq!(metrics.bad_blocks_grown, ftl.device().bad_block_count() as u64);
        // Read-only mode is sticky and instantaneous...
        assert!(matches!(ftl.write(Lpn(0), 4096), Err(FtlError::ReadOnly)));
        // ...but surviving data is still readable.
        let readable = (0..logical).filter(|&i| ftl.read(Lpn(i)).is_ok()).count();
        assert!(readable > 0, "read-only mode must keep serving reads");
        ftl.mapping().check_consistency().unwrap();
    }

    #[test]
    fn fault_paths_preserve_op_latency_accounting() {
        // Retries on every few reads plus occasional program failures: the
        // sum-of-ops identity must survive rescue relocations and retry latency.
        let mut ftl = faulty_ftl(vflash_nand::FaultConfig {
            rber_scale: 30.0,
            program_fail_base: 0.005,
            erase_fail_base: 0.002,
            ..vflash_nand::FaultConfig::enabled(42)
        });
        ftl.device_mut().set_op_tracing(true);
        let logical = ftl.logical_pages();
        for i in 0..(logical * 6) {
            ftl.device_mut().clear_ops();
            let write = match ftl.submit(IoRequest::write(Lpn(i % logical), 4096)) {
                Ok(completion) => completion,
                Err(FtlError::ReadOnly) => break,
                Err(err) => panic!("unexpected error: {err}"),
            };
            let ops_total: Nanos =
                ftl.device().ops(write.ops).iter().map(|op| op.latency).sum();
            assert_eq!(ops_total, write.latency, "write ops must sum to the charge");

            ftl.device_mut().clear_ops();
            if let Ok(read) = ftl.submit(IoRequest::read(Lpn(i % logical))) {
                let ops_total: Nanos =
                    ftl.device().ops(read.ops).iter().map(|op| op.latency).sum();
                assert_eq!(ops_total, read.latency, "read ops must sum to the charge");
            }
        }
        assert!(ftl.metrics().retried_reads > 0, "fault model never fired");
    }

    #[test]
    fn too_small_devices_are_rejected() {
        let device = NandDevice::new(
            NandConfig::builder()
                .chips(1)
                .blocks_per_chip(3)
                .pages_per_block(4)
                .page_size_bytes(4096)
                .build()
                .unwrap(),
        );
        assert!(matches!(
            ConventionalFtl::new(device, FtlConfig::default()),
            Err(FtlError::InvalidConfig { .. })
        ));
    }
}
