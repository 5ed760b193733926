//! The page-mapped FTL core, and the [`Placement`] seam a strategy plugs into.
//!
//! [`FtlCore`] owns everything a page-mapping FTL does regardless of strategy:
//! the mapping table, out-of-place updates, garbage collection, bad-block rescue,
//! the read-only transition, the metrics and the
//! [`FlashTranslationLayer::submit`] envelope. What differs between the paper's two
//! FTLs — *which open block receives a page* — is a [`Placement`]: the
//! conventional baseline keeps one write pointer per stream
//! ([`crate::ConventionalPlacement`]), the PPB strategy (`vflash_ppb::PpbPlacement`)
//! picks by hotness. `P` is a type parameter, so the per-page path is monomorphised.

use vflash_nand::{BlockAddr, BlockState, NandConfig, NandDevice, NandError, Nanos, PageAddr};

use crate::config::FtlConfig;
use crate::error::FtlError;
use crate::gc::GcOutcome;
use crate::io::{Completion, IoCommand, IoRequest};
use crate::mapping::MappingTable;
use crate::metrics::FtlMetrics;
use crate::traits::FlashTranslationLayer;
use crate::types::Lpn;

/// Garbage collection starts when fewer than this many blocks are free; at least
/// 1, so a relocation destination always exists.
const GC_TRIGGER_FREE_BLOCKS: usize = 2;
/// Garbage collection reclaims blocks until this many are free again.
const GC_TARGET_FREE_BLOCKS: usize = 3;

/// Where pages go: the only thing that differs between FTLs built on [`FtlCore`].
///
/// A placement owns the open write streams. The core asks it for a
/// [`Stream`](Placement::Stream) token per page, then drives `target` → program →
/// `programmed` itself, calling `retired` and re-driving when the program fails.
pub trait Placement: Sized {
    /// What the FTL is constructed with ([`FtlCore::new`]).
    type Config;

    /// Names the write stream a page is headed for; carried across re-drives.
    type Stream: Copy;

    /// Short name used in experiment reports (`"conventional"`, `"ppb"`).
    const NAME: &'static str;

    /// Blocks the open streams hold back from the data capacity.
    const RESERVED_BLOCKS: usize;

    /// Validates `config` against the device geometry ([`FtlError::InvalidConfig`]);
    /// returns the base FTL parameters it carries and the placement.
    fn assemble(config: Self::Config, nand: &NandConfig) -> Result<(FtlConfig, Self), FtlError>;

    /// Picks the stream of a host write of `lpn` (part of a `request_bytes` request)
    /// and updates the strategy's bookkeeping; called after any GC the write triggered.
    fn host_write(&mut self, lpn: Lpn, request_bytes: u32) -> Self::Stream;

    /// A host read of `lpn` returned its data (never reported for lost or failed reads).
    fn host_read(&mut self, _lpn: Lpn) {}

    /// The stream a relocated page goes to, asked after its relocation read:
    /// `rescued_from` is the stream whose program failed when the page is being
    /// rescued from a freshly retired block, `None` for a garbage-collection copy.
    fn relocation_stream(&self, lpn: Lpn, rescued_from: Option<Self::Stream>) -> Self::Stream;

    /// The block whose next free page receives the next page of `stream`; fails with
    /// [`FtlError::OutOfSpace`] when a fresh block is needed and `device` has none.
    fn target(
        &mut self,
        stream: Self::Stream,
        device: &mut NandDevice,
    ) -> Result<BlockAddr, FtlError>;

    /// A page of `stream` was programmed into `block`.
    fn programmed(&mut self, stream: Self::Stream, block: BlockAddr, device: &NandDevice);

    /// The device retired `block` while programming a page of `stream` into it.
    fn retired(&mut self, stream: Self::Stream, block: BlockAddr);

    /// Garbage collection erased `block` (not called when the erase failed).
    fn erased(&mut self, _block: BlockAddr) {}

    /// Appends the blocks open for writing, which victim selection must skip.
    fn open_blocks(&self, open: &mut Vec<BlockAddr>);

    /// See [`FlashTranslationLayer::set_write_stripe`].
    fn set_write_stripe(&mut self, lanes: usize);

    /// Whether a garbage-collection copy from `source` to `destination` counts as
    /// a hotness-driven migration ([`FtlMetrics::migrated_pages`]).
    fn migrated(&self, _source: PageAddr, _destination: PageAddr) -> bool {
        false
    }

    /// The strategy's own invariants, for [`FtlCore::check_invariants`].
    fn check_invariants(
        &self,
        _device: &NandDevice,
        _mapping: &MappingTable,
        _read_only: bool,
    ) -> Result<(), String> {
        Ok(())
    }
}

/// A page-mapping FTL with garbage collection and fault handling, placing pages
/// through `P`. Use it through its two instantiations, [`crate::ConventionalFtl`]
/// and `vflash_ppb::PpbFtl`.
#[derive(Debug)]
pub struct FtlCore<P> {
    device: NandDevice,
    config: FtlConfig,
    mapping: MappingTable,
    placement: P,
    metrics: FtlMetrics,
    read_only: bool,
    /// Scratch reused across GC rounds so steady-state collection allocates nothing:
    /// the victim-selection exclusion list and the residents of the block emptied.
    exclude: Vec<BlockAddr>,
    residents: Vec<(PageAddr, Lpn)>,
}

impl<P: Placement> FtlCore<P> {
    /// Builds the FTL on top of `device`.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::InvalidConfig`] if the configuration is inconsistent,
    /// leaves no usable logical capacity, the device is too small for the
    /// placement's open streams plus the GC target, or its geometry is past what
    /// the packed [`MappingTable`] addresses (2^16 chips or more, 2^24 blocks per
    /// chip or pages per block or more, `u32::MAX` logical pages or more).
    pub fn new(device: NandDevice, config: P::Config) -> Result<Self, FtlError> {
        let nand = device.config();
        let (config, placement) = P::assemble(config, nand)?;
        let logical_pages = config.logical_pages(nand.total_pages());
        if logical_pages == 0 {
            return Err(FtlError::InvalidConfig {
                reason: "over-provisioning leaves zero logical pages".to_string(),
            });
        }
        if nand.total_blocks() <= GC_TARGET_FREE_BLOCKS + P::RESERVED_BLOCKS {
            return Err(FtlError::InvalidConfig {
                reason: format!(
                    "device has only {} blocks; {} for open write streams plus {} free for GC leave no room for data",
                    nand.total_blocks(),
                    P::RESERVED_BLOCKS,
                    GC_TARGET_FREE_BLOCKS
                ),
            });
        }
        let (chips, blocks_per_chip, pages_per_block) =
            (nand.chips(), nand.blocks_per_chip(), nand.pages_per_block());
        MappingTable::check_geometry(logical_pages, chips, blocks_per_chip, pages_per_block)
            .map_err(|reason| FtlError::InvalidConfig { reason })?;
        let mapping = MappingTable::new(logical_pages, chips, blocks_per_chip, pages_per_block);
        Ok(FtlCore {
            device,
            config,
            mapping,
            placement,
            metrics: FtlMetrics::new(),
            read_only: false,
            exclude: Vec::new(),
            residents: Vec::new(),
        })
    }

    /// The base FTL configuration.
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// The placement strategy, for inspecting its bookkeeping.
    pub fn placement(&self) -> &P {
        &self.placement
    }

    /// The mapping table (for inspection in tests and tools).
    pub fn mapping(&self) -> &MappingTable {
        &self.mapping
    }

    /// Checks the structural invariants that hold between any two requests, whatever
    /// they returned: the device's indices recount from its blocks
    /// ([`NandDevice::check_invariants`]), the mapping table mirrors itself, the
    /// pages mapped into a block are exactly its valid pages, no open block is free
    /// or bad — then [`Placement::check_invariants`].
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.device.check_invariants()?;
        self.mapping.check_consistency()?;
        let mut open = Vec::new();
        self.placement.open_blocks(&mut open);
        for addr in self.device.block_addrs() {
            let block = self.device.block(addr).map_err(|err| err.to_string())?;
            let mapped = self.mapping.lpns_in_block(addr).map(|(page, _)| page);
            if !mapped.eq(block.valid_page_ids()) {
                return Err(format!("the pages mapped into {addr} are not its valid pages"));
            }
            if open.contains(&addr) && matches!(block.state(), BlockState::Free | BlockState::Bad) {
                return Err(format!("open block {addr} is {}", block.state()));
            }
        }
        self.placement.check_invariants(&self.device, &self.mapping, self.read_only)
    }

    fn serve_read(&mut self, lpn: Lpn) -> Result<Completion, FtlError> {
        let Some(addr) = self.mapping.lookup(lpn) else {
            if !self.mapping.is_lost(lpn) {
                return Err(FtlError::UnmappedRead { lpn });
            }
            // The data fell to an uncorrectable relocation read and is gone from
            // the media: the read completes instantly (no device work) with the
            // data-lost flag, like a failed host read after its retry ladder.
            self.metrics.record_uncorrectable_read();
            self.metrics.record_host_read(Nanos::ZERO);
            return Ok(Completion { uncorrectable: true, ..Completion::new(Nanos::ZERO) });
        };
        let (latency, readable) = self.read_page(addr)?;
        if readable {
            self.placement.host_read(lpn);
        }
        self.metrics.record_host_read(latency);
        let read_retries = self.device.last_read_faults().retries;
        Ok(Completion { read_retries, uncorrectable: !readable, ..Completion::new(latency) })
    }

    /// Reads `addr`, recording its retry ladder. Returns the time spent and whether
    /// the data came back: an uncorrectable read still completes — the full ladder
    /// latency was spent — but the data is lost.
    fn read_page(&mut self, addr: PageAddr) -> Result<(Nanos, bool), FtlError> {
        let outcome = self.device.read(addr);
        let faults = self.device.last_read_faults();
        self.metrics.record_read_retries(faults.retries, faults.retry_time);
        match outcome {
            Ok(latency) => Ok((latency, true)),
            Err(NandError::UncorrectableRead { .. }) => {
                self.metrics.record_uncorrectable_read();
                Ok((faults.total_time, false))
            }
            Err(err) => Err(err.into()),
        }
    }

    fn serve_write(&mut self, lpn: Lpn, request_bytes: u32) -> Result<Completion, FtlError> {
        if self.read_only {
            return Err(FtlError::ReadOnly);
        }
        let mut gc = GcOutcome::default();
        if self.device.available_blocks() < GC_TRIGGER_FREE_BLOCKS {
            gc = self.collect_garbage()?;
            self.metrics.record_gc(gc.copied_pages, gc.erased_blocks, gc.time);
        }
        let stream = self.placement.host_write(lpn, request_bytes);
        let latency = gc.time + self.place_page(lpn, stream)?.1;
        self.metrics.record_host_write(latency);
        Ok(Completion { gc, ..Completion::new(latency) })
    }

    /// Converts an allocation failure into the right terminal error: when bad-block
    /// growth has eaten the spare capacity, the FTL transitions (stickily) to
    /// read-only mode instead of reporting a capacity bug.
    fn out_of_space(&mut self, err: FtlError) -> FtlError {
        if matches!(err, FtlError::OutOfSpace) && self.device.bad_block_count() > 0 {
            self.read_only = true;
            self.metrics.record_read_only(self.device.makespan());
            return FtlError::ReadOnly;
        }
        err
    }

    /// Programs `lpn` into the next page of `stream`, maps it there and invalidates
    /// its previous location; returns the new address and the device time charged.
    /// An injected program failure retires the target block: the stream drops it,
    /// its surviving valid pages are rescued and the program re-drives, with the
    /// rescue time charged to the returned latency.
    fn place_page(&mut self, lpn: Lpn, stream: P::Stream) -> Result<(PageAddr, Nanos), FtlError> {
        let mut time = Nanos::ZERO;
        loop {
            let target = self.placement.target(stream, &mut self.device);
            let block = target.map_err(|err| self.out_of_space(err))?;
            match self.device.program_next(block) {
                Ok((page, program)) => {
                    self.placement.programmed(stream, block, &self.device);
                    let addr = block.page(page);
                    if let Some(previous) = self.mapping.map(lpn, addr) {
                        self.device.invalidate(previous)?;
                    }
                    return Ok((addr, time + program));
                }
                Err(NandError::ProgramFailed { .. }) => {
                    self.metrics.record_bad_block();
                    self.placement.retired(stream, block);
                    time += self.rescue_block(block, stream)?;
                    self.metrics.record_remap();
                }
                Err(err) => return Err(err.into()),
            }
        }
    }

    /// Copies the page at `source`, which holds `lpn`, to the stream the placement
    /// picks. Returns the time charged and the destination — `None` when the
    /// relocation read was uncorrectable and the data is lost.
    fn relocate(
        &mut self,
        source: PageAddr,
        lpn: Lpn,
        rescued_from: Option<P::Stream>,
    ) -> Result<(Nanos, Option<PageAddr>), FtlError> {
        let (read, survived) = self.relocation_read(source, lpn)?;
        if !survived {
            return Ok((read, None));
        }
        let stream = self.placement.relocation_stream(lpn, rescued_from);
        // Invalidates the LPN's previous location: exactly `source`.
        let (destination, program) = self.place_page(lpn, stream)?;
        Ok((read + program, Some(destination)))
    }

    /// Reads `source` on behalf of a relocation (GC or bad-block rescue). Returns
    /// the time charged and whether the data survived: after an uncorrectable read
    /// the LPN is marked lost in the mapping table and the page invalidated — the
    /// host's next read of the LPN completes with the `uncorrectable` flag, until a
    /// rewrite maps it again.
    fn relocation_read(&mut self, source: PageAddr, lpn: Lpn) -> Result<(Nanos, bool), FtlError> {
        let (time, survived) = self.read_page(source)?;
        if !survived {
            self.mapping.mark_lost(lpn);
            self.device.invalidate(source)?;
        }
        Ok((time, survived))
    }

    /// Relocates every surviving valid page out of `bad`, a block retired while
    /// programming a page of stream `failed`. Returns the time charged.
    fn rescue_block(&mut self, bad: BlockAddr, failed: P::Stream) -> Result<Nanos, FtlError> {
        let mut time = Nanos::ZERO;
        // Taken, not borrowed: a rescue nested in a relocation grows its own.
        let mut residents = std::mem::take(&mut self.residents);
        self.mapping.residents_into(bad, &mut residents);
        for &(source, lpn) in &residents {
            let (spent, destination) = self.relocate(source, lpn, Some(failed))?;
            time += spent;
            if destination.is_some() {
                self.metrics.record_rescue(1);
            }
        }
        self.residents = residents;
        Ok(time)
    }

    /// Reclaims blocks until the free pool reaches the GC target, charging the
    /// work to the returned outcome. Victims are the greedy choice — the full block
    /// with the most invalid pages, see [`NandDevice::greedy_victim`].
    fn collect_garbage(&mut self) -> Result<GcOutcome, FtlError> {
        let mut outcome = GcOutcome::default();
        while self.device.available_blocks() < GC_TARGET_FREE_BLOCKS {
            // The open write streams are off limits.
            self.exclude.clear();
            self.placement.open_blocks(&mut self.exclude);
            let Some(victim) = self.device.greedy_victim(&self.exclude) else {
                break;
            };
            outcome.merge(self.reclaim_block(victim)?);
        }
        Ok(outcome)
    }

    /// Relocates every valid page out of `victim` and erases it, which returns it to
    /// the device's free pool. An injected erase failure (instantaneous) retires the
    /// victim instead: its valid data is already safe, so GC moves on without
    /// counting an erase.
    fn reclaim_block(&mut self, victim: BlockAddr) -> Result<GcOutcome, FtlError> {
        let mut outcome = GcOutcome::default();
        let mut residents = std::mem::take(&mut self.residents);
        self.mapping.residents_into(victim, &mut residents);
        let mut migrated = 0u64;
        for &(source, lpn) in &residents {
            let (spent, destination) = self.relocate(source, lpn, None)?;
            outcome.time += spent;
            if let Some(destination) = destination {
                outcome.copied_pages += 1;
                migrated += u64::from(self.placement.migrated(source, destination));
            }
        }
        self.residents = residents;
        match self.device.erase(victim) {
            Ok(erase) => {
                outcome.time += erase;
                outcome.erased_blocks += 1;
                self.placement.erased(victim);
            }
            Err(NandError::EraseFailed { .. }) => self.metrics.record_bad_block(),
            Err(err) => return Err(err.into()),
        }
        self.metrics.record_migration(migrated);
        Ok(outcome)
    }
}

impl<P: Placement> FlashTranslationLayer for FtlCore<P> {
    fn name(&self) -> &str {
        P::NAME
    }

    fn logical_pages(&self) -> u64 {
        self.mapping.logical_pages()
    }

    fn submit(&mut self, request: IoRequest) -> Result<Completion, FtlError> {
        let lpn = request.lpn;
        if !self.mapping.contains(lpn) {
            let logical_pages = self.mapping.logical_pages();
            return Err(FtlError::LpnOutOfRange { lpn, logical_pages });
        }
        // Everything recorded into the op arena from here on is this request's.
        let mark = self.device.op_mark();
        let mut completion = match request.command {
            IoCommand::Read => self.serve_read(lpn)?,
            IoCommand::Write { request_bytes } => self.serve_write(lpn, request_bytes)?,
        };
        completion.ops = self.device.ops_since(mark);
        Ok(completion)
    }

    fn note_batch(&mut self, pages: u64) {
        self.metrics.record_batch(pages);
    }

    fn set_write_stripe(&mut self, lanes: usize) {
        self.placement.set_write_stripe(lanes);
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
