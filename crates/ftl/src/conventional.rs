//! The conventional page-mapping FTL: the paper's comparison baseline, as the
//! trivial [`Placement`] on the shared [`FtlCore`].

use vflash_nand::{BlockAddr, NandConfig, NandDevice};

use crate::config::FtlConfig;
use crate::error::FtlError;
use crate::ftl_core::{Assemble, FtlCore, Placement};
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
pub type ConventionalFtl = FtlCore<ConventionalPlacement>;

/// The write stream a page of the conventional FTL goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConventionalStream {
    /// A host write into the given lane. The lane is fixed when the write starts:
    /// a rescue nested in its re-drive rotates the lane pointer underneath it.
    Host(usize),
    /// A garbage-collection copy.
    Gc,
}

/// Speed-oblivious placement: one active block per host write lane, filled
/// round-robin, plus one for garbage-collection copies.
#[derive(Debug, Default)]
pub struct ConventionalPlacement {
    /// Host write lanes. Length is the write-stripe width (1 unless
    /// [`Placement::set_write_stripe`] raised it), so the unstriped layout is the
    /// single-active-block baseline.
    active: Vec<Option<BlockAddr>>,
    /// Next host lane to program (always 0 when unstriped).
    lane: usize,
    gc_active: Option<BlockAddr>,
    /// Blocks of lanes a stripe shrink dropped. Still open — only full blocks are
    /// garbage-collection candidates — so the remaining streams fill them up
    /// before allocating fresh ones.
    parked: Vec<BlockAddr>,
}

impl Assemble<FtlConfig> for ConventionalPlacement {
    fn assemble(config: FtlConfig, _nand: &NandConfig) -> Result<(FtlConfig, Self), FtlError> {
        config.validate()?;
        Ok((config, ConventionalPlacement { active: vec![None], ..Default::default() }))
    }
}

impl ConventionalPlacement {
    fn slot(&mut self, stream: ConventionalStream) -> &mut Option<BlockAddr> {
        match stream {
            ConventionalStream::Host(lane) => &mut self.active[lane],
            ConventionalStream::Gc => &mut self.gc_active,
        }
    }
}

impl Placement for ConventionalPlacement {
    type Stream = ConventionalStream;

    const NAME: &'static str = "conventional";
    const RESERVED_BLOCKS: usize = 1;

    fn host_write(&mut self, _lpn: Lpn, _request_bytes: u32) -> ConventionalStream {
        ConventionalStream::Host(self.lane)
    }

    /// A page rescued from a failed host program goes to the *current* host lane,
    /// everything else to the garbage-collection stream.
    fn relocation_stream(
        &self,
        _lpn: Lpn,
        rescued_from: Option<ConventionalStream>,
    ) -> ConventionalStream {
        match rescued_from {
            Some(ConventionalStream::Host(_)) => ConventionalStream::Host(self.lane),
            _ => ConventionalStream::Gc,
        }
    }

    // Not generic: without the hints the core's monomorphised per-page path would
    // call `target` and `programmed` across the crate boundary.
    #[inline]
    fn target(
        &mut self,
        stream: ConventionalStream,
        device: &mut NandDevice,
    ) -> Result<BlockAddr, FtlError> {
        if let Some(block) = *self.slot(stream) {
            if device.block(block)?.next_page().is_some() {
                return Ok(block);
            }
        }
        // A parked block that still has a free page comes before a fresh one.
        let fresh = loop {
            match self.parked.pop() {
                Some(parked) if device.block(parked)?.next_page().is_none() => {}
                Some(parked) => break parked,
                None => break device.allocate_block().ok_or(FtlError::OutOfSpace)?,
            }
        };
        *self.slot(stream) = Some(fresh);
        Ok(fresh)
    }

    #[inline]
    fn programmed(&mut self, stream: ConventionalStream, _block: BlockAddr, _device: &NandDevice) {
        if let ConventionalStream::Host(lane) = stream {
            self.lane = (lane + 1) % self.active.len();
        }
    }

    fn retired(&mut self, stream: ConventionalStream, _block: BlockAddr) {
        *self.slot(stream) = None;
    }

    fn open_blocks(&self, open: &mut Vec<BlockAddr>) {
        open.extend(self.active.iter().flatten().chain(&self.gc_active).chain(&self.parked));
    }

    fn set_write_stripe(&mut self, lanes: usize) {
        let lanes = lanes.max(1);
        self.parked.extend(self.active.drain(lanes.min(self.active.len())..).flatten());
        self.active.resize(lanes, None);
        self.lane %= lanes;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::{FlashTranslationLayer, GcOutcome, IoRequest};
    use vflash_nand::Nanos;

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
