//! The interface shared by all flash translation layers in the workspace.

use vflash_nand::{NandDevice, Nanos};

use crate::batch::BatchCompletion;
use crate::error::FtlError;
use crate::io::{Completion, IoRequest};
use crate::metrics::FtlMetrics;
use crate::types::Lpn;

/// A flash translation layer that the trace-driven simulator can exercise.
///
/// [`crate::FtlCore`] implements it for every placement — the conventional baseline
/// ([`crate::ConventionalFtl`]) and the PPB strategy (`vflash_ppb::PpbFtl`) alike —
/// which is what makes the paper's "conventional FTL vs FTL with PPB strategy"
/// comparison a one-line swap in the experiment harness.
///
/// # Submission/completion model
///
/// The required request entry point is [`submit`](FlashTranslationLayer::submit):
/// one [`IoRequest`] in, one [`Completion`] out, carrying the host latency, the
/// timed device operations charged (with their chips, when
/// [op tracing](NandDevice::set_op_tracing) is enabled) and the GC attribution.
/// The scalar [`read`](FlashTranslationLayer::read) and
/// [`write`](FlashTranslationLayer::write) methods are default-implemented
/// wrappers over `submit`.
///
/// The trait is object-safe so harness code can hold `Box<dyn FlashTranslationLayer>`.
pub trait FlashTranslationLayer {
    /// A short human-readable name used in experiment reports
    /// (e.g. `"conventional"`, `"ppb"`).
    fn name(&self) -> &str;

    /// Number of logical pages exported to the host.
    fn logical_pages(&self) -> u64;

    /// Serves one submitted single-page request and returns its completion.
    ///
    /// The completion's `ops` list is populated only while the underlying device
    /// has op tracing enabled (see [`NandDevice::set_op_tracing`]); with tracing
    /// off the implementation must not pay for provenance collection.
    ///
    /// # Errors
    ///
    /// * [`FtlError::LpnOutOfRange`] if the request's LPN is beyond the exported
    ///   capacity.
    /// * [`FtlError::UnmappedRead`] for reads of never-written pages.
    /// * [`FtlError::OutOfSpace`] for writes when garbage collection cannot free
    ///   any space.
    /// * [`FtlError::ReadOnly`] for writes once bad-block growth has exhausted the
    ///   spare capacity (fault injection only).
    ///
    /// # Example
    ///
    /// ```
    /// use vflash_ftl::{ConventionalFtl, FlashTranslationLayer, FtlConfig, IoRequest, Lpn};
    /// use vflash_nand::{NandConfig, NandDevice, Nanos};
    ///
    /// # fn main() -> Result<(), vflash_ftl::FtlError> {
    /// let device = NandDevice::new(NandConfig::small());
    /// let mut ftl = ConventionalFtl::new(device, FtlConfig::default())?;
    ///
    /// let write = ftl.submit(IoRequest::write(Lpn(7), 4096))?;
    /// let read = ftl.submit(IoRequest::read(Lpn(7)))?;
    /// assert!(write.latency > read.latency, "programs cost more than reads");
    /// // Provenance is only collected while op tracing is enabled.
    /// assert!(read.ops.is_empty());
    /// ftl.device_mut().set_op_tracing(true);
    /// let traced = ftl.submit(IoRequest::read(Lpn(7)))?;
    /// assert_eq!(traced.ops.len(), 1, "one timed device op, with its chip");
    /// // The span resolves against the device's op arena.
    /// assert_eq!(ftl.device().ops(traced.ops)[0].latency, traced.latency);
    /// # Ok(())
    /// # }
    /// ```
    fn submit(&mut self, request: IoRequest) -> Result<Completion, FtlError>;

    /// Serves a host read of one logical page, returning the latency charged to the
    /// host. Wrapper over [`submit`](FlashTranslationLayer::submit).
    ///
    /// # Errors
    ///
    /// * [`FtlError::LpnOutOfRange`] if `lpn` is beyond the exported capacity.
    /// * [`FtlError::UnmappedRead`] if the page has never been written.
    fn read(&mut self, lpn: Lpn) -> Result<Nanos, FtlError> {
        self.submit(IoRequest::read(lpn)).map(|completion| completion.latency)
    }

    /// Serves a host write of one logical page, returning the latency charged to the
    /// host (including any garbage-collection time incurred). Wrapper over
    /// [`submit`](FlashTranslationLayer::submit).
    ///
    /// `request_bytes` is the size of the *original* host request this page write
    /// belongs to; first-stage hot/cold classifiers such as the request-size check use
    /// it as their hint.
    ///
    /// # Errors
    ///
    /// * [`FtlError::LpnOutOfRange`] if `lpn` is beyond the exported capacity.
    /// * [`FtlError::OutOfSpace`] if garbage collection cannot free any space.
    fn write(&mut self, lpn: Lpn, request_bytes: u32) -> Result<Nanos, FtlError> {
        self.submit(IoRequest::write(lpn, request_bytes)).map(|completion| completion.latency)
    }

    /// Serves a batch of requests submitted together — a queue-depth window —
    /// and returns the completions of those it applied.
    ///
    /// The requests are served **in submission order** through
    /// [`submit`](FlashTranslationLayer::submit), so mapping updates, GC
    /// triggers, fault draws and per-request attribution are bit-identical to
    /// submitting each request alone: batching never changes device state. Nor
    /// does it decide time: the completions carry their op spans as scalar
    /// `submit` returns them — live while the device has
    /// [op tracing](NandDevice::set_op_tracing) on — for the caller's lane
    /// (`vflash_sim::LaneState::play_window`) to play onto the device's chip
    /// clocks. What a batch adds is the count:
    /// [`note_batch`](FlashTranslationLayer::note_batch) hears once how many
    /// pages it applied.
    ///
    /// # Errors
    ///
    /// A request the FTL refuses ends the batch, and its error comes back
    /// *inside* the completion ([`BatchCompletion::refused`]) beside the
    /// completions of the requests before it: those were applied, as if
    /// submitted serially, and the caller has to account for them. The default
    /// implementation never returns `Err`.
    fn submit_batch(&mut self, requests: &[IoRequest]) -> Result<BatchCompletion, FtlError> {
        let mut batch =
            BatchCompletion { completions: Vec::with_capacity(requests.len()), refused: None };
        for &request in requests {
            match self.submit(request) {
                Ok(completion) => batch.completions.push(completion),
                Err(error) => {
                    batch.refused = Some(error);
                    break;
                }
            }
        }
        if !batch.completions.is_empty() {
            self.note_batch(batch.completions.len() as u64);
        }
        Ok(batch)
    }

    /// Bookkeeping hook called once per
    /// [`submit_batch`](FlashTranslationLayer::submit_batch) that applied at
    /// least one page request, with their number. FTLs that keep
    /// [`FtlMetrics`] override this to bump the batching counters; the default
    /// is a no-op so minimal implementations stay minimal.
    fn note_batch(&mut self, _pages: u64) {}

    /// Hints how many write lanes the host keeps in flight. An FTL that honors
    /// the hint keeps up to `lanes` active blocks open for the host write
    /// stream and rotates consecutive page programs across them; because the
    /// device's free-list hands out blocks round-robin across chips, the lanes
    /// land on different dies and the consecutive writes of a [`submit_batch`]
    /// overlap on the lane's per-chip clocks instead of serializing behind a
    /// single active block.
    ///
    /// `lanes == 1` must reproduce the unstriped placement bit-for-bit — it is
    /// the default, and hosts submitting at queue depth 1 never call this. The
    /// default implementation ignores the hint (placement stays unstriped).
    ///
    /// [`submit_batch`]: FlashTranslationLayer::submit_batch
    fn set_write_stripe(&mut self, lanes: usize) {
        let _ = lanes;
    }

    /// Cumulative host and GC metrics.
    fn metrics(&self) -> &FtlMetrics;

    /// Whether the FTL has permanently entered read-only mode because bad-block
    /// growth exhausted the spare capacity. Writes return [`FtlError::ReadOnly`]
    /// from then on; reads are still served. Defaults to `false` for FTLs that do
    /// not model end-of-life.
    fn is_read_only(&self) -> bool {
        false
    }

    /// The underlying device, for wear and state inspection.
    fn device(&self) -> &NandDevice;

    /// Mutable access to the underlying device, for *instrumentation only* —
    /// enabling op tracing, resetting statistics. Callers must not mutate flash
    /// state (program/invalidate/erase) behind the FTL's back: the mapping table
    /// and area bookkeeping would not follow.
    fn device_mut(&mut self) -> &mut NandDevice;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        fn _takes_boxed(_: &mut dyn FlashTranslationLayer) {}
        fn _holds_boxed(_: Box<dyn FlashTranslationLayer>) {}
    }

    /// The default scalar wrappers forward to `submit` and unwrap the latency.
    #[test]
    fn scalar_wrappers_forward_to_submit() {
        struct Recorder {
            metrics: FtlMetrics,
            device: NandDevice,
            submitted: Vec<IoRequest>,
        }
        impl FlashTranslationLayer for Recorder {
            fn name(&self) -> &str {
                "recorder"
            }
            fn logical_pages(&self) -> u64 {
                16
            }
            fn submit(&mut self, request: IoRequest) -> Result<Completion, FtlError> {
                self.submitted.push(request);
                Ok(Completion::new(Nanos::from_micros(7)))
            }
            fn metrics(&self) -> &FtlMetrics {
                &self.metrics
            }
            fn device(&self) -> &NandDevice {
                &self.device
            }
            fn device_mut(&mut self) -> &mut NandDevice {
                &mut self.device
            }
        }

        let mut ftl = Recorder {
            metrics: FtlMetrics::new(),
            device: NandDevice::new(vflash_nand::NandConfig::small()),
            submitted: Vec::new(),
        };
        assert_eq!(ftl.read(Lpn(3)).unwrap(), Nanos::from_micros(7));
        assert_eq!(ftl.write(Lpn(4), 512).unwrap(), Nanos::from_micros(7));
        assert_eq!(
            ftl.submitted,
            vec![IoRequest::read(Lpn(3)), IoRequest::write(Lpn(4), 512)]
        );
    }
}
