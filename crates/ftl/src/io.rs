//! The submission/completion I/O types of the [`FlashTranslationLayer`] trait.
//!
//! The original trait was a synchronous scalar interface (`read(lpn) -> Nanos`,
//! `write(lpn) -> Nanos`): one page in, one latency out. That shape cannot express
//! queue depth — a replayer holding several requests in flight needs to know *which
//! chips* a request kept busy (so independent requests on different chips can
//! overlap) and *why* the latency was what it was (GC attribution). [`IoRequest`]
//! and [`Completion`] carry exactly that, and the scalar `read`/`write` methods are
//! now thin default-implemented wrappers over
//! [`submit`](FlashTranslationLayer::submit).
//!
//! [`FlashTranslationLayer`]: crate::FlashTranslationLayer
//! [`FlashTranslationLayer::submit`]: crate::FlashTranslationLayer::submit

use vflash_nand::{Nanos, OpSpan};

use crate::gc::GcOutcome;
use crate::types::Lpn;

/// What a submitted request asks the FTL to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoCommand {
    /// Read one logical page.
    Read,
    /// Write one logical page. `request_bytes` is the size of the original host
    /// request this page write belongs to; first-stage hot/cold classifiers such as
    /// the request-size check use it as their hint.
    Write {
        /// Size of the original host request in bytes.
        request_bytes: u32,
    },
}

/// A single-page I/O request submitted to an FTL.
///
/// Requests address one logical page each; a multi-page host request is submitted
/// as a chain of page requests (the replayer keeps the chain together so its
/// completion latency is the chain's span).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IoRequest {
    /// The logical page addressed.
    pub lpn: Lpn,
    /// Read or write (with the host-request-size hint).
    pub command: IoCommand,
}

impl IoRequest {
    /// A read of `lpn`.
    pub fn read(lpn: Lpn) -> Self {
        IoRequest { lpn, command: IoCommand::Read }
    }

    /// A write of `lpn` belonging to a host request of `request_bytes` bytes.
    pub fn write(lpn: Lpn, request_bytes: u32) -> Self {
        IoRequest { lpn, command: IoCommand::Write { request_bytes } }
    }

    /// Whether this is a write request.
    pub fn is_write(&self) -> bool {
        matches!(self.command, IoCommand::Write { .. })
    }
}

/// The completion of one submitted request.
///
/// Beyond the host latency (what the scalar API returned), a completion reports the
/// *provenance* of that latency: every timed device operation charged to the
/// request — in execution order, each with the chip whose clock it advanced — and
/// the garbage-collection share. `ops` is an [`OpSpan`] — an index range into the
/// device's op arena, resolved with [`vflash_nand::NandDevice::ops`] — so completions are
/// small `Copy` values and the submit path never allocates per request. Op
/// provenance is only collected while the FTL's device has
/// [op tracing](vflash_nand::NandDevice::set_op_tracing) enabled; otherwise the
/// span is empty and the completion costs nothing extra to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Completion {
    /// Total latency charged to the host (garbage-collection time included for
    /// writes). Always equals the sum of the spanned op latencies when op tracing
    /// is on.
    pub latency: Nanos,
    /// The timed device operations performed on the request's behalf, in execution
    /// order, as a span into the device's op arena. Empty unless op tracing is
    /// enabled; stale once the arena is cleared.
    pub ops: OpSpan,
    /// Garbage-collection work triggered by (and charged to) this request: pages
    /// copied, blocks erased and the time share. All-zero for reads and for writes
    /// that did not trigger GC.
    pub gc: GcOutcome,
    /// Read-retry steps the device needed to correct this request's host read.
    /// Zero for writes and for reads that passed ECC on the first sense. The
    /// retry latency is already folded into `latency`.
    pub read_retries: u32,
    /// Whether the host read exhausted the retry ladder and returned no data.
    /// The FTL still charges the full ladder latency; the data is lost.
    pub uncorrectable: bool,
}

impl Completion {
    /// A completion charging only `latency`, with no GC attribution.
    pub fn new(latency: Nanos) -> Self {
        Completion {
            latency,
            ops: OpSpan::EMPTY,
            gc: GcOutcome::default(),
            read_retries: 0,
            uncorrectable: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_constructors_round_trip() {
        let read = IoRequest::read(Lpn(7));
        assert_eq!(read.lpn, Lpn(7));
        assert_eq!(read.command, IoCommand::Read);
        assert!(!read.is_write());

        let write = IoRequest::write(Lpn(9), 4096);
        assert_eq!(write.command, IoCommand::Write { request_bytes: 4096 });
        assert!(write.is_write());
    }

}
