//! The completion of a batched submission.
//!
//! A batch models a host submitting several page requests at once (an SQ-ring
//! doorbell, a queue-depth window). The FTL serves the requests *in submission
//! order* — mapping updates, GC triggers and fault draws are bit-identical to
//! submitting each request alone — and hands back what scalar
//! [`submit`](crate::FlashTranslationLayer::submit) would have: one
//! [`Completion`] per request, op spans live. *When* the batch's operations
//! run is not decided here: the caller's lane (`vflash_sim::LaneState`) plays
//! the spans onto the device's chip clocks, where every other tier's requests
//! are timed too.

use crate::error::FtlError;
use crate::io::Completion;

/// The completion of one batched submission: the scalar completions of the
/// requests the device applied, and the error that stopped it short, if one
/// did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchCompletion {
    /// The completions of the requests applied, in submission order — all of
    /// them, or those before the refused one.
    pub completions: Vec<Completion>,
    /// The error of the first request the FTL refused; that request and the
    /// ones after it were not applied. The applied prefix stays applied —
    /// exactly as if it had been submitted serially — so the caller accounts
    /// for it before it reports this error.
    pub refused: Option<FtlError>,
}
