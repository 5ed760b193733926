//! # vflash-trace
//!
//! Block-level I/O workloads for driving the flash simulator.
//!
//! The paper evaluates the PPB strategy with two enterprise traces collected by
//! Microsoft Research Cambridge: a *media server* trace and a *web/SQL server* trace.
//! Those traces are not redistributable, so this crate provides two things:
//!
//! * [`msr`] — a parser for the MSR-Cambridge CSV format, so the original traces can
//!   be dropped in when available, and
//! * [`synthetic`] — seeded synthetic generators ([`synthetic::media_server`],
//!   [`synthetic::web_sql_server`]) that reproduce the statistical character the PPB
//!   mechanism is sensitive to: request-size mix, read/write ratio, sequentiality and
//!   — most importantly — the skew of re-access frequency (hot/cold behaviour).
//!
//! A workload is just a [`Trace`]: an ordered list of [`IoRequest`]s plus derived
//! [`TraceStats`]. Every 64 requests (a chunk) are bit-packed under a 40-byte
//! header holding their earliest arrival, lowest offset and shortest length:
//! each request is its differences from those, each field as wide as the
//! chunk's largest difference needs, with the trailing zeros all offsets (all
//! lengths) share dropped — 5.5 to 7.7 bytes per request for the stock
//! traces, at most 161 bits for any request. The last requests, fewer than
//! 64, wait unpacked in the trace until the 64th arrives. Requests come out
//! by value ([`Trace::iter`], [`Trace::get`]); the generators and the parser
//! push straight into a [`Trace::with_capacity`], so no wider copy exists
//! while a trace is built. A replay reads a [`TraceSlice`], which
//! [`TraceSlice::split_at`] cuts (a warm-up prefix, a measured suffix)
//! without copying.
//!
//! # Example
//!
//! ```
//! use vflash_trace::{synthetic, IoOp};
//!
//! let trace = synthetic::web_sql_server(synthetic::SyntheticConfig {
//!     requests: 1_000,
//!     seed: 7,
//!     ..Default::default()
//! });
//! assert_eq!(trace.len(), 1_000);
//! let stats = trace.stats();
//! assert!(stats.reads + stats.writes == 1_000);
//! assert!(trace.iter().any(|r| r.op == IoOp::Read));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod msr;
pub mod synthetic;

mod request;
mod stats;
mod zipf;

pub use request::{IoOp, IoRequest, PageSplitter, Trace, TraceIter, TraceSlice};
pub use stats::TraceStats;
pub use zipf::Zipf;
