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
//! [`TraceStats`]. Every 64 requests (a chunk) share a 16-byte header holding
//! the first one's arrival. In a *compact* chunk a request is one 8-byte word:
//! its arrival's offset from that base (below 2^24 ns, 16.8 ms), a 35-bit byte
//! offset, `log2` of its power-of-two length (512 bytes to 16 MiB) and the op.
//! A chunk with a request that does not fit is *narrow*, 12 bytes per request:
//! one word packing a 40-bit offset, `length - 1` in 23 bits and the op, then a
//! 32-bit arrival offset from the base. A chunk that holds an arrival before
//! its first, or 2^32 ns (4.3 s) or more after it, is *far*: it keeps its
//! arrivals' high halves beside it, at 16 bytes per request. A request that
//! does not pack (an offset from `2^40 - 1` up, about 1 TiB; a length over
//! `2^23` bytes, 8 MiB) is kept whole in a side table, 24 bytes more. Requests come out
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
