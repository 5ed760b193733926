//! # vflash-benchmark
//!
//! The repo benchmark: six workloads over the replay engine, the LSM store and
//! the fleet tier, measured on two axes — **host time** (what the simulator
//! costs its user) and **simulated time** (what the modelled device would do,
//! deterministic per seed). An untraced run gives the end-to-end numbers; a
//! separate traced run of the same workload gives the per-layer numbers from
//! spans recorded in this crate's own files. See `README.md` beside this crate.
//!
//! It is a package of its own (empty `[workspace]` table, path dependencies on
//! `../crates/*`), so the root workspace's build, lock file and tests do not
//! know it exists.

#![warn(missing_docs)]

pub mod alloc;
pub mod compare;
pub mod json;
pub mod run;
pub mod span;
pub mod spec;
pub mod stats;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;
