//! The bookkeeping types as they were before they went hash-free and O(1), kept as
//! the models the differential tests compare the current types against.
#![allow(dead_code)]

pub mod cold_area;
pub mod hot_area;
pub mod lru;
pub mod placement;
