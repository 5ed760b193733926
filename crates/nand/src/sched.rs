//! Per-chip ready clocks: the chip-parallel scheduling core.
//!
//! Chips are independent dies — operations on different chips overlap in time
//! while operations on the same chip serialise. Everything in the workspace
//! that turns a stream of timed device operations into wall-clock instants
//! goes through one rule: an op starts when both its predecessor in the
//! request chain and its chip are ready, and it advances the chip's clock to
//! its end. [`ChipClocks`] owns that rule; `vflash-sim`'s lane, which every
//! tier plays its pages through, holds a device's one set of them.

use crate::time::Nanos;

/// Per-chip busy-until clocks with the chip-parallel scheduling rule.
///
/// The clocks are resource clocks, not events: an op asks for *its* chip's
/// availability by index, so the structure is a plain vector rather than a
/// heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipClocks {
    ready: Vec<Nanos>,
}

impl ChipClocks {
    /// Clocks for a device with `chips` chips, all ready at time zero.
    pub fn new(chips: usize) -> Self {
        ChipClocks { ready: vec![Nanos::ZERO; chips] }
    }

    /// Number of chips tracked.
    pub fn chips(&self) -> usize {
        self.ready.len()
    }

    /// The instant `chip` becomes free.
    pub fn ready_at(&self, chip: usize) -> Nanos {
        self.ready[chip]
    }

    /// Plays one timed device op: the op starts when both its predecessor
    /// (`now`, the request chain's clock) and its chip are ready, and advances
    /// the chip's clock. Returns the op's end time — the new `now` of the
    /// request chain.
    pub fn play_op(&mut self, chip: usize, now: Nanos, latency: Nanos) -> Nanos {
        let ready = self.ready[chip];
        let start = if ready > now { ready } else { now };
        let end = start + latency;
        self.ready[chip] = end;
        end
    }

    /// The latest busy-until instant across all chips — the completion time of
    /// everything scheduled so far under perfect chip interleaving.
    pub fn makespan(&self) -> Nanos {
        self.ready.iter().copied().max().unwrap_or(Nanos::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_serialise_on_a_chip_and_overlap_across_chips() {
        let mut clocks = ChipClocks::new(2);
        assert_eq!(clocks.chips(), 2);
        // Two ops on chip 0 serialise.
        assert_eq!(clocks.play_op(0, Nanos(0), Nanos(100)), Nanos(100));
        assert_eq!(clocks.play_op(0, Nanos(0), Nanos(50)), Nanos(150), "chip 0 busy until 100");
        // Chip 1 is idle, so an op chained after `now` starts immediately.
        assert_eq!(clocks.play_op(1, Nanos(40), Nanos(10)), Nanos(50));
        assert_eq!(clocks.ready_at(0), Nanos(150));
        assert_eq!(clocks.ready_at(1), Nanos(50));
        assert_eq!(clocks.makespan(), Nanos(150));
    }
}
