//! Cumulative device statistics.

use crate::time::Nanos;

/// Raw operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Page reads issued.
    pub reads: u64,
    /// Page programs issued.
    pub programs: u64,
    /// Block erases issued.
    pub erases: u64,
}

impl OpCounts {
    /// Total number of page-granularity operations (reads + programs).
    pub fn page_ops(&self) -> u64 {
        self.reads + self.programs
    }
}

/// Cumulative counters and busy time maintained by [`crate::NandDevice`].
///
/// Busy time is the sum of the latencies charged for each operation, i.e. the total
/// time the flash array spent servicing requests (ignoring any queuing above it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceStats {
    /// Operation counts.
    pub counts: OpCounts,
    /// Total time spent in page reads (cell + transfer).
    pub read_time: Nanos,
    /// Total time spent in page programs (cell + transfer).
    pub program_time: Nanos,
    /// Total time spent erasing blocks.
    pub erase_time: Nanos,
}

impl DeviceStats {
    /// A zeroed statistics block.
    pub fn new() -> Self {
        DeviceStats::default()
    }

    /// Total busy time across all operation kinds.
    pub fn busy_time(&self) -> Nanos {
        self.read_time + self.program_time + self.erase_time
    }

    /// Mean read latency, or zero if no reads happened.
    pub fn mean_read_latency(&self) -> Nanos {
        if self.counts.reads == 0 {
            Nanos::ZERO
        } else {
            self.read_time / self.counts.reads
        }
    }

    pub(crate) fn record_read(&mut self, latency: Nanos) {
        self.counts.reads += 1;
        self.read_time += latency;
    }

    pub(crate) fn record_program(&mut self, latency: Nanos) {
        self.counts.programs += 1;
        self.program_time += latency;
    }

    pub(crate) fn record_erase(&mut self, latency: Nanos) {
        self.counts.erases += 1;
        self.erase_time += latency;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_stats_are_zero() {
        let stats = DeviceStats::new();
        assert_eq!(stats.counts.page_ops(), 0);
        assert_eq!(stats.busy_time(), Nanos::ZERO);
        assert_eq!(stats.mean_read_latency(), Nanos::ZERO);
    }

    #[test]
    fn recording_accumulates() {
        let mut stats = DeviceStats::new();
        stats.record_read(Nanos::from_micros(50));
        stats.record_read(Nanos::from_micros(30));
        stats.record_program(Nanos::from_micros(600));
        stats.record_erase(Nanos::from_millis(4));
        assert_eq!(stats.counts.reads, 2);
        assert_eq!(stats.counts.programs, 1);
        assert_eq!(stats.counts.erases, 1);
        assert_eq!(stats.read_time, Nanos::from_micros(80));
        assert_eq!(stats.mean_read_latency(), Nanos::from_micros(40));
        assert_eq!(stats.program_time, Nanos::from_micros(600));
        assert_eq!(
            stats.busy_time(),
            Nanos::from_micros(80) + Nanos::from_micros(600) + Nanos::from_millis(4)
        );
    }
}
