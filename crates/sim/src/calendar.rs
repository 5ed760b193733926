//! The host calendar: *when* each request is issued and when it leaves.
//!
//! This is the host half of the timing core (the device half is
//! [`LaneState`](crate::LaneState)). One [`HostCalendar`] serves a whole
//! [`WorkloadDriver`](crate::WorkloadDriver) run, whether it drives one device
//! or a striped fleet of them (`vflash-fleet`'s `Fleet`), and owns the two
//! things every tier must agree on:
//!
//! * **The issue rule** of the [`ArrivalDiscipline`]. Closed loop: a request
//!   waits for a queue slot, i.e. issues at the earliest pending completion
//!   once `queue_depth` requests are in flight. Open loop: a request issues at
//!   its trace-recorded arrival time, scaled by `rate_scale` and rebased
//!   against the trace's first arrival; the first and latest arrival seen give
//!   the run's `offered_duration`.
//! * **The completion heap**: host-completion instants, drained earliest-first.
//!   Every issue retires the completions at or before it; what remains is the
//!   queue the arrival joins, which is the quantity behind `peak_queue_depth`
//!   and `busy_arrivals`.
//!
//! Why one heap serves both the slot wait and the retirement sweep: every
//! completion pushed is `>=` every value popped before it (a completion ends at
//! or after its issue instant, which is at or after the clock, which is the
//! maximum of everything popped so far). Both consumers therefore remove
//! elements globally smallest-first from the same multiset, so they interleave
//! without ever disagreeing about which completion is earliest.
//!
//! Per-chip ready clocks are *not* here: an op needs its own chip's
//! availability, which is device state, so each lane carries its own
//! [`ChipClocks`](vflash_nand::ChipClocks).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use vflash_nand::Nanos;

use crate::engine::ArrivalDiscipline;

/// Scales a trace arrival timestamp by the open-loop rate multiplier.
fn scale_arrival(at_nanos: u64, rate_scale: f64) -> Nanos {
    if rate_scale == 1.0 {
        Nanos(at_nanos)
    } else {
        Nanos((at_nanos as f64 / rate_scale).round() as u64)
    }
}

/// The first and the latest arrival instant seen so far; their distance is the
/// duration over which load was offered.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ArrivalWindow {
    first: Option<Nanos>,
    last: Nanos,
}

impl ArrivalWindow {
    /// Widens the window to cover `arrival`; returns the first arrival.
    #[inline]
    pub(crate) fn observe(&mut self, arrival: Nanos) -> Nanos {
        if arrival > self.last {
            self.last = arrival;
        }
        *self.first.get_or_insert(arrival)
    }

    pub(crate) fn duration(&self) -> Nanos {
        self.last.saturating_sub(self.first.unwrap_or(Nanos::ZERO))
    }
}

/// When one request enters the system, as decided by [`HostCalendar::issue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Issue {
    /// The instant the request is issued on the replay clock.
    pub at: Nanos,
    /// The request's scaled (not rebased) arrival time under open loop; zero
    /// under closed loop, where arrival timestamps are ignored.
    pub arrival: Nanos,
}

/// The issue rule of one [`ArrivalDiscipline`] over the heap of pending host
/// completions, with the backlog statistics that fall out of draining it.
#[derive(Debug, Clone)]
pub struct HostCalendar {
    discipline: ArrivalDiscipline,
    /// Pending host completions, popped earliest-first.
    completions: BinaryHeap<Reverse<Nanos>>,
    /// The closed-loop issue clock: never moves backwards, so issue order is
    /// preserved.
    clock: Nanos,
    arrivals: ArrivalWindow,
    /// Largest number of host completions pending right after one was
    /// scheduled — the peak backlog.
    peak_outstanding: usize,
    /// Arrivals that found at least one earlier request still outstanding.
    busy_arrivals: u64,
}

impl HostCalendar {
    /// An empty calendar for a run under `discipline`.
    pub fn new(discipline: ArrivalDiscipline) -> Self {
        // Closed loop never holds more than the queue depth; nothing bounds
        // open loop, so its presize is a guess.
        let capacity = match discipline {
            ArrivalDiscipline::ClosedLoop { queue_depth } => queue_depth,
            ArrivalDiscipline::OpenLoop { .. } => 64,
        };
        HostCalendar {
            discipline,
            completions: BinaryHeap::with_capacity(capacity),
            clock: Nanos::ZERO,
            arrivals: ArrivalWindow::default(),
            peak_outstanding: 0,
            busy_arrivals: 0,
        }
    }

    /// Decides when the next request (trace timestamp `at_nanos`) is issued,
    /// retires every completion at or before that instant, and counts the
    /// arrival as *busy* if any earlier request is still outstanding afterwards.
    #[inline]
    pub fn issue(&mut self, at_nanos: u64) -> Issue {
        let issue = match self.discipline {
            ArrivalDiscipline::ClosedLoop { queue_depth } => {
                // Wait for a queue slot: at full depth the issue time is the
                // earliest pending completion. Below full depth — retirement
                // already drained the backlog — that earliest completion
                // preceded an earlier issue and the clock already covers it.
                if self.completions.len() >= queue_depth {
                    let Reverse(freed) =
                        self.completions.pop().expect("queue depth is at least 1");
                    if freed > self.clock {
                        self.clock = freed;
                    }
                }
                Issue { at: self.clock, arrival: Nanos::ZERO }
            }
            ArrivalDiscipline::OpenLoop { rate_scale } => {
                // The trace-recorded arrival time, compressed or stretched by
                // the rate scale. Nothing bounds how many requests are
                // outstanding — that is what "open loop" means. Issue times are
                // rebased against the trace's first arrival: a subset cut from
                // the middle of an MSR file keeps file-relative timestamps
                // (deliberately — see `msr::SubsetOptions`), and without the
                // rebase that offset would count as replay time and deflate the
                // achieved IOPS.
                let arrival = scale_arrival(at_nanos, rate_scale);
                let base = self.arrivals.observe(arrival);
                Issue { at: arrival.saturating_sub(base), arrival }
            }
        };
        while self.completions.peek().is_some_and(|&Reverse(at)| at <= issue.at) {
            self.completions.pop();
        }
        if !self.completions.is_empty() {
            self.busy_arrivals += 1;
        }
        issue
    }

    /// Schedules a host completion at `at` and tracks the peak backlog.
    #[inline]
    pub fn schedule_completion(&mut self, at: Nanos) {
        self.completions.push(Reverse(at));
        if self.completions.len() > self.peak_outstanding {
            self.peak_outstanding = self.completions.len();
        }
    }

    /// The peak backlog observed so far.
    pub fn peak_outstanding(&self) -> usize {
        self.peak_outstanding
    }

    /// Arrivals so far that found the system busy.
    pub fn busy_arrivals(&self) -> u64 {
        self.busy_arrivals
    }

    /// Distance between the first and the latest open-loop arrival (zero under
    /// closed loop).
    pub fn offered_duration(&self) -> Nanos {
        self.arrivals.duration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed(queue_depth: usize) -> HostCalendar {
        HostCalendar::new(ArrivalDiscipline::ClosedLoop { queue_depth })
    }

    fn open() -> HostCalendar {
        HostCalendar::new(ArrivalDiscipline::OpenLoop { rate_scale: 1.0 })
    }

    #[test]
    fn arrival_scaling_is_exact_at_unit_rate() {
        assert_eq!(scale_arrival(123_456, 1.0), Nanos(123_456));
        assert_eq!(scale_arrival(1_000, 2.0), Nanos(500));
        assert_eq!(scale_arrival(1_000, 0.5), Nanos(2_000));
    }

    #[test]
    fn slot_waits_pop_completions_earliest_first() {
        let mut calendar = closed(3);
        for at in [30u64, 10, 20] {
            calendar.schedule_completion(Nanos(at));
        }
        // At full depth each issue waits for the earliest pending completion;
        // the trace timestamp is ignored.
        assert_eq!(calendar.issue(999).at, Nanos(10));
        calendar.schedule_completion(Nanos(40));
        assert_eq!(calendar.issue(0).at, Nanos(20));
        calendar.schedule_completion(Nanos(50));
        assert_eq!(calendar.issue(0), Issue { at: Nanos(30), arrival: Nanos::ZERO });
        assert_eq!(calendar.offered_duration(), Nanos::ZERO);
    }

    #[test]
    fn issue_retires_due_completions_and_counts_busy_arrivals() {
        let mut calendar = open();
        calendar.schedule_completion(Nanos(100));
        calendar.schedule_completion(Nanos(200));
        assert_eq!(calendar.issue(0).at, Nanos::ZERO);
        assert_eq!(calendar.busy_arrivals(), 1);
        // Arrival at t=100 retires the t=100 completion (<=) but finds t=200
        // still pending: a busy arrival.
        calendar.issue(100);
        assert_eq!(calendar.completions.len(), 1);
        assert_eq!(calendar.busy_arrivals(), 2);
        // Arrival at t=500 drains everything: an idle arrival.
        calendar.issue(500);
        assert_eq!(calendar.completions.len(), 0);
        assert_eq!(calendar.busy_arrivals(), 2);
    }

    #[test]
    fn peak_outstanding_tracks_the_backlog_high_water_mark() {
        let mut calendar = open();
        calendar.issue(0);
        calendar.schedule_completion(Nanos(10));
        calendar.schedule_completion(Nanos(20));
        calendar.schedule_completion(Nanos(30));
        assert_eq!(calendar.peak_outstanding(), 3);
        calendar.issue(25);
        assert_eq!(calendar.completions.len(), 1);
        assert_eq!(calendar.peak_outstanding(), 3, "the peak never decays");
    }

    #[test]
    fn open_loop_issues_rebase_against_the_first_arrival() {
        let mut calendar = HostCalendar::new(ArrivalDiscipline::OpenLoop { rate_scale: 2.0 });
        assert_eq!(calendar.issue(1_000), Issue { at: Nanos::ZERO, arrival: Nanos(500) });
        assert_eq!(calendar.issue(3_000), Issue { at: Nanos(1_000), arrival: Nanos(1_500) });
        assert_eq!(calendar.offered_duration(), Nanos(1_000));
    }
}
