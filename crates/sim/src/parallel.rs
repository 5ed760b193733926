//! Fan-out of independent runs over threads.
//!
//! The paper's evaluation replays every trace against every FTL along several
//! axes — lists of completely independent simulations. [`ParallelRunner`] maps
//! a function over any such list on `std::thread` workers that claim items
//! from one shared cursor, so heterogeneous costs (a PPB media-server run
//! costs several times a conventional web run) balance without a cost model.
//! A run is a pure function of its [`RunSpec`] and results are collected by
//! index, so the output is **bit-identical** at every worker count — only the
//! wall-clock time changes. [`ExperimentGrid`] is an ordered spec list with
//! the two enumerations that have a use beyond one table.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use vflash_ftl::FtlError;

use crate::engine::ArrivalDiscipline;
use crate::experiments::{
    run_spec, ExperimentScale, FtlKind, RunSpec, Workload, FLEET_SIZES, SERIAL,
};
use crate::report::RunSummary;

/// An ordered list of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentGrid {
    /// The runs, in the order their results come back.
    pub specs: Vec<RunSpec<'static>>,
}

impl ExperimentGrid {
    /// The paper's evaluation at one scale: both workloads × both FTLs (FTLs
    /// innermost), 16 KB pages, 2x speed difference, queue depth 1.
    ///
    /// # Example
    ///
    /// ```
    /// use vflash_sim::experiments::ExperimentScale;
    /// use vflash_sim::ExperimentGrid;
    ///
    /// let grid = ExperimentGrid::full(ExperimentScale::quick());
    /// assert_eq!(grid.specs.len(), 4); // 2 workloads x 2 FTLs
    /// ```
    pub fn full(scale: ExperimentScale) -> Self {
        ExperimentGrid::enumerate(scale, &[1], SERIAL)
    }

    /// The host-tier fleet sweep: [`FLEET_SIZES`] (1, 2, 4, 8 devices) ×
    /// workloads × FTLs, open-loop at the trace's own rate (rate scale 1) so
    /// offered vs achieved IOPS is meaningful per width — fan-out tail
    /// amplification is a latency-under-load question. Every spec takes the
    /// scale's seed, so the widths (and the two FTLs) replay the *same* trace
    /// and differ only in striping. Its executor is `vflash_fleet::run_fleet_cell`
    /// on [`ParallelRunner::map`]; [`ParallelRunner::run`] refuses the widths
    /// above 1.
    pub fn fleet_sweep(scale: ExperimentScale) -> Self {
        ExperimentGrid::enumerate(scale, &FLEET_SIZES, ArrivalDiscipline::OpenLoop { rate_scale: 1.0 })
    }

    fn enumerate(scale: ExperimentScale, widths: &[usize], discipline: ArrivalDiscipline) -> Self {
        let mut specs = Vec::new();
        for &fleet_width in widths {
            for workload in Workload::ALL {
                for ftl in FtlKind::ALL {
                    specs.push(RunSpec { ftl, discipline, fleet_width, ..RunSpec::new(workload, scale) });
                }
            }
        }
        ExperimentGrid { specs }
    }
}

/// Maps a function over a slice on `std::thread` workers.
///
/// Workers claim the next unclaimed index from one shared cursor, so claims
/// are made in index order and nobody idles while work remains. Results come
/// back in input order, independent of thread scheduling, and identical to
/// [`ParallelRunner::run_serial`].
///
/// # Example
///
/// ```
/// use vflash_sim::experiments::ExperimentScale;
/// use vflash_sim::{ExperimentGrid, ParallelRunner};
///
/// let scale = ExperimentScale { requests: 200, ..ExperimentScale::quick() };
/// let grid = ExperimentGrid::full(scale);
/// let results = ParallelRunner::new(2).run(&grid).unwrap();
/// assert_eq!(results.len(), 4); // 2 workloads x 2 FTLs
/// assert_eq!(results, ParallelRunner::run_serial(&grid).unwrap());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelRunner {
    threads: usize,
}

impl ParallelRunner {
    /// Creates a runner with the given worker count (at least one).
    pub fn new(threads: usize) -> Self {
        ParallelRunner { threads: threads.max(1) }
    }

    /// Creates a runner sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        ParallelRunner::new(thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Calls `run` once per item and returns the results in input order,
    /// bit-identical at every worker count.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing item. A failure stops
    /// workers from claiming further items (in-flight ones still finish), so a
    /// misconfigured list does not burn through the remaining work.
    pub fn map<T, R, E, G>(&self, items: &[T], run: G) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        G: Fn(&T) -> Result<R, E> + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items.iter().map(run).collect();
        }
        // The cursor only hands out indices and the flag only stops claims;
        // results travel through the slots, read after the scope has joined.
        let cursor = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let slots: Vec<Mutex<Option<Result<R, E>>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while !failed.load(Ordering::Relaxed) {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else { break };
                        let result = run(item);
                        if result.is_err() {
                            failed.store(true, Ordering::Relaxed);
                        }
                        *slots[index].lock().expect("result slot poisoned") = Some(result);
                    }
                });
            }
        });
        // Claims are made in index order and every claimed item finishes, so
        // the slots below the lowest-indexed error are all filled: collecting
        // stops at that error before it can reach a slot an abort left empty.
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("an unclaimed slot lies above a failed one")
            })
            .collect()
    }

    /// Runs every spec of `grid` on a single device each ([`run_spec`]).
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing spec.
    pub fn run(&self, grid: &ExperimentGrid) -> Result<Vec<RunSummary>, FtlError> {
        self.map(&grid.specs, run_spec)
    }

    /// [`ParallelRunner::run`] on the calling thread: the reference the
    /// parallel path must match bit for bit.
    ///
    /// # Errors
    ///
    /// Returns the error of the first failing spec.
    pub fn run_serial(grid: &ExperimentGrid) -> Result<Vec<RunSummary>, FtlError> {
        ParallelRunner::new(1).run(grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Classifier;
    use vflash_nand::FaultConfig;
    use vflash_trace::synthetic::ArrivalModel;

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale {
            requests: 300,
            working_set_bytes: 8 * 1024 * 1024,
            chips: 2,
            ..ExperimentScale::quick()
        }
    }

    #[test]
    fn grids_enumerate_widths_then_workloads_then_ftls() {
        let full = ExperimentGrid::full(tiny_scale()).specs;
        assert_eq!(full.len(), 4);
        assert_eq!(full.iter().map(|spec| spec.ftl).collect::<Vec<_>>(), FtlKind::ALL.repeat(2));
        assert_eq!(full[0].source, full[1].source);
        assert_ne!(full[1].source, full[2].source);
        assert!(full.iter().all(|spec| spec.fleet_width == 1 && spec.discipline == SERIAL));

        let fleet = ExperimentGrid::fleet_sweep(tiny_scale()).specs;
        assert_eq!(fleet.len(), 16);
        for (index, spec) in fleet.iter().enumerate() {
            assert_eq!(spec.discipline, ArrivalDiscipline::OpenLoop { rate_scale: 1.0 });
            assert_eq!(spec.fleet_width, FLEET_SIZES[index / 4]);
            // One seed rule: width and FTL are not part of the seed.
            assert_eq!(spec.scale, tiny_scale());
            assert_eq!(RunSpec { fleet_width: 1, discipline: SERIAL, ..*spec }, full[index % 4]);
        }
    }

    #[test]
    fn results_come_back_in_spec_order() {
        let grid = ExperimentGrid::full(tiny_scale());
        let results = ParallelRunner::run_serial(&grid).unwrap();
        for (spec, summary) in grid.specs.iter().zip(&results) {
            assert_eq!(summary.ftl, spec.ftl.label());
            assert_eq!(summary.trace, spec.source.label());
            assert!(summary.host_writes + summary.host_reads > 0);
        }
        // Both FTLs of a workload replayed the same trace.
        assert_eq!(results[0].host_reads, results[1].host_reads);
        assert_eq!(results[2].host_writes, results[3].host_writes);
    }

    #[test]
    fn parallel_results_match_serial_byte_for_byte() {
        let grid = ExperimentGrid::full(tiny_scale());
        let serial = ParallelRunner::run_serial(&grid).unwrap();
        let parallel = ParallelRunner::new(4).run(&grid).unwrap();
        assert_eq!(serial, parallel);
        // Bit-identical also in the rendered form (what files and reports contain).
        let render = |results: &[RunSummary]| {
            results.iter().map(|r| format!("{:?}\n", r)).collect::<String>()
        };
        assert_eq!(render(&serial).into_bytes(), render(&parallel).into_bytes());
    }

    /// One of everything a section varies: a fault-injected run, a warm-up, a
    /// non-default classifier, a bursty open-loop run and a queued closed-loop
    /// run.
    fn mixed_specs() -> Vec<RunSpec<'static>> {
        let base = RunSpec::new(Workload::WebSqlServer, ExperimentScale { requests: 200, ..tiny_scale() });
        // Read-retry-only faults (program/erase failures off): the fault model
        // fires without driving the tiny device to end of life mid-replay.
        let faults = FaultConfig {
            rber_scale: 40.0,
            program_fail_base: 0.0,
            erase_fail_base: 0.0,
            ..FaultConfig::enabled(0xFA17)
        };
        vec![
            RunSpec { faults: Some(faults), ..base },
            RunSpec { warmup_fraction: 0.5, ..base }.on(FtlKind::Ppb),
            RunSpec { classifier: Classifier::TwoLevelLru, speed_ratio: 4.0, ..base }.on(FtlKind::Ppb),
            RunSpec {
                source: Workload::MediaServer.into(),
                discipline: ArrivalDiscipline::OpenLoop { rate_scale: 1.0 },
                arrival: ArrivalModel::Pareto { shape: 1.5, mean_iops: 2_000.0 },
                ..base
            },
            RunSpec { discipline: ArrivalDiscipline::ClosedLoop { queue_depth: 16 }, ..base },
        ]
    }

    #[test]
    fn a_mixed_spec_list_is_bit_identical_at_every_worker_count() {
        let specs = mixed_specs();
        let reference = ParallelRunner::new(1).map(&specs, run_spec).unwrap();
        assert!(reference[0].retried_reads > 0, "the faulty run must exercise read retries");
        assert!(reference[1..].iter().all(|run| run.retried_reads == 0 && run.bad_blocks_grown == 0));
        assert_eq!(reference[1].host_requests, 100, "half the trace is warm-up");
        assert_eq!(reference[1].ftl, "ppb");
        assert!(reference[3].offered_iops() > 0.0);
        assert_eq!(reference[4].queue_depth, 16);
        for workers in [2, 5, 32] {
            let parallel = ParallelRunner::new(workers).map(&specs, run_spec).unwrap();
            assert_eq!(parallel, reference, "{workers} workers diverged from one");
        }
    }

    #[test]
    fn a_failing_spec_in_the_middle_is_the_error_at_every_worker_count() {
        // Headroom below 1.0 builds a device smaller than the working set, so
        // the prefill of that spec runs out of space.
        let mut specs = mixed_specs();
        let broken = ExperimentScale { capacity_headroom: 0.5, ..tiny_scale() };
        specs[2] = RunSpec { scale: broken, source: Workload::MediaServer.into(), ..specs[2] };
        specs[4] = RunSpec { faults: Some(FaultConfig { rber_scale: -1.0, ..FaultConfig::enabled(1) }), ..specs[4] };
        for workers in [1, 2, 5, 32] {
            let outcome = ParallelRunner::new(workers).map(&specs, run_spec);
            assert!(
                matches!(outcome, Err(FtlError::OutOfSpace)),
                "{workers} workers: the lowest-indexed failure is spec 2's OutOfSpace, got {outcome:?}"
            );
        }
        let grid = ExperimentGrid::full(broken);
        assert!(matches!(ParallelRunner::run_serial(&grid), Err(FtlError::OutOfSpace)));
        assert!(matches!(ParallelRunner::new(4).run(&grid), Err(FtlError::OutOfSpace)));
    }

    #[test]
    fn a_fleet_sweep_is_refused_by_the_single_device_runner() {
        // `run_spec` used to ignore the width: every row came back a
        // single-device run labelled with a width of 2 to 8.
        let grid = ExperimentGrid::fleet_sweep(ExperimentScale { requests: 50, ..tiny_scale() });
        for workers in [1, 4] {
            let outcome = ParallelRunner::new(workers).run(&grid);
            assert!(matches!(outcome, Err(FtlError::InvalidConfig { .. })), "{outcome:?}");
        }
    }

    #[test]
    fn a_failure_stops_later_claims() {
        // Item 3 fails at once; every other item yields the core. Were the
        // failure flag ignored, all 10,000 items would run.
        let items: Vec<usize> = (0..10_000).collect();
        for workers in [1, 2, 5, 32] {
            let calls = AtomicUsize::new(0);
            let outcome = ParallelRunner::new(workers).map(&items, |&item| {
                calls.fetch_add(1, Ordering::Relaxed);
                if item == 3 {
                    return Err(FtlError::ReadOnly);
                }
                thread::yield_now();
                Ok(item)
            });
            assert!(matches!(outcome, Err(FtlError::ReadOnly)));
            let calls = calls.into_inner();
            assert!(calls >= 4 && calls < items.len(), "{workers} workers ran {calls} items");
            if workers == 1 {
                assert_eq!(calls, 4, "the serial path stops at the failure");
            }
        }
    }

    #[test]
    fn map_keeps_input_order_for_any_function() {
        let items: Vec<usize> = (0..100).collect();
        let square = |&item: &usize| Ok::<_, FtlError>(item * item);
        let serial = ParallelRunner::new(1).map(&items, square).unwrap();
        assert_eq!(serial[7], 49);
        for workers in [2, 3, 5, 32] {
            assert_eq!(ParallelRunner::new(workers).map(&items, square).unwrap(), serial);
        }
        let none: [usize; 0] = [];
        assert!(ParallelRunner::new(8).map(&none, square).unwrap().is_empty());
        assert_eq!(ParallelRunner::new(0), ParallelRunner::new(1), "zero threads is clamped");
    }
}
