//! Multi-threaded execution of the experiment grid.
//!
//! The paper's evaluation replays every trace against every FTL at several scales —
//! a grid of completely independent simulations. [`ExperimentGrid`] enumerates the
//! cells (FTL × workload × scale × arrival discipline, i.e. closed-loop queue
//! depths and open-loop rate scales) and [`ParallelRunner`] fans them out over
//! `std::thread` workers with **work stealing**: a shared injector feeds each
//! worker's deque in batches, and a worker whose deque runs dry steals from the
//! back of a sibling's before giving up. Cell costs are wildly heterogeneous
//! (a PPB media-server cell costs several times a conventional web cell), so
//! stealing keeps every worker busy through the tail of the grid without any
//! up-front cost model. Every cell of one scale takes the scale's workload seed
//! (both FTLs of a comparison replay the same trace), and results
//! are collected by cell index, so the output is **bit-identical** to running
//! the same grid serially — regardless of worker count or steal order, only the
//! wall-clock time changes.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread;

use vflash_ftl::FtlError;
use vflash_nand::FaultConfig;
use vflash_ppb::PpbConfig;
use vflash_trace::synthetic::ArrivalModel;

use crate::engine::ArrivalDiscipline;
use crate::experiments::{
    burst_axis, grid_burst_mean_iops, replay_conventional, replay_ppb, Classifier,
    ExperimentScale, Workload, FLEET_SIZES, QUEUE_DEPTHS, RATE_SCALES,
};
use crate::report::RunSummary;

/// Which flash translation layer a grid cell exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FtlKind {
    /// The conventional page-mapping baseline.
    Conventional,
    /// The paper's FTL with the PPB strategy (default configuration).
    Ppb,
}

impl FtlKind {
    /// Both FTLs, baseline first.
    pub const ALL: [FtlKind; 2] = [FtlKind::Conventional, FtlKind::Ppb];

    /// The label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FtlKind::Conventional => "conventional",
            FtlKind::Ppb => "ppb",
        }
    }
}

/// The experiment grid: every combination of FTL, workload, scale and arrival
/// discipline (closed-loop queue depths, then open-loop rate scales), replayed on
/// a device with the given page size and speed ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentGrid {
    /// FTLs to run.
    pub ftls: Vec<FtlKind>,
    /// Workloads (traces) to replay.
    pub workloads: Vec<Workload>,
    /// Scales to run each FTL × workload pair at.
    pub scales: Vec<ExperimentScale>,
    /// Closed-loop queue depths to replay each cell at (`vec![1]` for the classic
    /// serial grid).
    pub queue_depths: Vec<usize>,
    /// Open-loop rate scales to additionally replay each cell at (empty for the
    /// classic closed-loop-only grid). These cells follow the closed-loop cells
    /// of their scale in enumeration order.
    pub rate_scales: Vec<f64>,
    /// Arrival models to generate each workload's trace with — the burstiness
    /// axis. The default single-element `[ArrivalModel::default()]` reproduces
    /// the historic grids exactly; [`ExperimentGrid::burst_sweep`] populates it
    /// with the shared-mean-rate [`burst_axis`].
    pub arrival_models: Vec<ArrivalModel>,
    /// Flash page size in bytes.
    pub page_size_bytes: usize,
    /// Top/bottom page speed ratio.
    pub speed_ratio: f64,
    /// Fault-injection knobs applied to every cell's device (`None` for the
    /// historic fault-free grids). The [`FaultConfig`] carries its own seed, so
    /// every cell sees the same fault universe and the grid stays bit-identical
    /// across worker counts — the per-cell workload seeds only vary the traffic.
    pub faults: Option<FaultConfig>,
    /// Host-tier fleet widths to replay each cell at (`vec![1]` for the classic
    /// single-device grids; an empty vector is treated as `[1]`). The width is
    /// carried in [`GridCell::fleet_size`]: the single-device [`run_cell`]
    /// ignores it, while the fleet crate's `run_fleet_cell` stripes the
    /// keyspace over that many devices. Widths share the per-cell seed, so
    /// differences down this axis are attributable to striping alone.
    pub fleet_sizes: Vec<usize>,
}

impl ExperimentGrid {
    /// The full grid of the paper's evaluation at one scale: both FTLs × both
    /// workloads, 16 KB pages, 2x speed difference, queue depth 1.
    ///
    /// # Example
    ///
    /// ```
    /// use vflash_sim::experiments::ExperimentScale;
    /// use vflash_sim::ExperimentGrid;
    ///
    /// let grid = ExperimentGrid::full(ExperimentScale::quick());
    /// // 2 FTLs x 2 workloads x 1 scale x 1 discipline x 1 arrival model.
    /// assert_eq!(grid.cells().len(), 4);
    /// // The burstiness axis multiplies the grid without touching the seeds
    /// // (pinned rate here; `burst_sweep` probes saturation instead).
    /// let bursty = ExperimentGrid::burst_sweep_at(ExperimentScale::quick(), 10_000.0);
    /// assert!(bursty.cells().len() > grid.cells().len());
    /// ```
    pub fn full(scale: ExperimentScale) -> Self {
        ExperimentGrid {
            ftls: FtlKind::ALL.to_vec(),
            workloads: Workload::ALL.to_vec(),
            scales: vec![scale],
            queue_depths: vec![1],
            rate_scales: Vec::new(),
            arrival_models: vec![ArrivalModel::default()],
            page_size_bytes: 16 * 1024,
            speed_ratio: 2.0,
            faults: None,
            fleet_sizes: vec![1],
        }
    }

    /// The full grid with the NAND fault model enabled on every cell's device
    /// (default fault curve under `fault_seed`). Everything else matches
    /// [`ExperimentGrid::full`], so diffing the two isolates the cost of
    /// read retries and bad-block remapping.
    pub fn with_faults(scale: ExperimentScale, fault_seed: u64) -> Self {
        ExperimentGrid {
            faults: Some(FaultConfig::enabled(fault_seed)),
            ..ExperimentGrid::full(scale)
        }
    }

    /// The full grid additionally swept over QD ∈ [`QUEUE_DEPTHS`]
    /// (1, 4, 16, 64).
    pub fn queue_depth_sweep(scale: ExperimentScale) -> Self {
        ExperimentGrid { queue_depths: QUEUE_DEPTHS.to_vec(), ..ExperimentGrid::full(scale) }
    }

    /// The full grid swept open-loop over the [`RATE_SCALES`] offered-load axis
    /// (with the closed-loop QD-1 saturation reference kept as the first rows).
    pub fn open_loop_sweep(scale: ExperimentScale) -> Self {
        ExperimentGrid { rate_scales: RATE_SCALES.to_vec(), ..ExperimentGrid::full(scale) }
    }

    /// The full grid swept open-loop (rate scale 1) over the burstiness axis:
    /// every workload's trace is regenerated under each [`burst_axis`] arrival
    /// model at one fixed mean rate, so the cells differ only in how bursty the
    /// identical offered load is.
    ///
    /// The mean rate is **rate-relative**: [`grid_burst_mean_iops`] probes the
    /// saturation throughput of each workload on the grid's device and fixes
    /// the axis at [`BURST_SATURATION_FRACTION`](crate::experiments::BURST_SATURATION_FRACTION)
    /// of the smallest one, so the axis stays meaningful at any scale instead
    /// of pinning the historic ≈9.1 kIOPS default-generator rate. Use
    /// [`ExperimentGrid::burst_sweep_at`] to pin an explicit rate (and skip the
    /// probe).
    ///
    /// # Errors
    ///
    /// Propagates FTL construction and replay errors from the saturation
    /// probes.
    pub fn burst_sweep(scale: ExperimentScale) -> Result<Self, FtlError> {
        let mean_iops = grid_burst_mean_iops(&scale)?;
        Ok(ExperimentGrid::burst_sweep_at(scale, mean_iops))
    }

    /// [`ExperimentGrid::burst_sweep`] at an explicit fixed mean rate, skipping
    /// the saturation probes.
    pub fn burst_sweep_at(scale: ExperimentScale, mean_iops: f64) -> Self {
        ExperimentGrid {
            queue_depths: Vec::new(),
            rate_scales: vec![1.0],
            arrival_models: burst_axis(mean_iops),
            ..ExperimentGrid::full(scale)
        }
    }

    /// The full grid swept over the host-tier fleet-size axis ([`FLEET_SIZES`]:
    /// 1, 2, 4, 8 devices), open-loop at the trace's own rate (rate scale 1) so
    /// offered vs achieved IOPS is meaningful per width. The closed-loop depths
    /// are cleared — fan-out tail amplification is a latency-under-load
    /// question. Every width of one FTL × workload shares a seed (the width is
    /// not part of the seed position), so the widths replay the *same* trace
    /// and differ only in striping.
    pub fn fleet_sweep(scale: ExperimentScale) -> Self {
        ExperimentGrid {
            queue_depths: Vec::new(),
            rate_scales: vec![1.0],
            fleet_sizes: FLEET_SIZES.to_vec(),
            ..ExperimentGrid::full(scale)
        }
    }

    /// Enumerates the cells in deterministic order: scales outermost, then the
    /// arrival disciplines (queue depths first, then rate scales), then arrival
    /// models, then fleet sizes, then workloads, then FTLs.
    ///
    /// One seed rule: every cell of one scale × workload takes `scale.seed`, as
    /// the serial sweeps of [`crate::experiments`] do — so both FTLs replay the
    /// *same* trace, and differences down the discipline, arrival-model and
    /// width axes are attributable to queuing, burstiness and striping alone.
    pub fn cells(&self) -> Vec<GridCell> {
        let disciplines: Vec<ArrivalDiscipline> = self
            .queue_depths
            .iter()
            .map(|&queue_depth| ArrivalDiscipline::ClosedLoop { queue_depth })
            .chain(
                self.rate_scales
                    .iter()
                    .map(|&rate_scale| ArrivalDiscipline::OpenLoop { rate_scale }),
            )
            .collect();
        let fleet_sizes: &[usize] =
            if self.fleet_sizes.is_empty() { &[1] } else { &self.fleet_sizes };
        let mut cells = Vec::new();
        for &scale in &self.scales {
            for &discipline in &disciplines {
                for &arrival in &self.arrival_models {
                    for &fleet_size in fleet_sizes {
                        for &workload in &self.workloads {
                            for &ftl in &self.ftls {
                                cells.push(GridCell {
                                    index: cells.len(),
                                    ftl,
                                    workload,
                                    discipline,
                                    arrival,
                                    fleet_size,
                                    scale,
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

/// One cell of the experiment grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridCell {
    /// Position of the cell in the grid's enumeration order.
    pub index: usize,
    /// FTL under test.
    pub ftl: FtlKind,
    /// Workload replayed.
    pub workload: Workload,
    /// Arrival discipline the cell is replayed under.
    pub discipline: ArrivalDiscipline,
    /// Arrival model the cell's trace is generated with (the burstiness axis).
    pub arrival: ArrivalModel,
    /// Host-tier fleet width for this cell (1 on the classic grids). The
    /// single-device [`run_cell`] ignores it; the fleet crate's
    /// `run_fleet_cell` stripes the keyspace over this many devices.
    pub fleet_size: usize,
    /// Scale for this cell (its seed is the grid scale's: one seed rule).
    pub scale: ExperimentScale,
}

/// The outcome of one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell that produced this result.
    pub cell: GridCell,
    /// The replay summary.
    pub summary: RunSummary,
}

/// Runs one cell: generates the trace at the cell's seed and replays it against
/// a **single device** ([`GridCell::fleet_size`] is ignored here — the fleet
/// crate's `run_fleet_cell` is the width-aware counterpart).
///
/// # Errors
///
/// Propagates FTL construction and replay errors.
pub fn run_cell(cell: &GridCell, grid: &ExperimentGrid) -> Result<CellResult, FtlError> {
    let trace = cell.workload.trace_with_arrival(&cell.scale, cell.arrival);
    let mut config = cell.scale.device_config(grid.page_size_bytes, grid.speed_ratio);
    if let Some(faults) = grid.faults {
        config = config.with_faults(faults)?;
    }
    let summary = match cell.ftl {
        FtlKind::Conventional => replay_conventional(&trace, &config, cell.discipline)?,
        FtlKind::Ppb => replay_ppb(
            &trace,
            &config,
            PpbConfig::default(),
            Classifier::default(),
            cell.discipline,
        )?,
    };
    Ok(CellResult { cell: *cell, summary })
}

/// Fans the experiment grid out over a work-stealing pool of `std::thread`
/// workers.
///
/// Cells start in a shared injector queue; workers move them into per-worker
/// deques a batch at a time and, when both their deque and the injector are
/// empty, steal single cells from the back of a sibling's deque. Batching keeps
/// injector contention to one lock acquisition per batch, while stealing
/// rebalances the heterogeneous cell costs (no work partitioning bias). Results
/// are stitched back together in cell-index order, so the output is independent
/// of thread scheduling and steal order, and identical to
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
/// assert_eq!(results.len(), 4); // 2 FTLs x 2 workloads x 1 scale
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
        let threads = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ParallelRunner::new(threads)
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every cell of `grid` across the work-stealing pool and returns the
    /// results in cell-index order.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing cell. A failure stops
    /// workers from claiming further cells (in-flight cells still finish), so a
    /// misconfigured grid does not burn through the remaining work.
    pub fn run(&self, grid: &ExperimentGrid) -> Result<Vec<CellResult>, FtlError> {
        self.run_map(grid, run_cell)
    }

    /// Fans an arbitrary per-cell function out over the work-stealing pool:
    /// `run(cell, grid)` is invoked once per grid cell and the results are
    /// returned in cell-index order, bit-identical to
    /// [`ParallelRunner::run_serial_map`] regardless of worker count. This is
    /// how downstream crates (the fleet host tier, notably) reuse the pool and
    /// the grid enumeration with their own cell semantics.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing cell; a failure stops
    /// workers from claiming further cells (in-flight cells still finish).
    pub fn run_map<R, G>(&self, grid: &ExperimentGrid, run: G) -> Result<Vec<R>, FtlError>
    where
        R: Send,
        G: Fn(&GridCell, &ExperimentGrid) -> Result<R, FtlError> + Sync,
    {
        let cells = grid.cells();
        if cells.is_empty() {
            return Ok(Vec::new());
        }
        let workers = self.threads.min(cells.len());
        if workers == 1 {
            return Self::run_serial_map(grid, run);
        }
        // The shared injector holds every cell index; workers pull batches from
        // its front into their own deque, so the common case touches only the
        // worker-local lock.
        let injector: Mutex<VecDeque<usize>> = Mutex::new((0..cells.len()).collect());
        let locals: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        let batch = (cells.len() / (workers * 4)).max(1);
        let failed = AtomicBool::new(false);
        let slots: Vec<Mutex<Option<Result<R, FtlError>>>> =
            cells.iter().map(|_| Mutex::new(None)).collect();
        thread::scope(|scope| {
            for me in 0..workers {
                let (injector, locals, failed, slots, cells, run) =
                    (&injector, &locals, &failed, &slots, &cells, &run);
                scope.spawn(move || {
                    while !failed.load(Ordering::Relaxed) {
                        let Some(index) = claim_cell(me, injector, locals, batch) else {
                            break;
                        };
                        let result = run(&cells[index], grid);
                        if result.is_err() {
                            failed.store(true, Ordering::Relaxed);
                        }
                        *slots[index].lock().expect("result slot poisoned") = Some(result);
                    }
                });
            }
        });
        let outcomes: Vec<Option<Result<R, FtlError>>> = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("result slot poisoned"))
            .collect();
        // With stealing, an abort leaves unclaimed holes at *arbitrary*
        // indices — an empty slot below a failed cell does not imply success —
        // so scan every slot and surface the lowest-indexed error explicitly.
        if let Some(failure) = outcomes
            .iter()
            .position(|outcome| matches!(outcome, Some(Err(_))))
        {
            let mut outcomes = outcomes;
            return match outcomes[failure].take() {
                Some(Err(error)) => Err(error),
                _ => unreachable!("position() found an error at this slot"),
            };
        }
        // No failure: the pool only disbands once the injector and every deque
        // are empty, so every cell ran exactly once.
        Ok(outcomes
            .into_iter()
            .map(|outcome| {
                outcome
                    .expect("pool disbanded with an unclaimed cell")
                    .expect("errors were surfaced above")
            })
            .collect())
    }

    /// Runs every cell of `grid` on the calling thread, in cell-index order. This
    /// is the reference the parallel path must match bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns the error of the first failing cell.
    pub fn run_serial(grid: &ExperimentGrid) -> Result<Vec<CellResult>, FtlError> {
        Self::run_serial_map(grid, run_cell)
    }

    /// The serial reference of [`ParallelRunner::run_map`]: invokes `run` on
    /// every cell in cell-index order on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns the error of the first failing cell.
    pub fn run_serial_map<R, G>(grid: &ExperimentGrid, run: G) -> Result<Vec<R>, FtlError>
    where
        G: Fn(&GridCell, &ExperimentGrid) -> Result<R, FtlError>,
    {
        grid.cells().iter().map(|cell| run(cell, grid)).collect()
    }
}

/// Claims the next cell index for worker `me`: own deque first (oldest-first),
/// then a batch refill from the front of the shared injector, then a steal from
/// the *back* of a sibling's deque (the entries the sibling would reach last,
/// minimising contention on its working end). Returns `None` when every source
/// is dry — no new work ever appears after that, because cells only flow
/// injector → deque → execution.
fn claim_cell(
    me: usize,
    injector: &Mutex<VecDeque<usize>>,
    locals: &[Mutex<VecDeque<usize>>],
    batch: usize,
) -> Option<usize> {
    if let Some(index) = locals[me].lock().expect("worker deque poisoned").pop_front() {
        return Some(index);
    }
    {
        let mut injector = injector.lock().expect("injector poisoned");
        if let Some(first) = injector.pop_front() {
            let refill = batch.saturating_sub(1).min(injector.len());
            if refill > 0 {
                locals[me]
                    .lock()
                    .expect("worker deque poisoned")
                    .extend(injector.drain(..refill));
            }
            return Some(first);
        }
    }
    for offset in 1..locals.len() {
        let victim = (me + offset) % locals.len();
        if let Some(index) = locals[victim].lock().expect("worker deque poisoned").pop_back() {
            return Some(index);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale {
            requests: 300,
            working_set_bytes: 8 * 1024 * 1024,
            chips: 2,
            ..ExperimentScale::quick()
        }
    }

    #[test]
    fn grid_enumerates_ftls_innermost() {
        let grid = ExperimentGrid::full(tiny_scale());
        let cells = grid.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].ftl, FtlKind::Conventional);
        assert_eq!(cells[1].ftl, FtlKind::Ppb);
        assert_eq!(cells[0].workload, cells[1].workload);
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
    }

    #[test]
    fn baseline_and_variant_of_one_workload_share_a_seed_free_comparison() {
        let grid = ExperimentGrid::full(tiny_scale());
        let results = ParallelRunner::run_serial(&grid).unwrap();
        for result in &results {
            assert_eq!(result.summary.ftl, result.cell.ftl.label());
            assert!(result.summary.host_writes + result.summary.host_reads > 0);
        }
    }

    #[test]
    fn parallel_results_match_serial_byte_for_byte() {
        let grid = ExperimentGrid::full(tiny_scale());
        let serial = ParallelRunner::run_serial(&grid).unwrap();
        let parallel = ParallelRunner::new(4).run(&grid).unwrap();
        assert_eq!(serial, parallel);
        // Bit-identical also in the rendered form (what files and reports contain).
        let render = |results: &[CellResult]| {
            results
                .iter()
                .map(|r| format!("{:?}\n", r))
                .collect::<String>()
        };
        assert_eq!(render(&serial).into_bytes(), render(&parallel).into_bytes());
    }

    #[test]
    fn failing_cells_surface_their_error_in_both_modes() {
        // Headroom below 1.0 builds a device smaller than the working set, so the
        // prefill runs out of space in every cell.
        let broken = ExperimentScale { capacity_headroom: 0.5, ..tiny_scale() };
        let grid = ExperimentGrid::full(broken);
        assert!(matches!(
            ParallelRunner::run_serial(&grid),
            Err(vflash_ftl::FtlError::OutOfSpace)
        ));
        assert!(matches!(
            ParallelRunner::new(4).run(&grid),
            Err(vflash_ftl::FtlError::OutOfSpace)
        ));
    }

    #[test]
    fn empty_grids_are_fine() {
        let grid = ExperimentGrid {
            ftls: Vec::new(),
            workloads: Workload::ALL.to_vec(),
            scales: vec![tiny_scale()],
            queue_depths: vec![1],
            rate_scales: Vec::new(),
            arrival_models: vec![ArrivalModel::default()],
            page_size_bytes: 16 * 1024,
            speed_ratio: 2.0,
            faults: None,
            fleet_sizes: vec![1],
        };
        assert!(ParallelRunner::new(8).run(&grid).unwrap().is_empty());
    }

    #[test]
    fn fleet_sweep_grid_enumerates_widths_with_shared_seeds() {
        let grid = ExperimentGrid::fleet_sweep(tiny_scale());
        let cells = grid.cells();
        // 2 FTLs x 2 workloads x 4 widths x 1 open-loop discipline x 1 scale.
        assert_eq!(cells.len(), 16);
        for (index, cell) in cells.iter().enumerate() {
            assert_eq!(cell.discipline, ArrivalDiscipline::OpenLoop { rate_scale: 1.0 });
            assert_eq!(cell.fleet_size, FLEET_SIZES[index / 4]);
        }
        // Every width of one FTL x workload replays the same trace: the seed is
        // width-independent, so striping is the only difference down the axis.
        for offset in 0..4 {
            let seeds: std::collections::HashSet<u64> = cells
                .iter()
                .skip(offset)
                .step_by(4)
                .map(|cell| cell.scale.seed)
                .collect();
            assert_eq!(seeds.len(), 1, "cell {offset} seeds vary across fleet widths");
        }
        // The classic grids carry width 1 on every cell, and an empty axis
        // behaves like [1].
        assert!(ExperimentGrid::full(tiny_scale()).cells().iter().all(|c| c.fleet_size == 1));
        let unset = ExperimentGrid { fleet_sizes: Vec::new(), ..ExperimentGrid::full(tiny_scale()) };
        assert!(unset.cells().iter().all(|cell| cell.fleet_size == 1));
        assert_eq!(unset.cells().len(), 4);
    }

    #[test]
    fn run_map_fans_custom_cell_functions_deterministically() {
        let grid = ExperimentGrid::full(tiny_scale());
        let label = |cell: &GridCell, _: &ExperimentGrid| {
            Ok(format!("{}:{}x{}", cell.index, cell.ftl.label(), cell.fleet_size))
        };
        let serial = ParallelRunner::run_serial_map(&grid, label).unwrap();
        let parallel = ParallelRunner::new(4).run_map(&grid, label).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial[0], "0:conventionalx1");
        // Errors surface exactly as in the CellResult path.
        let failing = |cell: &GridCell, _: &ExperimentGrid| -> Result<(), FtlError> {
            if cell.index == 2 {
                Err(FtlError::OutOfSpace)
            } else {
                Ok(())
            }
        };
        assert!(matches!(
            ParallelRunner::new(4).run_map(&grid, failing),
            Err(FtlError::OutOfSpace)
        ));
    }

    #[test]
    fn queue_depth_sweep_grid_enumerates_depths_between_scales_and_workloads() {
        let grid = ExperimentGrid::queue_depth_sweep(tiny_scale());
        let cells = grid.cells();
        assert_eq!(cells.len(), 16); // 2 FTLs x 2 workloads x 4 depths x 1 scale
        assert_eq!(cells[0].discipline, ArrivalDiscipline::ClosedLoop { queue_depth: 1 });
        assert_eq!(cells[4].discipline, ArrivalDiscipline::ClosedLoop { queue_depth: 4 });
        assert_eq!(cells[15].discipline, ArrivalDiscipline::ClosedLoop { queue_depth: 64 });
        // Every depth row of one FTL x workload replays the same trace: the seed
        // is depth-independent, so depth differences are pure queuing effects.
        for offset in 0..4 {
            let seeds: std::collections::HashSet<u64> = cells
                .iter()
                .skip(offset)
                .step_by(4)
                .map(|cell| cell.scale.seed)
                .collect();
            assert_eq!(seeds.len(), 1, "cell {offset} seeds vary across depths");
        }
        // Parallel fan-out stays bit-identical with the queue-depth axis.
        let serial = ParallelRunner::run_serial(&grid).unwrap();
        let parallel = ParallelRunner::new(4).run(&grid).unwrap();
        assert_eq!(serial, parallel);
        for result in &serial {
            let ArrivalDiscipline::ClosedLoop { queue_depth } = result.cell.discipline else {
                panic!("queue-depth grid produced an open-loop cell");
            };
            assert_eq!(result.summary.queue_depth, queue_depth);
        }
    }

    #[test]
    fn open_loop_sweep_grid_appends_rate_cells_with_shared_seeds() {
        let grid = ExperimentGrid::open_loop_sweep(tiny_scale());
        let cells = grid.cells();
        // 2 FTLs x 2 workloads x (1 depth + 6 rate scales) x 1 scale.
        assert_eq!(cells.len(), 28);
        assert_eq!(cells[0].discipline, ArrivalDiscipline::ClosedLoop { queue_depth: 1 });
        assert_eq!(
            cells[4].discipline,
            ArrivalDiscipline::OpenLoop { rate_scale: crate::experiments::RATE_SCALES[0] }
        );
        // The closed-loop reference and every rate row of one FTL x workload share
        // a seed, so the open-loop numbers are directly comparable to saturation.
        for offset in 0..4 {
            let seeds: std::collections::HashSet<u64> = cells
                .iter()
                .skip(offset)
                .step_by(4)
                .map(|cell| cell.scale.seed)
                .collect();
            assert_eq!(seeds.len(), 1, "cell {offset} seeds vary across the discipline axis");
        }
        let serial = ParallelRunner::run_serial(&grid).unwrap();
        let parallel = ParallelRunner::new(4).run(&grid).unwrap();
        assert_eq!(serial, parallel, "open-loop cells must stay fan-out deterministic");
        for result in &serial {
            match result.cell.discipline {
                ArrivalDiscipline::ClosedLoop { queue_depth } => {
                    assert_eq!(result.summary.queue_depth, queue_depth);
                }
                ArrivalDiscipline::OpenLoop { rate_scale } => {
                    assert_eq!(result.summary.queue_depth, 0);
                    assert!(result.summary.offered_iops() > 0.0);
                    assert!(
                        matches!(result.summary.mode, crate::ReplayMode::OpenLoop { rate_scale: r } if r == rate_scale)
                    );
                }
            }
        }
    }

    #[test]
    fn burst_sweep_grid_multiplies_arrival_models_with_shared_seeds() {
        let grid = ExperimentGrid::burst_sweep(tiny_scale()).unwrap();
        let cells = grid.cells();
        let mean_iops = grid_burst_mean_iops(&tiny_scale()).unwrap();
        assert!(mean_iops > 0.0, "the saturation probes must measure a positive rate");
        let axis = burst_axis(mean_iops);
        // 2 FTLs x 2 workloads x axis x 1 open-loop discipline x 1 scale.
        assert_eq!(cells.len(), 4 * axis.len());
        for cell in &cells {
            assert_eq!(
                cell.discipline,
                ArrivalDiscipline::OpenLoop { rate_scale: 1.0 },
                "burst cells replay the trace's own clock"
            );
        }
        assert_eq!(cells[0].arrival, axis[0]);
        assert_eq!(cells[4].arrival, axis[1], "arrival models advance between workload blocks");
        // Seeds are arrival-independent: each FTL x workload position re-uses
        // one seed across the whole axis, so only the burstiness differs.
        for offset in 0..4 {
            let seeds: std::collections::HashSet<u64> = cells
                .iter()
                .skip(offset)
                .step_by(4)
                .map(|cell| cell.scale.seed)
                .collect();
            assert_eq!(seeds.len(), 1, "cell {offset} seeds vary across the burst axis");
        }
        // Fan-out stays bit-identical with the burstiness axis in play.
        let serial = ParallelRunner::run_serial(&grid).unwrap();
        let parallel = ParallelRunner::new(4).run(&grid).unwrap();
        assert_eq!(serial, parallel);
        for result in &serial {
            assert!(result.summary.offered_iops() > 0.0);
        }
    }

    #[test]
    fn work_stealing_is_deterministic_across_worker_counts() {
        // The steal order varies wildly with the worker count (and with OS
        // scheduling), but the stitched results must not: every worker count
        // reproduces the serial reference bit-for-bit.
        let grid = ExperimentGrid::queue_depth_sweep(ExperimentScale {
            requests: 150,
            ..tiny_scale()
        });
        let serial = ParallelRunner::run_serial(&grid).unwrap();
        for workers in [2, 3, 5, 32] {
            let parallel = ParallelRunner::new(workers).run(&grid).unwrap();
            assert_eq!(parallel, serial, "{workers} workers diverged from serial");
        }
    }

    #[test]
    fn fault_injection_is_deterministic_across_worker_counts() {
        // Read-retry-only faults (program/erase failures off): the fault model
        // fires on every cell without driving the tiny grid devices to end of
        // life mid-replay. The fault streams are seeded per chip, so the steal
        // order must not leak into the results.
        let faults = FaultConfig {
            rber_scale: 40.0,
            program_fail_base: 0.0,
            erase_fail_base: 0.0,
            ..FaultConfig::enabled(0xFA17)
        };
        let grid = ExperimentGrid {
            faults: Some(faults),
            ..ExperimentGrid::full(ExperimentScale { requests: 200, ..tiny_scale() })
        };
        let serial = ParallelRunner::run_serial(&grid).unwrap();
        assert!(
            serial.iter().any(|result| result.summary.retried_reads > 0),
            "the fault sweep grid must actually exercise read retries"
        );
        for workers in [2, 3, 5, 32] {
            let parallel = ParallelRunner::new(workers).run(&grid).unwrap();
            assert_eq!(parallel, serial, "{workers} workers diverged under faults");
        }
        // The same grid without faults stays quiet: the knobs default off.
        let clean = ExperimentGrid {
            faults: None,
            ..grid.clone()
        };
        let clean_serial = ParallelRunner::run_serial(&clean).unwrap();
        assert!(clean_serial.iter().all(|result| {
            result.summary.retried_reads == 0 && result.summary.bad_blocks_grown == 0
        }));
    }

    #[test]
    fn claim_cell_drains_injector_batches_and_steals_from_siblings() {
        let injector: Mutex<VecDeque<usize>> = Mutex::new((0..6).collect());
        let locals: Vec<Mutex<VecDeque<usize>>> =
            (0..2).map(|_| Mutex::new(VecDeque::new())).collect();
        // Worker 0 claims with batch 3: takes 0, banks 1 and 2 in its deque.
        assert_eq!(claim_cell(0, &injector, &locals, 3), Some(0));
        assert_eq!(locals[0].lock().unwrap().len(), 2);
        assert_eq!(injector.lock().unwrap().len(), 3);
        // Worker 1 claims next: its own deque is empty, so it batches from the
        // injector (3, banking 4 and 5), draining it.
        assert_eq!(claim_cell(1, &injector, &locals, 3), Some(3));
        assert!(injector.lock().unwrap().is_empty());
        // Worker 0 drains its own deque oldest-first.
        assert_eq!(claim_cell(0, &injector, &locals, 3), Some(1));
        assert_eq!(claim_cell(0, &injector, &locals, 3), Some(2));
        // Worker 0 is dry everywhere else, so it steals worker 1's *newest*
        // banked cell (the back of the deque: 5, not 4).
        assert_eq!(claim_cell(0, &injector, &locals, 3), Some(5));
        assert_eq!(claim_cell(1, &injector, &locals, 3), Some(4));
        // Everything is dry: both workers disband.
        assert_eq!(claim_cell(0, &injector, &locals, 3), None);
        assert_eq!(claim_cell(1, &injector, &locals, 3), None);
    }

    #[test]
    fn single_thread_runner_degenerates_to_serial() {
        let grid = ExperimentGrid {
            scales: vec![ExperimentScale { requests: 120, ..tiny_scale() }],
            ..ExperimentGrid::full(tiny_scale())
        };
        let serial = ParallelRunner::run_serial(&grid).unwrap();
        assert_eq!(ParallelRunner::new(1).run(&grid).unwrap(), serial);
        assert_eq!(ParallelRunner::new(0).threads(), 1, "zero threads is clamped");
    }
}
