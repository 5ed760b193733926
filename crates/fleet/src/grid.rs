//! Fleet-aware grid execution: the width-carrying counterpart of
//! [`run_cell`](vflash_sim::run_cell), fanned over the same
//! [`ParallelRunner`] work-stealing pool via
//! [`ParallelRunner::run_map`].
//!
//! A fleet cell builds [`GridCell::fleet_size`] identical devices from the
//! cell's scale — each lane gets the *same* geometry the single-device cell
//! would, so widening the fleet models scale-out (more devices behind one
//! keyspace), not re-sharding one device. The trace wraps modulo the fleet
//! capacity, spreading the working set across the lanes; every width of one
//! FTL × workload shares its seed (see
//! [`ExperimentGrid::fleet_sweep`]), so the widths replay the same request
//! stream and differ only in striping. The cache is off and a single tenant is
//! used, keeping width 1 bit-identical to the single-device grid row.

use vflash_ftl::{ConventionalFtl, FtlConfig, FtlError};
use vflash_nand::NandDevice;
use vflash_ppb::{PpbConfig, PpbFtl};
use vflash_sim::{ExperimentGrid, FtlKind, GridCell, ParallelRunner, RunOptions};
use vflash_trace::Trace;

use crate::fleet::{Fleet, FleetConfig, FleetDriver};
use crate::summary::FleetSummary;

/// The outcome of one fleet grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCellResult {
    /// The cell that produced this result.
    pub cell: GridCell,
    /// The fleet replay summary.
    pub summary: FleetSummary,
}

/// Runs one grid cell at its fleet width: generates the trace at the cell's
/// seed, builds [`GridCell::fleet_size`] identical devices, and replays the
/// trace through the host tier (cache off, single tenant).
///
/// # Errors
///
/// Propagates FTL construction and replay errors from any lane.
pub fn run_fleet_cell(cell: &GridCell, grid: &ExperimentGrid) -> Result<FleetCellResult, FtlError> {
    let trace: Trace = cell.workload.trace_with_arrival(&cell.scale, cell.arrival);
    let mut config = cell.scale.device_config(grid.page_size_bytes, grid.speed_ratio);
    if let Some(faults) = grid.faults {
        config = config.with_faults(faults)?;
    }
    let driver = FleetDriver::new(RunOptions::default(), cell.discipline);
    let summary = match cell.ftl {
        FtlKind::Conventional => {
            let lanes: Vec<ConventionalFtl> = (0..cell.fleet_size)
                .map(|_| ConventionalFtl::new(NandDevice::new(config.clone()), FtlConfig::default()))
                .collect::<Result<_, _>>()?;
            driver.run(Fleet::new(lanes, FleetConfig::default()), &trace)?
        }
        FtlKind::Ppb => {
            let lanes: Vec<PpbFtl> = (0..cell.fleet_size)
                .map(|_| PpbFtl::new(NandDevice::new(config.clone()), PpbConfig::default()))
                .collect::<Result<_, _>>()?;
            driver.run(Fleet::new(lanes, FleetConfig::default()), &trace)?
        }
    };
    Ok(FleetCellResult { cell: *cell, summary })
}

/// Fans [`run_fleet_cell`] over every cell of `grid` using `runner`'s
/// work-stealing pool. Results come back in cell-index order, bit-identical to
/// a serial run regardless of worker count (the fleet determinism property
/// test pins this across worker counts 2, 3, 5 and 32).
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing cell.
pub fn run_fleet_grid(
    runner: &ParallelRunner,
    grid: &ExperimentGrid,
) -> Result<Vec<FleetCellResult>, FtlError> {
    runner.run_map(grid, run_fleet_cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vflash_sim::experiments::ExperimentScale;
    use vflash_sim::{run_cell, ReplayMode};

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale {
            requests: 250,
            working_set_bytes: 8 * 1024 * 1024,
            chips: 2,
            ..ExperimentScale::quick()
        }
    }

    #[test]
    fn width_one_fleet_cells_reproduce_single_device_cells() {
        let grid = ExperimentGrid::full(tiny_scale());
        for cell in grid.cells() {
            let single = run_cell(&cell, &grid).unwrap();
            let fleet = run_fleet_cell(&cell, &grid).unwrap();
            assert_eq!(fleet.summary.width, 1);
            assert_eq!(fleet.summary.lanes[0], single.summary, "cell {}", cell.index);
        }
    }

    #[test]
    fn fleet_sweep_cells_replay_at_their_width() {
        let grid = ExperimentGrid::fleet_sweep(tiny_scale());
        let results = ParallelRunner::run_serial_map(&grid, run_fleet_cell).unwrap();
        assert_eq!(results.len(), 16);
        for result in &results {
            assert_eq!(result.summary.width, result.cell.fleet_size);
            assert_eq!(result.summary.lanes.len(), result.cell.fleet_size);
            assert_eq!(result.summary.host_requests, 250);
            assert!(matches!(result.summary.mode, ReplayMode::OpenLoop { rate_scale } if rate_scale == 1.0));
            assert!(result.summary.offered_iops() > 0.0);
        }
    }

    #[test]
    fn both_ftls_of_a_fleet_sweep_row_replay_the_same_trace() {
        // One seed rule: the FTL is not part of the seed, so the two rows a
        // table sets side by side were offered the identical request stream.
        let grid = ExperimentGrid::fleet_sweep(tiny_scale());
        let results = ParallelRunner::run_serial_map(&grid, run_fleet_cell).unwrap();
        for pair in results.chunks(2) {
            let (conventional, ppb) = (&pair[0], &pair[1]);
            assert_eq!(conventional.cell.workload, ppb.cell.workload);
            assert_eq!(conventional.cell.fleet_size, ppb.cell.fleet_size);
            assert_eq!(conventional.summary.offered_iops(), ppb.summary.offered_iops());
            assert_eq!(conventional.summary.host_requests, ppb.summary.host_requests);
        }
    }

    #[test]
    fn fleet_grid_is_deterministic_across_worker_counts() {
        let grid = ExperimentGrid {
            fleet_sizes: vec![1, 3],
            ..ExperimentGrid::full(tiny_scale())
        };
        let serial = ParallelRunner::run_serial_map(&grid, run_fleet_cell).unwrap();
        let parallel = run_fleet_grid(&ParallelRunner::new(4), &grid).unwrap();
        assert_eq!(serial, parallel);
    }
}
