//! The width-aware executor of a [`RunSpec`]: the counterpart of
//! [`run_spec`](vflash_sim::run_spec), mapped over spec lists by the same
//! [`ParallelRunner`](vflash_sim::ParallelRunner).
//!
//! A fleet cell builds [`RunSpec::fleet_width`] identical devices from the
//! spec — each lane gets the *same* geometry and FTL the single-device run
//! would, so widening the fleet models scale-out (more devices behind one
//! keyspace), not re-sharding one device. The trace wraps modulo the fleet
//! capacity, spreading the working set across the lanes; every spec of one
//! scale × workload shares its seed, so the widths of
//! [`ExperimentGrid::fleet_sweep`](vflash_sim::ExperimentGrid::fleet_sweep)
//! replay the same request stream and differ only in striping. The cache is
//! off and a single tenant is used, keeping width 1 bit-identical to the
//! single-device run.

use vflash_ftl::{FlashTranslationLayer, FtlError};
use vflash_sim::{FtlJob, RunOptions, RunSpec};

use crate::fleet::{Fleet, FleetConfig, FleetDriver};
use crate::summary::FleetSummary;

/// Runs one spec at its fleet width: [`RunSpec::fleet_width`] lanes built by
/// [`RunSpec::with_ftl`], the spec's trace replayed through the host tier
/// (cache off, single tenant). The warm-up fraction does not apply.
///
/// # Errors
///
/// Propagates FTL construction and replay errors from any lane; a KV source
/// or a zero width is [`FtlError::InvalidConfig`].
pub fn run_fleet_cell(spec: &RunSpec<'_>) -> Result<FleetSummary, FtlError> {
    struct Stripe<'s, 'a>(&'s RunSpec<'a>);
    impl FtlJob for Stripe<'_, '_> {
        type Output = FleetSummary;
        fn run<F: FlashTranslationLayer>(
            self,
            build: impl Fn() -> Result<F, FtlError>,
        ) -> Result<FleetSummary, FtlError> {
            let trace = self.0.trace()?;
            let lanes = (0..self.0.fleet_width).map(|_| build()).collect::<Result<Vec<F>, _>>()?;
            FleetDriver::new(RunOptions::default(), self.0.discipline)
                .run(Fleet::new(lanes, FleetConfig::default()), &trace)
        }
    }
    if spec.fleet_width == 0 {
        return Err(FtlError::InvalidConfig { reason: "a fleet needs at least one lane".into() });
    }
    spec.with_ftl(Stripe(spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vflash_sim::experiments::{ExperimentScale, Workload};
    use vflash_sim::{run_spec, ExperimentGrid, KvSource, ParallelRunner, ReplayMode};

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
        for (index, spec) in ExperimentGrid::full(tiny_scale()).specs.iter().enumerate() {
            let single = run_spec(spec).unwrap();
            let fleet = run_fleet_cell(spec).unwrap();
            assert_eq!(fleet.width, 1);
            assert_eq!(fleet.lanes[0], single, "spec {index}");
        }
    }

    #[test]
    fn fleet_sweep_cells_replay_at_their_width() {
        let grid = ExperimentGrid::fleet_sweep(tiny_scale());
        let results = ParallelRunner::new(1).map(&grid.specs, run_fleet_cell).unwrap();
        assert_eq!(results.len(), 16);
        for (spec, summary) in grid.specs.iter().zip(&results) {
            assert_eq!(summary.width, spec.fleet_width);
            assert_eq!(summary.lanes.len(), spec.fleet_width);
            assert_eq!(summary.host_requests, 250);
            assert!(matches!(summary.mode, ReplayMode::OpenLoop { rate_scale } if rate_scale == 1.0));
            assert!(summary.offered_iops() > 0.0);
        }
    }

    #[test]
    fn both_ftls_of_a_fleet_sweep_row_replay_the_same_trace() {
        // One seed rule: the FTL is not part of the seed, so the two rows a
        // table sets side by side were offered the identical request stream.
        let grid = ExperimentGrid::fleet_sweep(tiny_scale());
        let results = ParallelRunner::new(1).map(&grid.specs, run_fleet_cell).unwrap();
        for (specs, pair) in grid.specs.chunks(2).zip(results.chunks(2)) {
            assert_eq!(specs[0].source, specs[1].source);
            assert_eq!(specs[0].fleet_width, specs[1].fleet_width);
            assert_eq!((pair[0].ftl.as_str(), pair[1].ftl.as_str()), ("conventional", "ppb"));
            assert_eq!(pair[0].offered_iops(), pair[1].offered_iops());
            assert_eq!(pair[0].host_requests, pair[1].host_requests);
        }
    }

    #[test]
    fn a_kv_source_and_a_zero_width_are_refused() {
        let spec = RunSpec::new(Workload::WebSqlServer, tiny_scale());
        let kv = RunSpec::new(KvSource { key_space: 100, io_depth: 1 }, tiny_scale());
        for refused in [RunSpec { fleet_width: 0, ..spec }, kv] {
            let outcome = run_fleet_cell(&refused);
            assert!(matches!(outcome, Err(FtlError::InvalidConfig { .. })), "{outcome:?}");
        }
    }

    #[test]
    fn fleet_cells_are_deterministic_across_worker_counts() {
        let specs: Vec<_> = ExperimentGrid::full(tiny_scale())
            .specs
            .into_iter()
            .flat_map(|spec| [1, 3].map(|fleet_width| vflash_sim::RunSpec { fleet_width, ..spec }))
            .collect();
        let serial = ParallelRunner::new(1).map(&specs, run_fleet_cell).unwrap();
        let parallel = ParallelRunner::new(4).map(&specs, run_fleet_cell).unwrap();
        assert_eq!(serial, parallel);
    }
}
