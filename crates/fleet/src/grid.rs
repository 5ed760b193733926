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
use vflash_sim::{FtlJob, RunOptions, RunSpec, WorkloadDriver};

use crate::fleet::{Fleet, FleetConfig};
use crate::summary::FleetSummary;

/// Runs one spec at its fleet width: [`RunSpec::fleet_width`] lanes built by
/// [`RunSpec::with_ftl`], the spec's trace replayed through the host tier
/// (cache off, single tenant).
///
/// # Errors
///
/// Propagates FTL construction and replay errors from any lane; a KV source,
/// a zero width, a warm-up fraction (which does not apply), a discipline
/// [`ArrivalDiscipline::validate`](vflash_sim::ArrivalDiscipline::validate)
/// rejects and a synthetic source [`RunSpec::trace`] cannot generate are
/// [`FtlError::InvalidConfig`].
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
            WorkloadDriver::new(RunOptions::default(), self.0.discipline)
                .run(Fleet::new(lanes, FleetConfig::default()), trace.as_slice())
        }
    }
    let refused = |reason: &str| Err(FtlError::InvalidConfig { reason: reason.into() });
    if spec.fleet_width == 0 {
        return refused("a fleet needs at least one lane");
    }
    if spec.warmup_fraction != 0.0 {
        return refused("run_fleet_cell replays no warm-up: leave warmup_fraction at 0");
    }
    spec.discipline.validate()?;
    spec.with_ftl(Stripe(spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vflash_nand::NandError;
    use vflash_sim::experiments::{ExperimentScale, Workload};
    use vflash_sim::{
        run_spec, ArrivalDiscipline, ExperimentGrid, KvSource, ParallelRunner, ReplayMode,
    };
    use vflash_trace::synthetic::ArrivalModel;

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
    fn a_scale_that_makes_no_device_is_refused() {
        // Each used to panic in `ExperimentScale::device_config` inside the
        // sweep: a `div_ceil(0)`, a division by zero, an `expect` on the builder.
        let spec = RunSpec { fleet_width: 2, ..RunSpec::new(Workload::WebSqlServer, tiny_scale()) };
        let refused = [
            RunSpec { scale: ExperimentScale { chips: 0, ..spec.scale }, ..spec },
            RunSpec { scale: ExperimentScale { pages_per_block: 0, ..spec.scale }, ..spec },
            RunSpec { page_size_bytes: 0, ..spec },
            RunSpec { speed_ratio: f64::INFINITY, ..spec },
        ];
        for spec in refused {
            let outcome = run_fleet_cell(&spec);
            assert!(
                matches!(outcome, Err(FtlError::Nand(NandError::InvalidConfig { .. }))),
                "{spec:?}: {outcome:?}"
            );
        }
    }

    #[test]
    fn a_bad_discipline_and_a_warmup_are_refused() {
        // A bad discipline used to panic inside the driver's constructor, and
        // a warm-up fraction was silently ignored.
        let spec = RunSpec::new(Workload::WebSqlServer, tiny_scale());
        let refused = [
            ArrivalDiscipline::ClosedLoop { queue_depth: 0 },
            ArrivalDiscipline::OpenLoop { rate_scale: -1.0 },
            ArrivalDiscipline::OpenLoop { rate_scale: f64::INFINITY },
        ]
        .map(|discipline| RunSpec { discipline, ..spec })
        .into_iter()
        .chain([RunSpec { warmup_fraction: 0.25, ..spec }]);
        for spec in refused {
            let outcome = run_fleet_cell(&spec);
            assert!(matches!(outcome, Err(FtlError::InvalidConfig { .. })), "{outcome:?}");
        }
    }

    #[test]
    fn a_synthetic_source_it_cannot_generate_is_refused() {
        // Each used to panic in `ArrivalModel::sampler` or in a generator
        // inside the sweep: every degenerate case `sampler` lists, then zero
        // requests.
        let spec = RunSpec { fleet_width: 2, ..RunSpec::new(Workload::WebSqlServer, tiny_scale()) };
        let refused = [
            ArrivalModel::UniformGap { min_nanos: 7, max_nanos: 7 },
            ArrivalModel::MeanRate { iops: 0.0 },
            ArrivalModel::MeanRate { iops: f64::NAN },
            ArrivalModel::Pareto { shape: 1.0, mean_iops: 100.0 },
            ArrivalModel::Pareto { shape: 1.5, mean_iops: f64::INFINITY },
            ArrivalModel::OnOffBurst { burst_iops: -1.0, idle_fraction: 0.5, burst_len: 8 },
            ArrivalModel::OnOffBurst { burst_iops: 1e4, idle_fraction: 1.0, burst_len: 8 },
            ArrivalModel::OnOffBurst { burst_iops: 1e4, idle_fraction: 0.5, burst_len: 0 },
        ]
        .map(|arrival| RunSpec { arrival, ..spec })
        .into_iter()
        .chain(Workload::ALL.map(|workload| RunSpec {
            source: workload.into(),
            scale: ExperimentScale { requests: 0, ..spec.scale },
            ..spec
        }));
        for spec in refused {
            let outcome = run_fleet_cell(&spec);
            assert!(
                matches!(outcome, Err(FtlError::InvalidConfig { .. })),
                "{spec:?}: {outcome:?}"
            );
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
