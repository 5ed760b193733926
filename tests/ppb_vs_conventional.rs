//! Cross-crate integration tests: the whole stack (device model, trace generators,
//! FTLs, replayer) wired together, checking the paper's headline claims hold in
//! direction on scaled-down experiments.

use vflash::sim::experiments::{ExperimentScale, Workload, SPEED_RATIOS};
use vflash::sim::{compare_specs, Comparison, ParallelRunner, RunSpec};

fn test_scale() -> ExperimentScale {
    // Long enough for promotions, rewrites and garbage collection to shape data
    // placement; small enough to keep the whole suite fast.
    ExperimentScale {
        requests: 10_000,
        working_set_bytes: 20 * 1024 * 1024,
        ..ExperimentScale::quick()
    }
}

/// Both FTLs on every spec, on the same trace.
fn comparisons(specs: &[RunSpec<'static>]) -> Vec<Comparison> {
    compare_specs(&ParallelRunner::with_available_parallelism(), specs)
        .unwrap()
        .into_iter()
        .map(|row| row.comparison)
        .collect()
}

/// One workload at the given page size and speed difference.
fn compare(workload: Workload, page_size_bytes: usize, speed_ratio: f64) -> Comparison {
    let spec = RunSpec { page_size_bytes, speed_ratio, ..RunSpec::new(workload, test_scale()) };
    comparisons(&[spec]).remove(0)
}

/// One workload at every speed difference of Figures 13/14/16/17 (16 KB pages).
fn speed_sweep(workload: Workload) -> Vec<Comparison> {
    let base = RunSpec::new(workload, test_scale());
    comparisons(&SPEED_RATIOS.map(|speed_ratio| RunSpec { speed_ratio, ..base }))
}

/// The headline claim: PPB improves read performance on the re-read-heavy web/SQL
/// workload while leaving write latency essentially unchanged.
#[test]
fn ppb_improves_web_reads_without_write_penalty() {
    let comparison = compare(Workload::WebSqlServer, 16 * 1024, 4.0);
    assert!(
        comparison.read_enhancement_pct() > 1.0,
        "expected a clear read win, got {:.2}%",
        comparison.read_enhancement_pct()
    );
    assert!(
        comparison.write_enhancement_pct().abs() < 5.0,
        "write latency should stay near-identical, got {:.2}%",
        comparison.write_enhancement_pct()
    );
}

/// PPB never makes reads slower on the media-server workload either (the gain is
/// smaller because the workload is dominated by large sequential reads).
#[test]
fn ppb_does_not_hurt_media_server_reads() {
    let comparison = compare(Workload::MediaServer, 16 * 1024, 2.0);
    assert!(
        comparison.read_enhancement_pct() > -1.0,
        "media-server reads regressed by {:.2}%",
        comparison.read_enhancement_pct()
    );
}

/// Figure 13/14 trend: the PPB read advantage grows (or at least does not shrink to a
/// loss) as the speed difference widens from 2x to 5x.
#[test]
fn read_advantage_holds_across_speed_ratios() {
    let rows = speed_sweep(Workload::WebSqlServer);
    assert_eq!(rows.len(), 4);
    for (row, speed_ratio) in rows.iter().zip(SPEED_RATIOS) {
        assert!(
            row.variant.read_time <= row.baseline.read_time,
            "at {speed_ratio}x the PPB read latency {} exceeded conventional {}",
            row.variant.read_time,
            row.baseline.read_time
        );
    }
    // The absolute gap at 5x should be at least as large as at 2x.
    let gap = |row: &Comparison| {
        row.baseline.read_time.as_nanos() as i128 - row.variant.read_time.as_nanos() as i128
    };
    let (gap_2x, gap_5x) = (gap(&rows[0]), gap(&rows[3]));
    assert!(
        gap_5x >= gap_2x,
        "read-latency gap shrank from {gap_2x} at 2x to {gap_5x} at 5x"
    );
}

/// Figure 16/17 trend: write latency stays essentially identical across the sweep.
#[test]
fn write_latency_is_preserved_across_speed_ratios() {
    for workload in Workload::ALL {
        for (row, speed_ratio) in speed_sweep(workload).iter().zip(SPEED_RATIOS) {
            let baseline = row.baseline.write_time.as_nanos() as f64;
            let delta = (row.variant.write_time.as_nanos() as f64 - baseline).abs() / baseline * 100.0;
            assert!(
                delta < 5.0,
                "{workload}: write latency changed by {delta:.2}% at {speed_ratio}x"
            );
        }
    }
}

/// Figure 18 trend: PPB does not inflate the erased-block count, i.e. garbage
/// collection efficiency is preserved.
#[test]
fn erase_counts_are_not_inflated() {
    for workload in Workload::ALL {
        let row = compare(workload, 16 * 1024, 2.0);
        assert!(
            row.erase_increase_pct() <= 20.0,
            "{workload}: erased blocks grew by {:.1}% ({} -> {})",
            row.erase_increase_pct(),
            row.baseline.erased_blocks,
            row.variant.erased_blocks
        );
    }
}

/// Both FTLs serve exactly the same request stream — a sanity check that the
/// comparison is apples to apples.
#[test]
fn both_ftls_serve_identical_request_counts() {
    let comparison = compare(Workload::MediaServer, 8 * 1024, 3.0);
    assert_eq!(comparison.baseline.host_reads, comparison.variant.host_reads);
    assert_eq!(comparison.baseline.host_writes, comparison.variant.host_writes);
    assert!(comparison.baseline.host_reads > 0);
    assert!(comparison.baseline.host_writes > 0);
}
