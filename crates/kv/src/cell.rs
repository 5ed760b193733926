//! The executor of a [`TraceSource::Kv`] spec: the counterpart of
//! [`run_spec`](vflash_sim::run_spec), its store on the FTL
//! [`RunSpec::with_ftl`] builds. Its latencies split into what an LSM user
//! observes: memtable hits (no device traffic), SSTable reads (bloom/index
//! probes plus a bucket read) and compaction stalls (the foreground
//! flush+compaction time a write absorbs).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vflash_ftl::{FlashTranslationLayer, FtlError};
use vflash_nand::Nanos;
use vflash_sim::experiments::ExperimentScale;
use vflash_sim::{FtlJob, KvSource, LatencyHistogram, LatencyPercentiles, RunSpec, TraceSource};
use vflash_trace::Zipf;

use crate::error::KvError;
use crate::flash_file::FlashStore;
use crate::store::{
    KvConfig, KvStats, KvStore, LookupSource, TableLayout, WriteAmplification, WriteReceipt,
};

/// Relative weights of puts, gets, deletes and range scans in the mix.
const MIX_WEIGHTS: [u32; 4] = [40, 50, 5, 5];

/// Bytes in every value a put writes.
pub const VALUE_BYTES: usize = 256;

/// Zipf exponent of the key-popularity skew.
pub const ZIPF_S: f64 = 0.99;

/// Keys one range scan covers.
const SCAN_WIDTH: u64 = 20;

/// The application-level result of one KV cell: the store's [`KvStats`] and
/// what they lack. `PartialEq` so two runs compare wholesale.
#[derive(Debug, Clone, PartialEq)]
pub struct KvRunSummary {
    /// The FTL the run executed against (`"conventional"` or `"ppb"`).
    pub ftl: String,
    /// Operations completed (short of `scale.requests` only when the device
    /// went read-only).
    pub ops_completed: u64,
    /// The store's counters at the end of the run.
    pub stats: KvStats,
    /// Latency of gets answered by the memtable (no device traffic).
    pub memtable_hit: LatencyPercentiles,
    /// Latency of gets that probed SSTables (bloom/index/bucket reads).
    pub sstable_read: LatencyPercentiles,
    /// Foreground flush + compaction time absorbed by the writes that
    /// triggered them (only stalled writes are recorded).
    pub compaction_stall: LatencyPercentiles,
    /// Writes that absorbed a flush/compaction stall.
    pub stalled_writes: u64,
    /// Application, FTL and end-to-end write amplification.
    pub write_amplification: WriteAmplification,
    /// Total simulated device time.
    pub device_time: Nanos,
    /// Batched submissions the FTL served (zero at `io_depth` 1).
    pub batched_submissions: u64,
    /// Page requests that went through the batched path.
    pub batched_pages: u64,
    /// True when the run stopped early because the device went read-only.
    pub read_only: bool,
    /// Final SSTable layout fingerprint (level, id, size, placement).
    pub layout: Vec<TableLayout>,
}

/// Runs one KV spec: `scale.requests` operations of the fixed mix, seeded by
/// `scale.seed` alone, so the same spec yields a bit-identical summary. A
/// device that turns read-only mid-run ends the run cleanly (`read_only` set,
/// partial counts reported). Debug builds check [`KvStore::check_invariants`]
/// — the device's included — at the end of every run.
///
/// # Errors
///
/// A block source, a discipline, arrival model, warm-up or fleet width other
/// than [`RunSpec::new`]'s (none of them applies), and a source with no keys,
/// more keys than a zipf rank holds (`u32::MAX`) or an `io_depth` of 0 (which
/// [`KvStore::open`] refuses) are [`KvError::Ftl`] of
/// [`FtlError::InvalidConfig`]; FTL construction errors
/// and I/O or corruption errors other than [`KvError::ReadOnly`] pass through.
pub fn run_kv_cell(spec: &RunSpec<'_>) -> Result<KvRunSummary, KvError> {
    struct Drive(KvSource, ExperimentScale);
    impl FtlJob for Drive {
        type Output = Result<KvRunSummary, KvError>;
        fn run<F: FlashTranslationLayer>(
            self,
            build: impl Fn() -> Result<F, FtlError>,
        ) -> Result<Self::Output, FtlError> {
            Ok(drive(FlashStore::new(build()?), self.0, &self.1))
        }
    }
    let refused = |reason: String| Err(KvError::Ftl(FtlError::InvalidConfig { reason }));
    let TraceSource::Kv(source) = spec.source else {
        return refused(format!("run_kv_cell runs a KV source, not {}", spec.source.label()));
    };
    let default = RunSpec::new(source, spec.scale);
    if spec.discipline != default.discipline
        || spec.arrival != default.arrival
        || spec.warmup_fraction != default.warmup_fraction
        || spec.fleet_width != default.fleet_width
    {
        return refused(
            "run_kv_cell takes no discipline, arrival model, warm-up or fleet width: \
             leave them at RunSpec::new's"
                .into(),
        );
    }
    if source.key_space == 0 || u32::try_from(source.key_space).is_err() {
        return refused(format!("run_kv_cell needs 1..=u32::MAX keys, not {source:?}"));
    }
    spec.with_ftl(Drive(source, spec.scale))?
}

fn drive<F: FlashTranslationLayer>(
    store: FlashStore<F>,
    source: KvSource,
    scale: &ExperimentScale,
) -> Result<KvRunSummary, KvError> {
    let ftl = store.ftl().name().to_string();
    let config = KvConfig { io_depth: source.io_depth, ..KvConfig::default() };
    let mut kv = KvStore::open(store, config)?;
    let mut rng = StdRng::seed_from_u64(scale.seed);
    let zipf = Zipf::new(source.key_space, ZIPF_S);
    let [put, get, delete, scan] = MIX_WEIGHTS;
    let (put_cut, get_cut, delete_cut) = (put, put + get, put + get + delete);

    let mut memtable_hit = LatencyHistogram::new();
    let mut sstable_read = LatencyHistogram::new();
    let mut compaction_stall = LatencyHistogram::new();
    let mut stalled = |receipt: WriteReceipt| {
        if receipt.stall_time > Nanos::ZERO {
            compaction_stall.record(receipt.stall_time);
        }
    };
    let mut ops_completed = 0u64;
    for _ in 0..scale.requests {
        let rank = zipf.sample(&mut rng) as u64;
        let key = rank.to_be_bytes();
        let draw = rng.gen_range(0..delete_cut + scan);
        let result = if draw < put_cut {
            let value = [rng.gen::<u8>(); VALUE_BYTES];
            kv.put(&key, &value).map(&mut stalled)
        } else if draw < get_cut {
            kv.get(&key).map(|lookup| match lookup.source {
                LookupSource::Memtable => memtable_hit.record(lookup.time),
                LookupSource::SsTable | LookupSource::Miss => sstable_read.record(lookup.time),
            })
        } else if draw < delete_cut {
            kv.delete(&key).map(&mut stalled)
        } else {
            kv.scan(&key, &(rank + SCAN_WIDTH).to_be_bytes()).map(drop)
        };
        match result {
            Ok(()) => ops_completed += 1,
            Err(KvError::ReadOnly) => break,
            Err(error) => return Err(error),
        }
    }
    let read_only = ops_completed < scale.requests as u64;
    if !read_only {
        match kv.flush() {
            Ok(()) | Err(KvError::ReadOnly) => {}
            Err(error) => return Err(error),
        }
    }
    debug_assert_eq!(kv.check_invariants(), Ok(()));

    let metrics = kv.flash().ftl().metrics();
    Ok(KvRunSummary {
        ftl,
        ops_completed,
        stats: *kv.stats(),
        memtable_hit: memtable_hit.percentiles(),
        sstable_read: sstable_read.percentiles(),
        compaction_stall: compaction_stall.percentiles(),
        stalled_writes: compaction_stall.count(),
        write_amplification: kv.write_amplification(),
        device_time: kv.device_clock(),
        batched_submissions: metrics.batched_submissions,
        batched_pages: metrics.batched_pages,
        read_only,
        layout: kv.layout(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vflash_nand::NandError;
    use vflash_sim::experiments::{Classifier, FtlKind, Workload};
    use vflash_sim::{ArrivalDiscipline, ParallelRunner};
    use vflash_trace::synthetic::ArrivalModel;

    /// The `--quick` `lsm` cell: 3,000 ops over 2,000 keys on 96 blocks of
    /// 64 × 4 KiB pages. Every cell below ends on `check_invariants` (debug).
    fn smoke(chips: usize, io_depth: usize) -> RunSpec<'static> {
        let scale = ExperimentScale {
            requests: 3_000,
            working_set_bytes: 12 << 20,
            pages_per_block: 64,
            chips,
            ..ExperimentScale::quick()
        };
        RunSpec::new(KvSource { key_space: 2_000, io_depth }, scale)
    }

    #[test]
    fn smoke_run_reports_activity_on_both_ftls() {
        for ftl in FtlKind::ALL {
            let summary = run_kv_cell(&smoke(1, 1).on(ftl)).unwrap();
            assert_eq!(summary.ftl, ftl.label());
            assert_eq!(summary.ops_completed, 3_000);
            assert!(summary.stats.flushes > 0, "{}: no flushes", summary.ftl);
            assert!(summary.sstable_read.p99 > Nanos::ZERO, "{}: no table reads", summary.ftl);
            assert!(summary.write_amplification.app > 1.0);
            assert!(!summary.read_only);
            assert!(!summary.layout.is_empty());
        }
    }

    #[test]
    fn kv_cells_are_bit_identical_at_one_and_four_workers() {
        let specs: Vec<RunSpec> = [(1, 1), (4, 1), (4, 16)]
            .into_iter()
            .flat_map(|(chips, io_depth)| FtlKind::ALL.map(|ftl| smoke(chips, io_depth).on(ftl)))
            .collect();
        let serial = ParallelRunner::new(1).map(&specs, run_kv_cell).unwrap();
        let parallel = ParallelRunner::new(4).map(&specs, run_kv_cell).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial[0], run_kv_cell(&specs[0]).unwrap(), "a rerun is the same run");
    }

    #[test]
    fn batching_halves_flush_and_compaction_time_on_four_chips() {
        let serial = run_kv_cell(&smoke(4, 1)).unwrap();
        let batched = run_kv_cell(&smoke(4, 16)).unwrap();
        // Placement, counts and amplification are untouched by batching.
        assert_eq!(serial.layout, batched.layout, "batching must not move any table");
        assert_eq!(serial.stats.flushes, batched.stats.flushes);
        assert_eq!(serial.stats.compactions, batched.stats.compactions);
        assert_eq!(serial.write_amplification, batched.write_amplification);
        assert_eq!(serial.batched_pages, 0, "depth 1 is the scalar path");
        assert!(batched.batched_pages > 0);
        // The acceptance bar: flush+compaction device time at least halves.
        assert!(
            serial.stats.flush_time >= batched.stats.flush_time * 2,
            "4 chips at depth 16 must cut flush+compaction device time >= 2x \
             (serial {}, batched {})",
            serial.stats.flush_time,
            batched.stats.flush_time
        );
        assert!(batched.device_time < serial.device_time);
    }

    #[test]
    fn different_seeds_diverge() {
        let with_seed = |seed: u64| {
            let spec = smoke(1, 1);
            run_kv_cell(&RunSpec { scale: ExperimentScale { seed, ..spec.scale }, ..spec }).unwrap()
        };
        assert_ne!(with_seed(1).device_time, with_seed(2).device_time);
    }

    #[test]
    fn a_freq_table_kv_spec_runs_end_to_end() {
        let size_check = smoke(1, 1).on(FtlKind::Ppb);
        let freq_table = RunSpec { classifier: Classifier::FreqTable, ..size_check };
        let (sized, counted) =
            (run_kv_cell(&size_check).unwrap(), run_kv_cell(&freq_table).unwrap());
        assert_eq!(counted.ops_completed, 3_000);
        assert!(!counted.read_only && !counted.layout.is_empty());
        // The classifier moves placement, never what the application did.
        assert_eq!(counted.stats.puts, sized.stats.puts);
        assert_eq!(counted.stats.app_bytes_written, sized.stats.app_bytes_written);
    }

    #[test]
    fn inapplicable_spec_values_are_refused() {
        // The store runs every op in turn on one device: these used to be
        // ignored, so a spec asking for them reported a run that lacked them.
        let spec = smoke(1, 1);
        let refused = [
            RunSpec { discipline: ArrivalDiscipline::ClosedLoop { queue_depth: 4 }, ..spec },
            RunSpec { discipline: ArrivalDiscipline::ClosedLoop { queue_depth: 0 }, ..spec },
            RunSpec { discipline: ArrivalDiscipline::OpenLoop { rate_scale: 1.0 }, ..spec },
            RunSpec { arrival: ArrivalModel::MeanRate { iops: 500.0 }, ..spec },
            RunSpec { warmup_fraction: 0.5, ..spec },
            RunSpec { fleet_width: 2, ..spec },
            // A source the store cannot run: these used to panic inside the
            // sweep, in `Zipf::new` and `KvConfig::validate` (`KvStore::open`
            // refuses an `io_depth` of 0 now).
            RunSpec::new(KvSource { key_space: 0, io_depth: 1 }, spec.scale),
            RunSpec::new(KvSource { key_space: 2_000, io_depth: 0 }, spec.scale),
            RunSpec::new(KvSource { key_space: 1 << 32, io_depth: 1 }, spec.scale),
        ];
        for spec in refused {
            let outcome = run_kv_cell(&spec);
            assert!(
                matches!(outcome, Err(KvError::Ftl(FtlError::InvalidConfig { .. }))),
                "{spec:?}: {outcome:?}"
            );
        }
    }

    #[test]
    fn a_scale_that_makes_no_device_is_refused() {
        // Each used to panic in `ExperimentScale::device_config` inside the
        // sweep: a `div_ceil(0)`, a division by zero, an `expect` on the builder.
        let spec = smoke(1, 1);
        let refused = [
            RunSpec { scale: ExperimentScale { chips: 0, ..spec.scale }, ..spec },
            RunSpec { scale: ExperimentScale { pages_per_block: 0, ..spec.scale }, ..spec },
            RunSpec { page_size_bytes: 0, ..spec },
            RunSpec { speed_ratio: -f64::INFINITY, ..spec },
        ];
        for spec in refused {
            let outcome = run_kv_cell(&spec);
            assert!(
                matches!(outcome, Err(KvError::Ftl(FtlError::Nand(NandError::InvalidConfig { .. })))),
                "{spec:?}: {outcome:?}"
            );
        }
    }

    #[test]
    fn a_block_source_is_refused() {
        let spec = RunSpec::new(Workload::WebSqlServer, smoke(1, 1).scale);
        let refused = run_kv_cell(&spec);
        assert!(
            matches!(refused, Err(KvError::Ftl(FtlError::InvalidConfig { .. }))),
            "{refused:?}"
        );
    }
}
