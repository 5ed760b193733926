//! End-to-end checks of the KV stack: determinism across identical runs, the
//! write-amplification product identity at workload scale, clean
//! [`KvError::ReadOnly`] surfacing once the device wears out, a device that
//! fills up: no acknowledged write lost, no page leaked, and reads that lend
//! what they find showing nothing of an earlier call.

use std::collections::BTreeMap;

use vflash_ftl::{ConventionalFtl, FlashTranslationLayer, FtlConfig};
use vflash_kv::{run_kv_cell, FlashStore, KvConfig, KvError, KvStats, KvStore, LookupSource};
use vflash_nand::{FaultConfig, NandConfig, NandDevice, Nanos};
use vflash_ppb::{PpbConfig, PpbFtl};
use vflash_sim::experiments::ExperimentScale;
use vflash_sim::{FtlKind, KvSource, RunSpec};

/// The `--quick` `lsm` cell on `ftl`: 3,000 ops over 2,000 keys, 96 blocks of
/// 64 × 4 KiB pages on one chip.
fn smoke(ftl: FtlKind) -> RunSpec<'static> {
    let scale = ExperimentScale {
        requests: 3_000,
        working_set_bytes: 12 << 20,
        pages_per_block: 64,
        ..ExperimentScale::quick()
    };
    RunSpec::new(KvSource { key_space: 2_000, io_depth: 1 }, scale).on(ftl)
}

/// Same spec must produce bit-identical summaries — percentiles, write
/// amplification, device time and the final SSTable layout — for both the
/// conventional and the PPB backend.
#[test]
fn identical_runs_are_bit_identical_on_both_ftls() {
    for ftl in FtlKind::ALL {
        let first = run_kv_cell(&smoke(ftl)).unwrap();
        let second = run_kv_cell(&smoke(ftl)).unwrap();
        assert!(!first.layout.is_empty());
        assert_eq!(first, second, "{}", ftl.label());
    }
}

/// The three write-amplification factors reported by a KV cell obey the
/// product identity: app WA x FTL WA = end-to-end WA, on both FTLs.
#[test]
fn workload_write_amplification_product_identity() {
    for ftl in FtlKind::ALL {
        let summary = run_kv_cell(&smoke(ftl)).unwrap();
        let wa = summary.write_amplification;
        assert!(wa.app > 1.0, "{}: app WA must exceed 1", summary.ftl);
        assert!(wa.ftl >= 1.0, "{}: FTL WA must be at least 1", summary.ftl);
        let product = wa.app * wa.ftl;
        assert!(
            (product - wa.end_to_end).abs() <= 1e-9 * wa.end_to_end,
            "{}: app {} x ftl {} != end-to-end {}",
            summary.ftl,
            wa.app,
            wa.ftl,
            wa.end_to_end
        );
    }
}

/// A device too small for its data set: flushes and compactions start failing
/// with `OutOfSpace` part-way through. Every put the store acknowledged must
/// stay readable — a flush the device refuses keeps the memtable — and every
/// page a refused table or manifest write had reserved must be back with the
/// allocator, or running out of space feeds itself.
#[test]
fn a_full_device_loses_no_acknowledged_put_and_leaks_no_page() {
    let device = NandDevice::new(NandConfig::small());
    let ftl = ConventionalFtl::new(device, FtlConfig::default()).unwrap();
    let mut kv = KvStore::open(FlashStore::new(ftl), KvConfig::default()).unwrap();
    let key = |i: u32| format!("key{i:06}").into_bytes();
    let value = |i: u32| vec![i as u8; 256];
    let mut acknowledged = Vec::new();
    let mut refused = 0;
    for i in 0..8_000u32 {
        match kv.put(&key(i), &value(i)) {
            Ok(_) => acknowledged.push(i),
            Err(KvError::OutOfSpace) => refused += 1,
            Err(other) => panic!("put {i}: {other:?}"),
        }
    }
    assert!(refused > 0, "8,000 puts of 256 bytes must overrun a 4 MiB device");
    assert!(acknowledged.len() > 4_000, "only {} puts were acknowledged", acknowledged.len());
    for &i in &acknowledged {
        let found = kv.get(&key(i)).unwrap().value;
        assert_eq!(found, Some(value(i).as_slice()), "acknowledged put {i}");
    }
    assert_eq!(kv.check_invariants(), Ok(()));
}

/// `get` and `scan` lend their answers from buffers the store reuses: a
/// table hit's value from one buffer, a scan's rows from slots the next scan
/// refills. A lent answer must hold exactly its own bytes — no earlier call's
/// longer value or surplus rows — from the memtable, across a flush and
/// across a compaction, at `io_depth` 1 and 16: a scan of 20 rows with long
/// values is followed by one of 3 rows with short ones, and a table hit with
/// a long value by one with a short value, a memtable hit and a miss.
#[test]
fn lent_reads_show_nothing_of_an_earlier_call() {
    let key = |i: u64| i.to_be_bytes();
    // Keys 0..20 hold long values, 100..103 short ones; 200..205 are written
    // after each flush, so they stay memtable hits.
    let long = |i: u64, round: u8| vec![round ^ i as u8; 200 + i as usize];
    let short = |i: u64, round: u8| vec![round ^ i as u8; 3 + i as usize % 3];
    for io_depth in [1usize, 16] {
        let config = KvConfig { l0_compaction_trigger: 2, io_depth, ..KvConfig::default() };
        let device = NandDevice::new(NandConfig::small());
        let ftl = ConventionalFtl::new(device, FtlConfig::default()).unwrap();
        let mut kv = KvStore::open(FlashStore::new(ftl), config).unwrap();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let put = |kv: &mut KvStore<ConventionalFtl>,
                   model: &mut BTreeMap<u64, Vec<u8>>,
                   i: u64,
                   value: Vec<u8>| {
            kv.put(&key(i), &value).unwrap();
            model.insert(i, value);
        };
        for round in 0..3u8 {
            for i in 0..20 {
                put(&mut kv, &mut model, i, long(i, round));
            }
            for i in 100..103 {
                put(&mut kv, &mut model, i, short(i, round));
            }
            // Round 0 reads from the memtable alone; round 1 from an L0
            // table; round 2's flush compacts both tables into L1.
            if round > 0 {
                kv.flush().unwrap();
            }
            for i in 200..205 {
                put(&mut kv, &mut model, i, short(i, round));
            }
            assert_eq!(kv.stats().compactions > 0, round == 2, "round {round}");

            let rows = |lo: u64, hi: u64| {
                model.range(lo..hi).map(|(&i, value)| (key(i).to_vec(), value.clone()))
            };
            let scanned = kv.scan(&key(0), &key(20)).unwrap();
            assert!(scanned.iter().cloned().eq(rows(0, 20)), "20 long rows, round {round}");
            let scanned = kv.scan(&key(100), &key(103)).unwrap();
            assert_eq!(scanned.len(), 3, "round {round} at io_depth {io_depth}");
            assert!(scanned.iter().cloned().eq(rows(100, 103)), "3 short rows, round {round}");

            let from_tables =
                if round == 0 { LookupSource::Memtable } else { LookupSource::SsTable };
            for (i, source) in [
                (19, from_tables),
                (101, from_tables),
                (200, LookupSource::Memtable),
                (300, LookupSource::Miss),
            ] {
                let lookup = kv.get(&key(i)).unwrap();
                let expected = model.get(&i).map(Vec::as_slice);
                let answer = (lookup.value, lookup.source);
                assert_eq!(answer, (expected, source), "key {i}, round {round}");
            }
        }
        assert_eq!(kv.check_invariants(), Ok(()));
    }
}

/// Once bad-block growth exhausts the spares the FTL turns read-only; the KV
/// store must surface that as `KvError::ReadOnly` (not a panic or a corruption
/// error), keep serving reads, and still recover from the device afterwards.
#[test]
fn worn_out_device_surfaces_read_only_and_still_recovers() {
    let faults = FaultConfig {
        program_fail_base: 0.03,
        erase_fail_base: 0.0,
        rber_scale: 0.0,
        ..FaultConfig::enabled(7)
    };
    let nand = NandConfig::builder()
        .chips(1)
        .blocks_per_chip(32)
        .pages_per_block(32)
        .page_size_bytes(4096)
        .build()
        .unwrap()
        .with_faults(faults)
        .unwrap();
    let ftl = ConventionalFtl::new(NandDevice::new(nand), FtlConfig::default()).unwrap();
    let config = KvConfig {
        memtable_bytes: 4 << 10,
        level_base_bytes: 16 << 10,
        target_table_bytes: 8 << 10,
        ..KvConfig::default()
    };
    let mut kv = KvStore::open(FlashStore::new(ftl), config).unwrap();
    let mut writes = 0u64;
    let error = loop {
        // A bounded key space keeps the live set small while overwrites churn
        // the device toward end of life.
        let key = (writes % 64).to_be_bytes();
        match kv.put(&key, &[0xAB; 512]) {
            Ok(_) => writes += 1,
            Err(error) => break error,
        }
        assert!(writes < 2_000_000, "device never reached end of life");
    };
    assert!(writes > 0, "no writes succeeded before end of life");
    assert!(matches!(error, KvError::ReadOnly), "expected ReadOnly, got: {error}");
    // Read-only is sticky at the KV level too.
    assert!(matches!(kv.put(b"again", b"x"), Err(KvError::ReadOnly)));
    // Whatever table or manifest the device turned away gave its pages back.
    assert_eq!(kv.check_invariants(), Ok(()));
    // Reads still work (values may be stale relative to the failed write).
    let lookup = kv.get(&0u64.to_be_bytes()).unwrap();
    assert!(lookup.value.is_some() || lookup.value.is_none()); // no panic, clean answer
    // Recovery from the device needs no writes and must succeed.
    let mut recovered = KvStore::open(kv.crash(), config).unwrap();
    assert_eq!(recovered.check_invariants(), Ok(()));
    recovered.get(&0u64.to_be_bytes()).unwrap();
    assert!(matches!(recovered.put(b"still", b"dead"), Err(KvError::ReadOnly)));
}

/// One deterministic put/get/delete/scan run (xorshift keys over a small key
/// space, so overwrites force flushes, multi-level compactions and device GC)
/// reduced to a fingerprint of everything simulated. The first half is what
/// neither the FTL nor the queue depth may change (every untimed `KvStats`
/// field, the page counters, an FNV of every byte returned, host writes, GC
/// copies, an FNV of the final table layout); the second is `[flush_time,
/// compaction_time, device_clock, erases, batched_submissions, batched_pages]`.
fn golden_fingerprint<F: FlashTranslationLayer>(ftl: F, io_depth: usize) -> (String, [u64; 6]) {
    let config = KvConfig {
        memtable_bytes: 8 << 10,
        level_base_bytes: 32 << 10,
        target_table_bytes: 16 << 10,
        io_depth,
        ..KvConfig::default()
    };
    let mut kv = KvStore::open(FlashStore::new(ftl), config).unwrap();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // FNV-1a over every byte the store returned (get values, scan rows).
    let mut returned = 0xcbf2_9ce4_8422_2325u64;
    let fold = |hash: &mut u64, bytes: &[u8]| {
        for &byte in bytes {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for _ in 0..12_000 {
        let draw = next();
        let rank = (draw >> 8) % 1_500;
        let key = rank.to_be_bytes();
        match draw % 20 {
            0..=12 => {
                let value = vec![(draw >> 32) as u8; 40 + (draw >> 40) as usize % 200];
                kv.put(&key, &value).unwrap();
            }
            13..=16 => match kv.get(&key).unwrap().value {
                Some(value) => fold(&mut returned, value),
                None => fold(&mut returned, b"absent"),
            },
            17 => {
                kv.delete(&key).unwrap();
            }
            _ => {
                for (key, value) in kv.scan(&key, &(rank + 25).to_be_bytes()).unwrap() {
                    fold(&mut returned, key);
                    fold(&mut returned, value);
                }
            }
        }
    }
    kv.flush().unwrap();
    assert_eq!(kv.check_invariants(), Ok(()));
    let mut layout_hash = 0xcbf2_9ce4_8422_2325u64;
    fold(&mut layout_hash, format!("{:?}", kv.layout()).as_bytes());
    let metrics = kv.flash().ftl().metrics();
    let stats = *kv.stats();
    let timing = [
        stats.flush_time.as_nanos(),
        stats.compaction_time.as_nanos(),
        kv.device_clock().as_nanos(),
        metrics.gc_erased_blocks,
        metrics.batched_submissions,
        metrics.batched_pages,
    ];
    let untimed = KvStats { flush_time: Nanos::ZERO, compaction_time: Nanos::ZERO, ..stats };
    let traffic = format!(
        "{untimed:?} host_reads={} returned={returned:016x} host_writes={} gc_copied={} \
         layout={layout_hash:016x}",
        metrics.host_reads,
        metrics.host_writes,
        metrics.gc_copied_pages,
    );
    (traffic, timing)
}

/// "Same traffic, same bytes": the literals below were captured on the commit
/// before the KV byte path was rebuilt (in-place shadow pages, borrowed reads,
/// streaming merge). Any change to the `IoRequest` sequence — op, LPN, request
/// size, chunking — or to a table image moves at least one of them.
#[test]
fn kv_runs_match_the_golden_fingerprint() {
    let nand = NandConfig::builder()
        .chips(4)
        .blocks_per_chip(12)
        .pages_per_block(32)
        .page_size_bytes(4096)
        .build()
        .unwrap();
    const TRAFFIC: &str = "KvStats { puts: 7813, deletes: 642, gets: 2347, scans: 1198, \
        memtable_hits: 30, sstable_hits: 1776, misses: 541, bloom_skips: 5047, table_reads: 1897, \
        flushes: 154, wal_forced_flushes: 0, compactions: 61, app_bytes_written: 1165661, \
        flush_time: Nanos(0), compaction_time: Nanos(0) } \
        host_reads=13115 returned=21d38ca11411cea6 \
        host_writes=10712 gc_copied=0 layout=de2c3fb1866d5cc7";
    let golden = [
        ("conventional", 1usize, [1242224036u64, 851193306, 6645434579, 290, 0, 0]),
        ("conventional", 16, [865816286, 528542855, 6006091862, 290, 17841, 23672]),
        ("ppb", 1, [1189698429, 805783825, 6652797088, 290, 0, 0]),
        ("ppb", 16, [1021082456, 717868412, 6414204672, 292, 17841, 23672]),
    ];
    for (name, io_depth, expected) in golden {
        let device = NandDevice::new(nand.clone());
        let (traffic, timing) = match name {
            "conventional" => golden_fingerprint(
                ConventionalFtl::new(device, FtlConfig::default()).unwrap(),
                io_depth,
            ),
            _ => golden_fingerprint(PpbFtl::new(device, PpbConfig::default()).unwrap(), io_depth),
        };
        assert_eq!(traffic, TRAFFIC, "{name} at io_depth {io_depth}");
        assert_eq!(timing, expected, "{name} at io_depth {io_depth}");
    }
}
