//! End-to-end checks of the KV stack: determinism across identical runs, the
//! write-amplification product identity at workload scale, clean
//! [`KvError::ReadOnly`] surfacing once the device wears out, and a device
//! that fills up: no acknowledged write lost, no page leaked.

use vflash_ftl::{ConventionalFtl, FlashTranslationLayer, FtlConfig};
use vflash_kv::workload::{compare_conventional_vs_ppb, KvWorkloadConfig};
use vflash_kv::{FlashStore, KvConfig, KvError, KvStats, KvStore};
use vflash_nand::{FaultConfig, NandConfig, NandDevice, Nanos};
use vflash_ppb::{PpbConfig, PpbFtl};

/// Same seed + same FTL must produce bit-identical summaries — percentiles,
/// write amplification, device time and the final SSTable layout — for both
/// the conventional and the PPB backend.
#[test]
fn identical_runs_are_bit_identical_on_both_ftls() {
    let workload = KvWorkloadConfig::smoke();
    let first = compare_conventional_vs_ppb(KvConfig::default(), &workload).unwrap();
    let second = compare_conventional_vs_ppb(KvConfig::default(), &workload).unwrap();
    assert_eq!(first.conventional, second.conventional);
    assert_eq!(first.ppb, second.ppb);
    assert!(!first.conventional.layout.is_empty());
    assert_eq!(first.conventional.layout, second.conventional.layout);
    assert_eq!(first.ppb.layout, second.ppb.layout);
}

/// The three write-amplification factors reported by a workload run obey the
/// product identity: app WA x FTL WA = end-to-end WA, on both FTLs.
#[test]
fn workload_write_amplification_product_identity() {
    let comparison =
        compare_conventional_vs_ppb(KvConfig::default(), &KvWorkloadConfig::smoke()).unwrap();
    for summary in [&comparison.conventional, &comparison.ppb] {
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
        assert_eq!(kv.get(&key(i)).unwrap().value, Some(value(i)), "acknowledged put {i}");
    }
    assert_eq!(kv.check_invariants(), Ok(()));
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
                Some(value) => fold(&mut returned, &value),
                None => fold(&mut returned, b"absent"),
            },
            17 => {
                kv.delete(&key).unwrap();
            }
            _ => {
                for (key, value) in kv.scan(&key, &(rank + 25).to_be_bytes()).unwrap() {
                    fold(&mut returned, &key);
                    fold(&mut returned, &value);
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
        "{untimed:?} {:?} returned={returned:016x} host_writes={} gc_copied={} \
         layout={layout_hash:016x}",
        kv.flash().io_stats(),
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
        StoreIoStats { pages_written: 10712, pages_read: 13115 } returned=21d38ca11411cea6 \
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
