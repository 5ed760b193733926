//! Isolated micro-sections: layers that cannot be wrapped from outside are
//! timed alone, in a loop over the workload's own inputs, by calling their
//! public functions directly. Each returns host nanoseconds per call.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vflash_fleet::{dispatch_order, CacheConfig, StripeMap, TenantWeight, WritebackCache};
use vflash_kv::{
    BloomFilter, Entry, FlashStore, KvConfig, Memtable, SegmentFile, TableHandle, Wal, WalOp,
};
use vflash_nand::{BlockAddr, ChipClocks, NandConfig, NandDevice, Nanos, PageAddr, PageId};
use vflash_sim::LatencyHistogram;
use vflash_trace::synthetic::{self, ArrivalModel, SyntheticConfig};
use vflash_trace::{IoOp, Trace, Zipf};

use super::{conventional, ns_per_call, Layers};

/// `trace.gen_ns_per_req`: the synthetic generator alone.
pub fn trace_generation() -> Layers {
    const REQUESTS: usize = 50_000;
    let generated = ns_per_call(1, |_| {
        let trace = synthetic::web_sql_server(SyntheticConfig {
            requests: REQUESTS,
            seed: 7,
            working_set_bytes: 64 << 20,
            arrival: ArrivalModel::default(),
        });
        std::hint::black_box(trace.len());
    });
    vec![("trace.gen_ns_per_req", generated / REQUESTS as f64)]
}

/// `trace.zipf_ns_per_sample`: the Zipf sampler alone (the KV op generator and
/// the skewed trace generators draw their keys from it).
pub fn zipf() -> Layers {
    let zipf = Zipf::new(100_000, 0.99);
    let mut rng = StdRng::seed_from_u64(7);
    let sampled = ns_per_call(500_000, |_| {
        std::hint::black_box(zipf.sample(&mut rng));
    });
    vec![("trace.zipf_ns_per_sample", sampled)]
}

/// `nand.*`: the device model alone — program, read (op tracing off, then on)
/// and erase on a fresh device of the workload's geometry, plus the per-chip
/// ready-clock rule every queued discipline replays ops through.
pub fn nand(config: &NandConfig) -> Layers {
    const BLOCKS: usize = 256;
    let mut device = NandDevice::new(config.clone());
    let pages_per_block = config.pages_per_block();
    let blocks: Vec<BlockAddr> = (0..BLOCKS.min(config.total_blocks() / 2))
        .filter_map(|_| device.allocate_block())
        .collect();
    let pages: Vec<PageAddr> = blocks
        .iter()
        .flat_map(|&block| (0..pages_per_block).map(move |page| block.page(PageId(page))))
        .collect();
    let page_count = pages.len() as u64;

    let program_ns = ns_per_call(page_count, |index| {
        let block = blocks[index as usize / pages_per_block];
        std::hint::black_box(
            device
                .program_next(block)
                .expect("fresh blocks have free pages"),
        );
    });
    let read_all = |device: &mut NandDevice| {
        ns_per_call(page_count * 4, |index| {
            let addr = pages[(index % page_count) as usize];
            std::hint::black_box(device.read(addr).expect("programmed pages are readable"));
            device.clear_ops();
        })
    };
    let read_ns = read_all(&mut device);
    device.set_op_tracing(true);
    let read_traced_ns = read_all(&mut device);
    device.set_op_tracing(false);
    for &addr in &pages {
        device.invalidate(addr).expect("programmed pages are valid");
    }
    let erase_ns = ns_per_call(blocks.len() as u64, |index| {
        std::hint::black_box(
            device
                .erase(blocks[index as usize])
                .expect("no valid pages remain"),
        );
    });

    let chips = config.chips();
    let mut clocks = ChipClocks::new(chips);
    let play_ns = ns_per_call(2_000_000, |index| {
        let done = clocks.play_op(index as usize % chips, Nanos(index * 20_000), Nanos(45_000));
        std::hint::black_box(done);
    });
    vec![
        ("nand.program_ns", program_ns),
        ("nand.read_ns", read_ns),
        ("nand.read_traced_ns", read_traced_ns),
        ("nand.erase_ns", erase_ns),
        ("nand.chipclocks_play_ns", play_ns),
    ]
}

/// `sim.histogram.*`: `LatencyHistogram` alone, fed the simulated completion
/// latencies the traced run recorded.
pub fn histogram(latencies: &[u64]) -> Layers {
    if latencies.is_empty() {
        return Vec::new();
    }
    let mut hist = LatencyHistogram::new();
    let record_ns = ns_per_call(2_000_000, |index| {
        hist.record(Nanos(latencies[index as usize % latencies.len()]));
    });
    let percentiles_ns = ns_per_call(2_000, |_| {
        std::hint::black_box(hist.percentiles());
    });
    vec![
        ("sim.histogram.record_ns", record_ns),
        ("sim.histogram.percentiles_ns", percentiles_ns),
    ]
}

/// `kv.memtable.*`, `kv.bloom.*`, `kv.sstable.*`, `kv.wal.*`, `kv.flash.*`:
/// the LSM's parts alone, over `keys` (the workload's own key ranks) with
/// `value_bytes`-byte values, on a conventional FTL with the workload's chip
/// count and page geometry (and a fixed 256 blocks, so the sections fit even
/// when the workload's own device is tiny).
pub fn kv(nand: &NandConfig, kv: KvConfig, keys: &[u64], value_bytes: usize) -> Layers {
    let nand = &NandConfig::builder()
        .chips(nand.chips())
        .blocks_per_chip(256 / nand.chips())
        .pages_per_block(nand.pages_per_block())
        .page_size_bytes(nand.page_size_bytes())
        .build()
        .expect("the micro-section geometry is valid");
    let mut distinct: Vec<u64> = keys.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let value = vec![0xA5u8; value_bytes];
    let key_of = |rank: u64| rank.to_be_bytes().to_vec();
    // Absent keys interleave with present ones (odd ranks past the key space).
    let absent_of = |rank: u64| (rank | (1 << 40)).to_be_bytes().to_vec();
    let count = keys.len() as u64;

    let mut memtable = Memtable::new();
    let mut owned: Vec<Entry> = keys
        .iter()
        .rev()
        .map(|&rank| (key_of(rank), Some(value.clone())))
        .collect();
    let memtable_insert_ns = ns_per_call(count, |_| {
        let (key, value) = owned.pop().expect("one prepared entry per call");
        memtable.insert(key, value);
    });
    let probes: Vec<Vec<u8>> = keys
        .iter()
        .enumerate()
        .map(|(index, &rank)| {
            if index % 2 == 0 {
                key_of(rank)
            } else {
                absent_of(rank)
            }
        })
        .collect();
    let memtable_get_ns = ns_per_call(count, |index| {
        std::hint::black_box(memtable.get(&probes[index as usize]));
    });

    let mut bloom = BloomFilter::with_bits_per_key(distinct.len(), kv.bloom_bits_per_key);
    let bloom_insert_ns = ns_per_call(distinct.len() as u64, |index| {
        bloom.insert(&distinct[index as usize].to_be_bytes());
    });
    let bloom_contains_ns = ns_per_call(count, |index| {
        std::hint::black_box(bloom.contains(&probes[index as usize]));
    });

    // One store for the table, WAL and raw flash sections, at the workload's
    // io_depth so appends take the same scalar or batched path.
    let mut store = FlashStore::new(conventional(nand));
    store.set_io_depth(kv.io_depth);
    let page_size = store.page_size();

    const TABLE_ENTRIES: usize = 4_096;
    let entries: Vec<Entry> = distinct
        .iter()
        .take(TABLE_ENTRIES)
        .map(|&rank| (key_of(rank), Some(value.clone())))
        .collect();
    let mut table = None;
    let build_ns = ns_per_call(1, |_| {
        table = Some(
            TableHandle::build(&mut store, 1, &entries, kv.table_options())
                .expect("the fresh device has room for one table"),
        );
    });
    let table = table.expect("built above");
    let table_get_ns = ns_per_call(count, |index| {
        let found = table
            .get(&mut store, &probes[index as usize])
            .expect("table reads succeed");
        std::hint::black_box(found);
    });

    let mut wal_file = SegmentFile::new();
    store
        .reserve(&mut wal_file, kv.wal_region_pages(page_size))
        .expect("the fresh device has room for the WAL region");
    let mut wal = Wal::new(wal_file, 1);
    let wal_ops: Vec<WalOp> = keys
        .iter()
        .take(20_000)
        .map(|&rank| WalOp::Put {
            key: key_of(rank),
            value: value.clone(),
        })
        .collect();
    let wal_append_ns = ns_per_call(wal_ops.len() as u64, |index| {
        let op = &wal_ops[index as usize];
        if wal.would_overflow(op, page_size) {
            wal.reset();
        }
        wal.append(&mut store, op)
            .expect("the WAL region was just checked");
    });

    const CHUNK_PAGES: usize = 32;
    const CHUNKS: u64 = 64;
    let chunk = vec![0x5Au8; CHUNK_PAGES * page_size];
    let mut file = SegmentFile::new();
    let append_ns = ns_per_call(CHUNKS, |_| {
        store
            .append(&mut file, &chunk, chunk.len() as u32)
            .expect("the device has room");
    });
    let file_pages = file.pages();
    let read_page_ns = ns_per_call(200_000, |index| {
        let lpn = file
            .lpn_at(index % file_pages)
            .expect("index is within the file");
        std::hint::black_box(
            store
                .read_page(lpn)
                .expect("appended pages are readable")
                .len(),
        );
    });

    vec![
        ("kv.memtable.insert_ns", memtable_insert_ns),
        ("kv.memtable.get_ns", memtable_get_ns),
        ("kv.bloom.insert_ns", bloom_insert_ns),
        ("kv.bloom.contains_ns", bloom_contains_ns),
        (
            "kv.sstable.build_ns_per_entry",
            build_ns / entries.len() as f64,
        ),
        ("kv.sstable.get_ns", table_get_ns),
        ("kv.wal.append_ns", wal_append_ns),
        (
            "kv.flash.append_ns_per_page",
            append_ns / CHUNK_PAGES as f64,
        ),
        ("kv.flash.read_page_ns", read_page_ns),
    ]
}

/// The fleet-level page stream of `trace`: `(op, request bytes, fleet LPN)`.
fn page_stream(trace: &Trace, page_size: usize, fleet_pages: u64) -> Vec<(IoOp, u32, u64)> {
    trace
        .iter()
        .flat_map(|request| {
            request
                .logical_pages(page_size)
                .map(move |page| (request.op, request.length, page % fleet_pages))
        })
        .collect()
}

/// `fleet.stripe.locate_ns` and `fleet.qos.dispatch_ns_per_req`: the stripe map
/// and the weighted-share dispatch order alone, over the workload's trace.
pub fn fleet_routing(
    trace: &Trace,
    page_size: usize,
    stripe: StripeMap,
    tenants: &[TenantWeight],
) -> Layers {
    let stream = page_stream(trace, page_size, stripe.fleet_pages());
    let locate_ns = ns_per_call(stream.len() as u64 * 4, |index| {
        std::hint::black_box(stripe.locate(stream[index as usize % stream.len()].2));
    });
    let dispatch_ns = ns_per_call(1, |_| {
        std::hint::black_box(dispatch_order(tenants, trace.len()));
    });
    vec![
        ("fleet.stripe.locate_ns", locate_ns),
        (
            "fleet.qos.dispatch_ns_per_req",
            dispatch_ns / trace.len() as f64,
        ),
    ]
}

/// `fleet.cache.*_ns`: the writeback cache alone, replaying the workload's page
/// stream with the fleet's own call pattern (read → `read`; small write →
/// `write` then `flush_to_threshold`). Flushes are
/// long enough to time one by one; reads and writes are timed in bulk with the
/// flush time taken out.
pub fn fleet_cache(
    trace: &Trace,
    page_size: usize,
    fleet_pages: u64,
    config: CacheConfig,
) -> Layers {
    let stream = page_stream(trace, page_size, fleet_pages);
    let mut cache = WritebackCache::new(config);
    let mut flush_ns = 0u64;
    let mut flush_calls = 0u64;
    let mut writes = 0u64;
    let absorbed: Vec<u64> = stream
        .iter()
        .filter(|(op, bytes, _)| *op == IoOp::Write && *bytes < config.write_around_bytes)
        .map(|&(_, _, lpn)| lpn)
        .collect();
    let start = std::time::Instant::now();
    for &lpn in &absorbed {
        std::hint::black_box(cache.write(lpn));
        writes += 1;
        if cache.over_threshold() {
            let flush_start = std::time::Instant::now();
            std::hint::black_box(cache.flush_to_threshold());
            flush_ns += flush_start.elapsed().as_nanos() as u64;
            flush_calls += 1;
        }
    }
    let write_ns = (start.elapsed().as_nanos() as u64).saturating_sub(flush_ns);
    // Reads leave residency unchanged (only recency moves), so they are timed
    // against the cache the write pass warmed.
    let reads: Vec<u64> = stream
        .iter()
        .filter(|(op, _, _)| *op == IoOp::Read)
        .map(|&(_, _, lpn)| lpn)
        .collect();
    let read_ns = ns_per_call(reads.len() as u64, |index| {
        std::hint::black_box(cache.read(reads[index as usize]));
    });
    vec![
        ("fleet.cache.read_ns", read_ns),
        (
            "fleet.cache.write_ns",
            write_ns as f64 / writes.max(1) as f64,
        ),
        (
            "fleet.cache.flush_ns",
            flush_ns as f64 / flush_calls.max(1) as f64,
        ),
    ]
}
