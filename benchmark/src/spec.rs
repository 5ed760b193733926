//! The benchmark's vocabulary: workload names, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` is this file rendered by
//! `--print-spec`; the smoke test fails when the two drift apart.

use crate::json::Value;

/// Which clock (if any) a number is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Host wall-clock or memory: what the simulator costs its user. Noisy.
    Host,
    /// Simulated time or a simulated ratio: what the modelled device, LSM or
    /// fleet would do. Deterministic per seed.
    Sim,
    /// A count made by the program. Deterministic per seed.
    Count,
}

/// One named workload.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it exists (one line).
    pub why: &'static str,
}

/// One end-to-end metric.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Host or simulated.
    pub axis: Axis,
}

/// One per-layer metric.
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Host, simulated or count.
    pub axis: Axis,
}

/// The six workloads.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "replay_serial",
        why: "Closed loop QD 1 over web-sql and media traces, both FTLs: the paper's discipline and the scalar fast path (no calendar, no op tracing); FTL submit, NAND model and prefill do the work.",
    },
    Workload {
        name: "replay_queued",
        why: "Same web-sql trace at QD 16 and open loop over Pareto arrivals: op tracing on, event calendar, op-arena resolve. A calendar or tracing change shows here and must not move replay_serial.",
    },
    Workload {
        name: "kv_write",
        why: "Zipf 80/10/5/5 put/get/delete/scan over the LSM store at io_depth 16 on 4 chips: memtable drain, WAL, SSTable build, bloom insert, compaction, submit_batch and write striping dominate.",
    },
    Workload {
        name: "kv_read",
        why: "5/85/0/10 mix at io_depth 1 on 1 chip over a preloaded store 400x the memtable: bloom and sparse-index probes, read_page, scalar submit. A read-path change that costs kv_write shows.",
    },
    Workload {
        name: "fleet_stripe",
        why: "Width-4 fleet, cache off, two tenants 3:1, closed loop QD 32: the fleet's own drive loop, StripeMap, QoS dispatch order and completion calendar; the host cache is bypassed.",
    },
    Workload {
        name: "fleet_cached",
        why: "Same fleet with the default writeback cache at half the working set: WritebackCache read/write/flush_to_threshold does most of the host work. A cache change must not move fleet_stripe.",
    },
];

const fn host(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        axis: Axis::Host,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        axis: Axis::Sim,
    }
}

/// End-to-end metrics; every workload reports every one.
pub const END_TO_END: [EndToEnd; 10] = [
    host("host_ops_per_s", "ops/s", "higher", 0.25),
    host("setup_s", "s", "lower", 0.25),
    host("peak_rss_mb", "MiB", "lower", 0.10),
    sim("sim_iops", "1/s", "higher", 0.10),
    sim("sim_read_mean_us", "us", "lower", 0.10),
    sim("sim_write_mean_us", "us", "lower", 0.10),
    sim("sim_wa", "ratio", "lower", 0.03),
    sim("sim_erases", "count", "lower", 0.06),
    sim("ppb_read_lat_ratio", "ratio", "lower", 0.10),
    sim("ppb_write_lat_ratio", "ratio", "lower", 0.10),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    axis: Axis,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        axis,
    }
}

use Axis::{Count, Host, Sim};

/// Per-layer metrics; the traced run of every workload reports every one, and
/// a layer that is not on the workload's path reads 0.
pub const PER_LAYER: [PerLayer; 91] = [
    // trace
    layer("trace.gen_ns_per_req", "ns", "lower", Host),
    layer("trace.zipf_ns_per_sample", "ns", "lower", Host),
    layer("trace.pages_per_req", "count", "lower", Count),
    // nand
    layer("nand.program_ns", "ns", "lower", Host),
    layer("nand.read_ns", "ns", "lower", Host),
    layer("nand.erase_ns", "ns", "lower", Host),
    layer("nand.read_traced_ns", "ns", "lower", Host),
    layer("nand.chipclocks_play_ns", "ns", "lower", Host),
    layer("nand.ops_per_req", "count", "lower", Count),
    layer("nand.erases", "count", "lower", Count),
    // ftl (conventional)
    layer("ftl.submit_calls", "count", "lower", Count),
    layer("ftl.submit_busy_s", "s", "lower", Host),
    layer("ftl.submit_share", "ratio", "lower", Host),
    layer("ftl.read_ns_p50", "ns", "lower", Host),
    layer("ftl.read_ns_p999", "ns", "lower", Host),
    layer("ftl.write_ns_p50", "ns", "lower", Host),
    layer("ftl.write_ns_p999", "ns", "lower", Host),
    layer("ftl.batch_calls", "count", "lower", Count),
    layer("ftl.batch_busy_s", "s", "lower", Host),
    layer("ftl.batch_pages_mean", "count", "higher", Count),
    layer("ftl.gc_copied_pages", "count", "lower", Count),
    layer("ftl.wa", "ratio", "lower", Sim),
    // ppb
    layer("ppb.submit_calls", "count", "lower", Count),
    layer("ppb.submit_busy_s", "s", "lower", Host),
    layer("ppb.submit_share", "ratio", "lower", Host),
    layer("ppb.read_ns_p50", "ns", "lower", Host),
    layer("ppb.read_ns_p999", "ns", "lower", Host),
    layer("ppb.write_ns_p50", "ns", "lower", Host),
    layer("ppb.write_ns_p999", "ns", "lower", Host),
    layer("ppb.migrated_pages", "count", "lower", Count),
    layer("ppb.wa", "ratio", "lower", Sim),
    layer("ppb.read_gain_pct", "%", "higher", Sim),
    layer("ppb.write_gain_pct", "%", "higher", Sim),
    // sim
    layer("sim.engine.self_ns_per_req", "ns", "lower", Host),
    layer("sim.engine.prefill_submits", "count", "lower", Count),
    layer("sim.calendar.overlay_ns_per_req", "ns", "lower", Host),
    layer("sim.histogram.record_ns", "ns", "lower", Host),
    layer("sim.histogram.percentiles_ns", "ns", "lower", Host),
    layer("sim.parallel.grid_speedup", "x", "higher", Host),
    layer("sim.read_p999_us", "us", "lower", Sim),
    layer("sim.write_p999_us", "us", "lower", Sim),
    layer("sim.queue_delay_p99_us", "us", "lower", Sim),
    layer("sim.service_p99_us", "us", "lower", Sim),
    layer("sim.peak_queue_depth", "count", "lower", Count),
    layer("sim.busy_arrival_fraction", "ratio", "lower", Sim),
    // kv
    layer("kv.store.put_ns_p50", "ns", "lower", Host),
    layer("kv.store.put_ns_p99", "ns", "lower", Host),
    layer("kv.store.get_ns_p50", "ns", "lower", Host),
    layer("kv.store.get_ns_p99", "ns", "lower", Host),
    layer("kv.store.scan_ns_p50", "ns", "lower", Host),
    layer("kv.store.scan_ns_p99", "ns", "lower", Host),
    layer("kv.store.stalled_put_ns_p50", "ns", "lower", Host),
    layer("kv.store.stall_share", "ratio", "lower", Host),
    layer("kv.store.self_ns_per_op", "ns", "lower", Host),
    layer("kv.flash.submit_share", "ratio", "lower", Host),
    layer("kv.flash.append_ns_per_page", "ns", "lower", Host),
    layer("kv.flash.read_page_ns", "ns", "lower", Host),
    layer("kv.memtable.insert_ns", "ns", "lower", Host),
    layer("kv.memtable.get_ns", "ns", "lower", Host),
    layer("kv.bloom.insert_ns", "ns", "lower", Host),
    layer("kv.bloom.contains_ns", "ns", "lower", Host),
    layer("kv.sstable.build_ns_per_entry", "ns", "lower", Host),
    layer("kv.sstable.get_ns", "ns", "lower", Host),
    layer("kv.wal.append_ns", "ns", "lower", Host),
    layer("kv.flushes", "count", "lower", Count),
    layer("kv.compactions", "count", "lower", Count),
    layer("kv.table_reads_per_get", "count", "lower", Count),
    layer("kv.bloom_skip_ratio", "ratio", "higher", Count),
    layer("kv.app_wa", "ratio", "lower", Sim),
    layer("kv.batched_pages", "count", "higher", Count),
    layer("kv.sim_get_p99_us", "us", "lower", Sim),
    layer("kv.sim_put_p999_us", "us", "lower", Sim),
    layer("kv.sim_stall_p95_us", "us", "lower", Sim),
    // fleet
    layer("fleet.driver.self_ns_per_req", "ns", "lower", Host),
    layer("fleet.stripe.locate_ns", "ns", "lower", Host),
    layer("fleet.qos.dispatch_ns_per_req", "ns", "lower", Host),
    layer("fleet.cache.read_ns", "ns", "lower", Host),
    layer("fleet.cache.write_ns", "ns", "lower", Host),
    layer("fleet.cache.flush_ns", "ns", "lower", Host),
    layer("fleet.cache.hit_rate", "ratio", "higher", Count),
    layer("fleet.cache.flushes", "count", "lower", Count),
    layer("fleet.cache.writebacks", "count", "lower", Count),
    layer("fleet.lane_imbalance", "ratio", "lower", Count),
    layer("fleet.fanout_p999_us", "us", "lower", Sim),
    layer("fleet.stripe_p999_us", "us", "lower", Sim),
    layer("fleet.tail_amp", "x", "lower", Sim),
    // host
    layer("host.allocs_per_op", "count", "lower", Count),
    layer("host.alloc_bytes_per_op", "count", "lower", Count),
    layer("host.trace_overhead_pct", "%", "lower", Host),
    layer("host.span_overhead_ns", "ns", "lower", Host),
    layer("host.parallelism", "count", "higher", Count),
];

/// How long one run measures, in seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// `BENCHMARK.json`, rendered from the tables above (one entry per line, so
/// the file diffs by metric).
pub fn benchmark_json() -> String {
    let quoted = |text: &str| Value::from(text).to_json();
    let section = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        section(workloads),
        section(end_to_end),
        section(per_layer)
    )
}

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|metric| metric.name == name)
}

/// The per-layer metric called `name`.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|metric| metric.name == name)
}
