//! Run shape: one process per workload. Set-up (several times, median
//! reported), one warm-up repetition, then measured repetitions of a fixed unit
//! of work until `--seconds` of measured time have passed; every timing metric
//! is the median over those repetitions. The traced run does a few untraced
//! repetitions (its own baseline), then traced ones, then the isolated
//! micro-sections, and writes the span file.
//!
//! Correctness is checked in the same command: simulated results must repeat
//! exactly across repetitions and between traced and untraced runs (so
//! `SpanFtl` is proven transparent), counted proxies must repeat exactly, and
//! the workloads' own checks (shadow model, write-amplification identity,
//! errors) are summed into `failed`.

use std::path::PathBuf;
use std::time::Instant;

use crate::json::{self, Value};
use crate::span;
use crate::spec::{self, Axis};
use crate::stats::{median, quartiles, spread};
use crate::workloads::{self, span_count_mismatches, Layers, Rep, TracedRun};

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Measured time per run, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub traced: bool,
    /// Tiny sizes and two repetitions, for the self-test.
    pub smoke: bool,
    /// Where result and span files go.
    pub out_dir: PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 42,
            seconds: spec::RUN_SECONDS as f64,
            traced: false,
            smoke: false,
            out_dir: PathBuf::from("benchmark/out"),
        }
    }
}

/// Fewest measured repetitions of an untraced run, whatever `--seconds` says.
const MIN_REPS: usize = 7;
/// Most measured repetitions of an untraced run.
const MAX_REPS: usize = 40;
/// Fewest set-ups per untraced run (the median is reported).
const MIN_SETUPS: usize = 5;
/// Most set-ups per untraced run.
const MAX_SETUPS: usize = 101;
/// Cheap set-ups repeat until this much time has been spent on them.
const SETUP_BUDGET_SECONDS: f64 = 1.0;
/// Untraced baseline repetitions inside a traced run.
const TRACED_RUN_BASELINE_REPS: usize = 3;
/// Traced repetitions inside a traced run.
const TRACED_REPS: usize = 2;

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    axis: Axis,
    value: f64,
    /// Values that show the metric's run-to-run spread to `--compare`: the
    /// per-set-up times, or the two split-half throughput estimates.
    samples: Vec<f64>,
    /// How the value was derived from how many samples (printed beside it).
    note: String,
}

/// `n, min, max, IQR` of `samples`, for the printed table.
fn describe(samples: &[f64]) -> String {
    let (q1, q3) = quartiles(samples);
    format!(
        "{} samples, min {:.4}, max {:.4}, IQR {:.4} = {:.2}%",
        samples.len(),
        samples.iter().copied().fold(f64::INFINITY, f64::min),
        samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        q3 - q1,
        spread(samples) * 100.0
    )
}

/// Everything one process measured.
struct Outcome {
    workload: String,
    traced: bool,
    seed: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    fingerprint: u64,
    repetitions: usize,
    metrics: Vec<Metric>,
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn seconds_of(rep: &Rep) -> f64 {
    rep.meter.host_ns as f64 / 1e9
}

/// The host time one repetition takes when nothing interferes: each measured
/// part (one FTL's run of one trace, one chunk of KV ops, one fleet run) at the
/// fastest it ran in any of `reps`, summed. On a shared machine interference
/// only ever adds time — repetitions of one run spread by ±10–40% here, and the
/// whole machine slows for tens of seconds at a time — so the per-part minimum
/// repeats between runs two to three times better than the median repetition.
fn best_seconds<'a>(reps: impl Iterator<Item = &'a Rep> + Clone) -> f64 {
    let parts = reps.clone().next().map_or(0, |rep| rep.meter.part_ns.len());
    let best: u64 = (0..parts)
        .map(|part| {
            reps.clone()
                .map(|rep| rep.meter.part_ns[part])
                .min()
                .unwrap_or(0)
        })
        .sum();
    best as f64 / 1e9
}

/// Checks that `reps` all simulated the same thing as `reference` and made the
/// same counts; each violation is one problem (and one failed operation).
fn check_repeatable(reference: &Rep, reps: &[Rep], what: &str, problems: &mut Vec<String>) {
    for (index, rep) in reps.iter().enumerate() {
        if rep.fingerprint != reference.fingerprint {
            problems.push(format!(
                "{what} repetition {index}: simulated fingerprint {:016x} != {:016x}",
                rep.fingerprint.0, reference.fingerprint.0
            ));
        }
        for ((name, value), (_, expected)) in rep.layers.iter().zip(&reference.layers) {
            if value.to_bits() != expected.to_bits() {
                problems.push(format!(
                    "{what} repetition {index}: {name} = {value}, expected {expected}"
                ));
            }
        }
    }
}

/// Checks that allocation counts repeat exactly across `reps`.
fn check_allocations(reps: &[Rep], what: &str, problems: &mut Vec<String>) {
    let Some(first) = reps.first() else { return };
    for (index, rep) in reps.iter().enumerate() {
        if (rep.meter.allocs, rep.meter.alloc_bytes)
            != (first.meter.allocs, first.meter.alloc_bytes)
        {
            problems.push(format!(
                "{what} repetition {index}: {} allocations / {} bytes, repetition 0 made {} / {}",
                rep.meter.allocs,
                rep.meter.alloc_bytes,
                first.meter.allocs,
                first.meter.alloc_bytes
            ));
        }
    }
}

fn untraced(name: &str, options: &Options) -> Outcome {
    let (min_setups, min_reps) = if options.smoke {
        (2, 2)
    } else {
        (MIN_SETUPS, MIN_REPS)
    };
    // Set up several times and report the median: at least `MIN_SETUPS`, and
    // cheap set-ups (a few ms of trace generation) keep repeating until a
    // second has been spent, so their median is as steady as the costly ones'.
    let mut setup_seconds: Vec<f64> = Vec::new();
    let mut workload = workloads::setup(name, options.seed, options.smoke);
    while setup_seconds.len() < min_setups
        || (!options.smoke
            && setup_seconds.iter().sum::<f64>() < SETUP_BUDGET_SECONDS
            && setup_seconds.len() < MAX_SETUPS)
    {
        // Drop the previous inputs first so set-ups do not pile up in memory.
        drop(workload);
        let start = Instant::now();
        workload = workloads::setup(name, options.seed, options.smoke);
        setup_seconds.push(start.elapsed().as_secs_f64());
    }

    let warm_up = workload.rep(false);
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = 0.0;
    while reps.len() < min_reps || (measured < options.seconds && reps.len() < MAX_REPS) {
        if options.smoke && reps.len() >= min_reps {
            break;
        }
        let rep = workload.rep(false);
        measured += seconds_of(&rep);
        reps.push(rep);
    }
    let mut problems = Vec::new();
    check_repeatable(&warm_up, &reps, "untraced", &mut problems);
    check_allocations(&reps, "untraced", &mut problems);

    let ops = warm_up.ops as f64;
    let sim = warm_up.sim;
    // Split-half estimates (even and odd repetitions) show how far the
    // estimator itself moves between two samples of the same run.
    let halves: Vec<f64> = (0..2)
        .map(|half| ops / best_seconds(reps.iter().skip(half).step_by(2)))
        .collect();
    let per_rep: Vec<f64> = reps.iter().map(|rep| ops / seconds_of(rep)).collect();
    let throughput_note = format!(
        "each part at its fastest over {} repetitions (even / odd halves {:.1} / {:.1}; \
         whole repetitions: median {:.1}, {})",
        reps.len(),
        halves[0],
        halves[1],
        median(&per_rep),
        describe(&per_rep)
    );
    let setup_note = format!("median of {}", describe(&setup_seconds));
    let exact = |value: f64| (value, Vec::new(), String::new());
    let values = [
        (
            "host_ops_per_s",
            (ops / best_seconds(reps.iter()), halves, throughput_note),
        ),
        (
            "setup_s",
            (median(&setup_seconds), setup_seconds, setup_note),
        ),
        ("peak_rss_mb", exact(peak_rss_mib())),
        ("sim_iops", exact(sim.iops)),
        ("sim_read_mean_us", exact(sim.read_mean_us)),
        ("sim_write_mean_us", exact(sim.write_mean_us)),
        ("sim_wa", exact(sim.wa)),
        ("sim_erases", exact(sim.erases)),
        ("ppb_read_lat_ratio", exact(sim.ppb_read_lat_ratio)),
        ("ppb_write_lat_ratio", exact(sim.ppb_write_lat_ratio)),
    ];
    let metrics = values
        .into_iter()
        .map(|(name, (value, samples, note))| {
            let metric = spec::end_to_end(name).expect("every reported metric is in the spec");
            if !(value.is_finite() && value > 0.0) {
                problems.push(format!("{name} = {value}: end-to-end metrics are positive"));
            }
            let value = if value.is_finite() { value } else { 0.0 };
            Metric {
                name: metric.name,
                unit: metric.unit,
                axis: metric.axis,
                value,
                samples,
                note,
            }
        })
        .collect();
    Outcome {
        workload: name.to_string(),
        traced: false,
        seed: options.seed,
        attempted: reps.iter().map(|rep| rep.ops).sum(),
        failed: reps.iter().map(|rep| rep.failed).sum::<u64>() + problems.len() as u64,
        problems,
        fingerprint: warm_up.fingerprint.0,
        repetitions: reps.len(),
        metrics,
    }
}

fn traced(name: &str, options: &Options) -> Outcome {
    let (baseline_reps, traced_reps) = if options.smoke {
        (1, 1)
    } else {
        (TRACED_RUN_BASELINE_REPS, TRACED_REPS)
    };
    let workload = workloads::setup(name, options.seed, options.smoke);
    let warm_up = workload.rep(false);
    let baseline: Vec<Rep> = (0..baseline_reps).map(|_| workload.rep(false)).collect();

    span::start();
    span::calibrate();
    let traced: Vec<Rep> = (0..traced_reps).map(|_| workload.rep(true)).collect();
    let report = span::finish();
    let run = TracedRun {
        report: &report,
        reps: &traced,
    };

    let mut problems = Vec::new();
    check_repeatable(&warm_up, &baseline, "untraced", &mut problems);
    check_repeatable(&warm_up, &traced, "traced", &mut problems);
    check_allocations(&baseline, "untraced", &mut problems);
    let mismatches = span_count_mismatches(&run);
    if mismatches > 0 {
        problems.push(format!(
            "{mismatches} span count(s) differ from the FTLs' own submit/batch counters"
        ));
    }

    let baseline_seconds = median(&baseline.iter().map(seconds_of).collect::<Vec<_>>());
    let traced_seconds = median(&traced.iter().map(seconds_of).collect::<Vec<_>>());
    let ops = warm_up.ops as f64;
    let mut layers: Layers = warm_up.layers.clone();
    layers.extend(workload.host_layers(&run));
    layers.extend([
        ("host.allocs_per_op", baseline[0].meter.allocs as f64 / ops),
        (
            "host.alloc_bytes_per_op",
            baseline[0].meter.alloc_bytes as f64 / ops,
        ),
        (
            "host.trace_overhead_pct",
            (traced_seconds / baseline_seconds - 1.0) * 100.0,
        ),
        ("host.span_overhead_ns", report.overhead_total_ns()),
        (
            "host.parallelism",
            std::thread::available_parallelism().map_or(1.0, |threads| threads.get() as f64),
        ),
    ]);

    // Every per-layer metric is reported; a layer that is not on this
    // workload's path reads 0.
    let metrics = spec::PER_LAYER
        .iter()
        .map(|metric| {
            let value = layers
                .iter()
                .find(|(name, _)| *name == metric.name)
                .map_or(0.0, |(_, v)| *v);
            if !value.is_finite() {
                problems.push(format!("{} = {value}", metric.name));
            }
            Metric {
                name: metric.name,
                unit: metric.unit,
                axis: metric.axis,
                value: if value.is_finite() { value } else { 0.0 },
                samples: Vec::new(),
                note: String::new(),
            }
        })
        .collect();
    for (name, _) in &layers {
        if spec::per_layer(name).is_none() {
            problems.push(format!("{name} is not a per-layer metric of the spec"));
        }
    }

    let trace_file = options.out_dir.join(format!("trace_{name}.json"));
    if let Err(error) = std::fs::create_dir_all(&options.out_dir)
        .and_then(|()| std::fs::write(&trace_file, report.to_json(name).to_json() + "\n"))
    {
        problems.push(format!("cannot write {}: {error}", trace_file.display()));
    }

    let all = baseline.iter().chain(&traced);
    Outcome {
        workload: name.to_string(),
        traced: true,
        seed: options.seed,
        attempted: all.clone().map(|rep| rep.ops).sum(),
        failed: all.map(|rep| rep.failed).sum::<u64>() + problems.len() as u64,
        problems,
        fingerprint: warm_up.fingerprint.0,
        repetitions: traced.len(),
        metrics,
    }
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result object (the last line of standard output). The
    /// result file is the same object `with_details`: what `--compare` and the
    /// suite need on top (samples, fingerprint, seed, problems).
    fn to_json(&self, with_details: bool) -> Value {
        let mut metrics = Value::object();
        for metric in &self.metrics {
            let mut entry = Value::object();
            entry.set("value", metric.value).set("unit", metric.unit);
            if with_details {
                let samples: Vec<Value> = metric.samples.iter().map(|&s| s.into()).collect();
                entry.set("samples", samples);
            }
            metrics.set(metric.name, entry);
        }
        let mut result = Value::object();
        result
            .set("correct", self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics);
        if with_details {
            let problems: Vec<Value> = self.problems.iter().map(|p| p.as_str().into()).collect();
            result
                .set("workload", self.workload.as_str())
                .set("traced", self.traced)
                .set("seed", self.seed)
                .set("repetitions", self.repetitions as u64)
                .set("fingerprint", format!("{:016x}", self.fingerprint))
                .set("problems", problems);
        }
        result
    }

    fn print(&self) {
        let kind = if self.traced {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        };
        println!(
            "# {} seed {} — {kind}, {} repetitions, {} ops attempted, {} failed, fingerprint {:016x}",
            self.workload, self.seed, self.repetitions, self.attempted, self.failed, self.fingerprint
        );
        for metric in &self.metrics {
            let axis = match metric.axis {
                Axis::Host => "host",
                Axis::Sim => "sim",
                Axis::Count => "count",
            };
            let mut line = format!(
                "{:<34} {:>16.4} {:<6} [{axis}]",
                metric.name, metric.value, metric.unit
            );
            if !metric.note.is_empty() {
                line.push_str(" — ");
                line.push_str(&metric.note);
            }
            println!("{line}");
        }
        for problem in &self.problems {
            println!("! {problem}");
        }
    }
}

fn result_path(options: &Options, name: &str, traced: bool) -> PathBuf {
    let kind = if traced { "traced" } else { "untraced" };
    options.out_dir.join(format!("result_{name}_{kind}.json"))
}

/// Runs one workload in this process, prints every metric by name with its
/// unit, writes the result file, and prints the result object as the last line
/// of standard output. Returns whether every check passed.
pub fn run_workload(name: &str, options: &Options) -> bool {
    let outcome = if options.traced {
        traced(name, options)
    } else {
        untraced(name, options)
    };
    outcome.print();
    let path = result_path(options, name, options.traced);
    if let Err(error) = std::fs::create_dir_all(&options.out_dir)
        .and_then(|()| std::fs::write(&path, outcome.to_json(true).to_json() + "\n"))
    {
        eprintln!("vflash-benchmark: cannot write {}: {error}", path.display());
        return false;
    }
    println!("{}", outcome.to_json(false).to_json());
    outcome.correct()
}

/// Runs all six workloads, untraced then traced, one child process each;
/// checks that the two runs of a workload simulated the same thing; writes
/// `suite.json` (what `--compare` reads). Returns whether everything passed.
pub fn run_suite(options: &Options) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("vflash-benchmark: cannot find own executable: {error}");
            return false;
        }
    };
    let mut ok = true;
    let mut suite = Value::object();
    for workload in &spec::WORKLOADS {
        let mut entry = Value::object();
        let mut fingerprints = Vec::new();
        for traced in [false, true] {
            let path = result_path(options, workload.name, traced);
            // A stale file from an earlier run must not stand in for a child
            // that died before writing its own.
            let _ = std::fs::remove_file(&path);
            let mut command = std::process::Command::new(&exe);
            command
                .args(["--workload", workload.name])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&options.out_dir);
            if options.smoke {
                command.arg("--smoke");
            }
            // The child inherits standard output, so its table and result line
            // appear in order; `status` waits until it has ended.
            match command.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    println!(
                        "! {} (trace {}) exited with {status}",
                        workload.name, traced as u8
                    );
                    ok = false;
                }
                Err(error) => {
                    println!("! cannot run {}: {error}", workload.name);
                    ok = false;
                    continue;
                }
            }
            let Some(result) = std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| json::parse(&text).ok())
            else {
                println!("! no readable result file {}", path.display());
                ok = false;
                continue;
            };
            fingerprints.push(
                result
                    .get("fingerprint")
                    .and_then(Value::as_str)
                    .map(String::from),
            );
            let key = if traced { "per_layer" } else { "end_to_end" };
            entry.set(key, result.get("metrics").cloned().unwrap_or(Value::Null));
        }
        if fingerprints.len() == 2 && fingerprints[0] != fingerprints[1] {
            println!(
                "! {}: traced and untraced processes simulated different results ({:?})",
                workload.name, fingerprints
            );
            ok = false;
        }
        entry.set(
            "fingerprint",
            fingerprints
                .into_iter()
                .flatten()
                .next()
                .unwrap_or_default(),
        );
        suite.set(workload.name, entry);
    }
    let mut file = Value::object();
    file.set("seed", options.seed)
        .set("seconds", options.seconds)
        .set("workloads", suite);
    let path = options.out_dir.join("suite.json");
    if let Err(error) = std::fs::write(&path, file.to_json() + "\n") {
        eprintln!("vflash-benchmark: cannot write {}: {error}", path.display());
        return false;
    }
    println!(
        "# suite written to {} — {}",
        path.display(),
        if ok { "all checks passed" } else { "FAILED" }
    );
    ok
}
