//! `--compare A.json B.json`: two suite files (see [`crate::run::run_suite`]),
//! B judged against A. Per workload × end-to-end metric it prints both medians,
//! the bound and a verdict — each workload in its own row, no combined score:
//!
//! * `ok` — B's median is no worse than A's by more than the bound;
//! * `regressed` — it is worse by more than the bound;
//! * `unresolved` — the run-to-run spread (interquartile range over the median,
//!   of either side's samples) is wider than the bound, so the comparison
//!   cannot tell — unless every sample of B reads better than every sample of
//!   A, which is `ok`.
//!
//! When both files ran the same seed, every simulated and counted number must
//! be bit-identical; the ones that are not are listed as `moved`.

use crate::json::{self, Value};
use crate::spec::{self, Axis};
use crate::stats::spread;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|error| format!("{path}: {error}"))?;
    json::parse(&text).map_err(|error| format!("{path}: {error}"))
}

fn metric<'a>(suite: &'a Value, workload: &str, section: &str, name: &str) -> Option<&'a Value> {
    suite
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(name)
}

fn samples(entry: &Value) -> Vec<f64> {
    let samples: Vec<f64> = entry
        .get("samples")
        .map_or(&[][..], Value::items)
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    if samples.is_empty() {
        entry
            .get("value")
            .and_then(Value::as_f64)
            .into_iter()
            .collect()
    } else {
        samples
    }
}

/// Compares suite file `after` against `before`, printing one row per workload
/// and metric. Returns whether every row is `ok` and nothing simulated moved.
pub fn compare_files(before: &str, after: &str) -> bool {
    let (a, b) = match (load(before), load(after)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(error), _) | (_, Err(error)) => {
            eprintln!("vflash-benchmark: {error}");
            return false;
        }
    };
    let same_seed = a.get("seed").and_then(Value::as_f64) == b.get("seed").and_then(Value::as_f64);
    let mut all_ok = true;
    println!(
        "{:<14} {:<20} {:>16} {:>16} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse%", "bound%", "IQR%"
    );
    for workload in &spec::WORKLOADS {
        for end_to_end in &spec::END_TO_END {
            let entries = (
                metric(&a, workload.name, "end_to_end", end_to_end.name),
                metric(&b, workload.name, "end_to_end", end_to_end.name),
            );
            let (Some(entry_a), Some(entry_b)) = entries else {
                println!(
                    "{:<14} {:<20} missing from one file",
                    workload.name, end_to_end.name
                );
                all_ok = false;
                continue;
            };
            let (samples_a, samples_b) = (samples(entry_a), samples(entry_b));
            let value_a = entry_a.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let value_b = entry_b.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            // Positive = B is worse, as a share of A.
            let lower_is_better = end_to_end.better == "lower";
            let worse = if lower_is_better {
                value_b - value_a
            } else {
                value_a - value_b
            } / value_a;
            let noise = spread(&samples_a).max(spread(&samples_b));
            let b_always_better = samples_b.iter().all(|&sample_b| {
                samples_a.iter().all(|&sample_a| {
                    if lower_is_better {
                        sample_b < sample_a
                    } else {
                        sample_b > sample_a
                    }
                })
            });
            let verdict = if noise > end_to_end.bound && !b_always_better {
                "unresolved"
            } else if worse > end_to_end.bound {
                "regressed"
            } else {
                "ok"
            };
            all_ok &= verdict == "ok";
            println!(
                "{:<14} {:<20} {:>16.4} {:>16.4} {:>8.2} {:>7.2} {:>7.2}  {verdict}",
                workload.name,
                end_to_end.name,
                value_a,
                value_b,
                worse * 100.0,
                end_to_end.bound * 100.0,
                noise * 100.0
            );
        }
    }
    if same_seed {
        for workload in &spec::WORKLOADS {
            let exact = spec::END_TO_END
                .iter()
                .filter(|metric| metric.axis != Axis::Host)
                .map(|metric| ("end_to_end", metric.name))
                .chain(
                    spec::PER_LAYER
                        .iter()
                        .filter(|metric| metric.axis != Axis::Host)
                        .map(|metric| ("per_layer", metric.name)),
                );
            let mut identical = 0;
            let mut moved = Vec::new();
            for (section, name) in exact {
                let value = |suite| {
                    metric(suite, workload.name, section, name)
                        .and_then(|entry| entry.get("value"))
                        .and_then(Value::as_f64)
                };
                match (value(&a), value(&b)) {
                    (Some(x), Some(y)) if x.to_bits() == y.to_bits() => identical += 1,
                    (x, y) => moved.push(format!("{name} {x:?} -> {y:?}")),
                }
            }
            println!(
                "{:<14} simulated and counted metrics: {identical} bit-identical, {} moved {}",
                workload.name,
                moved.len(),
                moved.join("; ")
            );
            all_ok &= moved.is_empty();
        }
    } else {
        println!("seeds differ: simulated and counted metrics are not expected to be identical");
    }
    all_ok
}
