//! The benchmark's self-test: `BENCHMARK.json` is the spec rendered, the spec
//! stays inside the contract's limits, and a `--smoke` suite run emits every
//! workload and metric the spec names, correct, through the real binary.

use std::path::{Path, PathBuf};
use std::process::Command;

use vflash_benchmark::json::{self, Value};
use vflash_benchmark::spec;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf()
}

fn is_name(text: &str) -> bool {
    text.len() <= 64
        && text
            .chars()
            .next()
            .is_some_and(|first| first.is_ascii_alphanumeric())
        && text
            .chars()
            .all(|ch| ch.is_ascii_alphanumeric() || "_.-".contains(ch))
}

fn is_unit(text: &str) -> bool {
    !text.is_empty()
        && text.len() <= 16
        && text
            .chars()
            .all(|ch| ch.is_ascii_alphanumeric() || "_/%.-".contains(ch))
}

fn keys(value: &Value) -> Vec<&str> {
    value.fields().iter().map(|(key, _)| key.as_str()).collect()
}

#[test]
fn benchmark_json_is_the_spec_and_meets_the_contract() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    assert_eq!(
        text,
        spec::benchmark_json(),
        "regenerate with `benchmark/run.sh --print-spec`"
    );
    assert!(text.len() <= 64 * 1024);

    let file = json::parse(&text).unwrap();
    assert_eq!(
        keys(&file),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command: Vec<&str> = file
        .get("command")
        .unwrap()
        .items()
        .iter()
        .map(|arg| arg.as_str().unwrap())
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    assert_eq!(
        file.get("paths").unwrap().items(),
        [Value::from("benchmark")]
    );
    let run_seconds = file.get("run_seconds").unwrap().as_f64().unwrap();
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);

    let mut names = std::collections::BTreeSet::new();
    let workloads = file.get("workloads").unwrap().items();
    assert!((2..=8).contains(&workloads.len()));
    for workload in workloads {
        assert_eq!(keys(workload), ["name", "why"]);
        let name = workload.get("name").unwrap().as_str().unwrap();
        let why = workload.get("why").unwrap().as_str().unwrap();
        assert!(is_name(name) && names.insert(name.to_string()), "{name}");
        assert!(
            why.chars().count() <= 200 && !why.contains('\n'),
            "{name}: why is one short line"
        );
    }
    let expected = [
        "replay_serial",
        "replay_queued",
        "kv_write",
        "kv_read",
        "fleet_stripe",
        "fleet_cached",
    ];
    assert_eq!(
        workloads
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect::<Vec<_>>(),
        expected
    );

    let end_to_end = file.get("end_to_end").unwrap().items();
    assert!((1..=16).contains(&end_to_end.len()));
    let mut widest = 0.0f64;
    for metric in end_to_end {
        assert_eq!(keys(metric), ["name", "unit", "better", "bound"]);
        let name = metric.get("name").unwrap().as_str().unwrap();
        assert!(is_name(name) && names.insert(name.to_string()), "{name}");
        assert!(
            is_unit(metric.get("unit").unwrap().as_str().unwrap()),
            "{name}"
        );
        assert!(["higher", "lower"].contains(&metric.get("better").unwrap().as_str().unwrap()));
        let bound = metric.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        widest = widest.max(bound);
    }
    let setup = end_to_end
        .iter()
        .find(|metric| metric.get("name").unwrap().as_str() == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    assert_eq!(setup.get("better").unwrap().as_str(), Some("lower"));
    assert_eq!(
        setup.get("bound").unwrap().as_f64(),
        Some(widest),
        "setup_s has the largest bound"
    );

    let per_layer = file.get("per_layer").unwrap().items();
    assert!((1..=128).contains(&per_layer.len()));
    for metric in per_layer {
        assert_eq!(keys(metric), ["name", "unit", "better"]);
        let name = metric.get("name").unwrap().as_str().unwrap();
        assert!(is_name(name) && names.insert(name.to_string()), "{name}");
        assert!(
            is_unit(metric.get("unit").unwrap().as_str().unwrap()),
            "{name}"
        );
        assert!(["higher", "lower"].contains(&metric.get("better").unwrap().as_str().unwrap()));
    }
}

/// Checks one result line against the spec: exactly the contract's keys, and
/// exactly the metrics (with their units) of the run's kind.
fn check_result_line(line: &str) -> bool {
    let result = json::parse(line).unwrap_or_else(|error| panic!("{error}: {line}"));
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").unwrap().as_bool(),
        Some(true),
        "{line}"
    );
    assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0));
    let metrics = result.get("metrics").unwrap();
    let reported: Vec<(&str, &str)> = metrics
        .fields()
        .iter()
        .map(|(name, entry)| {
            assert_eq!(keys(entry), ["value", "unit"]);
            assert!(entry.get("value").unwrap().as_f64().unwrap().is_finite());
            (name.as_str(), entry.get("unit").unwrap().as_str().unwrap())
        })
        .collect();
    let end_to_end: Vec<(&str, &str)> = spec::END_TO_END
        .iter()
        .map(|metric| (metric.name, metric.unit))
        .collect();
    let per_layer: Vec<(&str, &str)> = spec::PER_LAYER
        .iter()
        .map(|metric| (metric.name, metric.unit))
        .collect();
    let traced = reported == per_layer;
    assert!(
        traced || reported == end_to_end,
        "unexpected metric set: {reported:?}"
    );
    if !traced {
        for (name, entry) in metrics.fields() {
            assert!(
                entry.get("value").unwrap().as_f64().unwrap() > 0.0,
                "{name} is never 0"
            );
        }
    }
    traced
}

#[test]
fn smoke_suite_emits_every_workload_and_metric() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&out);
    let exe = env!("CARGO_BIN_EXE_vflash-benchmark");
    let run = Command::new(exe)
        .current_dir(repo_root())
        .arg("--smoke")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(run.status.success(), "smoke suite failed:\n{stdout}");

    let results: Vec<&str> = stdout
        .lines()
        .filter(|line| line.starts_with('{'))
        .collect();
    assert_eq!(
        results.len(),
        2 * spec::WORKLOADS.len(),
        "one result line per process"
    );
    for pair in results.chunks(2) {
        assert!(!check_result_line(pair[0]), "the untraced run comes first");
        assert!(check_result_line(pair[1]), "then the traced run");
    }
    for workload in &spec::WORKLOADS {
        assert!(stdout.contains(&format!("# {} seed 42", workload.name)));
        let spans = std::fs::read_to_string(out.join(format!("trace_{}.json", workload.name)))
            .expect("the traced run writes its span file");
        let spans = json::parse(&spans).unwrap();
        assert!(!spans.get("spans").unwrap().fields().is_empty());
        assert!(!spans.get("sampled_spans").unwrap().items().is_empty());
    }

    // A suite compared with itself: nothing regressed (two smoke repetitions
    // are too few to resolve the host metrics, so those rows may read
    // `unresolved`) and every simulated and counted number identical.
    let suite = out.join("suite.json");
    let compare = Command::new(exe)
        .arg("--compare")
        .arg(&suite)
        .arg(&suite)
        .output()
        .expect("the benchmark binary runs");
    let table = String::from_utf8(compare.stdout).unwrap();
    assert!(!table.contains("regressed"), "{table}");
    assert_eq!(
        table.matches(" ok").count() + table.matches(" unresolved").count(),
        60,
        "{table}"
    );
    assert_eq!(
        table.matches(" 0 moved").count(),
        spec::WORKLOADS.len(),
        "{table}"
    );
}

#[test]
fn bad_arguments_are_rejected_without_a_result() {
    let exe = env!("CARGO_BIN_EXE_vflash-benchmark");
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--bogus"],
    ] {
        let run = Command::new(exe).args(args).output().unwrap();
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
