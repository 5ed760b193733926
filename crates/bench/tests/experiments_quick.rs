//! The simulated results of every section, pinned: `experiments --quick` must
//! print `golden/experiments_quick.txt` byte for byte. The output is
//! deterministic and the same in debug and release builds, so a difference is a
//! change to what the simulation computes or to how a table is rendered. After
//! an intended change, regenerate the file with
//!
//! ```text
//! cargo run --release -p vflash-bench --bin experiments -- --quick \
//!     > crates/bench/tests/golden/experiments_quick.txt
//! ```

use std::process::{Command, Output};

const GOLDEN: &str = include_str!("golden/experiments_quick.txt");

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

/// Runs `experiments` with `args` and panics at the first line of its stdout
/// that leaves the golden.
fn assert_prints_the_golden(args: &[&str]) {
    let output = experiments(args);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let actual = std::str::from_utf8(&output.stdout).expect("experiments prints UTF-8");
    if actual == GOLDEN {
        return;
    }
    let (mut printed, mut golden) = (actual.lines(), GOLDEN.lines());
    for line in 1.. {
        let (printed, golden) = (printed.next(), golden.next());
        assert!(
            printed == golden,
            "line {line} differs from golden/experiments_quick.txt\n  \
             golden:  {golden:?}\n  printed: {printed:?}"
        );
        assert!(printed.is_some(), "same lines, different line endings or final newline");
    }
}

#[test]
fn quick_output_matches_the_golden() {
    assert_prints_the_golden(&["--quick"]);
}

#[test]
fn all_selects_every_section() {
    assert_prints_the_golden(&["--quick", "all"]);
}

#[test]
fn an_unknown_selection_is_rejected_before_anything_is_printed() {
    for args in [&["--quick", "bogus"][..], &["--quick", "fig12", "bogus"]] {
        let output = experiments(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(r#"["bogus"]"#), "{args:?}: {stderr}");
        for name in ["fig12", "ablation", "ppb_sensitivity", "lsm", "all"] {
            assert!(stderr.contains(name), "{args:?}: stderr does not offer {name}: {stderr}");
        }
    }
}

/// A 200-request MSR-Cambridge CSV (writes, reads, and reads that come back to
/// a few offsets) in a temp dir of its own.
fn write_msr_csv(requests: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vflash_experiments_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime — no header line.
    let mut csv = String::new();
    for index in 0..requests as u64 {
        let (kind, offset, size) = match index % 4 {
            0 => ("Write", index * 65_536, 16_384),
            1 => ("Read", (index % 7) * 65_536, 4_096),
            2 => ("Read", index * 32_768, 24_576),
            _ => ("Write", (index % 5) * 131_072, 8_192),
        };
        // FILETIME ticks of 100 ns, 0.5 ms apart.
        let stamp = 128_166_372_003_061_629u64 + index * 5_000;
        csv.push_str(&format!("{stamp},usr,0,{kind},{offset},{size},100\n"));
    }
    let path = dir.join("usr_0.csv");
    std::fs::write(&path, csv).expect("trace file");
    path
}

#[test]
fn a_real_trace_runs_through_the_latency_and_offered_load_sweeps() {
    let path = write_msr_csv(200);
    let output = experiments(&["--quick", "--trace", path.to_str().expect("UTF-8 temp path")]);
    std::fs::remove_dir_all(path.parent().expect("the file sits in its own dir")).ok();
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = std::str::from_utf8(&output.stdout).expect("experiments prints UTF-8");
    let header = stdout.lines().next().expect("a header line");
    assert!(header.starts_with("== Real trace usr_0: 200 requests, 50% reads, "), "{header}");

    // Three sections, each a title, a column header, its data rows, a blank line.
    let sections: Vec<Vec<&str>> = stdout
        .split("\n\n")
        .skip(1)
        .filter(|section| !section.trim().is_empty())
        .map(|section| section.lines().collect())
        .collect();
    let titles: Vec<&str> = sections.iter().map(|section| section[0]).collect();
    assert_eq!(
        titles,
        [
            "== usr_0 read latency vs page access speed difference ==",
            "== usr_0 write latency vs page access speed difference ==",
            "== usr_0 open-loop (arrival-time) sweep, 8 chips, 16 KB pages, 2x ==",
        ]
    );
    let rows: Vec<&[&str]> = sections.iter().map(|section| &section[2..]).collect();
    assert_eq!(rows.iter().map(|rows| rows.len()).collect::<Vec<_>>(), [4, 4, 12]);
    for (row, speed) in rows[0].iter().chain(rows[1]).zip(["2x", "3x", "4x", "5x"].iter().cycle()) {
        assert_eq!(row.split_whitespace().next(), Some(*speed), "{row}");
    }
    // Both FTLs of one rate were offered the same load: the trace is shared.
    for pair in rows[2].chunks(2) {
        let fields = |row: &str| row.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let (conventional, ppb) = (fields(pair[0]), fields(pair[1]));
        assert_eq!((conventional[1].as_str(), ppb[1].as_str()), ("conventional", "ppb"));
        assert_eq!(conventional[0], ppb[0], "rate column");
        assert_eq!(conventional[2], ppb[2], "offered column");
    }
}

#[test]
fn a_trace_flag_without_a_path_or_beside_a_section_is_rejected() {
    for args in [&["--quick", "--trace"][..], &["--trace", "f.csv", "fig12"]] {
        let output = experiments(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(!output.stderr.is_empty(), "{args:?} said nothing");
    }
}
