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
