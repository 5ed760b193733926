//! Command line of the repo benchmark; see `README.md` beside this crate.
//!
//! ```text
//! vflash-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! vflash-benchmark [--seed N] [--seconds S] [--smoke] [--out DIR]     all six, one process each
//! vflash-benchmark --compare A.json B.json
//! vflash-benchmark --print-spec
//! ```

use std::process::ExitCode;

use vflash_benchmark::{compare, run, spec};

enum Command {
    Run {
        workload: Option<String>,
        options: run::Options,
    },
    Compare {
        before: String,
        after: String,
    },
    PrintSpec,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut options = run::Options::default();
    let mut workload = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !spec::WORKLOADS.iter().any(|workload| workload.name == name) {
                    return Err(format!("unknown workload {name}"));
                }
                workload = Some(name);
            }
            "--seed" => {
                options.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be within (0, 600]".to_string());
                }
                options.seconds = seconds;
            }
            "--trace" => {
                options.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--smoke" => options.smoke = true,
            "--out" => options.out_dir = value()?.into(),
            "--print-spec" => return Ok(Command::PrintSpec),
            "--compare" => {
                return Ok(Command::Compare {
                    before: value()?,
                    after: value()?,
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Command::Run { workload, options })
}

fn main() -> ExitCode {
    let ok = match parse(std::env::args().skip(1)) {
        Err(problem) => {
            eprintln!("vflash-benchmark: {problem}");
            eprintln!(
                "usage: vflash-benchmark [--workload NAME] [--seed N] [--seconds S] \
                 [--trace 0|1] [--smoke] [--out DIR] | --compare A.json B.json | --print-spec"
            );
            return ExitCode::from(2);
        }
        Ok(Command::PrintSpec) => {
            print!("{}", spec::benchmark_json());
            true
        }
        Ok(Command::Compare { before, after }) => compare::compare_files(&before, &after),
        Ok(Command::Run {
            workload: Some(name),
            options,
        }) => run::run_workload(&name, &options),
        Ok(Command::Run {
            workload: None,
            options,
        }) => run::run_suite(&options),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
