//! The repo benchmark: single-CPU post-to-mirror latency and ingest on four
//! workloads, with an outside-in stage budget. See `benchmark/README.md`.
//!
//! ```text
//! dyndens-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dyndens-benchmark                 # all four workloads, one process each
//! dyndens-benchmark --smoke         # every phase of every workload at 1/50 size
//! ```
//!
//! The last line of a `--workload` run's standard output is the result: one
//! JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
//! The exit code is 0 only if every correctness check passed.

mod emit;
mod json;
mod layers;
mod phases;
mod probe;
mod run;
mod stats;
mod sys;
mod system;
mod ticks;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use workload::{Workload, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};

const USAGE: &str =
    "usage: dyndens-benchmark [--workload <aligned_steady|weighted_dense|posts_wal|\
flash_readers>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// `benchmark/out` under the directory the command is run from (the root of
/// a checkout), or beside this package's manifest when run from elsewhere.
fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Runs one workload in a child process, echoes its output and returns its
/// result line if it exited with code 0.
fn run_child(workload: Workload, args: &Args, seconds: f64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {} run: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "the {} run exited with {}",
            workload.name(),
            output.status
        ));
    }
    stdout
        .lines()
        .last()
        .map(str::to_string)
        .ok_or(format!("the {} run printed nothing", workload.name()))
}

/// Every workload in its own process, untraced or traced as asked.
fn run_all(args: &Args) -> Result<(), String> {
    let mut failures = Vec::new();
    for workload in WORKLOADS {
        if let Err(e) = run_child(workload, args, args.seconds, args.trace) {
            failures.push(e);
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Every phase of every workload at 1/50 size, untraced and traced, all
/// correctness checks live: the thing to run while developing.
fn smoke(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let seconds = RUN_SECONDS / 50.0;
    for workload in WORKLOADS {
        for trace in [false, true] {
            // A child that exits with 0 has filled in every metric of its
            // catalogue (`MetricSet::finish`) and passed every check.
            let line = run_child(workload, args, seconds, trace)?;
            if !line.starts_with("{\"correct\": true, ") {
                return Err(format!(
                    "{} (trace {trace}): the last line is not a result: {line}",
                    workload.name()
                ));
            }
        }
    }
    println!(
        "smoke ok: 4 workloads x 2 modes in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.smoke {
        smoke(&args)
    } else if let Some(workload) = args.workload {
        run::run(&run::Options {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            out_dir: out_dir(),
        })
        .map(|outcome| {
            println!(
                "{}",
                emit::result_line(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
            outcome.correct
        })
        .and_then(|correct| {
            correct
                .then_some(())
                .ok_or("a correctness check failed".into())
        })
    } else {
        run_all(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dyndens-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
