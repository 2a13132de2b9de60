//! Command line of the benchmark.
//!
//! ```text
//! seqdet-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! seqdet-benchmark noise [--runs 10]
//! ```
//!
//! The last line of standard output of a run is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

use seqdet_benchmark::json::Value;
use seqdet_benchmark::run::{run, Outcome, RunConfig};
use seqdet_benchmark::spec::{Workload, RUN_SECONDS};
use seqdet_benchmark::{noise, pin};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: seqdet-benchmark --workload <bulk_hot|wide_cold|rich_verify|trickle_mixed> \
--seed <u64> [--seconds <n>] [--trace <0|1>]\n       seqdet-benchmark noise [--runs <n>]";

/// `benchmark/out` of the checkout the command runs in: everything a run
/// writes stays inside it.
fn out_dir() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    if cwd.join("benchmark/Cargo.toml").is_file() {
        Ok(cwd.join("benchmark/out"))
    } else if cwd.join("src/run.rs").is_file() && cwd.join("Cargo.toml").is_file() {
        Ok(cwd.join("out"))
    } else {
        Err("run from the repository root (or from benchmark/)".to_owned())
    }
}

fn value_of<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args.get(i + 1).map(|v| Some(v.as_str())).ok_or(format!("{flag} needs a value")),
    }
}

fn parse<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: Option<T>,
) -> Result<T, String> {
    match value_of(args, flag)? {
        Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {flag}")),
        None => default.ok_or(format!("{flag} is required\n{USAGE}")),
    }
}

fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(spec, v)| {
            let fields = vec![
                ("value".to_owned(), Value::Num(*v)),
                ("unit".to_owned(), Value::Str(spec.unit.to_owned())),
            ];
            (spec.name.to_owned(), Value::Obj(fields))
        })
        .collect();
    Value::Obj(vec![
        ("correct".to_owned(), Value::Bool(outcome.correct)),
        ("attempted".to_owned(), Value::Num(outcome.attempted as f64)),
        ("failed".to_owned(), Value::Num(outcome.failed as f64)),
        ("metrics".to_owned(), Value::Obj(metrics)),
    ])
    .render()
}

fn main_inner(args: &[String]) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with `cargo run --release`".to_owned());
    }
    if args.first().map(String::as_str) == Some("noise") {
        let runs = parse(args, "--runs", Some(10usize))?;
        return noise::noise(runs);
    }
    let name: String = parse(args, "--workload", None)?;
    let workload =
        Workload::from_name(&name).ok_or(format!("unknown workload {name:?}\n{USAGE}"))?;
    let cfg = RunConfig {
        workload,
        seed: parse(args, "--seed", None)?,
        seconds: parse(args, "--seconds", Some(RUN_SECONDS as f64))?,
        traced: match parse::<u8>(args, "--trace", Some(0))? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, got {other}")),
        },
        shrink: 1,
        out_dir: out_dir()?,
    };
    // `--unpinned` exists only for the noise report's evidence that the pin
    // is what removes the bimodal query latency; never use it for numbers.
    if args.iter().any(|a| a == "--unpinned") {
        eprintln!("UNPINNED run: for NOISE.md's comparison series only");
    } else {
        let cpu = pin::pin_to_one_cpu()?;
        eprintln!("pinned to cpu {cpu}");
    }
    let outcome = run(&cfg)?;
    for problem in &outcome.problems {
        eprintln!("problem: {problem}");
    }
    for warning in &outcome.warnings {
        eprintln!("warning: {warning}");
    }
    let phases: Vec<String> = outcome.phases.iter().map(|(n, s)| format!("{n} {s:.2}s")).collect();
    eprintln!("phases: {}", phases.join(", "));
    if let Some(path) = &outcome.trace_file {
        eprintln!("spans written to {}", path.display());
    }
    for (spec, v) in &outcome.metrics {
        println!("{:<36} {v:>16.4} {}", spec.name, spec.unit);
    }
    println!("{}", result_line(&outcome));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("seqdet-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
