//! `noise`: run every workload many times and write `benchmark/NOISE.md`.
//!
//! Two independent sets of runs, each run with another seed — what the
//! benchmark driver does before it accepts the benchmark. For every
//! end-to-end metric the report gives median, quartiles, the interquartile
//! spread and the full range as shares of the median, and how far the second
//! set's median is from the first. One extra `bulk_hot` series runs
//! *unpinned*, next to the pinned one.
//!
//! The command fails when a spread exceeds the metric's bound in
//! `BENCHMARK.json` (`setup_s` excepted, as in the driver) or when the
//! second median is worse than the first by more than the bound.

use crate::json::{self, Value};
use crate::spec::{Better, Workload, END_TO_END, RUN_SECONDS};
use crate::stats::{median, quartiles, sort};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// One run of this executable; the metrics of its result line.
fn run_once(
    workload: Workload,
    seed: u64,
    unpinned: bool,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no current executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seed", &seed.to_string(), "--trace", "0"]);
    if unpinned {
        cmd.arg("--unpinned");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !out.status.success() {
        return Err(format!("run {} seed {seed} exited with {}", workload.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("a run printed nothing")?;
    let result = json::parse(line)?;
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("run {} seed {seed} was not correct: {line}", workload.name()));
    }
    let metrics =
        result.get("metrics").and_then(Value::as_object).ok_or("no metrics in the result")?;
    Ok(metrics.iter().filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?))).collect())
}

/// Ten (or `runs`) runs of one workload with seeds `first..`.
fn series(
    workload: Workload,
    first_seed: u64,
    runs: usize,
    unpinned: bool,
) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let mut by_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for i in 0..runs {
        let seed = first_seed + i as u64;
        eprintln!(
            "noise: {} seed {seed}{}",
            workload.name(),
            if unpinned { " (unpinned)" } else { "" }
        );
        for (k, v) in run_once(workload, seed, unpinned)? {
            by_metric.entry(k).or_default().push(v);
        }
    }
    Ok(by_metric)
}

struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    min: f64,
    max: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        sort(&mut v);
        let (q1, q3) = quartiles(&v);
        Self { median: median(&v), q1, q3, min: v[0], max: v[v.len() - 1] }
    }

    /// Interquartile distance as a share of the median: the driver's spread.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    fn range(&self) -> f64 {
        (self.max - self.min) / self.median
    }
}

/// The bounds of `BENCHMARK.json` in the working directory.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text)?;
    let list = doc.get("end_to_end").and_then(Value::as_array).ok_or("no end_to_end list")?;
    Ok(list
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_owned(), m.get("bound")?.as_f64()?)))
        .collect())
}

pub fn noise(runs: usize) -> Result<(), String> {
    if runs < 2 {
        return Err("--runs must be at least 2".to_owned());
    }
    let bounds = bounds()?;
    let mut report = String::new();
    let mut failures = Vec::new();
    let _ = writeln!(
        report,
        "# Run-to-run noise of the benchmark\n\n\
         Written by `cargo run --release --manifest-path benchmark/Cargo.toml -- noise --runs {runs}`.\n\
         Two independent sets of {runs} runs per workload, every run with another seed \
         (set 1: seeds 1.., set 2: seeds 101..), {RUN_SECONDS} s measured per run, on a box with \
         {} CPU(s) visible before pinning.\n\n\
         `spread` = (q3 - q1) / median with Python's `statistics.quantiles(v, n=4)` quartiles - \
         the figure the driver holds against the metric's bound. `range` = (max - min) / median. \
         `shift` = how much worse set 2's median is than set 1's, as a share of set 1's \
         (negative = better).\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0),
    );
    let mut pinned_bulk_p50 = Vec::new();
    for workload in Workload::ALL {
        let sets = [series(workload, 1, runs, false)?, series(workload, 101, runs, false)?];
        let _ = writeln!(report, "## {}\n", workload.name());
        let _ = writeln!(
            report,
            "| metric | unit | bound | set | median | q1 | q3 | spread | range | shift |\n\
             |---|---|---|---|---|---|---|---|---|---|"
        );
        for spec in END_TO_END {
            let bound = *bounds
                .get(spec.name)
                .ok_or(format!("BENCHMARK.json has no bound for {}", spec.name))?;
            let summaries: Vec<Summary> = sets
                .iter()
                .map(|s| {
                    s.get(spec.name).map(|v| Summary::of(v)).ok_or(format!("no {}", spec.name))
                })
                .collect::<Result<_, _>>()?;
            let worse = match spec.better {
                Better::Lower => summaries[1].median / summaries[0].median - 1.0,
                Better::Higher => 1.0 - summaries[1].median / summaries[0].median,
            };
            for (i, s) in summaries.iter().enumerate() {
                let shift = if i == 1 { format!("{worse:+.4}") } else { String::new() };
                let _ = writeln!(
                    report,
                    "| {} | {} | {bound} | {} | {:.6} | {:.6} | {:.6} | {:.4} | {:.4} | {shift} |",
                    spec.name,
                    spec.unit,
                    i + 1,
                    s.median,
                    s.q1,
                    s.q3,
                    s.spread(),
                    s.range(),
                );
                if spec.name != "setup_s" && s.spread() > bound {
                    failures.push(format!(
                        "{} {} set {}: spread {:.4} > bound {bound}",
                        workload.name(),
                        spec.name,
                        i + 1,
                        s.spread()
                    ));
                }
            }
            if worse > bound {
                failures.push(format!(
                    "{} {}: set 2 median worse than set 1 by {worse:.4} > bound {bound}",
                    workload.name(),
                    spec.name
                ));
            }
        }
        report.push('\n');
        if workload == Workload::BulkHot {
            pinned_bulk_p50 = sets[0]["query_p50_us"].clone();
        }
    }

    let unpinned = series(Workload::BulkHot, 1, runs, true)?;
    let fmt = |v: &[f64]| v.iter().map(|x| format!("{x:.1}")).collect::<Vec<_>>().join(", ");
    let (p, u) = (Summary::of(&pinned_bulk_p50), Summary::of(&unpinned["query_p50_us"]));
    let _ = writeln!(
        report,
        "## Pinned and unpinned\n\n\
         `bulk_hot` `query_p50_us`, the same seeds (1..), pinned to one CPU and not. Unpinned, \
         `Executor::map` spawns a thread per visible CPU per call, and executor width and server \
         worker count follow the CPU count of whatever box runs the benchmark. (The issue's probe \
         of a lighter query mix saw unpinned runs settle into one of two modes 1.5x apart; this \
         series is what the benchmark's own mix gives.)\n\n\
         | series | values (us) | median | spread | range |\n|---|---|---|---|---|\n\
         | pinned | {} | {:.1} | {:.4} | {:.4} |\n| unpinned | {} | {:.1} | {:.4} | {:.4} |\n",
        fmt(&pinned_bulk_p50),
        p.median,
        p.spread(),
        p.range(),
        fmt(&unpinned["query_p50_us"]),
        u.median,
        u.spread(),
        u.range(),
    );
    if failures.is_empty() {
        report.push_str("## Verdict\n\nEvery spread and every shift is within its bound.\n");
    } else {
        report.push_str("## Verdict\n\nOUTSIDE THE BOUNDS:\n\n");
        for f in &failures {
            let _ = writeln!(report, "- {f}");
        }
    }
    std::fs::write("benchmark/NOISE.md", &report)
        .map_err(|e| format!("cannot write benchmark/NOISE.md: {e}"))?;
    eprintln!("wrote benchmark/NOISE.md");
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{} metric(s) outside their bounds:\n{}", failures.len(), failures.join("\n")))
    }
}
