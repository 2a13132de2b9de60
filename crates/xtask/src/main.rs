//! `cargo xtask` — workspace correctness tooling.
//!
//! Not shipped to users: this binary is the repo's own enforcement arm.
//! `cargo xtask lint` runs the invariant lints ([`xtask::lint`]) over the
//! source tree; `cargo xtask analyze` runs the call-graph static analyses
//! ([`xtask::analyze`]) against the committed `analysis_baseline.json`
//! ratchet; `cargo xtask audit --store DIR` verifies a persisted index
//! ([`seqdet_core::audit_disk`]). All exit nonzero on findings so CI can
//! gate on them.

#![forbid(unsafe_code)]

use xtask::{analyze, baseline, lint, regressions};

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo xtask <command>

commands:
  lint    [--json] [--root DIR]     run the workspace invariant lints
  analyze [--json] [--root DIR]     call-graph analyses (panic-reachability,
          [--baseline FILE]         lock-order, error-taint)
          [--update-baseline]       against the committed baseline
          [--report FILE]
  audit   --store DIR [--json]      audit a persisted index store
  regressions [--root DIR]          verify every committed *.proptest-regressions
                                    case is pinned as a deterministic replay test
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("regressions") => cmd_regressions(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Workspace root: `--root`, else the directory above `CARGO_MANIFEST_DIR`
/// (xtask lives at `<root>/crates/xtask`), else the current directory.
fn workspace_root(explicit: Option<PathBuf>) -> PathBuf {
    if let Some(root) = explicit {
        return root;
    }
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(manifest);
        if let Some(root) = p.ancestors().nth(2) {
            return root.to_path_buf();
        }
    }
    PathBuf::from(".")
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut root = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => root = it.next().map(PathBuf::from),
            other => {
                eprintln!("unknown lint option {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = workspace_root(root);
    let report = match lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint failed to read sources under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if json {
        let mut out = String::from("{\"violations\":[");
        for (i, v) in report.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                v.file,
                v.line,
                v.rule,
                v.message.replace('\\', "\\\\").replace('"', "\\\"")
            ));
        }
        out.push_str(&format!("],\"files\":{},\"ok\":{}}}", report.files, report.ok()));
        println!("{out}");
    } else {
        for v in &report.violations {
            println!("{v}");
        }
        println!(
            "lint: {} file(s) scanned, {} violation(s)",
            report.files,
            report.violations.len()
        );
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_regressions(args: &[String]) -> ExitCode {
    let mut root = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => root = it.next().map(PathBuf::from),
            other => {
                eprintln!("unknown regressions option {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = workspace_root(root);
    let report = match regressions::check_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("regressions scan failed under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    print!("{report}");
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_analyze(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut root = None;
    let mut baseline_path = None;
    let mut update = false;
    let mut report_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => root = it.next().map(PathBuf::from),
            "--baseline" => baseline_path = it.next().map(PathBuf::from),
            "--update-baseline" => update = true,
            "--report" => report_path = it.next().map(PathBuf::from),
            other => {
                eprintln!("unknown analyze option {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = workspace_root(root);
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("analysis_baseline.json"));

    let report = match analyze::analyze_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analyze failed to read sources under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let base = match baseline::Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("analyze: bad baseline {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
    };

    if update {
        let new = analyze::updated_baseline(&report, &base);
        let pending: Vec<&String> =
            new.findings.iter().filter(|(_, j)| j.trim().is_empty()).map(|(id, _)| id).collect();
        if let Err(e) = std::fs::write(&baseline_path, new.to_json()) {
            eprintln!("analyze: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!("analyze: wrote {} ({} finding(s))", baseline_path.display(), new.findings.len());
        if !pending.is_empty() {
            println!(
                "analyze: {} entr{} need a written justification before the run passes:",
                pending.len(),
                if pending.len() == 1 { "y" } else { "ies" }
            );
            for id in pending {
                println!("  {id}");
            }
        }
        return ExitCode::SUCCESS;
    }

    let outcome = analyze::check(&report, &base);
    let text = render_analysis(&report, &outcome);
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("analyze: cannot write report {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if json {
        println!("{}", analysis_json(&report, &outcome));
    } else {
        print!("{text}");
    }
    if outcome.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn render_analysis(report: &analyze::AnalysisReport, outcome: &analyze::RatchetOutcome) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let s = &report.stats;
    let _ = writeln!(
        out,
        "analyze: {} file(s), {} function(s), {} entry point(s), {} call edge(s) \
         ({} ambiguous call(s) dropped), {} lock(s), {} nesting pair(s)",
        s.files, s.funcs, s.entry_points, s.call_edges, s.ambiguous_calls, s.locks, s.lock_pairs
    );
    if !outcome.new_findings.is_empty() {
        let _ = writeln!(out, "\nNEW findings (not in baseline) — FAIL:");
        for f in &outcome.new_findings {
            let _ = writeln!(out, "  {f}");
            let _ = writeln!(out, "    id: {}", f.id);
        }
    }
    if !outcome.unjustified.is_empty() {
        let _ = writeln!(out, "\nbaseline entries without a written justification — FAIL:");
        for id in &outcome.unjustified {
            let _ = writeln!(out, "  {id}");
        }
    }
    if !outcome.stale.is_empty() {
        let _ = writeln!(
            out,
            "\nstale baseline entries (finding no longer produced — run \
             `cargo xtask analyze --update-baseline` to garbage-collect):"
        );
        for id in &outcome.stale {
            let _ = writeln!(out, "  {id}");
        }
    }
    let _ = writeln!(
        out,
        "analyze: {} finding(s) total, {} new, {} unjustified — {}",
        report.findings.len(),
        outcome.new_findings.len(),
        outcome.unjustified.len(),
        if outcome.ok() { "OK" } else { "FAIL" }
    );
    out
}

fn analysis_json(report: &analyze::AnalysisReport, outcome: &analyze::RatchetOutcome) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
    let mut out = String::from("{\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":\"{}\",\"kind\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            esc(&f.id),
            f.kind,
            esc(&f.file),
            f.line,
            esc(&f.message)
        ));
    }
    out.push_str("],\"new\":[");
    for (i, f) in outcome.new_findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\"", esc(&f.id)));
    }
    out.push_str("],\"unjustified\":[");
    for (i, id) in outcome.unjustified.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\"", esc(id)));
    }
    out.push_str("],\"stale\":[");
    for (i, id) in outcome.stale.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\"", esc(id)));
    }
    out.push_str(&format!("],\"ok\":{}}}", outcome.ok()));
    out
}

fn cmd_audit(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut store = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--store" => store = it.next().map(PathBuf::from),
            other => {
                eprintln!("unknown audit option {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(store) = store else {
        eprintln!("audit requires --store DIR\n{USAGE}");
        return ExitCode::from(2);
    };
    match seqdet_core::audit_disk(&store) {
        Ok(outcome) => {
            if json {
                println!("{}", outcome.to_json());
            } else {
                print!("{}", outcome.to_text());
            }
            if outcome.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("audit failed: {e}");
            ExitCode::from(2)
        }
    }
}
