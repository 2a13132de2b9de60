//! Smoke tests: every workload at toy size, traced and untraced, and the
//! contract between the harness's tables and `BENCHMARK.json`.

use seqdet_benchmark::json::{self, Value};
use seqdet_benchmark::run::{run, Outcome, RunConfig};
use seqdet_benchmark::spec::{MetricSpec, Workload, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::path::PathBuf;

/// Divides every input size: a few dozen traces per workload.
const TOY: usize = 40;

fn toy_run(test: &str, workload: Workload, seed: u64, traced: bool) -> Outcome {
    // One directory per test: tests run on parallel threads of one process.
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let cfg = RunConfig { workload, seed, seconds: 0.2, traced, shrink: TOY, out_dir };
    run(&cfg).unwrap_or_else(|e| panic!("{} run failed: {e}", workload.name()))
}

fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn well_formed_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn assert_reports(outcome: &Outcome, table: &[MetricSpec], what: &str) {
    assert!(outcome.correct, "{what}: not correct: {:?}", outcome.problems);
    assert_eq!(outcome.failed, 0, "{what}: {:?}", outcome.problems);
    assert!(outcome.attempted > 0, "{what}");
    let names: Vec<&str> = outcome.metrics.iter().map(|(s, _)| s.name).collect();
    let expected: Vec<&str> = table.iter().map(|s| s.name).collect();
    assert_eq!(names, expected, "{what}: exactly the table's metrics, in order");
    for (spec, v) in &outcome.metrics {
        assert!(v.is_finite(), "{what}: {} = {v}", spec.name);
        assert!(well_formed_name(spec.name), "{what}: name {:?}", spec.name);
        assert!(well_formed_unit(spec.unit), "{what}: unit {:?}", spec.unit);
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for w in Workload::ALL {
        let outcome = toy_run("untraced", w, 7, false);
        assert_reports(&outcome, &END_TO_END, w.name());
        for (spec, v) in &outcome.metrics {
            assert!(*v > 0.0, "{}: {} must never be 0", w.name(), spec.name);
        }
        assert!(outcome.trace_file.is_none());
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_and_its_spans() {
    for w in Workload::ALL {
        let outcome = toy_run("traced", w, 7, true);
        assert_reports(&outcome, &PER_LAYER, w.name());
        let path = outcome.trace_file.expect("a traced run writes its spans");
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("workload").and_then(Value::as_str), Some(w.name()));
        let spans = doc.get("spans").and_then(Value::as_array).unwrap();
        let count = outcome.metrics.iter().find(|(s, _)| s.name == "trace.spans").unwrap().1;
        assert_eq!(spans.len() as f64, count);
        // Every span names its layer, nests under an earlier span, and its
        // self time is what its children leave of it.
        for (i, s) in spans.iter().enumerate() {
            let (start, end) = (s.get("start").unwrap().as_f64(), s.get("end").unwrap().as_f64());
            assert!(start <= end, "{}: span {i}", w.name());
            assert!(s.get("self").unwrap().as_f64() <= Some(end.unwrap() - start.unwrap()));
            if let Some(p) = s.get("parent").unwrap().as_f64() {
                assert!((p as usize) < i);
                assert_eq!(spans[p as usize].get("req"), s.get("req"));
            }
        }
        let names: Vec<&str> =
            spans.iter().filter_map(|s| s.get("name").and_then(Value::as_str)).collect();
        for layer in ["log.read_csv", "core.index_log", "storage.put", "server.request"] {
            assert!(names.contains(&layer), "{}: no {layer} span", w.name());
        }
    }
}

#[test]
fn same_seed_same_inputs_and_same_store_size() {
    let size =
        |o: &Outcome| o.metrics.iter().find(|(s, _)| s.name == "store_bytes_per_event").unwrap().1;
    for w in [Workload::BulkHot, Workload::TrickleMixed] {
        let a = toy_run("repeat-a", w, 21, false);
        let b = toy_run("repeat-b", w, 21, false);
        let c = toy_run("repeat-c", w, 22, false);
        assert_eq!(a.fingerprint, b.fingerprint, "{}", w.name());
        assert_eq!(size(&a), size(&b), "{}: store size must repeat exactly", w.name());
        assert_ne!(a.fingerprint, c.fingerprint, "{}: another seed, other inputs", w.name());
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("BENCHMARK.json: no {key:?}"))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object().expect("an object").iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn benchmark_json_lists_exactly_the_harness_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(
        keys(&doc),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    assert_eq!(field(&doc, "run_seconds").as_f64(), Some(RUN_SECONDS as f64));
    let paths: Vec<&str> =
        field(&doc, "paths").as_array().unwrap().iter().filter_map(Value::as_str).collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> =
        field(&doc, "command").as_array().unwrap().iter().filter_map(Value::as_str).collect();
    assert!(command.contains(&"--release"), "the harness refuses a debug build");
    assert!(command.contains(&"benchmark/Cargo.toml"));

    let workloads = field(&doc, "workloads").as_array().unwrap();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (listed, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(keys(listed), ["name", "why"]);
        assert_eq!(field(listed, "name").as_str(), Some(w.name()));
        assert_eq!(field(listed, "why").as_str(), Some(w.why()));
        assert!(w.why().len() <= 200 && !w.why().contains('\n'));
    }

    let check = |key: &str, table: &[MetricSpec], bounded: bool| {
        let listed = field(&doc, key).as_array().unwrap();
        assert_eq!(listed.len(), table.len(), "{key}");
        for (m, spec) in listed.iter().zip(table) {
            let expected: &[&str] = if bounded {
                &["name", "unit", "better", "bound"]
            } else {
                &["name", "unit", "better"]
            };
            assert_eq!(keys(m), expected, "{key}: {}", spec.name);
            assert_eq!(field(m, "name").as_str(), Some(spec.name));
            assert_eq!(field(m, "unit").as_str(), Some(spec.unit));
            assert_eq!(field(m, "better").as_str(), Some(spec.better.name()));
            if bounded {
                let bound = field(m, "bound").as_f64().unwrap();
                assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", spec.name);
            }
        }
    };
    check("end_to_end", &END_TO_END, true);
    check("per_layer", &PER_LAYER, false);
    // Set-up gets the largest bound: work moved into set-up must show, but
    // a restart is the shortest thing the benchmark times.
    let bound_of = |name: &str| {
        field(&doc, "end_to_end")
            .as_array()
            .unwrap()
            .iter()
            .find(|m| field(m, "name").as_str() == Some(name))
            .and_then(|m| field(m, "bound").as_f64())
            .unwrap()
    };
    for spec in END_TO_END {
        assert!(bound_of(spec.name) <= bound_of("setup_s"), "{}", spec.name);
    }
}
