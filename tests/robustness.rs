//! Failure injection and extension-feature integration tests.

use proptest::prelude::*;
use seqdet::prelude::*;
use seqdet_baselines::SaseEngine;
use seqdet_core::tables::{pair_key_bytes, INDEX};
use seqdet_log::{EventLog, Pattern, RichPattern};
use seqdet_query::{QueryEngine, QueryError};
use seqdet_storage::{KvStore, MemStore};

fn build_log(traces: &[Vec<u32>]) -> EventLog {
    let mut b = EventLogBuilder::new();
    for (t, acts) in traces.iter().enumerate() {
        let name = format!("t{t}");
        for (i, &a) in acts.iter().enumerate() {
            b.add(&name, &format!("a{a}"), i as u64 + 1);
        }
    }
    b.build()
}

fn engine_for(log: &EventLog) -> (Indexer<MemStore>, QueryEngine<MemStore>) {
    let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
    ix.index_log(log).expect("valid log");
    let engine = QueryEngine::new(ix.store()).expect("indexed store");
    (ix, engine)
}

#[test]
fn corrupted_index_row_surfaces_as_error_not_panic() {
    let log = build_log(&[vec![0, 1, 0, 1]]);
    let (ix, engine) = engine_for(&log);
    let p = Pattern::from_log(&log, &["a0", "a1"]).expect("known");
    assert_eq!(engine.detect(&p).expect("detect runs").total_completions(), 2);
    // Truncate the posting row behind the engine's back (21 bytes: one
    // posting plus one stray byte).
    let key = seqdet_log::Activity::pair_key(
        ix.catalog().activity("a0").expect("known"),
        ix.catalog().activity("a1").expect("known"),
    );
    let store = ix.store();
    store.put(INDEX, &pair_key_bytes(key), &[0xFF; 21]).expect("raw put");
    // A raw store.put bypasses the indexer and so does not bump the index
    // generation — the warmed engine is entitled to answer from its posting
    // cache. Any engine that actually reads the row must surface the
    // corruption as an error, not a panic.
    assert_eq!(engine.detect(&p).expect("served from cache").total_completions(), 2);
    let fresh = QueryEngine::new(ix.store()).expect("indexed store");
    match fresh.detect(&p) {
        Err(QueryError::Core(seqdet_core::CoreError::Corrupt { table, .. })) => {
            assert_eq!(table, "Index");
        }
        other => panic!("expected corruption error, got {other:?}"),
    }
}

#[test]
fn query_language_end_to_end_over_the_facade() {
    let log = build_log(&[vec![0, 1, 2], vec![0, 2]]);
    let (_ix, engine) = engine_for(&log);
    let out = seqdet_query::lang::run(&engine, "DETECT a0 -> a2 WITHIN 1").expect("query runs");
    match out {
        seqdet_query::QueryOutput::Detection(r) => {
            assert_eq!(r.total_completions(), 1); // only the tight t1 pair
        }
        other => panic!("unexpected output {other:?}"),
    }
}

/// `DETECT … WITHIN window` over the query language, as sorted `(trace,
/// timestamps)` rows.
fn windowed(
    engine: &QueryEngine<MemStore>,
    names: &[&str],
    window: u64,
) -> Vec<(TraceId, Vec<Ts>)> {
    let statement = format!("DETECT {} WITHIN {window}", names.join(" -> "));
    match seqdet_query::lang::run(engine, &statement).expect("query runs") {
        seqdet_query::QueryOutput::Detection(r) => {
            let mut rows: Vec<_> = r.matches.into_iter().map(|m| (m.trace, m.timestamps)).collect();
            rows.sort();
            rows
        }
        other => panic!("unexpected output {other:?}"),
    }
}

/// The scan oracle's windowed matches of `p`, as sorted rows.
fn oracle_windowed(log: &EventLog, p: &Pattern, window: u64) -> Vec<(TraceId, Vec<Ts>)> {
    let rich = RichPattern::from_activities(p.activities()).expect("plain pattern");
    let mut rows: Vec<_> = SaseEngine::new(log)
        .detect_rich(&rich, Some(window))
        .into_iter()
        .map(|m| (m.trace, m.timestamps))
        .collect();
    rows.sort();
    rows
}

/// Each row is a real embedding of `p` in `log` whose span fits `window`.
fn assert_windowed_embeddings(
    log: &EventLog,
    p: &Pattern,
    window: u64,
    rows: &[(TraceId, Vec<Ts>)],
) {
    for (trace, stamps) in rows {
        assert!(stamps.last().expect("non-empty") - stamps.first().expect("non-empty") <= window);
        let trace = log.trace(*trace).expect("trace exists");
        for (i, &ts) in stamps.iter().enumerate() {
            let ev = trace.events().iter().find(|e| e.ts == ts).expect("event exists");
            assert_eq!(ev.activity, p.activities()[i]);
        }
    }
}

#[test]
fn window_restarts_past_a_stale_greedy_pair() {
    // Trace a0@1 … a1@9 with a second a0@8, window 3: the greedy pair in
    // the index is (1,9), too wide, and the match that fits starts at the
    // later a0. A window is applied to the trace, not to the index's
    // greedy pairs, so `WITHIN 3` finds (8,9), as the scan oracle does.
    let log = build_log(&[vec![0, 2, 2, 2, 2, 2, 2, 0, 1]]);
    let p = Pattern::from_log(&log, &["a0", "a1"]).expect("known");
    let (_ix, engine) = engine_for(&log);
    assert_eq!(engine.detect(&p).expect("runs").matches[0].timestamps, vec![1, 9]);
    let ours = windowed(&engine, &["a0", "a1"], 3);
    assert_eq!(ours.iter().map(|(_, ts)| ts.clone()).collect::<Vec<_>>(), vec![vec![8, 9]]);
    assert_eq!(ours, oracle_windowed(&log, &p, 3));
}

/// Pinned replay of the committed regression case — the vendored proptest
/// does not replay `.proptest-regressions` seed hashes, so saved failures
/// are kept alive as deterministic tests (`cargo xtask regressions`
/// enforces this file-by-file). Exercises both windowed properties on the
/// shrunk input: a window of 1 over a trace where the pattern's pair
/// completes both adjacently and at a distance.
///
/// replays cc ce7abe18a8dbf1d049a52f65df32d9b7caf4265e1d017a66ec538e0f6e1e7b7f
#[test]
fn regression_window_one_with_distant_and_adjacent_completions() {
    let traces: Vec<Vec<u32>> = vec![vec![3, 0, 0, 0, 0, 0, 0, 3, 2]];
    let window = 1u64;

    let log = build_log(&traces);
    let p = Pattern::from_log(&log, &["a3", "a2"]).expect("both activities occur");
    let (_ix, engine) = engine_for(&log);

    let ours = windowed(&engine, &["a3", "a2"], window);
    assert_windowed_embeddings(&log, &p, window, &ours);
    assert_eq!(ours, oracle_windowed(&log, &p, window));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every windowed completion a `DETECT … WITHIN` statement reports is a
    /// real embedding whose span fits the window.
    #[test]
    fn windowed_detection_is_sound(
        traces in prop::collection::vec(prop::collection::vec(0u32..4, 1..30), 1..10),
        pat in prop::collection::vec(0u32..4, 2..=3),
        window in 1u64..20,
    ) {
        let log = build_log(&traces);
        let names: Vec<String> = pat.iter().map(|a| format!("a{a}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let Some(p) = Pattern::from_log(&log, &refs) else { return Ok(()) };
        let (_ix, engine) = engine_for(&log);
        assert_windowed_embeddings(&log, &p, window, &windowed(&engine, &refs, window));
    }

    /// Windowed results are exactly the scan oracle's: the greedy
    /// non-overlapping matches whose span fits the window.
    #[test]
    fn window_filters_exactly_by_span(
        traces in prop::collection::vec(prop::collection::vec(0u32..4, 1..25), 1..8),
        pat in prop::collection::vec(0u32..4, 2..5),
        window in 1u64..15,
    ) {
        let log = build_log(&traces);
        let names: Vec<String> = pat.iter().map(|a| format!("a{a}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let Some(p) = Pattern::from_log(&log, &refs) else { return Ok(()) };
        let (_ix, engine) = engine_for(&log);
        prop_assert_eq!(windowed(&engine, &refs, window), oracle_windowed(&log, &p, window));
    }

    /// Retiring partitions never invents postings: queries over the
    /// remaining partitions return a subset of the full result.
    #[test]
    fn partition_retirement_is_monotone(
        traces in prop::collection::vec(prop::collection::vec(0u32..3, 2..20), 1..6),
        cutoff in 1u64..25,
    ) {
        let log = build_log(&traces);
        let cfg = IndexConfig::new(Policy::SkipTillNextMatch).with_partition_period(5);
        let mut ix = Indexer::new(cfg);
        ix.index_log(&log).expect("valid log");
        let engine = QueryEngine::new(ix.store()).expect("indexed store");
        let Some(p) = Pattern::from_log(&log, &["a0", "a1"]) else { return Ok(()) };
        let before = engine.detect(&p).expect("detect runs");
        ix.drop_partitions_before(cutoff).expect("retirement runs");
        // Re-open the engine to pick up the new partition floor.
        let engine = QueryEngine::new(ix.store()).expect("indexed store");
        let after = engine.detect(&p).expect("detect runs");
        prop_assert!(after.total_completions() <= before.total_completions());
        for m in &after.matches {
            prop_assert!(before.matches.contains(m));
            prop_assert!(m.end() >= (cutoff / 5) * 5, "retired posting leaked: {m:?}");
        }
    }
}
