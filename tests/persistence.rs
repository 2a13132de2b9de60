//! Disk persistence: the full index survives process restarts, compaction,
//! and keeps answering queries identically.

use seqdet::prelude::*;
use seqdet_core::catalog::put_meta;
use seqdet_core::CoreError;
use seqdet_datagen::RandomLogSpec;
use seqdet_log::Pattern;
use seqdet_query::{QueryEngine, QueryError};
use seqdet_storage::{DiskStore, KvStore};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seqdet-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn index_survives_reopen_and_answers_identically() {
    let dir = tmp_dir("reopen");
    let log = RandomLogSpec::new(50, 25, 8).generate();
    let pattern_names = {
        // First two activities of the first trace.
        let t = log.traces().next().expect("log non-empty");
        vec![
            log.activity_name(t.events()[0].activity).expect("named").to_owned(),
            log.activity_name(t.events()[1].activity).expect("named").to_owned(),
        ]
    };

    let before = {
        let store = Arc::new(DiskStore::open(&dir).expect("dir writable"));
        let mut ix =
            Indexer::with_store(store.clone(), IndexConfig::new(Policy::SkipTillNextMatch))
                .expect("fresh store");
        ix.index_log(&log).expect("valid log");
        store.flush().expect("flush");
        let engine = QueryEngine::new(store).expect("indexed");
        let names: Vec<&str> = pattern_names.iter().map(String::as_str).collect();
        let p: Pattern = engine.pattern(&names).expect("known");
        engine.detect(&p).expect("detect runs")
    };

    // New "process": reopen from disk only.
    let store = Arc::new(DiskStore::open(&dir).expect("segments exist"));
    let engine = QueryEngine::new(store.clone()).expect("catalog persisted");
    let names: Vec<&str> = pattern_names.iter().map(String::as_str).collect();
    let p: Pattern = engine.pattern(&names).expect("catalog persisted");
    let after = engine.detect(&p).expect("detect runs");
    assert_eq!(before, after);
    assert!(before.total_completions() > 0, "pattern from the log must occur");

    // The indexer reopens too, with its config intact.
    let ix = Indexer::open(store).expect("config persisted");
    assert_eq!(ix.config().policy, Policy::SkipTillNextMatch);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn compaction_between_batches_preserves_answers() {
    let dir = tmp_dir("compact");
    let mk = |lo: u64, hi: u64| {
        let mut b = EventLogBuilder::new();
        for t in 0..10 {
            let name = format!("t{t}");
            for ts in lo..hi {
                let act = ["A", "B", "C"][(ts as usize + t) % 3];
                b.add(&name, act, ts);
            }
        }
        b.build()
    };
    {
        let store = Arc::new(DiskStore::open(&dir).expect("dir writable"));
        let mut ix =
            Indexer::with_store(store.clone(), IndexConfig::new(Policy::SkipTillNextMatch))
                .expect("fresh store");
        ix.index_log(&mk(1, 20)).expect("batch 1");
        store.compact().expect("compaction");
        ix.index_log(&mk(20, 40)).expect("batch 2");
        store.flush().expect("flush");
    }
    let store = Arc::new(DiskStore::open(&dir).expect("segments exist"));
    let engine = QueryEngine::new(store).expect("catalog persisted");
    let p = engine.pattern(&["A", "B", "C"]).expect("known");
    let r = engine.detect(&p).expect("detect runs");
    assert!(r.total_completions() > 0);
    // Compare to a pure in-memory run over the same data.
    let mut mem = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
    mem.index_log(&mk(1, 20)).expect("batch 1");
    mem.index_log(&mk(20, 40)).expect("batch 2");
    let mem_engine = QueryEngine::new(mem.store()).expect("indexed");
    let mp = mem_engine.pattern(&["A", "B", "C"]).expect("known");
    assert_eq!(
        r.total_completions(),
        mem_engine.detect(&mp).expect("detect runs").total_completions()
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn partitioned_disk_index_roundtrips() {
    let dir = tmp_dir("partitioned");
    {
        let store = Arc::new(DiskStore::open(&dir).expect("dir writable"));
        let cfg = IndexConfig::new(Policy::SkipTillNextMatch).with_partition_period(10);
        let mut ix = Indexer::with_store(store.clone(), cfg).expect("fresh store");
        let mut b = EventLogBuilder::new();
        for ts in 1..50u64 {
            b.add("t", if ts % 2 == 0 { "A" } else { "B" }, ts);
        }
        ix.index_log(&b.build()).expect("valid log");
        store.flush().expect("flush");
    }
    let store = Arc::new(DiskStore::open(&dir).expect("segments exist"));
    // Reopening with a mismatching partitioning must fail…
    assert!(
        Indexer::with_store(store.clone(), IndexConfig::new(Policy::SkipTillNextMatch)).is_err()
    );
    // …but the query engine just follows the persisted partition layout.
    let engine = QueryEngine::new(store).expect("catalog persisted");
    let p = engine.pattern(&["B", "A"]).expect("known");
    assert_eq!(engine.detect(&p).expect("detect runs").total_completions(), 24);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A store written in the retired v1 posting format — tagged `v1`, or
/// indexed before the tag existed — is refused by every open path with the
/// typed error that names the remedy, never a corrupt-row error mid-query.
/// A never-indexed store still opens, and is created as v2.
#[test]
fn legacy_posting_format_is_refused_at_open() {
    for (name, tag) in [("legacy-tagged", Some("v1")), ("legacy-keyless", None)] {
        let dir = tmp_dir(name);
        let store = Arc::new(DiskStore::open(&dir).expect("dir writable"));
        put_meta(store.as_ref(), "config:policy", Policy::SkipTillNextMatch.name()).expect("put");
        put_meta(store.as_ref(), "config:method", "Indexing").expect("put");
        if let Some(tag) = tag {
            put_meta(store.as_ref(), "config:posting_format", tag).expect("put");
        }
        let refusals = [
            Indexer::open(store.clone()).err().expect("refused"),
            Indexer::with_store(store.clone(), IndexConfig::new(Policy::SkipTillNextMatch))
                .err()
                .expect("refused"),
            match QueryEngine::new(store.clone()).err().expect("refused") {
                QueryError::Core(e) => e,
                other => panic!("{name}: expected a core error, got {other}"),
            },
        ];
        for err in refusals {
            assert!(matches!(err, CoreError::ConfigMismatch { .. }), "{name}: {err}");
            assert!(err.to_string().contains("re-index from the source log"), "{name}: {err}");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    let dir = tmp_dir("never-indexed");
    let store = Arc::new(DiskStore::open(&dir).expect("dir writable"));
    QueryEngine::new(store.clone()).expect("an empty store opens");
    Indexer::with_store(store.clone(), IndexConfig::new(Policy::SkipTillNextMatch))
        .expect("an empty store is created");
    assert_eq!(seqdet_core::posting_format(store.as_ref()).name(), "v2");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
