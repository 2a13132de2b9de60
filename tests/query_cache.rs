//! Query-side posting cache: correctness across index mutations, and
//! observability of the read path through `StoreMetrics`.
//!
//! The cache trades repeated row fetch + decode + group work for memory,
//! but it must be *invisible* semantically: a query against an engine whose
//! cache was warmed before an index mutation must answer exactly like a
//! freshly opened engine. These tests drive every mutation kind the indexer
//! has (batch append, partition drop, trace prune) between queries.

use seqdet_core::{IndexConfig, Indexer, Policy};
use seqdet_log::EventLogBuilder;
use seqdet_query::QueryEngine;
use seqdet_storage::{MemStore, StoreMetrics};
use std::sync::Arc;

fn log_batch(traces: &[(&str, &[(&str, u64)])]) -> seqdet_log::EventLog {
    let mut b = EventLogBuilder::new();
    for (name, events) in traces {
        for (act, ts) in *events {
            b.add(name, act, *ts);
        }
    }
    b.build()
}

/// A warmed engine must answer identically to a freshly opened one after
/// every kind of index mutation — the cached postings may never leak
/// through a generation bump.
#[test]
fn stale_cache_is_never_served_across_mutations() {
    let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
    ix.index_log(&log_batch(&[
        ("t1", &[("A", 1), ("B", 2), ("C", 3)]),
        ("t2", &[("A", 5), ("B", 6)]),
    ]))
    .unwrap();

    let warmed = QueryEngine::new(ix.store()).unwrap();
    let p = warmed.pattern(&["A", "B"]).unwrap();
    assert_eq!(warmed.detect(&p).unwrap().total_completions(), 2);
    // Cache is now warm for (A,B).
    assert_eq!(warmed.cache_stats().entries, 1);

    // Mutation 1: append a batch (same activities → same pair rows grow).
    ix.index_log(&log_batch(&[("t3", &[("A", 10), ("B", 11)])])).unwrap();
    let fresh = QueryEngine::new(ix.store()).unwrap();
    assert_eq!(warmed.detect(&p).unwrap(), fresh.detect(&p).unwrap());
    assert_eq!(warmed.detect(&p).unwrap().total_completions(), 3);

    // Mutation 2: prune a trace (keeps postings, bumps the generation).
    warmed.detect(&p).unwrap(); // re-warm
    ix.prune_traces(&["t1"]).unwrap();
    let fresh = QueryEngine::new(ix.store()).unwrap();
    assert_eq!(warmed.detect(&p).unwrap(), fresh.detect(&p).unwrap());
    assert!(warmed.cache_stats().invalidations >= 1);
}

/// Partition drops change the *layout* as well as the contents: the warmed
/// engine must reload the active table list and forget cached rows of the
/// dropped partition.
#[test]
fn partition_drop_refreshes_layout_and_cache() {
    let cfg = IndexConfig::new(Policy::SkipTillNextMatch).with_partition_period(100);
    let mut ix = Indexer::new(cfg);
    // Two A→B occurrences in different periods (partitions).
    ix.index_log(&log_batch(&[("t1", &[("A", 10), ("B", 20)]), ("t2", &[("A", 150), ("B", 160)])]))
        .unwrap();

    let warmed = QueryEngine::new(ix.store()).unwrap();
    let p = warmed.pattern(&["A", "B"]).unwrap();
    assert_eq!(warmed.detect(&p).unwrap().total_completions(), 2);

    // Drop the first period's partition.
    let dropped = ix.drop_partitions_before(100).unwrap();
    assert!(dropped > 0);
    let fresh = QueryEngine::new(ix.store()).unwrap();
    let warmed_result = warmed.detect(&p).unwrap();
    assert_eq!(warmed_result, fresh.detect(&p).unwrap());
    assert_eq!(warmed_result.total_completions(), 1);
    assert_eq!(warmed_result.matches[0].timestamps, vec![150, 160]);
}

/// The read-path counters: cache hits/misses and cursor decodes
/// flow into the same `StoreMetrics` as the store's own get/put counts, and
/// a warm query touches the store only for the generation check.
#[test]
fn read_path_counters_are_observable() {
    let metrics = Arc::new(StoreMetrics::new());
    let store = Arc::new(MemStore::with_metrics(Arc::clone(&metrics)));
    let mut ix = Indexer::with_store(store, IndexConfig::new(Policy::SkipTillNextMatch)).unwrap();
    let mut b = EventLogBuilder::new();
    for t in 0..8 {
        let name = format!("t{t}");
        b.add(&name, "A", t * 10 + 1).add(&name, "B", t * 10 + 2).add(&name, "C", t * 10 + 3);
    }
    ix.index_log(&b.build()).unwrap();

    let e = QueryEngine::new(ix.store()).unwrap().with_metrics(Arc::clone(&metrics));
    let p = e.pattern(&["A", "B", "C"]).unwrap();

    metrics.reset();
    let cold = e.detect(&p).unwrap();
    assert_eq!(cold.total_completions(), 8);
    let (cold_gets, cold_decodes) = (metrics.gets(), metrics.cursor_decodes());
    assert_eq!(metrics.cache_misses(), 2, "both pairs miss cold");
    assert_eq!(cold_decodes, 16, "8 postings per pair decode through the cursor");

    let warm = e.detect(&p).unwrap();
    assert_eq!(warm, cold);
    assert_eq!(metrics.cache_hits(), 2, "both pairs hit warm");
    assert_eq!(metrics.cursor_decodes(), cold_decodes, "warm query decodes nothing");
    // Warm store traffic: exactly the generation meta lookup.
    assert_eq!(metrics.gets() - cold_gets, 1);
}
