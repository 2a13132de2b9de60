//! Table 7, Figure 4 and Table 8: query response times.

use crate::datasets::Datasets;
use crate::table::{secs, TextTable};
use crate::timing::time;
use seqdet_baselines::{SaseEngine, SubtreeIndex, TextSearchIndex};
use seqdet_core::{IndexConfig, Indexer, Policy};
use seqdet_datagen::patterns::{pattern_batch, PatternMode};
use seqdet_log::{EventLog, Pattern};
use seqdet_query::QueryEngine;
use seqdet_storage::MemStore;
use std::fmt::Write as _;
use std::time::Duration;

/// Patterns per (dataset, length) configuration — the paper's Table 8
/// searches 100 random patterns per cell.
const PATTERNS_PER_CELL: usize = 100;

fn build_engine(log: &EventLog, policy: Policy) -> QueryEngine<MemStore> {
    let cfg = IndexConfig::new(policy);
    let mut ix = Indexer::new(cfg);
    ix.index_log(log).expect("indexing cannot fail on a valid log");
    QueryEngine::new(ix.store()).expect("catalog was just written")
}

/// Mean per-query time of `f` over a batch of patterns.
fn mean_query_time(patterns: &[Pattern], mut f: impl FnMut(&Pattern)) -> Duration {
    if patterns.is_empty() {
        return Duration::ZERO;
    }
    let (_, total) = time(|| {
        for p in patterns {
            f(p);
        }
    });
    total / patterns.len() as u32
}

/// Table 7: SC detection — \[19\] vs our pair index, pattern lengths 2 and 10.
pub fn table7(data: &mut Datasets) -> String {
    let mut table = TextTable::new(&["log file", "[19]", "Our method (2)", "Our method (10)"]);
    // The paper omits bpi_2017 from Table 7 ([19] failed to index it); we
    // include every dataset for completeness.
    for name in Datasets::names().collect::<Vec<_>>() {
        let log = data.get(name);
        let subtree = SubtreeIndex::build(log);
        let engine = build_engine(log, Policy::StrictContiguity);
        let p2 = pattern_batch(log, 2, PATTERNS_PER_CELL, PatternMode::Contiguous, 7);
        let p10 = pattern_batch(log, 10, PATTERNS_PER_CELL, PatternMode::Contiguous, 7);
        let t19 = mean_query_time(&p2, |p| {
            std::hint::black_box(subtree.detect_sc(p));
        });
        let ours2 = mean_query_time(&p2, |p| {
            std::hint::black_box(engine.detect(p).expect("detect cannot fail"));
        });
        let ours10 = mean_query_time(&p10, |p| {
            std::hint::black_box(engine.detect(p).expect("detect cannot fail"));
        });
        table.row(vec![name.to_string(), secs(t19), secs(ours2), secs(ours10)]);
    }
    table.render()
}

/// Figure 4: response time vs pattern length (max_10000 profile).
pub fn fig4(data: &mut Datasets) -> String {
    let log = data.get("max_10000");
    let engine = build_engine(log, Policy::SkipTillNextMatch);
    let mut table = TextTable::new(&["pattern length", "response time (s)"]);
    for len in 2..=10usize {
        let batch = pattern_batch(log, len, 50, PatternMode::Embedded, 11);
        let d = mean_query_time(&batch, |p| {
            std::hint::black_box(engine.detect(p).expect("detect cannot fail"));
        });
        table.row(vec![len.to_string(), secs(d)]);
    }
    table.render()
}

/// Table 8: STNM query response — ES-like vs SASE-like vs ours, pattern
/// lengths 2, 5, 10, 100 random patterns per cell.
pub fn table8(data: &mut Datasets) -> String {
    let mut out = String::new();
    for len in [2usize, 5, 10] {
        let _ = writeln!(out, "pattern length = {len}");
        let mut table = TextTable::new(&["log file", "ES-like", "SASE-like", "Our method"]);
        for name in Datasets::names().collect::<Vec<_>>() {
            let log = data.get(name);
            let es = TextSearchIndex::build(log);
            let sase = SaseEngine::new(log);
            let engine = build_engine(log, Policy::SkipTillNextMatch);
            let batch = pattern_batch(log, len, PATTERNS_PER_CELL, PatternMode::Random, 13);
            let t_es = mean_query_time(&batch, |p| {
                std::hint::black_box(es.query_stnm(p));
            });
            let t_sase = mean_query_time(&batch, |p| {
                std::hint::black_box(sase.detect_runs(p));
            });
            let t_ours = mean_query_time(&batch, |p| {
                std::hint::black_box(engine.detect(p).expect("detect cannot fail"));
            });
            table.row(vec![name.to_string(), secs(t_es), secs(t_sase), secs(t_ours)]);
        }
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_runs_at_tiny_scale() {
        let mut data = Datasets::new(1000);
        let report = table7(&mut data);
        assert!(report.contains("Our method (2)"));
        assert!(report.lines().count() >= 12);
    }

    #[test]
    fn fig4_has_nine_lengths() {
        let mut data = Datasets::new(1000);
        let report = fig4(&mut data);
        assert_eq!(report.lines().count(), 2 + 9);
    }

    #[test]
    fn table8_covers_three_lengths() {
        let mut data = Datasets::new(1000);
        let report = table8(&mut data);
        assert!(report.contains("pattern length = 2"));
        assert!(report.contains("pattern length = 5"));
        assert!(report.contains("pattern length = 10"));
        assert!(report.contains("SASE-like"));
    }
}
