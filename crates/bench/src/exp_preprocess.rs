//! Table 6: pre-processing time comparison.
//!
//! Columns follow the paper: the \[19\] suffix-array subtree baseline, our
//! Strict-Contiguity index (1 thread / all cores), our STNM index with the
//! Indexing flavor (1 thread / all cores), and the Elasticsearch-like
//! engine. On a single-core host the "all cores" columns coincide with the
//! 1-thread ones.

use crate::datasets::Datasets;
use crate::table::{secs, TextTable};
use crate::timing::mean_time_warm;
use seqdet_baselines::{SubtreeIndex, TextSearchIndex};
use seqdet_core::{IndexConfig, Indexer, Policy};
use seqdet_log::EventLog;

fn build_ours(log: &EventLog, policy: Policy, threads: usize) {
    let cfg = IndexConfig::new(policy).with_threads(threads);
    let mut ix = Indexer::new(cfg);
    ix.index_log(log).expect("indexing cannot fail on a valid log");
}

/// Table 6 rows for every Table-4 dataset.
pub fn table6(data: &mut Datasets) -> String {
    let reps = 2; // builds dominate the harness runtime; see EXPERIMENTS.md
    let mut table = TextTable::new(&[
        "log file",
        "[19]",
        "Strict (1 thread)",
        "Strict",
        "Indexing (1 thread)",
        "Indexing",
        "ES-like",
    ]);
    for name in Datasets::names().collect::<Vec<_>>() {
        let log = data.get(name);
        let subtree = mean_time_warm(reps, |_| SubtreeIndex::build(log).num_subtrees());
        let sc1 = mean_time_warm(reps, |_| build_ours(log, Policy::StrictContiguity, 1));
        let sc = mean_time_warm(reps, |_| build_ours(log, Policy::StrictContiguity, 0));
        let stnm1 = mean_time_warm(reps, |_| build_ours(log, Policy::SkipTillNextMatch, 1));
        let stnm = mean_time_warm(reps, |_| build_ours(log, Policy::SkipTillNextMatch, 0));
        let es = mean_time_warm(reps, |_| TextSearchIndex::build(log).num_terms());
        table.row(vec![
            name.to_string(),
            secs(subtree),
            secs(sc1),
            secs(sc),
            secs(stnm1),
            secs(stnm),
            secs(es),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_has_all_columns_and_rows() {
        let mut data = Datasets::new(1000);
        let report = table6(&mut data);
        assert!(report.contains("[19]"));
        assert!(report.contains("ES-like"));
        for name in Datasets::names() {
            assert!(report.contains(name));
        }
    }
}
