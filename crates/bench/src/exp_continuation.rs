//! Figures 5, 6 and 7: pattern-continuation trade-offs.

use crate::datasets::Datasets;
use crate::table::{secs, TextTable};
use crate::timing::time;
use seqdet_core::{IndexConfig, Indexer, Policy};
use seqdet_datagen::patterns::{pattern_batch, PatternMode};
use seqdet_log::{EventLog, Pattern};
use seqdet_query::{ContinuationMethod, Proposition, QueryEngine};
use seqdet_storage::MemStore;
use std::time::Duration;

fn build_engine(log: &EventLog) -> QueryEngine<MemStore> {
    let cfg = IndexConfig::new(Policy::SkipTillNextMatch);
    let mut ix = Indexer::new(cfg);
    ix.index_log(log).expect("indexing cannot fail on a valid log");
    QueryEngine::new(ix.store()).expect("catalog was just written")
}

fn mean_continuation_time(
    engine: &QueryEngine<MemStore>,
    patterns: &[Pattern],
    method: ContinuationMethod,
) -> Duration {
    if patterns.is_empty() {
        return Duration::ZERO;
    }
    let (_, total) = time(|| {
        for p in patterns {
            std::hint::black_box(
                engine.continuations(p, method).expect("continuation cannot fail"),
            );
        }
    });
    total / patterns.len() as u32
}

/// Figure 5: Accurate vs Fast response time as the query pattern grows
/// (max_10000 profile).
pub fn fig5(data: &mut Datasets) -> String {
    let log = data.get("max_10000");
    let engine = build_engine(log);
    let mut table = TextTable::new(&["pattern length", "Accurate", "Fast"]);
    for len in 1..=6usize {
        let batch = pattern_batch(log, len, 10, PatternMode::Embedded, 17);
        let acc =
            mean_continuation_time(&engine, &batch, ContinuationMethod::Accurate { max_gap: None });
        let fast = mean_continuation_time(&engine, &batch, ContinuationMethod::Fast);
        table.row(vec![len.to_string(), secs(acc), secs(fast)]);
    }
    table.render()
}

/// Figure 6: response time vs `topK` for the Hybrid flavor (pattern length
/// 4), with the Fast and Accurate horizontals for reference.
pub fn fig6(data: &mut Datasets) -> String {
    let log = data.get("max_10000");
    let l = log.num_activities();
    let engine = build_engine(log);
    let batch = pattern_batch(log, 4, 10, PatternMode::Embedded, 19);
    let fast = mean_continuation_time(&engine, &batch, ContinuationMethod::Fast);
    let acc =
        mean_continuation_time(&engine, &batch, ContinuationMethod::Accurate { max_gap: None });
    let mut table = TextTable::new(&["topK", "Hybrid", "Fast", "Accurate"]);
    for k in ks(l) {
        let hy = mean_continuation_time(
            &engine,
            &batch,
            ContinuationMethod::Hybrid { k, max_gap: None },
        );
        table.row(vec![k.to_string(), secs(hy), secs(fast), secs(acc)]);
    }
    table.render()
}

fn ks(l: usize) -> Vec<usize> {
    let mut ks = vec![0, 1, 2, 4, 8, 16, 32];
    ks.retain(|&k| k <= l);
    if ks.last() != Some(&l) {
        ks.push(l);
    }
    ks
}

/// The paper's Figure-7 accuracy metric: with `k_acc` = number of non-empty
/// propositions Accurate returns, the fraction of Hybrid's top `k_acc`
/// propositions that Accurate also reports (by activity).
pub fn hybrid_accuracy(accurate: &[Proposition], hybrid: &[Proposition]) -> f64 {
    let truth: Vec<_> = accurate.iter().filter(|p| p.completions > 0).map(|p| p.activity).collect();
    if truth.is_empty() {
        return 1.0;
    }
    let hits = hybrid.iter().take(truth.len()).filter(|p| truth.contains(&p.activity)).count();
    hits as f64 / truth.len() as f64
}

/// Figure 7: Hybrid accuracy vs `topK` (ground truth = Accurate).
pub fn fig7(data: &mut Datasets) -> String {
    let log = data.get("max_10000");
    let l = log.num_activities();
    let engine = build_engine(log);
    let batch = pattern_batch(log, 4, 10, PatternMode::Embedded, 19);
    let mut table = TextTable::new(&["topK", "accuracy"]);
    for k in ks(l) {
        let mut sum = 0.0;
        for p in &batch {
            let acc = engine
                .continuations(p, ContinuationMethod::Accurate { max_gap: None })
                .expect("continuation cannot fail");
            let hyb = engine
                .continuations(p, ContinuationMethod::Hybrid { k, max_gap: None })
                .expect("continuation cannot fail");
            sum += hybrid_accuracy(&acc, &hyb);
        }
        table.row(vec![k.to_string(), format!("{:.3}", sum / batch.len() as f64)]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdet_log::Activity;

    fn prop(a: u32, c: u64, d: f64) -> Proposition {
        Proposition { activity: Activity(a), completions: c, avg_duration: d }
    }

    #[test]
    fn accuracy_is_one_when_hybrid_matches_accurate() {
        let acc = vec![prop(0, 5, 1.0), prop(1, 3, 1.0)];
        assert_eq!(hybrid_accuracy(&acc, &acc), 1.0);
    }

    #[test]
    fn accuracy_counts_top_k_overlap() {
        let acc = vec![prop(0, 5, 1.0), prop(1, 3, 1.0)]; // truth = {0, 1}
        let hyb = vec![prop(0, 9, 1.0), prop(7, 9, 1.0), prop(1, 1, 1.0)];
        // Hybrid's top 2 = {0, 7}; overlap with truth = {0} → 0.5.
        assert_eq!(hybrid_accuracy(&acc, &hyb), 0.5);
    }

    #[test]
    fn accuracy_on_empty_truth_is_one() {
        let acc = vec![prop(0, 0, 0.0)];
        let hyb = vec![prop(1, 4, 1.0)];
        assert_eq!(hybrid_accuracy(&acc, &hyb), 1.0);
    }

    #[test]
    fn fig5_and_fig7_run_at_tiny_scale() {
        let mut data = Datasets::new(2000);
        let f5 = fig5(&mut data);
        assert!(f5.contains("Accurate"));
        let f7 = fig7(&mut data);
        assert!(f7.contains("accuracy"));
    }

    #[test]
    fn ks_always_ends_at_l() {
        assert_eq!(ks(5).last(), Some(&5));
        assert_eq!(ks(200).last(), Some(&200));
        assert!(ks(0).contains(&0));
    }
}
