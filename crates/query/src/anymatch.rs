//! Skip-till-any-match (STAM) detection — the §7 extension.
//!
//! STAM relaxes STNM by allowing *overlapping* occurrences: every embedding
//! of the pattern as a subsequence counts (the paper's example: detecting
//! `AAB` at positions 1, 3 and 8 of `AAABAACB`). Embedding counts explode
//! combinatorially, so this module returns the exact per-trace **count**
//! (computed by dynamic programming over the stored `Seq` row) plus at most
//! `enumerate_limit` concrete embeddings per trace.
//!
//! Candidate traces come from the STNM index: if a trace embeds the whole
//! pattern, then for every consecutive pair the trace contains that pair as
//! a subsequence, and greedy STNM pairing finds at least one occurrence of
//! any pair that exists — so intersecting the postings' trace sets yields a
//! sound (and usually tight) candidate set without scanning the log. The
//! trace sets are read through the query's [`ReadCtx`] (cache, then decode),
//! and the per-candidate DP + enumeration fans out across the executor —
//! each trace's `Seq` row is independent.

use crate::detect::ReadCtx;
use crate::Result;
use seqdet_core::tables::read_seq;
use seqdet_log::{Activity, Pattern, TraceId, Ts};
use seqdet_storage::{Coverage, KvStore};

/// STAM result for one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceAnyMatches {
    /// The trace.
    pub trace: TraceId,
    /// Exact number of embeddings (saturating at `u64::MAX`).
    pub count: u64,
    /// Up to `enumerate_limit` concrete embeddings (matched timestamps).
    pub examples: Vec<Vec<Ts>>,
}

/// STAM result across traces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnyMatchResult {
    /// Per-trace counts/examples, ascending by trace id; traces with zero
    /// embeddings are omitted.
    pub traces: Vec<TraceAnyMatches>,
    /// How complete the answer is — see
    /// [`DetectResult::coverage`](crate::DetectResult). Stamped by the
    /// engine.
    pub coverage: Coverage,
}

impl AnyMatchResult {
    /// Total embeddings across traces (saturating).
    pub fn total(&self) -> u64 {
        self.traces.iter().fold(0u64, |acc, t| acc.saturating_add(t.count))
    }

    /// Number of traces with at least one embedding.
    pub fn num_traces(&self) -> usize {
        self.traces.len()
    }
}

/// Count subsequence embeddings of `pattern` in `events` by DP:
/// `dp[j]` = number of embeddings of the first `j` pattern symbols.
fn count_embeddings(events: &[(Activity, Ts)], pattern: &[Activity]) -> u64 {
    let p = pattern.len();
    let mut dp = vec![0u64; p + 1];
    dp[0] = 1;
    for &(a, _) in events {
        // Walk backwards so each event is used at most once per embedding.
        for j in (0..p).rev() {
            if pattern[j] == a {
                dp[j + 1] = dp[j + 1].saturating_add(dp[j]);
            }
        }
    }
    dp[p]
}

/// Enumerate up to `limit` embeddings (lexicographically by position).
fn enumerate_embeddings(
    events: &[(Activity, Ts)],
    pattern: &[Activity],
    limit: usize,
) -> Vec<Vec<Ts>> {
    let mut out = Vec::new();
    let mut stack: Vec<Ts> = Vec::with_capacity(pattern.len());
    fn rec(
        events: &[(Activity, Ts)],
        pattern: &[Activity],
        from: usize,
        stack: &mut Vec<Ts>,
        out: &mut Vec<Vec<Ts>>,
        limit: usize,
    ) {
        if out.len() >= limit {
            return;
        }
        let depth = stack.len();
        if depth == pattern.len() {
            out.push(stack.clone());
            return;
        }
        for i in from..events.len() {
            if events[i].0 == pattern[depth] {
                stack.push(events[i].1);
                rec(events, pattern, i + 1, stack, out, limit);
                stack.pop();
                if out.len() >= limit {
                    return;
                }
            }
        }
    }
    rec(events, pattern, 0, &mut stack, &mut out, limit);
    out
}

/// Detect all STAM embeddings of `pattern` (length ≥ 2).
pub(crate) fn detect_any_match<S: KvStore>(
    ctx: &ReadCtx<'_, S>,
    pattern: &Pattern,
    enumerate_limit: usize,
) -> Result<AnyMatchResult> {
    let acts = pattern.activities();
    // Candidate traces: intersection over consecutive pairs.
    let candidates = ctx.traces_with_all(pattern.consecutive_pairs())?;

    // Per-candidate DP over the stored Seq row — independent per trace.
    let per_trace = ctx.executor.map(&candidates, |&trace| -> Result<Option<TraceAnyMatches>> {
        let events: Vec<(Activity, Ts)> =
            read_seq(ctx.store, trace)?.into_iter().map(|e| (e.activity, e.ts)).collect();
        let count = count_embeddings(&events, acts);
        if count == 0 {
            return Ok(None);
        }
        let examples = enumerate_embeddings(&events, acts, enumerate_limit);
        Ok(Some(TraceAnyMatches { trace, count, examples }))
    });
    let mut traces = Vec::new();
    for r in per_trace {
        if let Some(t) = r? {
            traces.push(t);
        }
    }
    Ok(AnyMatchResult { traces, coverage: Coverage::Full })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdet_core::indexer::active_index_tables;
    use seqdet_core::{IndexConfig, Indexer, Policy};
    use seqdet_exec::Executor;
    use seqdet_log::EventLogBuilder;

    fn act(ix: &Indexer, n: &str) -> Activity {
        ix.catalog().activity(n).unwrap()
    }

    /// The paper's §2.1 example: AAB over ⟨AAABAACB⟩ has STNM occurrences at
    /// (1,2,4) and (5,6,8), but STAM additionally admits e.g. (1,3,8).
    fn paper_example() -> Indexer {
        let mut b = EventLogBuilder::new();
        for (i, a) in "AAABAACB".chars().enumerate() {
            b.add("t", &a.to_string(), i as u64 + 1);
        }
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&b.build()).unwrap();
        ix
    }

    #[test]
    fn dp_counts_all_embeddings_of_paper_example() {
        let ix = paper_example();
        let store = ix.store();
        let tables = active_index_tables(store.as_ref());
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        let p = Pattern::new(vec![act(&ix, "A"), act(&ix, "A"), act(&ix, "B")]);
        let r = detect_any_match(&ctx, &p, 100).unwrap();
        // A positions {1,2,3,5,6}; B positions {4,8}.
        // Pairs (Ai<Aj) before B@4: C(3,2)=3; before B@8: C(5,2)=10. Total 13.
        assert_eq!(r.total(), 13);
        assert_eq!(r.num_traces(), 1);
        assert_eq!(r.traces[0].examples.len(), 13);
        assert!(r.traces[0].examples.contains(&vec![1, 3, 8]));
        assert!(r.traces[0].examples.contains(&vec![1, 2, 4]));
    }

    #[test]
    fn enumeration_respects_limit() {
        let ix = paper_example();
        let store = ix.store();
        let tables = active_index_tables(store.as_ref());
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        let p = Pattern::new(vec![act(&ix, "A"), act(&ix, "A"), act(&ix, "B")]);
        let r = detect_any_match(&ctx, &p, 5).unwrap();
        assert_eq!(r.traces[0].examples.len(), 5);
        assert_eq!(r.traces[0].count, 13); // count stays exact
    }

    #[test]
    fn stam_is_superset_of_stnm_counts() {
        let ix = paper_example();
        let store = ix.store();
        let tables = active_index_tables(store.as_ref());
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        let p = Pattern::new(vec![act(&ix, "A"), act(&ix, "B")]);
        let stam = detect_any_match(&ctx, &p, 1000).unwrap();
        // STNM gives 2 pairs; STAM: A's before 4: 3, before 8: 5 → 8.
        assert_eq!(stam.total(), 8);
    }

    #[test]
    fn candidate_intersection_prunes_traces() {
        let mut b = EventLogBuilder::new();
        b.add("has", "A", 1).add("has", "B", 2).add("has", "C", 3);
        b.add("nope", "A", 1).add("nope", "B", 2); // no C
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&b.build()).unwrap();
        let store = ix.store();
        let tables = active_index_tables(store.as_ref());
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        let p = Pattern::new(vec![act(&ix, "A"), act(&ix, "B"), act(&ix, "C")]);
        let r = detect_any_match(&ctx, &p, 10).unwrap();
        assert_eq!(r.num_traces(), 1);
        assert_eq!(r.traces[0].trace, ix.catalog().trace("has").unwrap());
    }

    #[test]
    fn empty_when_pattern_absent() {
        let ix = paper_example();
        let store = ix.store();
        let tables = active_index_tables(store.as_ref());
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        let p = Pattern::new(vec![act(&ix, "C"), act(&ix, "A")]);
        let r = detect_any_match(&ctx, &p, 10).unwrap();
        assert_eq!(r.total(), 0);
        assert_eq!(r.num_traces(), 0);
    }

    #[test]
    fn parallel_dp_matches_sequential() {
        let mut b = EventLogBuilder::new();
        for t in 0..48 {
            let name = format!("t{t}");
            for (i, a) in "AABAB".chars().enumerate() {
                b.add(&name, &a.to_string(), (t + 1) * 10 + i as u64);
            }
        }
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&b.build()).unwrap();
        let store = ix.store();
        let tables = active_index_tables(store.as_ref());
        let p = Pattern::new(vec![act(&ix, "A"), act(&ix, "B")]);
        let seq_ctx = ReadCtx::plain(store.as_ref(), &tables);
        let mut par_ctx = ReadCtx::plain(store.as_ref(), &tables);
        par_ctx.executor = Executor::new(4);
        let s = detect_any_match(&seq_ctx, &p, 100).unwrap();
        let r = detect_any_match(&par_ctx, &p, 100).unwrap();
        assert_eq!(s, r);
        assert_eq!(r.num_traces(), 48);
    }
}
