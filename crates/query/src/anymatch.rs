//! Skip-till-any-match (STAM) detection — the §7 extension.
//!
//! STAM relaxes STNM by allowing *overlapping* occurrences: every embedding
//! of the pattern as a subsequence counts (the paper's example: detecting
//! `AAB` at positions 1, 3 and 8 of `AAABAACB`). Embedding counts explode
//! combinatorially, so this module returns the exact per-trace **count**
//! plus at most `enumerate_limit` concrete embeddings per trace.
//!
//! Candidate traces come from the STNM index: if a trace embeds the whole
//! pattern, then for every consecutive pair the trace contains that pair as
//! a subsequence, and greedy STNM pairing finds at least one occurrence of
//! any pair that exists — so intersecting the postings' trace sets yields a
//! sound (and usually tight) candidate set without scanning the log. The
//! trace sets are read through the query's [`ReadCtx`] (cache, then decode).
//! An embedding is an anchor assignment of the same pattern written as a
//! rich pattern with plain elements only, so each candidate is counted and
//! enumerated by the rich-pattern evaluator ([`crate::richpat`]): a dynamic
//! program over per-element position lists for the count, a memoised
//! search for the examples. The classic embedding DP and enumeration stay
//! in this module's tests as the reference.

use crate::detect::ReadCtx;
use crate::{richpat, Result};
use seqdet_log::{Pattern, PatternElem, TraceId, Ts};
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

/// Detect all STAM embeddings of `pattern` (length ≥ 2).
pub(crate) fn detect_any_match<S: KvStore>(
    ctx: &ReadCtx<'_, S>,
    pattern: &Pattern,
    enumerate_limit: usize,
) -> Result<AnyMatchResult> {
    // Candidate traces: intersection over consecutive pairs.
    let candidates = ctx.traces_with_all(pattern.consecutive_pairs())?;
    // An embedding is an anchor assignment of the all-plain rich pattern.
    let elems: Vec<PatternElem> =
        pattern.activities().iter().copied().map(PatternElem::plain).collect();
    richpat::any_match_over(ctx.store, &candidates, &elems, None, enumerate_limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdet_core::indexer::active_index_tables;
    use seqdet_core::{IndexConfig, Indexer, Policy};
    use seqdet_log::{Activity, EventLogBuilder};

    /// Reference count of subsequence embeddings of `pattern` in `events`
    /// by the classic DP: `dp[j]` = number of embeddings of the first `j`
    /// pattern symbols.
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

    /// Reference enumeration of up to `limit` embeddings (lexicographically
    /// by position).
    fn enumerate_embeddings(
        events: &[(Activity, Ts)],
        pattern: &[Activity],
        limit: usize,
    ) -> Vec<Vec<Ts>> {
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
        let mut out = Vec::new();
        rec(events, pattern, 0, &mut Vec::new(), &mut out, limit);
        out
    }

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

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The shared evaluator, fed plain elements through the whole
            /// query path, equals the classic embedding DP and enumeration
            /// on every trace: counts, examples and which traces appear.
            #[test]
            fn evaluator_equals_embedding_oracle(
                traces in prop::collection::vec(prop::collection::vec(0u32..4, 0..16), 1..6),
                pattern in prop::collection::vec(0u32..4, 2..5),
                limit in 0usize..8,
            ) {
                let mut b = EventLogBuilder::new();
                for (t, acts) in traces.iter().enumerate() {
                    for (i, a) in acts.iter().enumerate() {
                        b.add(&format!("t{t}"), &format!("a{a}"), i as Ts + 1);
                    }
                }
                let log = b.build();
                let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
                ix.index_log(&log).unwrap();
                let names: Vec<String> = pattern.iter().map(|a| format!("a{a}")).collect();
                let Some(acts) = names
                    .iter()
                    .map(|n| ix.catalog().activity(n))
                    .collect::<Option<Vec<Activity>>>()
                else {
                    return Ok(());
                };
                let store = ix.store();
                let tables = active_index_tables(store.as_ref());
                let ctx = ReadCtx::plain(store.as_ref(), &tables);
                let got = detect_any_match(&ctx, &Pattern::new(acts.clone()), limit).unwrap();

                let mut expected = Vec::new();
                for (t, trace_acts) in traces.iter().enumerate() {
                    let Some(trace) = ix.catalog().trace(&format!("t{t}")) else { continue };
                    let events: Vec<(Activity, Ts)> = trace_acts
                        .iter()
                        .enumerate()
                        .map(|(i, a)| (ix.catalog().activity(&format!("a{a}")).unwrap(), i as Ts + 1))
                        .collect();
                    let count = count_embeddings(&events, &acts);
                    if count > 0 {
                        let examples = enumerate_embeddings(&events, &acts, limit);
                        expected.push(TraceAnyMatches { trace, count, examples });
                    }
                }
                expected.sort_by_key(|t| t.trace);
                prop_assert_eq!(got.traces, expected);
            }
        }
    }
}
