//! Pattern continuation — Algorithms 3 (Accurate), 4 (Fast), 5 (Hybrid).
//!
//! "The response contains the most likely events that can be appended to
//! the pattern, based on a scoring function" (§3.2.1, Equation 1):
//!
//! ```text
//! score = total_completions / average_duration
//! ```
//!
//! * **Accurate** scores every candidate continuation (`Count.get(ev_p)`
//!   partners) exactly. The paper's Algorithm 3 re-detects `pattern + c`
//!   per candidate; here the pattern is joined **once** and each candidate
//!   costs one counting pass of the final partials against the postings
//!   of `(ev_p, c)` — the extended pattern's join *is* the pattern's join
//!   plus that one step. The pass yields the completions, the gap sum and
//!   the `max_gap` filter without building a single match; a length-1
//!   pattern reads them straight off the `(ev_p, c)` postings. The
//!   per-candidate loop survives in the tests as the reference.
//! * **Fast** ranks candidates purely from the precomputed `Count`
//!   aggregates, upper-bounding completions by the weakest consecutive pair
//!   of the query pattern.
//! * **Hybrid** runs Fast, keeps the top-K candidates, re-evaluates those
//!   with Accurate's shared join — the configurable trade-off of Figure
//!   6/7 ("Setting topK to l … degenerates to the accurate, while setting
//!   topK to 0 is equal to the fast only alternative").

use crate::detect::{self, get_completions, ReadCtx};
use crate::{QueryError, Result};
use seqdet_core::tables::{read_counts, COUNT, RCOUNT};
use seqdet_log::{Activity, Pattern, Ts};
use seqdet_storage::KvStore;

/// Which continuation algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContinuationMethod {
    /// Algorithm 3: exact evaluation of every candidate, with an optional
    /// constraint on the mean gap between the pattern's last event and the
    /// appended event (line 7's "time constraints").
    Accurate {
        /// Drop individual completions whose final gap exceeds this bound.
        max_gap: Option<Ts>,
    },
    /// Algorithm 4: approximate ranking from `Count` aggregates only.
    Fast,
    /// Algorithm 5: Fast pre-ranking, exact re-evaluation of the top `k`.
    Hybrid {
        /// How many of Fast's top propositions to re-evaluate exactly.
        k: usize,
        /// Passed through to the Accurate re-evaluation.
        max_gap: Option<Ts>,
    },
}

/// One proposed continuation event with its (exact or estimated) statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Proposition {
    /// The proposed next event type.
    pub activity: Activity,
    /// Completions of the extended pattern (exact for Accurate, an upper
    /// bound for Fast).
    pub completions: u64,
    /// Average duration between the pattern's last event and the proposed
    /// event (exact for Accurate, the pairwise average for Fast).
    pub avg_duration: f64,
}

impl Proposition {
    /// Equation 1. Completed propositions always have `avg_duration ≥ 1`
    /// (timestamps are strictly increasing), so the guard only affects
    /// zero-completion candidates, which score 0 anyway.
    pub fn score(&self) -> f64 {
        if self.completions == 0 {
            0.0
        } else {
            self.completions as f64 / self.avg_duration.max(f64::MIN_POSITIVE)
        }
    }
}

fn sort_by_score(mut props: Vec<Proposition>) -> Vec<Proposition> {
    // total_cmp instead of partial_cmp: scores are never NaN today, but a
    // ranking function must not be one refactor away from a panic.
    props.sort_by(|a, b| b.score().total_cmp(&a.score()).then(a.activity.0.cmp(&b.activity.0)));
    props
}

/// Candidate continuation activities: everything that has ever followed
/// `ev_p` (the partners of its `Count` row).
fn candidates<S: KvStore>(store: &S, last: Activity) -> Result<Vec<Activity>> {
    Ok(read_counts(store, COUNT, last)?.into_iter().map(|e| e.partner).collect())
}

/// Exact statistics of appending each of `candidates` to `pattern`, in
/// candidate order: the pattern is joined once, then each candidate is one
/// counting pass against the postings of `(last, candidate)` — see the
/// module docs.
fn score_candidates<S: KvStore>(
    ctx: &ReadCtx<'_, S>,
    pattern: &Pattern,
    candidates: impl IntoIterator<Item = Activity>,
    max_gap: Option<Ts>,
) -> Result<Vec<Proposition>> {
    let Some(last) = pattern.last() else {
        return Err(QueryError::PatternTooShort { required: 1, actual: 0 });
    };
    let partials = if pattern.len() >= 2 { Some(detect::join(ctx, pattern, None)?) } else { None };
    candidates
        .into_iter()
        .map(|candidate| {
            let next = ctx.postings(Activity::pair_key(last, candidate))?;
            let (mut kept, mut gap_sum) = (0u64, 0u64);
            let mut add = |gap: Ts| {
                if max_gap.is_none_or(|g| gap <= g) {
                    kept += 1;
                    gap_sum += gap;
                }
            };
            match &partials {
                Some(partials) => detect::for_each_extension(partials, &next, |_, row, ts_b| {
                    if let Some(&prev) = row.last() {
                        add(ts_b - prev);
                    }
                }),
                None => next.iter().for_each(|(_, a, b)| add(b - a)),
            }
            let avg = if kept == 0 { 0.0 } else { gap_sum as f64 / kept as f64 };
            Ok(Proposition { activity: candidate, completions: kept, avg_duration: avg })
        })
        .collect()
}

/// Algorithm 3 — Accurate exploration, on one shared join of the pattern.
pub(crate) fn accurate<S: KvStore>(
    ctx: &ReadCtx<'_, S>,
    pattern: &Pattern,
    max_gap: Option<Ts>,
) -> Result<Vec<Proposition>> {
    let Some(last) = pattern.last() else {
        return Err(QueryError::PatternTooShort { required: 1, actual: 0 });
    };
    let candidates = candidates(ctx.store, last)?;
    Ok(sort_by_score(score_candidates(ctx, pattern, candidates, max_gap)?))
}

/// Algorithm 4 — Fast (heuristic) exploration.
pub(crate) fn fast<S: KvStore>(store: &S, pattern: &Pattern) -> Result<Vec<Proposition>> {
    let Some(last) = pattern.last() else {
        return Err(QueryError::PatternTooShort { required: 1, actual: 0 });
    };
    // Upper bound of completions of the query pattern itself (lines 3-8).
    let mut max_completions = u64::MAX;
    for (a, b) in pattern.consecutive_pairs() {
        let total = read_counts(store, COUNT, a)?
            .iter()
            .find(|e| e.partner == b)
            .map_or(0, |e| e.total_completions);
        max_completions = max_completions.min(total);
    }
    // Rank every candidate by min(bound, its own pair count) (lines 10-13).
    let mut props = Vec::new();
    for e in read_counts(store, COUNT, last)? {
        props.push(Proposition {
            activity: e.partner,
            completions: max_completions.min(e.total_completions),
            avg_duration: e.avg_duration(),
        });
    }
    Ok(sort_by_score(props))
}

/// Algorithm 5 — Hybrid exploration.
///
/// Runs Fast for an initial ranking, then re-evaluates **only the top `k`**
/// candidates exactly and returns those, re-sorted. Returning the mixed
/// list (exact top-k + optimistic rest) would rank un-verified candidates
/// *above* verified ones — Fast's counts are upper bounds — making the
/// answer *worse* as `k` grows; returning just the verified prefix gives
/// the paper's monotone accuracy curve (Figure 7). `k = 0` degenerates to
/// Fast, `k ≥ l` to Accurate, exactly as §3.2.2 states.
pub(crate) fn hybrid<S: KvStore>(
    ctx: &ReadCtx<'_, S>,
    pattern: &Pattern,
    k: usize,
    max_gap: Option<Ts>,
) -> Result<Vec<Proposition>> {
    let pre = fast(ctx.store, pattern)?;
    if k == 0 {
        return Ok(pre);
    }
    let top = pre.into_iter().take(k).map(|p| p.activity);
    Ok(sort_by_score(score_candidates(ctx, pattern, top, max_gap)?))
}

/// §7 extension — continuation with the candidate inserted at an arbitrary
/// position `pos` (0 = before the first event, `pattern.len()` = append).
/// Candidates must have followed the predecessor (from `Count`) *and*
/// preceded the successor (from `ReverseCount`) somewhere in the log; each
/// surviving candidate is evaluated exactly on the inserted pattern.
pub(crate) fn accurate_at<S: KvStore>(
    ctx: &ReadCtx<'_, S>,
    pattern: &Pattern,
    pos: usize,
) -> Result<Vec<Proposition>> {
    let pos = pos.min(pattern.len());
    let acts = pattern.activities();
    let after: Option<Vec<Activity>> =
        if pos > 0 { Some(candidates(ctx.store, acts[pos - 1])?) } else { None };
    let before: Option<Vec<Activity>> = if pos < acts.len() {
        Some(read_counts(ctx.store, RCOUNT, acts[pos])?.into_iter().map(|e| e.partner).collect())
    } else {
        None
    };
    let cands: Vec<Activity> = match (after, before) {
        (Some(a), Some(b)) => a.into_iter().filter(|x| b.contains(x)).collect(),
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (None, None) => Vec::new(),
    };
    let mut props = Vec::new();
    for cand in cands {
        let inserted = pattern.inserted(pos, cand);
        let result = get_completions(ctx, &inserted, None)?;
        // Duration relative to the inserted event's predecessor (or to the
        // successor when inserting at the front).
        let anchor = if pos > 0 { pos } else { 1 };
        let mut sum = 0u64;
        for m in &result.matches {
            // `anchor < timestamps.len()` holds for every well-formed
            // match of the inserted pattern; fetch defensively so a
            // malformed result cannot panic the request path.
            let (Some(&at), Some(&before)) =
                (m.timestamps.get(anchor), m.timestamps.get(anchor - 1))
            else {
                continue;
            };
            sum += at - before;
        }
        let n = result.total_completions() as u64;
        let avg = if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        props.push(Proposition { activity: cand, completions: n, avg_duration: avg });
    }
    Ok(sort_by_score(props))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdet_core::indexer::active_index_tables;
    use seqdet_core::{IndexConfig, Indexer, Policy};
    use seqdet_log::EventLogBuilder;

    /// Log where A→B is frequent and quick, A→C rare and slow.
    fn indexed() -> Indexer {
        let mut b = EventLogBuilder::new();
        for i in 0..10 {
            let t = format!("fast-{i}");
            b.add(&t, "A", 1).add(&t, "B", 2);
        }
        b.add("slow", "A", 1).add("slow", "C", 100);
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&b.build()).unwrap();
        ix
    }

    fn act(ix: &Indexer, n: &str) -> Activity {
        ix.catalog().activity(n).unwrap()
    }

    #[test]
    fn fast_ranks_frequent_quick_continuations_first() {
        let ix = indexed();
        let p = Pattern::new(vec![act(&ix, "A")]);
        let props = fast(ix.store().as_ref(), &p).unwrap();
        assert_eq!(props.len(), 2);
        assert_eq!(props[0].activity, act(&ix, "B"));
        assert_eq!(props[0].completions, 10);
        assert!(props[0].score() > props[1].score());
    }

    #[test]
    fn accurate_matches_fast_on_single_event_pattern() {
        // With a length-1 pattern the extended detection is exactly the
        // pair postings, so Accurate and Fast agree on counts.
        let ix = indexed();
        let store = ix.store();
        let tables = active_index_tables(store.as_ref());
        let p = Pattern::new(vec![act(&ix, "A")]);
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        let acc = accurate(&ctx, &p, None).unwrap();
        let fst = fast(store.as_ref(), &p).unwrap();
        assert_eq!(acc.len(), fst.len());
        for (a, f) in acc.iter().zip(&fst) {
            assert_eq!(a.activity, f.activity);
            assert_eq!(a.completions, f.completions);
        }
    }

    #[test]
    fn accurate_max_gap_filters_slow_matches() {
        let ix = indexed();
        let store = ix.store();
        let tables = active_index_tables(store.as_ref());
        let p = Pattern::new(vec![act(&ix, "A")]);
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        let props = accurate(&ctx, &p, Some(10)).unwrap();
        let c = props.iter().find(|pr| pr.activity == act(&ix, "C")).unwrap();
        assert_eq!(c.completions, 0); // the 99-gap completion is filtered out
        let b = props.iter().find(|pr| pr.activity == act(&ix, "B")).unwrap();
        assert_eq!(b.completions, 10);
    }

    #[test]
    fn hybrid_interpolates_between_fast_and_accurate() {
        let ix = indexed();
        let store = ix.store();
        let tables = active_index_tables(store.as_ref());
        let p = Pattern::new(vec![act(&ix, "A")]);
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        // k = 0 equals Fast.
        let h0 = hybrid(&ctx, &p, 0, None).unwrap();
        let f = fast(store.as_ref(), &p).unwrap();
        assert_eq!(h0, f);
        // k = l equals Accurate.
        let hl = hybrid(&ctx, &p, 100, None).unwrap();
        let a = accurate(&ctx, &p, None).unwrap();
        assert_eq!(hl, a);
    }

    #[test]
    fn fast_bounds_by_weakest_pattern_pair() {
        // Pattern ⟨C, A⟩ never completes, so every continuation of A is
        // bounded to 0 completions.
        let mut b = EventLogBuilder::new();
        b.add("t", "C", 1).add("t", "A", 2).add("t", "B", 3);
        b.add("u", "A", 1).add("u", "B", 2);
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&b.build()).unwrap();
        let p = Pattern::new(vec![act(&ix, "B"), act(&ix, "A")]);
        let props = fast(ix.store().as_ref(), &p).unwrap();
        assert!(props.iter().all(|pr| pr.completions == 0));
    }

    #[test]
    fn insertion_intersects_forward_and_backward_counts() {
        // Log: A X B (twice), A Y C. Insert between A and B → only X.
        let mut b = EventLogBuilder::new();
        b.add("t1", "A", 1).add("t1", "X", 2).add("t1", "B", 3);
        b.add("t2", "A", 1).add("t2", "X", 2).add("t2", "B", 3);
        b.add("t3", "A", 1).add("t3", "Y", 2).add("t3", "C", 3);
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&b.build()).unwrap();
        let store = ix.store();
        let tables = active_index_tables(store.as_ref());
        let p = Pattern::new(vec![act(&ix, "A"), act(&ix, "B")]);
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        let props = accurate_at(&ctx, &p, 1).unwrap();
        let nonzero: Vec<_> = props.iter().filter(|pr| pr.completions > 0).collect();
        assert_eq!(nonzero.len(), 1);
        assert_eq!(nonzero[0].activity, act(&ix, "X"));
        assert_eq!(nonzero[0].completions, 2);
    }

    #[test]
    fn insertion_at_front_uses_reverse_counts() {
        let ix = indexed();
        let store = ix.store();
        let tables = active_index_tables(store.as_ref());
        let p = Pattern::new(vec![act(&ix, "B")]);
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        let props = accurate_at(&ctx, &p, 0).unwrap();
        assert_eq!(props.len(), 1);
        assert_eq!(props[0].activity, act(&ix, "A"));
        assert_eq!(props[0].completions, 10);
    }

    /// The paper's literal Algorithm 3 for one candidate — detect
    /// `pattern + candidate` from scratch and read the final gaps off its
    /// matches — kept as the reference the shared join is compared against.
    fn evaluate_exact<S: KvStore>(
        ctx: &ReadCtx<'_, S>,
        pattern: &Pattern,
        candidate: Activity,
        max_gap: Option<Ts>,
    ) -> Result<Proposition> {
        let extended = pattern.extended(candidate);
        let result = get_completions(ctx, &extended, None)?;
        let mut kept = 0u64;
        let mut gap_sum = 0u64;
        for m in &result.matches {
            let &[.., prev, last] = m.timestamps.as_slice() else { continue };
            let gap = last - prev;
            if max_gap.is_some_and(|g| gap > g) {
                continue;
            }
            kept += 1;
            gap_sum += gap;
        }
        let avg = if kept == 0 { 0.0 } else { gap_sum as f64 / kept as f64 };
        Ok(Proposition { activity: candidate, completions: kept, avg_duration: avg })
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn shared_join_equals_per_candidate_reference(
                traces in prop::collection::vec(prop::collection::vec(0u32..5, 0..=40), 0..=12),
                pat in prop::collection::vec(0u32..6, 1..=4),
                gap in 1u64..=10,
            ) {
                let mut b = EventLogBuilder::new();
                for (t, acts) in traces.iter().enumerate() {
                    for (i, a) in acts.iter().enumerate() {
                        b.add(&format!("t{t}"), &format!("a{a}"), i as Ts + 1);
                    }
                }
                let log = b.build();
                for policy in [Policy::StrictContiguity, Policy::SkipTillNextMatch] {
                    let mut ix = Indexer::new(IndexConfig::new(policy));
                    ix.index_log(&log).unwrap();
                    let store = ix.store();
                    let tables = active_index_tables(store.as_ref());
                    let ctx = ReadCtx::plain(store.as_ref(), &tables);
                    // `a5` is never drawn: it has no catalog id, and any
                    // unused id stands in for it.
                    let pattern = Pattern::new(
                        pat.iter()
                            .map(|a| {
                                ix.catalog().activity(&format!("a{a}")).unwrap_or(Activity(u32::MAX))
                            })
                            .collect(),
                    );
                    let cands = candidates(store.as_ref(), pattern.last().unwrap()).unwrap();
                    for max_gap in [None, Some(gap)] {
                        let reference = |take: usize| {
                            sort_by_score(
                                cands
                                    .iter()
                                    .take(take)
                                    .map(|&c| evaluate_exact(&ctx, &pattern, c, max_gap).unwrap())
                                    .collect(),
                            )
                        };
                        let at = format!("{policy:?} max_gap {max_gap:?}");
                        prop_assert_eq!(
                            accurate(&ctx, &pattern, max_gap).unwrap(),
                            reference(cands.len()),
                            "{}", at
                        );
                        for k in [0, 1, 5, cands.len()] {
                            let pre = fast(store.as_ref(), &pattern).unwrap();
                            let want = if k == 0 {
                                pre
                            } else {
                                sort_by_score(
                                    pre.iter()
                                        .take(k)
                                        .map(|p| evaluate_exact(&ctx, &pattern, p.activity, max_gap).unwrap())
                                        .collect(),
                                )
                            };
                            prop_assert_eq!(hybrid(&ctx, &pattern, k, max_gap).unwrap(), want, "{} k {}", at, k);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_score_for_zero_completions() {
        let p = Proposition { activity: Activity(0), completions: 0, avg_duration: 0.0 };
        assert_eq!(p.score(), 0.0);
        let p = Proposition { activity: Activity(0), completions: 4, avg_duration: 2.0 };
        assert!((p.score() - 2.0).abs() < 1e-12);
    }
}
