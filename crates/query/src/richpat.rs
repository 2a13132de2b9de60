//! Rich-pattern detection over the pair index: Kleene plus, negation,
//! time windows and event-attribute predicates.
//!
//! The classic pairwise join ([`crate::detect`]) answers plain sequences
//! directly from posting lists. Rich patterns (`A B+ !C D WITHIN 2h`,
//! `A[amount > 100]`) cannot be answered by the pairs alone — negation and
//! predicates are not visible to them — so this module *compiles* a
//! [`RichPattern`] onto the existing primitives in two stages:
//!
//! 1. **Candidate generation.** The pattern's *skeleton* (its positive
//!    activities, in order) must appear as a subsequence in any matching
//!    trace, and a trace containing a pair as a subsequence always has at
//!    least one greedy STNM posting for it — so the intersection of the
//!    skeleton's consecutive-pair posting lists is a sound candidate set,
//!    exactly as in [`crate::anymatch`]. The Count table orders the
//!    intersection by selectivity (rarest pair first) and a probe cascade
//!    retains the traces every list contains. A single-element skeleton
//!    falls back to a `Seq` scan, like length-1 detection.
//! 2. **Per-trace verification.** Each candidate's stored `Seq` and `Attrs`
//!    rows are decoded and a backtracking verifier NFA checks the full
//!    semantics — Kleene absorption, forbidden zones, window, predicates —
//!    per the normative rules in [`seqdet_log::richpat`]. Verification
//!    fans out across the context's executor; attribute lookups binary
//!    search the ts-sorted `Attrs` row instead of scanning it.
//!
//! The scan-based SASE oracle in `seqdet-baselines` implements the same
//! semantics with none of this machinery; the `pattern_semantics`
//! differential suite holds the two equal on random traces and patterns.

use crate::anymatch::{AnyMatchResult, TraceAnyMatches};
use crate::detect::{DetectResult, PatternMatch, ReadCtx};
use crate::Result;
use seqdet_core::tables::{pair_count, read_attrs, read_seq};
use seqdet_log::{Activity, Attr, AttrEntry, Event, PatternElem, RichPattern, TraceId, Ts};
use seqdet_storage::{Coverage, KvStore};

/// All completions of `pattern` (greedy non-overlapping canonical matches),
/// optionally bounded by a `WITHIN` window.
pub(crate) fn detect_rich<S: KvStore>(
    ctx: &ReadCtx<'_, S>,
    pattern: &RichPattern,
    within: Option<Ts>,
) -> Result<DetectResult> {
    let candidates = candidates(ctx, pattern)?;
    let per_trace = ctx.executor.map(&candidates, |&trace| -> Result<Vec<PatternMatch>> {
        let events = read_seq(ctx.store, trace)?;
        let attrs = read_attrs(ctx.store, trace)?;
        let v = Verifier::new(pattern, &events, &attrs, within);
        Ok(v.detect().into_iter().map(|timestamps| PatternMatch { trace, timestamps }).collect())
    });
    let mut matches = Vec::new();
    for r in per_trace {
        matches.extend(r?);
    }
    // Candidates are ascending and per-trace matches ascend by end
    // timestamp by construction (greedy non-overlapping), so the
    // DetectResult ordering contract holds without a sort.
    Ok(DetectResult { matches, coverage: Coverage::Full })
}

/// Skip-till-any-match over a rich pattern: exact per-trace count of valid
/// anchor assignments plus up to `enumerate_limit` examples.
pub(crate) fn any_match_rich<S: KvStore>(
    ctx: &ReadCtx<'_, S>,
    pattern: &RichPattern,
    within: Option<Ts>,
    enumerate_limit: usize,
) -> Result<AnyMatchResult> {
    let candidates = candidates(ctx, pattern)?;
    let per_trace = ctx.executor.map(&candidates, |&trace| -> Result<Option<TraceAnyMatches>> {
        let events = read_seq(ctx.store, trace)?;
        let attrs = read_attrs(ctx.store, trace)?;
        let v = Verifier::new(pattern, &events, &attrs, within);
        let (count, examples) = v.enumerate(enumerate_limit);
        Ok((count > 0).then_some(TraceAnyMatches { trace, count, examples }))
    });
    let mut traces = Vec::new();
    for r in per_trace {
        if let Some(t) = r? {
            traces.push(t);
        }
    }
    Ok(AnyMatchResult { traces, coverage: Coverage::Full })
}

/// Sound candidate traces for `pattern`, ascending. See the module docs.
fn candidates<S: KvStore>(ctx: &ReadCtx<'_, S>, pattern: &RichPattern) -> Result<Vec<TraceId>> {
    let skeleton = pattern.skeleton();
    let pairs: Vec<(Activity, Activity)> =
        skeleton.iter().zip(skeleton.iter().skip(1)).map(|(&a, &b)| (a, b)).collect();
    if pairs.is_empty() {
        let Some(&single) = skeleton.first() else { return Ok(Vec::new()) };
        return seq_scan_candidates(ctx.store, single);
    }

    // Selectivity ordering: intersect starting from the rarest pair (the
    // Count table has the totals already aggregated). The resulting *set*
    // is order-independent; starting small keeps the probe cascade cheap.
    let mut ordered = Vec::with_capacity(pairs.len());
    for (a, b) in pairs {
        let total = pair_count(ctx.store, a, b)?.map_or(0, |e| e.total_completions);
        ordered.push((total, a, b));
    }
    ordered.sort_by_key(|&(total, _, _)| total);

    ctx.traces_with_all(ordered.into_iter().map(|(_, a, b)| (a, b)))
}

/// Length-1 skeleton fallback: the pair index cannot see single events, so
/// scan the stored `Seq` rows for traces containing the activity at all.
fn seq_scan_candidates<S: KvStore>(store: &S, activity: Activity) -> Result<Vec<TraceId>> {
    let mut out = Vec::new();
    for (key, row) in store.scan(seqdet_core::tables::SEQ) {
        let raw: [u8; 4] = key.as_ref().try_into().map_err(|_| {
            seqdet_core::CoreError::Corrupt { table: "Seq", message: "key is not 4 bytes".into() }
        })?;
        if seqdet_core::tables::decode_events(&row)?.iter().any(|e| e.activity == activity) {
            out.push(TraceId(u32::from_le_bytes(raw)));
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// The per-trace verifier NFA. Implements the normative semantics of
/// [`seqdet_log::richpat`] — anchors for positive elements, Kleene
/// absorption, forbidden zones for negation, anchor-span windows — with a
/// backtracking search (a violated zone must not prune later anchors: a
/// Kleene absorber between two anchors can move the zone start forward).
///
/// Unlike the deliberately naive oracle in `seqdet-baselines`, attribute
/// lookups binary search the ts-sorted `Attrs` row.
struct Verifier<'p, 'e> {
    elems: &'p [PatternElem],
    /// Indices into `elems` of the positive elements, in order.
    positives: Vec<usize>,
    events: &'e [Event],
    attrs: &'e [AttrEntry],
    within: Option<Ts>,
}

impl<'p, 'e> Verifier<'p, 'e> {
    fn new(
        pattern: &'p RichPattern,
        events: &'e [Event],
        attrs: &'e [AttrEntry],
        within: Option<Ts>,
    ) -> Self {
        let elems = pattern.elems();
        let positives =
            elems.iter().enumerate().filter(|(_, e)| !e.negated).map(|(i, _)| i).collect();
        Self { elems, positives, events, attrs, within }
    }

    /// Attribute value of the event at `ts`, by binary search on the
    /// ts-sorted row (an event's attributes are adjacent within it).
    fn attr_of(&self, ts: Ts, key: Attr) -> Option<i64> {
        let start = self.attrs.partition_point(|&(t, _, _)| t < ts);
        self.attrs
            .get(start..)
            .unwrap_or(&[])
            .iter()
            .take_while(|&&(t, _, _)| t == ts)
            .find(|&&(_, k, _)| k == key)
            .map(|&(_, _, v)| v)
    }

    fn matches_elem(&self, elem_idx: usize, ev_idx: usize) -> bool {
        let (Some(elem), Some(ev)) = (self.elems.get(elem_idx), self.events.get(ev_idx)) else {
            return false;
        };
        elem.event_matches(ev.activity, ev.ts, |a| self.attr_of(ev.ts, a))
    }

    fn ts_of(&self, ev_idx: usize) -> Option<Ts> {
        self.events.get(ev_idx).map(|e| e.ts)
    }

    /// Where the forbidden zone after the positive element `elem_idx`
    /// (anchored at `lo`, next anchor at `hi`) starts: the last event
    /// absorbed by a Kleene element, or the anchor itself otherwise.
    fn zone_start(&self, elem_idx: usize, lo: usize, hi: usize) -> usize {
        if !self.elems.get(elem_idx).is_some_and(|e| e.kleene) {
            return lo;
        }
        let mut last = lo;
        for i in lo + 1..hi {
            if self.matches_elem(elem_idx, i) {
                last = i;
            }
        }
        last
    }

    /// Are all negated elements between positive `k-1` and positive `k`
    /// satisfied for the anchor placement `(prev_anchor, next_anchor)`?
    fn gap_ok(&self, k: usize, prev_anchor: usize, next_anchor: usize) -> bool {
        let (Some(&prev_elem), Some(&next_elem)) =
            (self.positives.get(k.wrapping_sub(1)), self.positives.get(k))
        else {
            return true;
        };
        let lo = self.zone_start(prev_elem, prev_anchor, next_anchor);
        for n in prev_elem + 1..next_elem {
            for i in lo + 1..next_anchor {
                if self.matches_elem(n, i) {
                    return false;
                }
            }
        }
        true
    }

    /// Is the anchor-span window exceeded by extending to event `j`? With
    /// `j` moving forward timestamps only grow, so an exceeded window also
    /// rules out every later candidate at this depth.
    fn window_exceeded(&self, anchors: &[usize], j: usize) -> bool {
        let (Some(w), Some(first), Some(ts)) =
            (self.within, anchors.first().copied().and_then(|a| self.ts_of(a)), self.ts_of(j))
        else {
            return false;
        };
        ts.saturating_sub(first) > w
    }

    /// Greedy non-overlapping canonical matches of the whole trace, as
    /// anchor-timestamp vectors.
    fn detect(&self) -> Vec<Vec<Ts>> {
        let mut out = Vec::new();
        let mut start = 0usize;
        loop {
            let mut anchors = Vec::with_capacity(self.positives.len());
            if !self.search(0, start, &mut anchors) {
                break;
            }
            start = anchors.last().map_or(self.events.len(), |&l| l + 1);
            out.push(anchors.iter().filter_map(|&i| self.ts_of(i)).collect());
        }
        out
    }

    /// Lexicographically smallest valid anchor vector with
    /// `anchors[0] >= from`; `true` when one exists (left in `anchors`).
    fn search(&self, k: usize, from: usize, anchors: &mut Vec<usize>) -> bool {
        let Some(&elem_idx) = self.positives.get(k) else { return false };
        for j in from..self.events.len() {
            if !self.matches_elem(elem_idx, j) {
                continue;
            }
            if k > 0 {
                if self.window_exceeded(anchors, j) {
                    return false;
                }
                let Some(&prev) = anchors.last() else { return false };
                if !self.gap_ok(k, prev, j) {
                    continue;
                }
            }
            anchors.push(j);
            if k + 1 == self.positives.len() {
                return true;
            }
            if self.search(k + 1, j + 1, anchors) {
                return true;
            }
            anchors.pop();
        }
        false
    }

    /// Count every valid anchor assignment (saturating) and collect the
    /// first `limit` as timestamp vectors, in lexicographic anchor order.
    fn enumerate(&self, limit: usize) -> (u64, Vec<Vec<Ts>>) {
        let mut count = 0u64;
        let mut examples = Vec::new();
        let mut anchors = Vec::with_capacity(self.positives.len());
        self.enum_rec(0, 0, &mut anchors, &mut count, &mut examples, limit);
        (count, examples)
    }

    fn enum_rec(
        &self,
        k: usize,
        from: usize,
        anchors: &mut Vec<usize>,
        count: &mut u64,
        examples: &mut Vec<Vec<Ts>>,
        limit: usize,
    ) {
        let Some(&elem_idx) = self.positives.get(k) else { return };
        for j in from..self.events.len() {
            if !self.matches_elem(elem_idx, j) {
                continue;
            }
            if k > 0 {
                if self.window_exceeded(anchors, j) {
                    return;
                }
                let Some(&prev) = anchors.last() else { return };
                if !self.gap_ok(k, prev, j) {
                    continue;
                }
            }
            anchors.push(j);
            if k + 1 == self.positives.len() {
                *count = count.saturating_add(1);
                if examples.len() < limit {
                    examples.push(anchors.iter().filter_map(|&i| self.ts_of(i)).collect());
                }
            } else {
                self.enum_rec(k + 1, j + 1, anchors, count, examples, limit);
            }
            anchors.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdet_core::{IndexConfig, Indexer, Policy};
    use seqdet_log::{CmpOp, EventLogBuilder, PredKey, Predicate};

    fn elem(ix: &Indexer, name: &str, negated: bool, kleene: bool) -> PatternElem {
        PatternElem {
            activity: ix.catalog().activity(name).unwrap(),
            negated,
            kleene,
            preds: vec![],
        }
    }

    fn indexed() -> Indexer {
        let mut b = EventLogBuilder::new();
        // t1: A B C B D — backtracking + kleene territory.
        for (a, ts) in [("A", 1), ("B", 2), ("C", 3), ("B", 4), ("D", 5)] {
            b.add("t1", a, ts);
        }
        // t2: A B D, with an amount on the B.
        b.add("t2", "A", 10);
        b.add("t2", "B", 11).attr("amount", 150);
        b.add("t2", "D", 12);
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&b.build()).unwrap();
        ix
    }

    #[test]
    fn kleene_negation_and_backtracking() {
        let ix = indexed();
        let store = ix.store();
        let tables = seqdet_core::indexer::active_index_tables(store.as_ref());
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        // A B+ !C D: t1's B+ absorbs B@4, so C@3 is outside the zone.
        let p = RichPattern::new(vec![
            elem(&ix, "A", false, false),
            elem(&ix, "B", false, true),
            elem(&ix, "C", true, false),
            elem(&ix, "D", false, false),
        ])
        .unwrap();
        let r = detect_rich(&ctx, &p, None).unwrap();
        assert_eq!(r.total_completions(), 2);
        assert_eq!(r.matches[0].timestamps, vec![1, 2, 5]);
        assert_eq!(r.matches[1].timestamps, vec![10, 11, 12]);
        // A B !C D (no kleene): t1 must backtrack to anchor B@4.
        let p = RichPattern::new(vec![
            elem(&ix, "A", false, false),
            elem(&ix, "B", false, false),
            elem(&ix, "C", true, false),
            elem(&ix, "D", false, false),
        ])
        .unwrap();
        let r = detect_rich(&ctx, &p, None).unwrap();
        assert_eq!(r.matches[0].timestamps, vec![1, 4, 5]);
    }

    #[test]
    fn predicates_and_window_filter() {
        let ix = indexed();
        let store = ix.store();
        let tables = seqdet_core::indexer::active_index_tables(store.as_ref());
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        let amount = ix.catalog().attr("amount").unwrap();
        let mut b = elem(&ix, "B", false, false);
        b.preds.push(Predicate { key: PredKey::Attr(amount), op: CmpOp::Gt, value: 100 });
        let p =
            RichPattern::new(vec![elem(&ix, "A", false, false), b, elem(&ix, "D", false, false)])
                .unwrap();
        // Only t2's B carries amount > 100.
        let r = detect_rich(&ctx, &p, None).unwrap();
        assert_eq!(r.total_completions(), 1);
        assert_eq!(r.matches[0].timestamps, vec![10, 11, 12]);
        // Plain A→D within 2 only fits t2 (t1 spans 1..5).
        let p = RichPattern::new(vec![elem(&ix, "A", false, false), elem(&ix, "D", false, false)])
            .unwrap();
        let r = detect_rich(&ctx, &p, Some(2)).unwrap();
        assert_eq!(r.total_completions(), 1);
        assert_eq!(r.matches[0].trace, ix.catalog().trace("t2").unwrap());
    }

    #[test]
    fn any_match_counts_and_single_skeleton_fallback() {
        let ix = indexed();
        let store = ix.store();
        let tables = seqdet_core::indexer::active_index_tables(store.as_ref());
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        // A !C B: t1 admits only (A@1, B@2) — C@3 poisons (A@1, B@4);
        // t2 admits (A@10, B@11).
        let p = RichPattern::new(vec![
            elem(&ix, "A", false, false),
            elem(&ix, "C", true, false),
            elem(&ix, "B", false, false),
        ])
        .unwrap();
        let r = any_match_rich(&ctx, &p, None, 5).unwrap();
        assert_eq!(r.total(), 2);
        assert_eq!(r.traces[0].examples, vec![vec![1, 2]]);
        // Single positive element with a ts predicate: Seq-scan fallback.
        let mut d = elem(&ix, "D", false, false);
        d.preds.push(Predicate { key: PredKey::Ts, op: CmpOp::Ge, value: 6 });
        let p = RichPattern::new(vec![d]).unwrap();
        let r = detect_rich(&ctx, &p, None).unwrap();
        assert_eq!(r.total_completions(), 1);
        assert_eq!(r.matches[0].timestamps, vec![12]);
    }

    #[test]
    fn multi_pair_skeleton_intersects_candidates() {
        let ix = indexed();
        let store = ix.store();
        let tables = seqdet_core::indexer::active_index_tables(store.as_ref());
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        let p = RichPattern::new(vec![
            elem(&ix, "A", false, false),
            elem(&ix, "B", false, true),
            elem(&ix, "D", false, false),
        ])
        .unwrap();
        assert_eq!(detect_rich(&ctx, &p, None).unwrap().total_completions(), 2);
    }
}
