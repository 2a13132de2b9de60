//! Rich-pattern detection over the pair index: Kleene plus, negation,
//! time windows and event-attribute predicates.
//!
//! The classic pairwise join ([`crate::detect`]) answers plain sequences
//! directly from posting lists. Rich patterns (`A B+ !C D WITHIN 2h`,
//! `A[amount > 100]`) cannot be answered by the pairs alone — negation and
//! predicates are not visible to them, and a window can need a later start
//! than the greedy pair the index stored, so plain windowed sequences run
//! here too — so this module *compiles* a [`RichPattern`] onto the
//! existing primitives in two stages:
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
//! 2. **Per-trace evaluation.** Each candidate's `Seq` row is decoded into
//!    the evaluator's reused buffer (its `Attrs` row too, but only when an
//!    element compares an attribute), and one pass over the events builds,
//!    per pattern element, the ascending positions of the events it
//!    matches. Everything the semantics of [`seqdet_log::richpat`] asks is
//!    then a binary search on those lists: a Kleene element's zone starts
//!    at its last absorbed position before the next anchor, and a negation
//!    holds when none of its positions falls inside the zone.
//!    - `DETECT` is a lexicographic depth-first search with a dead-state
//!      memo keyed by (positive element, position): without `WITHIN`
//!      whether an anchor can be completed depends on nothing else, so the
//!      memo serves the whole trace across the greedy restarts; with
//!      `WITHIN` it also depends on the first anchor and is reset per
//!      first anchor.
//!    - `ANY MATCH` counts by a dynamic program over consecutive positive
//!      elements (saturating), once per first anchor under `WITHIN`, and
//!      lists the first `limit` assignments with the same memoised search.
//!
//!    Both are polynomial in the trace length; the backtracking search the
//!    semantics are easiest to state as lives in the tests as the reference.
//!
//! The evaluator relies on the ingest invariant that a `Seq` row is sorted
//! by strictly increasing timestamp, and its `Attrs` row by timestamp.
//!
//! The scan-based SASE oracle in `seqdet-baselines` implements the same
//! semantics with none of this machinery; the `pattern_semantics`
//! differential suite holds the two equal on random traces and patterns.

use crate::anymatch::{AnyMatchResult, TraceAnyMatches};
use crate::detect::{DetectResult, PatternMatch, ReadCtx};
use crate::Result;
use seqdet_core::tables::{decode_attrs_into, decode_events_into, pair_count, seq_key, ATTRS, SEQ};
use seqdet_log::{
    Activity, Attr, AttrEntry, Event, PatternElem, PredKey, RichPattern, TraceId, Ts,
};
use seqdet_storage::{Coverage, KvStore};

/// All completions of `pattern` (greedy non-overlapping canonical matches),
/// optionally bounded by a `WITHIN` window.
pub(crate) fn detect_rich<S: KvStore>(
    ctx: &ReadCtx<'_, S>,
    pattern: &RichPattern,
    within: Option<Ts>,
) -> Result<DetectResult> {
    let candidates = candidates(ctx, pattern)?;
    let mut eval = Evaluator::new(pattern.elems(), within);
    let mut matches = Vec::new();
    for &trace in &candidates {
        eval.load(ctx.store, trace)?;
        eval.detect(|timestamps| matches.push(PatternMatch { trace, timestamps }));
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
    any_match_over(ctx.store, &candidates, pattern.elems(), within, enumerate_limit)
}

/// Count and list the valid anchor assignments of `elems` in each of
/// `candidates` (ascending); traces without one are left out. Shared by
/// rich and classic `ANY MATCH`.
pub(crate) fn any_match_over<S: KvStore>(
    store: &S,
    candidates: &[TraceId],
    elems: &[PatternElem],
    within: Option<Ts>,
    enumerate_limit: usize,
) -> Result<AnyMatchResult> {
    let mut eval = Evaluator::new(elems, within);
    let mut traces = Vec::new();
    for &trace in candidates {
        eval.load(store, trace)?;
        let count = eval.count();
        if count > 0 {
            traces.push(TraceAnyMatches {
                trace,
                count,
                examples: eval.enumerate(enumerate_limit),
            });
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
    let mut events = Vec::new();
    for (key, row) in store.scan(SEQ) {
        let raw: [u8; 4] = key.as_ref().try_into().map_err(|_| {
            seqdet_core::CoreError::Corrupt { table: "Seq", message: "key is not 4 bytes".into() }
        })?;
        events.clear();
        decode_events_into(&row, &mut events)?;
        if events.iter().any(|e| e.activity == activity) {
            out.push(TraceId(u32::from_le_bytes(raw)));
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// The per-trace evaluator: one trace's rows, its per-element position
/// lists and the searches over them (see the module docs). Built once per
/// query; [`Evaluator::load`] reuses every buffer from trace to trace.
struct Evaluator<'p> {
    trace: Trace<'p>,
    memo: Memo,
    /// Prefix sums of the counting program's previous and current level.
    sums: [Vec<u128>; 2],
}

impl<'p> Evaluator<'p> {
    fn new(elems: &'p [PatternElem], within: Option<Ts>) -> Self {
        let positives =
            elems.iter().enumerate().filter(|(_, e)| !e.negated).map(|(i, _)| i).collect();
        let needs_attrs =
            elems.iter().flat_map(|e| &e.preds).any(|p| matches!(p.key, PredKey::Attr(_)));
        let trace = Trace {
            elems,
            positives,
            within,
            needs_attrs,
            events: Vec::new(),
            attrs: Vec::new(),
            pos: vec![Vec::new(); elems.len()],
        };
        Self { trace, memo: Memo::default(), sums: [Vec::new(), Vec::new()] }
    }

    /// Read `trace`'s rows into the reused buffers and index them. The
    /// `Attrs` row is read only when a predicate needs it.
    fn load<S: KvStore>(&mut self, store: &S, trace: TraceId) -> Result<()> {
        let key = seq_key(trace);
        let t = &mut self.trace;
        t.events.clear();
        if let Some(row) = store.get(SEQ, &key) {
            decode_events_into(&row, &mut t.events)?;
        }
        t.attrs.clear();
        if t.needs_attrs {
            if let Some(row) = store.get(ATTRS, &key) {
                decode_attrs_into(&row, &mut t.attrs)?;
            }
        }
        self.index();
        Ok(())
    }

    /// Index the loaded rows and forget the previous trace's memo.
    fn index(&mut self) {
        self.trace.index();
        let t = &self.trace;
        self.memo.reset(t.positives.iter().map(|&e| t.pos.get(e).map_or(0, Vec::len)));
    }

    /// Greedy non-overlapping canonical matches of the loaded trace, in
    /// order, as anchor timestamps.
    fn detect(&mut self, mut emit: impl FnMut(Vec<Ts>)) {
        let (t, memo) = (&self.trace, &mut self.memo);
        let firsts = t.list(0);
        let mut anchors = Vec::with_capacity(t.positives.len());
        let mut i = 0;
        while let Some(&first) = firsts.get(i) {
            if t.within.is_some() {
                memo.next_epoch();
            }
            anchors.clear();
            anchors.push(first);
            if t.complete(memo, 0, t.end(first), &mut anchors) {
                emit(t.timestamps(&anchors));
                let last = anchors.last().copied().unwrap_or(first);
                i = firsts.partition_point(|&p| p <= last);
            } else {
                i += 1;
            }
        }
    }

    /// Number of valid anchor assignments in the loaded trace (saturating).
    fn count(&mut self) -> u64 {
        let (t, sums) = (&self.trace, &mut self.sums);
        if t.within.is_none() {
            return t.count_from(None, t.events.len(), sums);
        }
        t.list(0).iter().fold(0u64, |total, &first| {
            total.saturating_add(t.count_from(Some(first), t.end(first), sums))
        })
    }

    /// The first `limit` valid anchor assignments in lexicographic anchor
    /// order, as anchor timestamps.
    fn enumerate(&mut self, limit: usize) -> Vec<Vec<Ts>> {
        let (t, memo) = (&self.trace, &mut self.memo);
        let mut out = Vec::new();
        let mut anchors = Vec::with_capacity(t.positives.len());
        for &first in t.list(0) {
            if out.len() >= limit {
                break;
            }
            if t.within.is_some() {
                memo.next_epoch();
            }
            anchors.clear();
            anchors.push(first);
            t.enumerate_from(memo, 0, t.end(first), &mut anchors, &mut out, limit);
        }
        out
    }
}

/// Attribute `key` of the event at `ts`, by binary search on the ts-sorted
/// `Attrs` row (an event's attributes are adjacent within it).
fn attr_of(attrs: &[AttrEntry], ts: Ts, key: Attr) -> Option<i64> {
    let start = attrs.partition_point(|&(t, _, _)| t < ts);
    attrs
        .get(start..)
        .unwrap_or_default()
        .iter()
        .take_while(|&&(t, _, _)| t == ts)
        .find(|&&(_, k, _)| k == key)
        .map(|&(_, _, v)| v)
}

/// The dead-state memo: a slot per (positive element, index into its
/// position list), dead when it holds the current epoch. A new epoch
/// forgets every mark in O(1).
#[derive(Debug, Default)]
struct Memo {
    /// Offset of each positive element's slots in `stamp`.
    base: Vec<usize>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl Memo {
    fn reset(&mut self, sizes: impl Iterator<Item = usize>) {
        self.base.clear();
        let mut total = 0;
        for n in sizes {
            self.base.push(total);
            total += n;
        }
        self.stamp.clear();
        self.stamp.resize(total, 0);
        self.epoch = 1;
    }

    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    fn slot(&self, k: usize, i: usize) -> Option<usize> {
        self.base.get(k).map(|b| b + i)
    }

    fn is_dead(&self, k: usize, i: usize) -> bool {
        self.slot(k, i).and_then(|s| self.stamp.get(s)).is_some_and(|&e| e == self.epoch)
    }

    fn kill(&mut self, k: usize, i: usize) {
        let epoch = self.epoch;
        if let Some(s) = self.slot(k, i).and_then(|s| self.stamp.get_mut(s)) {
            *s = epoch;
        }
    }
}

/// What moving from one anchor to a candidate next anchor does.
enum Step {
    /// The gap's negations hold: the candidate is a valid next anchor.
    Take,
    /// A negation fails for this candidate but may hold for a later one.
    Skip,
    /// A negation fails for this and every later candidate.
    Stop,
}

/// One loaded trace and the pattern it is evaluated against: the shape,
/// the decoded rows and the per-element position lists. Read-only during
/// the searches, which keep their mutable state in a [`Memo`].
struct Trace<'p> {
    elems: &'p [PatternElem],
    /// Indices into `elems` of the positive elements, in order.
    positives: Vec<usize>,
    within: Option<Ts>,
    /// Does some element compare an event attribute? (`ts` needs none.)
    needs_attrs: bool,
    events: Vec<Event>,
    attrs: Vec<AttrEntry>,
    /// `pos[e]`: ascending positions of the events `elems[e]` matches.
    pos: Vec<Vec<usize>>,
}

impl Trace<'_> {
    /// One pass over the events: append each position to the list of
    /// every element the event matches.
    fn index(&mut self) {
        for list in &mut self.pos {
            list.clear();
        }
        let attrs = self.attrs.as_slice();
        for (i, ev) in self.events.iter().enumerate() {
            let lookup = |key| attr_of(attrs, ev.ts, key);
            for (elem, list) in self.elems.iter().zip(&mut self.pos) {
                if elem.event_matches(ev.activity, ev.ts, lookup) {
                    list.push(i);
                }
            }
        }
    }

    /// Positions the `k`-th positive element matches.
    fn list(&self, k: usize) -> &[usize] {
        self.positives.get(k).and_then(|&e| self.pos.get(e)).map_or(&[], Vec::as_slice)
    }

    fn timestamps(&self, anchors: &[usize]) -> Vec<Ts> {
        anchors.iter().filter_map(|&p| self.events.get(p).map(|e| e.ts)).collect()
    }

    /// Exclusive position bound of the anchors that may follow a first
    /// anchor at `first`: the end of the trace, or of its `WITHIN` window.
    fn end(&self, first: usize) -> usize {
        match (self.within, self.events.get(first)) {
            (Some(w), Some(ev)) => {
                let last = ev.ts.saturating_add(w);
                self.events.partition_point(|e| e.ts <= last)
            }
            _ => self.events.len(),
        }
    }

    /// The last position before `at` matched by a negated element of gap
    /// `k` (between positive elements `k-1` and `k`), if any: the gap's
    /// negations hold for a zone ending at `at` exactly when this is not
    /// after the zone's start.
    fn last_negated_before(&self, k: usize, at: usize) -> Option<usize> {
        let (Some(&prev), Some(&next)) =
            (self.positives.get(k.wrapping_sub(1)), self.positives.get(k))
        else {
            return None;
        };
        self.pos
            .get(prev + 1..next)
            .unwrap_or_default()
            .iter()
            .filter_map(|list| {
                list.partition_point(|&p| p < at).checked_sub(1).and_then(|i| list.get(i))
            })
            .copied()
            .max()
    }

    /// Where gap `k`'s forbidden zone starts when positive `k` is anchored
    /// at `at`: the last position before `at` matched by a Kleene positive
    /// `k-1` (its anchor or its last absorbed event), `None` otherwise.
    fn kleene_zone_start(&self, k: usize, at: usize) -> Option<usize> {
        let prev = self.positives.get(k.wrapping_sub(1)).copied()?;
        if !self.elems.get(prev).is_some_and(|e| e.kleene) {
            return None;
        }
        let list = self.list(k - 1);
        list.partition_point(|&p| p < at).checked_sub(1).and_then(|i| list.get(i)).copied()
    }

    /// Moving from positive `k-1` anchored at `prev` to positive `k` at `at`.
    fn step(&self, k: usize, prev: usize, at: usize) -> Step {
        let negated = self.last_negated_before(k, at);
        match self.kleene_zone_start(k, at) {
            // The zone start depends on `at` alone: a later candidate may
            // absorb past the offending event.
            Some(zone) if negated.is_some_and(|n| n > zone) => Step::Skip,
            Some(_) => Step::Take,
            // The zone starts at `prev`: an event inside it stays inside
            // for every later candidate.
            None if negated.is_some_and(|n| n > prev) => Step::Stop,
            None => Step::Take,
        }
    }

    /// Extend `anchors` (positives `0..=k`, the last at `anchors[k]`) to
    /// the lexicographically smallest complete assignment below `end`;
    /// `true` when one exists (left in `anchors`). Anchors found dead are
    /// marked in `memo`.
    fn complete(&self, memo: &mut Memo, k: usize, end: usize, anchors: &mut Vec<usize>) -> bool {
        let next = k + 1;
        if next >= self.positives.len() {
            return true;
        }
        let Some(&at) = anchors.last() else { return false };
        let list = self.list(next);
        for (i, &cand) in list.iter().enumerate().skip(list.partition_point(|&p| p <= at)) {
            if cand >= end {
                break;
            }
            if memo.is_dead(next, i) {
                continue;
            }
            match self.step(next, at, cand) {
                Step::Stop => break,
                Step::Skip => continue,
                Step::Take => {}
            }
            anchors.push(cand);
            if self.complete(memo, next, end, anchors) {
                return true;
            }
            anchors.pop();
            memo.kill(next, i);
        }
        false
    }

    /// Append to `out`, in lexicographic order and until it holds `limit`,
    /// every complete assignment extending `anchors` (positives `0..=k`)
    /// below `end`; `true` when at least one exists. A subtree that
    /// yields nothing was searched in full, so its root is marked dead.
    fn enumerate_from(
        &self,
        memo: &mut Memo,
        k: usize,
        end: usize,
        anchors: &mut Vec<usize>,
        out: &mut Vec<Vec<Ts>>,
        limit: usize,
    ) -> bool {
        let next = k + 1;
        if next >= self.positives.len() {
            out.push(self.timestamps(anchors));
            return true;
        }
        let Some(&at) = anchors.last() else { return false };
        let list = self.list(next);
        let mut found = false;
        for (i, &cand) in list.iter().enumerate().skip(list.partition_point(|&p| p <= at)) {
            if cand >= end || out.len() >= limit {
                break;
            }
            if memo.is_dead(next, i) {
                continue;
            }
            match self.step(next, at, cand) {
                Step::Stop => break,
                Step::Skip => continue,
                Step::Take => {}
            }
            anchors.push(cand);
            let hit = self.enumerate_from(memo, next, end, anchors, out, limit);
            anchors.pop();
            if !hit {
                memo.kill(next, i);
            }
            found |= hit;
        }
        found
    }

    /// Number of valid anchor assignments (saturating) with every anchor
    /// below `end` and the first at `first` (anywhere when `None`).
    ///
    /// Level `k` holds, per candidate anchor of positive `k`, the number of
    /// ways to anchor positives `0..=k` ending there; a level is kept as
    /// prefix sums, so the ways into one anchor are one range sum over the
    /// previous level. A Kleene positive `k-1` admits every earlier anchor
    /// or none (its zone start depends only on the new anchor); otherwise
    /// the admitted earlier anchors are those at or after the last negated
    /// event before the new anchor. Counts are clamped to `u64::MAX` per
    /// anchor and summed exactly in `u128`, which equals clamping the
    /// total.
    fn count_from(&self, first: Option<usize>, end: usize, sums: &mut [Vec<u128>; 2]) -> u64 {
        let firsts = self.list(0);
        let mut prev = match first {
            Some(a) => {
                let i = firsts.partition_point(|&p| p < a);
                firsts.get(i..=i).unwrap_or_default()
            }
            None => firsts.get(..firsts.partition_point(|&p| p < end)).unwrap_or_default(),
        };
        let [prev_sums, cur_sums] = sums;
        prev_sums.clear();
        prev_sums.extend((0..=prev.len()).map(|n| n as u128));
        for k in 1..self.positives.len() {
            let Some(&lowest) = prev.first() else { return 0 };
            let list = self.list(k);
            let lo = list.partition_point(|&p| p <= lowest);
            let hi = list.partition_point(|&p| p < end);
            let cur = list.get(lo..hi).unwrap_or_default();
            cur_sums.clear();
            cur_sums.push(0);
            let mut acc = 0u128;
            for &at in cur {
                let below = prev.partition_point(|&p| p < at);
                let negated = self.last_negated_before(k, at);
                let from = match self.kleene_zone_start(k, at) {
                    Some(zone) if negated.is_some_and(|n| n > zone) => below,
                    Some(_) => 0,
                    None => negated.map_or(0, |n| prev.partition_point(|&p| p < n)),
                };
                let ways = match (prev_sums.get(below), prev_sums.get(from)) {
                    (Some(&b), Some(&f)) if b > f => b - f,
                    _ => 0,
                };
                acc += ways.min(u128::from(u64::MAX));
                cur_sums.push(acc);
            }
            std::mem::swap(prev_sums, cur_sums);
            prev = cur;
        }
        prev_sums.last().map_or(0, |&total| u64::try_from(total).unwrap_or(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryError;
    use seqdet_core::{CoreError, IndexConfig, Indexer, Policy};
    use seqdet_log::{CmpOp, EventLogBuilder, Predicate};

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
        // A B !C D (no kleene): t1 must skip ahead to anchor B@4.
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

    #[test]
    fn torn_rows_are_corrupt_errors() {
        let ix = indexed();
        let store = ix.store();
        let tables = seqdet_core::indexer::active_index_tables(store.as_ref());
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        let t2 = seq_key(ix.catalog().trace("t2").unwrap());
        let amount = ix.catalog().attr("amount").unwrap();
        let plain = RichPattern::new(vec![
            elem(&ix, "A", false, false),
            elem(&ix, "B", false, true),
            elem(&ix, "D", false, false),
        ])
        .unwrap();
        let mut b = elem(&ix, "B", false, false);
        b.preds.push(Predicate { key: PredKey::Attr(amount), op: CmpOp::Gt, value: 100 });
        let with_attr =
            RichPattern::new(vec![elem(&ix, "A", false, false), b, elem(&ix, "D", false, false)])
                .unwrap();
        let corrupt = |r: Result<()>, table: &str| {
            assert!(
                matches!(r, Err(QueryError::Core(CoreError::Corrupt { table: t, .. })) if t == table),
                "expected Corrupt {table}, got {r:?}"
            );
        };

        // A torn Attrs row is never read by a pattern without attribute
        // predicates, and is a typed error for one with them.
        let attrs_row = store.get(ATTRS, &t2).unwrap();
        store.put(ATTRS, &t2, &attrs_row[..attrs_row.len() - 1]).unwrap();
        assert_eq!(detect_rich(&ctx, &plain, None).unwrap().total_completions(), 2);
        corrupt(detect_rich(&ctx, &with_attr, None).map(drop), "Attrs");
        corrupt(any_match_rich(&ctx, &with_attr, None, 3).map(drop), "Attrs");
        store.put(ATTRS, &t2, &attrs_row).unwrap();

        // A torn Seq row fails every evaluation, classic ANY MATCH included.
        let seq_row = store.get(SEQ, &t2).unwrap();
        store.put(SEQ, &t2, &seq_row[..seq_row.len() - 5]).unwrap();
        corrupt(detect_rich(&ctx, &plain, None).map(drop), "Seq");
        corrupt(detect_rich(&ctx, &with_attr, Some(100)).map(drop), "Seq");
        corrupt(any_match_rich(&ctx, &plain, Some(100), 3).map(drop), "Seq");
        let acts =
            seqdet_log::Pattern::new(vec![plain.elems()[0].activity, plain.elems()[2].activity]);
        corrupt(crate::anymatch::detect_any_match(&ctx, &acts, 3).map(drop), "Seq");
    }

    /// An evaluator over in-memory rows (the `load` path minus the store).
    fn evaluator<'p>(
        elems: &'p [PatternElem],
        within: Option<Ts>,
        events: &[Event],
        attrs: &[AttrEntry],
    ) -> Evaluator<'p> {
        let mut eval = Evaluator::new(elems, within);
        eval.trace.events = events.to_vec();
        eval.trace.attrs = attrs.to_vec();
        eval.index();
        eval
    }

    fn run(acts: &[(u32, usize)]) -> Vec<Event> {
        let mut events = Vec::new();
        for &(a, n) in acts {
            for _ in 0..n {
                events.push(Event::new(Activity(a), events.len() as Ts + 1));
            }
        }
        events
    }

    #[test]
    fn three_runs_of_three_hundred_count_in_closed_form() {
        // A B C ANY MATCH over 300 A, then 300 B, then 300 C: every triple
        // is an embedding, 300³ of them.
        let events = run(&[(0, 300), (1, 300), (2, 300)]);
        let elems: Vec<PatternElem> = (0..3).map(|a| PatternElem::plain(Activity(a))).collect();
        let mut eval = evaluator(&elems, None, &events, &[]);
        assert_eq!(eval.count(), 300 * 300 * 300);
        assert_eq!(eval.enumerate(2), vec![vec![1, 301, 601], vec![1, 301, 602]]);
        // The same count through the per-first-anchor program of WITHIN.
        let mut eval = evaluator(&elems, Some(900), &events, &[]);
        assert_eq!(eval.count(), 300 * 300 * 300);
        let mut detected = Vec::new();
        eval.detect(|m| detected.push(m));
        assert_eq!(detected, vec![vec![1, 301, 601]]);
    }

    #[test]
    fn counts_saturate_at_u64_max() {
        // Eight plain elements over eight runs of 300: 300⁸ ≈ 6.6e19
        // assignments, past u64::MAX ≈ 1.8e19.
        let runs: Vec<(u32, usize)> = (0..8).map(|a| (a, 300)).collect();
        let events = run(&runs);
        let elems: Vec<PatternElem> = (0..8).map(|a| PatternElem::plain(Activity(a))).collect();
        assert_eq!(evaluator(&elems, None, &events, &[]).count(), u64::MAX);
        assert_eq!(evaluator(&elems, Some(10_000), &events, &[]).count(), u64::MAX);
        // One run short of saturation stays exact: 300⁷ ≈ 2.2e17.
        assert_eq!(evaluator(&elems[..7], None, &events, &[]).count(), 300u64.pow(7));
    }

    /// The backtracking verifier the evaluator replaced: the semantics of
    /// [`seqdet_log::richpat`] stated as directly as possible, exponential
    /// on some shapes. The reference the property below compares against.
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
            elems: &'p [PatternElem],
            events: &'e [Event],
            attrs: &'e [AttrEntry],
            within: Option<Ts>,
        ) -> Self {
            let positives =
                elems.iter().enumerate().filter(|(_, e)| !e.negated).map(|(i, _)| i).collect();
            Self { elems, positives, events, attrs, within }
        }

        /// Attribute value of the event at `ts`, by binary search on the
        /// ts-sorted row (an event's attributes are adjacent within it).
        fn attr_of(&self, ts: Ts, key: Attr) -> Option<i64> {
            let start = self.attrs.partition_point(|&(t, _, _)| t < ts);
            self.attrs[start..]
                .iter()
                .take_while(|&&(t, _, _)| t == ts)
                .find(|&&(_, k, _)| k == key)
                .map(|&(_, _, v)| v)
        }

        fn matches_elem(&self, elem_idx: usize, ev_idx: usize) -> bool {
            let (elem, ev) = (&self.elems[elem_idx], &self.events[ev_idx]);
            elem.event_matches(ev.activity, ev.ts, |a| self.attr_of(ev.ts, a))
        }

        /// Where the forbidden zone after the positive element `elem_idx`
        /// (anchored at `lo`, next anchor at `hi`) starts: the last event
        /// absorbed by a Kleene element, or the anchor itself otherwise.
        fn zone_start(&self, elem_idx: usize, lo: usize, hi: usize) -> usize {
            if !self.elems[elem_idx].kleene {
                return lo;
            }
            (lo + 1..hi).rev().find(|&i| self.matches_elem(elem_idx, i)).unwrap_or(lo)
        }

        /// Are all negated elements between positive `k-1` and positive
        /// `k` satisfied for the anchor placement `(prev, next)`?
        fn gap_ok(&self, k: usize, prev: usize, next: usize) -> bool {
            let (prev_elem, next_elem) = (self.positives[k - 1], self.positives[k]);
            let lo = self.zone_start(prev_elem, prev, next);
            (prev_elem + 1..next_elem).all(|n| (lo + 1..next).all(|i| !self.matches_elem(n, i)))
        }

        /// Is the anchor-span window exceeded by extending to event `j`?
        fn window_exceeded(&self, anchors: &[usize], j: usize) -> bool {
            self.within
                .is_some_and(|w| self.events[j].ts.saturating_sub(self.events[anchors[0]].ts) > w)
        }

        fn timestamps(&self, anchors: &[usize]) -> Vec<Ts> {
            anchors.iter().map(|&i| self.events[i].ts).collect()
        }

        fn detect(&self) -> Vec<Vec<Ts>> {
            let mut out = Vec::new();
            let mut start = 0;
            loop {
                let mut anchors = Vec::new();
                if !self.search(0, start, &mut anchors) {
                    return out;
                }
                start = anchors.last().unwrap() + 1;
                out.push(self.timestamps(&anchors));
            }
        }

        /// Lexicographically smallest valid anchor vector with
        /// `anchors[0] >= from`; `true` when one exists (left in `anchors`).
        fn search(&self, k: usize, from: usize, anchors: &mut Vec<usize>) -> bool {
            for j in from..self.events.len() {
                if !self.matches_elem(self.positives[k], j) {
                    continue;
                }
                if k > 0 {
                    if self.window_exceeded(anchors, j) {
                        return false;
                    }
                    if !self.gap_ok(k, *anchors.last().unwrap(), j) {
                        continue;
                    }
                }
                anchors.push(j);
                if k + 1 == self.positives.len() || self.search(k + 1, j + 1, anchors) {
                    return true;
                }
                anchors.pop();
            }
            false
        }

        /// Count every valid anchor assignment and collect the first
        /// `limit`, in lexicographic anchor order.
        fn enumerate(&self, limit: usize) -> (u64, Vec<Vec<Ts>>) {
            let mut count = 0;
            let mut examples = Vec::new();
            self.enum_rec(0, 0, &mut Vec::new(), &mut count, &mut examples, limit);
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
            for j in from..self.events.len() {
                if !self.matches_elem(self.positives[k], j) {
                    continue;
                }
                if k > 0 {
                    if self.window_exceeded(anchors, j) {
                        return;
                    }
                    if !self.gap_ok(k, *anchors.last().unwrap(), j) {
                        continue;
                    }
                }
                anchors.push(j);
                if k + 1 == self.positives.len() {
                    *count += 1;
                    if examples.len() < limit {
                        examples.push(self.timestamps(anchors));
                    }
                } else {
                    self.enum_rec(k + 1, j + 1, anchors, count, examples, limit);
                }
                anchors.pop();
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Decode a predicate code: 1..=6 = `amount <op> 4` over the six
        /// operators, 7 = `region = 1` (an attribute most events lack),
        /// 8..=9 = timestamp predicates, anything else = none.
        fn pred_of(code: u32) -> Option<Predicate> {
            let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
            let (key, op, value) = match code {
                1..=6 => (PredKey::Attr(Attr(0)), ops[(code - 1) as usize], 4),
                7 => (PredKey::Attr(Attr(1)), CmpOp::Eq, 1),
                8 => (PredKey::Ts, CmpOp::Ge, 6),
                9 => (PredKey::Ts, CmpOp::Le, 30),
                _ => return None,
            };
            Some(Predicate { key, op, value })
        }

        /// Events over activities `0..3` with strictly increasing
        /// timestamps (gaps of 1..=3, so windows cut unevenly), and their
        /// `Attrs` row: `amount` (attr 0) on some events, `region` (attr 1)
        /// on fewer.
        fn arb_trace() -> impl Strategy<Value = (Vec<Event>, Vec<AttrEntry>)> {
            prop::collection::vec((0u32..3, 1u64..4, 0i64..9, 0i64..3), 0..32).prop_map(|v| {
                let (mut events, mut attrs, mut ts) = (Vec::new(), Vec::new(), 0);
                for (a, gap, amount, region) in v {
                    ts += gap;
                    events.push(Event::new(Activity(a), ts));
                    if amount > 0 {
                        attrs.push((ts, Attr(0), amount));
                    }
                    if region > 1 {
                        attrs.push((ts, Attr(1), region - 1));
                    }
                }
                (events, attrs)
            })
        }

        /// Patterns of one to five elements with Kleene, negation (several
        /// in one gap when drawn adjacent) and predicates; shapes the
        /// validator rejects are dropped.
        fn arb_pattern() -> impl Strategy<Value = Vec<PatternElem>> {
            prop::collection::vec((0u32..3, 0u32..4, 0u32..20, 0u32..40), 1..6).prop_map(|v| {
                let last = v.len() - 1;
                v.into_iter()
                    .enumerate()
                    .map(|(i, (a, kind, p1, p2))| PatternElem {
                        activity: Activity(a),
                        negated: kind >= 2 && i != 0 && i != last,
                        kleene: kind == 1,
                        preds: [p1, p2].into_iter().filter_map(pred_of).collect(),
                    })
                    .map(|e| PatternElem { kleene: e.kleene && !e.negated, ..e })
                    .collect()
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn evaluator_equals_backtracking_reference(
                (events, attrs) in arb_trace(),
                elems in arb_pattern(),
                within_raw in 0u64..20,
                limit in 0usize..6,
            ) {
                let Ok(pattern) = RichPattern::new(elems) else { return Ok(()) };
                let within = within_raw.checked_sub(1);
                let reference = Verifier::new(pattern.elems(), &events, &attrs, within);
                let mut eval = evaluator(pattern.elems(), within, &events, &attrs);
                let mut detected = Vec::new();
                eval.detect(|m| detected.push(m));
                prop_assert_eq!(detected, reference.detect());
                let (count, examples) = reference.enumerate(limit);
                prop_assert_eq!(eval.count(), count);
                prop_assert_eq!(eval.enumerate(limit), examples);
            }
        }
    }
}
