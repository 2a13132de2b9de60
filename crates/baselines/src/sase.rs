//! SASE-style NFA evaluation — the no-preprocessing baseline of Table 8.
//!
//! SASE [30, 34] compiles a sequential pattern into an NFA and runs it over
//! the event stream. For the paper's offline setting that means: every query
//! scans the *entire* log, advancing one automaton instance per trace. No
//! index, no build phase — and therefore the per-query cost grows linearly
//! with log size, which is the degradation Table 8 demonstrates on
//! `bpi_2017`/`max_10000`.
//!
//! Match semantics follow the paper's §2.1 definitions: under STNM the
//! automaton skips non-matching events and emits greedy non-overlapping
//! completions (the AAB-over-AAABAACB example yields exactly (1,2,4) and
//! (5,6,8)); under SC every window of consecutive events is tested.

use seqdet_log::{
    Attr, AttrEntry, Event, EventLog, Pattern, PatternElem, RichPattern, TraceId, Ts,
};

/// One pattern completion found by the scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NfaMatch {
    /// Trace the completion occurred in.
    pub trace: TraceId,
    /// Timestamps of the matched events.
    pub timestamps: Vec<Ts>,
}

/// The scan engine. Holds only a borrowed view of the log — there is, by
/// design, no preprocessing to pay for or benefit from.
pub struct SaseEngine<'a> {
    log: &'a EventLog,
}

impl<'a> SaseEngine<'a> {
    /// Wrap a log. O(1).
    pub fn new(log: &'a EventLog) -> Self {
        Self { log }
    }

    /// Skip-till-next-match evaluation: greedy non-overlapping runs of the
    /// automaton per trace.
    pub fn detect_stnm(&self, pattern: &Pattern) -> Vec<NfaMatch> {
        let acts = pattern.activities();
        let mut out = Vec::new();
        if acts.is_empty() {
            return out;
        }
        for trace in self.log.traces() {
            // NFA state: next pattern symbol to match + partial timestamps.
            let mut state = 0usize;
            let mut partial: Vec<Ts> = Vec::with_capacity(acts.len());
            for ev in trace.events() {
                if ev.activity == acts[state] {
                    partial.push(ev.ts);
                    state += 1;
                    if state == acts.len() {
                        out.push(NfaMatch { trace: trace.id(), timestamps: partial.clone() });
                        partial.clear();
                        state = 0;
                    }
                }
            }
        }
        out
    }

    /// Strict-contiguity evaluation: window scan per trace, reporting every
    /// (possibly overlapping) contiguous occurrence.
    pub fn detect_sc(&self, pattern: &Pattern) -> Vec<NfaMatch> {
        let acts = pattern.activities();
        let mut out = Vec::new();
        if acts.is_empty() {
            return out;
        }
        for trace in self.log.traces() {
            let events = trace.events();
            if events.len() < acts.len() {
                continue;
            }
            for w in events.windows(acts.len()) {
                if w.iter().map(|e| e.activity).eq(acts.iter().copied()) {
                    out.push(NfaMatch {
                        trace: trace.id(),
                        timestamps: w.iter().map(|e| e.ts).collect(),
                    });
                }
            }
        }
        out
    }

    /// SASE's actual evaluation model: a *run* is spawned at **every**
    /// occurrence of the pattern's first symbol, and each run then advances
    /// with skip-till-next-match semantics independently (NFA^b with match
    /// buffers). This returns possibly overlapping matches (one per
    /// initiating event that completes) and is the cost model behind the
    /// paper's Table-8 SASE timings: frequent first symbols spawn many
    /// simultaneous runs, each touching every subsequent event.
    pub fn detect_runs(&self, pattern: &Pattern) -> Vec<NfaMatch> {
        let acts = pattern.activities();
        let mut out = Vec::new();
        if acts.is_empty() {
            return out;
        }
        for trace in self.log.traces() {
            // Active runs: (next pattern index, partial timestamps).
            let mut runs: Vec<(usize, Vec<Ts>)> = Vec::new();
            for ev in trace.events() {
                // Advance every active run whose next symbol matches.
                let mut i = 0;
                while i < runs.len() {
                    if ev.activity == acts[runs[i].0] {
                        runs[i].0 += 1;
                        runs[i].1.push(ev.ts);
                        if runs[i].0 == acts.len() {
                            let (_, timestamps) = runs.swap_remove(i);
                            out.push(NfaMatch { trace: trace.id(), timestamps });
                            continue; // don't advance i — swapped element
                        }
                    }
                    i += 1;
                }
                // Spawn a new run at every first-symbol occurrence.
                if ev.activity == acts[0] {
                    runs.push((1, vec![ev.ts]));
                    if acts.len() == 1 {
                        let (_, timestamps) = runs.pop().expect("just pushed");
                        out.push(NfaMatch { trace: trace.id(), timestamps });
                    }
                }
            }
        }
        out
    }

    /// Distinct traces containing at least one STNM completion.
    pub fn traces_stnm(&self, pattern: &Pattern) -> Vec<TraceId> {
        let mut t: Vec<TraceId> = self.detect_stnm(pattern).into_iter().map(|m| m.trace).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Rich-pattern evaluation (Kleene `+`, negation `!`, `WITHIN`,
    /// attribute predicates) by full scan — the semantic oracle for the
    /// index-backed verifier. Greedy non-overlapping canonical matches per
    /// trace, anchor timestamps only; see `seqdet_log::richpat` for the
    /// exact semantics both implementations follow.
    pub fn detect_rich(&self, pattern: &RichPattern, within: Option<Ts>) -> Vec<NfaMatch> {
        let mut out = Vec::new();
        for trace in self.log.traces() {
            let scan =
                RichScan::new(pattern, trace.events(), self.log.trace_attrs(trace.id()), within);
            let mut start = 0usize;
            while let Some(anchors) = scan.first_match(start) {
                start = anchors.last().copied().unwrap_or(start) + 1;
                out.push(NfaMatch {
                    trace: trace.id(),
                    timestamps: anchors.iter().map(|&i| trace.events()[i].ts).collect(),
                });
            }
        }
        out
    }

    /// Rich-pattern any-match evaluation: per trace, the exact number of
    /// distinct valid anchor assignments (saturating) plus the first
    /// `limit` of them in lexicographic anchor order.
    pub fn any_match_rich(
        &self,
        pattern: &RichPattern,
        within: Option<Ts>,
        limit: usize,
    ) -> Vec<RichTraceMatches> {
        let mut out = Vec::new();
        for trace in self.log.traces() {
            let scan =
                RichScan::new(pattern, trace.events(), self.log.trace_attrs(trace.id()), within);
            let (count, examples) = scan.enumerate(limit);
            if count > 0 {
                out.push(RichTraceMatches { trace: trace.id(), count, examples });
            }
        }
        out
    }
}

/// Per-trace result of [`SaseEngine::any_match_rich`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RichTraceMatches {
    /// The trace.
    pub trace: TraceId,
    /// Number of distinct anchor assignments (saturating at `u64::MAX`).
    pub count: u64,
    /// The first few matches, lexicographic by anchor position.
    pub examples: Vec<Vec<Ts>>,
}

/// The oracle's event-by-event backtracking matcher over one trace. Kept
/// deliberately naive — zones and Kleene absorption are recomputed by
/// scanning on every probe — so it shares no structure with the
/// position-list evaluator in `seqdet-query`.
struct RichScan<'p, 'e> {
    elems: &'p [PatternElem],
    /// Indices into `elems` of the positive elements, in order.
    positives: Vec<usize>,
    events: &'e [Event],
    attrs: &'e [AttrEntry],
    within: Option<Ts>,
}

impl<'p, 'e> RichScan<'p, 'e> {
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

    fn attr_of(&self, ts: Ts, key: Attr) -> Option<i64> {
        self.attrs.iter().find(|&&(t, k, _)| t == ts && k == key).map(|&(_, _, v)| v)
    }

    fn matches_elem(&self, elem_idx: usize, ev_idx: usize) -> bool {
        let ev = &self.events[ev_idx];
        self.elems[elem_idx].event_matches(ev.activity, ev.ts, |a| self.attr_of(ev.ts, a))
    }

    /// Where the forbidden zone after positive `pidx` (anchored at `lo`,
    /// next anchor at `hi`) starts: the last event absorbed by a Kleene
    /// element, or the anchor itself otherwise.
    fn zone_start(&self, pidx: usize, lo: usize, hi: usize) -> usize {
        if !self.elems[pidx].kleene {
            return lo;
        }
        let mut last = lo;
        for i in lo + 1..hi {
            if self.matches_elem(pidx, i) {
                last = i;
            }
        }
        last
    }

    /// Are all negated elements between positive `k-1` and positive `k`
    /// satisfied for the anchor placement `(prev_anchor, next_anchor)`?
    fn gap_ok(&self, k: usize, prev_anchor: usize, next_anchor: usize) -> bool {
        let lo = self.zone_start(self.positives[k - 1], prev_anchor, next_anchor);
        for n in self.positives[k - 1] + 1..self.positives[k] {
            for i in lo + 1..next_anchor {
                if self.matches_elem(n, i) {
                    return false;
                }
            }
        }
        true
    }

    /// Lexicographically smallest anchor vector with `anchors[0] >= start`.
    fn first_match(&self, start: usize) -> Option<Vec<usize>> {
        let mut anchors = Vec::with_capacity(self.positives.len());
        self.search(0, start, &mut anchors).then_some(anchors)
    }

    fn search(&self, k: usize, from: usize, anchors: &mut Vec<usize>) -> bool {
        for j in from..self.events.len() {
            if !self.matches_elem(self.positives[k], j) {
                continue;
            }
            if k > 0 {
                if let Some(w) = self.within {
                    // Timestamps grow with j: every later candidate is
                    // outside the window too.
                    if self.events[j].ts - self.events[anchors[0]].ts > w {
                        return false;
                    }
                }
                // A violated zone does NOT rule out later anchors: a Kleene
                // absorber between them can move the zone start forward.
                if !self.gap_ok(k, anchors[k - 1], j) {
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
    /// first `limit` as timestamp vectors.
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
        for j in from..self.events.len() {
            if !self.matches_elem(self.positives[k], j) {
                continue;
            }
            if k > 0 {
                if let Some(w) = self.within {
                    if self.events[j].ts - self.events[anchors[0]].ts > w {
                        return;
                    }
                }
                if !self.gap_ok(k, anchors[k - 1], j) {
                    continue;
                }
            }
            anchors.push(j);
            if k + 1 == self.positives.len() {
                *count = count.saturating_add(1);
                if examples.len() < limit {
                    examples.push(anchors.iter().map(|&i| self.events[i].ts).collect());
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
    use seqdet_log::EventLogBuilder;

    fn paper_log() -> EventLog {
        let mut b = EventLogBuilder::new();
        for (i, a) in "AAABAACB".chars().enumerate() {
            b.add("t", &a.to_string(), i as u64 + 1);
        }
        b.build()
    }

    fn pat(l: &EventLog, names: &[&str]) -> Pattern {
        Pattern::from_log(l, names).unwrap()
    }

    #[test]
    fn paper_example_stnm() {
        // §2.1: STNM detects AAB at (1,2,4) and (5,6,8).
        let l = paper_log();
        let e = SaseEngine::new(&l);
        let m = e.detect_stnm(&pat(&l, &["A", "A", "B"]));
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].timestamps, vec![1, 2, 4]);
        assert_eq!(m[1].timestamps, vec![5, 6, 8]);
    }

    #[test]
    fn paper_example_sc() {
        // §2.1: SC detects AAB starting at the 2nd position only.
        let l = paper_log();
        let e = SaseEngine::new(&l);
        let m = e.detect_sc(&pat(&l, &["A", "A", "B"]));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].timestamps, vec![2, 3, 4]);
    }

    #[test]
    fn sc_reports_overlapping_windows() {
        let mut b = EventLogBuilder::new();
        for (i, a) in "AAA".chars().enumerate() {
            b.add("t", &a.to_string(), i as u64 + 1);
        }
        let l = b.build();
        let e = SaseEngine::new(&l);
        assert_eq!(e.detect_sc(&pat(&l, &["A", "A"])).len(), 2);
    }

    #[test]
    fn stnm_across_traces() {
        let mut b = EventLogBuilder::new();
        b.add("t1", "A", 1).add("t1", "B", 2);
        b.add("t2", "B", 1).add("t2", "A", 2);
        b.add("t3", "A", 1).add("t3", "C", 2).add("t3", "B", 3);
        let l = b.build();
        let e = SaseEngine::new(&l);
        let p = pat(&l, &["A", "B"]);
        assert_eq!(e.detect_stnm(&p).len(), 2);
        assert_eq!(e.traces_stnm(&p).len(), 2);
    }

    #[test]
    fn run_model_reports_one_match_per_initiating_event() {
        let mut b = EventLogBuilder::new();
        b.add("t", "A", 1).add("t", "A", 2).add("t", "B", 3);
        let l = b.build();
        let e = SaseEngine::new(&l);
        let p = pat(&l, &["A", "B"]);
        // Greedy non-overlapping: one match. Run model: two (from A@1, A@2).
        assert_eq!(e.detect_stnm(&p).len(), 1);
        let mut runs = e.detect_runs(&p);
        runs.sort_by_key(|m| m.timestamps.clone());
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].timestamps, vec![1, 3]);
        assert_eq!(runs[1].timestamps, vec![2, 3]);
    }

    #[test]
    fn run_model_on_paper_example() {
        let l = paper_log();
        let e = SaseEngine::new(&l);
        let m = e.detect_runs(&pat(&l, &["A", "A", "B"]));
        // Runs from A@1, A@2, A@3, A@5 complete; A@6's run never does.
        assert_eq!(m.len(), 4);
        assert!(m.iter().any(|x| x.timestamps == vec![1, 2, 4]));
        assert!(m.iter().any(|x| x.timestamps == vec![5, 6, 8]));
    }

    #[test]
    fn run_model_single_symbol_counts_occurrences() {
        let l = paper_log();
        let e = SaseEngine::new(&l);
        assert_eq!(e.detect_runs(&pat(&l, &["A"])).len(), 5);
    }

    fn rich(l: &EventLog, spec: &[(&str, bool, bool)]) -> RichPattern {
        // (name, negated, kleene)
        RichPattern::new(
            spec.iter()
                .map(|&(n, negated, kleene)| PatternElem {
                    activity: l.activity(n).unwrap(),
                    negated,
                    kleene,
                    preds: vec![],
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn rich_plain_pattern_matches_stnm() {
        let l = paper_log();
        let e = SaseEngine::new(&l);
        let p = rich(&l, &[("A", false, false), ("A", false, false), ("B", false, false)]);
        let m = e.detect_rich(&p, None);
        let stnm = e.detect_stnm(&pat(&l, &["A", "A", "B"]));
        assert_eq!(m, stnm);
    }

    #[test]
    fn rich_kleene_absorbs_between_anchors() {
        let mut b = EventLogBuilder::new();
        for (a, ts) in [("A", 1), ("B", 2), ("B", 3), ("B", 4), ("D", 5), ("B", 6), ("D", 7)] {
            b.add("t", a, ts);
        }
        let l = b.build();
        let e = SaseEngine::new(&l);
        // A B+ D: anchors are A@1, B@2 (first B), D@5; B@3, B@4 absorbed.
        let p = rich(&l, &[("A", false, false), ("B", false, true), ("D", false, false)]);
        let m = e.detect_rich(&p, None);
        assert_eq!(m.len(), 1, "B@6 D@7 must not rematch: no A remains");
        assert_eq!(m[0].timestamps, vec![1, 2, 5]);
    }

    #[test]
    fn rich_negation_zone_respects_kleene_absorption() {
        // The WITHIN x negation worked example from the docs: C@3 sits
        // between the B+ anchor (B@2) and the last absorbed B (B@4), so it
        // is OUTSIDE the forbidden zone (which starts after B@4).
        let mut b = EventLogBuilder::new();
        for (a, ts) in [("A", 1), ("B", 2), ("C", 3), ("B", 4), ("D", 5)] {
            b.add("t", a, ts);
        }
        let l = b.build();
        let e = SaseEngine::new(&l);
        let p = rich(
            &l,
            &[("A", false, false), ("B", false, true), ("C", true, false), ("D", false, false)],
        );
        let m = e.detect_rich(&p, None);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].timestamps, vec![1, 2, 5]);
        // Without Kleene on B, the zone starts right after the B anchor and
        // C@3 kills the match… but backtracking resurrects it with B@4 as
        // the anchor (C@3 is then before the anchor, not in the gap).
        let p2 = rich(
            &l,
            &[("A", false, false), ("B", false, false), ("C", true, false), ("D", false, false)],
        );
        let m2 = e.detect_rich(&p2, None);
        assert_eq!(m2.len(), 1);
        assert_eq!(m2[0].timestamps, vec![1, 4, 5]);
    }

    #[test]
    fn rich_negation_requires_backtracking() {
        // Greedy-earliest anchors A@1 -> B@4 and dies on C@2; the canonical
        // match anchors the later A@3 instead.
        let mut b = EventLogBuilder::new();
        for (a, ts) in [("A", 1), ("C", 2), ("A", 3), ("B", 4)] {
            b.add("t", a, ts);
        }
        let l = b.build();
        let e = SaseEngine::new(&l);
        let p = rich(&l, &[("A", false, false), ("C", true, false), ("B", false, false)]);
        let m = e.detect_rich(&p, None);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].timestamps, vec![3, 4]);
    }

    #[test]
    fn rich_within_bounds_anchor_span() {
        let mut b = EventLogBuilder::new();
        for (a, ts) in [("A", 1), ("A", 8), ("B", 10)] {
            b.add("t", a, ts);
        }
        let l = b.build();
        let e = SaseEngine::new(&l);
        let p = rich(&l, &[("A", false, false), ("B", false, false)]);
        assert_eq!(e.detect_rich(&p, None)[0].timestamps, vec![1, 10]);
        // Window 5 excludes the A@1 start; A@8 B@10 fits.
        let m = e.detect_rich(&p, Some(5));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].timestamps, vec![8, 10]);
        assert!(e.detect_rich(&p, Some(1)).is_empty());
    }

    #[test]
    fn rich_predicates_filter_events() {
        let mut b = EventLogBuilder::new();
        b.add("t", "A", 1).attr("amount", 50);
        b.add("t", "A", 2).attr("amount", 150);
        b.add("t", "B", 3);
        let l = b.build();
        let e = SaseEngine::new(&l);
        let amount = l.attr("amount").unwrap();
        let p = RichPattern::new(vec![
            PatternElem {
                activity: l.activity("A").unwrap(),
                negated: false,
                kleene: false,
                preds: vec![seqdet_log::Predicate {
                    key: seqdet_log::PredKey::Attr(amount),
                    op: seqdet_log::CmpOp::Gt,
                    value: 100,
                }],
            },
            PatternElem::plain(l.activity("B").unwrap()),
        ])
        .unwrap();
        let m = e.detect_rich(&p, None);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].timestamps, vec![2, 3]);
        // B carries no amount attr: a predicate on B never matches.
        let p2 = RichPattern::new(vec![
            PatternElem::plain(l.activity("A").unwrap()),
            PatternElem {
                activity: l.activity("B").unwrap(),
                negated: false,
                kleene: false,
                preds: vec![seqdet_log::Predicate {
                    key: seqdet_log::PredKey::Attr(amount),
                    op: seqdet_log::CmpOp::Ne,
                    value: 0,
                }],
            },
        ])
        .unwrap();
        assert!(e.detect_rich(&p2, None).is_empty());
    }

    #[test]
    fn rich_any_match_counts_all_assignments() {
        let mut b = EventLogBuilder::new();
        for (a, ts) in [("A", 1), ("A", 2), ("A", 3), ("B", 4)] {
            b.add("t", a, ts);
        }
        let l = b.build();
        let e = SaseEngine::new(&l);
        // A+ B: any of the three As can anchor (later As are absorbed).
        let p = rich(&l, &[("A", false, true), ("B", false, false)]);
        let r = e.any_match_rich(&p, None, 2);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].count, 3);
        assert_eq!(r[0].examples, vec![vec![1, 4], vec![2, 4]]);
        // Trailing Kleene absorbs nothing: A B+ == A B, 3 assignments.
        let p2 = rich(&l, &[("A", false, false), ("B", false, true)]);
        assert_eq!(e.any_match_rich(&p2, None, 0)[0].count, 3);
    }

    #[test]
    fn empty_pattern_and_short_traces() {
        let l = paper_log();
        let e = SaseEngine::new(&l);
        assert!(e.detect_stnm(&Pattern::new(vec![])).is_empty());
        assert!(e.detect_sc(&Pattern::new(vec![])).is_empty());
        // Pattern longer than the trace.
        let long = pat(&l, &["A", "A", "A", "A", "A", "A", "A", "A", "A"]);
        assert!(e.detect_sc(&long).is_empty());
    }
}
