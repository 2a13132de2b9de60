//! Differential semantics suite for the rich pattern operators.
//!
//! The index-based engine evaluates `A B+ !C D[amount > 100] WITHIN w`
//! through candidate pruning (skeleton pair postings) plus a per-trace
//! evaluator over per-element position lists; the SASE baseline evaluates
//! the same pattern by a deliberately naive event-by-event scan that
//! shares no code with the engine. Both implement the normative semantics written down in
//! `seqdet_log::richpat` — so on random logs and random patterns they must
//! agree *exactly*, on both `DETECT` (greedy non-overlapping canonical
//! matches) and `ANY MATCH` (distinct-assignment counts plus the first
//! `limit` examples).
//!
//! The vendored proptest has no regression persistence, so every
//! counterexample class the generators have caught is additionally pinned
//! as a deterministic test at the bottom (backtracking, WITHIN × negation,
//! Kleene absorption interplay, and a plain `WITHIN` statement that has to
//! skip past a greedy pair too wide for its window).
//!
//! Plain `DETECT … WITHIN` statements run on the same evaluator, so the
//! query-language path is held to the oracle as well.

use proptest::prelude::*;
use seqdet::prelude::*;
use seqdet_baselines::SaseEngine;
use seqdet_log::{CmpOp, PatternElem, PredKey, Predicate, RichPattern};
use seqdet_query::{QueryEngine, QueryError};
use seqdet_storage::MemStore;

/// One generated event: (activity 0..5, attr code: 0 = no attr,
/// 1..=8 = `amount` with that value).
type TraceSpec = Vec<(u32, u32)>;

/// One generated element: (activity 0..5, kind 0 = plain / 1 = Kleene /
/// 2 = negated, predicate code — see [`pred_of`]).
type ElemGen = (u32, u32, u32);

fn build_log(traces: &[TraceSpec]) -> EventLog {
    let mut b = EventLogBuilder::new();
    for (t, events) in traces.iter().enumerate() {
        let name = format!("t{t}");
        for (i, &(a, attr)) in events.iter().enumerate() {
            b.add(&name, &format!("a{a}"), i as u64 + 1);
            if attr > 0 {
                b.attr("amount", attr as i64);
            }
        }
    }
    b.build()
}

/// Decode a predicate code: 0 = none, 1..=6 = `amount <op> 4` over the six
/// comparison operators, 7..=9 = timestamp predicates.
fn pred_of(code: u32) -> Option<(bool, CmpOp, i64)> {
    let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    match code {
        0 => None,
        1..=6 => Some((false, ops[(code - 1) as usize], 4)),
        7 => Some((true, CmpOp::Ge, 3)),
        8 => Some((true, CmpOp::Le, 10)),
        _ => Some((true, CmpOp::Ne, 5)),
    }
}

/// Normalise a generated element list into a structurally valid pattern
/// shape: first and last element positive, negation never Kleene.
fn normalise(elems: &[ElemGen]) -> Vec<(u32, bool, bool, u32)> {
    let last = elems.len() - 1;
    elems
        .iter()
        .enumerate()
        .map(|(i, &(a, kind, pred))| {
            let negated = kind == 2 && i != 0 && i != last;
            let kleene = kind == 1 && !negated;
            (a, negated, kleene, pred)
        })
        .collect()
}

/// Resolve the normalised shape against an arbitrary pair of name-lookup
/// functions (the log's interner for the oracle, the engine's catalog for
/// the index path). `None` if any name is absent from that side.
fn resolve(
    shape: &[(u32, bool, bool, u32)],
    activity: impl Fn(&str) -> Option<seqdet_log::Activity>,
    attr: impl Fn(&str) -> Option<seqdet_log::Attr>,
) -> Option<RichPattern> {
    let mut elems = Vec::with_capacity(shape.len());
    for &(a, negated, kleene, pred) in shape {
        let act = activity(&format!("a{a}"))?;
        let mut preds = Vec::new();
        if let Some((is_ts, op, value)) = pred_of(pred) {
            let key = if is_ts { PredKey::Ts } else { PredKey::Attr(attr("amount")?) };
            preds.push(Predicate { key, op, value });
        }
        elems.push(PatternElem { activity: act, negated, kleene, preds });
    }
    RichPattern::new(elems).ok()
}

fn stnm_engine(log: &EventLog) -> QueryEngine<MemStore> {
    let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
    ix.index_log(log).expect("valid log");
    QueryEngine::new(ix.store()).expect("indexed store")
}

fn arb_traces() -> impl Strategy<Value = Vec<TraceSpec>> {
    prop::collection::vec(prop::collection::vec((0u32..5, 0u32..9), 1..20), 1..10)
}

fn arb_elems() -> impl Strategy<Value = Vec<ElemGen>> {
    prop::collection::vec((0u32..5, 0u32..3, 0u32..10), 2..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rich_detect_agrees_with_sase_oracle(
        traces in arb_traces(),
        elems in arb_elems(),
        within_raw in 0u64..16,
    ) {
        let log = build_log(&traces);
        let shape = normalise(&elems);
        let within = (within_raw > 0).then_some(within_raw);
        // Membership is decided by the log on both sides; a name the log
        // has never seen is skipped consistently.
        let Some(oracle_pat) = resolve(&shape, |n| log.activity(n), |n| log.attr(n)) else {
            return Ok(());
        };
        let mut expected: Vec<(TraceId, Vec<Ts>)> = SaseEngine::new(&log)
            .detect_rich(&oracle_pat, within)
            .into_iter()
            .map(|m| (m.trace, m.timestamps))
            .collect();
        expected.sort();

        let engine = stnm_engine(&log);
        let catalog = engine.catalog();
        let pat = resolve(&shape, |n| catalog.activity(n), |n| catalog.attr(n))
            .expect("catalog covers the log");
        let result = engine.detect_rich(&pat, within).expect("detect runs");
        let mut got: Vec<(TraceId, Vec<Ts>)> =
            result.matches.iter().map(|m| (m.trace, m.timestamps.clone())).collect();
        got.sort();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn rich_any_match_agrees_with_sase_oracle(
        traces in arb_traces(),
        elems in arb_elems(),
        within_raw in 0u64..16,
        limit in 1usize..4,
    ) {
        let log = build_log(&traces);
        let shape = normalise(&elems);
        let within = (within_raw > 0).then_some(within_raw);
        let Some(oracle_pat) = resolve(&shape, |n| log.activity(n), |n| log.attr(n)) else {
            return Ok(());
        };
        let expected: Vec<(TraceId, u64, Vec<Vec<Ts>>)> = SaseEngine::new(&log)
            .any_match_rich(&oracle_pat, within, limit)
            .into_iter()
            .map(|m| (m.trace, m.count, m.examples))
            .collect();

        let engine = stnm_engine(&log);
        let catalog = engine.catalog();
        let pat = resolve(&shape, |n| catalog.activity(n), |n| catalog.attr(n))
            .expect("catalog covers the log");
        let result = engine.detect_rich_any(&pat, within, limit).expect("any-match runs");
        let got: Vec<(TraceId, u64, Vec<Vec<Ts>>)> =
            result.traces.iter().map(|m| (m.trace, m.count, m.examples.clone())).collect();
        prop_assert_eq!(got, expected, "limit {}", limit);
    }

    #[test]
    fn plain_within_statement_agrees_with_sase_oracle(
        traces in arb_traces(),
        acts in prop::collection::vec(0u32..5, 2..=4),
        within in 0u64..16,
    ) {
        let log = build_log(&traces);
        let names: Vec<String> = acts.iter().map(|a| format!("a{a}")).collect();
        let Some(ids) = names.iter().map(|n| log.activity(n)).collect::<Option<Vec<_>>>() else {
            return Ok(());
        };
        let oracle_pat = RichPattern::from_activities(&ids).expect("plain pattern");
        let mut expected: Vec<(TraceId, Vec<Ts>)> = SaseEngine::new(&log)
            .detect_rich(&oracle_pat, Some(within))
            .into_iter()
            .map(|m| (m.trace, m.timestamps))
            .collect();
        expected.sort();

        let engine = stnm_engine(&log);
        let statement = format!("DETECT {} WITHIN {within}", names.join(" -> "));
        let got = match seqdet_query::lang::run(&engine, &statement).expect("query runs") {
            seqdet_query::QueryOutput::Detection(r) => r,
            other => panic!("unexpected output {other:?}"),
        };
        let mut got: Vec<(TraceId, Vec<Ts>)> =
            got.matches.iter().map(|m| (m.trace, m.timestamps.clone())).collect();
        got.sort();
        prop_assert_eq!(got, expected, "{}", statement);
    }
}

// ---------------------------------------------------------------------------
// Deterministic pins (vendored proptest persists no regressions).
// ---------------------------------------------------------------------------

/// Build, index (STNM) and return the engine for a single trace.
fn engine_of(events: &[(&str, u64)]) -> QueryEngine<MemStore> {
    let mut b = EventLogBuilder::new();
    for &(a, ts) in events {
        b.add("t0", a, ts);
    }
    let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
    ix.index_log(&b.build()).expect("valid log");
    QueryEngine::new(ix.store()).expect("indexed store")
}

fn rich_of(engine: &QueryEngine<MemStore>, spec: &[(&str, bool, bool)]) -> RichPattern {
    let catalog = engine.catalog();
    RichPattern::new(
        spec.iter()
            .map(|&(name, negated, kleene)| PatternElem {
                activity: catalog.activity(name).expect("activity exists"),
                negated,
                kleene,
                preds: Vec::new(),
            })
            .collect(),
    )
    .expect("valid pattern")
}

/// WITHIN × negation: the forbidden zone lives *inside* the matched
/// window, so a forbidden event elsewhere in the trace must not poison a
/// later match. Whole-trace negation would find nothing here.
#[test]
fn within_negation_zone_is_window_local() {
    let e = engine_of(&[("A", 1), ("C", 2), ("A", 5), ("B", 6)]);
    let p = rich_of(&e, &[("A", false, false), ("C", true, false), ("B", false, false)]);
    let r = e.detect_rich(&p, Some(2)).expect("detect runs");
    assert_eq!(r.total_completions(), 1);
    assert_eq!(r.matches[0].timestamps, vec![5, 6]);
}

/// Negation forces backtracking past a poisoned anchor: greedy (A@1, B@4)
/// straddles C@2, the matcher must re-anchor at A@3.
#[test]
fn negation_requires_backtracking() {
    let e = engine_of(&[("A", 1), ("C", 2), ("A", 3), ("B", 4)]);
    let p = rich_of(&e, &[("A", false, false), ("C", true, false), ("B", false, false)]);
    let r = e.detect_rich(&p, None).expect("detect runs");
    assert_eq!(r.total_completions(), 1);
    assert_eq!(r.matches[0].timestamps, vec![3, 4]);
}

/// Kleene absorption moves the start of the following negation zone: the
/// C between the B-run's events stays forbidden, the one before the run's
/// last absorbed B does not.
#[test]
fn kleene_absorption_shifts_negation_zone() {
    let e = engine_of(&[("A", 1), ("B", 2), ("C", 3), ("B", 4), ("D", 5)]);
    let kleene = rich_of(
        &e,
        &[("A", false, false), ("B", false, true), ("C", true, false), ("D", false, false)],
    );
    let r = e.detect_rich(&kleene, None).expect("detect runs");
    assert_eq!(r.matches[0].timestamps, vec![1, 2, 5]);
    // Without Kleene the zone starts at the B anchor itself, so the
    // matcher has to backtrack to B@4 instead.
    let plain = rich_of(
        &e,
        &[("A", false, false), ("B", false, false), ("C", true, false), ("D", false, false)],
    );
    let r = e.detect_rich(&plain, None).expect("detect runs");
    assert_eq!(r.matches[0].timestamps, vec![1, 4, 5]);
}

/// A window is not a filter on the index's greedy pairs. In A@1 A@2 B@4
/// with window 2 the greedy pair (A@1, B@4) is too wide, and the match
/// that fits starts at the later A: plain `DETECT … WITHIN` finds (2,4),
/// as the rich matcher does.
#[test]
fn plain_within_takes_the_later_start() {
    let e = engine_of(&[("A", 1), ("A", 2), ("B", 4)]);
    let p = e.pattern(&["A", "B"]).expect("activities exist");
    assert_eq!(e.detect(&p).expect("detect runs").matches[0].timestamps, vec![1, 4]);
    match seqdet_query::lang::run(&e, "DETECT A -> B WITHIN 2").expect("query runs") {
        seqdet_query::QueryOutput::Detection(r) => {
            assert_eq!(r.total_completions(), 1);
            assert_eq!(r.matches[0].timestamps, vec![2, 4]);
        }
        other => panic!("unexpected output {other:?}"),
    }
    let rich = rich_of(&e, &[("A", false, false), ("B", false, false)]);
    let r = e.detect_rich(&rich, Some(2)).expect("detect runs");
    assert_eq!(r.matches[0].timestamps, vec![2, 4]);
}

/// Rich evaluation needs STNM pair postings for candidate soundness; an
/// SC-indexed store must refuse rather than under-report.
#[test]
fn sc_store_rejects_rich_patterns() {
    let mut b = EventLogBuilder::new();
    b.add("t0", "A", 1);
    b.add("t0", "B", 2);
    let mut ix = Indexer::new(IndexConfig::new(Policy::StrictContiguity));
    ix.index_log(&b.build()).expect("valid log");
    let e = QueryEngine::new(ix.store()).expect("indexed store");
    let p = rich_of(&e, &[("A", false, false), ("B", true, false), ("B", false, false)]);
    assert!(matches!(e.detect_rich(&p, None), Err(QueryError::InvalidPattern(_))));
    assert!(matches!(e.detect_rich_any(&p, None, 3), Err(QueryError::InvalidPattern(_))));
}

/// Any-match counts every distinct anchor assignment, not just the greedy
/// one: A+ B over A A A B has three assignments (Kleene absorption makes
/// them distinct anchor vectors of length 2).
#[test]
fn any_match_counts_distinct_assignments() {
    let e = engine_of(&[("A", 1), ("A", 2), ("A", 3), ("B", 4)]);
    let p = rich_of(&e, &[("A", false, true), ("B", false, false)]);
    let r = e.detect_rich_any(&p, None, 2).expect("any-match runs");
    assert_eq!(r.total(), 3);
    assert_eq!(r.traces[0].examples, vec![vec![1, 4], vec![2, 4]]);
}
