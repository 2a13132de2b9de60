//! Correctness inside the run: library answers against the scan baselines.
//!
//! The oracles are `seqdet_baselines::SaseEngine` over the in-memory log the
//! inputs were cut from — no index, no shared code with the engine. What
//! can be checked exactly is checked exactly (length-2 `DETECT`, every rich
//! pattern, `STATS` pair counts); for longer plain patterns the pairwise
//! join is only *sound* by design (it may miss completions the automaton
//! finds), so there every reported match must be a real embedding in its
//! trace and every reported trace must be one the automaton reports too.

use seqdet_baselines::SaseEngine;
use seqdet_core::Catalog;
use seqdet_log::{
    Activity, EventLog, Pattern, PatternElem, PredKey, Predicate, RichPattern, TraceId, Ts,
};
use seqdet_query::lang::{parse_query, ElemSpec, Query};
use seqdet_query::QueryOutput;
use std::collections::BTreeSet;

type NamedMatch = (String, Vec<Ts>);

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

fn activity(oracle: &EventLog, name: &str) -> Result<Activity, String> {
    oracle.activity(name).ok_or_else(|| format!("activity {name:?} is not in the oracle log"))
}

fn oracle_trace(oracle: &EventLog, id: TraceId) -> String {
    oracle.trace_name(id).unwrap_or("?").to_owned()
}

fn is_plain(e: &ElemSpec) -> bool {
    !e.negated && !e.kleene && e.preds.is_empty()
}

fn rich_pattern(oracle: &EventLog, elements: &[ElemSpec]) -> Result<RichPattern, String> {
    let mut elems = Vec::with_capacity(elements.len());
    for spec in elements {
        let mut preds = Vec::with_capacity(spec.preds.len());
        for p in &spec.preds {
            let key = if p.key == "ts" {
                PredKey::Ts
            } else {
                PredKey::Attr(
                    oracle
                        .attr(&p.key)
                        .ok_or_else(|| format!("attribute {:?} is not in the oracle log", p.key))?,
                )
            };
            preds.push(Predicate { key, op: p.op, value: p.value });
        }
        elems.push(PatternElem {
            activity: activity(oracle, &spec.name)?,
            negated: spec.negated,
            kleene: spec.kleene,
            preds,
        });
    }
    RichPattern::new(elems).map_err(|e| e.to_string())
}

/// Every reported match must be an embedding of `acts` in its trace:
/// strictly increasing timestamps, each carrying the right activity, and
/// spanning at most `within`.
fn check_embeddings(
    oracle: &EventLog,
    acts: &[Activity],
    within: Option<Ts>,
    matches: &[NamedMatch],
) -> Result<(), String> {
    for (trace, stamps) in matches {
        let events = oracle
            .trace_by_name(trace)
            .ok_or_else(|| format!("match in unknown trace {trace:?}"))?
            .events();
        if stamps.len() != acts.len() || !stamps.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!(
                "match {stamps:?} in {trace} is not an ordered {}-tuple",
                acts.len()
            ));
        }
        for (&ts, &act) in stamps.iter().zip(acts) {
            let found = events.binary_search_by_key(&ts, |e| e.ts).ok().map(|i| events[i].activity);
            if found != Some(act) {
                return Err(format!("match {stamps:?} in {trace}: wrong event at ts {ts}"));
            }
        }
        if let (Some(w), Some(first), Some(last)) = (within, stamps.first(), stamps.last()) {
            if last - first > w {
                return Err(format!("match {stamps:?} in {trace} spans more than {w}"));
            }
        }
    }
    Ok(())
}

/// Compare one library answer with the oracle's. `Ok` means it agrees (or
/// the statement has no oracle: `CONTINUE` and the classic `ANY MATCH`).
pub fn check_answer(
    oracle: &EventLog,
    catalog: &Catalog,
    statement: &str,
    output: &QueryOutput,
) -> Result<(), String> {
    let sase = SaseEngine::new(oracle);
    let trace_name = |t: TraceId| catalog.trace_name(t).unwrap_or("?").to_owned();
    match (parse_query(statement).map_err(|e| e.to_string())?, output) {
        (Query::Detect { elements, within, any_match: false, .. }, QueryOutput::Detection(r)) => {
            let got: Vec<NamedMatch> = sorted(
                r.matches.iter().map(|m| (trace_name(m.trace), m.timestamps.clone())).collect(),
            );
            if !elements.iter().all(is_plain) {
                let rp = rich_pattern(oracle, &elements)?;
                let want: Vec<NamedMatch> = sorted(
                    sase.detect_rich(&rp, within)
                        .into_iter()
                        .map(|m| (oracle_trace(oracle, m.trace), m.timestamps))
                        .collect(),
                );
                return if got == want {
                    Ok(())
                } else {
                    Err(format!("{} matches, the scan oracle finds {}", got.len(), want.len()))
                };
            }
            let acts: Vec<Activity> =
                elements.iter().map(|e| activity(oracle, &e.name)).collect::<Result<_, _>>()?;
            check_embeddings(oracle, &acts, within, &got)?;
            let pattern = Pattern::new(acts);
            if within.is_some() {
                return Ok(());
            }
            if pattern.len() == 2 {
                let want: Vec<NamedMatch> = sorted(
                    sase.detect_stnm(&pattern)
                        .into_iter()
                        .map(|m| (oracle_trace(oracle, m.trace), m.timestamps))
                        .collect(),
                );
                if got != want {
                    return Err(format!(
                        "{} matches, the automaton finds {}",
                        got.len(),
                        want.len()
                    ));
                }
            } else {
                let want: BTreeSet<String> = sase
                    .traces_stnm(&pattern)
                    .into_iter()
                    .map(|t| oracle_trace(oracle, t))
                    .collect();
                if let Some((t, _)) = got.iter().find(|(t, _)| !want.contains(t)) {
                    return Err(format!(
                        "trace {t} reported, but the automaton finds no match there"
                    ));
                }
            }
            Ok(())
        }
        (Query::Detect { elements, within, any_match: true, limit }, QueryOutput::AnyMatch(r)) => {
            if elements.iter().all(is_plain) && within.is_none() {
                return Ok(());
            }
            let rp = rich_pattern(oracle, &elements)?;
            let got = sorted(
                r.traces
                    .iter()
                    .map(|t| (trace_name(t.trace), t.count, t.examples.clone()))
                    .collect::<Vec<_>>(),
            );
            let want = sorted(
                sase.any_match_rich(&rp, within, limit.unwrap_or(3))
                    .into_iter()
                    .map(|t| (oracle_trace(oracle, t.trace), t.count, t.examples))
                    .collect::<Vec<_>>(),
            );
            if got == want {
                Ok(())
            } else {
                Err(format!("{} traces, the scan oracle finds {}", got.len(), want.len()))
            }
        }
        (Query::Stats { .. }, QueryOutput::Stats(s)) => {
            for ps in &s.pairs {
                let name = |a: Activity| catalog.activity_name(a).unwrap_or("?");
                let pair = Pattern::new(vec![
                    activity(oracle, name(ps.pair.0))?,
                    activity(oracle, name(ps.pair.1))?,
                ]);
                let want = sase.detect_stnm(&pair).len() as u64;
                if ps.completions != want {
                    return Err(format!(
                        "pair ({}, {}): {} completions, the automaton finds {want}",
                        name(ps.pair.0),
                        name(ps.pair.1),
                        ps.completions
                    ));
                }
            }
            Ok(())
        }
        (Query::Continue { .. }, QueryOutput::Continuations { .. }) => Ok(()),
        (query, _) => Err(format!("output kind does not fit the statement {query:?}")),
    }
}
