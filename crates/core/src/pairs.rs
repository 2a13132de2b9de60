//! Event-pair creation — the `create_pairs` procedure of Algorithm 1.
//!
//! Given one trace, produce every pair occurrence `(ev_a, ev_b)` that the
//! chosen [`Policy`] defines, keyed by the (ordered) activity pair:
//!
//! * **SC** (§4.1): exactly the consecutive event pairs
//!   `(e_i, e_{i+1})` — a single `O(n)` scan.
//! * **STNM** (§4.2): for each activity pair `(x, y)`, the *greedy
//!   non-overlapping* occurrences: a pair opens at the first unmatched `x`
//!   and closes at the next `y`; `x`s seen while a pair is open are ignored,
//!   and pairs never intertwine. For `x == y`, consecutive occurrences chunk
//!   pairwise. This reproduces Table 3 of the paper exactly — e.g. for the
//!   trace `⟨(A,1),(A,2),(B,3),(A,4),(B,5),(A,6)⟩` the `(A,B)` occurrences
//!   are `(1,3),(4,5)` (not `(2,3)`).
//!
//! Three STNM implementations are provided — [`stnm_parsing`],
//! [`stnm_indexing`], [`stnm_state`] — which produce identical output but
//! have the distinct cost profiles the paper evaluates in Table 5 /
//! Figure 3. The indexer always builds with *Indexing*, the evaluation's
//! winner; the other two are kept as pure functions for those experiments
//! and as references the tests hold equal to it ([`STNM_FLAVORS`]). The *Parsing* and *State* flavors intentionally retain the
//! paper's data-structure choices (linear membership lists, per-event hash
//! updates): "optimizing" them away would erase the very effect the
//! benchmarks measure.
//!
//! Note on the paper's Table 3: its SC row lists `(B,A) = (3,4),(4,5)`;
//! `(4,5)` is an `(A,B)` adjacency in the running trace (and is also listed
//! under `(A,B)`), so we treat it as a typo and produce `(B,A) = (3,4),(5,6)`.

use crate::policy::Policy;
use seqdet_log::{Activity, Event, Ts};
use seqdet_storage::FxHashMap;

/// Packed activity-pair key (see [`Activity::pair_key`]).
pub type PairKey = u64;

/// All pair occurrences of one trace: pair key → ordered `(ts_a, ts_b)`
/// occurrences. Occurrences are emitted in ascending `ts_b` order.
pub type TracePairs = FxHashMap<PairKey, Vec<(Ts, Ts)>>;

/// A pair-creation function over one trace.
pub type CreatePairs = fn(&[Event]) -> TracePairs;

/// The three STNM pair-creation flavors of §4.2 by name, in the column
/// order of the paper's Table 5.
pub const STNM_FLAVORS: [(&str, CreatePairs); 3] =
    [("Indexing", stnm_indexing), ("Parsing", stnm_parsing), ("State", stnm_state)];

/// The pairs `policy` defines over one trace: [`sc_pairs`] or
/// [`stnm_indexing`].
pub fn create_pairs(events: &[Event], policy: Policy) -> TracePairs {
    match policy {
        Policy::StrictContiguity => sc_pairs(events),
        Policy::SkipTillNextMatch => stnm_indexing(events),
    }
}

/// Strict-contiguity pairs: each consecutive event pair, `O(n)`.
pub fn sc_pairs(events: &[Event]) -> TracePairs {
    let mut out = TracePairs::default();
    for w in events.windows(2) {
        let key = Activity::pair_key(w[0].activity, w[1].activity);
        out.entry(key).or_default().push((w[0].ts, w[1].ts));
    }
    out
}

/// STNM via the *Parsing* method (Algorithm 6).
///
/// One pass over the trace per distinct activity `x` (guarded by a
/// `checkedList`), maintaining for the anchor type the occurrences seen so
/// far and, per partner type `y`, the index of the first anchor occurrence
/// not yet consumed by an earlier `(x, y)` pair. Partner lookups use the
/// paper's list-with-linear-membership structure, which is what makes this
/// flavor degrade as `l` grows (Figure 3, third plot).
pub fn stnm_parsing(events: &[Event]) -> TracePairs {
    let mut out = TracePairs::default();
    let mut checked: Vec<Activity> = Vec::new();
    for i in 0..events.len() {
        let x = events[i].activity;
        if checked.contains(&x) {
            continue;
        }
        checked.push(x);
        // State for the scan anchored at activity x.
        let mut xs_seen: Vec<Ts> = Vec::new();
        let mut open_xx: Option<Ts> = None;
        // (partner type, index of first usable anchor occurrence); linear
        // membership as in the paper's inter_events list.
        let mut partners: Vec<(Activity, usize)> = Vec::new();
        for ev in &events[i..] {
            if ev.activity == x {
                match open_xx.take() {
                    None => open_xx = Some(ev.ts),
                    Some(open) => {
                        out.entry(Activity::pair_key(x, x)).or_default().push((open, ev.ts));
                    }
                }
                xs_seen.push(ev.ts);
            } else {
                let pos = match partners.iter().position(|(a, _)| *a == ev.activity) {
                    Some(p) => p,
                    None => {
                        partners.push((ev.activity, 0));
                        partners.len() - 1
                    }
                };
                let slot = &mut partners[pos].1;
                if *slot < xs_seen.len() {
                    out.entry(Activity::pair_key(x, ev.activity))
                        .or_default()
                        .push((xs_seen[*slot], ev.ts));
                    // The next (x, y) pair opens strictly after this close;
                    // every anchor occurrence seen so far is ≤ ev.ts.
                    *slot = xs_seen.len();
                }
            }
        }
    }
    out
}

/// STNM via the *Indexing* method (Algorithm 7 in spirit).
///
/// First collect, in one `O(n)` pass, the occurrence timestamps of every
/// distinct activity; then greedily merge the two position lists of every
/// activity pair. Despite the same worst-case bound as *Parsing*, the tight
/// two-pointer merges make it the fastest flavor in the paper's evaluation.
pub fn stnm_indexing(events: &[Event]) -> TracePairs {
    // Occurrence lists, ascending by construction.
    let mut positions: FxHashMap<Activity, Vec<Ts>> = FxHashMap::default();
    let mut order: Vec<Activity> = Vec::new();
    for ev in events {
        let list = positions.entry(ev.activity).or_insert_with(|| {
            order.push(ev.activity);
            Vec::new()
        });
        list.push(ev.ts);
    }
    let mut out = TracePairs::default();
    for &x in &order {
        let xs = &positions[&x];
        for &y in &order {
            if x == y {
                // Same type: chunk consecutive occurrences pairwise.
                let occ: Vec<(Ts, Ts)> = xs.chunks_exact(2).map(|c| (c[0], c[1])).collect();
                if !occ.is_empty() {
                    out.insert(Activity::pair_key(x, x), occ);
                }
            } else {
                let ys = &positions[&y];
                let occ = merge_greedy(xs, ys);
                if !occ.is_empty() {
                    out.insert(Activity::pair_key(x, y), occ);
                }
            }
        }
    }
    out
}

/// Greedy non-overlapping merge of two ascending occurrence lists:
/// open at `xs[i]`, close at the first `ys[j] > xs[i]`, then resume from the
/// first `x` after the close.
fn merge_greedy(xs: &[Ts], ys: &[Ts]) -> Vec<(Ts, Ts)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        while j < ys.len() && ys[j] < xs[i] {
            j += 1;
        }
        if j == ys.len() {
            break;
        }
        let close = ys[j];
        out.push((xs[i], close));
        j += 1;
        while i < xs.len() && xs[i] < close {
            i += 1;
        }
    }
    out
}

/// STNM via the *State* method (Algorithm 8).
///
/// A hash map keyed by activity pair holds a growing timestamp list per
/// pair. For each arriving event `ev` of type `x`:
///
/// * for every pair `(x, y)` — if the list has even length, `ev` opens a new
///   pair: append `ev.ts`;
/// * for every pair `(y, x)` — if the list has odd length, `ev` closes the
///   open pair: append `ev.ts`;
/// * for `(x, x)` the two rules coincide: always append.
///
/// Odd-length lists are trimmed at the end. The per-event hash updates give
/// `O(n·l)` time but with overheads the paper calls out in §4.2; crucially,
/// the state can be persisted between batches, which is why the paper
/// recommends this flavor for fully dynamic environments.
pub fn stnm_state(events: &[Event]) -> TracePairs {
    // Distinct activities in first-appearance order.
    let mut distinct: Vec<Activity> = Vec::new();
    for ev in events {
        if !distinct.contains(&ev.activity) {
            distinct.push(ev.activity);
        }
    }
    let mut state: FxHashMap<PairKey, Vec<Ts>> = FxHashMap::default();
    for &x in &distinct {
        for &y in &distinct {
            state.insert(Activity::pair_key(x, y), Vec::new());
        }
    }
    for ev in events {
        let x = ev.activity;
        for &y in &distinct {
            if y == x {
                // (x, x): always append (opens on even, closes on odd).
                state.get_mut(&Activity::pair_key(x, x)).expect("initialized").push(ev.ts);
            } else {
                // ev as first component of (x, y).
                let first = state.get_mut(&Activity::pair_key(x, y)).expect("initialized");
                if first.len().is_multiple_of(2) {
                    first.push(ev.ts);
                }
                // ev as second component of (y, x).
                let second = state.get_mut(&Activity::pair_key(y, x)).expect("initialized");
                if second.len() % 2 == 1 {
                    second.push(ev.ts);
                }
            }
        }
    }
    let mut out = TracePairs::default();
    for (key, mut list) in state {
        if list.len() % 2 == 1 {
            list.pop();
        }
        if list.is_empty() {
            continue;
        }
        out.insert(key, list.chunks_exact(2).map(|c| (c[0], c[1])).collect());
    }
    out
}

/// Total number of pair occurrences in a [`TracePairs`].
pub fn total_occurrences(pairs: &TracePairs) -> usize {
    pairs.values().map(Vec::len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdet_log::Event;

    fn ev(a: u32, ts: Ts) -> Event {
        Event::new(Activity(a), ts)
    }

    /// The running example of Table 3: ⟨(A,1),(A,2),(B,3),(A,4),(B,5),(A,6)⟩
    /// with A = 0, B = 1.
    fn table3_trace() -> Vec<Event> {
        vec![ev(0, 1), ev(0, 2), ev(1, 3), ev(0, 4), ev(1, 5), ev(0, 6)]
    }

    fn occ(pairs: &TracePairs, a: u32, b: u32) -> Vec<(Ts, Ts)> {
        pairs.get(&Activity::pair_key(Activity(a), Activity(b))).cloned().unwrap_or_default()
    }

    #[test]
    fn sc_matches_table3() {
        let p = sc_pairs(&table3_trace());
        assert_eq!(occ(&p, 0, 0), vec![(1, 2)]);
        assert_eq!(occ(&p, 0, 1), vec![(2, 3), (4, 5)]);
        // Paper's (B,A) row modulo its typo — see module docs.
        assert_eq!(occ(&p, 1, 0), vec![(3, 4), (5, 6)]);
        assert_eq!(occ(&p, 1, 1), vec![]);
    }

    #[test]
    fn stnm_matches_table3_all_methods() {
        for (method, create) in STNM_FLAVORS {
            let p = create(&table3_trace());
            assert_eq!(occ(&p, 0, 0), vec![(1, 2), (4, 6)], "{method} (A,A)");
            assert_eq!(occ(&p, 1, 0), vec![(3, 4), (5, 6)], "{method} (B,A)");
            assert_eq!(occ(&p, 1, 1), vec![(3, 5)], "{method} (B,B)");
            assert_eq!(occ(&p, 0, 1), vec![(1, 3), (4, 5)], "{method} (A,B)");
        }
    }

    #[test]
    fn empty_and_singleton_traces() {
        for policy in [Policy::StrictContiguity, Policy::SkipTillNextMatch] {
            assert!(create_pairs(&[], policy).is_empty());
            assert!(create_pairs(&[ev(0, 1)], policy).is_empty());
        }
        for (_, create) in STNM_FLAVORS {
            assert!(create(&[]).is_empty());
            assert!(create(&[ev(0, 1)]).is_empty());
        }
    }

    #[test]
    fn sc_and_stnm_agree_on_alternating_trace() {
        // A B A B …: every SC adjacency is also the greedy STNM pair.
        let trace: Vec<Event> = (0..10).map(|i| ev(i % 2, i as Ts + 1)).collect();
        let sc = sc_pairs(&trace);
        let stnm = stnm_indexing(&trace);
        assert_eq!(occ(&sc, 0, 1), occ(&stnm, 0, 1));
        assert_eq!(occ(&sc, 1, 0), occ(&stnm, 1, 0));
    }

    #[test]
    fn stnm_skips_blocked_openers() {
        // A A A B: only (1,4) — the 2nd/3rd A are ignored while open.
        let trace = vec![ev(0, 1), ev(0, 2), ev(0, 3), ev(1, 4)];
        for (method, create) in STNM_FLAVORS {
            let p = create(&trace);
            assert_eq!(occ(&p, 0, 1), vec![(1, 4)], "{method}");
            assert_eq!(occ(&p, 0, 0), vec![(1, 2)], "{method}");
        }
    }

    #[test]
    fn stnm_three_distinct_activities() {
        // A B C A C: (A,B)=(1,2); (A,C)=(1,3); after close, reopen at A4:
        // (A,C) second pair = (4,5); (B,C)=(2,3); (B,A)=(2,4); (C,A)=(3,4);
        // (C,C)=(3,5).
        let trace = vec![ev(0, 1), ev(1, 2), ev(2, 3), ev(0, 4), ev(2, 5)];
        for (method, create) in STNM_FLAVORS {
            let p = create(&trace);
            assert_eq!(occ(&p, 0, 1), vec![(1, 2)], "{method}");
            assert_eq!(occ(&p, 0, 2), vec![(1, 3), (4, 5)], "{method}");
            assert_eq!(occ(&p, 1, 2), vec![(2, 3)], "{method}");
            assert_eq!(occ(&p, 1, 0), vec![(2, 4)], "{method}");
            assert_eq!(occ(&p, 2, 0), vec![(3, 4)], "{method}");
            assert_eq!(occ(&p, 2, 2), vec![(3, 5)], "{method}");
            assert_eq!(occ(&p, 0, 0), vec![(1, 4)], "{method}");
            assert_eq!(occ(&p, 1, 1), vec![], "{method}");
        }
    }

    #[test]
    fn occurrences_are_non_overlapping_and_ordered() {
        let trace: Vec<Event> = (1..=60).map(|i| ev([0, 1, 0, 2, 1][i as usize % 5], i)).collect();
        let p = stnm_indexing(&trace);
        for occs in p.values() {
            for w in occs.windows(2) {
                assert!(w[0].1 < w[1].0, "pairs intertwined: {w:?}");
            }
            for &(a, b) in occs {
                assert!(a < b, "pair not ordered: ({a},{b})");
            }
        }
    }

    #[test]
    fn total_occurrences_counts() {
        let p = stnm_indexing(&table3_trace());
        assert_eq!(total_occurrences(&p), 2 + 2 + 1 + 2);
    }

    /// Reference oracle: straightforward per-pair greedy scan, written
    /// independently from the three production implementations.
    fn oracle(events: &[Event]) -> TracePairs {
        let mut distinct: Vec<Activity> = events.iter().map(|e| e.activity).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut out = TracePairs::default();
        for &x in &distinct {
            for &y in &distinct {
                let mut occs = Vec::new();
                let mut open: Option<Ts> = None;
                for ev in events {
                    if let Some(o) = open {
                        if ev.activity == y {
                            occs.push((o, ev.ts));
                            open = None;
                            continue;
                        }
                    }
                    if open.is_none() && ev.activity == x {
                        open = Some(ev.ts);
                    }
                }
                if !occs.is_empty() {
                    out.insert(Activity::pair_key(x, y), occs);
                }
            }
        }
        out
    }

    fn sorted(pairs: &TracePairs) -> Vec<(PairKey, Vec<(Ts, Ts)>)> {
        let mut v: Vec<_> = pairs.iter().map(|(k, occ)| (*k, occ.clone())).collect();
        v.sort();
        v
    }

    #[test]
    fn methods_agree_with_oracle_on_fixed_traces() {
        let traces: Vec<Vec<Event>> = vec![
            table3_trace(),
            (1..=40u64).map(|i| ev((i % 3) as u32, i)).collect(),
            (1..=40u64).map(|i| ev(((i * 7) % 5) as u32, i)).collect(),
            vec![ev(0, 5), ev(0, 9), ev(0, 12), ev(0, 20)],
        ];
        for trace in traces {
            let expected = sorted(&oracle(&trace));
            for (method, create) in STNM_FLAVORS {
                let got = sorted(&create(&trace));
                assert_eq!(got, expected, "method {method} diverges on {trace:?}");
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_trace(max_len: usize, alphabet: u32) -> impl Strategy<Value = Vec<Event>> {
            prop::collection::vec(0..alphabet, 0..max_len).prop_map(|acts| {
                acts.into_iter()
                    .enumerate()
                    .map(|(i, a)| Event::new(Activity(a), i as Ts + 1))
                    .collect()
            })
        }

        proptest! {
            #[test]
            fn all_stnm_methods_equal_oracle(trace in arb_trace(120, 6)) {
                let expected = sorted(&oracle(&trace));
                for (method, create) in STNM_FLAVORS {
                    let got = sorted(&create(&trace));
                    prop_assert_eq!(&got, &expected, "method {}", method);
                }
            }

            #[test]
            fn sc_pair_count_is_n_minus_one(trace in arb_trace(80, 4)) {
                let p = sc_pairs(&trace);
                prop_assert_eq!(total_occurrences(&p), trace.len().saturating_sub(1));
            }

            #[test]
            fn stnm_pairs_never_overlap(trace in arb_trace(100, 5)) {
                let p = stnm_indexing(&trace);
                for occs in p.values() {
                    for w in occs.windows(2) {
                        prop_assert!(w[0].1 < w[1].0);
                    }
                    for &(a, b) in occs {
                        prop_assert!(a < b);
                    }
                }
            }

            #[test]
            fn stnm_occurrence_count_bounded_by_halves(trace in arb_trace(100, 5)) {
                // For any pair (x,y), the greedy matching uses each x at most
                // once and each y at most once.
                let p = stnm_indexing(&trace);
                let count = |a: Activity| trace.iter().filter(|e| e.activity == a).count();
                for (&key, occs) in &p {
                    let (x, y) = Activity::unpack_pair(key);
                    if x == y {
                        prop_assert!(occs.len() <= count(x) / 2);
                    } else {
                        prop_assert!(occs.len() <= count(x).min(count(y)));
                    }
                }
            }
        }
    }
}
