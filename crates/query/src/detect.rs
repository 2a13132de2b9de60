//! Pattern detection — Algorithm 2 (`GetCompletions`).
//!
//! Query processing "starts by searching for all the traces that contain
//! event pair `(ev_1, ev_2)`. At the next step, the technique keeps only the
//! traces where the same instance of `ev_2` is followed by `ev_3`" (§3.2.1):
//! partial matches are extended pair by pair, joining the previous partial's
//! last timestamp with the next posting's first timestamp within the same
//! trace.
//!
//! Note on semantics: Algorithm 2 chains the *pairwise greedy* occurrences
//! stored in the index. This is not always identical to running a
//! pattern-level STNM automaton over the trace (the §2.1 example's
//! semantics, implemented by the SASE-style baseline): a greedy pair
//! occurrence can "reach over" the event the automaton would use (e.g. in
//! `B A B C` the pair `(B,C)` is `(1,4)`, so `⟨A,B,C⟩` has no chained
//! completion although the embedding `2,3,4` exists). Every completion
//! this module reports *is* a real in-order occurrence; the pairwise join
//! simply under-approximates the automaton semantics — see the
//! `cross_engine_agreement` integration tests, and the skip-till-any-match
//! extension for the exhaustive variant.
//!
//! ## Read path
//!
//! Posting lists are fetched through a [`ReadCtx`]: per `(table, pair)` row
//! the context first consults the generation-stamped [`PostingCache`], and
//! only on a miss decodes the stored row with the core kernel
//! ([`seqdet_core::decode_postings_v2_into`]) into a trace-sorted
//! [`PostingList`]. Join steps then advance to each partial's trace with
//! [`PostingList::for_trace`] — a binary-search `seek`, not a hash probe or
//! scan.
//!
//! The join itself is one sequential loop on the calling thread: per trace,
//! build a `ts_a → ts_b` map of the next pair's postings and extend each
//! partial in `O(1)`. (Timestamps are unique within a trace, and greedy
//! pair occurrences never share their first event, so the map is
//! injective.) It stays on one thread because spawning workers per join
//! step costs more than the step (EXPERIMENTS.md, *Closed ablations*). The
//! paper's literal nested-loop pseudocode lives in this module's tests as
//! the reference the hash join is compared against.

use crate::cache::{PostingCache, PostingList};
use crate::Result;
use seqdet_core::PairKey;
use seqdet_exec::Executor;
use seqdet_log::{Activity, Pattern, TraceId, Ts};
use seqdet_storage::{Coverage, FxHashMap, KvStore, StoreMetrics, TableId};
use std::sync::Arc;

/// One completion of the query pattern in one trace: the matched events'
/// timestamps, in pattern order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternMatch {
    /// Trace containing the completion.
    pub trace: TraceId,
    /// Timestamp of each matched event (`pattern.len()` entries).
    pub timestamps: Vec<Ts>,
}

impl PatternMatch {
    /// Timestamp of the first matched event.
    pub fn start(&self) -> Ts {
        // xtask-lint: allow(no-panic): every constructor stores ≥ 1 timestamp; an empty match is unrepresentable, not an input condition.
        *self.timestamps.first().expect("matches are non-empty")
    }

    /// Timestamp of the last matched event.
    pub fn end(&self) -> Ts {
        // xtask-lint: allow(no-panic): every constructor stores ≥ 1 timestamp; an empty match is unrepresentable, not an input condition.
        *self.timestamps.last().expect("matches are non-empty")
    }

    /// Total span of the completion.
    pub fn duration(&self) -> Ts {
        self.end() - self.start()
    }
}

/// All completions of a pattern.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectResult {
    /// Completions, grouped by trace in ascending trace order, ascending by
    /// end timestamp within a trace.
    pub matches: Vec<PatternMatch>,
    /// How complete the answer is: [`Coverage::Narrowed`] when part of the
    /// store's persisted state was quarantined while this query ran —
    /// every returned match is real, but matches whose postings the
    /// quarantined data held may be missing. Stamped by the engine.
    pub coverage: Coverage,
}

impl DetectResult {
    /// Number of completions across all traces.
    pub fn total_completions(&self) -> usize {
        self.matches.len()
    }

    /// True when the pattern was not found at all.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// Distinct traces containing at least one completion, ascending.
    pub fn traces(&self) -> Vec<TraceId> {
        let mut t: Vec<TraceId> = self.matches.iter().map(|m| m.trace).collect();
        t.sort_unstable();
        t.dedup();
        t
    }
}

/// Everything a query needs to read posting lists: the store and partition
/// layout, plus the (optional) cache, the generation the layout was read
/// under, the (optional) metrics sink and the verifier executor.
///
/// Built per query by [`crate::QueryEngine`] after its generation check, so
/// cache lookups are stamped with a generation that is current for this
/// query — a concurrently indexing writer bumps the generation and the
/// stamped entries simply stop hitting.
pub(crate) struct ReadCtx<'a, S: KvStore> {
    pub store: &'a S,
    pub tables: &'a [TableId],
    pub cache: Option<&'a PostingCache>,
    pub generation: u64,
    pub metrics: Option<&'a StoreMetrics>,
    pub executor: Executor,
}

impl<'a, S: KvStore> ReadCtx<'a, S> {
    /// Context with no cache, no metrics and sequential execution — the
    /// configuration-free path used by unit tests.
    #[cfg(test)]
    pub fn plain(store: &'a S, tables: &'a [TableId]) -> Self {
        ReadCtx {
            store,
            tables,
            cache: None,
            generation: 0,
            metrics: None,
            executor: Executor::sequential(),
        }
    }

    /// Decoded, trace-sorted postings of `key` across every active
    /// partition.
    ///
    /// The common single-partition case returns the cached [`Arc`] without
    /// copying; with multiple partitions the per-partition lists (each
    /// individually cached) are concatenated in partition order and
    /// re-sorted stably, so a trace's occurrences stay in partition order.
    pub fn postings(&self, key: PairKey) -> Result<Arc<PostingList>> {
        if let [table] = self.tables {
            return self.postings_one(*table, key);
        }
        let mut merged = Vec::new();
        for &table in self.tables {
            let list = self.postings_one(table, key)?;
            merged.extend_from_slice(list.postings());
        }
        Ok(Arc::new(PostingList::from_postings(merged)))
    }

    /// Traces with at least one posting for *every* pair of `pairs`,
    /// ascending: the first pair's trace set, then a probe cascade — each
    /// further posting list retains the candidates it contains, by a
    /// seek-based membership probe. The result is order-independent;
    /// callers that know selectivities pass the rarest pair first.
    pub fn traces_with_all(
        &self,
        pairs: impl IntoIterator<Item = (Activity, Activity)>,
    ) -> Result<Vec<TraceId>> {
        let mut pairs = pairs.into_iter();
        let Some((a, b)) = pairs.next() else { return Ok(Vec::new()) };
        let mut traces: Vec<TraceId> = self.postings(Activity::pair_key(a, b))?.traces().collect();
        for (a, b) in pairs {
            if traces.is_empty() {
                break;
            }
            let list = self.postings(Activity::pair_key(a, b))?;
            traces.retain(|&t| list.contains_trace(t));
        }
        Ok(traces)
    }

    fn postings_one(&self, table: TableId, key: PairKey) -> Result<Arc<PostingList>> {
        if let Some(cache) = self.cache {
            if let Some(list) = cache.get(table, key, self.generation) {
                return Ok(list);
            }
        }
        let list = Arc::new(self.load(table, key)?);
        if let Some(cache) = self.cache {
            cache.insert(table, key, self.generation, Arc::clone(&list));
        }
        Ok(list)
    }

    /// Miss path: decode the stored row into a trace-sorted list, through
    /// the core kernel and this worker's reusable posting buffer, so the
    /// only allocation is the escaping list itself.
    ///
    /// The row fetch goes through [`KvStore::get_checked`], which fuses
    /// the zone-map membership check into the read: a disk store prunes
    /// definitely-absent pairs from run footers in the same pass that
    /// fetches the row, and the resulting empty list is cached above like
    /// any other miss, so repeats don't re-consult the zone maps.
    fn load(&self, table: TableId, key: PairKey) -> Result<PostingList> {
        let Some(row) = self.store.get_checked(table, &seqdet_core::tables::pair_key_bytes(key))
        else {
            return Ok(PostingList::default());
        };
        crate::arena::with_decode_buffer(|buf| {
            // xtask-lint: allow(decoder-boundary): this *is* ReadCtx's miss path — the cached, metered read path the rule directs callers to.
            seqdet_core::decode_postings_v2_into(&row, buf)?;
            if let Some(m) = self.metrics {
                m.record_cursor_decode(buf.len());
                m.record_decoded_bytes(row.len());
            }
            let postings = buf.iter().map(|p| (p.trace, p.ts_a, p.ts_b)).collect();
            Ok(PostingList::from_postings(postings))
        })
    }
}

/// Partial matches, per trace, in ascending trace order.
type Partials = Vec<(TraceId, Vec<Vec<Ts>>)>;

/// Detect all completions of `pattern` (length ≥ 2), optionally collecting
/// the intermediate result after each join step (the "sub-pattern
/// by-products" the paper highlights in §5.4.1).
pub(crate) fn get_completions<S: KvStore>(
    ctx: &ReadCtx<'_, S>,
    pattern: &Pattern,
    on_prefix: Option<&mut Vec<DetectResult>>,
) -> Result<DetectResult> {
    get_completions_within(ctx, pattern, None, on_prefix)
}

/// [`get_completions`] with an optional CEP-style time window: a completion
/// is valid only if `last.ts - first.ts <= window`. The bound is applied
/// *during* the join (a partial already wider than the window can never
/// shrink), so tight windows also prune work, not just results.
pub(crate) fn get_completions_within<S: KvStore>(
    ctx: &ReadCtx<'_, S>,
    pattern: &Pattern,
    window: Option<Ts>,
    mut on_prefix: Option<&mut Vec<DetectResult>>,
) -> Result<DetectResult> {
    let lists = pair_postings(ctx, pattern)?;
    let mut partials = first_partials(&lists[0], window);
    if let Some(prefixes) = on_prefix.as_deref_mut() {
        prefixes.push(collect(&partials));
    }

    // The next pair's `ts_a → ts_b` occurrences of one trace; built once,
    // refilled per trace.
    let mut by_start: FxHashMap<Ts, Ts> = FxHashMap::default();
    for next in &lists[1..] {
        partials.retain_mut(|(trace, parts)| {
            // Next-match advancement seeks straight to the partial's trace
            // in the sorted posting list.
            by_start.clear();
            by_start.extend(next.for_trace(*trace).iter().map(|&(_, a, b)| (a, b)));
            parts.retain_mut(|part| {
                let Some(&ts_b) = part.last().and_then(|last| by_start.get(last)) else {
                    return false;
                };
                if window.is_some_and(|w| ts_b - part[0] > w) {
                    return false;
                }
                part.push(ts_b);
                true
            });
            !parts.is_empty()
        });
        if let Some(prefixes) = on_prefix.as_deref_mut() {
            prefixes.push(collect(&partials));
        }
    }
    Ok(collect(&partials))
}

/// Postings of every consecutive pair of `pattern` (length ≥ 2), fetched up
/// front — the join loop reads each exactly once anyway.
fn pair_postings<S: KvStore>(
    ctx: &ReadCtx<'_, S>,
    pattern: &Pattern,
) -> Result<Vec<Arc<PostingList>>> {
    debug_assert!(pattern.len() >= 2, "get_completions requires a pattern of length >= 2");
    pattern.consecutive_pairs().map(|(a, b)| ctx.postings(Activity::pair_key(a, b))).collect()
}

/// `previous ← Index.get(ev_1, ev_2)`, as per-trace partial matches.
fn first_partials(first: &PostingList, window: Option<Ts>) -> Partials {
    first
        .by_trace()
        .filter_map(|(trace, occs)| {
            let parts: Vec<Vec<Ts>> = occs
                .iter()
                .filter(|&&(_, a, b)| window.is_none_or(|w| b - a <= w))
                .map(|&(_, a, b)| vec![a, b])
                .collect();
            (!parts.is_empty()).then_some((trace, parts))
        })
        .collect()
}

/// Detect the traces/positions of a single activity (`p == 1`). The pair
/// index cannot answer this (pairs need two events), so the stored `Seq`
/// rows are scanned — documented as the length-1 fallback.
pub(crate) fn detect_single<S: KvStore>(store: &S, activity: Activity) -> Result<DetectResult> {
    let mut matches = Vec::new();
    for (key, row) in store.scan(seqdet_core::tables::SEQ) {
        let raw: [u8; 4] = key.as_ref().try_into().map_err(|_| {
            seqdet_core::CoreError::Corrupt { table: "Seq", message: "key is not 4 bytes".into() }
        })?;
        let trace = TraceId(u32::from_le_bytes(raw));
        for ev in seqdet_core::tables::decode_events(&row)? {
            if ev.activity == activity {
                matches.push(PatternMatch { trace, timestamps: vec![ev.ts] });
            }
        }
    }
    matches.sort_by_key(|m| (m.trace, m.end()));
    Ok(DetectResult { matches, coverage: Coverage::Full })
}

fn collect(partials: &Partials) -> DetectResult {
    let mut matches: Vec<PatternMatch> = partials
        .iter()
        .flat_map(|(trace, parts)| {
            parts.iter().map(move |p| PatternMatch { trace: *trace, timestamps: p.clone() })
        })
        .collect();
    matches.sort_by_key(|m| (m.trace, m.end()));
    DetectResult { matches, coverage: Coverage::Full }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdet_core::{IndexConfig, Indexer, Policy};
    use seqdet_log::EventLogBuilder;

    fn indexed() -> (Indexer, Pattern, Pattern) {
        let mut b = EventLogBuilder::new();
        for (act, ts) in [("A", 1), ("A", 2), ("B", 3), ("A", 4), ("B", 5), ("A", 6)] {
            b.add("t1", act, ts);
        }
        b.add("t2", "A", 1).add("t2", "B", 2).add("t2", "C", 3);
        let log = b.build();
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&log).unwrap();
        let ab = Pattern::new(vec![
            ix.catalog().activity("A").unwrap(),
            ix.catalog().activity("B").unwrap(),
        ]);
        let abc = Pattern::new(vec![
            ix.catalog().activity("A").unwrap(),
            ix.catalog().activity("B").unwrap(),
            ix.catalog().activity("C").unwrap(),
        ]);
        (ix, ab, abc)
    }

    #[test]
    fn pair_pattern_returns_postings() {
        let (ix, ab, _) = indexed();
        let store = ix.store();
        let tables = seqdet_core::indexer::active_index_tables(store.as_ref());
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        let r = get_completions(&ctx, &ab, None).unwrap();
        assert_eq!(r.total_completions(), 3); // t1: (1,3),(4,5); t2: (1,2)
        assert_eq!(r.traces().len(), 2);
    }

    #[test]
    fn three_step_pattern_joins_on_shared_timestamp() {
        let (ix, _, abc) = indexed();
        let store = ix.store();
        let tables = seqdet_core::indexer::active_index_tables(store.as_ref());
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        let r = get_completions(&ctx, &abc, None).unwrap();
        assert_eq!(r.total_completions(), 1);
        let m = &r.matches[0];
        assert_eq!(m.timestamps, vec![1, 2, 3]);
        assert_eq!(m.duration(), 2);
        assert_eq!((m.start(), m.end()), (1, 3));
    }

    #[test]
    fn prefixes_are_collected_as_byproduct() {
        let (ix, _, abc) = indexed();
        let store = ix.store();
        let tables = seqdet_core::indexer::active_index_tables(store.as_ref());
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        let mut prefixes = Vec::new();
        let r = get_completions(&ctx, &abc, Some(&mut prefixes)).unwrap();
        assert_eq!(prefixes.len(), 2); // ⟨A,B⟩ and ⟨A,B,C⟩
        assert_eq!(prefixes[0].total_completions(), 3);
        assert_eq!(prefixes[1], r);
    }

    #[test]
    fn missing_pair_yields_empty() {
        let (ix, _, _) = indexed();
        let store = ix.store();
        let tables = seqdet_core::indexer::active_index_tables(store.as_ref());
        let ctx = ReadCtx::plain(store.as_ref(), &tables);
        let c = ix.catalog().activity("C").unwrap();
        let a = ix.catalog().activity("A").unwrap();
        let ca = Pattern::new(vec![c, a]);
        let r = get_completions(&ctx, &ca, None).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.traces(), vec![]);
    }

    #[test]
    fn single_activity_fallback_scans_seq() {
        let (ix, _, _) = indexed();
        let store = ix.store();
        let b = ix.catalog().activity("B").unwrap();
        let r = detect_single(store.as_ref(), b).unwrap();
        assert_eq!(r.total_completions(), 3); // t1 has B@3, B@5; t2 has B@2
    }

    #[test]
    fn cached_reads_return_identical_results() {
        let (ix, ab, abc) = indexed();
        let store = ix.store();
        let tables = seqdet_core::indexer::active_index_tables(store.as_ref());
        let cache = PostingCache::new(64);
        let mut ctx = ReadCtx::plain(store.as_ref(), &tables);
        ctx.cache = Some(&cache);
        let cold_ab = get_completions(&ctx, &ab, None).unwrap();
        let cold_abc = get_completions(&ctx, &abc, None).unwrap();
        let warm_ab = get_completions(&ctx, &ab, None).unwrap();
        let warm_abc = get_completions(&ctx, &abc, None).unwrap();
        assert_eq!(cold_ab, warm_ab);
        assert_eq!(cold_abc, warm_abc);
        let s = cache.stats();
        assert!(s.hits >= 3, "⟨A,B⟩ ×2 and ⟨B,C⟩ re-reads hit: {s:?}");
    }

    /// Algorithm 2's literal pseudocode — for every partial, scan the
    /// trace's posting list — kept as the reference the production hash
    /// join is compared against.
    fn nested_loop_completions<S: KvStore>(
        ctx: &ReadCtx<'_, S>,
        pattern: &Pattern,
        window: Option<Ts>,
        mut on_prefix: Option<&mut Vec<DetectResult>>,
    ) -> Result<DetectResult> {
        let lists = pair_postings(ctx, pattern)?;
        let mut partials = first_partials(&lists[0], window);
        if let Some(prefixes) = on_prefix.as_deref_mut() {
            prefixes.push(collect(&partials));
        }
        for next in &lists[1..] {
            partials = partials
                .iter()
                .map(|(trace, parts)| {
                    let occs = next.for_trace(*trace);
                    let mut extended = Vec::new();
                    for part in parts {
                        let Some(&last) = part.last() else { continue };
                        for &(_, a, b) in occs {
                            if a == last && window.is_none_or(|w| b - part[0] <= w) {
                                let mut next_part = part.clone();
                                next_part.push(b);
                                extended.push(next_part);
                            }
                        }
                    }
                    (*trace, extended)
                })
                .filter(|(_, parts)| !parts.is_empty())
                .collect();
            if let Some(prefixes) = on_prefix.as_deref_mut() {
                prefixes.push(collect(&partials));
            }
        }
        Ok(collect(&partials))
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn hash_join_equals_nested_loop_reference(
                traces in prop::collection::vec(prop::collection::vec(0u32..5, 0..=40), 0..=12),
                pat in prop::collection::vec(0u32..5, 2..=6),
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
                    let tables = seqdet_core::indexer::active_index_tables(store.as_ref());
                    let ctx = ReadCtx::plain(store.as_ref(), &tables);
                    // An activity the log never drew has no catalog id and
                    // no postings; any unused id stands in for it.
                    let pattern = Pattern::new(
                        pat.iter()
                            .map(|a| {
                                ix.catalog().activity(&format!("a{a}")).unwrap_or(Activity(u32::MAX))
                            })
                            .collect(),
                    );
                    for window in [None, Some(3), Some(1000)] {
                        let expected = nested_loop_completions(&ctx, &pattern, window, None).unwrap();
                        let got = get_completions_within(&ctx, &pattern, window, None).unwrap();
                        prop_assert_eq!(&got, &expected, "{:?} window {:?}", policy, window);

                        let (mut want, mut prefixes) = (Vec::new(), Vec::new());
                        nested_loop_completions(&ctx, &pattern, window, Some(&mut want)).unwrap();
                        let got =
                            get_completions_within(&ctx, &pattern, window, Some(&mut prefixes)).unwrap();
                        prop_assert_eq!(&got, &expected, "{:?} window {:?}", policy, window);
                        prop_assert_eq!(&prefixes, &want, "{:?} window {:?}", policy, window);
                        prop_assert_eq!(prefixes.len(), pattern.len() - 1);
                    }
                }
            }
        }
    }
}
