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
//! ([`seqdet_core::decode_postings_v2_into`]) into a [`PostingList`] — a
//! trace column beside a `(ts_a, ts_b)` column, sorted by `(trace, ts_a)`.
//!
//! ## The join
//!
//! One sequential merge join on the calling thread (spawning workers per
//! step costs more than the step — EXPERIMENTS.md, *Closed ablations*):
//!
//! 1. Unless prefix results are wanted, the trace sets of all `p − 1`
//!    lists are intersected first, rarest list first, by galloping over
//!    the trace columns; only surviving traces ever get a partial.
//! 2. Partials live in one flat buffer of stride `k` (plus a trace
//!    column), grouped by trace and ascending by last timestamp within a
//!    trace. Two such buffers are reused across steps.
//! 3. A step walks the partials and the next list's trace runs with
//!    forward-only cursors: the partials' last timestamps and the run's
//!    `ts_a`s are both ascending, and greedy pairs never share a first
//!    event, so each partial extends at most once, by a gallop from where
//!    the previous partial stopped — no hash map, no per-partial
//!    allocation. Since a run's `ts_b`s ascend with its `ts_a`s, extended
//!    partials stay in last-timestamp order.
//! 4. [`PatternMatch`]es are materialised only at the end, one exact-size
//!    copy per match, already in `(trace, end)` order.
//!
//! Continuation (Algorithm 3) reuses steps 1–3: it joins the pattern once
//! and counts each candidate's extension off the final partials (see
//! [`crate::continuation`]). The paper's literal nested-loop pseudocode
//! lives in this module's tests as the reference the merge join is
//! compared against.

use crate::cache::{gallop, PostingCache, PostingList};
use crate::Result;
use seqdet_core::PairKey;
use seqdet_log::{Activity, Pattern, TraceId, Ts};
use seqdet_storage::{Coverage, KvStore, StoreMetrics, TableId};
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
/// under and the (optional) metrics sink.
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
}

impl<'a, S: KvStore> ReadCtx<'a, S> {
    /// Context with no cache and no metrics — the configuration-free path
    /// used by unit tests.
    #[cfg(test)]
    pub fn plain(store: &'a S, tables: &'a [TableId]) -> Self {
        ReadCtx { store, tables, cache: None, generation: 0, metrics: None }
    }

    /// Decoded postings of `key` across every active partition, sorted by
    /// `(trace, ts_a)`.
    ///
    /// The common single-partition case returns the cached [`Arc`] without
    /// copying; with multiple partitions the per-partition lists (each
    /// individually cached) are concatenated and sorted into one.
    pub fn postings(&self, key: PairKey) -> Result<Arc<PostingList>> {
        if let [table] = self.tables {
            return self.postings_one(*table, key);
        }
        let lists: Vec<_> = self
            .tables
            .iter()
            .map(|&table| self.postings_one(table, key))
            .collect::<Result<_>>()?;
        Ok(Arc::new(PostingList::from_postings(lists.iter().flat_map(|l| l.iter()))))
    }

    /// Traces with at least one posting for *every* pair of `pairs`,
    /// ascending: the first pair's trace set, then each further posting
    /// list retains the candidates it contains, by one galloping walk over
    /// its trace column. The result is order-independent; callers that
    /// know selectivities pass the rarest pair first.
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
            self.postings(Activity::pair_key(a, b))?.retain_traces(&mut traces);
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

    /// Miss path: decode the stored row into a sorted list, through
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
            Ok(PostingList::from_postings(buf.iter().map(|p| (p.trace, p.ts_a, p.ts_b))))
        })
    }
}

/// Detect all completions of `pattern` (length ≥ 2), optionally collecting
/// the intermediate result after each join step (the "sub-pattern
/// by-products" the paper highlights in §5.4.1).
pub(crate) fn get_completions<S: KvStore>(
    ctx: &ReadCtx<'_, S>,
    pattern: &Pattern,
    on_prefix: Option<&mut Vec<DetectResult>>,
) -> Result<DetectResult> {
    Ok(join(ctx, pattern, on_prefix)?.to_result())
}

/// Partial matches after a join step, flat: row `i` is trace `traces[i]`
/// and the `width` timestamps at `ts[i * width..]`. Rows are grouped by
/// trace, ascending, and ascend by last timestamp within a trace — the
/// order the next step's merge walks and the order results are returned in.
pub(crate) struct FlatPartials {
    width: usize,
    traces: Vec<TraceId>,
    ts: Vec<Ts>,
}

impl FlatPartials {
    fn new(width: usize) -> Self {
        FlatPartials { width, traces: Vec::new(), ts: Vec::new() }
    }

    fn reset(&mut self, width: usize) {
        self.width = width;
        self.traces.clear();
        self.ts.clear();
    }

    fn push(&mut self, trace: TraceId, row: &[Ts], next: Ts) {
        self.traces.push(trace);
        self.ts.extend_from_slice(row);
        self.ts.push(next);
    }

    fn rows(&self) -> impl Iterator<Item = (TraceId, &[Ts])> + '_ {
        self.traces.iter().copied().zip(self.ts.chunks_exact(self.width.max(1)))
    }

    fn to_result(&self) -> DetectResult {
        let matches = self
            .rows()
            .map(|(trace, row)| PatternMatch { trace, timestamps: row.to_vec() })
            .collect();
        DetectResult { matches, coverage: Coverage::Full }
    }
}

/// Algorithm 2's chained join of `pattern` (length ≥ 2) into its final
/// partials — see the module docs for the four stages. With `on_prefix`
/// every step's partials are recorded, so the rarest-first trace
/// intersection (which would drop prefix matches in traces a later pair
/// misses) is skipped.
pub(crate) fn join<S: KvStore>(
    ctx: &ReadCtx<'_, S>,
    pattern: &Pattern,
    mut on_prefix: Option<&mut Vec<DetectResult>>,
) -> Result<FlatPartials> {
    debug_assert!(pattern.len() >= 2, "the join requires a pattern of length >= 2");
    let lists: Vec<Arc<PostingList>> = pattern
        .consecutive_pairs()
        .map(|(a, b)| ctx.postings(Activity::pair_key(a, b)))
        .collect::<Result<_>>()?;
    let mut partials = FlatPartials::new(2);
    let Some((first, rest)) = lists.split_first() else { return Ok(partials) };

    // `previous ← Index.get(ev_1, ev_2)`, restricted to the common traces.
    if on_prefix.is_some() || rest.is_empty() {
        for (trace, a, b) in first.iter() {
            partials.push(trace, &[a], b);
        }
    } else {
        let mut cursor = first.cursor();
        for trace in common_traces(&lists) {
            for &(a, b) in cursor.seek(trace) {
                partials.push(trace, &[a], b);
            }
        }
    }
    if let Some(prefixes) = on_prefix.as_deref_mut() {
        prefixes.push(partials.to_result());
    }

    let mut next = FlatPartials::new(3);
    for list in rest {
        next.reset(partials.width + 1);
        for_each_extension(&partials, list, |trace, row, ts_b| next.push(trace, row, ts_b));
        std::mem::swap(&mut partials, &mut next);
        if let Some(prefixes) = on_prefix.as_deref_mut() {
            prefixes.push(partials.to_result());
        }
    }
    Ok(partials)
}

/// Traces present in every list, ascending: the rarest list's trace set,
/// narrowed by one galloping walk over each other list's trace column.
fn common_traces(lists: &[Arc<PostingList>]) -> Vec<TraceId> {
    let mut by_size: Vec<&PostingList> = lists.iter().map(Arc::as_ref).collect();
    by_size.sort_by_key(|l| l.len());
    let Some((rarest, others)) = by_size.split_first() else { return Vec::new() };
    let mut traces: Vec<TraceId> = rarest.traces().collect();
    for list in others {
        list.retain_traces(&mut traces);
    }
    traces
}

/// One join step's merge: hands `f` each row of `partials` whose last
/// timestamp is the `ts_a` of a posting of `next` in the same trace, with
/// that posting's `ts_b`, in row order. A cursor seeks each trace's run
/// once and the position within the run only moves forward.
pub(crate) fn for_each_extension(
    partials: &FlatPartials,
    next: &PostingList,
    mut f: impl FnMut(TraceId, &[Ts], Ts),
) {
    let mut cursor = next.cursor();
    let (mut current, mut run): (Option<TraceId>, &[(Ts, Ts)]) = (None, &[]);
    for (trace, row) in partials.rows() {
        if current != Some(trace) {
            current = Some(trace);
            run = cursor.seek(trace);
        }
        let Some(&last) = row.last() else { continue };
        run = run.get(gallop(run, |&(a, _)| a < last)..).unwrap_or_default();
        if let Some(&(a, b)) = run.first() {
            if a == last {
                f(trace, row, b);
            }
        }
    }
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

    /// Algorithm 2's literal pseudocode — for every partial, scan the next
    /// pair's whole posting list — kept as the reference the production
    /// merge join is compared against.
    fn nested_loop_completions<S: KvStore>(
        ctx: &ReadCtx<'_, S>,
        pattern: &Pattern,
        mut on_prefix: Option<&mut Vec<DetectResult>>,
    ) -> Result<DetectResult> {
        fn collect(partials: &[(TraceId, Vec<Ts>)]) -> DetectResult {
            let mut matches: Vec<PatternMatch> = partials
                .iter()
                .map(|(trace, p)| PatternMatch { trace: *trace, timestamps: p.clone() })
                .collect();
            matches.sort_by_key(|m| (m.trace, m.end()));
            DetectResult { matches, coverage: Coverage::Full }
        }
        let lists: Vec<Arc<PostingList>> = pattern
            .consecutive_pairs()
            .map(|(a, b)| ctx.postings(Activity::pair_key(a, b)))
            .collect::<Result<_>>()?;
        let mut partials: Vec<(TraceId, Vec<Ts>)> =
            lists[0].iter().map(|(trace, a, b)| (trace, vec![a, b])).collect();
        if let Some(prefixes) = on_prefix.as_deref_mut() {
            prefixes.push(collect(&partials));
        }
        for next in &lists[1..] {
            let mut extended = Vec::new();
            for (trace, part) in &partials {
                let last = *part.last().unwrap();
                for (t, a, b) in next.iter() {
                    if t == *trace && a == last {
                        let mut next_part = part.clone();
                        next_part.push(b);
                        extended.push((t, next_part));
                    }
                }
            }
            partials = extended;
            if let Some(prefixes) = on_prefix.as_deref_mut() {
                prefixes.push(collect(&partials));
            }
        }
        Ok(collect(&partials))
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// `traces` indexed under `policy`, as one batch or split at the
        /// event positions `cuts` into batches that extend the same traces,
        /// optionally partitioned by `period`.
        fn build(
            traces: &[Vec<u32>],
            policy: Policy,
            cuts: &[usize],
            period: Option<Ts>,
        ) -> Indexer {
            let mut cfg = IndexConfig::new(policy);
            if let Some(p) = period {
                cfg = cfg.with_partition_period(p);
            }
            let mut ix = Indexer::new(cfg);
            let mut bounds: Vec<usize> = cuts.to_vec();
            bounds.sort_unstable();
            bounds.push(usize::MAX);
            let mut lo = 0;
            for hi in bounds {
                let mut b = EventLogBuilder::new();
                for (t, acts) in traces.iter().enumerate() {
                    for (i, a) in acts.iter().enumerate().take(hi).skip(lo) {
                        b.add(&format!("t{t}"), &format!("a{a}"), i as Ts + 1);
                    }
                }
                ix.index_log(&b.build()).unwrap();
                lo = hi;
            }
            ix
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn merge_join_equals_nested_loop_reference(
                traces in prop::collection::vec(prop::collection::vec(0u32..5, 0..=40), 0..=12),
                pat in prop::collection::vec(0u32..5, 2..=6),
                cuts in prop::collection::vec(0usize..=40, 1..=3),
                period in 1u64..=12,
            ) {
                let layouts: [(&[usize], Option<Ts>); 3] =
                    [(&[], None), (&cuts, None), (&cuts, Some(period))];
                for policy in [Policy::StrictContiguity, Policy::SkipTillNextMatch] {
                    for (cuts, period) in layouts {
                        let ix = build(&traces, policy, cuts, period);
                        let store = ix.store();
                        let tables = seqdet_core::indexer::active_index_tables(store.as_ref());
                        let ctx = ReadCtx::plain(store.as_ref(), &tables);
                        let at = format!("{policy:?} cuts {cuts:?} period {period:?}");
                        // An activity the log never drew has no catalog id
                        // and no postings; any unused id stands in for it.
                        let pattern = Pattern::new(
                            pat.iter()
                                .map(|a| {
                                    ix.catalog().activity(&format!("a{a}")).unwrap_or(Activity(u32::MAX))
                                })
                                .collect(),
                        );

                        // The order the merge relies on: by (trace, ts_a),
                        // with ts_b ascending inside a trace's run.
                        let mut common: Option<BTreeSet<TraceId>> = None;
                        for (a, b) in pattern.consecutive_pairs() {
                            let list = ctx.postings(Activity::pair_key(a, b)).unwrap();
                            let rows: Vec<_> = list.iter().collect();
                            prop_assert!(
                                rows.windows(2).all(|w| w[0].0 < w[1].0
                                    || (w[0].0 == w[1].0 && w[0].1 < w[1].1 && w[0].2 < w[1].2)),
                                "{}: {:?}", at, rows
                            );
                            let set: BTreeSet<TraceId> = rows.iter().map(|r| r.0).collect();
                            common = Some(common.map_or(set.clone(), |c| &c & &set));
                        }
                        let all = ctx.traces_with_all(pattern.consecutive_pairs()).unwrap();
                        prop_assert_eq!(all, common.unwrap().into_iter().collect::<Vec<_>>(), "{}", at);

                        let expected = nested_loop_completions(&ctx, &pattern, None).unwrap();
                        let got = get_completions(&ctx, &pattern, None).unwrap();
                        prop_assert_eq!(&got, &expected, "{}", at);

                        let (mut want, mut prefixes) = (Vec::new(), Vec::new());
                        nested_loop_completions(&ctx, &pattern, Some(&mut want)).unwrap();
                        let got = get_completions(&ctx, &pattern, Some(&mut prefixes)).unwrap();
                        prop_assert_eq!(&got, &expected, "{}", at);
                        prop_assert_eq!(&prefixes, &want, "{}", at);
                        prop_assert_eq!(prefixes.len(), pattern.len() - 1);
                    }
                }
            }
        }
    }
}
