//! The query-processor facade.

use crate::anymatch::{self, AnyMatchResult};
use crate::cache::{CacheStats, PostingCache};
use crate::continuation::{self, ContinuationMethod, Proposition};
use crate::detect::{self, DetectResult, ReadCtx};
use crate::stats::{self, PatternStats};
use crate::{richpat, QueryError, Result};
use parking_lot::RwLock;
use seqdet_core::indexer::active_index_tables;
use seqdet_core::{check_posting_format, index_generation, index_policy, Catalog, Policy};
use seqdet_log::{Pattern, RichPattern};
use seqdet_storage::{Coverage, KvStore, StoreMetrics, TableId};
use std::sync::Arc;

/// Bound on resident posting-cache entries.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Partition layout and catalog as of one index generation.
struct Layout {
    generation: u64,
    tables: Vec<TableId>,
    catalog: Arc<Catalog>,
}

/// The query processor: loads the catalog and partition layout from an
/// indexed store and answers pattern queries against it.
///
/// The engine is read-only over the index. Posting lists are served through
/// a sharded, generation-stamped [`PostingCache`] and decoded on miss with
/// the core decode kernel; every query runs on the calling thread — the
/// pairwise join and the per-trace evaluator of rich patterns and
/// any-match alike. Before every query (and every [`QueryEngine::catalog`]
/// read) the engine compares the store's [`index_generation`] against its
/// snapshot and, on a change, reloads the partition layout *and the
/// catalog* and invalidates the cache — so queries keep answering
/// correctly across index updates, and activity or trace names interned by
/// a concurrently running indexer resolve without re-opening the engine.
pub struct QueryEngine<S: KvStore> {
    store: Arc<S>,
    layout: RwLock<Layout>,
    cache: PostingCache,
    metrics: Option<Arc<StoreMetrics>>,
}

impl<S: KvStore> QueryEngine<S> {
    /// Open a query engine over an indexed store, with a posting cache of
    /// [`DEFAULT_CACHE_CAPACITY`] rows. A store in the legacy v1 posting
    /// format is refused here ([`check_posting_format`]), not mid-query.
    pub fn new(store: Arc<S>) -> Result<Self> {
        check_posting_format(store.as_ref())?;
        let catalog = Arc::new(Catalog::load(store.as_ref())?);
        let generation = index_generation(store.as_ref());
        let tables = active_index_tables(store.as_ref());
        Ok(Self {
            store,
            layout: RwLock::new(Layout { generation, tables, catalog }),
            cache: PostingCache::new(DEFAULT_CACHE_CAPACITY),
            metrics: None,
        })
    }

    /// Record cursor decodes and cache hits/misses/evictions/invalidations
    /// into `metrics` (typically shared with the store that carries the
    /// get/put counters).
    pub fn with_metrics(mut self, metrics: Arc<StoreMetrics>) -> Self {
        self.cache.set_metrics(Arc::clone(&metrics));
        self.metrics = Some(metrics);
        self
    }

    /// The current catalog. Re-checks the store's index generation first,
    /// so names interned by a concurrent indexer resolve as soon as their
    /// batch commits (the generation-checked "live catalog" the serving
    /// layer depends on).
    pub fn catalog(&self) -> Arc<Catalog> {
        self.refresh();
        self.layout.read().catalog.clone()
    }

    /// Point-in-time posting-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Resolve a pattern from activity names; errors on unknown names
    /// (an unknown activity trivially has zero completions, but callers
    /// almost always want to hear about the typo instead).
    pub fn pattern(&self, names: &[&str]) -> Result<Pattern> {
        let catalog = self.catalog();
        let mut acts = Vec::with_capacity(names.len());
        for n in names {
            acts.push(
                catalog.activity(n).ok_or_else(|| QueryError::UnknownActivity((*n).to_owned()))?,
            );
        }
        Ok(Pattern::new(acts))
    }

    /// Bring the cached layout + catalog up to the store's current index
    /// generation. On a change the posting cache is flushed; entries are
    /// generation-stamped anyway, so even a racing writer can never cause
    /// a stale posting list to be served.
    fn refresh(&self) {
        let generation = index_generation(self.store.as_ref());
        {
            let layout = self.layout.read();
            if layout.generation == generation {
                return;
            }
        }
        let mut layout = self.layout.write();
        if layout.generation != generation {
            self.cache.invalidate_all();
            layout.generation = generation;
            layout.tables = active_index_tables(self.store.as_ref());
            // Live catalog: names interned since the last load become
            // resolvable. On a decode failure the previous catalog stays in
            // place — queries degrade to unknown-activity errors instead of
            // panicking the request path.
            if let Ok(catalog) = Catalog::load(self.store.as_ref()) {
                layout.catalog = Arc::new(catalog);
            }
            if let Some(m) = &self.metrics {
                m.server().record_catalog_reload();
            }
        }
    }

    /// Current generation + partition layout, refreshed from the store
    /// when the indexer has mutated the index since the last query.
    fn snapshot(&self) -> (u64, Vec<TableId>) {
        self.refresh();
        let layout = self.layout.read();
        (layout.generation, layout.tables.clone())
    }

    fn ctx<'a>(&'a self, generation: u64, tables: &'a [TableId]) -> ReadCtx<'a, S> {
        ReadCtx {
            store: self.store.as_ref(),
            tables,
            cache: Some(&self.cache),
            generation,
            metrics: self.metrics.as_deref(),
        }
    }

    /// How complete the store's answers currently are. Narrowed coverage
    /// means part of the persisted index was quarantined after corruption:
    /// queries keep working against the surviving data, and every result
    /// this engine returns carries the same annotation.
    pub fn coverage(&self) -> Coverage {
        self.store.coverage()
    }

    /// Run `query` and determine the coverage its answer should carry.
    /// The store is sampled before *and* after execution and the narrowed
    /// view wins: a quarantine landing mid-query may have hidden data from
    /// the reads (after is narrowed), while a mid-query repair means the
    /// reads may have started against the narrowed tier (before is
    /// narrowed). Either way the annotation errs toward `Narrowed`.
    fn stamped<T>(&self, query: impl FnOnce() -> Result<T>) -> Result<(T, Coverage)> {
        let before = self.store.coverage();
        let value = query()?;
        let coverage = if before.is_full() { self.store.coverage() } else { before };
        Ok((value, coverage))
    }

    /// **Pattern detection** (Algorithm 2): all completions of `pattern`.
    /// Length-1 patterns fall back to a `Seq` scan (see
    /// [`crate::detect`]); the empty pattern is rejected.
    pub fn detect(&self, pattern: &Pattern) -> Result<DetectResult> {
        let (mut result, coverage) = self.stamped(|| match pattern.activities() {
            [] => Err(QueryError::PatternTooShort { required: 1, actual: 0 }),
            &[single] => detect::detect_single(self.store.as_ref(), single),
            _ => {
                let (generation, tables) = self.snapshot();
                detect::get_completions(&self.ctx(generation, &tables), pattern, None)
            }
        })?;
        result.coverage = coverage;
        Ok(result)
    }

    /// Pattern detection that also returns every prefix's completions
    /// (`⟨ev1,ev2⟩`, `⟨ev1,ev2,ev3⟩`, …) — the incremental by-product the
    /// paper contrasts against restart-from-scratch engines. Entry `i`
    /// holds the matches of the prefix of length `i + 2`; the last entry is
    /// the full pattern's result.
    pub fn detect_prefixes(&self, pattern: &Pattern) -> Result<Vec<DetectResult>> {
        if pattern.len() < 2 {
            return Err(QueryError::PatternTooShort { required: 2, actual: pattern.len() });
        }
        let (mut prefixes, coverage) = self.stamped(|| {
            let (generation, tables) = self.snapshot();
            let mut prefixes = Vec::with_capacity(pattern.len() - 1);
            detect::get_completions(&self.ctx(generation, &tables), pattern, Some(&mut prefixes))?;
            Ok(prefixes)
        })?;
        for p in &mut prefixes {
            p.coverage = coverage.clone();
        }
        Ok(prefixes)
    }

    /// **Statistics** over the consecutive pairs of `pattern`.
    pub fn stats(&self, pattern: &Pattern) -> Result<PatternStats> {
        stats::pattern_stats(self.store.as_ref(), pattern)
    }

    /// Statistics over all ordered pattern pairs — the tighter, slower
    /// completion bound of §3.2.1.
    pub fn stats_all_pairs(&self, pattern: &Pattern) -> Result<PatternStats> {
        stats::pattern_stats_all_pairs(self.store.as_ref(), pattern)
    }

    /// **Pattern continuation**: ranked next-event propositions.
    pub fn continuations(
        &self,
        pattern: &Pattern,
        method: ContinuationMethod,
    ) -> Result<Vec<Proposition>> {
        if pattern.is_empty() {
            return Err(QueryError::PatternTooShort { required: 1, actual: 0 });
        }
        match method {
            ContinuationMethod::Accurate { max_gap } => {
                let (generation, tables) = self.snapshot();
                continuation::accurate(&self.ctx(generation, &tables), pattern, max_gap)
            }
            ContinuationMethod::Fast => continuation::fast(self.store.as_ref(), pattern),
            ContinuationMethod::Hybrid { k, max_gap } => {
                let (generation, tables) = self.snapshot();
                continuation::hybrid(&self.ctx(generation, &tables), pattern, k, max_gap)
            }
        }
    }

    /// §7 extension: continuation with the candidate inserted at position
    /// `pos` (0 = front, `pattern.len()` = append). Always exact.
    pub fn continuations_at(&self, pattern: &Pattern, pos: usize) -> Result<Vec<Proposition>> {
        if pattern.is_empty() {
            return Err(QueryError::PatternTooShort { required: 1, actual: 0 });
        }
        let (generation, tables) = self.snapshot();
        continuation::accurate_at(&self.ctx(generation, &tables), pattern, pos)
    }

    /// The policy the store's pairs were created under.
    pub fn policy(&self) -> Policy {
        index_policy(self.store.as_ref())
    }

    /// Rich patterns assume skip-till semantics (anchors may be separated
    /// by irrelevant events); an SC store's adjacent-only pairs would miss
    /// candidates, so reject up front with a clear error.
    fn check_rich_supported(&self) -> Result<()> {
        if self.policy() == Policy::StrictContiguity {
            return Err(QueryError::InvalidPattern(
                "rich patterns (Kleene/negation/predicates/window) need an STNM index; \
                 this store was indexed under SC"
                    .into(),
            ));
        }
        Ok(())
    }

    /// **Rich-pattern detection**: Kleene plus, negation, per-event
    /// predicates and an optional `WITHIN` window, compiled onto the pair
    /// index (skeleton candidates + per-trace evaluator — see
    /// [`crate::richpat`]). Returns greedy non-overlapping canonical
    /// matches; reported timestamps are the positive elements' anchors.
    pub fn detect_rich(
        &self,
        pattern: &RichPattern,
        within: Option<seqdet_log::Ts>,
    ) -> Result<DetectResult> {
        self.check_rich_supported()?;
        let (mut result, coverage) = self.stamped(|| {
            let (generation, tables) = self.snapshot();
            richpat::detect_rich(&self.ctx(generation, &tables), pattern, within)
        })?;
        result.coverage = coverage;
        Ok(result)
    }

    /// Rich-pattern skip-till-any-match: exact count of valid anchor
    /// assignments per trace (saturating) plus up to `enumerate_limit`
    /// example matches, under the same operator set as
    /// [`QueryEngine::detect_rich`] — including `WITHIN`, which the plain
    /// [`QueryEngine::detect_any_match`] does not support.
    pub fn detect_rich_any(
        &self,
        pattern: &RichPattern,
        within: Option<seqdet_log::Ts>,
        enumerate_limit: usize,
    ) -> Result<AnyMatchResult> {
        self.check_rich_supported()?;
        let (mut result, coverage) = self.stamped(|| {
            let (generation, tables) = self.snapshot();
            richpat::any_match_rich(
                &self.ctx(generation, &tables),
                pattern,
                within,
                enumerate_limit,
            )
        })?;
        result.coverage = coverage;
        Ok(result)
    }

    /// §7 extension: skip-till-any-match detection with exact embedding
    /// counts and up to `enumerate_limit` example embeddings per trace.
    pub fn detect_any_match(
        &self,
        pattern: &Pattern,
        enumerate_limit: usize,
    ) -> Result<AnyMatchResult> {
        if pattern.len() < 2 {
            return Err(QueryError::PatternTooShort { required: 2, actual: pattern.len() });
        }
        let (mut result, coverage) = self.stamped(|| {
            let (generation, tables) = self.snapshot();
            anymatch::detect_any_match(&self.ctx(generation, &tables), pattern, enumerate_limit)
        })?;
        result.coverage = coverage;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdet_core::{IndexConfig, Indexer, Policy};
    use seqdet_log::EventLogBuilder;

    fn engine() -> QueryEngine<seqdet_storage::MemStore> {
        let mut b = EventLogBuilder::new();
        for (act, ts) in [("A", 1), ("A", 2), ("B", 3), ("A", 4), ("B", 5), ("A", 6)] {
            b.add("t1", act, ts);
        }
        b.add("t2", "A", 1).add("t2", "B", 2).add("t2", "C", 3);
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&b.build()).unwrap();
        QueryEngine::new(ix.store()).unwrap()
    }

    #[test]
    fn end_to_end_detection() {
        let e = engine();
        let p = e.pattern(&["A", "B"]).unwrap();
        assert_eq!(e.detect(&p).unwrap().total_completions(), 3);
        let p3 = e.pattern(&["A", "B", "C"]).unwrap();
        assert_eq!(e.detect(&p3).unwrap().total_completions(), 1);
    }

    #[test]
    fn unknown_activity_is_an_error() {
        let e = engine();
        match e.pattern(&["A", "ZZZ"]) {
            Err(QueryError::UnknownActivity(n)) => assert_eq!(n, "ZZZ"),
            other => panic!("expected UnknownActivity, got {other:?}"),
        }
    }

    #[test]
    fn empty_pattern_rejected_everywhere() {
        let e = engine();
        let empty = Pattern::new(vec![]);
        assert!(matches!(e.detect(&empty), Err(QueryError::PatternTooShort { .. })));
        assert!(matches!(
            e.continuations(&empty, ContinuationMethod::Fast),
            Err(QueryError::PatternTooShort { .. })
        ));
        assert!(matches!(e.detect_any_match(&empty, 1), Err(QueryError::PatternTooShort { .. })));
        assert!(matches!(e.detect_prefixes(&empty), Err(QueryError::PatternTooShort { .. })));
    }

    #[test]
    fn single_event_detection_falls_back() {
        let e = engine();
        let p = e.pattern(&["C"]).unwrap();
        assert_eq!(e.detect(&p).unwrap().total_completions(), 1);
    }

    #[test]
    fn prefixes_end_with_full_result() {
        let e = engine();
        let p = e.pattern(&["A", "B", "C"]).unwrap();
        let prefixes = e.detect_prefixes(&p).unwrap();
        assert_eq!(prefixes.len(), 2);
        assert_eq!(prefixes[1], e.detect(&p).unwrap());
        assert!(prefixes[0].total_completions() >= prefixes[1].total_completions());
    }

    #[test]
    fn stats_and_continuations_run() {
        let e = engine();
        let p = e.pattern(&["A", "B"]).unwrap();
        let s = e.stats(&p).unwrap();
        assert_eq!(s.pairs.len(), 1);
        assert_eq!(s.max_completions, 3);
        let props = e.continuations(&p, ContinuationMethod::Fast).unwrap();
        assert!(!props.is_empty());
        let props =
            e.continuations(&p, ContinuationMethod::Hybrid { k: 1, max_gap: None }).unwrap();
        assert!(!props.is_empty());
        // Inserting between A and B: ⟨A,B,B⟩ completes once in t1 via
        // (A,B)=(1,3) ⋈ (B,B)=(3,5); ⟨A,A,B⟩ never joins.
        let at = e.continuations_at(&p, 1).unwrap();
        let b = e.catalog().activity("B").unwrap();
        let a = e.catalog().activity("A").unwrap();
        assert_eq!(at.iter().find(|pr| pr.activity == b).unwrap().completions, 1);
        assert_eq!(at.iter().find(|pr| pr.activity == a).unwrap().completions, 0);
    }

    /// The `Detection` answer of a `DETECT` statement.
    fn detection(e: &QueryEngine<seqdet_storage::MemStore>, statement: &str) -> DetectResult {
        match crate::lang::run(e, statement).unwrap() {
            crate::QueryOutput::Detection(r) => r,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn windowed_detection_filters_wide_matches() {
        let mut b = EventLogBuilder::new();
        b.add("quick", "A", 1).add("quick", "B", 3);
        b.add("slow", "A", 1).add("slow", "B", 100);
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&b.build()).unwrap();
        let e = QueryEngine::new(ix.store()).unwrap();
        let p = e.pattern(&["A", "B"]).unwrap();
        assert_eq!(e.detect(&p).unwrap().total_completions(), 2);
        let r = detection(&e, "DETECT A -> B WITHIN 10");
        assert_eq!(r.total_completions(), 1);
        assert_eq!(r.matches[0].timestamps, vec![1, 3]);
        // A window large enough admits everything. A one-event match spans
        // 0, so a length-1 pattern under a window returns every
        // occurrence, as plain detection does.
        assert_eq!(detection(&e, "DETECT A -> B WITHIN 1000").total_completions(), 2);
        let single = e.pattern(&["A"]).unwrap();
        assert_eq!(detection(&e, "DETECT A WITHIN 10"), e.detect(&single).unwrap());
    }

    #[test]
    fn windowed_detection_bounds_the_whole_span() {
        // ⟨A,B,C⟩ where A→B is fast but B→C pushes the span over the
        // window.
        let mut b = EventLogBuilder::new();
        b.add("t", "A", 1).add("t", "B", 2).add("t", "C", 50);
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&b.build()).unwrap();
        let e = QueryEngine::new(ix.store()).unwrap();
        let p = e.pattern(&["A", "B", "C"]).unwrap();
        assert_eq!(e.detect(&p).unwrap().total_completions(), 1);
        assert_eq!(detection(&e, "DETECT A B C WITHIN 10").total_completions(), 0);
        assert_eq!(detection(&e, "DETECT A B C WITHIN 48").total_completions(), 0);
        assert_eq!(detection(&e, "DETECT A B C WITHIN 49").matches[0].timestamps, vec![1, 2, 50]);
    }

    #[test]
    fn detection_over_partitioned_index() {
        let mut b = EventLogBuilder::new();
        b.add("t", "A", 1).add("t", "B", 50).add("t", "C", 120);
        let cfg = IndexConfig::new(Policy::SkipTillNextMatch).with_partition_period(40);
        let mut ix = Indexer::new(cfg);
        ix.index_log(&b.build()).unwrap();
        let e = QueryEngine::new(ix.store()).unwrap();
        let p = e.pattern(&["A", "B", "C"]).unwrap();
        let r = e.detect(&p).unwrap();
        assert_eq!(r.total_completions(), 1);
        assert_eq!(r.matches[0].timestamps, vec![1, 50, 120]);
    }

    #[test]
    fn warm_queries_hit_cache_without_redecoding() {
        let metrics = Arc::new(StoreMetrics::new());
        let mut b = EventLogBuilder::new();
        for t in 0..10 {
            let name = format!("t{t}");
            b.add(&name, "A", t * 10 + 1).add(&name, "B", t * 10 + 2).add(&name, "C", t * 10 + 3);
        }
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&b.build()).unwrap();
        let e = QueryEngine::new(ix.store()).unwrap().with_metrics(Arc::clone(&metrics));
        let p = e.pattern(&["A", "B", "C"]).unwrap();

        let cold = e.detect(&p).unwrap();
        // Cold: both pairs miss and decode.
        assert_eq!(metrics.cache_misses(), 2);
        assert_eq!(metrics.cache_hits(), 0);
        assert_eq!(metrics.cursor_decodes(), 20); // 10 postings per pair

        let warm = e.detect(&p).unwrap();
        assert_eq!(warm, cold);
        // Warm: both pairs hit; nothing decodes again.
        assert_eq!(metrics.cache_hits(), 2);
        assert_eq!(metrics.cache_misses(), 2);
        assert_eq!(metrics.cursor_decodes(), 20);
        assert_eq!(e.cache_stats().entries, 2);
    }

    #[test]
    fn catalog_reloads_on_generation_change() {
        let mut b = EventLogBuilder::new();
        b.add("t1", "A", 1).add("t1", "B", 2);
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&b.build()).unwrap();
        let e = QueryEngine::new(ix.store()).unwrap();
        assert!(matches!(e.pattern(&["NEW"]), Err(QueryError::UnknownActivity(_))));

        // A second batch interns a brand-new activity and trace behind the
        // engine's back.
        let mut b2 = EventLogBuilder::new();
        b2.add("t9", "NEW", 1).add("t9", "B", 2);
        ix.index_log(&b2.build()).unwrap();

        // The generation bump makes the fresh names resolvable without
        // re-opening the engine — the live-catalog contract of the server.
        let p = e.pattern(&["NEW", "B"]).unwrap();
        assert_eq!(e.detect(&p).unwrap().total_completions(), 1);
        assert_eq!(e.catalog().num_traces(), 2);
        assert!(e.catalog().trace("t9").is_some());
    }

    #[test]
    fn index_update_invalidates_and_refreshes() {
        let mut b = EventLogBuilder::new();
        b.add("t1", "A", 1).add("t1", "B", 2);
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&b.build()).unwrap();
        let e = QueryEngine::new(ix.store()).unwrap();
        let p = e.pattern(&["A", "B"]).unwrap();
        assert_eq!(e.detect(&p).unwrap().total_completions(), 1);

        // Second batch (same activities, new trace) behind the engine's back.
        let mut b2 = EventLogBuilder::new();
        b2.add("t2", "A", 10).add("t2", "B", 11);
        ix.index_log(&b2.build()).unwrap();

        // The engine notices the generation bump: no stale posting list.
        assert_eq!(e.detect(&p).unwrap().total_completions(), 2);
        assert!(e.cache_stats().invalidations >= 1);

        // Pruning bumps the generation too (postings are kept — pruned
        // traces stay queryable — but the cache must notice the mutation).
        let inv_before = e.cache_stats().invalidations;
        ix.prune_traces(&["t1"]).unwrap();
        assert_eq!(e.detect(&p).unwrap().total_completions(), 2);
        assert!(e.cache_stats().invalidations > inv_before);
    }
}
