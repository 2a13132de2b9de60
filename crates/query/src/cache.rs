//! Sharded, capacity-bounded query-side posting cache.
//!
//! Pattern queries read the same `Index` rows over and over: every
//! consecutive pair of every detection, continuation and STAM query turns
//! into a posting-list fetch, and workloads repeat patterns (a continuation
//! query reads the pattern's pairs plus one `(last, candidate)` row per
//! candidate).
//! This cache keeps the postings of recently used `(table, pair)` rows
//! **already decoded and sorted by `(trace, ts_a)`** (a [`PostingList`]:
//! a trace column beside a `(ts_a, ts_b)` column) — the exact shape the
//! merge join walks — so a warm query skips the row fetch, the block decode
//! and the re-sort entirely: the varint blocks are expanded once on miss
//! and never re-decoded on a hit.
//!
//! ## Consistency
//!
//! Entries are stamped with the store's *index generation*
//! ([`seqdet_core::index_generation`]), a counter the indexer bumps on every
//! mutation (new batch, partition drop, trace prune). A lookup only hits
//! when the entry's stamp equals the caller's current generation; stale
//! entries are dropped on sight, so a cached posting list is **never**
//! served across an index update.
//!
//! ## Structure
//!
//! The map is striped across [`SHARDS`] mutexes so concurrent queries (the
//! server spawns one thread per connection) don't serialize on a single
//! lock. Capacity is bounded per shard; eviction is least-recently-used by
//! a global logical tick. Capacity `0` disables caching entirely — every
//! lookup misses silently and nothing is stored, which is also the
//! cold-path configuration the benchmarks compare against.

use parking_lot::Mutex;
use seqdet_core::PairKey;
use seqdet_log::{TraceId, Ts};
use seqdet_storage::{FxHashMap, StoreMetrics, TableId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Decoded postings of one `(table, pair)` row as two parallel columns — the
/// trace of each posting and its `(ts_a, ts_b)` — sorted by `(trace, ts_a)`.
///
/// Greedy pairs never intertwine, so within one trace `ts_b` ascends with
/// `ts_a`: a trace's run is sorted on both timestamps, which is what lets
/// the join extend sorted partials with a forward-only merge. The trace
/// column is what a `Cursor` gallops over; at 20 B per posting the columns
/// are also the smallest shape the cache can hold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingList {
    traces: Vec<TraceId>,
    spans: Vec<(Ts, Ts)>,
}

impl PostingList {
    /// Build a list from decoded postings, in any order. A row chunk the
    /// indexer appended is sorted by `(trace, ts_a)`, so a one-chunk row
    /// costs one verification pass while the columns fill; a row several
    /// batches appended to, or the per-partition lists a multi-partition
    /// read concatenates, is sorted once.
    pub fn from_postings(postings: impl IntoIterator<Item = (TraceId, Ts, Ts)>) -> Self {
        let postings = postings.into_iter();
        let mut list = PostingList {
            traces: Vec::with_capacity(postings.size_hint().0),
            spans: Vec::with_capacity(postings.size_hint().0),
        };
        let (mut sorted, mut prev) = (true, None);
        for (trace, a, b) in postings {
            sorted &= prev <= Some((trace, a));
            prev = Some((trace, a));
            list.traces.push(trace);
            list.spans.push((a, b));
        }
        // Cached lists are long-lived, so both columns end exact-size: an
        // iterator without an exact size hint over-allocates while pushing,
        // and an in-place `into_iter().map().collect()` would keep the
        // wider tuples' allocation.
        if sorted {
            list.traces.shrink_to_fit();
            list.spans.shrink_to_fit();
        } else {
            let mut rows: Vec<_> = list.iter().collect();
            rows.sort_unstable();
            list.traces = rows.iter().map(|&(t, _, _)| t).collect();
            list.spans = rows.iter().map(|&(_, a, b)| (a, b)).collect();
        }
        list
    }

    /// Total postings across all traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when the pair has no postings at all.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Every `(trace, ts_a, ts_b)` posting, ascending by `(trace, ts_a)`.
    pub fn iter(&self) -> impl Iterator<Item = (TraceId, Ts, Ts)> + '_ {
        self.traces.iter().zip(&self.spans).map(|(&t, &(a, b))| (t, a, b))
    }

    /// Distinct traces with at least one occurrence, ascending.
    pub fn traces(&self) -> impl Iterator<Item = TraceId> + '_ {
        self.traces.chunk_by(|a, b| a == b).filter_map(|run| run.first().copied())
    }

    /// A forward-only reader positioned at the first trace.
    pub(crate) fn cursor(&self) -> Cursor<'_> {
        Cursor { traces: &self.traces, spans: &self.spans }
    }

    /// Keep the traces of `traces` (ascending) that have an occurrence
    /// here: one galloping walk over the trace column.
    pub(crate) fn retain_traces(&self, traces: &mut Vec<TraceId>) {
        let mut cursor = self.cursor();
        traces.retain(|&t| !cursor.seek(t).is_empty());
    }
}

/// Forward-only reader of a [`PostingList`]: the unread suffix of both
/// columns. Traces must be sought in ascending order; each seek gallops
/// from where the previous one stopped, so visiting `k` of a list's traces
/// costs `O(k log(n / k))`, not `k` binary searches over the whole list.
pub(crate) struct Cursor<'a> {
    traces: &'a [TraceId],
    spans: &'a [(Ts, Ts)],
}

impl<'a> Cursor<'a> {
    /// The `(ts_a, ts_b)` run of `trace` (empty when it has none), leaving
    /// the cursor just past it.
    pub(crate) fn seek(&mut self, trace: TraceId) -> &'a [(Ts, Ts)] {
        let start = gallop(self.traces, |&t| t < trace);
        let from = self.traces.get(start..).unwrap_or_default();
        let len = gallop(from, |&t| t == trace);
        let (run, spans) =
            self.spans.get(start..).and_then(|s| s.split_at_checked(len)).unwrap_or_default();
        self.traces = from.get(len..).unwrap_or_default();
        self.spans = spans;
        run
    }
}

/// Partition point of `s` under `pred` (true on a prefix, false after),
/// found by doubling a probe from the front and then binary-searching the
/// last doubling: `O(log d)` for a boundary `d` elements in.
pub(crate) fn gallop<T>(s: &[T], pred: impl Fn(&T) -> bool) -> usize {
    let mut bound = 1;
    while s.get(bound - 1).is_some_and(&pred) {
        bound *= 2;
    }
    let lo = bound / 2;
    lo + s.get(lo..bound.min(s.len())).map_or(0, |w| w.partition_point(&pred))
}

/// Number of lock stripes (power of two).
const SHARDS: usize = 16;

struct Entry {
    postings: Arc<PostingList>,
    /// Index generation the postings were read under.
    generation: u64,
    /// Logical time of the last hit (or the insert), for LRU eviction.
    last_used: u64,
}

type Shard = FxHashMap<(TableId, PairKey), Entry>;

/// Point-in-time counters of a [`PostingCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to fall through to the store.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Entries dropped because their generation was stale (including bulk
    /// invalidation on a detected index update).
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries (0 = caching disabled).
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The query-side posting cache. See the module docs.
pub struct PostingCache {
    shards: Vec<Mutex<Shard>>,
    /// Max entries per shard; 0 disables the cache.
    per_shard: usize,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    /// Optional mirror into the store-level metrics sink, so cache behavior
    /// is observable next to get/put counts.
    metrics: Option<Arc<StoreMetrics>>,
}

impl std::fmt::Debug for PostingCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PostingCache").field("stats", &self.stats()).finish()
    }
}

impl PostingCache {
    /// Cache bounded to roughly `capacity` entries (`0` disables it).
    pub fn new(capacity: usize) -> Self {
        let per_shard = if capacity == 0 { 0 } else { capacity.div_ceil(SHARDS) };
        PostingCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard,
            capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            metrics: None,
        }
    }

    /// Mirror hit/miss/eviction/invalidation counts into `metrics`.
    pub fn set_metrics(&mut self, metrics: Arc<StoreMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Whether lookups can ever hit (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.per_shard > 0
    }

    /// Configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, table: TableId, key: PairKey) -> &Mutex<Shard> {
        let h = seqdet_storage::fxhash::hash_u64(key ^ (table.0 as u64).rotate_left(32));
        &self.shards[(h as usize) & (SHARDS - 1)]
    }

    /// Look up the decoded postings of `(table, key)` as read under
    /// `generation`. A resident entry with a different generation is
    /// discarded (never served) and counts as an invalidation + miss.
    pub fn get(&self, table: TableId, key: PairKey, generation: u64) -> Option<Arc<PostingList>> {
        if !self.is_enabled() {
            return None;
        }
        let mut shard = self.shard(table, key).lock();
        match shard.get_mut(&(table, key)) {
            Some(e) if e.generation == generation => {
                e.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                let postings = Arc::clone(&e.postings);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.record_cache_hit();
                }
                Some(postings)
            }
            Some(_) => {
                shard.remove(&(table, key));
                drop(shard);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.record_cache_invalidation();
                    m.record_cache_miss();
                }
                None
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.record_cache_miss();
                }
                None
            }
        }
    }

    /// Insert (or refresh) the decoded postings of `(table, key)` read under
    /// `generation`, evicting the shard's least-recently-used entry when the
    /// capacity bound is reached. No-op when disabled.
    pub fn insert(
        &self,
        table: TableId,
        key: PairKey,
        generation: u64,
        postings: Arc<PostingList>,
    ) {
        if !self.is_enabled() {
            return;
        }
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(table, key).lock();
        if !shard.contains_key(&(table, key)) && shard.len() >= self.per_shard {
            if let Some(victim) = shard.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k) {
                shard.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.record_cache_eviction();
                }
            }
        }
        shard.insert((table, key), Entry { postings, generation, last_used: now });
    }

    /// Drop every resident entry (counted as invalidations). Called when an
    /// index update is detected; the generation stamps already guarantee
    /// stale entries are never *served*, this just frees their memory.
    pub fn invalidate_all(&self) {
        let mut dropped = 0u64;
        for s in &self.shards {
            let mut shard = s.lock();
            dropped += shard.len() as u64;
            shard.clear();
        }
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            for _ in 0..dropped {
                m.record_cache_invalidation();
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grouped(trace: u32, occs: &[(Ts, Ts)]) -> Arc<PostingList> {
        Arc::new(PostingList::from_postings(occs.iter().map(|&(a, b)| (TraceId(trace), a, b))))
    }

    #[test]
    fn out_of_order_postings_come_out_sorted_by_trace_then_ts_a() {
        let l = PostingList::from_postings(vec![
            (TraceId(5), 10, 11),
            (TraceId(2), 3, 4),
            (TraceId(2), 1, 2),
            (TraceId(9), 7, 8),
        ]);
        assert_eq!(l.len(), 4);
        let want =
            [(TraceId(2), 1, 2), (TraceId(2), 3, 4), (TraceId(5), 10, 11), (TraceId(9), 7, 8)];
        assert_eq!(l.iter().collect::<Vec<_>>(), want);
        assert_eq!(l.traces().collect::<Vec<_>>(), vec![TraceId(2), TraceId(5), TraceId(9)]);
        // Already-sorted input is taken as is.
        assert_eq!(PostingList::from_postings(want), l);
        // Both columns are exact-size, whatever the input's size hint.
        let unsized_input = PostingList::from_postings(want.into_iter().filter(|_| true));
        for list in [&l, &unsized_input] {
            assert_eq!(list.traces.capacity(), list.len());
            assert_eq!(list.spans.capacity(), list.len());
        }

        let mut cursor = l.cursor();
        assert_eq!(cursor.seek(TraceId(0)), &[]);
        assert_eq!(cursor.seek(TraceId(2)), &[(1, 2), (3, 4)]);
        assert_eq!(cursor.seek(TraceId(4)), &[]);
        assert_eq!(cursor.seek(TraceId(9)), &[(7, 8)]);
        assert_eq!(cursor.seek(TraceId(10)), &[]);

        let mut traces = vec![TraceId(1), TraceId(2), TraceId(3), TraceId(9)];
        l.retain_traces(&mut traces);
        assert_eq!(traces, vec![TraceId(2), TraceId(9)]);
        assert!(PostingList::default().is_empty());
        assert_eq!(PostingList::default().traces().count(), 0);
        assert_eq!(PostingList::default().cursor().seek(TraceId(0)), &[]);
    }

    #[test]
    fn gallop_finds_the_partition_point() {
        let s: Vec<u32> = (0..100).collect();
        for cut in 0..=101 {
            assert_eq!(gallop(&s, |&x| x < cut), s.partition_point(|&x| x < cut), "cut {cut}");
        }
        assert_eq!(gallop(&[] as &[u32], |_| true), 0);
    }

    #[test]
    fn hit_after_insert_same_generation() {
        let c = PostingCache::new(64);
        let t = TableId(1);
        assert!(c.get(t, 7, 0).is_none());
        c.insert(t, 7, 0, grouped(1, &[(1, 2)]));
        let g = c.get(t, 7, 0).expect("hit");
        assert_eq!(g.iter().collect::<Vec<_>>(), [(TraceId(1), 1, 2)]);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stale_generation_is_never_served() {
        let c = PostingCache::new(64);
        let t = TableId(1);
        c.insert(t, 7, 0, grouped(1, &[(1, 2)]));
        assert!(c.get(t, 7, 1).is_none(), "generation 1 must not see generation 0 postings");
        // The stale entry is gone: a same-generation retry also misses.
        assert!(c.get(t, 7, 0).is_none());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn capacity_zero_disables() {
        let c = PostingCache::new(0);
        assert!(!c.is_enabled());
        c.insert(TableId(1), 7, 0, grouped(1, &[(1, 2)]));
        assert!(c.get(TableId(1), 7, 0).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn lru_eviction_within_capacity_bound() {
        // Capacity 16 → 1 entry per shard; two keys landing in the same
        // shard evict each other, LRU first.
        let c = PostingCache::new(16);
        let t = TableId(1);
        // Find two keys that share a shard.
        let base = 1u64;
        let mut other = None;
        for k in 2u64..10_000 {
            if std::ptr::eq(c.shard(t, base), c.shard(t, k)) {
                other = Some(k);
                break;
            }
        }
        let other = other.expect("some key shares a shard");
        c.insert(t, base, 0, grouped(1, &[(1, 2)]));
        c.insert(t, other, 0, grouped(2, &[(3, 4)]));
        assert!(c.get(t, base, 0).is_none(), "LRU entry evicted");
        assert!(c.get(t, other, 0).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidate_all_clears_everything() {
        let c = PostingCache::new(64);
        for k in 0..10u64 {
            c.insert(TableId(1), k, 0, grouped(k as u32, &[(k, k + 1)]));
        }
        assert_eq!(c.len(), 10);
        c.invalidate_all();
        assert!(c.is_empty());
        assert_eq!(c.stats().invalidations, 10);
    }

    #[test]
    fn mirrors_into_store_metrics() {
        let metrics = Arc::new(StoreMetrics::new());
        let mut c = PostingCache::new(64);
        c.set_metrics(Arc::clone(&metrics));
        let t = TableId(1);
        c.get(t, 7, 0); // miss
        c.insert(t, 7, 0, grouped(1, &[(1, 2)]));
        c.get(t, 7, 0); // hit
        c.get(t, 7, 1); // stale → invalidation + miss
        assert_eq!(metrics.cache_hits(), 1);
        assert_eq!(metrics.cache_misses(), 2);
        assert_eq!(metrics.cache_invalidations(), 1);
    }
}
