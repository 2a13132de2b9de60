//! Sharded, capacity-bounded query-side posting cache.
//!
//! Pattern queries read the same `Index` rows over and over: every
//! consecutive pair of every detection, continuation and STAM query turns
//! into a posting-list fetch, and workloads repeat patterns (the paper's
//! continuation queries literally re-detect the same prefix per candidate).
//! This cache keeps the postings of recently used `(table, pair)` rows
//! **already decoded and trace-sorted** (a [`PostingList`]) — the exact
//! shape the per-trace join seeks into — so a warm query skips the row
//! fetch, the block decode and the re-sort entirely: the varint blocks are
//! expanded once on miss and never re-decoded on a hit.
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

/// Decoded postings of one `(table, pair)` row, stable-sorted by trace id
/// (posting order preserved within a trace). The flat sorted layout lets the
/// join find a trace's occurrences with a binary-search [`PostingList::seek`]
/// instead of hashing every trace into a map, and it is the shape the cache
/// stores: blocks are decoded once on miss, then every hit serves slices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingList {
    postings: Vec<(TraceId, Ts, Ts)>,
}

impl PostingList {
    /// Build a list from decoded postings, stable-sorting by trace id so
    /// per-trace posting order (the stored order) is preserved. Rows the
    /// indexer wrote are already trace-sorted, so the common case is a
    /// single verification pass with no sort at all.
    pub fn from_postings(mut postings: Vec<(TraceId, Ts, Ts)>) -> Self {
        if !postings.is_sorted_by_key(|p| p.0) {
            postings.sort_by_key(|p| p.0);
        }
        PostingList { postings }
    }

    /// Total postings across all traces.
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// True when the pair has no postings at all.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// All postings, ascending by trace.
    pub fn postings(&self) -> &[(TraceId, Ts, Ts)] {
        &self.postings
    }

    /// Index of the first posting whose trace is `>= trace`, used by the
    /// joins for next-match advancement.
    pub fn seek(&self, trace: TraceId) -> usize {
        self.postings.partition_point(|p| p.0 < trace)
    }

    /// The `(ts_a, ts_b)` occurrences of `trace`, in stored posting order
    /// (empty slice when the trace has none). Found by `seek`, not a scan.
    pub fn for_trace(&self, trace: TraceId) -> &[(TraceId, Ts, Ts)] {
        let start = self.seek(trace);
        let len = self.postings[start..].partition_point(|p| p.0 == trace);
        &self.postings[start..start + len]
    }

    /// Whether `trace` has at least one occurrence (a single `seek` probe).
    pub fn contains_trace(&self, trace: TraceId) -> bool {
        self.postings.get(self.seek(trace)).is_some_and(|p| p.0 == trace)
    }

    /// Distinct traces with at least one occurrence, ascending.
    pub fn traces(&self) -> impl Iterator<Item = TraceId> + '_ {
        let mut i = 0;
        std::iter::from_fn(move || {
            let trace = self.postings.get(i)?.0;
            i += self.postings[i..].partition_point(|p| p.0 == trace);
            Some(trace)
        })
    }

    /// Iterate `(trace, occurrences)` groups in ascending trace order.
    pub fn by_trace(&self) -> impl Iterator<Item = (TraceId, &[(TraceId, Ts, Ts)])> + '_ {
        let mut i = 0;
        std::iter::from_fn(move || {
            let trace = self.postings.get(i)?.0;
            let len = self.postings[i..].partition_point(|p| p.0 == trace);
            let group = &self.postings[i..i + len];
            i += len;
            Some((trace, group))
        })
    }
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
        Arc::new(PostingList::from_postings(
            occs.iter().map(|&(a, b)| (TraceId(trace), a, b)).collect(),
        ))
    }

    #[test]
    fn posting_list_seeks_and_groups_by_trace() {
        let l = PostingList::from_postings(vec![
            (TraceId(5), 10, 11),
            (TraceId(2), 3, 4),
            (TraceId(2), 1, 2),
            (TraceId(9), 7, 8),
        ]);
        assert_eq!(l.len(), 4);
        assert_eq!(l.seek(TraceId(0)), 0);
        assert_eq!(l.seek(TraceId(3)), 2);
        assert_eq!(l.seek(TraceId(10)), 4);
        // Stable sort: trace 2's stored posting order (3,4) then (1,2) holds.
        assert_eq!(l.for_trace(TraceId(2)), &[(TraceId(2), 3, 4), (TraceId(2), 1, 2)]);
        assert!(l.for_trace(TraceId(3)).is_empty());
        assert!(l.contains_trace(TraceId(5)));
        assert!(!l.contains_trace(TraceId(4)));
        assert_eq!(l.traces().collect::<Vec<_>>(), vec![TraceId(2), TraceId(5), TraceId(9)]);
        let groups: Vec<_> = l.by_trace().map(|(t, g)| (t, g.len())).collect();
        assert_eq!(groups, vec![(TraceId(2), 2), (TraceId(5), 1), (TraceId(9), 1)]);
        assert!(PostingList::default().is_empty());
        assert_eq!(PostingList::default().traces().count(), 0);
    }

    #[test]
    fn hit_after_insert_same_generation() {
        let c = PostingCache::new(64);
        let t = TableId(1);
        assert!(c.get(t, 7, 0).is_none());
        c.insert(t, 7, 0, grouped(1, &[(1, 2)]));
        let g = c.get(t, 7, 0).expect("hit");
        assert_eq!(g.for_trace(TraceId(1)), &[(TraceId(1), 1, 2)]);
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
