//! Operation counters for store instrumentation.
//!
//! Benchmarks and the ablation experiments use these to report how many
//! store round-trips each indexing flavor / query plan performs — the
//! paper's cost driver once Cassandra is remote.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Number of power-of-two latency buckets (covers 1µs … ~2^47µs ≈ 4.5 years).
const LATENCY_BUCKETS: usize = 48;

/// A lock-free fixed-bucket latency histogram.
///
/// Samples are recorded in microseconds into power-of-two buckets: bucket
/// `i` counts samples in `[2^i, 2^(i+1))`. Percentile estimates return the
/// *upper edge* of the bucket holding the requested quantile, so they are
/// conservative (never under-report) and at most 2x the true value — plenty
/// for the p50/p95/p99 the serving layer exports.
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Fresh zeroed histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample, in microseconds.
    pub fn record_micros(&self, micros: u64) {
        let idx = (63 - micros.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean sample, in microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed).checked_div(self.count()).unwrap_or(0)
    }

    /// Upper-edge estimate of quantile `q` (`0.0 ..= 1.0`), in microseconds.
    /// Returns 0 when no samples have been recorded.
    pub fn percentile_micros(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        1u64 << 63
    }

    /// Reset all buckets to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_micros.store(0, Ordering::Relaxed);
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("p50_us", &self.percentile_micros(0.50))
            .field("p99_us", &self.percentile_micros(0.99))
            .finish()
    }
}

/// Per-request serving-layer counters: request volume, status classes, load
/// shedding, accept-loop retries, in-flight gauge and a latency histogram.
/// Lives inside [`StoreMetrics`] so the server shares one metrics handle
/// with the store/cache plumbing and `GET /stats/server` sits next to
/// `/stats/cache`.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    requests: AtomicU64,
    resp_2xx: AtomicU64,
    resp_3xx: AtomicU64,
    resp_4xx: AtomicU64,
    resp_5xx: AtomicU64,
    shed: AtomicU64,
    accept_retries: AtomicU64,
    catalog_reloads: AtomicU64,
    in_flight: AtomicU64,
    latency: LatencyHistogram,
}

impl ServerMetrics {
    /// Mark a request as started (bumps request count and in-flight gauge).
    pub fn record_request_start(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Mark a request as finished with `status`, taking `micros` end to end.
    pub fn record_response(&self, status: u16, micros: u64) {
        let class = match status / 100 {
            2 => &self.resp_2xx,
            3 => &self.resp_3xx,
            4 => &self.resp_4xx,
            _ => &self.resp_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        self.latency.record_micros(micros);
        // Saturating decrement: a response recorded without a matching start
        // (e.g. an early 503 shed path) must not wrap the gauge.
        let _ =
            self.in_flight.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// Record one connection shed with a 503 because the queue was full.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one transient `accept()` error survived with a backoff.
    pub fn record_accept_retry(&self) {
        self.accept_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one generation-triggered catalog/layout reload.
    pub fn record_catalog_reload(&self) {
        self.catalog_reloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests started.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Responses by status class: `(2xx, 3xx, 4xx, 5xx)`.
    pub fn status_classes(&self) -> (u64, u64, u64, u64) {
        (
            self.resp_2xx.load(Ordering::Relaxed),
            self.resp_3xx.load(Ordering::Relaxed),
            self.resp_4xx.load(Ordering::Relaxed),
            self.resp_5xx.load(Ordering::Relaxed),
        )
    }

    /// Connections shed with a 503.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Transient accept errors survived.
    pub fn accept_retries(&self) -> u64 {
        self.accept_retries.load(Ordering::Relaxed)
    }

    /// Generation-triggered catalog reloads observed.
    pub fn catalog_reloads(&self) -> u64 {
        self.catalog_reloads.load(Ordering::Relaxed)
    }

    /// Requests currently being processed.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// The request latency histogram.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    fn reset(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.resp_2xx.store(0, Ordering::Relaxed);
        self.resp_3xx.store(0, Ordering::Relaxed);
        self.resp_4xx.store(0, Ordering::Relaxed);
        self.resp_5xx.store(0, Ordering::Relaxed);
        self.shed.store(0, Ordering::Relaxed);
        self.accept_retries.store(0, Ordering::Relaxed);
        self.catalog_reloads.store(0, Ordering::Relaxed);
        self.in_flight.store(0, Ordering::Relaxed);
        self.latency.reset();
    }
}

/// Monotonic counters over store operations. All methods are lock-free and
/// safe to call from any thread.
///
/// Beyond the raw store round-trips, the query read path reports its
/// decode/cache behaviour here as well: how many postings (and stored
/// bytes) cache-miss reads decoded, and how the query-side posting cache
/// fared.
/// The serving layer adds its per-request counters under [`ServerMetrics`]
/// (see [`StoreMetrics::server`]).
#[derive(Debug, Default)]
pub struct StoreMetrics {
    gets: AtomicU64,
    puts: AtomicU64,
    appends: AtomicU64,
    deletes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    cursor_decodes: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    cache_invalidations: AtomicU64,
    decoded_bytes: AtomicU64,
    batch_commits: AtomicU64,
    batch_aborts: AtomicU64,
    fsyncs: AtomicU64,
    runs_written: AtomicU64,
    runs_live: AtomicU64,
    run_bytes_written: AtomicU64,
    run_compactions: AtomicU64,
    runs_pruned: AtomicU64,
    runs_searched: AtomicU64,
    runs_expired: AtomicU64,
    runs_quarantined: AtomicU64,
    quarantined_live: AtomicU64,
    runs_repaired: AtomicU64,
    scrub_passes: AtomicU64,
    io_retries: AtomicU64,
    degraded: AtomicBool,
    server: ServerMetrics,
}

impl StoreMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_get(&self, bytes: usize) {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_put(&self, bytes: usize) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_append(&self, bytes: usize) {
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_delete(&self) {
        self.deletes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `postings` postings decoded by a cache-miss read.
    pub fn record_cursor_decode(&self, postings: usize) {
        self.cursor_decodes.fetch_add(postings as u64, Ordering::Relaxed);
    }

    /// Record a posting-cache hit.
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a posting-cache miss.
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `bytes` of stored posting rows expanded into decoded postings
    /// by a cache-miss read.
    pub fn record_decoded_bytes(&self, bytes: usize) {
        self.decoded_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record a posting-cache capacity eviction.
    pub fn record_cache_eviction(&self) {
        self.cache_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a posting-cache entry dropped as stale (generation change).
    pub fn record_cache_invalidation(&self) {
        self.cache_invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one committed write batch.
    pub fn record_batch_commit(&self) {
        self.batch_commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one aborted (or commit-failed) write batch.
    pub fn record_batch_abort(&self) {
        self.batch_aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one fsync issued by the store's write path.
    pub fn record_fsync(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one compaction that rewrote the immutable tier, emitting
    /// `runs` run files totalling `bytes` on disk.
    pub fn record_run_compaction(&self, runs: usize, bytes: u64) {
        self.run_compactions.fetch_add(1, Ordering::Relaxed);
        self.runs_written.fetch_add(runs as u64, Ordering::Relaxed);
        self.run_bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Set the gauge of currently live (manifest-referenced) runs.
    pub fn set_runs_live(&self, live: usize) {
        self.runs_live.store(live as u64, Ordering::Relaxed);
    }

    /// Record one run skipped by its zone map during a membership check.
    pub fn record_run_pruned(&self) {
        self.runs_pruned.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one run whose zone map covered the probed key (so the read
    /// had to consult it).
    pub fn record_run_searched(&self) {
        self.runs_searched.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` runs dropped by retention because their whole time range
    /// had expired.
    pub fn record_runs_expired(&self, n: usize) {
        self.runs_expired.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Record one run pulled from the searched set after failing
    /// verification (corruption quarantine).
    pub fn record_run_quarantined(&self) {
        self.runs_quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Set the gauge of currently quarantined runs.
    pub fn set_quarantined_live(&self, live: usize) {
        self.quarantined_live.store(live as u64, Ordering::Relaxed);
    }

    /// Record `n` quarantined runs rebuilt from the segment log by
    /// `repair()`.
    pub fn record_runs_repaired(&self, n: usize) {
        self.runs_repaired.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Record one completed scrub pass over the run tier.
    pub fn record_scrub_pass(&self) {
        self.scrub_passes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one transient I/O failure absorbed by a retry.
    pub fn record_io_retry(&self) {
        self.io_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Mark the store as degraded (sticky read-only after a write failure).
    pub fn set_degraded(&self, degraded: bool) {
        self.degraded.store(degraded, Ordering::Relaxed);
    }

    /// Number of `get` calls.
    pub fn gets(&self) -> u64 {
        self.gets.load(Ordering::Relaxed)
    }

    /// Number of `put` calls.
    pub fn puts(&self) -> u64 {
        self.puts.load(Ordering::Relaxed)
    }

    /// Number of `append` calls.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Number of `delete` calls.
    pub fn deletes(&self) -> u64 {
        self.deletes.load(Ordering::Relaxed)
    }

    /// Total bytes returned by `get`s.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Total bytes accepted by `put`/`append`.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Postings decoded by cache-miss reads.
    pub fn cursor_decodes(&self) -> u64 {
        self.cursor_decodes.load(Ordering::Relaxed)
    }

    /// Posting-cache hits.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Posting-cache misses.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Bytes of stored posting rows decoded by cache-miss reads.
    pub fn decoded_bytes(&self) -> u64 {
        self.decoded_bytes.load(Ordering::Relaxed)
    }

    /// Posting-cache capacity evictions.
    pub fn cache_evictions(&self) -> u64 {
        self.cache_evictions.load(Ordering::Relaxed)
    }

    /// Posting-cache entries dropped as stale after an index update.
    pub fn cache_invalidations(&self) -> u64 {
        self.cache_invalidations.load(Ordering::Relaxed)
    }

    /// Write batches committed.
    pub fn batch_commits(&self) -> u64 {
        self.batch_commits.load(Ordering::Relaxed)
    }

    /// Write batches aborted (including failed commits).
    pub fn batch_aborts(&self) -> u64 {
        self.batch_aborts.load(Ordering::Relaxed)
    }

    /// Fsyncs issued by the store's write path.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Run files written by compactions.
    pub fn runs_written(&self) -> u64 {
        self.runs_written.load(Ordering::Relaxed)
    }

    /// Currently live (manifest-referenced) runs.
    pub fn runs_live(&self) -> u64 {
        self.runs_live.load(Ordering::Relaxed)
    }

    /// Bytes of run files written by compactions.
    pub fn run_bytes_written(&self) -> u64 {
        self.run_bytes_written.load(Ordering::Relaxed)
    }

    /// Compactions that rewrote the immutable tier.
    pub fn run_compactions(&self) -> u64 {
        self.run_compactions.load(Ordering::Relaxed)
    }

    /// Runs skipped outright by zone-map pruning.
    pub fn runs_pruned(&self) -> u64 {
        self.runs_pruned.load(Ordering::Relaxed)
    }

    /// Runs whose zone map covered a probed key.
    pub fn runs_searched(&self) -> u64 {
        self.runs_searched.load(Ordering::Relaxed)
    }

    /// Runs dropped by retention.
    pub fn runs_expired(&self) -> u64 {
        self.runs_expired.load(Ordering::Relaxed)
    }

    /// Runs quarantined after failing verification (cumulative).
    pub fn runs_quarantined(&self) -> u64 {
        self.runs_quarantined.load(Ordering::Relaxed)
    }

    /// Currently quarantined runs.
    pub fn quarantined_live(&self) -> u64 {
        self.quarantined_live.load(Ordering::Relaxed)
    }

    /// Quarantined runs rebuilt from segments by `repair()`.
    pub fn runs_repaired(&self) -> u64 {
        self.runs_repaired.load(Ordering::Relaxed)
    }

    /// Completed scrub passes over the run tier.
    pub fn scrub_passes(&self) -> u64 {
        self.scrub_passes.load(Ordering::Relaxed)
    }

    /// Transient I/O failures absorbed by retries.
    pub fn io_retries(&self) -> u64 {
        self.io_retries.load(Ordering::Relaxed)
    }

    /// True once the store reported itself degraded.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// The serving-layer counters (request count, status classes, latency,
    /// in-flight, shed).
    pub fn server(&self) -> &ServerMetrics {
        &self.server
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.gets.store(0, Ordering::Relaxed);
        self.puts.store(0, Ordering::Relaxed);
        self.appends.store(0, Ordering::Relaxed);
        self.deletes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.cursor_decodes.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
        self.cache_evictions.store(0, Ordering::Relaxed);
        self.cache_invalidations.store(0, Ordering::Relaxed);
        self.decoded_bytes.store(0, Ordering::Relaxed);
        self.batch_commits.store(0, Ordering::Relaxed);
        self.batch_aborts.store(0, Ordering::Relaxed);
        self.fsyncs.store(0, Ordering::Relaxed);
        self.runs_written.store(0, Ordering::Relaxed);
        self.runs_live.store(0, Ordering::Relaxed);
        self.run_bytes_written.store(0, Ordering::Relaxed);
        self.run_compactions.store(0, Ordering::Relaxed);
        self.runs_pruned.store(0, Ordering::Relaxed);
        self.runs_searched.store(0, Ordering::Relaxed);
        self.runs_expired.store(0, Ordering::Relaxed);
        self.runs_quarantined.store(0, Ordering::Relaxed);
        self.quarantined_live.store(0, Ordering::Relaxed);
        self.runs_repaired.store(0, Ordering::Relaxed);
        self.scrub_passes.store(0, Ordering::Relaxed);
        self.io_retries.store(0, Ordering::Relaxed);
        self.degraded.store(false, Ordering::Relaxed);
        self.server.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let m = StoreMetrics::new();
        m.record_get(10);
        m.record_get(5);
        m.record_put(100);
        m.record_append(7);
        m.record_delete();
        assert_eq!(m.gets(), 2);
        assert_eq!(m.puts(), 1);
        assert_eq!(m.appends(), 1);
        assert_eq!(m.deletes(), 1);
        assert_eq!(m.bytes_read(), 15);
        assert_eq!(m.bytes_written(), 107);
        m.reset();
        assert_eq!(m.gets() + m.puts() + m.appends() + m.bytes_read(), 0);
    }

    #[test]
    fn decoded_bytes_accumulate_and_reset() {
        let m = StoreMetrics::new();
        m.record_decoded_bytes(100);
        m.record_decoded_bytes(28);
        assert_eq!(m.decoded_bytes(), 128);
        m.reset();
        assert_eq!(m.decoded_bytes(), 0);
    }

    #[test]
    fn batch_and_degraded_counters() {
        let m = StoreMetrics::new();
        m.record_batch_commit();
        m.record_batch_commit();
        m.record_batch_abort();
        m.record_fsync();
        m.set_degraded(true);
        assert_eq!(m.batch_commits(), 2);
        assert_eq!(m.batch_aborts(), 1);
        assert_eq!(m.fsyncs(), 1);
        assert!(m.degraded());
        m.reset();
        assert_eq!(m.batch_commits() + m.batch_aborts() + m.fsyncs(), 0);
        assert!(!m.degraded());
    }

    #[test]
    fn run_tier_counters() {
        let m = StoreMetrics::new();
        m.record_run_compaction(3, 4096);
        m.record_run_compaction(2, 1024);
        m.set_runs_live(2);
        m.record_run_pruned();
        m.record_run_pruned();
        m.record_run_searched();
        m.record_runs_expired(1);
        assert_eq!(m.run_compactions(), 2);
        assert_eq!(m.runs_written(), 5);
        assert_eq!(m.run_bytes_written(), 5120);
        assert_eq!(m.runs_live(), 2);
        assert_eq!(m.runs_pruned(), 2);
        assert_eq!(m.runs_searched(), 1);
        assert_eq!(m.runs_expired(), 1);
        m.reset();
        assert_eq!(
            m.run_compactions()
                + m.runs_written()
                + m.run_bytes_written()
                + m.runs_live()
                + m.runs_pruned()
                + m.runs_searched()
                + m.runs_expired(),
            0
        );
    }

    #[test]
    fn failure_tolerance_counters() {
        let m = StoreMetrics::new();
        m.record_run_quarantined();
        m.record_run_quarantined();
        m.set_quarantined_live(2);
        m.record_runs_repaired(2);
        m.record_scrub_pass();
        m.record_io_retry();
        m.record_io_retry();
        m.record_io_retry();
        assert_eq!(m.runs_quarantined(), 2);
        assert_eq!(m.quarantined_live(), 2);
        assert_eq!(m.runs_repaired(), 2);
        assert_eq!(m.scrub_passes(), 1);
        assert_eq!(m.io_retries(), 3);
        m.reset();
        assert_eq!(
            m.runs_quarantined()
                + m.quarantined_live()
                + m.runs_repaired()
                + m.scrub_passes()
                + m.io_retries(),
            0
        );
    }

    #[test]
    fn latency_histogram_percentiles_are_conservative() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile_micros(0.5), 0);
        for _ in 0..90 {
            h.record_micros(100); // bucket [64, 128)
        }
        for _ in 0..10 {
            h.record_micros(10_000); // bucket [8192, 16384)
        }
        assert_eq!(h.count(), 100);
        // Upper edges: p50 lands in the 100µs bucket, p99 in the 10ms one.
        assert_eq!(h.percentile_micros(0.50), 128);
        assert_eq!(h.percentile_micros(0.90), 128);
        assert_eq!(h.percentile_micros(0.99), 16_384);
        assert!(h.mean_micros() >= 100 && h.mean_micros() <= 10_000);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile_micros(0.99), 0);
    }

    #[test]
    fn latency_histogram_handles_extremes() {
        let h = LatencyHistogram::new();
        h.record_micros(0);
        h.record_micros(1);
        h.record_micros(u64::MAX);
        assert_eq!(h.count(), 3);
        assert!(h.percentile_micros(1.0) >= 1 << 47);
    }

    #[test]
    fn server_metrics_track_requests_and_classes() {
        let m = StoreMetrics::new();
        let s = m.server();
        s.record_request_start();
        assert_eq!(s.in_flight(), 1);
        s.record_response(200, 50);
        s.record_request_start();
        s.record_response(404, 10);
        s.record_shed();
        s.record_accept_retry();
        s.record_catalog_reload();
        assert_eq!(s.requests(), 2);
        assert_eq!(s.status_classes(), (1, 0, 1, 0));
        assert_eq!(s.shed(), 1);
        assert_eq!(s.accept_retries(), 1);
        assert_eq!(s.catalog_reloads(), 1);
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.latency().count(), 2);
        // An unmatched response (503 shed path) must not wrap the gauge.
        s.record_response(503, 5);
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.status_classes().3, 1);
        m.reset();
        assert_eq!(s.requests() + s.shed() + s.latency().count(), 0);
    }
}
