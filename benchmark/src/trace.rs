//! Tracing for the `--trace 1` run: in-memory spans recorded from the
//! harness around each public layer call, and a timing [`KvStore`] wrapper
//! that sits between `Indexer`/`QueryEngine` and `DiskStore`.
//!
//! Store calls are far too many for a span each (an ingest rep on
//! `wide_cold` makes ~10^6 of them), so the wrapper accumulates time and
//! counts per operation and the harness turns the *difference* across a
//! layer call into one aggregate child span per operation. A layer's self
//! time is its span minus its children, so `core.index_self_s` is
//! `index_log` minus everything the store did underneath it.

use crate::json::{write_num, write_str};
use bytes::Bytes;
use seqdet_storage::{Coverage, DiskStore, KvStore, StorageError, TableId};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub type SpanId = u32;

/// One recorded interval. `calls > 0` marks an aggregate of that many store
/// calls made under `parent`: its length is their summed time, laid out
/// from the parent's start.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Shared by all spans of one request (batch, query or HTTP request).
    pub req: u64,
    pub calls: u64,
}

/// Span names starting with this prefix are the harness's own bookkeeping
/// (the root of a batch or query); everything else is a layer of the system.
const HARNESS_PREFIX: &str = "harness.";

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished interval measured by the caller, as a root span
    /// (`parent` is `None`) or as a child that shares its parent's request.
    pub fn interval(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, req, calls: 0 });
        (self.spans.len() - 1) as SpanId
    }

    /// [`Tracer::interval`] under `parent`.
    pub fn leaf(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let req = self.spans[parent as usize].req;
        self.interval(name, Some(parent), req, start, end)
    }

    /// Record the store work done under `parent` as aggregate child spans.
    pub fn store_children(&mut self, parent: SpanId, delta: &StoreTimes) {
        let (start_ns, req) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.req)
        };
        for (name, op) in [
            ("storage.get", delta.get),
            ("storage.put", delta.put),
            ("storage.append", delta.append),
            ("storage.flush", delta.flush),
            ("storage.maintain", delta.maintain),
            ("storage.other", delta.other),
        ] {
            if op.calls > 0 {
                self.spans.push(Span {
                    name,
                    start_ns,
                    end_ns: start_ns + op.ns,
                    parent: Some(parent),
                    req,
                    calls: op.calls,
                });
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its length minus the summed length of its direct
    /// children (children never overlap: the harness is single-threaded and
    /// aggregates sum disjoint calls).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = p as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Share of all root-span time that was spent inside a layer of the
    /// system rather than in the harness's own bookkeeping.
    pub fn layer_cover_share(&self) -> f64 {
        let own = self.self_times();
        let (mut root_total, mut harness_self) = (0u64, 0u64);
        for (s, own) in self.spans.iter().zip(&own) {
            if s.parent.is_none() {
                root_total += s.end_ns - s.start_ns;
            }
            if s.name.starts_with(HARNESS_PREFIX) {
                harness_self += own;
            }
        }
        if root_total == 0 {
            return 0.0;
        }
        1.0 - harness_self as f64 / root_total as f64
    }

    /// Write every span, with its self time, as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let own = self.self_times();
        let mut out = String::with_capacity(self.spans.len() * 110 + 128);
        out.push_str("{\"workload\":");
        write_str(&mut out, workload);
        out.push_str(",\"seed\":");
        write_num(&mut out, seed as f64);
        out.push_str(",\"unit\":\"ns\",\"spans\":[\n");
        for (i, (s, own)) in self.spans.iter().zip(&own).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"id\":");
            write_num(&mut out, i as f64);
            out.push_str(",\"name\":");
            write_str(&mut out, s.name);
            out.push_str(",\"start\":");
            write_num(&mut out, s.start_ns as f64);
            out.push_str(",\"end\":");
            write_num(&mut out, s.end_ns as f64);
            out.push_str(",\"self\":");
            write_num(&mut out, *own as f64);
            out.push_str(",\"parent\":");
            match s.parent {
                Some(p) => write_num(&mut out, f64::from(p)),
                None => out.push_str("null"),
            }
            out.push_str(",\"req\":");
            write_num(&mut out, s.req as f64);
            if s.calls > 0 {
                out.push_str(",\"calls\":");
                write_num(&mut out, s.calls as f64);
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Time and call count of one store operation class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTime {
    pub ns: u64,
    pub calls: u64,
}

impl OpTime {
    fn minus(self, earlier: OpTime) -> OpTime {
        OpTime { ns: self.ns - earlier.ns, calls: self.calls - earlier.calls }
    }

    fn plus(self, other: OpTime) -> OpTime {
        OpTime { ns: self.ns + other.ns, calls: self.calls + other.calls }
    }

    pub fn secs(self) -> f64 {
        self.ns as f64 / 1e9
    }
}

/// A point-in-time copy of the wrapper's accumulators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreTimes {
    /// `get`, `get_checked` and `key_may_exist`. The time of `get` and
    /// `get_checked` is an estimate from a sample of the calls.
    pub get: OpTime,
    pub put: OpTime,
    pub append: OpTime,
    /// `commit_batch` (which fsyncs under `DurabilityPolicy::Batch`) and `flush`.
    pub flush: OpTime,
    /// `maintain`: the size-triggered compaction hook on the commit path.
    pub maintain: OpTime,
    /// `begin_batch`, `delete`, `scan`, `table_len`.
    pub other: OpTime,
    /// Bytes of values returned by reads.
    pub bytes_read: u64,
    /// Key and value bytes handed to `put`/`append` (what the segment log
    /// has to persist, before its own framing).
    pub bytes_written: u64,
}

impl StoreTimes {
    pub fn minus(&self, earlier: &StoreTimes) -> StoreTimes {
        StoreTimes {
            get: self.get.minus(earlier.get),
            put: self.put.minus(earlier.put),
            append: self.append.minus(earlier.append),
            flush: self.flush.minus(earlier.flush),
            maintain: self.maintain.minus(earlier.maintain),
            other: self.other.minus(earlier.other),
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
        }
    }

    pub fn plus(&self, other: &StoreTimes) -> StoreTimes {
        StoreTimes {
            get: self.get.plus(other.get),
            put: self.put.plus(other.put),
            append: self.append.plus(other.append),
            flush: self.flush.plus(other.flush),
            maintain: self.maintain.plus(other.maintain),
            other: self.other.plus(other.other),
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
        }
    }

    /// Time of every operation class together, in seconds.
    pub fn total_secs(&self) -> f64 {
        [self.get, self.put, self.append, self.flush, self.maintain, self.other]
            .iter()
            .map(|op| op.secs())
            .sum()
    }
}

#[derive(Debug, Default)]
struct OpCell {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl OpCell {
    // Relaxed: these are statistics; nothing is published through them.
    fn add(&self, start: Instant) {
        self.ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn load(&self) -> OpTime {
        OpTime { ns: self.ns.load(Ordering::Relaxed), calls: self.calls.load(Ordering::Relaxed) }
    }
}

/// How the harness opens the store for a run: bare for the untraced run
/// (end-to-end numbers never pay for the wrapper), wrapped for the traced one.
pub trait BenchStore: KvStore + Sized + 'static {
    fn wrap(disk: Arc<DiskStore>) -> Arc<Self>;
    /// The wrapper's accumulators; zero for the bare store.
    fn times(&self) -> StoreTimes;
}

impl BenchStore for DiskStore {
    fn wrap(disk: Arc<DiskStore>) -> Arc<Self> {
        disk
    }

    fn times(&self) -> StoreTimes {
        StoreTimes::default()
    }
}

/// `DiskStore` behind per-operation timers.
#[derive(Debug)]
pub struct TimedStore {
    inner: Arc<DiskStore>,
    get: OpCell,
    put: OpCell,
    append: OpCell,
    flush: OpCell,
    maintain: OpCell,
    other: OpCell,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl BenchStore for TimedStore {
    fn wrap(disk: Arc<DiskStore>) -> Arc<Self> {
        Arc::new(TimedStore {
            inner: disk,
            get: OpCell::default(),
            put: OpCell::default(),
            append: OpCell::default(),
            flush: OpCell::default(),
            maintain: OpCell::default(),
            other: OpCell::default(),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        })
    }

    fn times(&self) -> StoreTimes {
        StoreTimes {
            get: self.get.load(),
            put: self.put.load(),
            append: self.append.load(),
            flush: self.flush.load(),
            maintain: self.maintain.load(),
            other: self.other.load(),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

/// Reads are timed on a 1-in-`READ_SAMPLE` sample and scaled up. A rich
/// query makes thousands of `get`s of ~150 ns each; two clock reads around
/// every one of them cost more than a tenth of the query.
const READ_SAMPLE: u64 = 8;

impl TimedStore {
    fn read(&self, get: impl FnOnce() -> Option<Bytes>) -> Option<Bytes> {
        let n = self.get.calls.fetch_add(1, Ordering::Relaxed);
        // Golden-ratio hashing of the call number instead of a fixed stride,
        // which could lock onto a period in the caller's access pattern.
        let value = if n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61 == 0 {
            let start = Instant::now();
            let value = get();
            let ns = start.elapsed().as_nanos() as u64 * READ_SAMPLE;
            self.get.ns.fetch_add(ns, Ordering::Relaxed);
            value
        } else {
            get()
        };
        if let Some(v) = &value {
            self.bytes_read.fetch_add(v.len() as u64, Ordering::Relaxed);
        }
        value
    }

    fn wrote(&self, key: &[u8], value: &[u8]) {
        self.bytes_written.fetch_add((key.len() + value.len()) as u64, Ordering::Relaxed);
    }
}

impl KvStore for TimedStore {
    fn get(&self, table: TableId, key: &[u8]) -> Option<Bytes> {
        self.read(|| self.inner.get(table, key))
    }

    fn get_checked(&self, table: TableId, key: &[u8]) -> Option<Bytes> {
        self.read(|| self.inner.get_checked(table, key))
    }

    fn key_may_exist(&self, table: TableId, key: &[u8]) -> bool {
        let start = Instant::now();
        let r = self.inner.key_may_exist(table, key);
        self.get.add(start);
        r
    }

    fn put(&self, table: TableId, key: &[u8], value: &[u8]) -> Result<(), StorageError> {
        let start = Instant::now();
        let r = self.inner.put(table, key, value);
        self.put.add(start);
        self.wrote(key, value);
        r
    }

    fn append(&self, table: TableId, key: &[u8], value: &[u8]) -> Result<(), StorageError> {
        let start = Instant::now();
        let r = self.inner.append(table, key, value);
        self.append.add(start);
        self.wrote(key, value);
        r
    }

    fn delete(&self, table: TableId, key: &[u8]) -> Result<bool, StorageError> {
        let start = Instant::now();
        let r = self.inner.delete(table, key);
        self.other.add(start);
        r
    }

    fn scan(&self, table: TableId) -> Vec<(Bytes, Bytes)> {
        let start = Instant::now();
        let r = self.inner.scan(table);
        self.other.add(start);
        r
    }

    fn table_len(&self, table: TableId) -> usize {
        let start = Instant::now();
        let r = self.inner.table_len(table);
        self.other.add(start);
        r
    }

    fn flush(&self) -> std::io::Result<()> {
        let start = Instant::now();
        let r = KvStore::flush(self.inner.as_ref());
        self.flush.add(start);
        r
    }

    fn begin_batch(&self) -> Result<(), StorageError> {
        let start = Instant::now();
        let r = self.inner.begin_batch();
        self.other.add(start);
        r
    }

    fn commit_batch(&self) -> Result<(), StorageError> {
        let start = Instant::now();
        let r = self.inner.commit_batch();
        self.flush.add(start);
        r
    }

    fn abort_batch(&self) {
        self.inner.abort_batch();
    }

    fn degraded(&self) -> Option<String> {
        self.inner.degraded()
    }

    fn maintain(&self) -> Result<(), StorageError> {
        let start = Instant::now();
        let r = self.inner.maintain();
        self.maintain.add(start);
        r
    }

    fn coverage(&self) -> Coverage {
        self.inner.coverage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::default();
        let a = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = Instant::now();
        let c = Instant::now();
        let root = t.interval("harness.batch", None, 7, a, c);
        let child = t.leaf("core.index_log", root, a, b);
        t.store_children(
            child,
            &StoreTimes { put: OpTime { ns: 1_000, calls: 3 }, ..StoreTimes::default() },
        );
        let own = t.self_times();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].name, "storage.put");
        assert_eq!(spans[2].calls, 3);
        assert_eq!(spans[2].req, 7);
        let child_len = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(own[1], child_len - 1_000);
        assert_eq!(own[0], (spans[0].end_ns - spans[0].start_ns) - child_len);
        assert!(t.layer_cover_share() > 0.5);
    }
}
