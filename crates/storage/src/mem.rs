//! In-memory sharded store.
//!
//! Rows live in `SHARDS` lock-striped hash maps keyed by `(table, key)`.
//! Striping matters because the pre-processing component writes pairs from
//! many traces in parallel (the paper's "parallelization-by-design", §5.3):
//! a single global lock would serialize exactly the part the paper
//! parallelizes.

use crate::error::StorageError;
use crate::fxhash::{hash_bytes, FxHashMap};
use crate::kv::{KvStore, TableId};
use crate::metrics::StoreMetrics;
use bytes::Bytes;
use parking_lot::RwLock;
use std::sync::Arc;

/// Number of lock stripes. Power of two; plenty for laptop-scale core counts.
const SHARDS: usize = 64;

type Shard = RwLock<FxHashMap<(TableId, Box<[u8]>), Vec<u8>>>;

/// Sharded in-memory [`KvStore`].
pub struct MemStore {
    shards: Vec<Shard>,
    metrics: Option<Arc<StoreMetrics>>,
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MemStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemStore").field("shards", &SHARDS).finish()
    }
}

impl MemStore {
    /// Fresh empty store.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| RwLock::new(FxHashMap::default())).collect(),
            metrics: None,
        }
    }

    /// Store that records operation counts into `metrics`.
    pub fn with_metrics(metrics: Arc<StoreMetrics>) -> Self {
        let mut s = Self::new();
        s.metrics = Some(metrics);
        s
    }

    #[inline]
    fn shard(&self, table: TableId, key: &[u8]) -> &Shard {
        // Mix the table id into the shard choice so same-key rows of
        // different tables don't contend.
        let h = hash_bytes(key) ^ (table.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h as usize) & (SHARDS - 1)]
    }

    /// Total number of rows across all tables.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when no rows exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every row of every table (used by compaction).
    pub fn scan_all(&self) -> Vec<(TableId, Bytes, Bytes)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            for ((t, k), v) in shard.iter() {
                out.push((*t, Bytes::copy_from_slice(k), Bytes::copy_from_slice(v)));
            }
        }
        out
    }

    /// Remove every row of `table`.
    pub fn clear_table(&self, table: TableId) {
        for shard in &self.shards {
            shard.write().retain(|(t, _), _| *t != table);
        }
    }
}

impl KvStore for MemStore {
    fn get(&self, table: TableId, key: &[u8]) -> Option<Bytes> {
        let shard = self.shard(table, key).read();
        let v = shard.get(&(table, key.into()) as &(TableId, Box<[u8]>));
        if let Some(m) = &self.metrics {
            m.record_get(v.map_or(0, Vec::len));
        }
        v.map(|v| Bytes::copy_from_slice(v))
    }

    fn put(&self, table: TableId, key: &[u8], value: &[u8]) -> Result<(), StorageError> {
        if let Some(m) = &self.metrics {
            m.record_put(value.len());
        }
        self.shard(table, key).write().insert((table, key.into()), value.to_vec());
        Ok(())
    }

    fn append(&self, table: TableId, key: &[u8], value: &[u8]) -> Result<(), StorageError> {
        if let Some(m) = &self.metrics {
            m.record_append(value.len());
        }
        let mut shard = self.shard(table, key).write();
        shard.entry((table, key.into())).or_default().extend_from_slice(value);
        Ok(())
    }

    fn delete(&self, table: TableId, key: &[u8]) -> Result<bool, StorageError> {
        if let Some(m) = &self.metrics {
            m.record_delete();
        }
        Ok(self
            .shard(table, key)
            .write()
            .remove(&(table, key.into()) as &(TableId, Box<[u8]>))
            .is_some())
    }

    fn scan(&self, table: TableId) -> Vec<(Bytes, Bytes)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            for ((t, k), v) in shard.iter() {
                if *t == table {
                    out.push((Bytes::copy_from_slice(k), Bytes::copy_from_slice(v)));
                }
            }
        }
        out
    }

    fn table_len(&self, table: TableId) -> usize {
        self.shards.iter().map(|s| s.read().keys().filter(|(t, _)| *t == table).count()).sum()
    }

    fn flush(&self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: TableId = TableId(0);
    const T1: TableId = TableId(1);

    #[test]
    fn put_get_delete() {
        let s = MemStore::new();
        assert!(s.get(T0, b"k").is_none());
        s.put(T0, b"k", b"v1").unwrap();
        assert_eq!(s.get(T0, b"k").unwrap().as_ref(), b"v1");
        s.put(T0, b"k", b"v2").unwrap();
        assert_eq!(s.get(T0, b"k").unwrap().as_ref(), b"v2");
        assert!(s.delete(T0, b"k").unwrap());
        assert!(!s.delete(T0, b"k").unwrap());
        assert!(s.get(T0, b"k").is_none());
    }

    #[test]
    fn append_grows_rows() {
        let s = MemStore::new();
        s.append(T0, b"list", &[1, 2]).unwrap();
        s.append(T0, b"list", &[3]).unwrap();
        assert_eq!(s.get(T0, b"list").unwrap().as_ref(), &[1, 2, 3]);
    }

    #[test]
    fn tables_are_isolated() {
        let s = MemStore::new();
        s.put(T0, b"k", b"zero").unwrap();
        s.put(T1, b"k", b"one").unwrap();
        assert_eq!(s.get(T0, b"k").unwrap().as_ref(), b"zero");
        assert_eq!(s.get(T1, b"k").unwrap().as_ref(), b"one");
        assert_eq!(s.table_len(T0), 1);
        s.clear_table(T0);
        assert_eq!(s.table_len(T0), 0);
        assert_eq!(s.table_len(T1), 1);
    }

    #[test]
    fn scan_returns_all_rows_of_table() {
        let s = MemStore::new();
        for i in 0..100u32 {
            s.put(T0, &i.to_le_bytes(), &[i as u8]).unwrap();
        }
        s.put(T1, b"other", b"x").unwrap();
        let mut rows = s.scan(T0);
        assert_eq!(rows.len(), 100);
        rows.sort();
        assert_eq!(rows[0].1.as_ref(), &[0]);
    }

    #[test]
    fn get_snapshot_survives_later_append() {
        let s = MemStore::new();
        s.append(T0, b"k", b"abc").unwrap();
        let snap = s.get(T0, b"k").unwrap();
        s.append(T0, b"k", b"def").unwrap();
        assert_eq!(snap.as_ref(), b"abc");
        assert_eq!(s.get(T0, b"k").unwrap().as_ref(), b"abcdef");
    }

    #[test]
    fn concurrent_appends_do_not_lose_records() {
        let s = std::sync::Arc::new(MemStore::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u32 {
                        let key = (i % 16).to_le_bytes();
                        s.append(T0, &key, &[t as u8]).unwrap();
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let total: usize = s.scan(T0).iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 8 * 1000);
    }

    #[test]
    fn metrics_are_recorded() {
        let m = Arc::new(StoreMetrics::new());
        let s = MemStore::with_metrics(m.clone());
        s.put(T0, b"k", b"1234").unwrap();
        s.get(T0, b"k");
        s.append(T0, b"k", b"5").unwrap();
        s.delete(T0, b"k").unwrap();
        assert_eq!(m.puts(), 1);
        assert_eq!(m.gets(), 1);
        assert_eq!(m.appends(), 1);
        assert_eq!(m.deletes(), 1);
        assert_eq!(m.bytes_written(), 5);
        assert_eq!(m.bytes_read(), 4);
    }
}
