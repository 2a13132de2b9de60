//! The write delta: every mutation since the last compaction, overlaying
//! the immutable runs.
//!
//! A [`DeltaOp`] is recorded *relative to* whatever the runs hold for the
//! same key — a `Put` or `Delete` shadows the run image, an `Append`
//! extends it — and [`DeltaOp::apply`] is the one place that relation is
//! evaluated: point reads, table scans and compaction's merge all fold
//! through it. The delta is rebuilt on open by replaying the segments at
//! or above the manifest's floor (see [`crate::segment`]) and restarts
//! empty whenever compaction folds it into fresh runs.

use crate::fxhash::FxHashMap;
use crate::kv::TableId;
use crate::run::RunSet;
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// One write recorded in the delta since the last compaction, relative to
/// whatever the immutable runs hold for the same key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// The key's value is exactly these bytes (run image shadowed).
    Put(Vec<u8>),
    /// These bytes follow the run image (or stand alone if the run has
    /// none).
    Append(Vec<u8>),
    /// The key is gone (run image shadowed).
    Delete,
}

impl DeltaOp {
    /// The value this op leaves for its key. `base` fetches the run image
    /// and is only consulted by an `Append` — a `Put` or `Delete` answers
    /// without touching (or metering) the runs.
    pub(crate) fn apply(self, base: impl FnOnce() -> Option<Bytes>) -> Option<Bytes> {
        match self {
            DeltaOp::Put(v) => Some(Bytes::from(v)),
            DeltaOp::Delete => None,
            DeltaOp::Append(tail) => Some(match base() {
                Some(base) => {
                    let mut v = Vec::with_capacity(base.len() + tail.len());
                    v.extend_from_slice(&base);
                    v.extend_from_slice(&tail);
                    Bytes::from(v)
                }
                None => Bytes::from(tail),
            }),
        }
    }
}

/// One lock stripe: the ops of the keys hashing here, grouped per table so
/// lookups borrow the caller's `&[u8]` and a table's ops are one map.
type DeltaShard = RwLock<FxHashMap<TableId, FxHashMap<Box<[u8]>, DeltaOp>>>;

const DELTA_SHARDS: usize = 16;

/// Sharded in-memory overlay of every mutation since the last compaction.
/// Mutations are serialized by the store's writer lock; reads take shard
/// read locks only.
#[derive(Debug, Default)]
pub struct DeltaState {
    shards: [DeltaShard; DELTA_SHARDS],
}

impl DeltaState {
    /// Fresh empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, table: TableId, key: &[u8]) -> &DeltaShard {
        let mut h = crate::fxhash::FxHasher::default();
        (table, key).hash(&mut h);
        // DELTA_SHARDS is a power of two, so the mask stays in bounds.
        &self.shards[(h.finish() as usize) & (DELTA_SHARDS - 1)]
    }

    /// The recorded op for `key`, if any (cloned out of the shard).
    pub fn get(&self, table: TableId, key: &[u8]) -> Option<DeltaOp> {
        self.shard(table, key).read().get(&table)?.get(key).cloned()
    }

    /// Whether the delta holds *any* op for `key` (including `Delete`).
    pub fn contains(&self, table: TableId, key: &[u8]) -> bool {
        self.shard(table, key).read().get(&table).is_some_and(|ops| ops.contains_key(key))
    }

    /// Record a full overwrite.
    pub fn record_put(&self, table: TableId, key: &[u8], value: &[u8]) {
        let mut shard = self.shard(table, key).write();
        shard.entry(table).or_default().insert(key.into(), DeltaOp::Put(value.to_vec()));
    }

    /// Record an append, folding it into the existing op for the key.
    pub fn record_append(&self, table: TableId, key: &[u8], value: &[u8]) {
        let mut shard = self.shard(table, key).write();
        match shard.entry(table).or_default().entry(key.into()) {
            Entry::Vacant(e) => {
                e.insert(DeltaOp::Append(value.to_vec()));
            }
            Entry::Occupied(mut e) => match e.get_mut() {
                DeltaOp::Put(v) | DeltaOp::Append(v) => v.extend_from_slice(value),
                DeltaOp::Delete => {
                    e.insert(DeltaOp::Put(value.to_vec()));
                }
            },
        }
    }

    /// Record a deletion.
    pub fn record_delete(&self, table: TableId, key: &[u8]) {
        self.shard(table, key)
            .write()
            .entry(table)
            .or_default()
            .insert(key.into(), DeltaOp::Delete);
    }

    /// Snapshot of the ops recorded for `table`.
    pub fn entries_for(&self, table: TableId) -> Vec<(Box<[u8]>, DeltaOp)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            if let Some(ops) = shard.read().get(&table) {
                out.extend(ops.iter().map(|(k, op)| (k.clone(), op.clone())));
            }
        }
        out
    }

    /// Tables with at least one recorded op, ascending.
    pub fn tables(&self) -> Vec<TableId> {
        let mut t: Vec<TableId> = Vec::new();
        for shard in &self.shards {
            t.extend(shard.read().keys());
        }
        t.sort_unstable();
        t.dedup();
        t
    }

    /// The full key → value image of `table`: the rows of `runs` with this
    /// delta folded on top. Table scans return it and compaction writes it
    /// out.
    pub(crate) fn merged_over(&self, runs: &RunSet, table: TableId) -> BTreeMap<Vec<u8>, Bytes> {
        let mut image = BTreeMap::new();
        for run in runs.for_table(table) {
            for (key, value) in run.iter() {
                image.insert(key.to_vec(), value);
            }
        }
        for (key, op) in self.entries_for(table) {
            let key = key.into_vec();
            // Only an `Append` looks its base up, so a `Put` costs one tree
            // operation, not two.
            match op.apply(|| image.remove(&key)) {
                Some(value) => image.insert(key, value),
                None => image.remove(&key),
            };
        }
        image
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TableId = TableId(1);

    #[test]
    fn delta_op_algebra() {
        let d = DeltaState::new();
        assert!(d.tables().is_empty());
        // put then append extends the put.
        d.record_put(T, b"k", b"ab");
        d.record_append(T, b"k", b"c");
        assert_eq!(d.get(T, b"k"), Some(DeltaOp::Put(b"abc".to_vec())));
        // bare append stays an append (base lives in the runs).
        d.record_append(T, b"j", b"x");
        d.record_append(T, b"j", b"y");
        assert_eq!(d.get(T, b"j"), Some(DeltaOp::Append(b"xy".to_vec())));
        // delete then append restarts from empty — the delete shadowed the
        // run image, so the append defines the full value.
        d.record_delete(T, b"k");
        assert_eq!(d.get(T, b"k"), Some(DeltaOp::Delete));
        d.record_append(T, b"k", b"z");
        assert_eq!(d.get(T, b"k"), Some(DeltaOp::Put(b"z".to_vec())));
        assert!(d.contains(T, b"j"));
        assert!(!d.contains(T, b"missing"));
        assert_eq!(d.tables(), vec![T]);
        assert_eq!(d.entries_for(T).len(), 2);
    }

    #[test]
    fn tables_are_keyed_apart() {
        // The same key bytes under two tables are two rows, and a table's
        // snapshot holds only its own ops.
        let (a, b) = (TableId(2), TableId(9));
        let d = DeltaState::new();
        d.record_put(a, b"k", b"in-a");
        d.record_delete(b, b"k");
        d.record_append(b, b"only-b", b"x");
        assert_eq!(d.get(a, b"k"), Some(DeltaOp::Put(b"in-a".to_vec())));
        assert_eq!(d.get(b, b"k"), Some(DeltaOp::Delete));
        assert!(!d.contains(a, b"only-b"));
        assert_eq!(d.tables(), vec![a, b]);
        assert_eq!(d.entries_for(a).len(), 1);
        assert_eq!(d.entries_for(b).len(), 2);
        assert!(d.entries_for(TableId(3)).is_empty());
    }

    #[test]
    fn apply_folds_each_op_over_an_optional_base() {
        let base = || Some(Bytes::from_static(b"base"));
        let none = || None;
        assert_eq!(DeltaOp::Put(b"v".to_vec()).apply(base).unwrap().as_ref(), b"v");
        assert!(DeltaOp::Delete.apply(base).is_none());
        assert_eq!(DeltaOp::Append(b"+t".to_vec()).apply(base).unwrap().as_ref(), b"base+t");
        assert_eq!(DeltaOp::Append(b"+t".to_vec()).apply(none).unwrap().as_ref(), b"+t");
        // Only an Append looks at the base.
        let unreachable = || -> Option<Bytes> { panic!("base consulted") };
        assert!(DeltaOp::Put(vec![]).apply(unreachable).is_some());
    }
}
