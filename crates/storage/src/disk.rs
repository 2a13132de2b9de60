//! Log-structured persistent store with a tiered immutable cold path.
//!
//! Every mutation is appended as one record to the active segment file
//! ([`crate::segment`]). The live state is one [`Tier`]: an immutable base
//! of sorted per-table **run files** ([`crate::run`]) plus the in-memory
//! [`DeltaState`] overlay of every mutation since the last compaction,
//! rebuilt by replaying segments on open. Point reads fold the delta over
//! zero-copy slices of the resident run images; each run's footer zone map
//! lets [`DiskStore::key_may_exist`] prune whole runs without touching a
//! row. This mirrors the storage Cassandra gives the paper — LSM runs fed
//! by sequential appends, point reads served from memory — at laptop scale,
//! and keeps the index across the periodic update runs of §3.1.3.
//!
//! Everything a manifest publish changes lives in the [`Tier`] behind one
//! `RwLock`, so a reader never observes a half-installed tier (new runs
//! that already contain a delta append *and* the delta still holding it).
//! [`DiskStore::install`] is the only assignment to it and
//! [`DiskStore::publish`] the only writer of the `MANIFEST`; compaction,
//! retention and repair ([`crate::maintain`]) build the tier they want and
//! hand it over. Lock order: `writer` → `tier` → `health`
//! ([`crate::health`]).

use crate::delta::{DeltaOp, DeltaState};
use crate::error::StorageError;
use crate::health::{Health, QuarantineSet, QuarantinedRun};
use crate::kv::{Coverage, KvStore, TableId};
use crate::metrics::StoreMetrics;
use crate::run::{
    parse_run_file_name, read_manifest, run_file_name, write_manifest, Manifest, ManifestRun,
    RunReader, RunSet, ZoneExtractor,
};
use crate::segment::{
    apply_record, encode_record, list_segments, replay_segment, segment_number, segment_path,
    DurabilityPolicy, OP_APPEND, OP_BATCH_BEGIN, OP_BATCH_COMMIT, OP_DELETE, OP_PUT,
};
use crate::vfs::{RealFs, RetryVfs, Vfs, VfsFile};
use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Options for [`DiskStore::open_with`]. The store always wraps `vfs` in a
/// [`RetryVfs`], so interrupted-syscall-style failures are re-issued with
/// bounded backoff instead of tripping the degraded fuse.
#[derive(Debug, Clone)]
pub struct DiskOptions {
    /// Fsync policy of the write path.
    pub durability: DurabilityPolicy,
    /// Filesystem implementation (swap in [`crate::vfs::FaultFs`] to test).
    pub vfs: Arc<dyn Vfs>,
    /// Metrics handle for batch/fsync/degraded accounting (`None`: private).
    pub metrics: Option<Arc<StoreMetrics>>,
    /// Mutation bytes accumulated since the last compaction before
    /// [`DiskStore::maintain`] triggers one; `None` disables the
    /// size-triggered path entirely. The default (4 MiB) is far above what
    /// a single indexing batch writes, so maintenance only fires on
    /// genuinely grown stores.
    pub run_flush_bytes: Option<u64>,
    /// Keep superseded segments on disk after compaction instead of
    /// sweeping them. With the full segment history retained,
    /// [`DiskStore::repair`] can rebuild a quarantined run losslessly from
    /// the log; replay correctness is unaffected either way (the manifest's
    /// `segment_floor` keeps stale segments out of replay). Costs disk
    /// space proportional to total writes.
    pub retain_segments: bool,
}

impl Default for DiskOptions {
    fn default() -> Self {
        Self {
            durability: DurabilityPolicy::default(),
            vfs: Arc::new(RealFs),
            metrics: None,
            run_flush_bytes: Some(4 << 20),
            retain_segments: false,
        }
    }
}

/// The live state of a store, replaced as a whole by
/// [`DiskStore::install`]: the immutable run base, the mutation delta on
/// top of it, and the manifest fields that describe them.
#[derive(Debug, Default)]
pub(crate) struct Tier {
    pub(crate) runs: RunSet,
    pub(crate) delta: Arc<DeltaState>,
    /// First segment number replay may apply (0 before the first manifest).
    pub(crate) segment_floor: u64,
    /// Next unused run id.
    pub(crate) next_run_id: u64,
    /// Mutation bytes logged into `delta` (drives `maintain`). Only written
    /// under the writer lock; a statistic, so `Relaxed`.
    pub(crate) bytes_since_compact: AtomicU64,
}

impl Tier {
    /// This tier over a different run set: same delta, same manifest fields.
    pub(crate) fn with_runs(&self, runs: Vec<Arc<RunReader>>) -> Tier {
        Tier {
            runs: RunSet::new(runs),
            delta: self.delta.clone(),
            segment_floor: self.segment_floor,
            next_run_id: self.next_run_id,
            bytes_since_compact: AtomicU64::new(self.bytes_since_compact.load(Ordering::Relaxed)),
        }
    }

    fn manifest(&self) -> Manifest {
        let runs = self.runs.runs().iter();
        Manifest {
            segment_floor: self.segment_floor,
            next_run_id: self.next_run_id,
            runs: runs.map(|r| ManifestRun { id: r.id, table: r.table, crc: r.crc }).collect(),
        }
    }
}

/// Persistent [`KvStore`] backed by append-only segment files and immutable
/// sorted runs in one directory.
pub struct DiskStore {
    pub(crate) dir: PathBuf,
    tier: RwLock<Arc<Tier>>,
    pub(crate) vfs: Arc<dyn Vfs>,
    durability: DurabilityPolicy,
    pub(crate) metrics: Arc<StoreMetrics>,
    pub(crate) health: Mutex<Health>,
    next_batch: AtomicU64,
    pub(crate) writer: Mutex<Writer>,
    /// Schema-layer hook that derives trace/timestamp zones for run
    /// footers. Installed after open (the row formats are only known once
    /// the Meta table is readable), so compactions before installation
    /// write runs with key-range zones only.
    pub(crate) zone_extractor: RwLock<Option<Arc<dyn ZoneExtractor>>>,
    run_flush_bytes: Option<u64>,
    /// Whether a publish keeps superseded segments as a repair log (see
    /// [`DiskOptions::retain_segments`]).
    retain_segments: bool,
}

/// The active segment. Holding its lock serializes every mutation of the
/// log, the delta and the tier.
pub(crate) struct Writer {
    pub(crate) file: Box<dyn VfsFile>,
    pub(crate) segment: u64,
    in_batch: Option<u64>,
}

impl std::fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStore")
            .field("dir", &self.dir)
            .field("durability", &self.durability)
            .finish()
    }
}

impl DiskStore {
    /// Open (or create) a store in `dir` with default options, replaying any
    /// existing segments.
    ///
    /// A truncated trailing record (torn write at crash) is tolerated and
    /// dropped, as is an uncommitted batch suffix; a checksum mismatch
    /// anywhere else fails the open with [`StorageError::CorruptSegment`] —
    /// replaying past damaged state would silently serve a wrong index.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::open_with(dir, DiskOptions::default())
    }

    /// Open (or create) a store with an explicit durability policy, VFS and
    /// metrics handle.
    ///
    /// With a `MANIFEST` present, the referenced runs are loaded and fully
    /// verified, and only segments at or above the manifest's
    /// `segment_floor` are replayed into the delta. A referenced run that
    /// is damaged or unreadable does **not** fail the open: runs are
    /// derived state, so the store *quarantines* it — records it (reason +
    /// key-range coverage), serves reads from the survivors, reports
    /// [`Coverage::Narrowed`] and refuses compaction/retention until
    /// [`DiskStore::repair`] rebuilds the tier. Without a manifest — a
    /// fresh directory or a store that never compacted — every segment is
    /// replayed.
    pub fn open_with(dir: impl AsRef<Path>, options: DiskOptions) -> Result<Self, StorageError> {
        let DiskOptions { durability, vfs, metrics, run_flush_bytes, retain_segments } = options;
        let metrics = metrics.unwrap_or_default();
        let retrying = RetryVfs::new(vfs);
        retrying.set_metrics(metrics.clone());
        let vfs: Arc<dyn Vfs> = Arc::new(retrying);
        let dir = dir.as_ref().to_path_buf();
        vfs.create_dir_all(&dir)?;
        let manifest = read_manifest(vfs.as_ref(), &dir)?.unwrap_or_default();
        let mut readers = Vec::with_capacity(manifest.runs.len());
        let mut health = Health::default();
        for entry in &manifest.runs {
            let path = dir.join(run_file_name(entry.id, entry.table));
            match RunReader::open_expecting(vfs.as_ref(), &path, entry.id, entry.table, entry.crc) {
                Ok(r) => readers.push(Arc::new(r)),
                // A referenced run that cannot be read or verified is damage
                // to acknowledged state (runs are fsynced before the manifest
                // names them), not a crash artifact — but it is *derived*
                // state, so quarantine it instead of failing the open.
                Err((reason, zone)) => {
                    let (id, table) = (entry.id, entry.table);
                    let lost = QuarantinedRun::new(id, table, path, reason, zone.as_ref());
                    health.quarantine.record(lost);
                    metrics.record_run_quarantined();
                }
            }
        }
        let delta = DeltaState::new();
        let segments = list_segments(vfs.as_ref(), &dir)?;
        let mut next_batch = 0u64;
        // Segments below the floor are superseded by the runs (a sweep
        // failed to remove them, or they are kept as the repair log).
        for &n in segments.iter().filter(|&&n| n >= manifest.segment_floor) {
            let scan = replay_segment(vfs.as_ref(), &segment_path(&dir, n), &delta)?;
            if let Some(id) = scan.max_batch_id {
                next_batch = next_batch.max(id + 1);
            }
        }
        // The active segment is always a fresh file: appending to an
        // existing one could land records after a torn tail. Never reuse a
        // number below the floor.
        let segment = segments.last().map_or(0, |n| n + 1).max(manifest.segment_floor);
        let file = vfs.open_append(&segment_path(&dir, segment))?;
        let store = Self {
            dir,
            tier: RwLock::default(),
            vfs,
            durability,
            metrics,
            health: Mutex::new(health),
            next_batch: AtomicU64::new(next_batch),
            writer: Mutex::new(Writer { file, segment, in_batch: None }),
            zone_extractor: RwLock::new(None),
            run_flush_bytes,
            retain_segments,
        };
        store.install(
            &store.writer.lock(),
            Tier {
                runs: RunSet::new(readers),
                delta: Arc::new(delta),
                segment_floor: manifest.segment_floor,
                next_run_id: manifest.next_run_id,
                bytes_since_compact: AtomicU64::new(0),
            },
        );
        store.mirror_health(&store.health.lock());
        Ok(store)
    }

    /// Install the schema-layer hook that derives trace/timestamp zones for
    /// run footers (see [`ZoneExtractor`]). Runs written before
    /// installation carry key-range zones only.
    pub fn set_zone_extractor(&self, extractor: Arc<dyn ZoneExtractor>) {
        *self.zone_extractor.write() = Some(extractor);
    }

    /// Number of segment files currently on disk.
    pub fn num_segments(&self) -> io::Result<usize> {
        Ok(list_segments(self.vfs.as_ref(), &self.dir)?.len())
    }

    /// Number of live (manifest-referenced) runs.
    pub fn num_runs(&self) -> usize {
        self.tier.read().runs.len()
    }

    /// Mutation bytes logged since the last compaction.
    pub fn bytes_since_compact(&self) -> u64 {
        self.tier.read().bytes_since_compact.load(Ordering::Relaxed)
    }

    /// Snapshot of the current quarantine state: which runs were pulled
    /// from the searched set, why, and the key-range coverage lost.
    pub fn quarantine(&self) -> QuarantineSet {
        self.health.lock().quarantine.clone()
    }

    /// Snapshot of the live tier, for work that outlives a read guard.
    pub(crate) fn tier(&self) -> Arc<Tier> {
        self.tier.read().clone()
    }

    /// Copy the health onto its two gauges — the only place either is set,
    /// called by every function that changes the health.
    pub(crate) fn mirror_health(&self, health: &Health) {
        self.metrics.set_degraded(health.degraded.is_some());
        self.metrics.set_quarantined_live(health.quarantine.len());
    }

    /// Turn the store sticky read-only (see [`Health::degrade`]).
    fn enter_degraded(&self, reason: String) {
        let mut health = self.health.lock();
        health.degrade(reason);
        self.mirror_health(&health);
    }

    /// The preamble of every maintenance operation: take the writer lock
    /// and require a writable store, no open batch and — unless `repairing`,
    /// whose whole point is a quarantined store — nothing quarantined.
    pub(crate) fn maintenance_guard(
        &self,
        what: &str,
        repairing: bool,
    ) -> io::Result<MutexGuard<'_, Writer>> {
        let w = self.writer.lock();
        self.health.lock().maintainable(what, repairing)?;
        if w.in_batch.is_some() {
            return Err(io::Error::other(format!("cannot {what} while a write batch is open")));
        }
        Ok(w)
    }

    /// Swap `next` in as the live tier — the only assignment to the tier
    /// and the only place its gauge is set. `_writer` witnesses that the
    /// caller holds the writer lock, so no mutation can land in the old
    /// delta while it is being replaced.
    pub(crate) fn install(&self, _writer: &Writer, next: Tier) -> Arc<Tier> {
        let next = Arc::new(next);
        self.metrics.set_runs_live(next.runs.len());
        *self.tier.write() = next.clone();
        next
    }

    /// Publish `next` through the manifest — the store's one commit point.
    ///
    /// *The manifest rename is the commit*: until it lands replay still sees
    /// the old manifest and segments, so `Err` means nothing changed. After
    /// it the writer moves above the new floor, `next` is installed and
    /// writers unblock; then the rename is made durable and what `next`
    /// supersedes is swept — segments below its floor (kept as the repair
    /// log under `retain_segments`) and run files it does not reference.
    /// What could not be removed is returned, not failed on: replay ignores
    /// such leftovers and the next publish retries them.
    pub(crate) fn publish(
        &self,
        mut w: MutexGuard<'_, Writer>,
        next: Tier,
    ) -> io::Result<Vec<String>> {
        // Once the manifest supersedes the segments below its floor, every
        // further write must land at or above it — so the segment that will
        // take them is opened first, while failing is still harmless (an
        // empty segment replays as nothing).
        let floor = next.segment_floor;
        let above_floor = if w.segment < floor {
            Some(self.vfs.open_append(&segment_path(&self.dir, floor))?)
        } else {
            None
        };
        write_manifest(self.vfs.as_ref(), &self.dir, &next.manifest())?;
        self.metrics.record_fsync();
        if let Some(file) = above_floor {
            w.file = file;
            w.segment = floor;
        }
        let live = self.install(&w, next);
        drop(w);
        // Make the rename durable before deleting the data it replaces.
        if let Err(e) = self.vfs.sync_dir(&self.dir) {
            return Ok(vec![format!("directory sync failed, nothing swept: {e}")]);
        }
        let names = match self.vfs.read_dir_names(&self.dir) {
            Ok(names) => names,
            Err(e) => return Ok(vec![format!("listing the directory: {e}")]),
        };
        let mut leftovers = Vec::new();
        for name in names {
            let superseded = match segment_number(&name) {
                Some(n) => n < floor && !self.retain_segments,
                None => parse_run_file_name(&name).is_some_and(|(id, table)| {
                    !live.runs.runs().iter().any(|r| r.id == id && r.table == table)
                }),
            };
            if superseded {
                if let Err(e) = self.vfs.remove_file(&self.dir.join(&name)) {
                    leftovers.push(format!("{name}: {e}"));
                }
            }
        }
        Ok(leftovers)
    }

    /// Append one record under the writer lock, honoring the `Always`
    /// fsync policy.
    fn write_record(&self, w: &mut Writer, rec: &[u8]) -> io::Result<()> {
        w.file.write_all(rec)?;
        if self.durability == DurabilityPolicy::Always {
            w.file.sync_all()?;
            self.metrics.record_fsync();
        }
        Ok(())
    }

    /// Log one mutation record and apply it to the delta, both under the
    /// writer lock — so a concurrent compaction can never snapshot a state
    /// missing a record the log already holds.
    fn log_apply(
        &self,
        op: u8,
        table: TableId,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), StorageError> {
        self.health.lock().writable()?;
        let rec = encode_record(op, table, key, value);
        let mut w = self.writer.lock();
        // Re-check under the writer lock: another writer may have failed
        // (and degraded the store) while we waited, and appending after its
        // torn bytes would read as mid-segment corruption on replay.
        self.health.lock().writable()?;
        if let Err(e) = self.write_record(&mut w, &rec) {
            self.enter_degraded(format!("segment write failed: {e}"));
            return Err(StorageError::Io(e));
        }
        let tier = self.tier.read();
        tier.bytes_since_compact.fetch_add(rec.len() as u64, Ordering::Relaxed);
        apply_record(&tier.delta, op, table, key, value);
        Ok(())
    }

    /// Write one batch control record.
    fn write_batch_mark(&self, w: &mut Writer, op: u8, id: u64) -> io::Result<()> {
        let rec = encode_record(op, TableId(0), b"", &id.to_le_bytes());
        self.write_record(w, &rec)
    }

    /// The one point-read body: the delta op for `key`, if any, folded
    /// over the run image. Every run of the table the walk visits is
    /// reported to `on_run` as searched (`true`) or zone-pruned (`false`);
    /// a delta `Put`/`Delete` answers without consulting the runs at all.
    fn read(&self, table: TableId, key: &[u8], on_run: impl FnMut(bool)) -> Option<Bytes> {
        // Borrow the tier under the read guard rather than snapshotting:
        // point reads are the query hot path, and the Arc clone/drop pair
        // a snapshot costs is measurable there. Nothing below takes a store
        // lock, so the guard scope stays leaf-level.
        let tier = self.tier.read();
        let base = || tier.runs.get_pruning(table, key, on_run);
        match tier.delta.get(table, key) {
            Some(op) => op.apply(base),
            // Absent from the delta: the run image is the value, zero-copy.
            None => base(),
        }
    }

    /// Count one run visit as searched (zone covers the key) or pruned.
    fn meter_run(&self, covered: bool) {
        if covered {
            self.metrics.record_run_searched();
        } else {
            self.metrics.record_run_pruned();
        }
    }
}

impl KvStore for DiskStore {
    fn get(&self, table: TableId, key: &[u8]) -> Option<Bytes> {
        self.read(table, key, |_| {})
    }

    /// One-pass fused read for the query hot path: the zone-map membership
    /// check and the row fetch share a single guard scope and a single walk
    /// of the table's runs, where `key_may_exist` + `get` would search the
    /// tier twice. Run pruned/searched accounting matches `key_may_exist`.
    fn get_checked(&self, table: TableId, key: &[u8]) -> Option<Bytes> {
        self.read(table, key, |covered| self.meter_run(covered))
    }

    fn put(&self, table: TableId, key: &[u8], value: &[u8]) -> Result<(), StorageError> {
        self.log_apply(OP_PUT, table, key, value)
    }

    fn append(&self, table: TableId, key: &[u8], value: &[u8]) -> Result<(), StorageError> {
        self.log_apply(OP_APPEND, table, key, value)
    }

    fn delete(&self, table: TableId, key: &[u8]) -> Result<bool, StorageError> {
        let existed = self.get(table, key).is_some();
        self.log_apply(OP_DELETE, table, key, &[])?;
        Ok(existed)
    }

    fn scan(&self, table: TableId) -> Vec<(Bytes, Bytes)> {
        let tier = self.tier();
        let image = tier.delta.merged_over(&tier.runs, table);
        image.into_iter().map(|(k, v)| (Bytes::from(k), v)).collect()
    }

    fn table_len(&self, table: TableId) -> usize {
        let tier = self.tier();
        let mut n: isize = tier.runs.for_table(table).map(|r| r.len() as isize).sum();
        for (key, op) in tier.delta.entries_for(table) {
            // The key was counted iff a run holds it; it now counts iff
            // the op leaves a value.
            let in_run = tier.runs.for_table(table).any(|r| r.contains(&key));
            n += isize::from(op != DeltaOp::Delete) - isize::from(in_run);
        }
        n.max(0) as usize
    }

    fn flush(&self) -> io::Result<()> {
        let mut w = self.writer.lock();
        self.health.lock().writable()?;
        if let Err(e) = w.file.sync_all() {
            self.enter_degraded(format!("flush failed: {e}"));
            return Err(e);
        }
        self.metrics.record_fsync();
        Ok(())
    }

    fn begin_batch(&self) -> Result<(), StorageError> {
        let mut w = self.writer.lock();
        self.health.lock().writable()?;
        if let Some(open) = w.in_batch {
            return Err(StorageError::Io(io::Error::other(format!(
                "batch {open} is already open"
            ))));
        }
        let id = self.next_batch.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.write_batch_mark(&mut w, OP_BATCH_BEGIN, id) {
            self.enter_degraded(format!("batch begin write failed: {e}"));
            return Err(StorageError::Io(e));
        }
        w.in_batch = Some(id);
        Ok(())
    }

    fn commit_batch(&self) -> Result<(), StorageError> {
        let mut w = self.writer.lock();
        self.health.lock().writable()?;
        let Some(id) = w.in_batch.take() else {
            return Err(StorageError::Io(io::Error::other("no open batch to commit")));
        };
        let written = self.write_batch_mark(&mut w, OP_BATCH_COMMIT, id);
        let result = written.and_then(|()| match self.durability {
            // `write_record` already fsynced the commit record.
            DurabilityPolicy::Always => Ok(()),
            DurabilityPolicy::Batch => w.file.sync_all().map(|()| self.metrics.record_fsync()),
            DurabilityPolicy::Os => w.file.flush(),
        });
        match result {
            Ok(()) => {
                self.metrics.record_batch_commit();
                Ok(())
            }
            Err(e) => {
                self.metrics.record_batch_abort();
                self.enter_degraded(format!("batch commit failed: {e}"));
                Err(StorageError::Io(e))
            }
        }
    }

    fn abort_batch(&self) {
        let mut w = self.writer.lock();
        if w.in_batch.take().is_some() {
            self.metrics.record_batch_abort();
            // The memtable already applied part of the batch, but replay
            // will discard the whole uncommitted suffix: memory is ahead of
            // the durable committed prefix until a restart.
            self.enter_degraded(
                "write batch aborted mid-batch; in-memory state is ahead of the durable \
                 committed prefix"
                    .to_owned(),
            );
        }
    }

    fn degraded(&self) -> Option<String> {
        self.health.lock().degraded.clone()
    }

    /// Zone-map pruning: a key outside every run's key range — and absent
    /// from the delta — is definitely not stored, without touching a row.
    /// Each run of the table counts as either pruned (zone excludes the
    /// key) or searched (zone covers it) in [`StoreMetrics`].
    fn key_may_exist(&self, table: TableId, key: &[u8]) -> bool {
        // Same guard-level borrow as `read`: this runs once per posting row
        // on the query read path.
        let tier = self.tier.read();
        // No immutable tier yet (fresh or never-compacted store): no
        // pruning metadata exists, so every key may exist.
        if tier.runs.is_empty() || tier.delta.contains(table, key) {
            return true;
        }
        let mut covered = false;
        for run in tier.runs.for_table(table) {
            let hit = run.zone.covers_key(key);
            self.meter_run(hit);
            covered |= hit;
        }
        covered
    }

    /// Size-triggered compaction: once the mutation bytes logged since the
    /// last compaction exceed [`DiskOptions::run_flush_bytes`], fold them
    /// into fresh runs. Called by the indexer after each committed batch.
    fn maintain(&self) -> Result<(), StorageError> {
        let Some(limit) = self.run_flush_bytes else {
            return Ok(());
        };
        // Compaction is refused while runs are quarantined; maintenance
        // just waits for a repair instead of failing every committed batch.
        if self.bytes_since_compact() < limit || !self.health.lock().quarantine.is_empty() {
            return Ok(());
        }
        self.compact().map_err(StorageError::Io)
    }

    fn coverage(&self) -> Coverage {
        // Path syntax on purpose: `cargo xtask analyze` resolves method
        // calls by name and would read `.coverage()` under the health lock
        // as this function re-entering itself.
        Health::coverage(&self.health.lock())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::segment::verify_segments;
    use crate::vfs::FaultFs;
    use std::fs;

    pub(crate) const T: TableId = TableId(3);

    pub(crate) fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("seqdet-disk-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    pub(crate) fn open_fault(dir: &Path, fault: &FaultFs) -> DiskStore {
        DiskStore::open_with(
            dir,
            DiskOptions { vfs: Arc::new(fault.clone()), ..DiskOptions::default() },
        )
        .unwrap()
    }

    /// Flip one mid-file byte of `path` on the real filesystem — simulated
    /// at-rest bit rot for a closed store.
    pub(crate) fn flip_mid_byte(path: &Path) {
        let mut data = fs::read(path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        fs::write(path, data).unwrap();
    }

    /// Path of the run file holding `table`'s rows.
    pub(crate) fn run_path_for(dir: &Path, table: TableId) -> PathBuf {
        for entry in fs::read_dir(dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if let Some((_, t)) = parse_run_file_name(&name) {
                if t == table {
                    return dir.join(name);
                }
            }
        }
        panic!("no run file for table {table:?} in {}", dir.display());
    }

    #[test]
    fn basic_ops_behave_like_memstore() {
        let dir = tmp_dir("basic");
        let s = DiskStore::open(&dir).unwrap();
        s.put(T, b"k", b"v").unwrap();
        s.append(T, b"k", b"2").unwrap();
        assert_eq!(s.get(T, b"k").unwrap().as_ref(), b"v2");
        assert!(s.delete(T, b"k").unwrap());
        assert!(s.get(T, b"k").is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn state_survives_reopen() {
        let dir = tmp_dir("reopen");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"a", b"1").unwrap();
            s.append(T, b"b", b"xy").unwrap();
            s.append(T, b"b", b"z").unwrap();
            s.put(T, b"gone", b"1").unwrap();
            s.delete(T, b"gone").unwrap();
            s.flush().unwrap();
        }
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"1");
        assert_eq!(s.get(T, b"b").unwrap().as_ref(), b"xyz");
        assert!(s.get(T, b"gone").is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_keys_and_values_roundtrip() {
        let dir = tmp_dir("empty");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"", b"").unwrap();
            s.put(T, b"k", b"").unwrap();
            s.flush().unwrap();
        }
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"").unwrap().len(), 0);
        assert_eq!(s.get(T, b"k").unwrap().len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_ids_keep_growing_across_reopen() {
        let dir = tmp_dir("batch-ids");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.begin_batch().unwrap();
            s.put(T, b"a", b"1").unwrap();
            s.commit_batch().unwrap();
        }
        {
            let s = DiskStore::open(&dir).unwrap();
            assert_eq!(s.next_batch.load(Ordering::Relaxed), 1);
            s.begin_batch().unwrap();
            s.put(T, b"b", b"2").unwrap();
            s.commit_batch().unwrap();
        }
        let report = verify_segments(&dir).unwrap();
        assert_eq!(report.batches_committed, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nested_begin_and_stray_commit_are_refused() {
        let dir = tmp_dir("batch-misuse");
        let s = DiskStore::open(&dir).unwrap();
        assert!(s.commit_batch().is_err(), "commit without begin");
        s.begin_batch().unwrap();
        assert!(s.begin_batch().is_err(), "nested begin");
        s.commit_batch().unwrap();
        assert!(s.degraded().is_none(), "misuse errors must not degrade the store");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_failure_degrades_store_but_reads_survive() {
        let dir = tmp_dir("degrade");
        let fault = FaultFs::new();
        let s = open_fault(&dir, &fault);
        s.put(T, b"a", b"1").unwrap();
        fault.arm_fail_after_writes(0);
        let err = s.put(T, b"b", b"2").unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "first failure is the I/O error: {err}");
        // Sticky: later writes are refused as Degraded, even though the
        // injected fault has passed.
        fault.heal();
        assert!(s.put(T, b"c", b"3").unwrap_err().is_degraded());
        assert!(s.append(T, b"a", b"x").unwrap_err().is_degraded());
        assert!(s.delete(T, b"a").unwrap_err().is_degraded());
        assert!(s.begin_batch().unwrap_err().is_degraded());
        assert!(s.flush().is_err());
        assert!(s.compact().is_err());
        assert!(s.degraded().unwrap().contains("segment write failed"));
        // Reads keep serving the pre-failure state; the failed write was
        // not applied to memory.
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"1");
        assert!(s.get(T, b"b").is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abort_batch_degrades_and_reopen_recovers_committed_prefix() {
        let dir = tmp_dir("abort");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.begin_batch().unwrap();
            s.put(T, b"committed", b"1").unwrap();
            s.commit_batch().unwrap();
            s.begin_batch().unwrap();
            s.put(T, b"half", b"x").unwrap();
            s.abort_batch();
            // Memory is ahead of the durable committed prefix: degraded.
            assert!(s.degraded().is_some());
            assert!(s.put(T, b"later", b"y").unwrap_err().is_degraded());
            // The aborted batch's write is still visible in memory…
            assert_eq!(s.get(T, b"half").unwrap().as_ref(), b"x");
        }
        // …but a restart lands on the committed-batch boundary.
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"committed").unwrap().as_ref(), b"1");
        assert!(s.get(T, b"half").is_none());
        assert!(s.degraded().is_none(), "a reopened store starts healthy");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_over_runs_folds_mutations_across_compactions() {
        let dir = tmp_dir("delta-fold");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.append(T, b"grow", b"base").unwrap();
            s.put(T, b"gone", b"soon").unwrap();
            s.put(T, b"stay", b"1").unwrap();
            s.compact().unwrap();
            // Mutate on top of the runs: append to a run row, delete a run
            // row, overwrite a run row, create a fresh row.
            s.append(T, b"grow", b"+tail").unwrap();
            s.delete(T, b"gone").unwrap();
            s.put(T, b"stay", b"2").unwrap();
            s.put(T, b"new", b"row").unwrap();
            assert_eq!(s.get(T, b"grow").unwrap().as_ref(), b"base+tail");
            assert!(s.get(T, b"gone").is_none());
            assert_eq!(s.table_len(T), 3);
            s.flush().unwrap();
        }
        // Reopen replays the delta from the post-compaction segment.
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"grow").unwrap().as_ref(), b"base+tail");
        assert!(s.get(T, b"gone").is_none());
        assert_eq!(s.get(T, b"stay").unwrap().as_ref(), b"2");
        assert_eq!(s.get(T, b"new").unwrap().as_ref(), b"row");
        // A second compaction folds the delta into fresh runs.
        s.compact().unwrap();
        assert_eq!(s.get(T, b"grow").unwrap().as_ref(), b"base+tail");
        assert_eq!(s.table_len(T), 3);
        let scanned = s.scan(T);
        assert_eq!(scanned.len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_may_exist_prunes_by_zone_map() {
        let dir = tmp_dir("zone-prune");
        let metrics = Arc::new(StoreMetrics::new());
        let s = DiskStore::open_with(
            &dir,
            DiskOptions { metrics: Some(metrics.clone()), ..DiskOptions::default() },
        )
        .unwrap();
        // Before any run exists there is no pruning metadata.
        assert!(s.key_may_exist(T, b"anything"));
        s.put(T, b"m-key-1", b"1").unwrap();
        s.put(T, b"m-key-5", b"5").unwrap();
        s.compact().unwrap();
        // Inside the zone: the run must be consulted.
        assert!(s.key_may_exist(T, b"m-key-1"));
        assert!(s.key_may_exist(T, b"m-key-3"), "absent but zone-covered: may exist");
        assert_eq!(metrics.runs_searched(), 2);
        // Outside the zone on both sides: definitively absent.
        assert!(!s.key_may_exist(T, b"a-before"));
        assert!(!s.key_may_exist(T, b"z-after"));
        assert_eq!(metrics.runs_pruned(), 2);
        // Fresh delta writes are always visible.
        s.put(T, b"z-after", b"now").unwrap();
        assert!(s.key_may_exist(T, b"z-after"));
        // A table with no runs and no delta rows holds nothing.
        assert!(!s.key_may_exist(TableId(99), b"m-key-1"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn get_checked_fuses_pruning_with_the_read() {
        let dir = tmp_dir("get-checked");
        let metrics = Arc::new(StoreMetrics::new());
        let s = DiskStore::open_with(
            &dir,
            DiskOptions { metrics: Some(metrics.clone()), ..DiskOptions::default() },
        )
        .unwrap();
        s.put(T, b"m-key-1", b"1").unwrap();
        s.put(T, b"m-key-5", b"5").unwrap();
        s.compact().unwrap();
        // A covered hit and a covered miss each search the run once.
        assert_eq!(s.get_checked(T, b"m-key-1").unwrap().as_ref(), b"1");
        assert!(s.get_checked(T, b"m-key-3").is_none());
        assert_eq!(metrics.runs_searched(), 2);
        // Outside the zone: the run's row index is never consulted.
        assert!(s.get_checked(T, b"a-before").is_none());
        assert!(s.get_checked(T, b"z-after").is_none());
        assert_eq!(metrics.runs_pruned(), 2);
        // Delta ops shadow and extend the run image without run accounting,
        // matching `key_may_exist`'s delta fast path.
        s.put(T, b"m-key-1", b"new").unwrap();
        s.append(T, b"m-key-5", b"+tail").unwrap();
        let (searched, pruned) = (metrics.runs_searched(), metrics.runs_pruned());
        assert_eq!(s.get_checked(T, b"m-key-1").unwrap().as_ref(), b"new");
        assert_eq!(metrics.runs_searched(), searched, "delta Put answers without the runs");
        assert_eq!(s.get_checked(T, b"m-key-5").unwrap().as_ref(), b"5+tail");
        assert_eq!(metrics.runs_searched(), searched + 1, "Append merges over the run image");
        assert_eq!(metrics.runs_pruned(), pruned);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn maintain_compacts_once_over_the_byte_threshold() {
        let dir = tmp_dir("maintain");
        let s = DiskStore::open_with(
            &dir,
            DiskOptions { run_flush_bytes: Some(64), ..DiskOptions::default() },
        )
        .unwrap();
        s.maintain().unwrap();
        assert_eq!(s.num_runs(), 0, "below the threshold: no compaction");
        for i in 0..8u32 {
            s.append(T, b"k", &i.to_le_bytes()).unwrap();
        }
        assert!(s.bytes_since_compact() > 64);
        s.maintain().unwrap();
        assert_eq!(s.num_runs(), 1, "over the threshold: compacted into a run");
        assert_eq!(s.bytes_since_compact(), 0);
        assert_eq!(s.get(T, b"k").unwrap().len(), 32);
        // Disabled maintenance never compacts.
        let dir2 = tmp_dir("maintain-off");
        let s2 = DiskStore::open_with(
            &dir2,
            DiskOptions { run_flush_bytes: None, ..DiskOptions::default() },
        )
        .unwrap();
        for i in 0..100u32 {
            s2.append(T, b"k", &i.to_le_bytes()).unwrap();
        }
        s2.maintain().unwrap();
        assert_eq!(s2.num_runs(), 0);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn durability_policy_names_roundtrip() {
        for p in [DurabilityPolicy::Always, DurabilityPolicy::Batch, DurabilityPolicy::Os] {
            assert_eq!(DurabilityPolicy::from_name(p.name()), Some(p));
        }
        assert_eq!(DurabilityPolicy::from_name("paranoid"), None);
        assert_eq!(DurabilityPolicy::default(), DurabilityPolicy::Batch);
    }

    #[test]
    fn durability_always_fsyncs_every_record() {
        let dir = tmp_dir("durability-always");
        let metrics = Arc::new(StoreMetrics::new());
        let s = DiskStore::open_with(
            &dir,
            DiskOptions {
                durability: DurabilityPolicy::Always,
                metrics: Some(metrics.clone()),
                ..DiskOptions::default()
            },
        )
        .unwrap();
        s.put(T, b"a", b"1").unwrap();
        s.put(T, b"b", b"2").unwrap();
        assert_eq!(metrics.fsyncs(), 2);
        s.begin_batch().unwrap();
        s.put(T, b"c", b"3").unwrap();
        s.commit_batch().unwrap();
        assert_eq!(metrics.batch_commits(), 1);
        // begin + put fsync per record, plus the commit-boundary fsync.
        assert_eq!(metrics.fsyncs(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_expose_degraded_flag_and_aborts() {
        let dir = tmp_dir("metrics-degraded");
        let fault = FaultFs::new();
        let metrics = Arc::new(StoreMetrics::new());
        let s = DiskStore::open_with(
            &dir,
            DiskOptions {
                vfs: Arc::new(fault.clone()),
                metrics: Some(metrics.clone()),
                ..DiskOptions::default()
            },
        )
        .unwrap();
        s.begin_batch().unwrap();
        s.put(T, b"a", b"1").unwrap();
        s.abort_batch();
        assert_eq!(metrics.batch_aborts(), 1);
        assert!(metrics.degraded());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_run_quarantines_on_open_instead_of_failing() {
        let dir = tmp_dir("quarantine-open");
        let t2 = TableId(8);
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"hit", b"run-row").unwrap();
            s.put(t2, b"safe", b"other-table").unwrap();
            s.compact().unwrap();
        }
        flip_mid_byte(&run_path_for(&dir, T));
        let metrics = Arc::new(StoreMetrics::new());
        let s = DiskStore::open_with(
            &dir,
            DiskOptions { metrics: Some(metrics.clone()), ..DiskOptions::default() },
        )
        .unwrap();
        // The damaged run is out of the searched set: its rows are gone,
        // the surviving table still answers, nothing fails.
        assert!(s.get(T, b"hit").is_none());
        assert_eq!(s.get(t2, b"safe").unwrap().as_ref(), b"other-table");
        let q = s.quarantine();
        assert_eq!(q.len(), 1);
        assert_eq!(q.tables(), vec![T]);
        match s.coverage() {
            Coverage::Narrowed { quarantined_tables, reason } => {
                assert_eq!(quarantined_tables, vec![T]);
                assert!(!reason.is_empty());
            }
            Coverage::Full => panic!("damaged run did not narrow coverage"),
        }
        assert_eq!(metrics.runs_quarantined(), 1);
        assert_eq!(metrics.quarantined_live(), 1);
        // New writes still land (in the delta and segments).
        s.put(T, b"fresh", b"write").unwrap();
        assert_eq!(s.get(T, b"fresh").unwrap().as_ref(), b"write");
        s.flush().unwrap();
        drop(s);
        // The manifest still references the damaged run, so a reopen
        // re-quarantines it — the narrowed state is sticky until repaired.
        let s = DiskStore::open(&dir).unwrap();
        assert!(!s.coverage().is_full());
        assert_eq!(s.get(T, b"fresh").unwrap().as_ref(), b"write");
        fs::remove_dir_all(&dir).unwrap();
    }
}
