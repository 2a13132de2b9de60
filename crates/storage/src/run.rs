//! Tiered immutable-run storage: sorted per-table run files and the
//! crash-consistent `RunSet` manifest that names the live ones.
//!
//! [`crate::DiskStore`]'s cold path stores its state as **runs**: immutable,
//! sorted, CRC-protected files of full key→value images, one file per
//! table, emitted by compaction. The set of live runs is named by a single
//! `MANIFEST` file whose atomic rename (`.tmp` + fsync + rename + dir
//! fsync, through the [`Vfs`] seam) is the only commit point — a run file
//! that no manifest references is an orphan replay ignores. The manifest
//! also records the `segment_floor`: the first segment number replay may
//! apply. Stale segments below the floor can *never* double-replay, even if
//! the post-compaction sweep failed to unlink them.
//!
//! ## Run file format (all integers little-endian)
//!
//! ```text
//! run      := MAGIC(u32) record* footer footer_start(u64) crc(u32) TAIL(u32)
//! record   := key_len(u32) val_len(u32) key value      -- strictly ascending keys
//! footer   := records(u64) len_bytes(min_key) len_bytes(max_key)
//!             has_zones(u8) trace_min(u32) trace_max(u32) ts_min(u64) ts_max(u64)
//! ```
//!
//! The footer is the run's **zone map**: min/max key, record count and —
//! when a [`ZoneExtractor`] could decode every record — the trace-id and
//! timestamp ranges of the rows inside. Queries consult it to skip whole
//! runs before touching a posting row, and retention drops runs whose whole
//! time range has expired. The CRC covers every byte before it (magic,
//! records, footer, footer offset).
//!
//! Readers load the file once into a reference-counted [`Bytes`] buffer
//! (the portable stand-in for mmap) and serve point reads as zero-copy
//! slices of it via binary search.

use crate::codec::{Dec, Enc};
use crate::crc::crc32;
use crate::error::StorageError;
use crate::fxhash::FxHashMap;
use crate::kv::TableId;
use crate::vfs::Vfs;
use bytes::Bytes;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First bytes of every run file.
pub const RUN_MAGIC: u32 = 0x5351_524E; // "SQRN"
/// Last bytes of every run file.
const RUN_TAIL_MAGIC: u32 = 0x4E52_5153;
/// First bytes of the manifest.
const MANIFEST_MAGIC: u32 = 0x5351_4D46; // "SQMF"
/// Manifest format version this build writes and reads.
const MANIFEST_VERSION: u8 = 1;
/// File name of the run-set manifest inside a store directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// File name of run `id` for `table`.
pub fn run_file_name(id: u64, table: TableId) -> String {
    format!("run-{id:06}-t{:03}.run", table.0)
}

/// Parse a run file name back into `(id, table)`.
pub fn parse_run_file_name(name: &str) -> Option<(u64, TableId)> {
    let rest = name.strip_prefix("run-")?.strip_suffix(".run")?;
    let (id, table) = rest.split_once("-t")?;
    Some((id.parse().ok()?, TableId(table.parse::<u8>().ok()?)))
}

/// Trace-id and timestamp ranges of the rows inside one run — the part of
/// the zone map only the schema layer can derive (it has to decode posting
/// rows to see trace ids and completion timestamps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowZones {
    /// Smallest trace id referenced by any row.
    pub trace_min: u32,
    /// Largest trace id referenced by any row.
    pub trace_max: u32,
    /// Earliest timestamp referenced by any row.
    pub ts_min: u64,
    /// Latest timestamp referenced by any row.
    pub ts_max: u64,
}

impl RowZones {
    /// Merge two zone ranges into their union.
    pub fn merge(self, other: RowZones) -> RowZones {
        RowZones {
            trace_min: self.trace_min.min(other.trace_min),
            trace_max: self.trace_max.max(other.trace_max),
            ts_min: self.ts_min.min(other.ts_min),
            ts_max: self.ts_max.max(other.ts_max),
        }
    }
}

/// Derives per-row [`RowZones`] for the zone map. The storage crate cannot
/// decode the five tables' row formats, so compaction asks the schema layer
/// (installed via `DiskStore::set_zone_extractor`) for each record's
/// trace/timestamp ranges. Returning `None` for *any* record of a table
/// leaves that run without trace/ts zones (key-range pruning still applies;
/// retention never drops it).
pub trait ZoneExtractor: Send + Sync {
    /// Trace/timestamp ranges referenced by the row `(table, key, value)`.
    fn zones(&self, table: TableId, key: &[u8], value: &[u8]) -> Option<RowZones>;
}

/// The pruning metadata of one run, stored in its footer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneMap {
    /// Smallest key in the run.
    pub min_key: Vec<u8>,
    /// Largest key in the run.
    pub max_key: Vec<u8>,
    /// Number of records.
    pub records: u64,
    /// Trace/timestamp ranges, when every record yielded them.
    pub zones: Option<RowZones>,
}

impl ZoneMap {
    /// Whether `key` falls inside this run's key range. Uses plain byte-wise
    /// ordering — the same comparator the writer sorts with and the reader
    /// binary-searches with, so pruning can never skip a present key.
    pub fn covers_key(&self, key: &[u8]) -> bool {
        self.min_key.as_slice() <= key && key <= self.max_key.as_slice()
    }
}

/// Encode the footer + trailer for a run whose records span
/// `[4, footer_start)` of `buf`, and append them to `buf`.
fn append_footer(buf: &mut Vec<u8>, zone: &ZoneMap) {
    let footer_start = buf.len() as u64;
    let mut enc = Enc::with_capacity(64 + zone.min_key.len() + zone.max_key.len());
    enc.u64(zone.records).len_bytes(&zone.min_key).len_bytes(&zone.max_key);
    match zone.zones {
        Some(z) => {
            enc.u8(1).u32(z.trace_min).u32(z.trace_max).u64(z.ts_min).u64(z.ts_max);
        }
        None => {
            enc.u8(0).u32(0).u32(0).u64(0).u64(0);
        }
    }
    enc.u64(footer_start);
    buf.extend_from_slice(enc.as_slice());
    let crc = crc32(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(&RUN_TAIL_MAGIC.to_le_bytes());
}

/// Serialize one run into a single buffer. `records` must be sorted
/// strictly ascending by key; an unsorted or duplicated key is a programmer
/// error reported as [`io::ErrorKind::InvalidInput`] (never written to
/// disk). Returns `None` for an empty record set — empty runs are never
/// materialized.
pub fn encode_run(
    table: TableId,
    records: &[(Vec<u8>, Bytes)],
    extractor: Option<&dyn ZoneExtractor>,
) -> io::Result<Option<(Vec<u8>, ZoneMap)>> {
    let (Some(first), Some(last)) = (records.first(), records.last()) else {
        return Ok(None);
    };
    let mut buf = Vec::with_capacity(
        4 + records.iter().map(|(k, v)| 8 + k.len() + v.len()).sum::<usize>() + 96,
    );
    buf.extend_from_slice(&RUN_MAGIC.to_le_bytes());
    let mut zones: Option<RowZones> = None;
    let mut all_zoned = true;
    let mut prev: Option<&[u8]> = None;
    for (key, value) in records {
        if prev.is_some_and(|p| p >= key.as_slice()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "run records are not strictly ascending by key",
            ));
        }
        prev = Some(key.as_slice());
        let mut enc = Enc::with_capacity(8 + key.len() + value.len());
        enc.u32(key.len() as u32).u32(value.len() as u32).bytes(key).bytes(value);
        buf.extend_from_slice(enc.as_slice());
        if all_zoned {
            match extractor.and_then(|x| x.zones(table, key, value)) {
                Some(z) => zones = Some(zones.map_or(z, |acc| acc.merge(z))),
                None => {
                    all_zoned = false;
                    zones = None;
                }
            }
        }
    }
    let zone = ZoneMap {
        min_key: first.0.clone(),
        max_key: last.0.clone(),
        records: records.len() as u64,
        zones,
    };
    append_footer(&mut buf, &zone);
    Ok(Some((buf, zone)))
}

/// Byte offsets of one record inside a run buffer. `u32` offsets bound run
/// files to < 4 GiB, which [`RunReader::open`] validates.
#[derive(Debug, Clone, Copy)]
struct RecIdx {
    key_off: u32,
    key_len: u32,
    val_off: u32,
    val_len: u32,
}

/// One immutable run, resident as a reference-counted byte buffer. Point
/// reads go through a resident hash index built at open (the sorted
/// on-disk order still serves zone pruning, range iteration, and merges)
/// and return zero-copy slices of the buffer.
pub struct RunReader {
    /// Run id (unique per store; from the manifest's `next_run_id`).
    pub id: u64,
    /// The table this run holds rows of.
    pub table: TableId,
    /// The file this run was read from.
    pub path: PathBuf,
    /// Zone map decoded from the footer.
    pub zone: ZoneMap,
    /// CRC stored in the trailer (the manifest cross-checks it).
    pub crc: u32,
    data: Bytes,
    index: Vec<RecIdx>,
    /// Key → record position. The open path walks every record anyway (to
    /// validate structure and key order), so building this costs one hash
    /// insert per record and turns the query path's point reads into O(1)
    /// probes instead of binary searches over cold pages.
    point: FxHashMap<Box<[u8]>, u32>,
}

impl std::fmt::Debug for RunReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunReader")
            .field("id", &self.id)
            .field("table", &self.table)
            .field("records", &self.zone.records)
            .finish()
    }
}

fn corrupt(path: &Path, reason: impl Into<String>) -> StorageError {
    StorageError::CorruptRun { path: path.to_path_buf(), reason: reason.into() }
}

impl RunReader {
    /// Read and fully validate the run at `path`: magic, trailer, CRC,
    /// footer shape, record structure, strictly-ascending keys, and zone
    /// containment (footer min/max must equal the actual first/last key).
    pub fn open(
        vfs: &dyn Vfs,
        path: &Path,
        id: u64,
        table: TableId,
    ) -> Result<RunReader, StorageError> {
        let raw = vfs.read(path)?;
        if raw.len() > u32::MAX as usize {
            return Err(corrupt(path, "run file exceeds 4 GiB"));
        }
        // magic + footer_start + crc + tail magic at minimum.
        if raw.len() < 4 + 8 + 4 + 4 {
            return Err(corrupt(path, "file too short for a run"));
        }
        let head = raw.get(..4).map(|b| Dec::new(b).u32());
        if head != Some(Some(RUN_MAGIC)) {
            return Err(corrupt(path, "bad run magic"));
        }
        let tail_start = raw.len() - 8;
        let mut tail = Dec::new(raw.get(tail_start..).unwrap_or(&[]));
        let (Some(stored_crc), Some(tail_magic)) = (tail.u32(), tail.u32()) else {
            return Err(corrupt(path, "unreadable trailer"));
        };
        if tail_magic != RUN_TAIL_MAGIC {
            return Err(corrupt(path, "bad tail magic"));
        }
        let covered = raw.get(..tail_start).unwrap_or(&[]);
        if crc32(covered) != stored_crc {
            return Err(corrupt(path, "checksum mismatch"));
        }
        let Some(footer_start) = covered
            .len()
            .checked_sub(8)
            .and_then(|off| covered.get(off..))
            .and_then(|b| Dec::new(b).u64())
        else {
            return Err(corrupt(path, "unreadable footer offset"));
        };
        let footer_start = footer_start as usize;
        let Some(footer_bytes) = covered.get(footer_start..covered.len() - 8) else {
            return Err(corrupt(path, "footer offset out of bounds"));
        };
        let mut d = Dec::new(footer_bytes);
        let (Some(records), Some(min_key), Some(max_key), Some(has_zones)) =
            (d.u64(), d.len_bytes(), d.len_bytes(), d.u8())
        else {
            return Err(corrupt(path, "truncated footer"));
        };
        let (Some(trace_min), Some(trace_max), Some(ts_min), Some(ts_max)) =
            (d.u32(), d.u32(), d.u64(), d.u64())
        else {
            return Err(corrupt(path, "truncated footer zones"));
        };
        if !d.is_done() {
            return Err(corrupt(path, "trailing bytes after footer"));
        }
        let zone = ZoneMap {
            min_key: min_key.to_vec(),
            max_key: max_key.to_vec(),
            records,
            zones: (has_zones == 1).then_some(RowZones { trace_min, trace_max, ts_min, ts_max }),
        };
        // Walk the record region, building the binary-search index.
        let Some(body) = covered.get(4..footer_start) else {
            return Err(corrupt(path, "record region out of bounds"));
        };
        let mut index = Vec::with_capacity(records as usize);
        let mut point = FxHashMap::default();
        point.reserve(records as usize);
        let mut d = Dec::new(body);
        let mut prev: Option<&[u8]> = None;
        while !d.is_done() {
            let off = 4 + (body.len() - d.remaining());
            let (Some(klen), Some(vlen)) = (d.u32(), d.u32()) else {
                return Err(corrupt(path, "truncated record header"));
            };
            let (Some(key), Some(_)) = (d.bytes(klen as usize), d.bytes(vlen as usize)) else {
                return Err(corrupt(path, "truncated record body"));
            };
            if prev.is_some_and(|p| p >= key) {
                return Err(corrupt(path, "keys not strictly ascending"));
            }
            prev = Some(key);
            point.insert(key.into(), index.len() as u32);
            index.push(RecIdx {
                key_off: (off + 8) as u32,
                key_len: klen,
                val_off: (off + 8) as u32 + klen,
                val_len: vlen,
            });
        }
        if index.len() as u64 != records {
            return Err(corrupt(
                path,
                format!("footer says {records} records, file holds {}", index.len()),
            ));
        }
        let first = index.first().map(|r| slice_of(&raw, r.key_off, r.key_len));
        let last = index.last().map(|r| slice_of(&raw, r.key_off, r.key_len));
        if records > 0
            && (first != Some(zone.min_key.as_slice()) || last != Some(zone.max_key.as_slice()))
        {
            return Err(corrupt(path, "zone key range does not match record keys"));
        }
        Ok(RunReader {
            id,
            table,
            path: path.to_path_buf(),
            zone,
            crc: stored_crc,
            data: Bytes::from(raw),
            index,
            point,
        })
    }

    /// [`open`](RunReader::open) a run something already refers to: the
    /// file must also carry the CRC its referrer recorded. A failure returns
    /// the diagnosis and, when the file still parsed, its zone map.
    pub(crate) fn open_expecting(
        vfs: &dyn Vfs,
        path: &Path,
        id: u64,
        table: TableId,
        crc: u32,
    ) -> Result<RunReader, (String, Option<ZoneMap>)> {
        match Self::open(vfs, path, id, table) {
            Ok(r) if r.crc == crc => Ok(r),
            Ok(r) => Err((format!("expected crc {crc:08x}, file has {:08x}", r.crc), Some(r.zone))),
            Err(StorageError::CorruptRun { reason, .. }) => Err((reason, None)),
            Err(e) => Err((format!("unreadable: {e}"), None)),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the run holds no records (never produced by compaction).
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Size of the backing file in bytes.
    pub fn file_bytes(&self) -> usize {
        self.data.len()
    }

    /// Whether `key` is present (zone check + point-index probe).
    pub fn contains(&self, key: &[u8]) -> bool {
        self.lookup(key).is_some()
    }

    fn lookup(&self, key: &[u8]) -> Option<&RecIdx> {
        // The zone check first: on a partitioned store most probes miss
        // most runs, and the min/max compare is cheaper than a hash.
        if !self.zone.covers_key(key) {
            return None;
        }
        self.point.get(key).and_then(|&i| self.index.get(i as usize))
    }

    /// Zero-copy point read: the returned [`Bytes`] is a slice of the run's
    /// resident buffer.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        let r = self.lookup(key)?;
        Some(self.data.slice(r.val_off as usize..(r.val_off + r.val_len) as usize))
    }

    /// Iterate `(key, value)` in key order, values zero-copy.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Bytes)> + '_ {
        self.index.iter().map(|r| {
            (
                slice_of(&self.data, r.key_off, r.key_len),
                self.data.slice(r.val_off as usize..(r.val_off + r.val_len) as usize),
            )
        })
    }
}

fn slice_of(data: &[u8], off: u32, len: u32) -> &[u8] {
    data.get(off as usize..(off + len) as usize).unwrap_or(&[])
}

/// One run referenced by the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestRun {
    /// Run id (names the file together with `table`).
    pub id: u64,
    /// Table the run holds rows of.
    pub table: TableId,
    /// Expected CRC of the run file's covered region.
    pub crc: u32,
}

/// The persisted description of a store's immutable tier: which runs are
/// live and where segment replay starts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// First segment number replay may apply. Segments below the floor are
    /// superseded by the runs and ignored — which is what makes a failed
    /// post-compaction sweep harmless.
    pub segment_floor: u64,
    /// Next unused run id.
    pub next_run_id: u64,
    /// Live runs, in the order compaction wrote them.
    pub runs: Vec<ManifestRun>,
}

/// Serialize a manifest (including its trailing CRC).
pub fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut enc = Enc::with_capacity(32 + m.runs.len() * 16);
    enc.u32(MANIFEST_MAGIC).u8(MANIFEST_VERSION).u64(m.segment_floor).u64(m.next_run_id);
    enc.u32(m.runs.len() as u32);
    for r in &m.runs {
        enc.u64(r.id).u8(r.table.0).u32(r.crc);
    }
    let mut buf = enc.into_vec();
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Decode and verify a manifest buffer.
pub fn decode_manifest(path: &Path, data: &[u8]) -> Result<Manifest, StorageError> {
    if data.len() < 4 {
        return Err(corrupt(path, "manifest too short"));
    }
    let body_len = data.len() - 4;
    let (body, tail) = data.split_at(body_len);
    if Dec::new(tail).u32() != Some(crc32(body)) {
        return Err(corrupt(path, "manifest checksum mismatch"));
    }
    let mut d = Dec::new(body);
    let (Some(magic), Some(version), Some(segment_floor), Some(next_run_id), Some(count)) =
        (d.u32(), d.u8(), d.u64(), d.u64(), d.u32())
    else {
        return Err(corrupt(path, "truncated manifest header"));
    };
    if magic != MANIFEST_MAGIC {
        return Err(corrupt(path, "bad manifest magic"));
    }
    if version != MANIFEST_VERSION {
        return Err(corrupt(path, format!("unsupported manifest version {version}")));
    }
    let mut runs: Vec<ManifestRun> = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let (Some(id), Some(table), Some(crc)) = (d.u64(), d.u8(), d.u32()) else {
            return Err(corrupt(path, "truncated manifest run entry"));
        };
        // Run ids come from the monotone `next_run_id` counter, so a
        // repeated id means the manifest itself is damaged — refusing it
        // here keeps replay from opening (or double-counting) one file
        // under two entries.
        if runs.iter().any(|r| r.id == id) {
            return Err(corrupt(path, format!("duplicate run id {id} in manifest")));
        }
        runs.push(ManifestRun { id, table: TableId(table), crc });
    }
    if !d.is_done() {
        return Err(corrupt(path, "trailing bytes in manifest"));
    }
    Ok(Manifest { segment_floor, next_run_id, runs })
}

/// Read the manifest of `dir`, or `Ok(None)` when the store has none yet
/// (a fresh or never-compacted directory).
pub fn read_manifest(vfs: &dyn Vfs, dir: &Path) -> Result<Option<Manifest>, StorageError> {
    let path = dir.join(MANIFEST_NAME);
    let names = vfs.read_dir_names(dir)?;
    if !names.iter().any(|n| n == MANIFEST_NAME) {
        return Ok(None);
    }
    let data = vfs.read(&path)?;
    decode_manifest(&path, &data).map(Some)
}

/// Atomically replace the manifest of `dir`: write to `MANIFEST.tmp`,
/// fsync, rename into place. The caller fsyncs the directory to make the
/// rename durable before relying on it.
pub fn write_manifest(vfs: &dyn Vfs, dir: &Path, m: &Manifest) -> io::Result<()> {
    let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
    let data = encode_manifest(m);
    let written = (|| -> io::Result<()> {
        let mut f = vfs.create(&tmp)?;
        f.write_all(&data)?;
        f.sync_all()?;
        Ok(())
    })();
    if let Err(e) = written {
        let _ = vfs.remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = vfs.rename(&tmp, &dir.join(MANIFEST_NAME)) {
        let _ = vfs.remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

/// The resident immutable tier: every live run, indexed per table.
#[derive(Debug, Default)]
pub struct RunSet {
    runs: Vec<Arc<RunReader>>,
    by_table: FxHashMap<TableId, Vec<usize>>,
}

impl RunSet {
    /// Build a tier from opened readers.
    pub fn new(runs: Vec<Arc<RunReader>>) -> Self {
        let mut by_table: FxHashMap<TableId, Vec<usize>> = FxHashMap::default();
        for (i, r) in runs.iter().enumerate() {
            by_table.entry(r.table).or_default().push(i);
        }
        Self { runs, by_table }
    }

    /// All live runs.
    pub fn runs(&self) -> &[Arc<RunReader>] {
        &self.runs
    }

    /// Number of live runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when the tier holds no runs.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The runs holding rows of `table`.
    pub fn for_table(&self, table: TableId) -> impl Iterator<Item = &Arc<RunReader>> + '_ {
        self.by_table.get(&table).into_iter().flatten().filter_map(|&i| self.runs.get(i))
    }

    /// Tables that have at least one run.
    pub fn tables(&self) -> Vec<TableId> {
        let mut t: Vec<TableId> = self.by_table.keys().copied().collect();
        t.sort_unstable();
        t
    }

    /// Zero-copy read of `key` from the newest run of `table` holding it
    /// (compaction produces at most one run per table, so in practice there
    /// is no overlap to resolve). The one walk of a table's runs: each is
    /// reported to `on_run` as covered (`true`, its row index was searched)
    /// or zone-pruned (`false`, untouched).
    pub fn get_pruning(
        &self,
        table: TableId,
        key: &[u8],
        mut on_run: impl FnMut(bool),
    ) -> Option<Bytes> {
        let idxs = self.by_table.get(&table)?;
        let mut hit = None;
        for run in idxs.iter().rev().filter_map(|&i| self.runs.get(i)) {
            if run.zone.covers_key(key) {
                on_run(true);
                if hit.is_none() {
                    hit = run.get(key);
                }
            } else {
                on_run(false);
            }
        }
        hit
    }
}

/// One verification failure found by [`verify_runs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunViolation {
    /// Run or manifest file the damage lives in.
    pub path: PathBuf,
    /// What failed to verify.
    pub reason: String,
}

/// Outcome of a read-only verification pass over a store's run tier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Whether a manifest was present (a never-compacted store has none).
    pub manifest: bool,
    /// First segment number replay applies (0 without a manifest).
    pub segment_floor: u64,
    /// Runs referenced by the manifest.
    pub runs: usize,
    /// Records across all verified runs.
    pub records: u64,
    /// Run files on disk that no manifest entry references (crash leftovers
    /// replay ignores; the next compaction sweeps them).
    pub orphans: usize,
    /// Verification failures (missing/damaged referenced runs, manifest
    /// damage).
    pub violations: Vec<RunViolation>,
}

impl RunReport {
    /// True when the manifest and every referenced run verified.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Verify the run tier of `dir` read-only: manifest checksum, every
/// referenced run's structure (CRC, sort order, zone containment) and the
/// manifest↔file CRC cross-check. Damage is collected, not failed on, so
/// the auditor reports everything at once. A directory without a manifest
/// reports clean (a never-compacted store).
pub fn verify_runs(vfs: &dyn Vfs, dir: &Path) -> Result<RunReport, StorageError> {
    let mut report = RunReport::default();
    let manifest = match read_manifest(vfs, dir) {
        Ok(m) => m,
        Err(StorageError::CorruptRun { path, reason }) => {
            report.manifest = true;
            report.violations.push(RunViolation { path, reason });
            return Ok(report);
        }
        Err(e) => return Err(e),
    };
    let Some(manifest) = manifest else {
        return Ok(report);
    };
    report.manifest = true;
    report.segment_floor = manifest.segment_floor;
    report.runs = manifest.runs.len();
    for entry in &manifest.runs {
        let path = dir.join(run_file_name(entry.id, entry.table));
        match RunReader::open_expecting(vfs, &path, entry.id, entry.table, entry.crc) {
            Ok(r) => report.records += r.zone.records,
            Err((reason, zone)) => {
                report.records += zone.map_or(0, |z| z.records);
                report.violations.push(RunViolation { path, reason });
            }
        }
    }
    let referenced = |(id, table)| manifest.runs.iter().any(|r| r.id == id && r.table == table);
    for name in vfs.read_dir_names(dir)? {
        if parse_run_file_name(&name).is_some_and(|run| !referenced(run)) {
            report.orphans += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::RealFs;
    use std::fs;

    const T: TableId = TableId(1);

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("seqdet-run-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn recs(pairs: &[(&[u8], &[u8])]) -> Vec<(Vec<u8>, Bytes)> {
        pairs.iter().map(|(k, v)| (k.to_vec(), Bytes::copy_from_slice(v))).collect()
    }

    struct FixedZones(RowZones);
    impl ZoneExtractor for FixedZones {
        fn zones(&self, _: TableId, _: &[u8], _: &[u8]) -> Option<RowZones> {
            Some(self.0)
        }
    }

    #[test]
    fn run_file_names_roundtrip() {
        let name = run_file_name(42, TableId(17));
        assert_eq!(name, "run-000042-t017.run");
        assert_eq!(parse_run_file_name(&name), Some((42, TableId(17))));
        assert_eq!(parse_run_file_name("seg-000001.log"), None);
        assert_eq!(parse_run_file_name("run-xx-t001.run"), None);
    }

    #[test]
    fn encode_and_read_back_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let records = recs(&[(b"aa", b"1"), (b"bb", b""), (b"cc", b"333")]);
        let (buf, zone) = encode_run(T, &records, None).unwrap().unwrap();
        assert_eq!(zone.min_key, b"aa");
        assert_eq!(zone.max_key, b"cc");
        assert_eq!(zone.records, 3);
        assert!(zone.zones.is_none());
        let path = dir.join(run_file_name(0, T));
        fs::write(&path, &buf).unwrap();
        let r = RunReader::open(&RealFs, &path, 0, T).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.get(b"aa").unwrap().as_ref(), b"1");
        assert_eq!(r.get(b"bb").unwrap().len(), 0);
        assert_eq!(r.get(b"cc").unwrap().as_ref(), b"333");
        assert!(r.get(b"ab").is_none());
        assert!(r.get(b"zz").is_none(), "outside the zone");
        let collected: Vec<_> = r.iter().map(|(k, v)| (k.to_vec(), v)).collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[0].0, b"aa");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_record_set_produces_no_run() {
        assert!(encode_run(T, &[], None).unwrap().is_none());
    }

    #[test]
    fn unsorted_records_are_refused() {
        let records = recs(&[(b"b", b"1"), (b"a", b"2")]);
        assert!(encode_run(T, &records, None).is_err());
        let dup = recs(&[(b"a", b"1"), (b"a", b"2")]);
        assert!(encode_run(T, &dup, None).is_err());
    }

    #[test]
    fn zones_merge_across_records_and_survive_the_footer() {
        let dir = tmp_dir("zones");
        let records = recs(&[(b"a", b"1"), (b"b", b"2")]);
        let z = RowZones { trace_min: 3, trace_max: 9, ts_min: 100, ts_max: 200 };
        let (buf, zone) = encode_run(T, &records, Some(&FixedZones(z))).unwrap().unwrap();
        assert_eq!(zone.zones, Some(z));
        let path = dir.join(run_file_name(1, T));
        fs::write(&path, &buf).unwrap();
        let r = RunReader::open(&RealFs, &path, 1, T).unwrap();
        assert_eq!(r.zone.zones, Some(z));
        assert!(r.zone.covers_key(b"a"));
        assert!(!r.zone.covers_key(b"c"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zone_merge_unions_ranges() {
        let a = RowZones { trace_min: 5, trace_max: 7, ts_min: 50, ts_max: 60 };
        let b = RowZones { trace_min: 1, trace_max: 6, ts_min: 55, ts_max: 90 };
        assert_eq!(a.merge(b), RowZones { trace_min: 1, trace_max: 7, ts_min: 50, ts_max: 90 });
    }

    #[test]
    fn damaged_runs_are_refused_with_corrupt_run() {
        let dir = tmp_dir("damage");
        let records = recs(&[(b"k1", b"v1"), (b"k2", b"v2")]);
        let (buf, _) = encode_run(T, &records, None).unwrap().unwrap();
        let path = dir.join(run_file_name(0, T));

        // Bit flip anywhere under the CRC.
        let mut bad = buf.clone();
        bad[6] ^= 0x40;
        fs::write(&path, &bad).unwrap();
        match RunReader::open(&RealFs, &path, 0, T) {
            Err(StorageError::CorruptRun { reason, .. }) => {
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected CorruptRun, got {other:?}"),
        }

        // Truncation loses the trailer.
        fs::write(&path, &buf[..buf.len() - 6]).unwrap();
        assert!(matches!(
            RunReader::open(&RealFs, &path, 0, T),
            Err(StorageError::CorruptRun { .. })
        ));

        // Garbage of plausible size.
        fs::write(&path, vec![0u8; 64]).unwrap();
        assert!(matches!(
            RunReader::open(&RealFs, &path, 0, T),
            Err(StorageError::CorruptRun { .. })
        ));

        // Too short for any run.
        fs::write(&path, b"xy").unwrap();
        assert!(matches!(
            RunReader::open(&RealFs, &path, 0, T),
            Err(StorageError::CorruptRun { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_roundtrips_and_detects_damage() {
        let dir = tmp_dir("manifest");
        assert_eq!(read_manifest(&RealFs, &dir).unwrap(), None);
        let m = Manifest {
            segment_floor: 7,
            next_run_id: 3,
            runs: vec![
                ManifestRun { id: 0, table: TableId(1), crc: 0xDEAD_BEEF },
                ManifestRun { id: 2, table: TableId(16), crc: 1 },
            ],
        };
        write_manifest(&RealFs, &dir, &m).unwrap();
        assert_eq!(read_manifest(&RealFs, &dir).unwrap(), Some(m.clone()));
        // Rewrites replace atomically.
        let m2 = Manifest { segment_floor: 9, next_run_id: 4, runs: vec![] };
        write_manifest(&RealFs, &dir, &m2).unwrap();
        assert_eq!(read_manifest(&RealFs, &dir).unwrap(), Some(m2));
        // Damage is refused.
        let path = dir.join(MANIFEST_NAME);
        let mut data = fs::read(&path).unwrap();
        data[5] ^= 0x01;
        fs::write(&path, &data).unwrap();
        assert!(matches!(
            read_manifest(&RealFs, &dir),
            Err(StorageError::CorruptRun { reason, .. }) if reason.contains("checksum")
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_rejects_duplicate_run_ids() {
        let m = Manifest {
            segment_floor: 0,
            next_run_id: 2,
            runs: vec![
                ManifestRun { id: 1, table: TableId(1), crc: 0xAA },
                ManifestRun { id: 1, table: TableId(2), crc: 0xBB },
            ],
        };
        let data = encode_manifest(&m);
        match decode_manifest(Path::new("MANIFEST"), &data) {
            Err(StorageError::CorruptRun { reason, .. }) => {
                assert!(reason.contains("duplicate run id 1"), "{reason}");
            }
            other => panic!("expected CorruptRun, got {other:?}"),
        }
        // Distinct ids across any tables stay accepted.
        let ok = Manifest {
            segment_floor: 0,
            next_run_id: 3,
            runs: vec![
                ManifestRun { id: 1, table: TableId(1), crc: 0xAA },
                ManifestRun { id: 2, table: TableId(1), crc: 0xBB },
            ],
        };
        let data = encode_manifest(&ok);
        assert_eq!(decode_manifest(Path::new("MANIFEST"), &data).unwrap(), ok);
    }

    #[test]
    fn runset_serves_per_table_reads() {
        let dir = tmp_dir("runset");
        let mk = |id: u64, table: TableId, pairs: &[(&[u8], &[u8])]| {
            let (buf, _) = encode_run(table, &recs(pairs), None).unwrap().unwrap();
            let path = dir.join(run_file_name(id, table));
            fs::write(&path, &buf).unwrap();
            Arc::new(RunReader::open(&RealFs, &path, id, table).unwrap())
        };
        let r0 = mk(0, TableId(1), &[(b"a", b"1")]);
        let r1 = mk(1, TableId(2), &[(b"a", b"2"), (b"b", b"3")]);
        let set = RunSet::new(vec![r0, r1]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.tables(), vec![TableId(1), TableId(2)]);
        let get = |table, key| set.get_pruning(table, key, |_| {});
        assert_eq!(get(TableId(1), b"a").unwrap().as_ref(), b"1");
        assert_eq!(get(TableId(2), b"a").unwrap().as_ref(), b"2");
        assert!(get(TableId(3), b"a").is_none());
        assert_eq!(set.for_table(TableId(2)).count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_runs_reports_damage_and_orphans() {
        let dir = tmp_dir("verify");
        // No manifest: clean report.
        let clean = verify_runs(&RealFs, &dir).unwrap();
        assert!(clean.ok());
        assert!(!clean.manifest);

        let (buf, _) = encode_run(T, &recs(&[(b"a", b"1")]), None).unwrap().unwrap();
        let good = dir.join(run_file_name(0, T));
        fs::write(&good, &buf).unwrap();
        let crc = RunReader::open(&RealFs, &good, 0, T).unwrap().crc;
        // An orphan run file nothing references.
        fs::write(dir.join(run_file_name(9, T)), &buf).unwrap();
        let m = Manifest {
            segment_floor: 1,
            next_run_id: 1,
            runs: vec![ManifestRun { id: 0, table: T, crc }],
        };
        write_manifest(&RealFs, &dir, &m).unwrap();
        let report = verify_runs(&RealFs, &dir).unwrap();
        assert!(report.ok(), "{report:?}");
        assert_eq!(report.runs, 1);
        assert_eq!(report.records, 1);
        assert_eq!(report.orphans, 1);
        assert_eq!(report.segment_floor, 1);

        // Damage the referenced run: reported, not failed on.
        let mut bad = buf.clone();
        bad[6] ^= 0x01;
        fs::write(&good, &bad).unwrap();
        let report = verify_runs(&RealFs, &dir).unwrap();
        assert!(!report.ok());
        assert_eq!(report.violations.len(), 1);

        // A missing referenced run is also a violation.
        fs::remove_file(&good).unwrap();
        let report = verify_runs(&RealFs, &dir).unwrap();
        assert!(!report.ok());
        assert!(report.violations[0].reason.contains("unreadable"), "{report:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
