//! The segment log: the record codec, batch-aware replay and read-only
//! verification — the only code that knows the record format.
//!
//! Every mutation is appended as one record to the active segment file
//! (`seg-NNNNNN.log`); on open the segments at or above the manifest's
//! floor are replayed into the [`DeltaState`].
//!
//! ## Record format
//!
//! ```text
//! [crc32: u32 le][op: u8][table: u8][key_len: u32 le][val_len: u32 le][key][value]
//! ```
//!
//! `op`: 1 = put, 2 = append, 3 = delete (delete carries an empty value);
//! 4 = batch begin, 5 = batch commit (both carry table 0, an empty key, and
//! an 8-byte little-endian batch id). The checksum covers everything after
//! itself. Op 6 was the snapshot marker of stores written before the
//! manifest existed; no shipped build has produced one since, and a segment
//! carrying it is refused as corrupt with a reason that says to re-index.
//!
//! ## Batch framing
//!
//! [`KvStore::begin_batch`](crate::KvStore::begin_batch) writes a `batch
//! begin` record; the batch's mutations follow;
//! [`KvStore::commit_batch`](crate::KvStore::commit_batch) writes the
//! matching `batch commit` and fsyncs per the
//! [`DurabilityPolicy`](crate::DurabilityPolicy). Replay buffers records
//! between a begin and its commit and applies them only at the commit — an
//! uncommitted suffix (the tail a crash leaves behind) is discarded, so
//! recovery always lands on a committed-batch boundary. A commit without
//! its begin or a begin inside an open batch cannot be produced by a crash
//! and is reported as corruption.
//!
//! ## Failure model
//!
//! A truncated trailing record (a torn write at crash) is ignored on
//! replay, but a record that is *followed by more data* and fails its
//! checksum — or carries an unknown op — is damage to acknowledged state:
//! [`DiskStore::open`](crate::DiskStore::open) surfaces it as
//! [`StorageError::CorruptSegment`] instead of silently truncating replay.
//! [`verify_segments`] runs the same checks read-only over a store
//! directory, for the cross-table auditor.

use crate::codec::{Dec, Enc};
use crate::crc::crc32;
use crate::delta::DeltaState;
use crate::error::StorageError;
use crate::kv::TableId;
use crate::vfs::{RealFs, Vfs};
use std::io;
use std::path::{Path, PathBuf};

/// When the store fsyncs the active segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityPolicy {
    /// Fsync after every record write. Slowest, smallest loss window.
    Always,
    /// Fsync once per committed batch (and on explicit `flush`). The
    /// default: a crash loses at most the uncommitted batch that replay
    /// discards anyway.
    #[default]
    Batch,
    /// Never fsync from the write path; only push userspace buffers to the
    /// OS at commit. A power failure may lose committed batches, a process
    /// crash does not.
    Os,
}

impl DurabilityPolicy {
    /// Parse a policy from its flag name (`always` / `batch` / `os`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "always" => Some(Self::Always),
            "batch" => Some(Self::Batch),
            "os" => Some(Self::Os),
            _ => None,
        }
    }

    /// The flag name of this policy.
    pub fn name(self) -> &'static str {
        match self {
            Self::Always => "always",
            Self::Batch => "batch",
            Self::Os => "os",
        }
    }
}

pub(crate) const OP_PUT: u8 = 1;
pub(crate) const OP_APPEND: u8 = 2;
pub(crate) const OP_DELETE: u8 = 3;
pub(crate) const OP_BATCH_BEGIN: u8 = 4;
pub(crate) const OP_BATCH_COMMIT: u8 = 5;
/// Snapshot marker of pre-manifest stores: recognised only to be refused.
const OP_SNAPSHOT: u8 = 6;

pub(crate) fn segment_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("seg-{n:06}.log"))
}

/// The segment number a file name carries, if it names a segment. `.tmp`
/// files a crashed writer may have left behind do not match.
pub(crate) fn segment_number(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?.strip_suffix(".log")?.parse().ok()
}

/// Segment numbers present in `dir`, ascending.
pub(crate) fn list_segments(vfs: &dyn Vfs, dir: &Path) -> io::Result<Vec<u64>> {
    let mut nums: Vec<u64> =
        vfs.read_dir_names(dir)?.iter().filter_map(|name| segment_number(name)).collect();
    nums.sort_unstable();
    Ok(nums)
}

/// Serialize one log record:
/// `[crc: u32 over the rest][op][table][key_len][val_len][key][value]`.
pub(crate) fn encode_record(op: u8, table: TableId, key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut body = Enc::with_capacity(14 + key.len() + value.len());
    body.u8(op).u8(table.0).u32(key.len() as u32).u32(value.len() as u32).bytes(key).bytes(value);
    let mut rec = Enc::with_capacity(4 + body.len());
    rec.u32(crc32(body.as_slice())).bytes(body.as_slice());
    rec.into_vec()
}

/// Apply one mutation record to `delta` — shared by the write path (which
/// logs the record first) and replay.
pub(crate) fn apply_record(delta: &DeltaState, op: u8, table: TableId, key: &[u8], value: &[u8]) {
    match op {
        OP_PUT => delta.record_put(table, key, value),
        OP_APPEND => delta.record_append(table, key, value),
        OP_DELETE => delta.record_delete(table, key),
        // Only mutation ops are passed here: batch control records are
        // consumed by the framing and never reach a delta.
        _ => {}
    }
}

/// First 8 bytes of `v` as a little-endian u64 (zero-padded; callers only
/// pass length-validated batch-id values).
fn le_u64(v: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    let n = v.len().min(8);
    b[..n].copy_from_slice(&v[..n]);
    u64::from_le_bytes(b)
}

/// How one pass over a segment's bytes ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentEnd {
    /// Every byte belonged to a whole, checksum-verified record.
    Clean {
        /// Number of records parsed.
        records: u64,
    },
    /// The final record is incomplete — the torn tail of a crashed write.
    /// Everything before `offset` was verified; the tail is dropped.
    TornTail {
        /// Records parsed before the tail.
        records: u64,
        /// Byte offset where the torn record starts.
        offset: usize,
    },
    /// A record failed verification with more data after it (or a verified
    /// record carries an unknown op or breaks the batch protocol). Nothing
    /// at or past `offset` can be trusted.
    Corrupt {
        /// Records parsed before the damage.
        records: u64,
        /// Byte offset of the damaged record.
        offset: usize,
        /// What failed to verify.
        reason: String,
    },
}

/// Parse the records of one segment, feeding each verified record to
/// `apply`. Never panics, whatever `data` holds — this is the surface the
/// decoder fuzz tests drive.
///
/// This is the *record-level* check (checksums, known ops, control-record
/// shapes); it does not interpret batch framing — records inside an
/// uncommitted batch still reach `apply`. Use [`replay_segment_bytes`] for
/// batch-aware replay.
pub fn parse_segment_bytes(
    data: &[u8],
    mut apply: impl FnMut(u8, TableId, &[u8], &[u8]),
) -> SegmentEnd {
    let mut d = Dec::new(data);
    let mut records = 0u64;
    loop {
        let offset = data.len() - d.remaining();
        if d.is_done() {
            return SegmentEnd::Clean { records };
        }
        let Some(stored_crc) = d.u32() else {
            return SegmentEnd::TornTail { records, offset };
        };
        let body_start = data.len() - d.remaining();
        let (Some(op), Some(table), Some(klen), Some(vlen)) = (d.u8(), d.u8(), d.u32(), d.u32())
        else {
            return SegmentEnd::TornTail { records, offset };
        };
        let (Some(key), Some(value)) = (d.bytes(klen as usize), d.bytes(vlen as usize)) else {
            return SegmentEnd::TornTail { records, offset };
        };
        let body_end = data.len() - d.remaining();
        if crc32(&data[body_start..body_end]) != stored_crc {
            return SegmentEnd::Corrupt { records, offset, reason: "checksum mismatch".into() };
        }
        let refused = match op {
            OP_PUT | OP_APPEND | OP_DELETE => None,
            OP_BATCH_BEGIN | OP_BATCH_COMMIT => (table != 0 || klen != 0 || vlen != 8)
                .then(|| "malformed batch control record".to_owned()),
            OP_SNAPSHOT => Some(
                "pre-manifest snapshot store is no longer readable; re-index from the source log"
                    .to_owned(),
            ),
            _ => Some(format!("unknown op {op}")),
        };
        if let Some(reason) = refused {
            return SegmentEnd::Corrupt { records, offset, reason };
        }
        apply(op, TableId(table), key, value);
        records += 1;
    }
}

/// Outcome of one batch-aware pass over a segment's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentScan {
    /// How the byte-level parse ended. Batch-protocol violations (a commit
    /// without its begin, a begin inside an open batch) surface here as
    /// [`SegmentEnd::Corrupt`].
    pub end: SegmentEnd,
    /// Batches whose begin *and* commit were replayed.
    pub batches_committed: u64,
    /// Uncommitted batch suffixes discarded (at most one: only the crash
    /// frontier may legitimately carry one).
    pub batches_discarded: u64,
    /// Highest batch id seen, if any batch records were present.
    pub max_batch_id: Option<u64>,
}

/// Records buffered while a batch is open: `(op, table, key, value)`.
type BufferedRecord = (u8, TableId, Vec<u8>, Vec<u8>);

/// Replay one segment's bytes with batch framing: records between a batch
/// begin and its commit are buffered and reach `apply` only when the commit
/// is seen; an uncommitted suffix is discarded (counted, not applied).
/// `apply` therefore sees only effective records: out-of-batch mutations
/// and committed-batch mutations. Never panics.
pub fn replay_segment_bytes(
    data: &[u8],
    mut apply: impl FnMut(u8, TableId, &[u8], &[u8]),
) -> SegmentScan {
    let mut pending: Option<(u64, Vec<BufferedRecord>)> = None;
    let mut committed = 0u64;
    let mut max_batch_id: Option<u64> = None;
    // (records before the violation, its byte offset, reason)
    let mut violation: Option<(u64, usize, String)> = None;
    let mut offset = 0usize;
    let mut processed = 0u64;
    let end = parse_segment_bytes(data, |op, table, key, value| {
        let rec_offset = offset;
        offset += 14 + key.len() + value.len();
        if violation.is_some() {
            return;
        }
        let id = le_u64(value); // the batch id, when `op` is a batch record
        let step = match (op, pending.take()) {
            (OP_BATCH_BEGIN, None) => {
                max_batch_id = Some(max_batch_id.map_or(id, |m| m.max(id)));
                pending = Some((id, Vec::new()));
                Ok(())
            }
            (OP_BATCH_BEGIN, Some((open, _))) => {
                Err(format!("batch {id} begins while batch {open} is uncommitted"))
            }
            (OP_BATCH_COMMIT, Some((begin_id, buffered))) if begin_id == id => {
                for (op, table, key, value) in buffered {
                    apply(op, table, &key, &value);
                }
                committed += 1;
                Ok(())
            }
            (OP_BATCH_COMMIT, Some((begin_id, _))) => {
                Err(format!("batch commit {id} does not match open batch {begin_id}"))
            }
            (OP_BATCH_COMMIT, None) => Err(format!("batch commit {id} without a matching begin")),
            (_, Some((begin_id, mut buffered))) => {
                buffered.push((op, table, key.to_vec(), value.to_vec()));
                pending = Some((begin_id, buffered));
                Ok(())
            }
            (_, None) => {
                apply(op, table, key, value);
                Ok(())
            }
        };
        match step {
            Ok(()) => processed += 1,
            Err(reason) => violation = Some((processed, rec_offset, reason)),
        }
    });
    let batches_discarded = u64::from(violation.is_none() && pending.is_some());
    let end = match violation {
        // A protocol violation always precedes any byte-level damage the
        // parser may also have found (parsing stops feeding records at the
        // first corrupt one), so it wins.
        Some((records, offset, reason)) => SegmentEnd::Corrupt { records, offset, reason },
        None => end,
    };
    SegmentScan { end, batches_committed: committed, batches_discarded, max_batch_id }
}

/// Replay the segment at `path` into `delta`; damage fails the replay with
/// a typed [`StorageError::CorruptSegment`].
pub(crate) fn replay_segment(
    vfs: &dyn Vfs,
    path: &Path,
    delta: &DeltaState,
) -> Result<SegmentScan, StorageError> {
    let data = vfs.read(path)?;
    let scan = replay_segment_bytes(&data, |op, table, key, value| {
        apply_record(delta, op, table, key, value);
    });
    match &scan.end {
        SegmentEnd::Corrupt { offset, reason, .. } => Err(StorageError::CorruptSegment {
            segment: path.to_path_buf(),
            offset: *offset,
            reason: reason.clone(),
        }),
        _ => Ok(scan),
    }
}

/// One verification failure found by [`verify_segments`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentViolation {
    /// Segment file the damage lives in.
    pub segment: PathBuf,
    /// Byte offset of the damaged record.
    pub offset: usize,
    /// What failed to verify.
    pub reason: String,
}

/// Outcome of a read-only checksum pass over every segment of a store
/// directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentReport {
    /// Segment files inspected.
    pub segments: usize,
    /// Whole, checksum-verified records across all segments.
    pub records: u64,
    /// Torn tail records dropped (at most one per segment; only the crash
    /// frontier may legitimately carry one).
    pub torn_tails: usize,
    /// Write batches with both begin and commit present.
    pub batches_committed: u64,
    /// Uncommitted batch suffixes replay would discard.
    pub batches_discarded: u64,
    /// Damaged records (parsing stops at the first one per segment).
    pub violations: Vec<SegmentViolation>,
}

impl SegmentReport {
    /// True when every record of every segment verified.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Verify the CRC (record structure and batch framing) of every segment in
/// `dir` without mutating or replaying anything. Damage is *collected*, not
/// failed on, so the auditor can report all broken segments at once.
pub fn verify_segments(dir: impl AsRef<Path>) -> Result<SegmentReport, StorageError> {
    let dir = dir.as_ref();
    let mut report = SegmentReport::default();
    for n in list_segments(&RealFs, dir)? {
        let path = segment_path(dir, n);
        let data = RealFs.read(&path)?;
        report.segments += 1;
        let scan = replay_segment_bytes(&data, |_, _, _, _| {});
        report.batches_committed += scan.batches_committed;
        report.batches_discarded += scan.batches_discarded;
        match scan.end {
            SegmentEnd::Clean { records } => report.records += records,
            SegmentEnd::TornTail { records, .. } => {
                report.records += records;
                report.torn_tails += 1;
            }
            SegmentEnd::Corrupt { records, offset, reason } => {
                report.records += records;
                report.violations.push(SegmentViolation { segment: path, offset, reason });
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::tests::{tmp_dir, T};
    use crate::{DiskStore, KvStore};
    use std::fs;
    use std::io::Write;

    #[test]
    fn torn_tail_record_is_ignored() {
        let dir = tmp_dir("torn");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"good", b"1").unwrap();
            s.flush().unwrap();
        }
        // Corrupt: append half a record to the first segment.
        let seg = segment_path(&dir, 0);
        let mut f = fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0xAA, 0xBB, 0xCC, 0xDD, OP_PUT, 3, 10, 0, 0, 0]).unwrap(); // torn record
        drop(f);
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"good").unwrap().as_ref(), b"1");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_record_fails_open_with_corrupt_segment() {
        let dir = tmp_dir("crc");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"first", b"1").unwrap();
            s.put(T, b"second", b"2").unwrap();
            s.flush().unwrap();
        }
        // Flip one bit inside the FIRST record's value: the damage sits
        // mid-segment (more data follows), so open must refuse rather than
        // silently truncate replay.
        let seg = segment_path(&dir, 0);
        let mut data = fs::read(&seg).unwrap();
        let first_len = encode_record(OP_PUT, T, b"first", b"1").len();
        data[first_len - 1] ^= 0x01;
        fs::write(&seg, &data).unwrap();
        match DiskStore::open(&dir) {
            Err(StorageError::CorruptSegment { segment, offset, reason }) => {
                assert_eq!(segment, seg);
                assert_eq!(offset, 0);
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected CorruptSegment, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_final_record_also_fails_open() {
        // A checksum mismatch in the *last* record is still corruption (the
        // record is whole — a torn write cannot produce it), so open fails.
        let dir = tmp_dir("crc-tail");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"first", b"1").unwrap();
            s.put(T, b"second", b"2").unwrap();
            s.flush().unwrap();
        }
        let seg = segment_path(&dir, 0);
        let mut data = fs::read(&seg).unwrap();
        let len = data.len();
        data[len - 1] ^= 0x01;
        fs::write(&seg, &data).unwrap();
        assert!(matches!(
            DiskStore::open(&dir),
            Err(StorageError::CorruptSegment { offset, .. })
                if offset == encode_record(OP_PUT, T, b"first", b"1").len()
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_segments_reports_damage_read_only() {
        let dir = tmp_dir("verify");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"a", b"1").unwrap();
            s.put(T, b"b", b"2").unwrap();
            s.flush().unwrap();
        }
        let clean = verify_segments(&dir).unwrap();
        assert!(clean.ok());
        assert_eq!(clean.records, 2);
        // Note: open() leaves a fresh empty active segment behind.
        assert!(clean.segments >= 1);

        let seg = segment_path(&dir, 0);
        let mut data = fs::read(&seg).unwrap();
        data[5] ^= 0xFF; // inside the first record's body
        fs::write(&seg, &data).unwrap();
        let report = verify_segments(&dir).unwrap();
        assert!(!report.ok());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].segment, seg);
        assert_eq!(report.records, 0, "parsing stops at the damaged record");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_segment_bytes_never_panics_on_garbage_shapes() {
        // Structured spot checks (the proptest fuzz lives in
        // tests/segment_fuzz.rs): empty, short, and header-lying inputs.
        assert_eq!(parse_segment_bytes(&[], |_, _, _, _| {}), SegmentEnd::Clean { records: 0 });
        assert!(matches!(
            parse_segment_bytes(&[1, 2, 3], |_, _, _, _| {}),
            SegmentEnd::TornTail { records: 0, offset: 0 }
        ));
        // A header claiming a huge value length must read as a torn tail,
        // not an allocation or a panic.
        let mut rec = Enc::new();
        rec.u32(0).u8(OP_PUT).u8(3).u32(4).u32(u32::MAX).bytes(b"keyy");
        assert!(matches!(
            parse_segment_bytes(rec.as_slice(), |_, _, _, _| {}),
            SegmentEnd::TornTail { .. }
        ));
    }

    #[test]
    fn committed_batch_survives_reopen() {
        let dir = tmp_dir("batch-commit");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.begin_batch().unwrap();
            s.put(T, b"x", b"1").unwrap();
            s.append(T, b"y", b"2").unwrap();
            s.commit_batch().unwrap();
        }
        let report = verify_segments(&dir).unwrap();
        assert!(report.ok());
        assert_eq!(report.batches_committed, 1);
        assert_eq!(report.batches_discarded, 0);
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"x").unwrap().as_ref(), b"1");
        assert_eq!(s.get(T, b"y").unwrap().as_ref(), b"2");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_batch_suffix_is_discarded_on_reopen() {
        let dir = tmp_dir("batch-discard");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"keep", b"1").unwrap();
            s.begin_batch().unwrap();
            s.put(T, b"lost-a", b"x").unwrap();
            s.put(T, b"lost-b", b"y").unwrap();
            // No commit: simulate a crash by forcing bytes out without one.
            // (Dropping the store flushes the buffered writer.)
        }
        let report = verify_segments(&dir).unwrap();
        assert!(report.ok());
        assert_eq!(report.batches_discarded, 1);
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"keep").unwrap().as_ref(), b"1");
        assert!(s.get(T, b"lost-a").is_none());
        assert!(s.get(T, b"lost-b").is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_commit_record_fails_open_as_corruption() {
        let dir = tmp_dir("stray-commit");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"a", b"1").unwrap();
            s.flush().unwrap();
        }
        let seg = segment_path(&dir, 0);
        let mut f = fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&encode_record(OP_BATCH_COMMIT, TableId(0), b"", &7u64.to_le_bytes())).unwrap();
        drop(f);
        match DiskStore::open(&dir) {
            Err(StorageError::CorruptSegment { offset, reason, .. }) => {
                assert_eq!(offset, encode_record(OP_PUT, T, b"a", b"1").len());
                assert!(reason.contains("without a matching begin"), "{reason}");
            }
            other => panic!("expected CorruptSegment, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_tmp_snapshot_is_ignored_on_open() {
        let dir = tmp_dir("tmp-ignored");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"a", b"1").unwrap();
            s.flush().unwrap();
        }
        // A crashed writer may leave a .tmp file behind; it must be
        // invisible to replay (its content could be anything).
        fs::write(dir.join("seg-000099.log.tmp"), b"half-written garbage").unwrap();
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"1");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_snapshot_store_is_refused_at_open() {
        let dir = tmp_dir("legacy-snapshot");
        fs::create_dir_all(&dir).unwrap();
        // A pre-manifest layout: a segment headed by the snapshot marker
        // (op 6, table 0, empty key and value) that once superseded every
        // earlier segment.
        let mut seg0 = encode_record(6, TableId(0), b"", b"");
        seg0.extend_from_slice(&encode_record(OP_PUT, T, b"k", b"legacy"));
        fs::write(segment_path(&dir, 0), &seg0).unwrap();
        let refusal =
            "pre-manifest snapshot store is no longer readable; re-index from the source log";
        match DiskStore::open(&dir) {
            Err(StorageError::CorruptSegment { segment, offset, reason }) => {
                assert_eq!(segment, segment_path(&dir, 0));
                assert_eq!(offset, 0);
                assert_eq!(reason, refusal);
            }
            other => panic!("expected CorruptSegment, got {other:?}"),
        }
        // The auditor's read-only pass names it the same way.
        let report = verify_segments(&dir).unwrap();
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].reason, refusal);
        // The marker is refused wherever it sits, batch framing included.
        let mut framed = encode_record(OP_BATCH_BEGIN, TableId(0), b"", &1u64.to_le_bytes());
        framed.extend_from_slice(&encode_record(6, TableId(0), b"", b""));
        assert!(matches!(
            replay_segment_bytes(&framed, |_, _, _, _| {}).end,
            SegmentEnd::Corrupt { records: 1, ref reason, .. } if reason == refusal
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
