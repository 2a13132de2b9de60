//! The indexing-database tables of §3.1.2 and their binary row codecs.
//!
//! | Table | Key | Value |
//! |---|---|---|
//! | `Seq` | `trace_id: u32` | list of `(activity: u32, ts: u64)` |
//! | `Index` | `pair_key: u64` | list of `(trace: u32, ts_a: u64, ts_b: u64)` |
//! | `Count` | `activity: u32` (first) | list of `(activity_b: u32, sum_duration: u64, total_completions: u64)` |
//! | `ReverseCount` | `activity: u32` (second) | list of `(activity_a: u32, sum_duration: u64, total_completions: u64)` |
//! | `LastChecked` | `pair_key: u64` | list of `(trace: u32, last_completion: u64)` |
//! | `Meta` | string | catalog / configuration blobs |
//!
//! `Seq` and `Index` rows grow strictly by record **append**; `Count`,
//! `ReverseCount` and `LastChecked` rows are read-modify-written per batch
//! (they hold one logical entry per sub-key). The `Index` table may be split
//! into per-period partitions (§3.1.3, "a separate index table can be used
//! for different periods"): partition `p` lives in table id `16 + p`.

use crate::error::CoreError;
use crate::pairs::PairKey;
use crate::Result;
use seqdet_log::{Activity, Attr, AttrEntry, Event, TraceId, Ts};
use seqdet_storage::codec::{Dec, Enc};
use seqdet_storage::{KvStore, TableId};

/// `Seq` table id.
pub const SEQ: TableId = TableId(0);
/// Default (single-partition) `Index` table id.
pub const INDEX: TableId = TableId(1);
/// `Count` table id.
pub const COUNT: TableId = TableId(2);
/// `ReverseCount` table id.
pub const RCOUNT: TableId = TableId(3);
/// `LastChecked` table id.
pub const LAST_CHECKED: TableId = TableId(4);
/// Catalog / configuration table id.
pub const META: TableId = TableId(5);
/// Event-attribute table id: per-trace `(ts, attr, value)` records backing
/// attribute predicates in rich patterns. Key = trace id, like `Seq`; the
/// row is append-only and parallel to the `Seq` row (attribute timestamps
/// always reference stored events). Absent rows mean "no attributes".
pub const ATTRS: TableId = TableId(6);

/// First table id used for per-period `Index` partitions.
pub const INDEX_PARTITION_BASE: u8 = 16;
/// Maximum number of per-period partitions.
pub const MAX_PARTITIONS: u32 = 240;

/// Table id of `Index` partition `p` (0-based).
pub fn index_partition(p: u32) -> TableId {
    assert!(p < MAX_PARTITIONS, "partition {p} out of range");
    TableId(INDEX_PARTITION_BASE + p as u8)
}

/// One `Index` posting: an occurrence of an activity pair in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Posting {
    /// Trace the occurrence belongs to.
    pub trace: TraceId,
    /// Timestamp of the first event of the pair.
    pub ts_a: Ts,
    /// Timestamp of the second event (the *completion*).
    pub ts_b: Ts,
}

/// One `Count`/`ReverseCount` entry: aggregate statistics of an activity
/// pair, stored under the *other* activity's row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountEntry {
    /// The partner activity (second component in `Count`, first in
    /// `ReverseCount`).
    pub partner: Activity,
    /// Sum of `ts_b - ts_a` over all completions of the pair.
    pub sum_duration: u64,
    /// Number of completions of the pair.
    pub total_completions: u64,
}

impl CountEntry {
    /// Mean completion duration; `0` when no completions.
    pub fn avg_duration(&self) -> f64 {
        if self.total_completions == 0 {
            0.0
        } else {
            self.sum_duration as f64 / self.total_completions as f64
        }
    }
}

/// One `LastChecked` entry: the last indexed completion of a pair in a
/// trace — the duplicate guard of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LastCheckedEntry {
    /// Trace this entry refers to.
    pub trace: TraceId,
    /// Timestamp of the last indexed completion (`ts_b`).
    pub last_completion: Ts,
}

// ---------------------------------------------------------------------------
// Key encodings
// ---------------------------------------------------------------------------

/// `Seq` key bytes for a trace.
pub fn seq_key(trace: TraceId) -> [u8; 4] {
    trace.0.to_le_bytes()
}

/// `Index`/`LastChecked` key bytes for a pair.
pub fn pair_key_bytes(key: PairKey) -> [u8; 8] {
    key.to_le_bytes()
}

/// `Count`/`ReverseCount` key bytes for an activity.
pub fn count_key(a: Activity) -> [u8; 4] {
    a.0.to_le_bytes()
}

// ---------------------------------------------------------------------------
// Seq table
// ---------------------------------------------------------------------------

/// Encode events as `Seq` records.
pub fn encode_events(events: &[Event]) -> Vec<u8> {
    let mut e = Enc::with_capacity(events.len() * 12);
    for ev in events {
        e.u32(ev.activity.0).u64(ev.ts);
    }
    e.into_vec()
}

/// Decode a `Seq` row.
pub fn decode_events(row: &[u8]) -> Result<Vec<Event>> {
    let mut out = Vec::new();
    decode_events_into(row, &mut out)?;
    Ok(out)
}

/// Decode a `Seq` row by *appending* to `out` — the allocation-free form
/// for a caller that reuses one buffer across rows. A row that is not a
/// whole number of 12-byte records is `Corrupt`, and then nothing is
/// appended.
pub fn decode_events_into(row: &[u8], out: &mut Vec<Event>) -> Result<()> {
    let (records, torn) = row.as_chunks::<12>();
    if !torn.is_empty() {
        return Err(corrupt("Seq", row.len()));
    }
    out.extend(records.iter().map(|&[a0, a1, a2, a3, ts @ ..]| {
        Event::new(Activity(u32::from_le_bytes([a0, a1, a2, a3])), u64::from_le_bytes(ts))
    }));
    Ok(())
}

/// Append `events` to the stored sequence of `trace`.
pub fn append_seq<S: KvStore>(store: &S, trace: TraceId, events: &[Event]) -> Result<()> {
    store.append(SEQ, &seq_key(trace), &encode_events(events))?;
    Ok(())
}

/// Read the stored sequence of `trace` (empty if unknown).
pub fn read_seq<S: KvStore>(store: &S, trace: TraceId) -> Result<Vec<Event>> {
    match store.get(SEQ, &seq_key(trace)) {
        Some(row) => decode_events(&row),
        None => Ok(Vec::new()),
    }
}

// ---------------------------------------------------------------------------
// Index table
// ---------------------------------------------------------------------------

/// Encode postings (without their key) as fixed-width 20-byte records
/// (`trace: u32, ts_a: u64, ts_b: u64`, little-endian). Not a stored
/// layout: the independent reference codec the posting property suites
/// compare the block-compressed codec against.
pub fn encode_postings(trace: TraceId, occurrences: &[(Ts, Ts)]) -> Vec<u8> {
    let mut e = Enc::with_capacity(occurrences.len() * 20);
    for &(a, b) in occurrences {
        e.u32(trace.0).u64(a).u64(b);
    }
    e.into_vec()
}

/// Inverse of [`encode_postings`] (reference codec, see there).
pub fn decode_postings(row: &[u8]) -> Result<Vec<Posting>> {
    let mut d = Dec::new(row);
    let mut out = Vec::with_capacity(row.len() / 20);
    while !d.is_done() {
        let (Some(t), Some(a), Some(b)) = (d.u32(), d.u64(), d.u64()) else {
            return Err(corrupt("Index", row.len()));
        };
        out.push(Posting { trace: TraceId(t), ts_a: a, ts_b: b });
    }
    Ok(out)
}

/// Read all postings of a pair from one `Index` table (empty if absent).
pub fn read_postings<S: KvStore>(store: &S, table: TableId, key: PairKey) -> Result<Vec<Posting>> {
    let mut out = Vec::new();
    if let Some(row) = store.get(table, &pair_key_bytes(key)) {
        crate::decode::decode_postings_v2_into(&row, &mut out)?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Count / ReverseCount tables
// ---------------------------------------------------------------------------

/// Encode count entries.
pub fn encode_counts(entries: &[CountEntry]) -> Vec<u8> {
    let mut e = Enc::with_capacity(entries.len() * 20);
    for c in entries {
        e.u32(c.partner.0).u64(c.sum_duration).u64(c.total_completions);
    }
    e.into_vec()
}

/// Decode a `Count`/`ReverseCount` row.
pub fn decode_counts(row: &[u8]) -> Result<Vec<CountEntry>> {
    let mut d = Dec::new(row);
    let mut out = Vec::with_capacity(row.len() / 20);
    while !d.is_done() {
        let (Some(p), Some(s), Some(t)) = (d.u32(), d.u64(), d.u64()) else {
            return Err(corrupt("Count", row.len()));
        };
        out.push(CountEntry { partner: Activity(p), sum_duration: s, total_completions: t });
    }
    Ok(out)
}

/// Read the count row of `a` from `table` (empty if absent).
pub fn read_counts<S: KvStore>(store: &S, table: TableId, a: Activity) -> Result<Vec<CountEntry>> {
    match store.get(table, &count_key(a)) {
        Some(row) => decode_counts(&row),
        None => Ok(Vec::new()),
    }
}

/// Merge `(partner, Δsum, Δcount)` deltas into the count row of `a`.
pub fn merge_counts<S: KvStore>(
    store: &S,
    table: TableId,
    a: Activity,
    deltas: &[(Activity, u64, u64)],
) -> Result<()> {
    let mut entries = read_counts(store, table, a)?;
    for &(partner, dsum, dcount) in deltas {
        match entries.iter_mut().find(|e| e.partner == partner) {
            Some(e) => {
                e.sum_duration += dsum;
                e.total_completions += dcount;
            }
            None => {
                entries.push(CountEntry { partner, sum_duration: dsum, total_completions: dcount })
            }
        }
    }
    store.put(table, &count_key(a), &encode_counts(&entries))?;
    Ok(())
}

/// Look up the aggregate of a specific pair `(a, b)` in `Count`.
pub fn pair_count<S: KvStore>(store: &S, a: Activity, b: Activity) -> Result<Option<CountEntry>> {
    Ok(read_counts(store, COUNT, a)?.into_iter().find(|e| e.partner == b))
}

// ---------------------------------------------------------------------------
// LastChecked table
// ---------------------------------------------------------------------------

/// Encode last-checked entries.
pub fn encode_last_checked(entries: &[LastCheckedEntry]) -> Vec<u8> {
    let mut e = Enc::with_capacity(entries.len() * 12);
    for lc in entries {
        e.u32(lc.trace.0).u64(lc.last_completion);
    }
    e.into_vec()
}

/// Decode a `LastChecked` row.
pub fn decode_last_checked(row: &[u8]) -> Result<Vec<LastCheckedEntry>> {
    let mut d = Dec::new(row);
    let mut out = Vec::with_capacity(row.len() / 12);
    while !d.is_done() {
        let (Some(t), Some(lc)) = (d.u32(), d.u64()) else {
            return Err(corrupt("LastChecked", row.len()));
        };
        out.push(LastCheckedEntry { trace: TraceId(t), last_completion: lc });
    }
    Ok(out)
}

/// Read the last-checked row of a pair (empty if absent).
pub fn read_last_checked<S: KvStore>(store: &S, key: PairKey) -> Result<Vec<LastCheckedEntry>> {
    match store.get(LAST_CHECKED, &pair_key_bytes(key)) {
        Some(row) => decode_last_checked(&row),
        None => Ok(Vec::new()),
    }
}

/// Merge `(trace, new last completion)` updates into a pair's row, keeping
/// one entry per trace (the max completion wins).
pub fn merge_last_checked<S: KvStore>(
    store: &S,
    key: PairKey,
    updates: &[(TraceId, Ts)],
) -> Result<()> {
    let mut entries = read_last_checked(store, key)?;
    for &(trace, lc) in updates {
        match entries.iter_mut().find(|e| e.trace == trace) {
            Some(e) => e.last_completion = e.last_completion.max(lc),
            None => entries.push(LastCheckedEntry { trace, last_completion: lc }),
        }
    }
    store.put(LAST_CHECKED, &pair_key_bytes(key), &encode_last_checked(&entries))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Attrs table
// ---------------------------------------------------------------------------

/// Encode event-attribute entries as fixed 20-byte `Attrs` records
/// (`ts: u64, attr: u32, value: i64`, little-endian).
pub fn encode_attrs(entries: &[AttrEntry]) -> Vec<u8> {
    let mut e = Enc::with_capacity(entries.len() * 20);
    for &(ts, attr, value) in entries {
        e.u64(ts).u32(attr.0).u64(value as u64);
    }
    e.into_vec()
}

/// Decode an `Attrs` row.
pub fn decode_attrs(row: &[u8]) -> Result<Vec<AttrEntry>> {
    let mut out = Vec::new();
    decode_attrs_into(row, &mut out)?;
    Ok(out)
}

/// Decode an `Attrs` row by *appending* to `out` (see
/// [`decode_events_into`]). A row that is not a whole number of 20-byte
/// records is `Corrupt`, and then nothing is appended.
pub fn decode_attrs_into(row: &[u8], out: &mut Vec<AttrEntry>) -> Result<()> {
    let (records, torn) = row.as_chunks::<20>();
    if !torn.is_empty() {
        return Err(corrupt("Attrs", row.len()));
    }
    out.extend(records.iter().map(|&[t0, t1, t2, t3, t4, t5, t6, t7, a0, a1, a2, a3, v @ ..]| {
        let ts = u64::from_le_bytes([t0, t1, t2, t3, t4, t5, t6, t7]);
        (ts, Attr(u32::from_le_bytes([a0, a1, a2, a3])), i64::from_le_bytes(v))
    }));
    Ok(())
}

/// Append attribute entries to the `Attrs` row of `trace`. A no-op for an
/// empty slice, so attribute-free workloads never touch the table.
pub fn append_attrs<S: KvStore>(store: &S, trace: TraceId, entries: &[AttrEntry]) -> Result<()> {
    if entries.is_empty() {
        return Ok(());
    }
    store.append(ATTRS, &seq_key(trace), &encode_attrs(entries))?;
    Ok(())
}

/// Read the attribute entries of `trace`, sorted by `(ts, attr)` order of
/// arrival (batches append in ts order; empty if the trace has none).
pub fn read_attrs<S: KvStore>(store: &S, trace: TraceId) -> Result<Vec<AttrEntry>> {
    match store.get(ATTRS, &seq_key(trace)) {
        Some(row) => decode_attrs(&row),
        None => Ok(Vec::new()),
    }
}

fn corrupt(table: &'static str, len: usize) -> CoreError {
    CoreError::Corrupt { table, message: format!("row of {len} bytes has a truncated record") }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdet_storage::MemStore;

    #[test]
    fn seq_roundtrip_and_append() {
        let store = MemStore::new();
        let t = TraceId(7);
        append_seq(&store, t, &[Event::new(Activity(1), 10)]).unwrap();
        append_seq(&store, t, &[Event::new(Activity(2), 20), Event::new(Activity(1), 30)]).unwrap();
        let evs = read_seq(&store, t).unwrap();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[2], Event::new(Activity(1), 30));
        assert!(read_seq(&store, TraceId(99)).unwrap().is_empty());
    }

    #[test]
    fn postings_roundtrip() {
        use crate::postings::encode_postings_v2;
        let store = MemStore::new();
        let key = Activity::pair_key(Activity(0), Activity(1));
        let p = |trace, ts_a, ts_b| Posting { trace: TraceId(trace), ts_a, ts_b };
        store
            .append(INDEX, &pair_key_bytes(key), &encode_postings_v2(&[p(3, 1, 5), p(3, 9, 12)]))
            .unwrap();
        store.append(INDEX, &pair_key_bytes(key), &encode_postings_v2(&[p(4, 2, 3)])).unwrap();
        let ps = read_postings(&store, INDEX, key).unwrap();
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0], Posting { trace: TraceId(3), ts_a: 1, ts_b: 5 });
        assert_eq!(ps[2], Posting { trace: TraceId(4), ts_a: 2, ts_b: 3 });
        assert!(read_postings(&store, INDEX, 999).unwrap().is_empty());
    }

    #[test]
    fn corrupt_rows_are_detected() {
        let store = MemStore::new();
        store.put(INDEX, &pair_key_bytes(1), &[1, 2, 3]).unwrap(); // 3 bytes: torn record
        assert!(read_postings(&store, INDEX, 1).is_err());
        store.put(SEQ, &seq_key(TraceId(0)), &[9; 13]).unwrap();
        assert!(read_seq(&store, TraceId(0)).is_err());
    }

    #[test]
    fn counts_merge_accumulates() {
        let store = MemStore::new();
        let a = Activity(0);
        merge_counts(&store, COUNT, a, &[(Activity(1), 10, 2), (Activity(2), 5, 1)]).unwrap();
        merge_counts(&store, COUNT, a, &[(Activity(1), 4, 1)]).unwrap();
        let row = read_counts(&store, COUNT, a).unwrap();
        assert_eq!(row.len(), 2);
        let b = row.iter().find(|e| e.partner == Activity(1)).unwrap();
        assert_eq!((b.sum_duration, b.total_completions), (14, 3));
        assert!((b.avg_duration() - 14.0 / 3.0).abs() < 1e-9);
        assert_eq!(pair_count(&store, a, Activity(2)).unwrap().unwrap().total_completions, 1);
        assert!(pair_count(&store, a, Activity(9)).unwrap().is_none());
    }

    #[test]
    fn count_entry_avg_duration_zero_safe() {
        let e = CountEntry { partner: Activity(0), sum_duration: 0, total_completions: 0 };
        assert_eq!(e.avg_duration(), 0.0);
    }

    #[test]
    fn last_checked_keeps_max_per_trace() {
        let store = MemStore::new();
        let key = Activity::pair_key(Activity(0), Activity(1));
        merge_last_checked(&store, key, &[(TraceId(1), 5), (TraceId(2), 7)]).unwrap();
        merge_last_checked(&store, key, &[(TraceId(1), 9), (TraceId(1), 3)]).unwrap();
        let row = read_last_checked(&store, key).unwrap();
        assert_eq!(row.len(), 2);
        let t1 = row.iter().find(|e| e.trace == TraceId(1)).unwrap();
        assert_eq!(t1.last_completion, 9);
    }

    #[test]
    fn partition_table_ids() {
        assert_eq!(index_partition(0), TableId(16));
        assert_eq!(index_partition(10), TableId(26));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_out_of_range_panics() {
        index_partition(MAX_PARTITIONS);
    }

    #[test]
    fn empty_rows_decode_to_empty_lists() {
        assert!(decode_events(&[]).unwrap().is_empty());
        assert!(decode_postings(&[]).unwrap().is_empty());
        assert!(decode_counts(&[]).unwrap().is_empty());
        assert!(decode_last_checked(&[]).unwrap().is_empty());
        assert!(decode_attrs(&[]).unwrap().is_empty());
    }

    #[test]
    fn attrs_roundtrip_append_and_negative_values() {
        let store = MemStore::new();
        let t = TraceId(3);
        append_attrs(&store, t, &[(5, Attr(0), -40), (5, Attr(1), 7)]).unwrap();
        append_attrs(&store, t, &[(9, Attr(0), i64::MIN)]).unwrap();
        // Empty appends never create a row.
        append_attrs(&store, TraceId(4), &[]).unwrap();
        assert!(store.get(ATTRS, &seq_key(TraceId(4))).is_none());
        let row = read_attrs(&store, t).unwrap();
        assert_eq!(row, [(5, Attr(0), -40), (5, Attr(1), 7), (9, Attr(0), i64::MIN)]);
        assert!(read_attrs(&store, TraceId(99)).unwrap().is_empty());
        // Torn records are detected.
        store.put(ATTRS, &seq_key(TraceId(5)), &[1, 2, 3]).unwrap();
        assert!(read_attrs(&store, TraceId(5)).is_err());
    }
}
