//! Zone-map extraction for the five-table schema.
//!
//! The storage layer's immutable runs carry an optional footer zone map —
//! the trace-id and timestamp ranges referenced by the run's rows — which
//! the read path uses to skip whole runs (`key_may_exist`) and the
//! retention path uses to drop fully expired runs. The storage crate is
//! schema-agnostic: it only knows how to *store* a [`RowZones`] range, not
//! how to derive one from a row. This module is the schema-aware half: a
//! [`seqdet_storage::ZoneExtractor`] that decodes each table's rows with
//! the real codecs.
//!
//! Extraction is strictly conservative. A row that fails to decode — or a
//! table whose rows carry no trace/time information (`Count`,
//! `ReverseCount`, `Meta`) — yields `None`, and the storage layer then
//! omits zones for the whole run rather than persisting a range that might
//! not cover everything. A run without zones is never pruned by time or
//! trace and never expired by retention; it is only ever *less* prunable,
//! never incorrectly skipped.

use crate::catalog::{get_meta, put_meta};
use crate::decode::decode_postings_v2_into;
use crate::indexer::{bump_index_generation, META_RETENTION_CUTOFF};
use crate::tables::{
    decode_events, decode_last_checked, INDEX, INDEX_PARTITION_BASE, LAST_CHECKED, SEQ,
};
use crate::Result;
use seqdet_log::Ts;
use seqdet_storage::{DiskStore, KvStore, RowZones, TableId, ZoneExtractor};
use std::sync::Arc;

/// True for the single `Index` table and every per-period partition.
fn is_index_table(table: TableId) -> bool {
    table == INDEX || table.0 >= INDEX_PARTITION_BASE
}

/// [`ZoneExtractor`] over the five-table schema of §3.1.2. Stateless: it
/// runs inside the storage layer's compaction, which must not re-enter the
/// store.
pub struct TableZones;

impl ZoneExtractor for TableZones {
    fn zones(&self, table: TableId, key: &[u8], value: &[u8]) -> Option<RowZones> {
        if table == SEQ {
            let trace = u32::from_le_bytes(key.try_into().ok()?);
            let events = decode_events(value).ok()?;
            let (first, last) = (events.first()?, events.last()?);
            // Seq rows are time-ordered by construction, but derive the
            // range defensively anyway: a wrong zone map silently unindexes
            // rows, a loose one only costs a pruning opportunity.
            let (mut ts_min, mut ts_max) = (first.ts, last.ts);
            for ev in &events {
                ts_min = ts_min.min(ev.ts);
                ts_max = ts_max.max(ev.ts);
            }
            Some(RowZones { trace_min: trace, trace_max: trace, ts_min, ts_max })
        } else if is_index_table(table) {
            let mut postings = Vec::new();
            decode_postings_v2_into(value, &mut postings).ok()?;
            let mut iter = postings.iter();
            let p0 = iter.next()?;
            let mut z = RowZones {
                trace_min: p0.trace.0,
                trace_max: p0.trace.0,
                ts_min: p0.ts_a,
                ts_max: p0.ts_b,
            };
            for p in iter {
                z.trace_min = z.trace_min.min(p.trace.0);
                z.trace_max = z.trace_max.max(p.trace.0);
                z.ts_min = z.ts_min.min(p.ts_a);
                z.ts_max = z.ts_max.max(p.ts_b);
            }
            Some(z)
        } else if table == LAST_CHECKED {
            let entries = decode_last_checked(value).ok()?;
            let mut iter = entries.iter();
            let e0 = iter.next()?;
            let mut z = RowZones {
                trace_min: e0.trace.0,
                trace_max: e0.trace.0,
                ts_min: e0.last_completion,
                ts_max: e0.last_completion,
            };
            for e in iter {
                z.trace_min = z.trace_min.min(e.trace.0);
                z.trace_max = z.trace_max.max(e.trace.0);
                z.ts_min = z.ts_min.min(e.last_completion);
                z.ts_max = z.ts_max.max(e.last_completion);
            }
            Some(z)
        } else {
            // Count / ReverseCount / Meta rows carry aggregates and blobs,
            // not trace-addressed events — no meaningful zone range.
            None
        }
    }
}

/// Install a [`TableZones`] extractor on a persistent store.
pub fn install_zone_extractor(store: &DiskStore) {
    store.set_zone_extractor(Arc::new(TableZones));
}

/// What one [`expire_runs`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expiry {
    /// Runs dropped.
    pub dropped: usize,
    /// Runs whose newest timestamp lies before this one were expired.
    pub cutoff: Ts,
    /// The newest timestamp any run covers; the TTL counts back from it.
    pub newest: Ts,
}

/// Retention: drop every run of `store` whose time range ends more than
/// `ttl` before the newest timestamp any run covers. Event time and wall
/// time need not agree, so the TTL is measured in event time. `None` when
/// no run carries time zones.
///
/// Dropped runs take postings and `Seq` rows with them but leave the
/// `Count` and `LastChecked` rows that summarise them, as a partition drop
/// does, so from then on the auditor checks its bounded invariants. The
/// marker that tells it so is written and flushed *before* any run goes: a
/// crash in between leaves a looser audit, never a strict audit of a store
/// that lost postings. A drop bumps the index generation, so query-side
/// caches notice it.
pub fn expire_runs(store: &DiskStore, ttl: Ts) -> Result<Option<Expiry>> {
    let Some((oldest, newest)) = store.run_time_range() else { return Ok(None) };
    let cutoff = newest.saturating_sub(ttl);
    // A run that ends before the cutoff starts before it too.
    if oldest >= cutoff {
        return Ok(Some(Expiry { dropped: 0, cutoff, newest }));
    }
    let marked = get_meta(store, META_RETENTION_CUTOFF).is_some();
    put_meta(store, META_RETENTION_CUTOFF, &cutoff.to_string())?;
    store.flush()?;
    let dropped = store.drop_expired_runs(cutoff)?;
    if dropped > 0 {
        bump_index_generation(store)?;
    } else if !marked {
        // Nothing went, so nothing loosens the audit.
        store.delete(crate::tables::META, META_RETENTION_CUTOFF.as_bytes())?;
    }
    Ok(Some(Expiry { dropped, cutoff, newest }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{encode_events, encode_last_checked, LastCheckedEntry};
    use crate::tables::{index_partition, Posting, COUNT, META};
    use seqdet_log::{Event, TraceId};

    #[test]
    fn seq_rows_zone_to_their_trace_and_time_span() {
        let z = TableZones;
        let row = encode_events(&[
            Event::new(seqdet_log::Activity(0), 5),
            Event::new(seqdet_log::Activity(1), 9),
        ]);
        let zones = z.zones(SEQ, &7u32.to_le_bytes(), &row).unwrap();
        assert_eq!(zones, RowZones { trace_min: 7, trace_max: 7, ts_min: 5, ts_max: 9 });
        // Garbage key or row → conservative None.
        assert!(z.zones(SEQ, &[1, 2], &row).is_none());
        assert!(z.zones(SEQ, &7u32.to_le_bytes(), &[1, 2, 3]).is_none());
    }

    #[test]
    fn index_rows_zone_across_postings() {
        let postings = [
            Posting { trace: TraceId(1), ts_a: 15, ts_b: 40 },
            Posting { trace: TraceId(3), ts_a: 10, ts_b: 20 },
        ];
        let want = RowZones { trace_min: 1, trace_max: 3, ts_min: 10, ts_max: 40 };
        let key = 0u64.to_le_bytes();
        let row = crate::postings::encode_postings_v2(&postings);
        for table in [INDEX, index_partition(4)] {
            assert_eq!(TableZones.zones(table, &key, &row).unwrap(), want);
        }
        // A row that fails to decode → conservative None, not junk.
        assert!(TableZones.zones(INDEX, &key, &row[..row.len() - 1]).is_none());
    }

    #[test]
    fn last_checked_and_zoneless_tables() {
        let z = TableZones;
        let row = encode_last_checked(&[
            LastCheckedEntry { trace: TraceId(2), last_completion: 30 },
            LastCheckedEntry { trace: TraceId(9), last_completion: 12 },
        ]);
        assert_eq!(
            z.zones(LAST_CHECKED, &0u64.to_le_bytes(), &row).unwrap(),
            RowZones { trace_min: 2, trace_max: 9, ts_min: 12, ts_max: 30 }
        );
        assert!(z.zones(COUNT, b"key", b"whatever").is_none());
        assert!(z.zones(META, b"config:policy", b"stnm").is_none());
    }
}
