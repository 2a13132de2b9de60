//! Store health: the sticky read-only flag and the quarantine ledger, as
//! one value under one lock.
//!
//! A failed write to the active segment leaves its tail in an unknown state
//! (appending after torn bytes would read as mid-segment corruption), so
//! the store turns sticky **read-only**: writes return
//! [`StorageError::Degraded`], reads keep serving from memory, and a
//! restart recovers the durable committed prefix. A run that fails
//! verification is **quarantined**: runs are derived state, so the store
//! serves the survivors, reports [`Coverage::Narrowed`], and refuses to
//! publish a manifest until `repair()` rebuilds the tier — a manifest
//! without the quarantined run would finalize its data loss. [`Health`] is
//! the innermost store lock (writer → tier → health).

use crate::error::StorageError;
use crate::kv::{Coverage, TableId};
use crate::run::ZoneMap;
use std::io;
use std::path::PathBuf;

/// One run pulled from the searched set after failing verification:
/// identity, diagnosis, and the key-range coverage the answers lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRun {
    /// Run id (names the file together with `table`).
    pub id: u64,
    /// Table whose rows the run held — the table whose answers narrowed.
    pub table: TableId,
    /// The damaged file (left on disk for diagnosis; never served from).
    pub path: PathBuf,
    /// What failed to verify.
    pub reason: String,
    /// Key range the run's zone map claimed, when the footer was still
    /// readable — the keys whose reads may now under-report.
    pub key_range: Option<(Vec<u8>, Vec<u8>)>,
    /// Record count the zone map claimed, when readable.
    pub records: Option<u64>,
}

impl QuarantinedRun {
    /// The ledger entry for run `(id, table)` at `path`, with the coverage
    /// its zone map claimed when that was still readable.
    pub(crate) fn new(
        id: u64,
        table: TableId,
        path: PathBuf,
        reason: String,
        zone: Option<&ZoneMap>,
    ) -> Self {
        let key_range = zone.map(|z| (z.min_key.clone(), z.max_key.clone()));
        Self { id, table, path, reason, key_range, records: zone.map(|z| z.records) }
    }
}

/// The set of quarantined runs of one store. Corruption of an immutable
/// run is not fatal — runs are derived from the segment log — so instead
/// of failing reads, the store records the damaged run here, serves
/// answers from the survivors, and reports itself
/// [`Narrowed`](Coverage::Narrowed) until `repair()` rebuilds
/// the lost state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineSet {
    entries: Vec<QuarantinedRun>,
}

impl QuarantineSet {
    /// True when nothing is quarantined.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of quarantined runs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Every quarantined run, in quarantine order.
    pub fn entries(&self) -> &[QuarantinedRun] {
        &self.entries
    }

    /// Whether run `id` of `table` is quarantined.
    pub fn contains(&self, id: u64, table: TableId) -> bool {
        self.entries.iter().any(|e| e.id == id && e.table == table)
    }

    /// Record a quarantine event. Re-quarantining the same run (scrub and
    /// a read racing to diagnose the same damage) keeps the first entry.
    /// Returns whether the entry was new.
    pub fn record(&mut self, entry: QuarantinedRun) -> bool {
        if self.contains(entry.id, entry.table) {
            return false;
        }
        self.entries.push(entry);
        true
    }

    /// Tables with at least one quarantined run, ascending.
    pub fn tables(&self) -> Vec<TableId> {
        let mut t: Vec<TableId> = self.entries.iter().map(|e| e.table).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// The coverage this quarantine state implies: `Full` when empty,
    /// otherwise `Narrowed` over the quarantined tables with the first
    /// entry's diagnosis as the reason.
    pub fn coverage(&self) -> Coverage {
        match self.entries.first() {
            None => Coverage::Full,
            Some(first) => Coverage::Narrowed {
                quarantined_tables: self.tables(),
                reason: first.reason.clone(),
            },
        }
    }
}

/// What is currently wrong with a store, if anything.
#[derive(Debug, Default)]
pub(crate) struct Health {
    /// Sticky read-only reason; set once by [`Health::degrade`].
    pub(crate) degraded: Option<String>,
    /// Runs pulled from the searched set after failing verification.
    pub(crate) quarantine: QuarantineSet,
}

impl Health {
    /// Turn the store read-only. The first reason wins: later failures are
    /// consequences of the first.
    pub(crate) fn degrade(&mut self, reason: String) {
        self.degraded.get_or_insert(reason);
    }

    /// Whether the write path may append to the active segment.
    pub(crate) fn writable(&self) -> Result<(), StorageError> {
        match &self.degraded {
            Some(reason) => Err(StorageError::Degraded { reason: reason.clone() }),
            None => Ok(()),
        }
    }

    /// Whether `what` (compaction, retention, repair) may publish a new
    /// manifest: the store must be writable and — unless `repairing`, whose
    /// whole point is a quarantined store — nothing may be quarantined.
    pub(crate) fn maintainable(&self, what: &str, repairing: bool) -> io::Result<()> {
        self.writable()?;
        if repairing || self.quarantine.is_empty() {
            return Ok(());
        }
        Err(io::Error::other(format!(
            "cannot {what} while runs are quarantined (the new manifest would finalize their \
             data loss); run repair first"
        )))
    }

    /// How complete reads currently are.
    pub(crate) fn coverage(&self) -> Coverage {
        self.quarantine.coverage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_file_name;

    fn entry(id: u64, table: u8) -> QuarantinedRun {
        QuarantinedRun {
            id,
            table: TableId(table),
            path: PathBuf::from(run_file_name(id, TableId(table))),
            reason: "checksum mismatch".into(),
            key_range: Some((b"a".to_vec(), b"z".to_vec())),
            records: Some(10),
        }
    }

    #[test]
    fn quarantine_set_tracks_runs_and_coverage() {
        let mut q = QuarantineSet::default();
        assert!(q.is_empty());
        assert_eq!(q.coverage(), Coverage::Full);
        assert!(q.record(entry(3, 2)));
        assert!(q.record(entry(1, 1)));
        // Re-quarantining the same run is a no-op.
        assert!(!q.record(entry(3, 2)));
        assert_eq!(q.len(), 2);
        assert!(q.contains(3, TableId(2)));
        assert!(!q.contains(3, TableId(1)));
        assert_eq!(q.tables(), vec![TableId(1), TableId(2)]);
        match q.coverage() {
            Coverage::Narrowed { quarantined_tables, reason } => {
                assert_eq!(quarantined_tables, vec![TableId(1), TableId(2)]);
                assert!(reason.contains("checksum"), "{reason}");
            }
            Coverage::Full => panic!("expected Narrowed"),
        }
        assert_eq!(std::mem::take(&mut q).len(), 2);
        assert!(q.is_empty());
        assert_eq!(q.coverage(), Coverage::Full);
    }

    #[test]
    fn health_truth_table() {
        // (read-only?, narrowed?) → writable, maintainable, full coverage.
        for (read_only, narrowed) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut h = Health::default();
            if read_only {
                h.degrade("segment write failed".into());
                h.degrade("a later consequence".into());
            }
            if narrowed {
                h.quarantine.record(entry(7, 2));
            }
            let state = format!("read_only={read_only} narrowed={narrowed}");
            assert_eq!(h.writable().is_ok(), !read_only, "{state}");
            assert_eq!(
                h.maintainable("compact", false).is_ok(),
                !read_only && !narrowed,
                "{state}"
            );
            assert_eq!(h.maintainable("repair", true).is_ok(), !read_only, "{state}");
            assert_eq!(h.coverage().is_full(), !narrowed, "{state}");
            // Each refusal names its own cause; read-only wins when both hold.
            if read_only {
                let err = h.writable().unwrap_err();
                assert!(err.is_degraded());
                assert!(err.to_string().contains("segment write failed"), "first reason wins");
                assert!(h
                    .maintainable("compact", false)
                    .unwrap_err()
                    .to_string()
                    .contains("read-only"));
            } else if narrowed {
                let err = h.maintainable("expire runs", false).unwrap_err().to_string();
                assert!(err.contains("cannot expire runs while runs are quarantined"), "{err}");
            }
            if narrowed {
                assert_eq!(
                    h.coverage(),
                    Coverage::Narrowed {
                        quarantined_tables: vec![TableId(2)],
                        reason: "checksum mismatch".into()
                    }
                );
            }
        }
    }
}
