//! Maintenance of a [`DiskStore`]'s run tier: compaction, retention, scrub,
//! repair and the background scrubber. Each builds the tier it wants and
//! hands it to the store's one publish point; none writes the manifest or
//! replaces the live tier itself.
//!
//! ## Compaction and the manifest
//!
//! [`DiskStore::compact`] merges the runs and the delta into fresh sorted
//! run files (fsynced and read back before they are referenced), then
//! publishes them by atomically replacing the `MANIFEST` (`.tmp` + fsync +
//! rename + dir fsync). The manifest's `segment_floor` is the first segment
//! number replay may apply: stale segments below the floor are superseded
//! by the runs and ignored, so a failed post-compaction sweep can never
//! cause a double replay. A crash mid-compaction leaves only orphan run
//! files and an ignored `MANIFEST.tmp`. Retention
//! ([`DiskStore::drop_expired_runs`]) publishes a manifest without the runs
//! whose whole time range has expired, rewriting nothing.

use crate::delta::DeltaState;
use crate::disk::{DiskStore, Tier, Writer};
use crate::health::QuarantinedRun;
use crate::run::{encode_run, run_file_name, RunReader, RunSet};
use crate::segment::{list_segments, replay_segment, segment_path};
use bytes::Bytes;
use parking_lot::MutexGuard;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Turn what a publish could not sweep into the error its caller reports
/// once, after everything else about the operation is settled.
fn report_leftovers(done: &str, leftovers: Vec<String>) -> io::Result<()> {
    if leftovers.is_empty() {
        return Ok(());
    }
    Err(io::Error::other(format!(
        "{done}, but {} superseded file(s) could not be removed (replay stays correct with \
         them present): {}",
        leftovers.len(),
        leftovers.join("; ")
    )))
}

impl DiskStore {
    /// Merge the runs and the delta into fresh sorted per-table run files,
    /// publish them through the manifest, and sweep everything they
    /// supersede. Concurrent writers are blocked until the new tier is
    /// installed. Recovery is correct with any subset of the superseded
    /// files still present: a remove failure during the sweep is collected
    /// and reported once, after the sweep finishes.
    pub fn compact(&self) -> io::Result<()> {
        let w = self.maintenance_guard("compact", false)?;
        let source = self.tier();
        let leftovers = self.merge_and_publish(w, &source.runs, &source.delta)?;
        report_leftovers("compaction succeeded", leftovers)
    }

    /// Fold the source image (`runs` + `delta`) into fresh runs and publish
    /// them as the new tier, under the writer guard the caller passes in.
    /// Shared by [`DiskStore::compact`] (the live tier) and
    /// [`DiskStore::repair`] (the rebuilt image). Returns what the publish
    /// could not sweep.
    fn merge_and_publish(
        &self,
        w: MutexGuard<'_, Writer>,
        runs: &RunSet,
        delta: &DeltaState,
    ) -> io::Result<Vec<String>> {
        let first_id = self.tier().next_run_id;
        let mut written = Vec::new();
        let published = self.write_runs(runs, delta, first_id, &mut written).and_then(|fresh| {
            let live = fresh.len();
            let run_bytes: u64 = fresh.iter().map(|r| r.file_bytes() as u64).sum();
            // The new runs already contain every delta op, so the delta
            // restarts empty and every current segment is superseded.
            let next = Tier {
                runs: RunSet::new(fresh),
                delta: Arc::default(),
                segment_floor: w.segment + 1,
                next_run_id: first_id + live as u64,
                bytes_since_compact: AtomicU64::new(0),
            };
            let leftovers = self.publish(w, next)?;
            self.metrics.record_run_compaction(live, run_bytes);
            Ok(leftovers)
        });
        if published.is_err() {
            // Nothing was published, so the files written so far are
            // orphans no manifest names.
            for path in &written {
                let _ = self.vfs.remove_file(path);
            }
        }
        published
    }

    /// Write one run per non-empty table of the merged image, fsynced and
    /// read back, numbered from `first_id`. Every file created is pushed to
    /// `written` so a failed attempt can be cleaned up.
    fn write_runs(
        &self,
        runs: &RunSet,
        delta: &DeltaState,
        first_id: u64,
        written: &mut Vec<PathBuf>,
    ) -> io::Result<Vec<Arc<RunReader>>> {
        let extractor = self.zone_extractor.read().clone();
        let mut tables = runs.tables();
        tables.extend(delta.tables());
        tables.sort_unstable();
        tables.dedup();
        let mut fresh = Vec::new();
        for table in tables {
            let records: Vec<(Vec<u8>, Bytes)> =
                delta.merged_over(runs, table).into_iter().collect();
            let Some((buf, _zone)) = encode_run(table, &records, extractor.as_deref())? else {
                continue; // empty table: no run
            };
            let id = first_id + fresh.len() as u64;
            let path = self.dir.join(run_file_name(id, table));
            let mut out = self.vfs.create(&path)?;
            written.push(path.clone());
            out.write_all(&buf)?;
            out.sync_all()?;
            self.metrics.record_fsync();
            fresh.push(Arc::new(RunReader::open(self.vfs.as_ref(), &path, id, table)?));
        }
        Ok(fresh)
    }

    /// Drop every run whose entire time range lies before `cutoff_ts` —
    /// retention without rewriting a byte of surviving data. Runs without
    /// trace/timestamp zones (no `ZoneExtractor` at compaction time, or
    /// undecodable rows) are conservatively kept. Returns how many runs
    /// were dropped.
    ///
    /// Note: delta appends whose run base is dropped keep only their tail;
    /// callers expire data only along boundaries the schema layer aligns
    /// with its partitions, where no live delta overlaps expired runs.
    pub fn drop_expired_runs(&self, cutoff_ts: u64) -> io::Result<usize> {
        let w = self.maintenance_guard("expire runs", false)?;
        let tier = self.tier();
        let (dropped, kept): (Vec<_>, Vec<_>) = tier
            .runs
            .runs()
            .iter()
            .cloned()
            .partition(|r| r.zone.zones.is_some_and(|z| z.ts_max < cutoff_ts));
        if dropped.is_empty() {
            return Ok(0);
        }
        let expired = dropped.len();
        let leftovers = self.publish(w, tier.with_runs(kept))?;
        self.metrics.record_runs_expired(expired);
        report_leftovers(&format!("retention dropped {expired} run(s)"), leftovers)?;
        Ok(expired)
    }

    /// `(earliest ts_min, latest ts_max)` across all runs that carry
    /// trace/timestamp zones, or `None` if no run does. The retention CLI
    /// anchors its TTL cutoff at the latest timestamp.
    pub fn run_time_range(&self) -> Option<(u64, u64)> {
        let tier = self.tier();
        tier.runs.runs().iter().filter_map(|r| r.zone.zones).fold(None, |range, z| match range {
            Some((lo, hi)) => Some((z.ts_min.min(lo), z.ts_max.max(hi))),
            None => Some((z.ts_min, z.ts_max)),
        })
    }

    /// Pull `run` from the searched tier and record the quarantine event.
    /// Returns `false` when the run is no longer live (a concurrent
    /// compaction or repair already superseded it — the damage is gone
    /// with it) or was already quarantined. The manifest keeps naming the
    /// run, so a reopen re-quarantines it until a repair.
    fn quarantine_run(&self, run: &RunReader, reason: String) -> bool {
        // The writer lock serializes the swap against a concurrent publish.
        let w = self.writer.lock();
        let tier = self.tier();
        let same = |r: &Arc<RunReader>| r.id == run.id && r.table == run.table;
        if !tier.runs.runs().iter().any(same) {
            return false;
        }
        let kept = tier.runs.runs().iter().filter(|r| !same(r)).cloned().collect();
        self.install(&w, tier.with_runs(kept));
        let (id, table, path) = (run.id, run.table, run.path.clone());
        let lost = QuarantinedRun::new(id, table, path, reason, Some(&run.zone));
        let mut health = self.health.lock();
        let new = health.quarantine.record(lost);
        if new {
            self.metrics.record_run_quarantined();
        }
        self.mirror_health(&health);
        new
    }

    /// One verification pass over the live run tier: re-read every run
    /// file from disk and re-validate its full structure and CRC —
    /// catching bit rot that happened *after* the resident image was
    /// loaded. A run that no longer verifies is quarantined; reads
    /// continue against the survivors. `pause` sleeps between files to
    /// pace the I/O (the background scrubber passes a non-zero pause so a
    /// scrub never monopolizes the disk).
    pub fn scrub_paced(&self, pause: Duration) -> ScrubOutcome {
        let tier = self.tier();
        let mut newly = 0usize;
        for run in tier.runs.runs() {
            let verdict =
                RunReader::open_expecting(self.vfs.as_ref(), &run.path, run.id, run.table, run.crc);
            if verdict.is_err_and(|(why, _)| self.quarantine_run(run, format!("scrub: {why}"))) {
                newly += 1;
            }
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
        self.metrics.record_scrub_pass();
        ScrubOutcome { runs_checked: tier.runs.len(), newly_quarantined: newly }
    }

    /// [`DiskStore::scrub_paced`] without I/O pacing.
    pub fn scrub(&self) -> ScrubOutcome {
        self.scrub_paced(Duration::ZERO)
    }

    /// Rebuild the run tier after quarantine events, re-publishing through
    /// the crash-consistent manifest rename. No-op when nothing is
    /// quarantined.
    ///
    /// When the complete segment history is on disk (the store ran with
    /// `DiskOptions::retain_segments`, or never compacted since the
    /// damaged runs were written), the tier is rebuilt **losslessly** by
    /// replaying every segment from the beginning — the quarantined runs'
    /// contents are re-derived from the log. The surviving runs are
    /// deliberately *not* used as a base in that path: their contents are
    /// already in the below-floor segments, and overlaying a full replay
    /// on them would double-apply appends.
    ///
    /// Without the full history, the tier is rebuilt from the surviving
    /// runs plus the live delta: integrity is restored and coverage
    /// returns to `Full`, but rows only the damaged files held are lost
    /// (bounded by the quarantined runs' record counts).
    pub fn repair(&self) -> io::Result<RepairOutcome> {
        let mut w = self.maintenance_guard("repair", true)?;
        if self.health.lock().quarantine.is_empty() {
            return Ok(RepairOutcome { repaired: 0, full_history: false });
        }
        // Push buffered bytes of the active segment to the kernel so a
        // full-log read-back sees every record logged so far.
        w.file.flush()?;
        let segments = list_segments(self.vfs.as_ref(), &self.dir)?;
        let full_history = segments.first() == Some(&0)
            && segments.last().is_some_and(|&last| segments.len() as u64 == last + 1);
        let leftovers = if full_history {
            let replayed = DeltaState::new();
            for &n in &segments {
                replay_segment(self.vfs.as_ref(), &segment_path(&self.dir, n), &replayed)?;
            }
            self.merge_and_publish(w, &RunSet::default(), &replayed)?
        } else {
            let survivors = self.tier();
            self.merge_and_publish(w, &survivors.runs, &survivors.delta)?
        };
        let repaired = {
            let mut health = self.health.lock();
            let cleared = std::mem::take(&mut health.quarantine);
            self.mirror_health(&health);
            cleared.len()
        };
        self.metrics.record_runs_repaired(repaired);
        report_leftovers("repair rebuilt the tier", leftovers)?;
        Ok(RepairOutcome { repaired, full_history })
    }

    /// Spawn a background thread that runs [`DiskStore::scrub_paced`]
    /// every `interval`, pacing `pause` between run files. The thread
    /// stops when the returned handle is dropped or
    /// [`ScrubberHandle::stop`] is called (it checks for shutdown in
    /// ≤50ms slices, so stopping never waits out a whole interval).
    pub fn spawn_scrubber(
        store: Arc<DiskStore>,
        interval: Duration,
        pause: Duration,
    ) -> io::Result<ScrubberHandle> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread =
            std::thread::Builder::new().name("seqdet-scrub".into()).spawn(move || loop {
                let mut slept = Duration::ZERO;
                while slept < interval {
                    if flag.load(Ordering::Relaxed) {
                        return;
                    }
                    let step = (interval - slept).min(Duration::from_millis(50));
                    std::thread::sleep(step);
                    slept += step;
                }
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                store.scrub_paced(pause);
            })?;
        Ok(ScrubberHandle { stop, thread: Some(thread) })
    }
}

/// Outcome of one [`DiskStore::scrub`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubOutcome {
    /// Live runs whose files were re-read and re-validated.
    pub runs_checked: usize,
    /// Runs this pass newly quarantined.
    pub newly_quarantined: usize,
}

/// Outcome of a [`DiskStore::repair`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Quarantine entries cleared by the rebuild.
    pub repaired: usize,
    /// Whether the complete segment history was available: `true` means
    /// the rebuild was lossless (full-log replay); `false` means the tier
    /// was rebuilt from the survivors and rows only the damaged runs held
    /// are gone.
    pub full_history: bool,
}

/// Handle to the background scrubber spawned by
/// [`DiskStore::spawn_scrubber`]. Dropping it stops and joins the thread.
#[derive(Debug)]
pub struct ScrubberHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ScrubberHandle {
    /// Stop the scrubber and wait for its thread to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ScrubberHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::tests::{flip_mid_byte, open_fault, run_path_for, tmp_dir, T};
    use crate::run::verify_runs;
    use crate::vfs::{FaultFs, RealFs};
    use crate::{DiskOptions, KvStore, StoreMetrics, TableId};
    use std::fs;
    use std::path::Path;

    /// Test extractor: timestamp zones keyed by table id, trace range fixed.
    struct TsByTable;
    impl crate::run::ZoneExtractor for TsByTable {
        fn zones(&self, table: TableId, _: &[u8], _: &[u8]) -> Option<crate::run::RowZones> {
            Some(crate::run::RowZones {
                trace_min: 1,
                trace_max: 9,
                ts_min: table.0 as u64 * 100,
                ts_max: table.0 as u64 * 100 + 50,
            })
        }
    }

    #[test]
    fn compaction_reduces_segments_and_preserves_state() {
        let dir = tmp_dir("compact");
        {
            let s = DiskStore::open(&dir).unwrap();
            for i in 0..50u32 {
                s.append(T, b"k", &i.to_le_bytes()).unwrap();
            }
            s.flush().unwrap();
        }
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"x", b"y").unwrap();
            s.flush().unwrap();
            assert!(s.num_segments().unwrap() >= 2);
            s.compact().unwrap();
            // The state now lives in runs; only the fresh active segment
            // remains.
            assert_eq!(s.num_segments().unwrap(), 1);
            assert_eq!(s.num_runs(), 1);
            assert_eq!(s.get(T, b"k").unwrap().len(), 200);
        }
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"k").unwrap().len(), 200);
        assert_eq!(s.get(T, b"x").unwrap().as_ref(), b"y");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writes_after_compaction_survive_reopen() {
        let dir = tmp_dir("post-compact");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"a", b"1").unwrap();
            s.compact().unwrap();
            s.put(T, b"b", b"2").unwrap();
            s.flush().unwrap();
        }
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"1");
        assert_eq!(s.get(T, b"b").unwrap().as_ref(), b"2");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_is_refused_mid_batch() {
        let dir = tmp_dir("compact-mid-batch");
        let s = DiskStore::open(&dir).unwrap();
        s.begin_batch().unwrap();
        s.put(T, b"a", b"1").unwrap();
        assert!(s.compact().is_err());
        s.commit_batch().unwrap();
        s.compact().unwrap();
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"1");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_sweep_tolerates_remove_failures() {
        let dir = tmp_dir("compact-sweep");
        let fault = FaultFs::new();
        {
            let s = open_fault(&dir, &fault);
            s.put(T, b"a", b"1").unwrap();
            s.flush().unwrap();
        }
        let s = open_fault(&dir, &fault);
        s.put(T, b"b", b"2").unwrap();
        // Every remove in the sweep fails; compaction must still finish,
        // publish the manifest, and report the failures once.
        fault.arm_fail_after_removes(0);
        let err = s.compact().unwrap_err();
        assert!(err.to_string().contains("could not be removed"), "{err}");
        assert!(s.degraded().is_none(), "leftover old segments are harmless");
        // Writes keep working and land above the new segment floor.
        fault.heal();
        s.put(T, b"c", b"3").unwrap();
        s.flush().unwrap();
        drop(s);
        // Replay with the old segments still present is correct thanks to
        // the manifest's segment floor.
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"1");
        assert_eq!(s.get(T, b"b").unwrap().as_ref(), b"2");
        assert_eq!(s.get(T, b"c").unwrap().as_ref(), b"3");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_emits_runs_and_manifest_and_reopen_serves_from_runs() {
        let dir = tmp_dir("runs-roundtrip");
        let t2 = TableId(7);
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"a", b"1").unwrap();
            s.append(T, b"b", b"xy").unwrap();
            s.append(T, b"b", b"z").unwrap();
            s.put(t2, b"other", b"table").unwrap();
            s.compact().unwrap();
            assert_eq!(s.num_runs(), 2, "one run per non-empty table");
            assert_eq!(s.bytes_since_compact(), 0);
            // Post-compact reads serve from the runs.
            assert_eq!(s.get(T, b"b").unwrap().as_ref(), b"xyz");
            assert_eq!(s.get(t2, b"other").unwrap().as_ref(), b"table");
            assert_eq!(s.table_len(T), 2);
        }
        let report = verify_runs(&RealFs, &dir).unwrap();
        assert!(report.ok(), "{report:?}");
        assert_eq!(report.runs, 2);
        assert_eq!(report.records, 3);
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.num_runs(), 2);
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"1");
        assert_eq!(s.get(T, b"b").unwrap().as_ref(), b"xyz");
        assert_eq!(s.get(t2, b"other").unwrap().as_ref(), b"table");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_sweep_failure_cannot_double_replay() {
        // Regression guard for the error-sweep path: a compaction that
        // publishes its manifest but fails to unlink the old segments must
        // not replay those segments again on reopen — an append replayed on
        // top of the run holding the same bytes would double the value.
        let dir = tmp_dir("no-double-replay");
        let fault = FaultFs::new();
        let s = open_fault(&dir, &fault);
        s.append(T, b"k", b"ab").unwrap();
        s.append(T, b"k", b"cd").unwrap();
        s.flush().unwrap();
        fault.arm_fail_after_removes(0);
        let err = s.compact().unwrap_err();
        assert!(err.to_string().contains("could not be removed"), "{err}");
        assert!(s.degraded().is_none());
        assert_eq!(s.get(T, b"k").unwrap().as_ref(), b"abcd");
        fault.heal();
        drop(s);
        // The stale segment with both append records is still on disk
        // alongside the run; the manifest's segment floor must keep it out
        // of replay.
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(
            s.get(T, b"k").unwrap().as_ref(),
            b"abcd",
            "stale pre-compaction segment was replayed on top of the runs"
        );
        assert_eq!(s.table_len(T), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_compaction_leaves_store_state_unchanged() {
        let dir = tmp_dir("compact-crash");
        let fault = FaultFs::new();
        {
            let s = open_fault(&dir, &fault);
            s.put(T, b"a", b"1").unwrap();
            s.put(T, b"b", b"2").unwrap();
            s.flush().unwrap();
        }
        let s = open_fault(&dir, &fault);
        // Crash after a handful of bytes: somewhere inside the run write,
        // before the manifest rename can land.
        fault.arm_crash_after_bytes(10);
        assert!(s.compact().is_err());
        fault.heal();
        drop(s);
        // Whatever the crash left behind (orphan run files, a manifest
        // .tmp), replay must reproduce the pre-compaction state.
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"1");
        assert_eq!(s.get(T, b"b").unwrap().as_ref(), b"2");
        assert_eq!(s.num_runs(), 0, "no manifest was published");
        // A later compaction sweeps the orphans and completes normally.
        s.compact().unwrap();
        assert_eq!(s.num_runs(), 1);
        let report = verify_runs(&RealFs, &dir).unwrap();
        assert!(report.ok(), "{report:?}");
        assert_eq!(report.orphans, 0, "completed compaction swept crash leftovers");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_expired_runs_drops_only_fully_expired_runs() {
        let dir = tmp_dir("retention");
        let metrics = Arc::new(StoreMetrics::new());
        let old_t = TableId(1); // ts range [100, 150]
        let new_t = TableId(4); // ts range [400, 450]
        let s = DiskStore::open_with(
            &dir,
            DiskOptions { metrics: Some(metrics.clone()), ..DiskOptions::default() },
        )
        .unwrap();
        s.set_zone_extractor(Arc::new(TsByTable));
        s.put(old_t, b"old", b"1").unwrap();
        s.put(new_t, b"new", b"2").unwrap();
        s.compact().unwrap();
        assert_eq!(s.num_runs(), 2);
        assert_eq!(s.run_time_range(), Some((100, 450)));
        // Cutoff between the two runs' ranges: only the old one expires.
        assert_eq!(s.drop_expired_runs(200).unwrap(), 1);
        assert_eq!(s.num_runs(), 1);
        assert_eq!(metrics.runs_expired(), 1);
        assert!(s.get(old_t, b"old").is_none(), "expired run no longer serves");
        assert_eq!(s.get(new_t, b"new").unwrap().as_ref(), b"2");
        // Nothing left to expire below the same cutoff.
        assert_eq!(s.drop_expired_runs(200).unwrap(), 0);
        drop(s);
        // The rewritten manifest survives reopen.
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.num_runs(), 1);
        assert!(s.get(old_t, b"old").is_none());
        assert_eq!(s.get(new_t, b"new").unwrap().as_ref(), b"2");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_manifest_write_during_retention_leaves_store_state_unchanged() {
        let dir = tmp_dir("retention-manifest-fail");
        let fault = FaultFs::new();
        let metrics = Arc::new(StoreMetrics::new());
        let (old_t, new_t) = (TableId(1), TableId(4));
        let s = DiskStore::open_with(
            &dir,
            DiskOptions {
                vfs: Arc::new(fault.clone()),
                metrics: Some(metrics.clone()),
                ..DiskOptions::default()
            },
        )
        .unwrap();
        s.set_zone_extractor(Arc::new(TsByTable));
        s.put(old_t, b"old", b"1").unwrap();
        s.put(new_t, b"new", b"2").unwrap();
        s.compact().unwrap();
        let files = |dir: &Path| {
            let mut names: Vec<String> = fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        let (before, fsyncs) = (files(&dir), metrics.fsyncs());
        // The manifest temporary is the first write retention issues.
        fault.arm_fail_after_writes(0);
        assert!(s.drop_expired_runs(200).is_err());
        fault.heal();
        // Nothing was published: tier, gauges and files are as they were.
        assert_eq!(s.num_runs(), 2);
        assert_eq!(metrics.runs_live(), 2);
        assert_eq!(metrics.runs_expired(), 0);
        assert_eq!(metrics.fsyncs(), fsyncs);
        assert_eq!(files(&dir), before);
        assert!(s.degraded().is_none(), "a failed publish is not a failed segment write");
        assert_eq!(s.get(old_t, b"old").unwrap().as_ref(), b"1");
        // The same retention goes through once the filesystem is healthy.
        assert_eq!(s.drop_expired_runs(200).unwrap(), 1);
        assert_eq!(metrics.runs_live(), 1);
        drop(s);
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.num_runs(), 1);
        assert!(s.get(old_t, b"old").is_none());
        assert_eq!(s.get(new_t, b"new").unwrap().as_ref(), b"2");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_and_expiry_are_refused_while_quarantined() {
        let dir = tmp_dir("quarantine-blocks-compact");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"k", b"v").unwrap();
            s.compact().unwrap();
        }
        flip_mid_byte(&run_path_for(&dir, T));
        let s = DiskStore::open_with(
            &dir,
            DiskOptions { run_flush_bytes: Some(1), ..DiskOptions::default() },
        )
        .unwrap();
        assert!(!s.coverage().is_full());
        // A compaction would publish a manifest without the quarantined
        // run, silently finalizing its loss — refused until repair.
        let err = s.compact().unwrap_err();
        assert!(err.to_string().contains("quarantined"), "{err}");
        let err = s.drop_expired_runs(u64::MAX).unwrap_err();
        assert!(err.to_string().contains("quarantined"), "{err}");
        // maintain() (the indexer's per-batch hook) waits instead of
        // failing every committed batch.
        s.put(T, b"more", b"data").unwrap();
        s.maintain().unwrap();
        assert!(!s.coverage().is_full());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_quarantines_bit_rotted_run() {
        let dir = tmp_dir("scrub-bit-rot");
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
        s.put(T, b"k", b"v").unwrap();
        s.compact().unwrap();
        // A clean pass finds nothing.
        assert_eq!(s.scrub(), ScrubOutcome { runs_checked: 1, newly_quarantined: 0 });
        assert!(s.coverage().is_full());
        // Rot a byte of the run file: the resident image is unaffected (no
        // read touches disk), but the next scrub re-reads the file.
        fault.arm_bit_rot("run-", 10);
        assert_eq!(s.get(T, b"k").unwrap().as_ref(), b"v", "resident reads unaffected");
        assert_eq!(s.scrub(), ScrubOutcome { runs_checked: 1, newly_quarantined: 1 });
        assert!(!s.coverage().is_full());
        assert!(s.get(T, b"k").is_none());
        assert_eq!(metrics.scrub_passes(), 2);
        assert_eq!(metrics.runs_quarantined(), 1);
        // Nothing live is left to check, and the quarantine is not
        // double-counted.
        assert_eq!(s.scrub(), ScrubOutcome { runs_checked: 0, newly_quarantined: 0 });
        assert_eq!(metrics.quarantined_live(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_without_history_restores_coverage_with_bounded_loss() {
        let dir = tmp_dir("repair-lossy");
        let t2 = TableId(9);
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"lost", b"only-in-damaged-run").unwrap();
            s.put(t2, b"kept", b"in-surviving-run").unwrap();
            s.compact().unwrap();
        }
        flip_mid_byte(&run_path_for(&dir, T));
        let metrics = Arc::new(StoreMetrics::new());
        let s = DiskStore::open_with(
            &dir,
            DiskOptions { metrics: Some(metrics.clone()), ..DiskOptions::default() },
        )
        .unwrap();
        s.put(T, b"delta", b"post-damage write").unwrap();
        assert!(!s.coverage().is_full());
        let outcome = s.repair().unwrap();
        assert_eq!(outcome, RepairOutcome { repaired: 1, full_history: false });
        // Integrity is back — coverage Full, survivors and delta intact.
        // The damaged run's row is gone: the default segment sweep had
        // already removed the log that could have rebuilt it.
        assert!(s.coverage().is_full());
        assert!(s.quarantine().is_empty());
        assert!(s.get(T, b"lost").is_none());
        assert_eq!(s.get(t2, b"kept").unwrap().as_ref(), b"in-surviving-run");
        assert_eq!(s.get(T, b"delta").unwrap().as_ref(), b"post-damage write");
        assert_eq!(metrics.runs_repaired(), 1);
        assert_eq!(metrics.quarantined_live(), 0);
        // The rebuilt tier verifies clean and the damaged file was swept.
        let report = verify_runs(&RealFs, &dir).unwrap();
        assert!(report.ok(), "{report:?}");
        drop(s);
        let s = DiskStore::open(&dir).unwrap();
        assert!(s.coverage().is_full());
        assert_eq!(s.get(T, b"delta").unwrap().as_ref(), b"post-damage write");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_with_retained_segments_is_lossless() {
        let dir = tmp_dir("repair-lossless");
        {
            let s = DiskStore::open_with(
                &dir,
                DiskOptions { retain_segments: true, ..DiskOptions::default() },
            )
            .unwrap();
            s.put(T, b"a", b"first").unwrap();
            s.append(T, b"a", b"+more").unwrap();
            s.compact().unwrap();
            s.put(T, b"b", b"second-era").unwrap();
            s.compact().unwrap();
            s.put(T, b"c", b"delta-row").unwrap();
            s.flush().unwrap();
            // retain_segments kept the complete history on disk.
            assert_eq!(list_segments(&RealFs, &dir).unwrap(), vec![0, 1, 2]);
        }
        flip_mid_byte(&run_path_for(&dir, T));
        let metrics = Arc::new(StoreMetrics::new());
        let s = DiskStore::open_with(
            &dir,
            DiskOptions {
                metrics: Some(metrics.clone()),
                retain_segments: true,
                ..DiskOptions::default()
            },
        )
        .unwrap();
        assert!(!s.coverage().is_full());
        assert!(s.get(T, b"a").is_none(), "damaged run's rows are narrowed out");
        let outcome = s.repair().unwrap();
        assert_eq!(outcome, RepairOutcome { repaired: 1, full_history: true });
        // Everything ever acknowledged is back, rebuilt from the log.
        assert!(s.coverage().is_full());
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"first+more");
        assert_eq!(s.get(T, b"b").unwrap().as_ref(), b"second-era");
        assert_eq!(s.get(T, b"c").unwrap().as_ref(), b"delta-row");
        assert_eq!(metrics.runs_repaired(), 1);
        // The repair republished through a compaction, so the history is
        // still complete (contiguous from segment 0) for the next incident.
        let segs = list_segments(&RealFs, &dir).unwrap();
        assert_eq!(segs, (0..segs.len() as u64).collect::<Vec<_>>());
        let report = verify_runs(&RealFs, &dir).unwrap();
        assert!(report.ok(), "{report:?}");
        drop(s);
        let s = DiskStore::open_with(
            &dir,
            DiskOptions { retain_segments: true, ..DiskOptions::default() },
        )
        .unwrap();
        assert!(s.coverage().is_full());
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"first+more");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_scrubber_detects_damage_within_its_interval() {
        let dir = tmp_dir("scrubber-thread");
        let fault = FaultFs::new();
        let metrics = Arc::new(StoreMetrics::new());
        let s = Arc::new(
            DiskStore::open_with(
                &dir,
                DiskOptions {
                    vfs: Arc::new(fault.clone()),
                    metrics: Some(metrics.clone()),
                    ..DiskOptions::default()
                },
            )
            .unwrap(),
        );
        s.put(T, b"k", b"v").unwrap();
        s.compact().unwrap();
        let handle =
            DiskStore::spawn_scrubber(s.clone(), Duration::from_millis(1), Duration::ZERO).unwrap();
        fault.arm_bit_rot("run-", 10);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while s.coverage().is_full() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.stop();
        assert!(!s.coverage().is_full(), "scrubber never caught the bit rot");
        assert!(metrics.scrub_passes() >= 1);
        assert_eq!(metrics.runs_quarantined(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
