//! Crash-at-every-offset recovery: build an index through several batch
//! updates, then simulate a hard crash after *every possible byte* of the
//! segment log. Reopening the cut store must always succeed, always pass
//! the cross-table audit, and — for any cut past the configuration
//! preamble — recover exactly the state of the last committed batch that
//! fits under the cut. This is the end-to-end proof of the batch-framing
//! contract: no torn five-table state is ever observable after recovery.
//! The same sweep then runs over every operation that publishes a manifest
//! (compaction, retention, repair): a cut lands on the old manifest or the
//! new one, never on a mixture.

use seqdet_core::{audit_store, IndexConfig, Indexer, Policy};
use seqdet_log::{EventLog, EventLogBuilder};
use seqdet_storage::{
    DiskOptions, DiskStore, FaultFs, KvStore, RealFs, RowZones, TableId, ZoneExtractor,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seqdet-crash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic three-batch workload. Single-threaded indexing keeps
/// the record stream byte-identical across runs, which is what lets a byte
/// budget from the reference run be replayed as a crash point.
fn config() -> IndexConfig {
    IndexConfig::new(Policy::SkipTillNextMatch).with_threads(1)
}

fn batches() -> Vec<EventLog> {
    let mut b1 = EventLogBuilder::new();
    b1.add("t1", "A", 1).add("t1", "B", 2);
    b1.add("t2", "A", 1);
    let mut b2 = EventLogBuilder::new();
    b2.add("t1", "A", 3).add("t2", "B", 4);
    let mut b3 = EventLogBuilder::new();
    b3.add("t1", "C", 5).add("t3", "A", 6).add("t3", "C", 7);
    vec![b1.build(), b2.build(), b3.build()]
}

/// Full five-table (plus Meta) state of a store, sorted for comparison.
type Snapshot = Vec<(u8, Vec<(Vec<u8>, Vec<u8>)>)>;

fn snapshot<S: KvStore>(store: &S) -> Snapshot {
    (0u8..=5)
        .map(|t| {
            let mut rows: Vec<(Vec<u8>, Vec<u8>)> =
                store.scan(TableId(t)).into_iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
            rows.sort();
            (t, rows)
        })
        .collect()
}

fn log_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let entry = entry.expect("entry");
        if entry.file_name().to_string_lossy().ends_with(".log") {
            total += entry.metadata().expect("metadata").len();
        }
    }
    total
}

#[test]
fn recovery_from_a_crash_at_every_offset_lands_on_a_committed_boundary() {
    // ------------------------------------------------------------------
    // Reference run: record the store state and log size at every durable
    // boundary — after the config preamble, then after each batch commit.
    // ------------------------------------------------------------------
    let ref_dir = tmp_dir("reference");
    let mut boundaries: Vec<(u64, Snapshot)> = Vec::new();
    {
        let store = Arc::new(DiskStore::open(&ref_dir).expect("open reference"));
        let mut ix = Indexer::with_store(Arc::clone(&store), config()).expect("indexer");
        // Flush before measuring: sizes must reflect every written byte,
        // not just what escaped the real filesystem's write buffer.
        store.flush().expect("flush");
        boundaries.push((log_bytes(&ref_dir), snapshot(store.as_ref())));
        for log in batches() {
            ix.index_log(&log).expect("reference indexing");
            store.flush().expect("flush");
            boundaries.push((log_bytes(&ref_dir), snapshot(store.as_ref())));
        }
    }
    let preamble = boundaries[0].0;
    let total = boundaries.last().expect("boundaries").0;
    assert!(boundaries.windows(2).all(|w| w[0].0 < w[1].0), "boundaries must advance");

    // ------------------------------------------------------------------
    // Crash runs: replay the identical workload with a hard crash armed
    // after every byte offset, then recover with a healthy filesystem.
    // ------------------------------------------------------------------
    let crash_dir = tmp_dir("cut");
    for cut in 0..=total {
        let _ = std::fs::remove_dir_all(&crash_dir);
        let fs = FaultFs::new();
        fs.arm_crash_after_bytes(cut);
        let run = (|| -> Result<(), Box<dyn std::error::Error>> {
            let store = Arc::new(DiskStore::open_with(
                &crash_dir,
                DiskOptions { vfs: Arc::new(fs.clone()), ..DiskOptions::default() },
            )?);
            let mut ix = Indexer::with_store(Arc::clone(&store), config())?;
            for log in batches() {
                ix.index_log(&log)?;
            }
            Ok(())
        })();
        if cut < total {
            assert!(run.is_err(), "cut at {cut}/{total} must interrupt the workload");
        }

        let recovered = DiskStore::open(&crash_dir)
            .unwrap_or_else(|e| panic!("reopen after cut at {cut} failed: {e}"));
        assert!(recovered.degraded().is_none());

        // The recovered state is exactly the newest boundary under the cut.
        if cut >= preamble {
            let (size, expected) = boundaries
                .iter()
                .rev()
                .find(|(size, _)| *size <= cut)
                .expect("preamble boundary exists");
            let got = snapshot(&recovered);
            assert_eq!(
                &got, expected,
                "cut at byte {cut} must recover the boundary at {size} bytes"
            );
        }
        // And it is always audit-clean: no cut exposes a torn cross-table
        // state.
        let report = audit_store(&recovered)
            .unwrap_or_else(|e| panic!("audit after cut at {cut} failed: {e}"));
        assert!(report.ok(), "cut at {cut} failed audit: {report:?}");
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// The same crash-at-every-byte sweep, with compactions interleaved into
/// the workload so the cut can land inside a run file, the manifest
/// temporary, or the post-compaction segment swap. Boundaries are recorded
/// in cumulative write-byte space ([`FaultFs::bytes_written`]) instead of
/// on-disk sizes — compaction rewrites and removes files, so directory
/// sizes no longer measure the write stream. Compaction never changes
/// logical contents, so every cut must still recover exactly the last
/// committed batch, audit clean, *and* leave an untorn run tier (orphan
/// run files are fine; a referenced-but-damaged run never is).
#[test]
fn recovery_from_a_crash_at_every_offset_during_compaction() {
    let ref_dir = tmp_dir("compact-reference");
    let mut boundaries: Vec<(u64, Snapshot)> = Vec::new();
    {
        let fs = FaultFs::new();
        let store = Arc::new(
            DiskStore::open_with(
                &ref_dir,
                DiskOptions { vfs: Arc::new(fs.clone()), ..DiskOptions::default() },
            )
            .expect("open reference"),
        );
        let mut ix = Indexer::with_store(Arc::clone(&store), config()).expect("indexer");
        seqdet_core::install_zone_extractor(&store);
        store.flush().expect("flush");
        boundaries.push((fs.bytes_written(), snapshot(store.as_ref())));
        for (i, log) in batches().into_iter().enumerate() {
            ix.index_log(&log).expect("reference indexing");
            store.flush().expect("flush");
            boundaries.push((fs.bytes_written(), snapshot(store.as_ref())));
            if i < 2 {
                store.compact().expect("reference compaction");
                boundaries.push((fs.bytes_written(), snapshot(store.as_ref())));
            }
        }
        assert!(store.num_runs() > 0, "workload must exercise the run tier");
    }
    let preamble = boundaries[0].0;
    let total = boundaries.last().expect("boundaries").0;
    assert!(boundaries.windows(2).all(|w| w[0].0 < w[1].0), "boundaries must advance");

    let crash_dir = tmp_dir("compact-cut");
    for cut in 0..=total {
        let _ = std::fs::remove_dir_all(&crash_dir);
        let fs = FaultFs::new();
        fs.arm_crash_after_bytes(cut);
        let run = (|| -> Result<(), Box<dyn std::error::Error>> {
            let store = Arc::new(DiskStore::open_with(
                &crash_dir,
                DiskOptions { vfs: Arc::new(fs.clone()), ..DiskOptions::default() },
            )?);
            let mut ix = Indexer::with_store(Arc::clone(&store), config())?;
            seqdet_core::install_zone_extractor(&store);
            for (i, log) in batches().into_iter().enumerate() {
                ix.index_log(&log)?;
                if i < 2 {
                    store.compact()?;
                }
            }
            Ok(())
        })();
        if cut < total {
            assert!(run.is_err(), "cut at {cut}/{total} must interrupt the workload");
        }

        let recovered = DiskStore::open(&crash_dir)
            .unwrap_or_else(|e| panic!("reopen after cut at {cut} failed: {e}"));
        assert!(recovered.degraded().is_none());
        if cut >= preamble {
            let (size, expected) = boundaries
                .iter()
                .rev()
                .find(|(size, _)| *size <= cut)
                .expect("preamble boundary exists");
            let got = snapshot(&recovered);
            assert_eq!(
                &got, expected,
                "cut at byte {cut} must recover the boundary at {size} bytes"
            );
        }
        let report = audit_store(&recovered)
            .unwrap_or_else(|e| panic!("audit after cut at {cut} failed: {e}"));
        assert!(report.ok(), "cut at {cut} failed audit: {report:?}");
        let runs = seqdet_storage::verify_runs(&seqdet_storage::RealFs, &crash_dir)
            .unwrap_or_else(|e| panic!("verify_runs after cut at {cut} failed: {e}"));
        assert!(runs.ok(), "cut at {cut} left a damaged run tier: {runs:?}");
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// Zone extractor for the publish sweeps: every row of table `t` spans the
/// timestamps `[100 t, 100 t + 50]`, so retention can tell tables apart.
struct TsByTable;

impl ZoneExtractor for TsByTable {
    fn zones(&self, table: TableId, _: &[u8], _: &[u8]) -> Option<RowZones> {
        let ts = u64::from(table.0) * 100;
        Some(RowZones { trace_min: 1, trace_max: 9, ts_min: ts, ts_max: ts + 50 })
    }
}

const OLD: TableId = TableId(1); // ts range [100, 150]
const NEW: TableId = TableId(4); // ts range [400, 450]

/// A store with one run per table and a delta on top — the state both
/// sweeps below start from. With `damage`, the run of table `OLD` is then
/// bit-rotted at rest and the store reopened, which quarantines it.
fn tiered_store(dir: &Path, fs: &FaultFs, retain_segments: bool, damage: bool) -> DiskStore {
    let open = || {
        let options =
            DiskOptions { vfs: Arc::new(fs.clone()), retain_segments, ..DiskOptions::default() };
        let store = DiskStore::open_with(dir, options).expect("open");
        store.set_zone_extractor(Arc::new(TsByTable));
        store
    };
    let store = open();
    store.put(OLD, b"old-a", b"1").expect("put");
    store.append(OLD, b"old-b", b"xy").expect("append");
    store.put(NEW, b"new-a", b"2").expect("put");
    store.compact().expect("compact");
    store.append(NEW, b"new-a", b"+delta").expect("append");
    store.put(NEW, b"fresh", b"3").expect("put");
    store.flush().expect("flush");
    if !damage {
        return store;
    }
    drop(store);
    let run = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .find(|p| p.to_string_lossy().ends_with("-t001.run"))
        .expect("run file of table OLD");
    let mut bytes = std::fs::read(&run).expect("read run");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&run, bytes).expect("write run");
    let store = open();
    assert!(!store.coverage().is_full(), "damaged run must be quarantined");
    store
}

/// Crash `op` — one operation that publishes a new manifest — after every
/// byte it writes. Whatever the cut, the store must reopen on either the
/// old manifest or the new one (`on_new` tells which from the reopened
/// store), read exactly that manifest's model, and show no damage the
/// workload did not start with.
fn sweep_publish(
    name: &str,
    retain_segments: bool,
    damage: bool,
    op: impl Fn(&DiskStore) -> std::io::Result<()>,
    on_new: impl Fn(&DiskStore) -> bool,
) {
    let ref_dir = tmp_dir(&format!("{name}-reference"));
    let fs = FaultFs::new();
    let store = tiered_store(&ref_dir, &fs, retain_segments, damage);
    let old_model = snapshot(&store);
    let start = fs.bytes_written();
    op(&store).expect("reference operation");
    let total = fs.bytes_written() - start;
    let new_model = snapshot(&store);
    assert!(total > 0, "the operation must write a manifest");
    assert!(on_new(&store));
    drop(store);

    let crash_dir = tmp_dir(&format!("{name}-cut"));
    let (mut landed_old, mut landed_new) = (0, 0);
    for cut in 0..=total {
        let _ = std::fs::remove_dir_all(&crash_dir);
        let fs = FaultFs::new();
        let store = tiered_store(&crash_dir, &fs, retain_segments, damage);
        fs.arm_crash_after_bytes(cut);
        let outcome = op(&store);
        assert_eq!(outcome.is_ok(), cut == total, "cut at {cut}/{total}: {outcome:?}");
        drop(store);

        let options = DiskOptions { retain_segments, ..DiskOptions::default() };
        let recovered = DiskStore::open_with(&crash_dir, options)
            .unwrap_or_else(|e| panic!("reopen after cut at {cut} failed: {e}"));
        assert!(recovered.degraded().is_none());
        let published = on_new(&recovered);
        let expected = if published { &new_model } else { &old_model };
        assert_eq!(&snapshot(&recovered), expected, "cut at {cut}: published={published}");
        let runs = seqdet_storage::verify_runs(&RealFs, &crash_dir)
            .unwrap_or_else(|e| panic!("verify_runs after cut at {cut} failed: {e}"));
        if damage && !published {
            // Still on the old manifest: its one damaged run, nothing else.
            assert_eq!(runs.violations.len(), 1, "cut at {cut}: {runs:?}");
            assert_eq!(recovered.quarantine().len(), 1);
        } else {
            assert!(runs.ok(), "cut at {cut} left a damaged run tier: {runs:?}");
            assert!(recovered.coverage().is_full());
        }
        *(if published { &mut landed_new } else { &mut landed_old }) += 1;
    }
    assert!(landed_old > 0 && landed_new > 0, "the sweep must see both manifests");
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// Retention publishes a manifest without the expired run: a cut lands on
/// two runs and every row, or on one run and no row of the expired table.
#[test]
fn recovery_from_a_crash_at_every_offset_during_retention() {
    sweep_publish(
        "retention",
        false,
        false,
        |store| store.drop_expired_runs(200).map(|dropped| assert_eq!(dropped, 1)),
        |store| store.num_runs() == 1,
    );
}

/// Repair rebuilds the tier and publishes it: a cut lands on the narrowed
/// store (damaged run still quarantined) or on the repaired one — with the
/// full segment history every row is back, without it the survivors are.
#[test]
fn recovery_from_a_crash_at_every_offset_during_repair() {
    for (name, retain_segments) in [("repair-lossless", true), ("repair-lossy", false)] {
        sweep_publish(
            name,
            retain_segments,
            true,
            |store| {
                let outcome = store.repair()?;
                assert_eq!((outcome.repaired, outcome.full_history), (1, retain_segments));
                Ok(())
            },
            |store| store.coverage().is_full(),
        );
    }
}

#[test]
fn degraded_store_still_answers_reads_and_returns_typed_indexing_errors() {
    let dir = tmp_dir("degraded-reads");
    let fs = FaultFs::new();
    let store = Arc::new(
        DiskStore::open_with(
            &dir,
            DiskOptions { vfs: Arc::new(fs.clone()), ..DiskOptions::default() },
        )
        .expect("open"),
    );
    let mut ix = Indexer::with_store(Arc::clone(&store), config()).expect("indexer");
    let logs = batches();
    ix.index_log(&logs[0]).expect("first batch");

    fs.arm_fail_after_writes(0);
    let err = ix.index_log(&logs[1]).expect_err("injected failure");
    assert!(matches!(err, seqdet_core::CoreError::Storage(_)), "typed storage error: {err}");
    assert!(store.degraded().is_some());

    // Reads keep working against the committed state…
    let t1 = ix.catalog().trace("t1").expect("t1 known");
    let seq = seqdet_core::tables::read_seq(store.as_ref(), t1).expect("read_seq");
    assert_eq!(seq.len(), 2);
    // …and further indexing attempts surface the degraded state, typed.
    let err = ix.index_log(&logs[2]).expect_err("degraded");
    assert!(err.is_degraded(), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
