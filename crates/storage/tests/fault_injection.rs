//! Fault-injection suite: every way the filesystem can betray the store —
//! write errors, short writes, hard crashes, failing unlinks — must leave a
//! reopenable directory whose replayed state is a committed-batch prefix,
//! and must flip the live store into its sticky read-only degraded state
//! rather than risk appending after torn bytes.

use seqdet_storage::{
    DiskOptions, DiskStore, FaultFs, KvStore, StorageError, StoreMetrics, TableId,
};
use std::path::PathBuf;
use std::sync::Arc;

const T0: TableId = TableId(0);

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seqdet-fault-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_faulty(dir: &PathBuf, fs: &FaultFs) -> DiskStore {
    DiskStore::open_with(dir, DiskOptions { vfs: Arc::new(fs.clone()), ..DiskOptions::default() })
        .expect("open with healthy FaultFs")
}

/// One committed batch writing `k -> v`.
fn commit_one(store: &DiskStore, key: &[u8], value: &[u8]) {
    store.begin_batch().expect("begin");
    store.put(T0, key, value).expect("put");
    store.commit_batch().expect("commit");
}

#[test]
fn write_error_mid_batch_degrades_and_reopen_drops_the_open_batch() {
    let dir = tmp_dir("mid-batch");
    let fs = FaultFs::new();
    let store = open_faulty(&dir, &fs);
    commit_one(&store, b"committed", b"v1");

    // Batch 2: the BEGIN record goes through, the payload write fails.
    fs.arm_fail_after_writes(1);
    store.begin_batch().expect("begin survives");
    let err = store.put(T0, b"doomed", b"v2").expect_err("injected write error");
    assert!(matches!(err, StorageError::Io(_)), "first failure is the I/O error: {err}");

    // Sticky degraded: every further write path call refuses, reads serve.
    assert!(store.degraded().is_some());
    assert!(store.put(T0, b"x", b"y").expect_err("degraded").is_degraded());
    assert!(store.append(T0, b"x", b"y").expect_err("degraded").is_degraded());
    assert!(store.delete(T0, b"x").expect_err("degraded").is_degraded());
    assert!(store.begin_batch().expect_err("degraded").is_degraded());
    assert_eq!(store.get(T0, b"committed").as_deref(), Some(&b"v1"[..]));
    // Healing the filesystem does not un-degrade the store: the segment
    // tail is still in an unknown state.
    fs.heal();
    assert!(store.put(T0, b"x", b"y").expect_err("still degraded").is_degraded());
    drop(store);

    // Reopen with a healthy filesystem: the committed batch survives, the
    // open batch (its lone BEGIN record) is discarded.
    let reopened = DiskStore::open(&dir).expect("reopen");
    assert_eq!(reopened.get(T0, b"committed").as_deref(), Some(&b"v1"[..]));
    assert!(reopened.get(T0, b"doomed").is_none());
    assert!(reopened.degraded().is_none(), "degradation does not persist across restarts");
    let report = seqdet_storage::verify_segments(&dir).expect("verify");
    assert!(report.ok(), "{report:?}");
    assert_eq!(report.batches_committed, 1);
    assert_eq!(report.batches_discarded, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_write_leaves_a_torn_tail_that_reopen_discards() {
    let dir = tmp_dir("short-write");
    let fs = FaultFs::new();
    let store = open_faulty(&dir, &fs);
    commit_one(&store, b"keep", b"v");

    // The next record reaches the file 7 bytes short of nothing — a torn
    // prefix, exactly what a power cut mid-write leaves.
    fs.arm_fail_after_writes(0);
    fs.set_short_write(7);
    store.put(T0, b"torn", b"payload").expect_err("short write fails");
    assert!(store.degraded().is_some());
    drop(store);

    let report = seqdet_storage::verify_segments(&dir).expect("verify");
    assert!(report.ok(), "a torn tail is not corruption: {report:?}");
    assert_eq!(report.torn_tails, 1);
    let reopened = DiskStore::open(&dir).expect("reopen");
    assert_eq!(reopened.get(T0, b"keep").as_deref(), Some(&b"v"[..]));
    assert!(reopened.get(T0, b"torn").is_none());
    // The reopened store appends past the discarded tail without issue.
    commit_one(&reopened, b"after", b"w");
    drop(reopened);
    let again = DiskStore::open(&dir).expect("reopen again");
    assert_eq!(again.get(T0, b"after").as_deref(), Some(&b"w"[..]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_batch_recovers_to_the_committed_boundary() {
    let dir = tmp_dir("crash");
    let fs = FaultFs::new();
    let store = open_faulty(&dir, &fs);
    commit_one(&store, b"alpha", b"1");
    commit_one(&store, b"beta", b"2");

    // Crash 5 bytes into whatever the next write is.
    fs.arm_crash_after_bytes(5);
    store.begin_batch().expect_err("crash fires on the BEGIN record");
    assert!(fs.crashed());
    assert!(store.degraded().is_some());
    drop(store);

    let reopened = DiskStore::open(&dir).expect("reopen");
    assert_eq!(reopened.get(T0, b"alpha").as_deref(), Some(&b"1"[..]));
    assert_eq!(reopened.get(T0, b"beta").as_deref(), Some(&b"2"[..]));
    assert_eq!(reopened.scan(T0).len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aborting_a_batch_degrades_because_memory_is_ahead_of_disk() {
    let dir = tmp_dir("abort");
    let fs = FaultFs::new();
    let metrics = Arc::new(StoreMetrics::new());
    let store = DiskStore::open_with(
        &dir,
        DiskOptions {
            vfs: Arc::new(fs.clone()),
            metrics: Some(Arc::clone(&metrics)),
            ..DiskOptions::default()
        },
    )
    .expect("open");
    store.begin_batch().expect("begin");
    store.put(T0, b"half", b"applied").expect("put");
    store.abort_batch();
    assert!(store.degraded().is_some(), "an aborted batch cannot be un-applied in memory");
    assert!(metrics.degraded());
    assert_eq!(metrics.batch_aborts(), 1);
    drop(store);
    // Replay never sees a COMMIT for the aborted batch.
    let reopened = DiskStore::open(&dir).expect("reopen");
    assert!(reopened.get(T0, b"half").is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_sweep_during_compaction_is_reported_but_harmless() {
    let dir = tmp_dir("sweep");
    let fs = FaultFs::new();
    let store = open_faulty(&dir, &fs);
    for i in 0..4u32 {
        commit_one(&store, &i.to_le_bytes(), &[i as u8; 8]);
    }

    // Every unlink fails: the manifest still publishes; the sweep reports.
    fs.arm_fail_after_removes(0);
    let err = store.compact().expect_err("sweep failures are surfaced");
    assert!(err.to_string().contains("could not be removed"), "{err}");
    assert!(store.degraded().is_none(), "leftover old segments are not a safety problem");
    // The store keeps working.
    commit_one(&store, b"post-compact", b"ok");
    drop(store);

    // Replay with the stale segments still present is correct: the
    // manifest's segment floor keeps them out of replay.
    let reopened = DiskStore::open(&dir).expect("reopen with leftovers");
    for i in 0..4u32 {
        assert_eq!(reopened.get(T0, &i.to_le_bytes()).as_deref(), Some(&[i as u8; 8][..]));
    }
    assert_eq!(reopened.get(T0, b"post-compact").as_deref(), Some(&b"ok"[..]));
    // A later compaction on a healthy filesystem clears the debris.
    reopened.compact().expect("healthy compact");
    assert!(reopened.num_segments().expect("count") <= 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn commit_failure_degrades_and_reopen_discards_the_batch() {
    let dir = tmp_dir("commit-fail");
    let fs = FaultFs::new();
    let store = open_faulty(&dir, &fs);
    commit_one(&store, b"durable", b"v");

    // BEGIN + payload succeed; the COMMIT record itself fails to write.
    fs.arm_fail_after_writes(2);
    store.begin_batch().expect("begin");
    store.put(T0, b"phantom", b"v").expect("payload");
    store.commit_batch().expect_err("commit write fails");
    assert!(store.degraded().is_some());
    drop(store);

    let reopened = DiskStore::open(&dir).expect("reopen");
    assert_eq!(reopened.get(T0, b"durable").as_deref(), Some(&b"v"[..]));
    assert!(reopened.get(T0, b"phantom").is_none(), "uncommitted batch must not replay");
    let _ = std::fs::remove_dir_all(&dir);
}
