//! # seqdet-storage — embedded key-value table store
//!
//! The paper stores its inverted index and auxiliary tables in Cassandra,
//! "because of its proven capability to deal with big data … However, any
//! key-value store can be used in replacement" (§3). This crate is that
//! replacement: an embedded store exposing exactly the access pattern the
//! indexing and query layers need —
//!
//! * point `get` by key,
//! * whole-value `put`,
//! * **cheap record `append`** to a value (Cassandra-style wide-row growth:
//!   posting lists grow by appending, never by rewriting),
//! * table `scan` snapshots.
//!
//! Two backends implement the [`KvStore`] trait:
//!
//! * [`MemStore`] — sharded, lock-striped in-memory store (the default used
//!   by benchmarks; shards bound contention during parallel indexing),
//! * [`DiskStore`] — a log-structured persistent store: every mutation is
//!   appended to a segment file, the full state is replayed on open, and
//!   [`DiskStore::compact`] rewrites live data into a single snapshot
//!   segment.
//!
//! [`codec`] provides the fixed-width binary record encodings shared by the
//! index tables, and [`fxhash`] a fast non-cryptographic hasher (we cannot
//! depend on `rustc-hash`, so we carry the ~20-line algorithm ourselves).

#![forbid(unsafe_code)]

pub mod codec;
pub mod crc;
pub mod disk;
pub mod error;
pub mod fxhash;
pub mod kv;
pub mod mem;
pub mod metrics;
pub mod run;
pub mod vfs;

pub use disk::{
    parse_segment_bytes, replay_segment_bytes, verify_segments, DiskOptions, DiskStore,
    DurabilityPolicy, RepairOutcome, ScrubOutcome, ScrubberHandle, SegmentEnd, SegmentReport,
    SegmentScan, SegmentViolation,
};
pub use error::{io_kind_is_transient, ErrorClass, StorageError};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use kv::{Coverage, KvStore, TableId};
pub use mem::MemStore;
pub use metrics::{LatencyHistogram, ServerMetrics, StoreMetrics};
pub use run::{
    verify_runs, DeltaOp, DeltaState, Manifest, ManifestRun, QuarantineSet, QuarantinedRun,
    RowZones, RunReader, RunReport, RunSet, RunViolation, ZoneExtractor, ZoneMap,
};
pub use vfs::{FaultFs, RealFs, RetryPolicy, RetryVfs, Vfs, VfsFile};
