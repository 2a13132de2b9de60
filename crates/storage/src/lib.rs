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
//!   appended to a segment file ([`segment`]) and overlaid in memory
//!   ([`delta`]); [`DiskStore::compact`] folds the overlay into immutable
//!   sorted runs ([`run`]) published through one manifest ([`maintain`]),
//!   and open replays only the segments above the manifest's floor.
//!
//! [`codec`] provides the fixed-width binary record encodings shared by the
//! index tables, and [`fxhash`] a fast non-cryptographic hasher (we cannot
//! depend on `rustc-hash`, so we carry the ~20-line algorithm ourselves).

#![forbid(unsafe_code)]

pub mod codec;
pub mod crc;
pub mod delta;
pub mod disk;
pub mod error;
pub mod fxhash;
pub mod health;
pub mod kv;
pub mod maintain;
pub mod mem;
pub mod metrics;
pub mod run;
pub mod segment;
pub mod vfs;

pub use delta::{DeltaOp, DeltaState};
pub use disk::{DiskOptions, DiskStore};
pub use error::{io_kind_is_transient, ErrorClass, StorageError};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use health::{QuarantineSet, QuarantinedRun};
pub use kv::{Coverage, KvStore, TableId};
pub use maintain::{RepairOutcome, ScrubOutcome, ScrubberHandle};
pub use mem::MemStore;
pub use metrics::{LatencyHistogram, ServerMetrics, StoreMetrics};
pub use run::{
    verify_runs, Manifest, ManifestRun, RowZones, RunReader, RunReport, RunSet, RunViolation,
    ZoneExtractor, ZoneMap,
};
pub use segment::{
    parse_segment_bytes, replay_segment_bytes, verify_segments, DurabilityPolicy, SegmentEnd,
    SegmentReport, SegmentScan, SegmentViolation,
};
pub use vfs::{FaultFs, RealFs, RetryPolicy, RetryVfs, Vfs, VfsFile};
