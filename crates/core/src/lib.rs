//! # seqdet-core — pair-based inverted indexing of event logs
//!
//! The primary contribution of *"Sequence detection in event log files"*
//! (EDBT 2021): an inverted index over **all event pairs** of every trace,
//! maintained incrementally as new log batches arrive, that downstream query
//! processing (see `seqdet-query`) turns into pattern detection, statistics
//! and pattern-continuation answers.
//!
//! ## Structure
//!
//! * [`policy`] — the two pattern-matching policies (Strict Contiguity and
//!   Skip-Till-Next-Match).
//! * [`pairs`] — the pair-creation algorithms, including the three STNM
//!   flavors (*Parsing*, *Indexing*, *State*; paper §4). All STNM flavors
//!   produce identical pair sets (property-tested); they differ only in cost
//!   profile, which is precisely what Table 5 / Figure 3 measure. The
//!   indexer builds with *Indexing*.
//! * [`tables`] — the five tables of §3.1.2 (`Seq`, `Index`, `Count`,
//!   `ReverseCount`, `LastChecked`) with their binary row codecs over any
//!   [`seqdet_storage::KvStore`].
//! * [`catalog`] — activity/trace name catalogs, persisted alongside the
//!   tables so an index can be reopened from disk.
//! * [`indexer`] — Algorithm 1: batched, duplicate-free index maintenance,
//!   parallelized per trace; plus the §3.1.3 extensions (period partitioning
//!   of the `Index` table, pruning of completed traces).
//! * [`postings`] — the block-compressed `Index` row format (delta +
//!   varint packing in blocks, with a per-chunk directory), and [`decode`],
//!   the single-pass kernel every reader decodes it with. The fixed-width
//!   codec in [`tables`] stays as the differential-testing oracle.

#![forbid(unsafe_code)]

pub mod audit;
pub mod catalog;
pub mod decode;
pub mod error;
pub mod indexer;
pub mod pairs;
pub mod policy;
pub mod postings;
pub mod stats;
pub mod tables;
pub mod zones;

pub use audit::{audit_disk, audit_store, AuditReport, AuditSummary, DiskAuditOutcome, Violation};
pub use catalog::Catalog;
pub use decode::decode_postings_v2_into;
pub use error::CoreError;
pub use indexer::{
    check_posting_format, index_generation, index_policy, posting_format, IndexConfig, Indexer,
    UpdateStats,
};
pub use pairs::{create_pairs, PairKey, TracePairs};
pub use policy::Policy;
pub use postings::PostingFormat;
pub use stats::IndexStats;
pub use zones::{expire_runs, install_zone_extractor, Expiry, TableZones};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
