//! # seqdet — Sequence detection in event log files
//!
//! Facade crate re-exporting the whole workspace: a from-scratch Rust
//! reproduction of *"Sequence detection in event log files"* (EDBT 2021).
//!
//! The system indexes all event *pairs* of every trace of an event log into
//! an inverted index (plus statistics side-tables) and answers three query
//! families over arbitrary sequential patterns:
//!
//! * **Statistics** — pairwise completion counts / durations with
//!   whole-pattern bounds,
//! * **Pattern detection** — all traces containing the pattern under the
//!   Strict-Contiguity (SC) or Skip-Till-Next-Match (STNM) policy,
//! * **Pattern continuation** — ranked next-event suggestions
//!   (Accurate / Fast / Hybrid).
//!
//! ```
//! use seqdet::prelude::*;
//!
//! // Build a small log: one trace <A B A B>.
//! let mut b = EventLogBuilder::new();
//! b.add("t1", "A", 1).add("t1", "B", 2).add("t1", "A", 3).add("t1", "B", 4);
//! let log = b.build();
//!
//! // Index it under the STNM policy and detect <A, B>.
//! let mut indexer = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
//! indexer.index_log(&log).unwrap();
//! let engine = QueryEngine::new(indexer.store()).unwrap();
//! let pattern = Pattern::from_log(&log, &["A", "B"]).unwrap();
//! let matches = engine.detect(&pattern).unwrap();
//! assert_eq!(matches.total_completions(), 2);
//! ```

#![forbid(unsafe_code)]

pub use seqdet_baselines as baselines;
pub use seqdet_core as core;
pub use seqdet_datagen as datagen;
pub use seqdet_exec as exec;
pub use seqdet_log as log;
pub use seqdet_query as query;
pub use seqdet_server as server;
pub use seqdet_storage as storage;

/// One-stop imports for typical use.
pub mod prelude {
    pub use seqdet_core::{IndexConfig, Indexer, Policy};
    pub use seqdet_log::{
        Activity, ActivityInterner, Event, EventLog, EventLogBuilder, Pattern, Trace, TraceBuilder,
        TraceId, Ts,
    };
    pub use seqdet_query::{ContinuationMethod, QueryEngine};
}
