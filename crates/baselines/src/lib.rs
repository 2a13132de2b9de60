//! # seqdet-baselines — the competitors of the paper's evaluation
//!
//! Self-contained implementations of the three systems the paper compares
//! against (§5), built from scratch so that every Table-6/7/8 experiment can
//! run on one machine:
//!
//! * [`subtree`] — the suffix-array–based *exact rooted subtree matching*
//!   technique of Luccio et al. (reference \[19\]), as used for business
//!   process continuation in \[27\]. Supports Strict Contiguity only;
//!   preprocessing *indexes all the subtrees* (all suffixes of all distinct
//!   trace variants) and queries binary-search that space (Table 1).
//! * [`textsearch`] — an Elasticsearch-style engine: per-activity document
//!   postings with in-document positions, conjunctive candidate retrieval,
//!   and per-document in-order span verification (the plan ES executes for
//!   `span_near`/in-order queries). STNM is native; SC requires full
//!   document post-verification, mirroring the paper's remark that ES
//!   supports SC only "with additional expensive post-processing".
//! * [`sase`] — a SASE-style NFA engine with **no preprocessing**: each
//!   query scans the full log, advancing an automaton per trace. This is the
//!   on-the-fly CEP evaluation whose degradation on large logs Table 8
//!   demonstrates.

#![forbid(unsafe_code)]

pub mod sase;
pub mod subtree;
pub mod suffix;
pub mod textsearch;

pub use sase::{NfaMatch, RichTraceMatches, SaseEngine};
pub use subtree::SubtreeIndex;
pub use textsearch::TextSearchIndex;
