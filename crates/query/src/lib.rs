//! # seqdet-query — the query processor component
//!
//! The second component of the paper's architecture (§3.2): receives pattern
//! queries, retrieves the relevant index rows, and constructs responses.
//! Three query families are supported, in ascending complexity:
//!
//! * **Statistics** ([`QueryEngine::stats`]) — per-consecutive-pair
//!   completion counts, average durations and last completions, plus
//!   whole-pattern bounds derived from them (and a tighter all-pairs
//!   variant, [`QueryEngine::stats_all_pairs`]).
//! * **Pattern detection** ([`QueryEngine::detect`]) — Algorithm 2: the
//!   posting lists of consecutive pattern pairs are joined on matching
//!   timestamps per trace; every completion of the full pattern (and, as a
//!   by-product, of each prefix — [`QueryEngine::detect_prefixes`]) is
//!   returned.
//! * **Pattern continuation** ([`QueryEngine::continuations`]) — ranked
//!   next-event propositions using Equation 1
//!   (`score = total_completions / average_duration`), in the three flavors
//!   of §3.2.2: *Accurate* (Algorithm 3), *Fast* (Algorithm 4) and *Hybrid*
//!   (Algorithm 5).
//!
//! Two extensions from the paper's discussion section (§7) are implemented
//! as well: **skip-till-any-match** detection
//! ([`QueryEngine::detect_any_match`]) and continuation with the candidate
//! event inserted at an arbitrary pattern position
//! ([`QueryEngine::continuations_at`]).
//!
//! All index-reading queries share one read path: block-compressed posting
//! rows are decoded by the core kernel into columnar, `(trace, ts_a)`-sorted
//! [`cache::PostingList`]s and cached in a sharded generation-stamped LRU
//! ([`PostingCache`]); the pairwise merge join (continuation joins the
//! pattern once for all candidates) and the per-trace evaluator of rich
//! patterns and any-match run on the calling thread. See [`cache`] and the
//! "Query read path" section of `DESIGN.md` for the consistency model, and
//! [`QueryEngine::with_metrics`] for the read-path counters.

#![forbid(unsafe_code)]

pub mod anymatch;
mod arena;
pub mod cache;
pub mod continuation;
pub mod detect;
pub mod engine;
pub mod error;
pub mod lang;
pub mod richpat;
pub mod stats;

pub use anymatch::AnyMatchResult;
pub use cache::{CacheStats, PostingCache, PostingList};
pub use continuation::{ContinuationMethod, Proposition};
pub use detect::{DetectResult, PatternMatch};
pub use engine::{QueryEngine, DEFAULT_CACHE_CAPACITY};
pub use error::QueryError;
pub use lang::{parse_query, Query, QueryOutput};
pub use stats::{PairStats, PatternStats};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, QueryError>;
