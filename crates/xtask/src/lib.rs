//! Workspace correctness tooling, as a library so the integration tests
//! (fixture self-tests, mask/lexer property suites) can drive the same
//! code paths the `cargo xtask` binary does.
//!
//! Layers, bottom to top:
//!
//! * [`mask`] — byte-level masking of comments and literals (the fast path
//!   the token lints run on).
//! * [`lexer`] — a proper token stream over Rust source; the model
//!   implementation the mask is property-tested against, and the substrate
//!   the extractor reads.
//! * [`graph`] — item/function extraction and the workspace call graph.
//! * [`lint`] — file-scoped token lints (no-panic, decoder-boundary, …).
//! * [`analyze`] — whole-program analyses over the call graph:
//!   panic-reachability, lock-order, error-taint.
//! * [`baseline`] — the ratchet file (`analysis_baseline.json`) that pins
//!   the accepted finding set, each entry with a written justification.
//! * [`regressions`] — enforcement that every committed
//!   `*.proptest-regressions` case is pinned as a deterministic replay
//!   test (the vendored proptest cannot replay seed hashes).

#![forbid(unsafe_code)]

pub mod analyze;
pub mod baseline;
pub mod graph;
pub mod lexer;
pub mod lint;
pub mod mask;
pub mod regressions;
