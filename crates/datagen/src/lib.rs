//! # seqdet-datagen — workload generation
//!
//! The paper evaluates on (a) real BPI-challenge logs, (b) synthetic
//! process-like logs generated with the PLG2 tool, and (c) uncorrelated
//! "random" logs (§5.1). None of the real logs can be redistributed here,
//! so this crate generates substitutes that match the published
//! characteristics — the quantities the algorithms are actually sensitive
//! to (trace count `m`, alphabet size `l`, events-per-trace distribution
//! and activity co-occurrence structure):
//!
//! * [`process`] — a PLG2-style random *process tree* (SEQ / XOR / AND /
//!   LOOP operators over activity leaves) simulated into traces, plus a
//!   calibrated Markov-chain process used to hit published length
//!   distributions exactly.
//! * [`random`] — the uncorrelated random logs of Figure 3 (fixed trace
//!   length, uniform activities).
//! * [`profiles`] — one [`profiles::DatasetProfile`] per Table-4 row
//!   (`max_100` … `bpi_2017`), replicating trace counts, alphabet sizes and
//!   the reported mean/min/max events per trace.
//! * [`patterns`] — the query-pattern samplers used by the evaluation
//!   ("100 random patterns", patterns guaranteed to occur, …).
//!
//! All generators are deterministic given a seed.

#![forbid(unsafe_code)]

pub mod noise;
pub mod patterns;
pub mod process;
pub mod profiles;
pub mod random;

pub use process::{MarkovProcess, ProcessTree};
pub use profiles::DatasetProfile;
pub use random::RandomLogSpec;
