//! The seqdet benchmark harness: one pinned, pass-repeated run of
//! ingest → restart → query → HTTP per workload. See `README.md`.

pub mod check;
pub mod datagen;
pub mod heap;
pub mod http;
pub mod json;
pub mod noise;
pub mod pin;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
