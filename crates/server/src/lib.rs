//! # seqdet-server — the query-processor service
//!
//! The paper's architecture (Figure 1) runs the query processor as a
//! standalone service (Java Spring in the original) that "receiv\[es\] user
//! queries, retriev\[es\] the relevant index entries and construct\[s\] the
//! response". This crate is that service for the Rust reproduction: a
//! small, dependency-free HTTP/1.1 server exposing the query language of
//! [`seqdet_query::lang`] over an indexed store.
//!
//! ## Endpoints
//!
//! | Method & path | Body / params | Response |
//! |---|---|---|
//! | `GET /health` | — | `200 ok` |
//! | `GET /info` | — | catalog summary (traces, activities) |
//! | `GET /stats/cache` | — | posting-cache counters (hits, misses, hit rate, evictions, invalidations, residency, per-format hit/miss split, decoded row bytes) |
//! | `GET /stats/server` | — | serving-layer counters (requests, status classes, latency percentiles, in-flight, shed) |
//! | `GET /stats/audit` | — | five-table invariant audit report |
//! | `POST /query` | a query statement (`DETECT a -> b WITHIN 10` …) | rendered result |
//! | `GET /query?q=…` | percent-encoded statement | rendered result |
//!
//! Errors map to `400` (bad query / unknown activity / hostile request),
//! `404` (unknown path), `408` (deadline expired), or `503` (load shed);
//! the body carries the human-readable message.
//!
//! ## Serving model
//!
//! Connections are accepted by one loop and fed through a *bounded* queue
//! to a fixed-size worker pool ([`ServeConfig::workers`] /
//! [`ServeConfig::queue_depth`]): overload sheds with an immediate 503
//! rather than an unbounded thread-per-connection spawn. Each connection is
//! served HTTP/1.1 keep-alive with read/write deadlines, so slow or silent
//! clients cannot pin a worker. The engine re-checks the store's index
//! generation on every query, so a concurrently running indexer's updates —
//! including brand-new activity names — are served without a restart.
//! Shutdown ([`ShutdownHandle::shutdown`]) stops accepting, finishes
//! in-flight requests, and returns within a bounded drain deadline.
//!
//! ```no_run
//! use seqdet_server::{QueryServer, ServeConfig};
//! use seqdet_storage::DiskStore;
//! use std::sync::Arc;
//!
//! let store = Arc::new(DiskStore::open("./ixdir")?);
//! let config = ServeConfig { workers: 8, ..ServeConfig::default() };
//! let server = QueryServer::bind_with("127.0.0.1:7878", store, config)?;
//! server.serve_forever()?; // bounded worker pool + keep-alive
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod conn;
pub mod http;
pub mod pool;
pub mod render;
pub mod server;

pub use pool::is_transient_accept_error;
pub use server::{QueryServer, ServeConfig, ShutdownHandle};
