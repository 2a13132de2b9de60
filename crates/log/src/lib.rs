//! # seqdet-log — event-log data model
//!
//! Foundational data model for the sequence-detection system of
//! *"Sequence detection in event log files"* (EDBT 2021).
//!
//! An event log `L = (E, C, γ, δ, ts, ≤)` (Definition 2.1 of the paper) is a
//! finite set of events, each assigned to a *case* (also called *trace* or
//! *session*) and to an *activity* (the event type), carrying a timestamp,
//! with a strict total order per case.
//!
//! This crate provides:
//!
//! * [`Activity`] interning ([`ActivityInterner`]): activity names are mapped
//!   to dense `u32` ids so that downstream indexing can use packed pair keys.
//! * [`Event`], [`Trace`] and [`EventLog`] containers with builders that
//!   enforce the per-case total order.
//! * Loaders/writers for CSV and (a pragmatic subset of) the XES XML format
//!   used by the paper's datasets ([`csv`] and [`xes`]).
//! * Descriptive statistics over logs ([`stats`]) used to regenerate Figure 2
//!   and Table 4 of the paper.
//!
//! The paper notes that its approach "can work even in the absence of
//! timestamps. In that case, the position of an event in the sequence can
//! play the role of the timestamp" — the builders implement exactly that
//! fallback via [`TraceBuilder::append_next`].

#![forbid(unsafe_code)]

pub mod csv;
pub mod error;
pub mod intern;
pub mod ops;
pub mod pattern;
pub mod richpat;
pub mod stats;
pub mod trace;
pub mod xes;

pub use error::LogError;
pub use intern::{Activity, ActivityInterner, Attr, AttrInterner};
pub use pattern::Pattern;
pub use richpat::{CmpOp, PatternElem, PredKey, Predicate, RichPattern};
pub use trace::{AttrEntry, Event, EventLog, EventLogBuilder, Trace, TraceBuilder, TraceId, Ts};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LogError>;
