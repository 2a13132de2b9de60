//! Cross-table invariant auditor for the five-table index of §3.1.2.
//!
//! The indexer maintains five tables whose contents are redundant by
//! design: `Count` and `ReverseCount` are aggregates *of* the `Index`
//! postings, `LastChecked` is the duplicate guard derived from them, and
//! every posting refers to events that must exist in `Seq`. Redundancy is
//! what makes queries fast — and what makes silent divergence dangerous: a
//! wrong `Count` row quietly breaks statistics and fast continuation while
//! detection still looks healthy. This module re-derives every invariant
//! from the raw rows and reports each disagreement as a structured
//! [`Violation`].
//!
//! ## Checked invariants
//!
//! 1. **count-index** — each `Count[a]` entry `(b, sum, total)` equals the
//!    posting list of pair `(a, b)` across all active `Index` partitions:
//!    `total` postings whose durations sum to `sum`.
//! 2. **reverse-transpose** — `ReverseCount` is the exact transpose of
//!    `Count` (entry-for-entry, both directions).
//! 3. **seq-bounds** — every posting `(trace, ts_a, ts_b)` of pair
//!    `(a, b)` has `ts_a < ts_b`, refers to a catalogued trace, and — when
//!    the trace still has a `Seq` row — matches events `(a, ts_a)` and
//!    `(b, ts_b)` stored in it. `Seq` rows themselves must be strictly
//!    increasing in time (the indexer's duplicate guard enforces this on
//!    every accepted batch).
//! 4. **last-checked** — each `LastChecked` row holds at most one entry per
//!    trace, every entry bounds the pair's posting completions for that
//!    trace from above, and (in strict mode) equals their maximum, with an
//!    entry present for every `(pair, trace)` that has postings and a live
//!    `Seq` row.
//! 5. **posting-blocks** — every `Index` row decodes, and its block
//!    directory is internally consistent (offsets strictly monotone from 0,
//!    first-keys sorted, counts non-zero and summing to the chunk header,
//!    first/max keys matching the decoded blocks) — a torn or inconsistent
//!    directory is reported distinctly from a block-body decode failure.
//! 6. **meta** — the index generation counter parses as an integer.
//!
//! ## Strict vs. bounded mode
//!
//! Three maintenance operations deliberately relax the equalities:
//! [`crate::Indexer::drop_partitions_before`] and run retention
//! ([`crate::expire_runs`]) delete postings wholesale without rewriting
//! `Count`/`LastChecked` (retired periods keep their aggregate history), and
//! [`crate::Indexer::prune_traces`] deletes `Seq` rows and `LastChecked`
//! entries while keeping postings queryable. The auditor therefore checks
//! exact equality only while no partition has ever been dropped and no
//! retention pass has expired runs (*strict* mode) and falls back to the ≥
//! bounds otherwise — `summary.strict` in the report says which mode ran.

use crate::catalog::get_meta;
use crate::indexer::{
    active_index_tables, check_posting_format, META_GENERATION, META_MIN_PARTITION,
    META_RETENTION_CUTOFF,
};
use crate::postings::{validate_v2_row, V2RowError};
use crate::tables::{
    decode_counts, decode_events, decode_last_checked, COUNT, LAST_CHECKED, RCOUNT, SEQ,
};
use crate::{Catalog, PairKey, Result};
use seqdet_log::{Activity, TraceId, Ts};
use seqdet_storage::{FxHashMap, FxHashSet, KvStore};

/// Upper bound on reported violations; a totally scrambled store would
/// otherwise produce one violation per row. The report's `truncated` flag
/// says when the cap was hit — the cap is never silent.
pub const MAX_VIOLATIONS: usize = 1000;

/// Names of all checks the auditor runs, in execution order.
pub const CHECKS: [&str; 6] =
    ["seq-bounds", "posting-blocks", "count-index", "reverse-transpose", "last-checked", "meta"];

/// One invariant violation found in a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which check fired (one of [`CHECKS`]).
    pub check: &'static str,
    /// Table the offending row lives in.
    pub table: &'static str,
    /// Human-readable key of the offending row.
    pub key: String,
    /// What disagreed.
    pub detail: String,
}

/// Row and posting counts observed while auditing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditSummary {
    /// `Seq` rows (live traces).
    pub seq_rows: usize,
    /// Distinct pair keys across active `Index` partitions.
    pub pairs: usize,
    /// Total postings across active `Index` partitions.
    pub postings: u64,
    /// `Count` rows.
    pub count_rows: usize,
    /// `ReverseCount` rows.
    pub reverse_count_rows: usize,
    /// `LastChecked` rows.
    pub last_checked_rows: usize,
    /// Active `Index` partitions (1 when partitioning is off).
    pub partitions: usize,
    /// Index generation at audit time.
    pub generation: u64,
    /// Whether exact equalities were enforced (no partition ever dropped).
    pub strict: bool,
    /// Whether the store answered with narrowed coverage (quarantined
    /// runs) during the audit — observed counts may under-report.
    pub narrowed: bool,
}

/// Outcome of one audit pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Observed table sizes and audit mode.
    pub summary: AuditSummary,
    /// Every violation found, capped at [`MAX_VIOLATIONS`].
    pub violations: Vec<Violation>,
    /// True when the violation list hit the cap and more exist.
    pub truncated: bool,
}

impl AuditReport {
    /// True when the store satisfies every invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn push(&mut self, v: Violation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        } else {
            self.truncated = true;
        }
    }

    /// Render the report as a JSON object (hand-rolled — no serialization
    /// crate is available offline).
    pub fn to_json(&self) -> String {
        let s = &self.summary;
        let mut out = String::with_capacity(256 + self.violations.len() * 96);
        out.push_str(&format!(
            "{{\"ok\":{},\"strict\":{},\"narrowed\":{},\"truncated\":{},\"summary\":{{\
             \"seq_rows\":{},\"pairs\":{},\"postings\":{},\"count_rows\":{},\
             \"reverse_count_rows\":{},\"last_checked_rows\":{},\"partitions\":{},\
             \"generation\":{}}},\"checks\":[",
            self.ok(),
            s.strict,
            s.narrowed,
            self.truncated,
            s.seq_rows,
            s.pairs,
            s.postings,
            s.count_rows,
            s.reverse_count_rows,
            s.last_checked_rows,
            s.partitions,
            s.generation,
        ));
        for (i, c) in CHECKS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{c}\""));
        }
        out.push_str("],\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"check\":\"{}\",\"table\":\"{}\",\"key\":\"{}\",\"detail\":\"{}\"}}",
                json_escape(v.check),
                json_escape(v.table),
                json_escape(&v.key),
                json_escape(&v.detail)
            ));
        }
        out.push_str("]}");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn pair_name(catalog: &Catalog, key: PairKey) -> String {
    let (a, b) = Activity::unpack_pair(key);
    format!(
        "({}, {})",
        catalog.activity_name(a).unwrap_or("?"),
        catalog.activity_name(b).unwrap_or("?")
    )
}

/// Per-pair aggregate re-derived from the postings themselves.
#[derive(Default, Clone, Copy)]
struct PairAgg {
    total: u64,
    sum_duration: u64,
}

/// Audit every cross-table invariant of `store`. Rows that fail to
/// *decode* are reported as violations of the check that needed them (the
/// auditor's job is reporting damage, not dying on it); only a store in
/// the legacy v1 posting format or a failure to read the catalog itself
/// aborts the audit.
pub fn audit_store<S: KvStore>(store: &S) -> Result<AuditReport> {
    check_posting_format(store)?;
    let catalog = Catalog::load(store)?;
    let mut report = AuditReport::default();

    let dropped_floor: u32 =
        get_meta(store, META_MIN_PARTITION).and_then(|s| s.parse().ok()).unwrap_or(0);
    report.summary.strict = dropped_floor == 0 && get_meta(store, META_RETENTION_CUTOFF).is_none();
    // Quarantined runs narrow every read below; flag the whole report so
    // "0 rows" violations can be read as possibly-missing, not corrupt.
    report.summary.narrowed = !store.coverage().is_full();

    match get_meta(store, META_GENERATION) {
        None => {} // fresh store: generation reads as 0
        Some(raw) => match raw.parse::<u64>() {
            Ok(g) => report.summary.generation = g,
            Err(_) => report.push(Violation {
                check: "meta",
                table: "Meta",
                key: META_GENERATION.to_owned(),
                detail: format!("index generation {raw:?} is not an integer"),
            }),
        },
    }

    // ------------------------------------------------------------------
    // Seq: collect each live trace's event set (and check time order).
    // ------------------------------------------------------------------
    let mut seq_events: FxHashMap<TraceId, FxHashSet<(u32, Ts)>> = FxHashMap::default();
    for (key, row) in store.scan(SEQ) {
        report.summary.seq_rows += 1;
        let Ok(key): std::result::Result<[u8; 4], _> = key.as_ref().try_into() else {
            report.push(Violation {
                check: "seq-bounds",
                table: "Seq",
                key: format!("{key:?}"),
                detail: "key is not 4 bytes".into(),
            });
            continue;
        };
        let trace = TraceId(u32::from_le_bytes(key));
        let trace_name = || catalog.trace_name(trace).unwrap_or("?").to_owned();
        let events = match decode_events(&row) {
            Ok(events) => events,
            Err(e) => {
                report.push(Violation {
                    check: "seq-bounds",
                    table: "Seq",
                    key: trace_name(),
                    detail: format!("row failed to decode: {e}"),
                });
                continue;
            }
        };
        let mut set = FxHashSet::default();
        let mut prev: Option<Ts> = None;
        for ev in &events {
            if prev.is_some_and(|p| ev.ts <= p) {
                report.push(Violation {
                    check: "seq-bounds",
                    table: "Seq",
                    key: trace_name(),
                    detail: format!("events not strictly increasing at ts {}", ev.ts),
                });
            }
            prev = Some(ev.ts);
            set.insert((ev.activity.0, ev.ts));
        }
        seq_events.insert(trace, set);
    }

    // ------------------------------------------------------------------
    // Index: re-derive per-pair aggregates and per-(pair, trace) maxima.
    // ------------------------------------------------------------------
    let tables = active_index_tables(store);
    report.summary.partitions = tables.len();
    let mut pair_agg: FxHashMap<PairKey, PairAgg> = FxHashMap::default();
    let mut pair_trace_max: FxHashMap<(PairKey, TraceId), Ts> = FxHashMap::default();
    for table in tables {
        for (key, row) in store.scan(table) {
            let Ok(key): std::result::Result<[u8; 8], _> = key.as_ref().try_into() else {
                report.push(Violation {
                    check: "seq-bounds",
                    table: "Index",
                    key: format!("{key:?}"),
                    detail: "key is not 8 bytes".into(),
                });
                continue;
            };
            let pair = PairKey::from_le_bytes(key);
            let (a, b) = Activity::unpack_pair(pair);
            let pretty = || pair_name(&catalog, pair);
            let postings = match validate_v2_row(&row) {
                Ok(p) => p,
                Err(V2RowError::TornDirectory(m)) => {
                    report.push(Violation {
                        check: "posting-blocks",
                        table: "Index",
                        key: pretty(),
                        detail: format!("torn block directory: {m}"),
                    });
                    continue;
                }
                Err(V2RowError::BadBlock(m)) => {
                    report.push(Violation {
                        check: "posting-blocks",
                        table: "Index",
                        key: pretty(),
                        detail: format!("row failed to decode: {m}"),
                    });
                    continue;
                }
            };
            let agg = pair_agg.entry(pair).or_default();
            for p in &postings {
                report.summary.postings += 1;
                agg.total += 1;
                agg.sum_duration += p.ts_b.wrapping_sub(p.ts_a);
                if p.ts_a >= p.ts_b {
                    report.push(Violation {
                        check: "seq-bounds",
                        table: "Index",
                        key: pretty(),
                        detail: format!(
                            "posting in trace {} has ts_a {} ≥ ts_b {}",
                            p.trace.0, p.ts_a, p.ts_b
                        ),
                    });
                }
                if catalog.trace_name(p.trace).is_none() {
                    report.push(Violation {
                        check: "seq-bounds",
                        table: "Index",
                        key: pretty(),
                        detail: format!("posting refers to uncatalogued trace {}", p.trace.0),
                    });
                }
                if let Some(events) = seq_events.get(&p.trace) {
                    for (act, ts, which) in [(a, p.ts_a, "first"), (b, p.ts_b, "second")] {
                        if !events.contains(&(act.0, ts)) {
                            report.push(Violation {
                                check: "seq-bounds",
                                table: "Index",
                                key: pretty(),
                                detail: format!(
                                    "{} event ({}, ts {}) of a posting is absent from \
                                     trace {}'s Seq row",
                                    which,
                                    catalog.activity_name(act).unwrap_or("?"),
                                    ts,
                                    p.trace.0
                                ),
                            });
                        }
                    }
                }
                let m = pair_trace_max.entry((pair, p.trace)).or_insert(p.ts_b);
                *m = (*m).max(p.ts_b);
            }
        }
    }

    report.summary.pairs = pair_agg.len();

    // ------------------------------------------------------------------
    // Count / ReverseCount: decode both, compare against postings and
    // against each other (transpose).
    // ------------------------------------------------------------------
    let mut fwd: FxHashMap<(Activity, Activity), (u64, u64)> = FxHashMap::default();
    let mut rev: FxHashMap<(Activity, Activity), (u64, u64)> = FxHashMap::default();
    for (table, table_name, by_first, map) in
        [(COUNT, "Count", true, &mut fwd), (RCOUNT, "ReverseCount", false, &mut rev)]
    {
        for (key, row) in store.scan(table) {
            if by_first {
                report.summary.count_rows += 1;
            } else {
                report.summary.reverse_count_rows += 1;
            }
            let Ok(key): std::result::Result<[u8; 4], _> = key.as_ref().try_into() else {
                report.push(Violation {
                    check: "count-index",
                    table: table_name,
                    key: format!("{key:?}"),
                    detail: "key is not 4 bytes".into(),
                });
                continue;
            };
            let owner = Activity(u32::from_le_bytes(key));
            let owner_name = catalog.activity_name(owner).unwrap_or("?").to_owned();
            let entries = match decode_counts(&row) {
                Ok(entries) => entries,
                Err(e) => {
                    report.push(Violation {
                        check: "count-index",
                        table: table_name,
                        key: owner_name,
                        detail: format!("row failed to decode: {e}"),
                    });
                    continue;
                }
            };
            let mut seen: FxHashSet<Activity> = FxHashSet::default();
            for entry in entries {
                if !seen.insert(entry.partner) {
                    report.push(Violation {
                        check: "count-index",
                        table: table_name,
                        key: owner_name.clone(),
                        detail: format!(
                            "duplicate entry for partner {}",
                            catalog.activity_name(entry.partner).unwrap_or("?")
                        ),
                    });
                    continue;
                }
                let pair = if by_first { (owner, entry.partner) } else { (entry.partner, owner) };
                map.insert(pair, (entry.sum_duration, entry.total_completions));
            }
        }
    }

    // Transpose: every (a, b) must appear in both with identical values.
    for (&(a, b), &(sum, total)) in &fwd {
        match rev.get(&(a, b)) {
            Some(&(rsum, rtotal)) if (rsum, rtotal) == (sum, total) => {}
            other => report.push(Violation {
                check: "reverse-transpose",
                table: "ReverseCount",
                key: pair_name(&catalog, Activity::pair_key(a, b)),
                detail: match other {
                    Some(&(rsum, rtotal)) => format!(
                        "Count has (sum {sum}, total {total}) but ReverseCount has \
                         (sum {rsum}, total {rtotal})"
                    ),
                    None => format!(
                        "Count has (sum {sum}, total {total}) but \
                         ReverseCount has no entry"
                    ),
                },
            }),
        }
    }
    for &(a, b) in rev.keys() {
        if !fwd.contains_key(&(a, b)) {
            report.push(Violation {
                check: "reverse-transpose",
                table: "Count",
                key: pair_name(&catalog, Activity::pair_key(a, b)),
                detail: "ReverseCount has an entry but Count does not".into(),
            });
        }
    }

    // Count vs Index postings.
    let strict = report.summary.strict;
    let mut keys: FxHashSet<PairKey> = pair_agg.keys().copied().collect();
    keys.extend(fwd.keys().map(|&(a, b)| Activity::pair_key(a, b)));
    for pair in keys {
        let (a, b) = Activity::unpack_pair(pair);
        let (csum, ctotal) = fwd.get(&(a, b)).copied().unwrap_or((0, 0));
        let agg = pair_agg.get(&pair).copied().unwrap_or_default();
        let agrees = if strict {
            (csum, ctotal) == (agg.sum_duration, agg.total)
        } else {
            // Dropped partitions removed postings but kept aggregates:
            // Count may exceed the surviving postings, never trail them.
            ctotal >= agg.total && csum >= agg.sum_duration
        };
        if !agrees {
            report.push(Violation {
                check: "count-index",
                table: "Count",
                key: pair_name(&catalog, pair),
                detail: format!(
                    "Count says (sum {csum}, total {ctotal}) but Index postings \
                     re-derive to (sum {}, total {}){}",
                    agg.sum_duration,
                    agg.total,
                    if strict { "" } else { " [bounded mode: Count must be ≥]" }
                ),
            });
        }
    }

    // ------------------------------------------------------------------
    // LastChecked: the duplicate guard must bound (strictly: equal) the
    // newest completion of every (pair, trace).
    // ------------------------------------------------------------------
    let mut lc_seen: FxHashSet<(PairKey, TraceId)> = FxHashSet::default();
    for (key, row) in store.scan(LAST_CHECKED) {
        report.summary.last_checked_rows += 1;
        let Ok(key): std::result::Result<[u8; 8], _> = key.as_ref().try_into() else {
            report.push(Violation {
                check: "last-checked",
                table: "LastChecked",
                key: format!("{key:?}"),
                detail: "key is not 8 bytes".into(),
            });
            continue;
        };
        let pair = PairKey::from_le_bytes(key);
        let pretty = || pair_name(&catalog, pair);
        let entries = match decode_last_checked(&row) {
            Ok(entries) => entries,
            Err(e) => {
                report.push(Violation {
                    check: "last-checked",
                    table: "LastChecked",
                    key: pretty(),
                    detail: format!("row failed to decode: {e}"),
                });
                continue;
            }
        };
        for entry in entries {
            if !lc_seen.insert((pair, entry.trace)) {
                report.push(Violation {
                    check: "last-checked",
                    table: "LastChecked",
                    key: pretty(),
                    detail: format!("duplicate entry for trace {}", entry.trace.0),
                });
                continue;
            }
            match pair_trace_max.get(&(pair, entry.trace)) {
                Some(&max_ts) if entry.last_completion < max_ts => {
                    report.push(Violation {
                        check: "last-checked",
                        table: "LastChecked",
                        key: pretty(),
                        detail: format!(
                            "trace {} guard {} trails newest posting completion {}",
                            entry.trace.0, entry.last_completion, max_ts
                        ),
                    });
                }
                Some(&max_ts) if strict && entry.last_completion > max_ts => {
                    report.push(Violation {
                        check: "last-checked",
                        table: "LastChecked",
                        key: pretty(),
                        detail: format!(
                            "trace {} guard {} exceeds newest posting completion {} \
                             (nothing was ever dropped)",
                            entry.trace.0, entry.last_completion, max_ts
                        ),
                    });
                }
                None if strict => {
                    report.push(Violation {
                        check: "last-checked",
                        table: "LastChecked",
                        key: pretty(),
                        detail: format!(
                            "trace {} has a guard but the pair has no postings for it",
                            entry.trace.0
                        ),
                    });
                }
                _ => {}
            }
        }
    }
    if strict {
        for &(pair, trace) in pair_trace_max.keys() {
            // Pruned traces lose their guards (and Seq rows) by design;
            // only live traces must still be guarded.
            if seq_events.contains_key(&trace) && !lc_seen.contains(&(pair, trace)) {
                report.push(Violation {
                    check: "last-checked",
                    table: "LastChecked",
                    key: pair_name(&catalog, pair),
                    detail: format!("live trace {} has postings but no guard entry", trace.0),
                });
            }
        }
    }

    Ok(report)
}

/// Outcome of a full audit of a persisted store directory: the disk layer
/// ([`seqdet_storage::verify_segments`] for the write-ahead segments and
/// [`seqdet_storage::verify_runs`] for the immutable run tier) plus the
/// cross-table layer ([`audit_store`]). This is the shared driver behind
/// `cargo xtask audit`, `seqdet audit`, and the server's `GET /stats/audit`.
pub struct DiskAuditOutcome {
    /// Disk-layer report: per-segment CRC verification.
    pub segments: seqdet_storage::SegmentReport,
    /// Run-tier report: manifest checksum, per-run structure and CRC
    /// cross-check, orphan count.
    pub runs: seqdet_storage::RunReport,
    /// Index-layer report; `None` when the store could not be opened.
    pub index: Option<AuditReport>,
    /// Error that prevented the index-layer audit, if any.
    pub open_error: Option<String>,
}

impl DiskAuditOutcome {
    /// True when every layer is clean.
    pub fn ok(&self) -> bool {
        self.segments.ok()
            && self.runs.ok()
            && self.open_error.is_none()
            && self.index.as_ref().is_some_and(|r| r.ok())
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"ok\":{},\"segments\":{{\"segments\":{},\"records\":{},\"torn_tails\":{},\
             \"batches_committed\":{},\"batches_discarded\":{},\"violations\":[",
            self.ok(),
            self.segments.segments,
            self.segments.records,
            self.segments.torn_tails,
            self.segments.batches_committed,
            self.segments.batches_discarded,
        ));
        for (i, v) in self.segments.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"segment\":\"{}\",\"offset\":{},\"reason\":\"{}\"}}",
                json_escape(&v.segment.display().to_string()),
                v.offset,
                json_escape(&v.reason)
            ));
        }
        out.push_str("]}");
        let r = &self.runs;
        out.push_str(&format!(
            ",\"runs\":{{\"manifest\":{},\"segment_floor\":{},\"runs\":{},\"records\":{},\
             \"orphans\":{},\"violations\":[",
            r.manifest, r.segment_floor, r.runs, r.records, r.orphans,
        ));
        for (i, v) in r.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"path\":\"{}\",\"reason\":\"{}\"}}",
                json_escape(&v.path.display().to_string()),
                json_escape(&v.reason)
            ));
        }
        out.push_str("]}");
        match (&self.index, &self.open_error) {
            (Some(report), _) => out.push_str(&format!(",\"index\":{}", report.to_json())),
            (None, Some(e)) => out.push_str(&format!(",\"open_error\":\"{}\"", json_escape(e))),
            (None, None) => {}
        }
        out.push('}');
        out
    }

    /// Render as human-readable text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "segments: {} file(s), {} record(s), {} torn tail(s), {} violation(s), \
             {} batch(es) committed, {} uncommitted batch(es) discarded\n",
            self.segments.segments,
            self.segments.records,
            self.segments.torn_tails,
            self.segments.violations.len(),
            self.segments.batches_committed,
            self.segments.batches_discarded,
        ));
        for v in &self.segments.violations {
            out.push_str(&format!(
                "  CORRUPT {} @ byte {}: {}\n",
                v.segment.display(),
                v.offset,
                v.reason
            ));
        }
        let r = &self.runs;
        out.push_str(&format!(
            "runs: {}, {} run(s), {} record(s), {} orphan(s), {} violation(s), \
             segment floor {}\n",
            if r.manifest { "manifest present" } else { "no manifest (legacy layout)" },
            r.runs,
            r.records,
            r.orphans,
            r.violations.len(),
            r.segment_floor,
        ));
        for v in &r.violations {
            out.push_str(&format!("  CORRUPT {}: {}\n", v.path.display(), v.reason));
        }
        match (&self.index, &self.open_error) {
            (Some(r), _) => {
                let s = &r.summary;
                out.push_str(&format!(
                    "index: {} trace(s), {} pair(s), {} posting(s) across {} partition(s), \
                     generation {} [{} mode]\n",
                    s.seq_rows,
                    s.pairs,
                    s.postings,
                    s.partitions,
                    s.generation,
                    if s.strict { "strict" } else { "bounded" }
                ));
                if s.narrowed {
                    out.push_str(
                        "  NARROWED: quarantined runs excluded — counts may under-report\n",
                    );
                }
                for v in &r.violations {
                    out.push_str(&format!("  {} [{}] {}: {}\n", v.table, v.check, v.key, v.detail));
                }
                if r.truncated {
                    out.push_str("  … violation list truncated\n");
                }
            }
            (None, Some(e)) => out.push_str(&format!("index: NOT AUDITED (open failed: {e})\n")),
            (None, None) => {}
        }
        out.push_str(if self.ok() { "audit: OK\n" } else { "audit: FAILED\n" });
        out
    }
}

/// Audit the persisted store in `dir`, lowest layer first. Segment damage
/// and an unopenable store are *reported*, not returned as errors — only an
/// unreadable directory fails.
pub fn audit_disk(dir: &std::path::Path) -> Result<DiskAuditOutcome> {
    let segments = seqdet_storage::verify_segments(dir).map_err(|e| match e {
        seqdet_storage::StorageError::Io(io) => crate::CoreError::Io(io),
        other => crate::CoreError::Corrupt { table: "segments", message: other.to_string() },
    })?;
    let runs = seqdet_storage::verify_runs(&seqdet_storage::RealFs, dir).map_err(|e| match e {
        seqdet_storage::StorageError::Io(io) => crate::CoreError::Io(io),
        other => crate::CoreError::Corrupt { table: "runs", message: other.to_string() },
    })?;
    let (index, open_error) = match seqdet_storage::DiskStore::open(dir) {
        Ok(store) => match audit_store(&store) {
            Ok(report) => (Some(report), None),
            Err(e) => (None, Some(format!("cross-table audit failed: {e}"))),
        },
        Err(e) => (None, Some(e.to_string())),
    };
    Ok(DiskAuditOutcome { segments, runs, index, open_error })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postings::encode_postings_v2;
    use crate::tables::{
        count_key, encode_counts, encode_last_checked, pair_key_bytes, CountEntry, INDEX,
    };
    use crate::{IndexConfig, Indexer, Policy};
    use seqdet_log::EventLogBuilder;
    use seqdet_storage::MemStore;
    use std::sync::Arc;

    fn indexed_store() -> (Indexer, Arc<MemStore>) {
        let mut b = EventLogBuilder::new();
        for (act, ts) in [("A", 1), ("A", 2), ("B", 3), ("A", 4), ("B", 5), ("A", 6)] {
            b.add("t1", act, ts);
        }
        b.add("t2", "A", 1).add("t2", "B", 2).add("t2", "C", 3);
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&b.build()).unwrap();
        let store = ix.store();
        (ix, store)
    }

    fn pair(ix: &Indexer, a: &str, b: &str) -> PairKey {
        Activity::pair_key(ix.catalog().activity(a).unwrap(), ix.catalog().activity(b).unwrap())
    }

    #[test]
    fn freshly_indexed_store_audits_clean() {
        let (_, store) = indexed_store();
        let report = audit_store(store.as_ref()).unwrap();
        assert!(report.ok(), "unexpected violations: {:?}", report.violations);
        assert!(report.summary.strict);
        assert!(report.summary.postings > 0);
        assert_eq!(report.summary.seq_rows, 2);
        assert!(!report.truncated);
    }

    #[test]
    fn incremental_updates_and_pruning_stay_clean() {
        let (mut ix, store) = indexed_store();
        let mut b = EventLogBuilder::new();
        b.add("t1", "B", 9).add("t3", "A", 1).add("t3", "B", 4);
        ix.index_log(&b.build()).unwrap();
        assert!(audit_store(store.as_ref()).unwrap().ok());
        // Pruning keeps postings but drops Seq rows + guards — still clean.
        ix.prune_traces(&["t1"]).unwrap();
        let report = audit_store(store.as_ref()).unwrap();
        assert!(report.ok(), "unexpected violations: {:?}", report.violations);
    }

    #[test]
    fn partition_drop_switches_to_bounded_mode_and_stays_clean() {
        let mut b = EventLogBuilder::new();
        b.add("t", "A", 1).add("t", "B", 50).add("t", "A", 110).add("t", "B", 130);
        let cfg = IndexConfig::new(Policy::SkipTillNextMatch).with_partition_period(40);
        let mut ix = Indexer::new(cfg);
        ix.index_log(&b.build()).unwrap();
        assert!(ix.drop_partitions_before(80).unwrap() > 0);
        let report = audit_store(ix.store().as_ref()).unwrap();
        assert!(!report.summary.strict);
        assert!(report.ok(), "unexpected violations: {:?}", report.violations);
    }

    #[test]
    fn run_retention_switches_to_bounded_mode_and_stays_clean() {
        // The `seqdet compact --retention` sequence: two periods of a
        // partitioned store compacted into runs, then the older period's
        // `Index` run expires while `Count` and `LastChecked` keep its
        // history.
        let dir = std::env::temp_dir().join(format!("seqdet-audit-ttl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = seqdet_storage::DiskStore::open(&dir).unwrap();
        crate::zones::install_zone_extractor(&store);
        let store = Arc::new(store);
        let cfg = IndexConfig::new(Policy::SkipTillNextMatch).with_partition_period(100);
        let mut ix = Indexer::with_store(store.clone(), cfg).unwrap();
        let mut old = EventLogBuilder::new();
        old.add("t1", "A", 1).add("t1", "B", 2).add("t1", "A", 3).add("t1", "B", 4);
        ix.index_log(&old.build()).unwrap();
        let mut new = EventLogBuilder::new();
        new.add("t2", "A", 501).add("t2", "B", 502);
        ix.index_log(&new.build()).unwrap();
        store.flush().unwrap();
        store.compact().unwrap();
        assert!(audit_store(store.as_ref()).unwrap().summary.strict);

        let expiry = crate::zones::expire_runs(&store, 100).unwrap().unwrap();
        assert_eq!((expiry.dropped, expiry.cutoff, expiry.newest), (1, 402, 502));
        // The expired postings are gone but still counted, so exact
        // equality no longer holds.
        let (a, b) = (ix.catalog().activity("A").unwrap(), ix.catalog().activity("B").unwrap());
        let ab = Activity::pair_key(a, b);
        let postings: usize = active_index_tables(store.as_ref())
            .into_iter()
            .map(|t| crate::tables::read_postings(store.as_ref(), t, ab).unwrap().len())
            .sum();
        let count = crate::tables::pair_count(store.as_ref(), a, b).unwrap().unwrap();
        assert_eq!((count.total_completions, postings), (3, 1));
        let report = audit_store(store.as_ref()).unwrap();
        assert!(!report.summary.strict);
        assert!(report.ok(), "unexpected violations: {:?}", report.violations);
        drop((ix, store));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_count_row_is_detected() {
        let (ix, store) = indexed_store();
        let a = ix.catalog().activity("A").unwrap();
        // Overstate (A, B)'s completions by one.
        let mut entries = crate::tables::read_counts(store.as_ref(), COUNT, a).unwrap();
        for e in &mut entries {
            e.total_completions += 1;
        }
        store.put(COUNT, &count_key(a), &encode_counts(&entries)).unwrap();
        let report = audit_store(store.as_ref()).unwrap();
        assert!(!report.ok());
        assert!(report.violations.iter().any(|v| v.check == "count-index"), "{report:?}");
        // The transpose is now also broken — both checks must fire.
        assert!(report.violations.iter().any(|v| v.check == "reverse-transpose"), "{report:?}");
    }

    #[test]
    fn transpose_violation_without_count_change_is_detected() {
        let (ix, store) = indexed_store();
        let b = ix.catalog().activity("B").unwrap();
        // Damage only ReverseCount[B]: Count still matches the postings.
        store
            .put(
                RCOUNT,
                &count_key(b),
                &encode_counts(&[CountEntry {
                    partner: ix.catalog().activity("A").unwrap(),
                    sum_duration: 999,
                    total_completions: 999,
                }]),
            )
            .unwrap();
        let report = audit_store(store.as_ref()).unwrap();
        let checks: Vec<&str> = report.violations.iter().map(|v| v.check).collect();
        assert!(checks.contains(&"reverse-transpose"), "{report:?}");
        assert!(!checks.contains(&"count-index"), "{report:?}");
    }

    #[test]
    fn foreign_posting_violates_seq_bounds() {
        let (ix, store) = indexed_store();
        let key = pair(&ix, "A", "B");
        // Append a posting whose events t1 never contained.
        let foreign =
            encode_postings_v2(&[crate::tables::Posting { trace: TraceId(0), ts_a: 70, ts_b: 71 }]);
        store.append(INDEX, &pair_key_bytes(key), &foreign).unwrap();
        let report = audit_store(store.as_ref()).unwrap();
        let seq_violations: Vec<_> =
            report.violations.iter().filter(|v| v.check == "seq-bounds").collect();
        assert_eq!(seq_violations.len(), 2, "both posting events are foreign: {report:?}");
        // Count no longer matches either (the posting was never aggregated).
        assert!(report.violations.iter().any(|v| v.check == "count-index"));
    }

    #[test]
    fn stale_and_duplicate_last_checked_are_detected() {
        let (ix, store) = indexed_store();
        let key = pair(&ix, "A", "B");
        // Two entries for the same trace, both trailing the real maximum.
        store
            .put(
                LAST_CHECKED,
                &pair_key_bytes(key),
                &encode_last_checked(&[
                    crate::tables::LastCheckedEntry { trace: TraceId(0), last_completion: 1 },
                    crate::tables::LastCheckedEntry { trace: TraceId(0), last_completion: 1 },
                ]),
            )
            .unwrap();
        let report = audit_store(store.as_ref()).unwrap();
        let details: Vec<&str> = report
            .violations
            .iter()
            .filter(|v| v.check == "last-checked")
            .map(|v| v.detail.as_str())
            .collect();
        assert!(details.iter().any(|d| d.contains("duplicate")), "{details:?}");
        assert!(details.iter().any(|d| d.contains("trails")), "{details:?}");
    }

    #[test]
    fn undecodable_rows_are_violations_not_errors() {
        let (ix, store) = indexed_store();
        let key = pair(&ix, "A", "B");
        store.put(INDEX, &pair_key_bytes(key), &[1, 2, 3]).unwrap(); // garbage row
        let report = audit_store(store.as_ref()).unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| v.check == "posting-blocks" && v.table == "Index"));
    }

    #[test]
    fn legacy_store_is_refused_not_audited() {
        let (_, store) = indexed_store();
        crate::catalog::put_meta(store.as_ref(), crate::indexer::META_POSTING_FORMAT, "v1")
            .unwrap();
        let err = audit_store(store.as_ref()).unwrap_err();
        assert!(matches!(err, crate::CoreError::ConfigMismatch { .. }), "{err}");
    }

    #[test]
    fn torn_v2_directory_gets_a_distinct_finding() {
        let (ix, store) = indexed_store();
        let key = pair(&ix, "A", "B");
        let good = store.get(INDEX, &pair_key_bytes(key)).unwrap();
        // Truncate inside the chunk header/directory: a torn directory.
        store.put(INDEX, &pair_key_bytes(key), &good[..3]).unwrap();
        let report = audit_store(store.as_ref()).unwrap();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.check == "posting-blocks" && v.detail.contains("torn block directory")),
            "{report:?}"
        );
        // A corrupted block *body* is reported as a decode failure instead.
        let mut bad = good.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0x80;
        store.put(INDEX, &pair_key_bytes(key), &bad).unwrap();
        let report = audit_store(store.as_ref()).unwrap();
        assert!(
            report.violations.iter().any(|v| v.check == "posting-blocks"
                && v.detail.contains("failed to decode")
                && !v.detail.contains("torn block directory")),
            "{report:?}"
        );
    }

    #[test]
    fn disk_audit_covers_the_run_tier() {
        let dir = std::env::temp_dir().join(format!("seqdet-audit-runs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(seqdet_storage::DiskStore::open(&dir).unwrap());
        crate::zones::install_zone_extractor(&store);
        let mut b = EventLogBuilder::new();
        b.add("t1", "A", 1).add("t1", "B", 3).add("t2", "A", 2).add("t2", "B", 5);
        let mut ix =
            Indexer::with_store(store.clone(), IndexConfig::new(Policy::SkipTillNextMatch))
                .unwrap();
        ix.index_log(&b.build()).unwrap();
        store.compact().unwrap();
        drop((ix, store));
        let outcome = audit_disk(&dir).unwrap();
        assert!(outcome.ok(), "{}", outcome.to_text());
        assert!(outcome.runs.manifest);
        assert!(outcome.runs.runs > 0, "compaction must have produced runs");
        assert!(outcome.runs.records > 0);
        assert_eq!(outcome.runs.orphans, 0);
        let json = outcome.to_json();
        assert!(json.contains("\"runs\":{\"manifest\":true"), "{json}");
        assert!(outcome.to_text().contains("manifest present"));
        // Damage the manifest: the run layer must report it and ok() flip.
        let manifest = dir.join("MANIFEST");
        let mut bytes = std::fs::read(&manifest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&manifest, &bytes).unwrap();
        let outcome = audit_disk(&dir).unwrap();
        assert!(!outcome.ok());
        assert!(!outcome.runs.ok(), "{}", outcome.to_text());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_report_shape_and_escaping() {
        let mut report = AuditReport::default();
        report.summary.postings = 7;
        assert!(report.to_json().contains("\"ok\":true"));
        report.push(Violation {
            check: "count-index",
            table: "Count",
            key: "(\"quoted\", B)".into(),
            detail: "line\nbreak".into(),
        });
        let json = report.to_json();
        assert!(json.contains("\"ok\":false"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("line\\nbreak"));
        assert!(json.contains("\"postings\":7"));
    }

    #[test]
    fn violation_cap_sets_truncated() {
        let mut report = AuditReport::default();
        for _ in 0..(MAX_VIOLATIONS + 5) {
            report.push(Violation {
                check: "count-index",
                table: "Count",
                key: "k".into(),
                detail: "d".into(),
            });
        }
        assert_eq!(report.violations.len(), MAX_VIOLATIONS);
        assert!(report.truncated);
        assert!(report.to_json().contains("\"truncated\":true"));
    }
}
