//! The benchmark's fixed tables: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` at the repository root lists exactly these
//! (pinned by `tests/smoke.rs`); the bounds live only there, because they
//! are derived from `NOISE.md`, not from the code.

/// Seconds one run measures: `run_seconds` in `BENCHMARK.json` and the
/// default of `--seconds`.
pub const RUN_SECONDS: u64 = 24;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric: `(name, unit, direction)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Higher }
}

/// The four workloads. Names are permanent: later PRs compare against them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BulkHot,
    WideCold,
    RichVerify,
    TrickleMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::BulkHot, Workload::WideCold, Workload::RichVerify, Workload::TrickleMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkHot => "bulk_hot",
            Workload::WideCold => "wide_cold",
            Workload::RichVerify => "rich_verify",
            Workload::TrickleMixed => "trickle_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (copied into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::BulkHot => {
                "26 activities, few long posting rows that all fit the posting cache: decode, join and render dominate; ingest is pair creation and large appends"
            }
            Workload::WideCold => {
                "160 activities, several times more index rows than the posting cache holds: cache misses, store gets and per-query overhead dominate; ingest is many small row writes and compactions"
            }
            Workload::RichVerify => {
                "Kleene, negation, WITHIN and attribute predicates: the only workload whose time is skeleton intersect, the backtracking verifier and Attrs reads"
            }
            Workload::TrickleMixed => {
                "small commits interleaved with query bursts on one thread: per-commit fixed cost, generation bump, cache invalidation and delta growth, so a read gain that taxes writers shows"
            }
        }
    }
}

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports all of them from the untraced run.
pub const END_TO_END: [MetricSpec; 10] = [
    lower("setup_s", "s"),
    higher("ingest_events_per_s", "1/s"),
    lower("store_bytes_per_event", "B"),
    lower("live_heap_mb", "MiB"),
    lower("query_p50_us", "us"),
    lower("query_p95_us", "us"),
    higher("query_per_s", "1/s"),
    lower("http_p50_us", "us"),
    lower("http_p90_us", "us"),
    higher("http_req_per_s", "1/s"),
];

/// Per-layer metrics (layer = crate), reported by the traced run only. The
/// README says which end-to-end metric each one should move, and where.
pub const PER_LAYER: [MetricSpec; 50] = [
    lower("log.csv_parse_s", "s"),
    lower("core.index_log_s", "s"),
    lower("core.index_self_s", "s"),
    lower("core.pairs_created", "count"),
    lower("core.batch_p50_ms", "ms"),
    lower("core.batch_max_ms", "ms"),
    higher("core.decode_mpostings_per_s", "1/us"),
    lower("storage.put_s", "s"),
    lower("storage.append_s", "s"),
    lower("storage.get_s", "s"),
    lower("storage.put_calls", "count"),
    lower("storage.append_calls", "count"),
    lower("storage.get_calls", "count"),
    lower("storage.compactions", "count"),
    lower("storage.compact_s", "s"),
    lower("storage.segment_bytes_written", "B"),
    lower("storage.run_bytes_written", "B"),
    lower("storage.write_amp", "ratio"),
    lower("storage.flush_s", "s"),
    lower("storage.fsyncs", "count"),
    lower("storage.open_s", "s"),
    lower("storage.runs_live", "count"),
    lower("storage.read_get_us_per_query", "us"),
    lower("storage.runs_searched_per_query", "count"),
    higher("storage.runs_pruned_share", "ratio"),
    lower("storage.bytes_read_per_query", "B"),
    lower("query.engine_open_s", "s"),
    lower("query.cold_pass_s", "s"),
    lower("query.parse_us_p50", "us"),
    lower("query.execute_us_p50", "us"),
    lower("query.execute_self_us_p50", "us"),
    higher("query.cache_hit_share", "ratio"),
    lower("query.cache_evictions", "count"),
    lower("query.decoded_bytes_per_query", "B"),
    lower("query.cache_invalidations", "count"),
    lower("query.results_per_query", "count"),
    lower("server.bind_s", "s"),
    lower("server.render_us_p50", "us"),
    lower("server.response_bytes_p50", "B"),
    lower("server.handle_us_mean", "us"),
    lower("server.transport_us_p50", "us"),
    lower("server.http_p99_us", "us"),
    lower("server.shed", "count"),
    lower("server.status_5xx", "count"),
    lower("datagen.prep_s", "s"),
    lower("trace.overhead_share", "ratio"),
    higher("trace.layer_cover_share", "ratio"),
    lower("trace.spans", "count"),
    lower("core.ingest_live_heap_mb", "MiB"),
    lower("process.peak_rss_mb", "MiB"),
];
