//! Incremental index maintenance — Algorithm 1 of the paper.
//!
//! New log events arrive in batches ("the update procedure is called
//! periodically, e.g., once every few hours", §3.1.3). For every batch the
//! indexer:
//!
//! 1. resolves trace/activity names against the persistent [`Catalog`],
//! 2. merges each touched trace's new events with its stored `Seq` row,
//! 3. recreates the trace's pairs with the configured policy
//!    (in parallel across traces — the paper's parallelization-by-design),
//! 4. drops every pair occurrence whose completion is not newer than the
//!    pair's `LastChecked.last_completion` for that trace (the duplicate
//!    guard; greedy STNM pairing is *online*, so the pairs of a trace
//!    prefix are a prefix of the pairs of the full trace, which makes this
//!    filter exact),
//! 5. appends the surviving postings to the `Index` table (or to the
//!    per-period partition chosen by completion timestamp when partitioning
//!    is enabled), updates `Count`/`ReverseCount` aggregates and
//!    `LastChecked`.
//!
//! Note: Algorithm 1 line 9 filters on the *first* event's timestamp
//! (`ev_a.ts > lt`); we filter on the completion (`ts_b > lt`) instead,
//! which is also correct for SC where consecutive pairs share an event
//! (e.g. the trace `A A` extended by another `A` produces the SC pair
//! `(2, 3)` whose first timestamp equals the previous completion).

use crate::catalog::{get_meta, put_meta, Catalog};
use crate::pairs::{create_pairs, PairKey, TracePairs};
use crate::policy::Policy;
use crate::postings::{encode_postings_v2, v1_unreadable, PostingFormat};
use crate::tables::{
    self, append_attrs, append_seq, index_partition, merge_counts, merge_last_checked,
    read_last_checked, read_seq, Posting, ATTRS, COUNT, INDEX, LAST_CHECKED, MAX_PARTITIONS,
    RCOUNT, SEQ,
};
use crate::{CoreError, Result};
use seqdet_exec::Executor;
use seqdet_log::{Activity, AttrEntry, Event, EventLog, TraceId, Ts};
use seqdet_storage::{FxHashMap, FxHashSet, KvStore, MemStore, TableId};
use std::sync::Arc;

const META_POLICY: &str = "config:policy";
const META_PERIOD: &str = "config:partition_period";
pub(crate) const META_NUM_PARTITIONS: &str = "config:num_partitions";
pub(crate) const META_MIN_PARTITION: &str = "config:min_partition";
/// Set once retention may have dropped runs (see [`crate::expire_runs`]).
pub(crate) const META_RETENTION_CUTOFF: &str = "config:retention_cutoff";
pub(crate) const META_GENERATION: &str = "config:index_generation";
pub(crate) const META_POSTING_FORMAT: &str = "config:posting_format";

/// Indexer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// Pattern-matching policy the index will support.
    pub policy: Policy,
    /// Worker threads for per-trace parallelism; `0` = all cores.
    pub threads: usize,
    /// Optional §3.1.3 period partitioning: width (in timestamp units) of
    /// each `Index` partition. `None` keeps a single `Index` table.
    pub partition_period: Option<Ts>,
}

impl IndexConfig {
    /// Default configuration for `policy`: all cores, single `Index`
    /// table.
    pub fn new(policy: Policy) -> Self {
        Self { policy, threads: 0, partition_period: None }
    }

    /// Set the degree of parallelism (`0` = all cores, `1` = sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enable per-period `Index` partitioning with the given period width.
    pub fn with_partition_period(mut self, period: Ts) -> Self {
        assert!(period > 0, "partition period must be positive");
        self.partition_period = Some(period);
        self
    }
}

/// Fresh postings of one pair: `(trace, ts_a, ts_b)` occurrences.
type PairOccurrences = Vec<(TraceId, Ts, Ts)>;

/// One trace's merged sequence: the stored prefix plus the accepted batch
/// tail (`new_from` marks where the new events start).
struct TraceWork {
    trace: TraceId,
    full: Vec<Event>,
    new_from: usize,
    /// Attribute entries of the *accepted* new events (same duplicate guard
    /// as the events themselves), ready to append to the `Attrs` table.
    new_attrs: Vec<AttrEntry>,
}

/// Outcome of one batch update.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Traces touched by the batch.
    pub traces: usize,
    /// Events accepted and appended to `Seq`.
    pub new_events: usize,
    /// Events dropped as duplicates (timestamp not newer than the stored
    /// tail of their trace).
    pub skipped_events: usize,
    /// Pair occurrences appended to the `Index` table(s).
    pub new_pairs: usize,
}

/// The pre-processing component: builds and incrementally maintains the
/// pair index over a [`KvStore`].
pub struct Indexer<S: KvStore = MemStore> {
    store: Arc<S>,
    config: IndexConfig,
    catalog: Catalog,
    executor: Executor,
    num_partitions: u32,
}

impl Indexer<MemStore> {
    /// Indexer over a fresh in-memory store.
    pub fn new(config: IndexConfig) -> Self {
        Self::with_store(Arc::new(MemStore::new()), config)
            .expect("fresh MemStore cannot hold a conflicting config")
    }
}

impl<S: KvStore> Indexer<S> {
    /// Indexer over an existing store. If the store already holds an index,
    /// its persisted configuration must match `config` (you cannot reopen an
    /// SC index as STNM — the stored pairs would be wrong). A store written
    /// in the legacy v1 posting format is refused ([`check_posting_format`]).
    pub fn with_store(store: Arc<S>, config: IndexConfig) -> Result<Self> {
        check_posting_format(store.as_ref())?;
        if let Some(stored) = read_config(&store) {
            if stored.policy != config.policy || stored.partition_period != config.partition_period
            {
                return Err(CoreError::ConfigMismatch {
                    stored: format!("{stored:?}"),
                    requested: format!("{config:?}"),
                });
            }
        } else {
            write_config(&store, &config)?;
        }
        let catalog = Catalog::load(&store)?;
        let num_partitions =
            get_meta(&store, META_NUM_PARTITIONS).and_then(|s| s.parse().ok()).unwrap_or(0);
        let executor = Executor::new(config.threads);
        Ok(Self { store, config, catalog, executor, num_partitions })
    }

    /// Reopen an indexer using the configuration persisted in the store.
    pub fn open(store: Arc<S>) -> Result<Self> {
        let config = read_config(&store).ok_or(CoreError::Corrupt {
            table: "Meta",
            message: "store holds no index configuration".into(),
        })?;
        Self::with_store(store, config)
    }

    /// The underlying store.
    pub fn store(&self) -> Arc<S>
    where
        S: Sized,
        Arc<S>: Clone,
    {
        Arc::clone(&self.store)
    }

    /// The catalog (activity / trace names).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The active configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Index one batch of new events. The whole `log` is treated as the
    /// batch; traces whose names are already known are *extended*.
    pub fn index_log(&mut self, log: &EventLog) -> Result<UpdateStats> {
        // ------------------------------------------------------------------
        // 1. Resolve names against the catalog. Interning mutates shared
        //    catalog state, so this pass stays sequential — but it touches no
        //    storage, so it is cheap.
        // ------------------------------------------------------------------
        struct Pending {
            trace: TraceId,
            events: Vec<Event>,    // batch events, activities remapped
            attrs: Vec<AttrEntry>, // batch attrs, keys remapped
        }
        let mut pending = Vec::with_capacity(log.num_traces());
        for trace in log.traces() {
            let name = log.trace_name(trace.id()).expect("trace has a name");
            let id = self.catalog.intern_trace(name);
            let events = trace
                .events()
                .iter()
                .map(|ev| {
                    // Remap the batch-local activity id into the catalog.
                    let aname = log.activity_name(ev.activity).expect("activity has a name");
                    Event::new(self.catalog.intern_activity(aname), ev.ts)
                })
                .collect();
            let attrs = log
                .trace_attrs(trace.id())
                .iter()
                .map(|&(ts, a, v)| {
                    // Remap the batch-local attribute key into the catalog.
                    let kname = log.attr_name(a).expect("attr has a name");
                    (ts, self.catalog.intern_attr(kname), v)
                })
                .collect();
            pending.push(Pending { trace: id, events, attrs });
        }

        // ------------------------------------------------------------------
        // 2. Merge each trace with its stored sequence, in parallel: the
        //    `read_seq` round-trip plus the merge is independent per trace.
        //    Duplicate guard: events not newer than the stored tail are
        //    dropped (batch-internal order is trusted as-is).
        // ------------------------------------------------------------------
        let store = self.store.as_ref();
        let merged = self.executor.map(&pending, |p| -> Result<(TraceWork, usize)> {
            let mut full = read_seq(store, p.trace)?;
            let stored_last = full.last().map(|e| e.ts);
            let new_from = full.len();
            let mut skipped = 0usize;
            for &ev in &p.events {
                if stored_last.is_some_and(|last| ev.ts <= last) {
                    skipped += 1;
                    continue;
                }
                full.push(ev);
            }
            // Attrs ride with their event: the same duplicate guard keeps
            // the Attrs row parallel to the Seq row across resent batches.
            let new_attrs = p
                .attrs
                .iter()
                .copied()
                .filter(|&(ts, _, _)| stored_last.is_none_or(|last| ts > last))
                .collect();
            Ok((TraceWork { trace: p.trace, full, new_from, new_attrs }, skipped))
        });
        let mut work = Vec::with_capacity(pending.len());
        let mut skipped_events = 0usize;
        for m in merged {
            let (w, skipped) = m?;
            skipped_events += skipped;
            if w.full.len() > w.new_from {
                work.push(w);
            }
        }

        // ------------------------------------------------------------------
        // 3. Per-trace pair creation, in parallel.
        // ------------------------------------------------------------------
        let policy = self.config.policy;
        let pair_sets: Vec<TracePairs> =
            self.executor.map(&work, |w| create_pairs(&w.full, policy));

        // ------------------------------------------------------------------
        // 4. Fetch LastChecked for every touched pair and filter stale
        //    occurrences (ts_b must exceed the stored last completion).
        // ------------------------------------------------------------------
        let mut touched: FxHashSet<PairKey> = FxHashSet::default();
        for pairs in &pair_sets {
            touched.extend(pairs.keys().copied());
        }
        let touched: Vec<PairKey> = touched.into_iter().collect();
        let store = self.store.as_ref();
        let lc_rows =
            self.executor.map(&touched, |&key| read_last_checked(store, key).map(|row| (key, row)));
        let mut last: FxHashMap<(PairKey, TraceId), Ts> = FxHashMap::default();
        for row in lc_rows {
            let (key, entries) = row?;
            for e in entries {
                last.insert((key, e.trace), e.last_completion);
            }
        }

        // Group fresh occurrences by pair key (and count them).
        let mut by_pair: FxHashMap<PairKey, PairOccurrences> = FxHashMap::default();
        let mut new_pairs = 0usize;
        for (w, pairs) in work.iter().zip(&pair_sets) {
            for (&key, occs) in pairs {
                let lt = last.get(&(key, w.trace)).copied();
                for &(a, b) in occs {
                    if lt.is_some_and(|lt| b <= lt) {
                        continue;
                    }
                    by_pair.entry(key).or_default().push((w.trace, a, b));
                    new_pairs += 1;
                }
            }
        }

        // ------------------------------------------------------------------
        // 5. Write phase. Every table mutation of this update runs inside
        //    one store batch: disk-backed stores frame the records with
        //    BATCH_BEGIN/BATCH_COMMIT, so a crash mid-update replays back to
        //    the previous committed boundary instead of leaving a
        //    half-written five-table state. An error aborts the batch, which
        //    marks the store degraded (memory may be ahead of disk).
        // ------------------------------------------------------------------
        let groups: Vec<(PairKey, PairOccurrences)> = by_pair.into_iter().collect();
        self.store.begin_batch()?;
        match self.write_batch(&work, &groups, skipped_events, new_pairs) {
            Ok(stats) => {
                self.store.commit_batch()?;
                // Give the backend its maintenance window now that the
                // batch is durable: a disk store past its write threshold
                // compacts the committed state into immutable runs here.
                self.store.maintain()?;
                Ok(stats)
            }
            Err(e) => {
                self.store.abort_batch();
                Err(e)
            }
        }
    }

    /// Phase 5 of [`Indexer::index_log`]: all table writes of one batch
    /// update. Runs inside an open store batch; the caller commits on `Ok`
    /// and aborts on `Err`.
    fn write_batch(
        &mut self,
        work: &[TraceWork],
        groups: &[(PairKey, PairOccurrences)],
        skipped_events: usize,
        new_pairs: usize,
    ) -> Result<UpdateStats> {
        let store = self.store.as_ref();

        // 5a. Seq: append only the new tail of each trace, plus the new
        //     tail's attribute entries (no-op for attribute-free traces).
        for r in self.executor.map(work, |w| {
            append_seq(store, w.trace, &w.full[w.new_from..])?;
            append_attrs(store, w.trace, &w.new_attrs)
        }) {
            r?;
        }

        // 5b. Index postings, grouped by pair key → one append per
        //     (pair, partition). Parallel across pair keys: each key is
        //     written by exactly one worker. Appends sort the batch's
        //     postings by trace first: per-trace timestamp order is kept
        //     (stable sort) and every appended chunk gets sorted directory
        //     first-keys, which the auditor relies on.
        let period = self.config.partition_period;
        let encode = |occs: &[(TraceId, Ts, Ts)]| -> Vec<u8> {
            let mut ps: Vec<Posting> =
                occs.iter().map(|&(t, a, b)| Posting { trace: t, ts_a: a, ts_b: b }).collect();
            ps.sort_by_key(|p| p.trace);
            encode_postings_v2(&ps)
        };
        let max_parts = self.executor.map(groups, |(key, occs)| -> Result<u32> {
            let mut max_part = 0u32;
            match period {
                None => {
                    store.append(INDEX, &tables::pair_key_bytes(*key), &encode(occs))?;
                }
                Some(p) => {
                    // Partition by completion timestamp.
                    let mut parts: FxHashMap<u32, PairOccurrences> = FxHashMap::default();
                    for &occ in occs {
                        let part = ((occ.2 / p) as u32).min(MAX_PARTITIONS - 1);
                        max_part = max_part.max(part);
                        parts.entry(part).or_default().push(occ);
                    }
                    for (part, occs) in parts {
                        store.append(
                            index_partition(part),
                            &tables::pair_key_bytes(*key),
                            &encode(&occs),
                        )?;
                    }
                }
            }
            Ok(max_part)
        });
        let mut used_max = 0u32;
        for r in max_parts {
            used_max = used_max.max(r?);
        }
        if period.is_some() {
            self.num_partitions = self.num_partitions.max(used_max + 1);
        }

        // 5c. LastChecked: one merge per pair with the max completion per
        //     trace in this batch.
        let lc_updates: Vec<(PairKey, Vec<(TraceId, Ts)>)> = groups
            .iter()
            .map(|(key, occs)| {
                let mut per_trace: FxHashMap<TraceId, Ts> = FxHashMap::default();
                for &(t, _, b) in occs {
                    let e = per_trace.entry(t).or_insert(b);
                    *e = (*e).max(b);
                }
                (*key, per_trace.into_iter().collect())
            })
            .collect();
        let results =
            self.executor.map(&lc_updates, |(key, ups)| merge_last_checked(store, *key, ups));
        for r in results {
            r?;
        }

        // 5d. Count / ReverseCount aggregates.
        let mut fwd: FxHashMap<Activity, Vec<(Activity, u64, u64)>> = FxHashMap::default();
        let mut rev: FxHashMap<Activity, Vec<(Activity, u64, u64)>> = FxHashMap::default();
        for (key, occs) in groups {
            let (a, b) = Activity::unpack_pair(*key);
            let dcount = occs.len() as u64;
            let dsum: u64 = occs.iter().map(|&(_, x, y)| y - x).sum();
            fwd.entry(a).or_default().push((b, dsum, dcount));
            rev.entry(b).or_default().push((a, dsum, dcount));
        }
        let fwd: Vec<_> = fwd.into_iter().collect();
        let rev: Vec<_> = rev.into_iter().collect();
        for r in self.executor.map(&fwd, |(a, deltas)| merge_counts(store, COUNT, *a, deltas)) {
            r?;
        }
        for r in self.executor.map(&rev, |(b, deltas)| merge_counts(store, RCOUNT, *b, deltas)) {
            r?;
        }

        // 5e. Persist catalog + partition bookkeeping, and announce the
        //     mutation to query-side caches via the generation counter.
        self.catalog.save(store)?;
        if period.is_some() {
            put_meta(store, META_NUM_PARTITIONS, &self.num_partitions.to_string())?;
        }
        let stats = UpdateStats {
            traces: work.len(),
            new_events: work.iter().map(|w| w.full.len() - w.new_from).sum(),
            skipped_events,
            new_pairs,
        };
        if stats.new_events > 0 || stats.new_pairs > 0 {
            bump_index_generation(store)?;
        }

        Ok(stats)
    }

    /// Retire old index partitions (§3.1.3: "a separate index table can be
    /// used for different periods" precisely so that old periods can be
    /// dropped wholesale). Deletes every partition whose period ends at or
    /// before `before` and records the new lower bound so queries skip
    /// them. Returns the number of partitions dropped. No-op (Ok(0)) when
    /// partitioning is disabled.
    pub fn drop_partitions_before(&mut self, before: Ts) -> Result<usize> {
        let Some(period) = self.config.partition_period else { return Ok(0) };
        let min_kept: u32 = get_meta(self.store.as_ref(), META_MIN_PARTITION)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        // Partition i covers [i·period, (i+1)·period).
        let new_min = ((before / period) as u32).min(self.num_partitions);
        if new_min <= min_kept {
            return Ok(0);
        }
        for p in min_kept..new_min {
            let table = index_partition(p);
            for (key, _) in self.store.scan(table) {
                self.store.delete(table, &key)?;
            }
        }
        put_meta(self.store.as_ref(), META_MIN_PARTITION, &new_min.to_string())?;
        bump_index_generation(self.store.as_ref())?;
        Ok((new_min - min_kept) as usize)
    }

    /// Prune completed traces (§3.1.3): drop their `Seq` rows and their
    /// entries inside `LastChecked` rows. Index postings are kept — pruned
    /// traces remain queryable; they just cannot be *extended* any more.
    /// Returns the number of traces actually pruned.
    pub fn prune_traces(&mut self, names: &[&str]) -> Result<usize> {
        let ids: FxHashSet<TraceId> = names.iter().filter_map(|n| self.catalog.trace(n)).collect();
        if ids.is_empty() {
            return Ok(0);
        }
        let mut pruned = 0;
        let mut changed = false;
        for &id in &ids {
            if self.store.delete(SEQ, &tables::seq_key(id))? {
                pruned += 1;
                changed = true;
            }
            // The Attrs row shadows the Seq row; drop it alongside.
            if self.store.delete(ATTRS, &tables::seq_key(id))? {
                changed = true;
            }
        }
        // Rewrite LastChecked rows without the pruned traces.
        for (key, _) in self.store.scan(LAST_CHECKED) {
            let key: [u8; 8] = key.as_ref().try_into().map_err(|_| CoreError::Corrupt {
                table: "LastChecked",
                message: "key is not 8 bytes".into(),
            })?;
            let pk = PairKey::from_le_bytes(key);
            let entries = read_last_checked(self.store.as_ref(), pk)?;
            let kept: Vec<_> =
                entries.iter().copied().filter(|e| !ids.contains(&e.trace)).collect();
            if kept.len() != entries.len() {
                changed = true;
                if kept.is_empty() {
                    self.store.delete(LAST_CHECKED, &tables::pair_key_bytes(pk))?;
                } else {
                    self.store.put(
                        LAST_CHECKED,
                        &tables::pair_key_bytes(pk),
                        &tables::encode_last_checked(&kept),
                    )?;
                }
            }
        }
        if changed {
            bump_index_generation(self.store.as_ref())?;
        }
        Ok(pruned)
    }
}

/// The persisted configuration, or `None` for a never-indexed store. A
/// `config:method` key, written by builds that let the STNM pair-creation
/// flavor be chosen, is ignored: every flavor creates the same pairs.
fn read_config<S: KvStore>(store: &S) -> Option<IndexConfig> {
    let policy = Policy::from_name(&get_meta(store, META_POLICY)?)?;
    let partition_period = match get_meta(store, META_PERIOD) {
        Some(s) => Some(s.parse().ok()?),
        None => None,
    };
    Some(IndexConfig { policy, threads: 0, partition_period })
}

fn write_config<S: KvStore>(store: &S, config: &IndexConfig) -> Result<()> {
    // Format tag first: these puts are not one batch, and a crash between
    // them must never leave a policy without a format tag — that is what a
    // store from before the tag existed looks like, and it is refused.
    put_meta(store, META_POSTING_FORMAT, PostingFormat::V2.name())?;
    put_meta(store, META_POLICY, config.policy.name())?;
    if let Some(p) = config.partition_period {
        put_meta(store, META_PERIOD, &p.to_string())?;
    }
    Ok(())
}

/// The posting-row layout tag persisted in a store's `Meta`. A store that
/// holds an index configuration but no format key was written before the
/// key existed and is v1 by construction (as is an unrecognised tag: it is
/// not a layout this build can read); a never-indexed store is v2, the
/// layout its first batch will be written in.
pub fn posting_format<S: KvStore>(store: &S) -> PostingFormat {
    match get_meta(store, META_POSTING_FORMAT) {
        Some(tag) => PostingFormat::from_name(&tag).unwrap_or(PostingFormat::V1),
        None if get_meta(store, META_POLICY).is_some() => PostingFormat::V1,
        None => PostingFormat::V2,
    }
}

/// Refuse a store whose `Index` rows are in the legacy v1 layout, with a
/// [`CoreError::ConfigMismatch`] that names the remedy (re-index from the
/// source log). Every open path — [`Indexer::with_store`],
/// [`Indexer::open`], the query engine — calls this first, so a legacy
/// store fails once, up front, rather than as a corrupt-row error
/// mid-query.
pub fn check_posting_format<S: KvStore>(store: &S) -> Result<()> {
    match posting_format(store) {
        PostingFormat::V1 => Err(v1_unreadable()),
        PostingFormat::V2 => Ok(()),
    }
}

/// The pattern-matching policy the store's pairs were created under.
/// Un-indexed stores read as [`Policy::SkipTillNextMatch`] (the default the
/// indexer would write on its first batch). Query layers use this to reject
/// queries the stored pairs cannot answer — e.g. rich skip-till patterns
/// over an SC index, whose adjacent-only pairs would miss candidates.
pub fn index_policy<S: KvStore>(store: &S) -> Policy {
    get_meta(store, META_POLICY)
        .and_then(|s| Policy::from_name(&s))
        .unwrap_or(Policy::SkipTillNextMatch)
}

/// Monotonic counter bumped by every mutation of the indexed contents —
/// batch updates that accepted events or pairs, partition drops, and trace
/// pruning. Query-side caches key entry validity on it: an entry written at
/// generation `g` is served only while `index_generation` still reads `g`.
pub fn index_generation<S: KvStore>(store: &S) -> u64 {
    get_meta(store, META_GENERATION).and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// Bump [`index_generation`], invalidating every generation-stamped cache
/// entry. Public for maintenance paths that mutate indexed contents outside
/// the indexer — e.g. retention dropping expired runs from a disk store.
pub fn bump_index_generation<S: KvStore>(store: &S) -> Result<()> {
    put_meta(store, META_GENERATION, &(index_generation(store) + 1).to_string())
}

/// The `Index` tables a query should consult, in partition order. Reads the
/// partition bookkeeping persisted by the indexer.
pub fn active_index_tables<S: KvStore>(store: &S) -> Vec<TableId> {
    match get_meta(store, META_NUM_PARTITIONS).and_then(|s| s.parse::<u32>().ok()) {
        Some(n) if n > 0 => {
            let min = get_meta(store, META_MIN_PARTITION)
                .and_then(|s| s.parse::<u32>().ok())
                .unwrap_or(0)
                .min(n);
            (min..n).map(index_partition).collect()
        }
        _ => vec![INDEX],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::read_postings;
    use seqdet_log::EventLogBuilder;

    fn small_log() -> EventLog {
        let mut b = EventLogBuilder::new();
        // Table 3's running trace plus a second trace.
        for (act, ts) in [("A", 1), ("A", 2), ("B", 3), ("A", 4), ("B", 5), ("A", 6)] {
            b.add("t1", act, ts);
        }
        b.add("t2", "B", 1).add("t2", "A", 2);
        b.build()
    }

    fn postings_of(ix: &Indexer, a: &str, b: &str) -> Vec<tables::Posting> {
        let key = Activity::pair_key(
            ix.catalog().activity(a).unwrap(),
            ix.catalog().activity(b).unwrap(),
        );
        let mut all = Vec::new();
        for t in active_index_tables(ix.store().as_ref()) {
            all.extend(read_postings(ix.store().as_ref(), t, key).unwrap());
        }
        all.sort();
        all
    }

    #[test]
    fn full_index_matches_table3() {
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        let stats = ix.index_log(&small_log()).unwrap();
        assert_eq!(stats.traces, 2);
        assert_eq!(stats.new_events, 8);
        assert_eq!(stats.skipped_events, 0);
        // t1 pairs: (A,A)x2,(B,A)x2,(B,B)x1,(A,B)x2 = 7; t2: (B,A)x1 = 8
        assert_eq!(stats.new_pairs, 8);
        let t1 = ix.catalog().trace("t1").unwrap();
        let t2 = ix.catalog().trace("t2").unwrap();
        let ab = postings_of(&ix, "A", "B");
        assert_eq!(
            ab,
            vec![
                tables::Posting { trace: t1, ts_a: 1, ts_b: 3 },
                tables::Posting { trace: t1, ts_a: 4, ts_b: 5 },
            ]
        );
        let ba = postings_of(&ix, "B", "A");
        assert!(ba.contains(&tables::Posting { trace: t2, ts_a: 1, ts_b: 2 }));
        assert_eq!(ba.len(), 3);
    }

    #[test]
    fn counts_reflect_pairs() {
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&small_log()).unwrap();
        let a = ix.catalog().activity("A").unwrap();
        let b = ix.catalog().activity("B").unwrap();
        let ab = tables::pair_count(ix.store().as_ref(), a, b).unwrap().unwrap();
        assert_eq!(ab.total_completions, 2);
        assert_eq!(ab.sum_duration, (3 - 1) + (5 - 4));
        // ReverseCount row of B holds the (A,B) aggregate keyed by A.
        let rev = tables::read_counts(ix.store().as_ref(), RCOUNT, b).unwrap();
        let e = rev.iter().find(|e| e.partner == a).unwrap();
        assert_eq!(e.total_completions, 2);
    }

    #[test]
    fn incremental_update_is_equivalent_to_bulk() {
        // Split the same log into two batches; the final index must equal
        // the bulk-indexed one.
        let mut bulk = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        bulk.index_log(&small_log()).unwrap();

        let mut inc = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        let mut b1 = EventLogBuilder::new();
        b1.add("t1", "A", 1).add("t1", "A", 2).add("t1", "B", 3);
        b1.add("t2", "B", 1);
        inc.index_log(&b1.build()).unwrap();
        let mut b2 = EventLogBuilder::new();
        b2.add("t1", "A", 4).add("t1", "B", 5).add("t1", "A", 6);
        b2.add("t2", "A", 2);
        inc.index_log(&b2.build()).unwrap();

        for (x, y) in [("A", "A"), ("A", "B"), ("B", "A"), ("B", "B")] {
            assert_eq!(postings_of(&inc, x, y), postings_of(&bulk, x, y), "pair ({x},{y})");
        }
        // Counts agree too.
        let a = inc.catalog().activity("A").unwrap();
        let b = inc.catalog().activity("B").unwrap();
        assert_eq!(
            tables::pair_count(inc.store().as_ref(), a, b).unwrap(),
            tables::pair_count(bulk.store().as_ref(), a, b).unwrap()
        );
    }

    #[test]
    fn replaying_the_same_batch_is_a_noop() {
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        let log = small_log();
        let s1 = ix.index_log(&log).unwrap();
        let s2 = ix.index_log(&log).unwrap();
        assert_eq!(s2.new_events, 0);
        assert_eq!(s2.skipped_events, 8);
        assert_eq!(s2.new_pairs, 0);
        assert!(s1.new_pairs > 0);
        assert_eq!(postings_of(&ix, "A", "B").len(), 2);
    }

    #[test]
    fn sc_incremental_shared_event_pair_is_not_lost() {
        // Trace A@1 A@2 then batch 2 adds A@3: SC pairs (1,2) then (2,3).
        // The (2,3) pair's FIRST timestamp equals the previous completion —
        // the case where filtering on ts_a (paper's line 9) would drop it.
        let mut ix = Indexer::new(IndexConfig::new(Policy::StrictContiguity));
        let mut b1 = EventLogBuilder::new();
        b1.add("t", "A", 1).add("t", "A", 2);
        ix.index_log(&b1.build()).unwrap();
        let mut b2 = EventLogBuilder::new();
        b2.add("t", "A", 3);
        let stats = ix.index_log(&b2.build()).unwrap();
        assert_eq!(stats.new_pairs, 1);
        assert_eq!(postings_of(&ix, "A", "A").len(), 2);
    }

    #[test]
    fn out_of_order_duplicate_events_are_skipped() {
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        let mut b1 = EventLogBuilder::new();
        b1.add("t", "A", 10);
        ix.index_log(&b1.build()).unwrap();
        let mut b2 = EventLogBuilder::new();
        b2.add("t", "B", 5).add("t", "B", 10).add("t", "B", 11);
        let stats = ix.index_log(&b2.build()).unwrap();
        assert_eq!(stats.skipped_events, 2);
        assert_eq!(stats.new_events, 1);
        assert_eq!(postings_of(&ix, "A", "B").len(), 1);
    }

    #[test]
    fn config_mismatch_is_rejected_on_reopen() {
        let ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        let store = ix.store();
        let err = Indexer::with_store(store.clone(), IndexConfig::new(Policy::StrictContiguity));
        assert!(matches!(err, Err(CoreError::ConfigMismatch { .. })));
        // Same config reopens fine; open() recovers it without being told.
        assert!(
            Indexer::with_store(store.clone(), IndexConfig::new(Policy::SkipTillNextMatch)).is_ok()
        );
        let reopened = Indexer::open(store).unwrap();
        assert_eq!(reopened.config().policy, Policy::SkipTillNextMatch);
    }

    #[test]
    fn stored_pair_flavor_is_ignored_on_reopen() {
        // Builds that let the STNM pair-creation flavor be chosen wrote it
        // to Meta. Every flavor creates the same pairs, so such a store
        // reopens by both paths, and its next batch lands as in a bulk build.
        let mut bulk = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        bulk.index_log(&small_log()).unwrap();
        let mut first = EventLogBuilder::new();
        first.add("t1", "A", 1).add("t1", "A", 2).add("t1", "B", 3);
        let mut second = EventLogBuilder::new();
        second.add("t1", "A", 4).add("t1", "B", 5).add("t1", "A", 6);
        second.add("t2", "B", 1).add("t2", "A", 2);
        let (first, second) = (first.build(), second.build());
        let reopen: [fn(Arc<MemStore>) -> Result<Indexer>; 2] = [Indexer::open, |store| {
            Indexer::with_store(store, IndexConfig::new(Policy::SkipTillNextMatch))
        }];
        for reopen in reopen {
            let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
            ix.index_log(&first).unwrap();
            put_meta(ix.store().as_ref(), "config:method", "State").unwrap();
            let mut ix = reopen(ix.store()).unwrap();
            ix.index_log(&second).unwrap();
            for (a, b) in [("A", "A"), ("A", "B"), ("B", "A"), ("B", "B")] {
                assert_eq!(postings_of(&ix, a, b), postings_of(&bulk, a, b), "({a},{b})");
            }
        }
    }

    #[test]
    fn open_empty_store_fails() {
        let store = Arc::new(MemStore::new());
        assert!(Indexer::<MemStore>::open(store).is_err());
    }

    #[test]
    fn legacy_posting_format_is_refused_at_open() {
        // A store whose Meta names v1, and one indexed before the format
        // key existed (a policy but no format key), are both refused with
        // the typed error naming the remedy — by every open path.
        let legacy = |format: Option<&str>| {
            let store = Arc::new(MemStore::new());
            put_meta(store.as_ref(), META_POLICY, Policy::SkipTillNextMatch.name()).unwrap();
            if let Some(f) = format {
                put_meta(store.as_ref(), META_POSTING_FORMAT, f).unwrap();
            }
            store
        };
        for store in [legacy(Some("v1")), legacy(None)] {
            assert_eq!(posting_format(store.as_ref()), PostingFormat::V1);
            let cfg = IndexConfig::new(Policy::SkipTillNextMatch);
            for err in [
                Indexer::open(store.clone()).err().unwrap(),
                Indexer::with_store(store.clone(), cfg).err().unwrap(),
            ] {
                assert!(matches!(err, CoreError::ConfigMismatch { .. }), "{err}");
                assert!(err.to_string().contains("re-index from the source log"), "{err}");
            }
        }
        // A never-indexed store opens and is created as v2.
        let fresh = Arc::new(MemStore::new());
        assert!(check_posting_format(fresh.as_ref()).is_ok());
        Indexer::with_store(fresh.clone(), IndexConfig::new(Policy::SkipTillNextMatch)).unwrap();
        assert_eq!(get_meta(fresh.as_ref(), META_POSTING_FORMAT).as_deref(), Some("v2"));
    }

    #[test]
    fn catalog_survives_reopen() {
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&small_log()).unwrap();
        let store = ix.store();
        let re = Indexer::open(store).unwrap();
        assert_eq!(re.catalog().num_traces(), 2);
        assert!(re.catalog().activity("A").is_some());
    }

    #[test]
    fn partitioned_index_spreads_postings_and_unions_back() {
        let cfg = IndexConfig::new(Policy::SkipTillNextMatch).with_partition_period(3);
        let mut part = Indexer::new(cfg);
        part.index_log(&small_log()).unwrap();
        let tabs = active_index_tables(part.store().as_ref());
        assert!(tabs.len() > 1, "expected multiple partitions, got {tabs:?}");
        // Union over partitions equals the unpartitioned index.
        let mut flat = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        flat.index_log(&small_log()).unwrap();
        for (x, y) in [("A", "A"), ("A", "B"), ("B", "A"), ("B", "B")] {
            assert_eq!(postings_of(&part, x, y), postings_of(&flat, x, y), "pair ({x},{y})");
        }
    }

    #[test]
    fn dropping_old_partitions_retires_their_postings() {
        let cfg = IndexConfig::new(Policy::SkipTillNextMatch).with_partition_period(10);
        let mut ix = Indexer::new(cfg);
        let mut b = EventLogBuilder::new();
        for ts in 1..40u64 {
            b.add("t", if ts % 2 == 0 { "A" } else { "B" }, ts);
        }
        ix.index_log(&b.build()).unwrap();
        let before = postings_of(&ix, "B", "A").len();
        assert!(before > 10);
        // Retire everything completed before ts 20 (partitions 0 and 1).
        let dropped = ix.drop_partitions_before(20).unwrap();
        assert_eq!(dropped, 2);
        let after = postings_of(&ix, "B", "A");
        assert!(!after.is_empty());
        assert!(after.len() < before);
        assert!(after.iter().all(|p| p.ts_b >= 20), "old postings must be gone");
        // Idempotent; and a smaller bound is a no-op.
        assert_eq!(ix.drop_partitions_before(20).unwrap(), 0);
        assert_eq!(ix.drop_partitions_before(5).unwrap(), 0);
        // Unpartitioned indexes are unaffected.
        let mut flat = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        flat.index_log(&small_log()).unwrap();
        assert_eq!(flat.drop_partitions_before(100).unwrap(), 0);
    }

    #[test]
    fn prune_removes_seq_and_last_checked_entries() {
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&small_log()).unwrap();
        let t1 = ix.catalog().trace("t1").unwrap();
        let pruned = ix.prune_traces(&["t1", "unknown"]).unwrap();
        assert_eq!(pruned, 1);
        assert!(read_seq(ix.store().as_ref(), t1).unwrap().is_empty());
        // No LastChecked row mentions t1 any more…
        for (_, row) in ix.store().scan(LAST_CHECKED) {
            for e in tables::decode_last_checked(&row).unwrap() {
                assert_ne!(e.trace, t1);
            }
        }
        // …but the postings survive (pruned traces stay queryable).
        assert!(!postings_of(&ix, "A", "B").is_empty());
    }

    #[test]
    fn generation_tracks_every_mutation_kind() {
        let cfg = IndexConfig::new(Policy::SkipTillNextMatch).with_partition_period(3);
        let mut ix = Indexer::new(cfg);
        let store = ix.store();
        assert_eq!(index_generation(store.as_ref()), 0);
        ix.index_log(&small_log()).unwrap();
        let g1 = index_generation(store.as_ref());
        assert_eq!(g1, 1);
        // Replaying the same batch accepts nothing — generation must hold, so
        // warm caches survive no-op updates.
        ix.index_log(&small_log()).unwrap();
        assert_eq!(index_generation(store.as_ref()), g1);
        // Partition drop and prune each advance it.
        assert!(ix.drop_partitions_before(3).unwrap() > 0);
        let g2 = index_generation(store.as_ref());
        assert!(g2 > g1);
        assert_eq!(ix.prune_traces(&["t2"]).unwrap(), 1);
        assert!(index_generation(store.as_ref()) > g2);
        // Pruning nothing is generation-neutral.
        let g3 = index_generation(store.as_ref());
        ix.prune_traces(&["unknown"]).unwrap();
        assert_eq!(index_generation(store.as_ref()), g3);
    }

    #[test]
    fn attrs_are_indexed_incrementally_and_pruned() {
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        let mut b1 = EventLogBuilder::new();
        b1.add("t", "A", 1).attr("amount", 150);
        b1.add("t", "B", 2);
        ix.index_log(&b1.build()).unwrap();
        // Batch 2 resends (A,1) with a *different* attr value — the event is
        // a duplicate, so its attrs must be dropped with it — and extends
        // the trace with an attributed C.
        let mut b2 = EventLogBuilder::new();
        b2.add("t", "A", 1).attr("amount", 999);
        b2.add("t", "C", 3).attr("amount", -5).attr("region", 2);
        ix.index_log(&b2.build()).unwrap();
        let t = ix.catalog().trace("t").unwrap();
        let amount = ix.catalog().attr("amount").unwrap();
        let region = ix.catalog().attr("region").unwrap();
        let row = tables::read_attrs(ix.store().as_ref(), t).unwrap();
        assert_eq!(row, [(1, amount, 150), (3, amount, -5), (3, region, 2)]);
        // Attr catalog survives reopen.
        let re = Indexer::open(ix.store()).unwrap();
        assert_eq!(re.catalog().attr("region"), Some(region));
        // Pruning the trace drops its Attrs row too.
        assert_eq!(ix.prune_traces(&["t"]).unwrap(), 1);
        assert!(tables::read_attrs(ix.store().as_ref(), t).unwrap().is_empty());
    }

    #[test]
    fn single_threaded_config_matches_parallel() {
        let mut seq = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch).with_threads(1));
        let mut par = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch).with_threads(4));
        seq.index_log(&small_log()).unwrap();
        par.index_log(&small_log()).unwrap();
        for (x, y) in [("A", "A"), ("A", "B"), ("B", "A"), ("B", "B")] {
            assert_eq!(postings_of(&seq, x, y), postings_of(&par, x, y));
        }
    }
}
