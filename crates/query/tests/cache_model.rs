//! Exhaustive-interleaving model check of the [`PostingCache`]
//! generation-stamp protocol (a loom-style test, hand-rolled because the
//! workspace vendors no model-checking crate).
//!
//! The system under test is the *real* `PostingCache`; only the store and
//! the threads are modeled. The store is reduced to two cells:
//!
//! * `value` — stands in for the posting rows; bumped by one per index
//!   update, so "the postings as of generation g" is simply the number `g`.
//! * `gen` — the index generation counter (`META_GENERATION`).
//!
//! The **indexer** thread performs updates; the correct protocol writes the
//! rows first and bumps the generation after (`value += 1; gen += 1`), which
//! is the order `Indexer::apply` / `bump_generation` use. The **reader**
//! threads follow the query engine's snapshot discipline: read `gen` once,
//! then serve from the cache only on a stamp match, else read the store and
//! insert under the snapshot generation.
//!
//! Every interleaving of those steps is explored by deterministic replay:
//! a schedule is a sequence of thread ids, and the tree of all schedules is
//! walked depth-first, re-running each prefix from a fresh world (the steps
//! are deterministic, so replay reaches the same state every time).
//!
//! **Invariant:** a reader that snapshots generation `g` must observe
//! postings at least as new as `g` — `observed >= g`. A cached row from
//! *before* an update must never be served to a reader *after* it. The
//! correct write order satisfies this in every interleaving; the buggy
//! order (generation bumped before the rows are written) is caught, and
//! caught specifically on a cache-hit path.

use seqdet_log::TraceId;
use seqdet_query::{PostingCache, PostingList};
use seqdet_storage::TableId;
use std::sync::Arc;

const TABLE: TableId = TableId(1);
const KEY: u64 = 7;

/// One indexer step. An update is two steps; their order is the protocol
/// under test.
#[derive(Clone, Copy, PartialEq)]
enum WriterStep {
    WriteValue,
    BumpGen,
}

/// `updates` index updates in the given per-update step order.
fn writer_steps(order: [WriterStep; 2], updates: usize) -> Vec<WriterStep> {
    let mut steps = Vec::with_capacity(updates * 2);
    for _ in 0..updates {
        steps.extend_from_slice(&order);
    }
    steps
}

/// What one reader saw by the time it finished.
#[derive(Clone, Copy, Default)]
struct ReaderResult {
    snapshot: u64,
    observed: u64,
    via_cache: bool,
}

/// Modeled store plus the real cache.
struct World {
    value: u64,
    gen: u64,
    cache: PostingCache,
}

impl World {
    fn fresh() -> Self {
        World { value: 0, gen: 0, cache: PostingCache::new(64) }
    }
}

fn grouped(value: u64) -> Arc<PostingList> {
    Arc::new(PostingList::from_postings(vec![(TraceId(0), value, value + 1)]))
}

fn ungroup(g: &PostingList) -> u64 {
    g.iter().next().map_or(u64::MAX, |(_, ts_a, _)| ts_a)
}

/// Reader progress: 0 = snapshot, 1 = cache probe, 2 = store read,
/// 3 = cache fill. A cache hit finishes at step 1.
struct Reader {
    phase: u8,
    snapshot: u64,
    store_read: u64,
    result: ReaderResult,
}

impl Reader {
    fn new() -> Self {
        Reader { phase: 0, snapshot: 0, store_read: 0, result: ReaderResult::default() }
    }

    fn step(&mut self, world: &mut World) {
        match self.phase {
            0 => {
                self.snapshot = world.gen;
                self.phase = 1;
            }
            1 => match world.cache.get(TABLE, KEY, self.snapshot) {
                Some(g) => {
                    self.result = ReaderResult {
                        snapshot: self.snapshot,
                        observed: ungroup(&g),
                        via_cache: true,
                    };
                    self.phase = 4;
                }
                None => self.phase = 2,
            },
            2 => {
                self.store_read = world.value;
                self.phase = 3;
            }
            3 => {
                world.cache.insert(TABLE, KEY, self.snapshot, grouped(self.store_read));
                self.result = ReaderResult {
                    snapshot: self.snapshot,
                    observed: self.store_read,
                    via_cache: false,
                };
                self.phase = 4;
            }
            _ => {}
        }
    }

    fn done(&self) -> bool {
        self.phase >= 4
    }
}

/// Outcome of replaying one schedule prefix.
struct Replay {
    done: [bool; 3],
    readers: [ReaderResult; 2],
}

/// Deterministically replay `schedule` (thread 0 = writer, 1..=2 = readers)
/// from a fresh world.
fn replay(writer: &[WriterStep], schedule: &[usize]) -> Replay {
    let mut world = World::fresh();
    let mut wi = 0usize;
    let mut readers = [Reader::new(), Reader::new()];
    for &t in schedule {
        match t {
            0 => {
                match writer[wi] {
                    WriterStep::WriteValue => world.value += 1,
                    WriterStep::BumpGen => world.gen += 1,
                }
                wi += 1;
            }
            r => readers[r - 1].step(&mut world),
        }
    }
    Replay {
        done: [wi >= writer.len(), readers[0].done(), readers[1].done()],
        readers: [readers[0].result, readers[1].result],
    }
}

/// Aggregate over the whole interleaving tree.
#[derive(Default)]
struct Outcomes {
    schedules: u64,
    cache_hits: u64,
    violations: u64,
    cache_served_violations: u64,
    example: Option<(u64, u64, bool)>,
}

fn explore(writer: &[WriterStep]) -> Outcomes {
    let mut out = Outcomes::default();
    let mut prefix = Vec::new();
    dfs(writer, &mut prefix, &mut out);
    out
}

fn dfs(writer: &[WriterStep], prefix: &mut Vec<usize>, out: &mut Outcomes) {
    let state = replay(writer, prefix);
    if state.done.iter().all(|&d| d) {
        out.schedules += 1;
        for r in &state.readers {
            if r.via_cache {
                out.cache_hits += 1;
            }
            if r.observed < r.snapshot {
                out.violations += 1;
                if r.via_cache {
                    out.cache_served_violations += 1;
                }
                out.example.get_or_insert((r.snapshot, r.observed, r.via_cache));
            }
        }
        return;
    }
    for t in 0..3 {
        if !state.done[t] {
            prefix.push(t);
            dfs(writer, prefix, out);
            prefix.pop();
        }
    }
}

/// The shipped protocol — rows written before the generation bump — never
/// serves a reader postings older than its snapshot generation, under every
/// interleaving of one updating indexer and two readers.
#[test]
fn correct_write_order_never_serves_stale_postings() {
    for updates in 1..=2 {
        let writer = writer_steps([WriterStep::WriteValue, WriterStep::BumpGen], updates);
        let out = explore(&writer);
        assert!(out.schedules > 100, "model explored only {} schedules", out.schedules);
        assert_eq!(
            out.violations, 0,
            "stale serve under correct ordering ({updates} update(s)): {:?}",
            out.example
        );
        // The model has teeth: some interleavings do exercise the cache-hit
        // path (reader B served from reader A's fill).
        assert!(out.cache_hits > 0, "no interleaving ever hit the cache");
    }
}

/// The buggy ordering — generation bumped *before* the rows are written —
/// is caught: some interleaving snapshots the new generation, reads the old
/// rows, and the cache then serves those stale postings under the new
/// generation's stamp.
#[test]
fn generation_bump_before_write_is_caught() {
    let writer = writer_steps([WriterStep::BumpGen, WriterStep::WriteValue], 1);
    let out = explore(&writer);
    assert!(out.violations > 0, "model failed to catch the inverted write order");
    assert!(
        out.cache_served_violations > 0,
        "no stale posting list was ever served from the cache itself"
    );
}
