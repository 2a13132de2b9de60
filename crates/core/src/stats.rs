//! Index introspection: sizes of every table in a store.
//!
//! §3.1.3 warns that "the index may grow very large"; these statistics make
//! that growth observable (the CLI's `info` command and the ablation
//! benches report them). Collection scans the store, so it is a diagnostic
//! operation, not a query-path one.

use crate::decode::decode_postings_v2_into;
use crate::indexer::active_index_tables;
use crate::tables::{COUNT, INDEX, LAST_CHECKED, RCOUNT, SEQ};
use crate::Result;
use seqdet_storage::KvStore;

/// Sizes of the five tables of one indexed store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Rows in `Seq` (open/known traces).
    pub seq_rows: usize,
    /// Total bytes across `Seq` rows (12 per stored event).
    pub seq_bytes: usize,
    /// Distinct pair keys across all active `Index` partitions.
    pub index_rows: usize,
    /// Total postings across all active `Index` partitions.
    pub postings: usize,
    /// Total bytes across `Index` rows (block-compressed postings).
    pub index_bytes: usize,
    /// Rows in `Count` (activities appearing first in some pair).
    pub count_rows: usize,
    /// Rows in `ReverseCount`.
    pub reverse_count_rows: usize,
    /// Rows in `LastChecked` (pairs with at least one completion).
    pub last_checked_rows: usize,
    /// Active `Index` partitions (1 when partitioning is off).
    pub partitions: usize,
}

impl IndexStats {
    /// Collect statistics by scanning `store`.
    pub fn collect<S: KvStore>(store: &S) -> Result<Self> {
        let mut stats = IndexStats {
            seq_rows: store.table_len(SEQ),
            count_rows: store.table_len(COUNT),
            reverse_count_rows: store.table_len(RCOUNT),
            last_checked_rows: store.table_len(LAST_CHECKED),
            ..IndexStats::default()
        };
        for (_, row) in store.scan(SEQ) {
            stats.seq_bytes += row.len();
        }
        let tables = active_index_tables(store);
        stats.partitions = tables.len();
        let mut postings = Vec::new();
        for t in tables {
            for (_, row) in store.scan(t) {
                stats.index_rows += 1;
                stats.index_bytes += row.len();
                postings.clear();
                decode_postings_v2_into(&row, &mut postings)?;
                stats.postings += postings.len();
            }
        }
        // When partitioning is off, `active_index_tables` returns [INDEX];
        // a store that was never partitioned reports 1 partition.
        if stats.index_rows == 0 && store.table_len(INDEX) == 0 {
            stats.partitions = stats.partitions.min(1);
        }
        Ok(stats)
    }

    /// Mean postings per indexed pair (0 when empty).
    pub fn avg_postings_per_pair(&self) -> f64 {
        if self.index_rows == 0 {
            0.0
        } else {
            self.postings as f64 / self.index_rows as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexConfig, Indexer, Policy};
    use seqdet_log::EventLogBuilder;

    fn indexed(partitioned: bool) -> Indexer {
        let mut b = EventLogBuilder::new();
        for (act, ts) in [("A", 1), ("A", 2), ("B", 3), ("A", 4), ("B", 5), ("A", 6)] {
            b.add("t1", act, ts);
        }
        b.add("t2", "B", 1).add("t2", "A", 2);
        let mut cfg = IndexConfig::new(Policy::SkipTillNextMatch);
        if partitioned {
            cfg = cfg.with_partition_period(3);
        }
        let mut ix = Indexer::new(cfg);
        ix.index_log(&b.build()).unwrap();
        ix
    }

    #[test]
    fn counts_match_known_index_contents() {
        let ix = indexed(false);
        let s = IndexStats::collect(ix.store().as_ref()).unwrap();
        assert_eq!(s.seq_rows, 2);
        assert_eq!(s.seq_bytes, 8 * 12);
        // Pairs present: (A,A),(A,B),(B,A),(B,B) = 4 keys; 8 postings total.
        assert_eq!(s.index_rows, 4);
        assert_eq!(s.postings, 8);
        assert_eq!(s.partitions, 1);
        assert_eq!(s.count_rows, 2);
        assert_eq!(s.reverse_count_rows, 2);
        assert_eq!(s.last_checked_rows, 4);
        assert!((s.avg_postings_per_pair() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn index_bytes_are_block_compressed() {
        // A fixed-width record would spend 20 bytes per posting.
        let s = IndexStats::collect(indexed(false).store().as_ref()).unwrap();
        assert!(s.index_bytes < s.postings * 20, "{s:?}");
    }

    #[test]
    fn partitioned_store_reports_partitions_and_same_totals() {
        let flat = IndexStats::collect(indexed(false).store().as_ref()).unwrap();
        let part = IndexStats::collect(indexed(true).store().as_ref()).unwrap();
        assert!(part.partitions > 1);
        assert_eq!(part.postings, flat.postings);
        // Keys may be split across partitions, so row count is ≥ flat's.
        assert!(part.index_rows >= flat.index_rows);
    }

    #[test]
    fn empty_store_reports_zeroes() {
        let store = seqdet_storage::MemStore::new();
        let s = IndexStats::collect(&store).unwrap();
        assert_eq!(s, IndexStats { partitions: 1, ..IndexStats::default() });
        assert_eq!(s.avg_postings_per_pair(), 0.0);
    }
}
