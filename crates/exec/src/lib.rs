//! # seqdet-exec — per-trace parallel execution
//!
//! The paper's pre-processing component is "implemented as a Spark Scala
//! program to attain scalability" and stresses that "we do not simply employ
//! Spark but we can treat each trace in parallel" (§5.3). The only Spark
//! capability the system uses is an embarrassingly parallel map over traces,
//! so this crate provides exactly that: a scoped thread-pool map with
//! dynamic chunk scheduling, configurable from 1 thread (the paper's
//! "1 Spark executor" runs in Table 6) to all cores.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// A parallel executor with a fixed degree of parallelism.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new(0)
    }
}

impl Executor {
    /// Executor with `threads` workers; `0` means "all available cores".
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            threads
        };
        Self { threads }
    }

    /// Single-threaded executor (the direct-comparison mode of Table 6).
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// Degree of parallelism.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every item, returning results in input order.
    ///
    /// Work is claimed in chunks through a shared atomic cursor, so uneven
    /// per-item cost (traces differ wildly in length) balances across
    /// workers. Each worker accumulates `(chunk_start, results)` runs in a
    /// private buffer handed back through its join handle, so result
    /// collection is contention-free — the only shared write is the cursor
    /// `fetch_add`.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        if self.threads == 1 || items.len() == 1 {
            return items.iter().map(f).collect();
        }
        // Chunk size: enough chunks per worker for balance, at least 1 item.
        let chunk = (items.len() / (self.threads * 8)).max(1);
        let cursor = AtomicUsize::new(0);
        let f = &f;
        let cursor = &cursor;
        let mut parts: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|_| {
                    scope.spawn(move || {
                        let mut local: Vec<(usize, Vec<R>)> = Vec::new();
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= items.len() {
                                break;
                            }
                            let end = (start + chunk).min(items.len());
                            let out: Vec<R> = items[start..end].iter().map(f).collect();
                            local.push((start, out));
                        }
                        local
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("worker thread panicked")).collect()
        });
        parts.sort_by_key(|(start, _)| *start);
        let mut out = Vec::with_capacity(items.len());
        for (_, part) in parts {
            out.extend(part);
        }
        out
    }

    /// Apply `f` to every item for its side effects.
    pub fn for_each<T, F>(&self, items: &[T], f: F)
    where
        T: Sync,
        F: Fn(&T) + Sync,
    {
        self.map(items, |t| f(t));
    }

    /// Parallel map followed by a sequential fold of the results.
    pub fn map_reduce<T, R, A, F, G>(&self, items: &[T], f: F, init: A, g: G) -> A
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
        G: FnMut(A, R) -> A,
    {
        self.map(items, f).into_iter().fold(init, g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_order() {
        let ex = Executor::new(4);
        let items: Vec<u64> = (0..10_000).collect();
        let out = ex.map(&items, |&x| x * 2);
        assert_eq!(out.len(), items.len());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2 * i as u64);
        }
    }

    #[test]
    fn map_matches_sequential_semantics() {
        let par = Executor::new(8);
        let seq = Executor::sequential();
        let items: Vec<u32> = (0..1000).map(|i| i * 7 % 251).collect();
        assert_eq!(par.map(&items, |&x| x as u64 + 1), seq.map(&items, |&x| x as u64 + 1));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let ex = Executor::new(4);
        let empty: Vec<u32> = vec![];
        assert!(ex.map(&empty, |&x| x).is_empty());
        assert_eq!(ex.map(&[42], |&x| x + 1), vec![43]);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items of wildly uneven cost still all complete and stay ordered.
        let ex = Executor::new(4);
        let items: Vec<usize> = (0..200).collect();
        let out = ex.map(&items, |&n| {
            let mut acc = 0u64;
            for i in 0..(n * 50) as u64 {
                acc = acc.wrapping_add(i * i);
            }
            (n, acc)
        });
        for (i, (n, _)) in out.iter().enumerate() {
            assert_eq!(i, *n);
        }
    }

    #[test]
    fn for_each_visits_every_item_once() {
        let ex = Executor::new(4);
        let counter = AtomicU64::new(0);
        let items: Vec<u64> = (1..=100).collect();
        ex.for_each(&items, |&x| {
            counter.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn map_reduce_folds() {
        let ex = Executor::new(3);
        let items: Vec<u64> = (1..=10).collect();
        let sum = ex.map_reduce(&items, |&x| x * x, 0u64, |a, b| a + b);
        assert_eq!(sum, 385);
    }

    #[test]
    fn zero_means_all_cores() {
        let ex = Executor::new(0);
        assert!(ex.threads() >= 1);
        let ex1 = Executor::sequential();
        assert_eq!(ex1.threads(), 1);
    }
}
