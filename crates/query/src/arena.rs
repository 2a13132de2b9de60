//! Per-worker decode and join scratch — the query path's answer to
//! per-row/per-trace allocation churn.
//!
//! Every cold posting fetch used to materialize a fresh `Vec<Posting>` per
//! decoded row, and every hash-join step built a fresh `ts_a → ts_b` map
//! per trace. Both buffers live here now, one set per worker thread:
//!
//! * [`with_decode_buffer`] hands out this thread's reusable posting
//!   buffer. It grows to the largest row the thread has decoded and stays
//!   there, so a warm worker decodes rows with zero allocation.
//! * [`with_join_map`] hands out this thread's cleared `ts_a → ts_b`
//!   join map, reused across every trace a join step processes.
//!
//! ## Lifetime rules
//!
//! The buffers are **thread-local and lexically scoped**: callers get them
//! only inside a closure and nothing borrowed from them may escape (the
//! posting buffer is cleared on the next use). Query worker threads — the
//! server's connection threads and the executor's join workers — each get
//! their own set, so no synchronization is involved. If a closure
//! re-enters (it never does today), the nested call falls back to fresh
//! temporaries rather than panicking on the `RefCell`.

use seqdet_core::tables::Posting;
use seqdet_log::Ts;
use seqdet_storage::FxHashMap;
use std::cell::RefCell;

thread_local! {
    static DECODE: RefCell<Vec<Posting>> = const { RefCell::new(Vec::new()) };
    static JOIN: RefCell<FxHashMap<Ts, Ts>> = RefCell::new(FxHashMap::default());
}

/// Run `f` with this thread's cleared reusable posting buffer. Nothing
/// borrowed from the buffer may escape `f`.
pub(crate) fn with_decode_buffer<R>(f: impl FnOnce(&mut Vec<Posting>) -> R) -> R {
    DECODE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut postings) => {
            postings.clear();
            f(&mut postings)
        }
        // Re-entrant use: fall back to a temporary instead of panicking.
        Err(_) => f(&mut Vec::new()),
    })
}

/// Run `f` with this thread's cleared `ts_a → ts_b` hash-join map.
pub(crate) fn with_join_map<R>(f: impl FnOnce(&mut FxHashMap<Ts, Ts>) -> R) -> R {
    JOIN.with(|cell| match cell.try_borrow_mut() {
        Ok(mut map) => {
            map.clear();
            f(&mut map)
        }
        Err(_) => f(&mut FxHashMap::default()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdet_log::TraceId;

    #[test]
    fn decode_buffer_is_cleared_between_uses() {
        let p = Posting { trace: TraceId(1), ts_a: 2, ts_b: 3 };
        with_decode_buffer(|buf| buf.push(p));
        with_decode_buffer(|buf| assert!(buf.is_empty()));
    }

    #[test]
    fn join_map_is_cleared_between_uses() {
        with_join_map(|m| {
            m.insert(1, 2);
        });
        with_join_map(|m| assert!(m.is_empty()));
    }

    #[test]
    fn reentrant_use_falls_back_to_temporaries() {
        with_decode_buffer(|outer| {
            outer.push(Posting { trace: TraceId(9), ts_a: 0, ts_b: 0 });
            with_decode_buffer(|inner| {
                assert!(inner.is_empty(), "nested call must not see the outer buffer");
            });
            assert_eq!(outer.len(), 1);
        });
    }
}
