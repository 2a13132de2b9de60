//! Per-worker decode scratch — the query path's answer to per-row
//! allocation churn.
//!
//! A cold posting fetch decodes its row into this thread's reusable posting
//! buffer ([`with_decode_buffer`]) instead of a fresh `Vec<Posting>`. The
//! buffer grows to the largest row the thread has decoded and stays there,
//! so a warm worker decodes rows with zero allocation.
//!
//! ## Lifetime rules
//!
//! The buffer is **thread-local and lexically scoped**: callers get it
//! only inside a closure and nothing borrowed from it may escape (it is
//! cleared on the next use). Query worker threads — the server's connection
//! threads — each get their own, so no synchronization is involved. If a
//! closure re-enters (it never does today), the nested call falls back to a
//! fresh temporary rather than panicking on the `RefCell`.

use seqdet_core::tables::Posting;
use std::cell::RefCell;

thread_local! {
    static DECODE: RefCell<Vec<Posting>> = const { RefCell::new(Vec::new()) };
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
