//! Codec roundtrip property suite — the registry the
//! `codec-roundtrip-registered` lint checks against.
//!
//! Every row codec in `crates/core/src/tables.rs` and
//! `crates/core/src/postings.rs` must appear here with both its `encode_*`
//! and `decode_*` halves: a codec without a registered roundtrip test can
//! silently drift from its encoder (e.g. a field added to the struct but
//! not to the wire format). The fuzz half of the suite feeds truncated and
//! bit-flipped buffers to every decoder — decoding hostile bytes must
//! return `Err`, never panic: these decoders run on data read back from
//! disk.

use proptest::prelude::*;
use seqdet_core::postings::{decode_index_row, decode_postings_v2, encode_postings_v2};
use seqdet_core::tables::{
    decode_attrs, decode_attrs_into, decode_counts, decode_events, decode_events_into,
    decode_last_checked, decode_postings, encode_attrs, encode_counts, encode_events,
    encode_last_checked, encode_postings, CountEntry, LastCheckedEntry, Posting,
};
use seqdet_core::{decode_postings_v2_into, CoreError, PostingFormat};
use seqdet_log::{Activity, Attr, AttrEntry, Event, TraceId};

fn events_strategy() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((0u32..1000, 0u64..1 << 48), 0..64)
        .prop_map(|v| v.into_iter().map(|(a, ts)| Event::new(Activity(a), ts)).collect())
}

fn counts_strategy() -> impl Strategy<Value = Vec<CountEntry>> {
    prop::collection::vec((0u32..1000, 0u64..1 << 40, 0u64..1 << 40), 0..64).prop_map(|v| {
        v.into_iter()
            .map(|(p, s, t)| CountEntry {
                partner: Activity(p),
                sum_duration: s,
                total_completions: t,
            })
            .collect()
    })
}

fn posting_list_strategy() -> impl Strategy<Value = Vec<Posting>> {
    prop::collection::vec((0u32..1000, 0u64..1 << 48, 0u64..1 << 48), 0..300).prop_map(|v| {
        v.into_iter().map(|(t, a, b)| Posting { trace: TraceId(t), ts_a: a, ts_b: b }).collect()
    })
}

/// Encoder counterpart of [`decode_index_row`]: the `Index` rows of a
/// readable store are `encode_postings_v2` chunks.
fn encode_index_row(postings: &[Posting]) -> Vec<u8> {
    encode_postings_v2(postings)
}

/// Appending encoder counterpart of [`decode_postings_v2_into`]: the
/// decode kernel *appends* to its output buffer (the arena contract), so
/// its registered roundtrip exercises the appending form on both sides.
fn encode_postings_v2_into(postings: &[Posting], out: &mut Vec<u8>) {
    out.extend_from_slice(&encode_postings_v2(postings));
}

/// Appending encoder counterpart of [`decode_events_into`]: the `Seq`
/// decoder appends to a reused buffer, so its roundtrip appends on both
/// sides.
fn encode_events_into(events: &[Event], out: &mut Vec<u8>) {
    out.extend_from_slice(&encode_events(events));
}

/// Appending encoder counterpart of [`decode_attrs_into`].
fn encode_attrs_into(entries: &[AttrEntry], out: &mut Vec<u8>) {
    out.extend_from_slice(&encode_attrs(entries));
}

fn attrs_strategy() -> impl Strategy<Value = Vec<AttrEntry>> {
    prop::collection::vec((0u64..1 << 48, 0u32..100, i64::MIN..=i64::MAX), 0..64)
        .prop_map(|v| v.into_iter().map(|(ts, a, val)| (ts, Attr(a), val)).collect())
}

fn last_checked_strategy() -> impl Strategy<Value = Vec<LastCheckedEntry>> {
    prop::collection::vec((0u32..1000, 0u64..1 << 48), 0..64).prop_map(|v| {
        v.into_iter()
            .map(|(t, lc)| LastCheckedEntry { trace: TraceId(t), last_completion: lc })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn events_roundtrip(events in events_strategy()) {
        let row = encode_events(&events);
        prop_assert_eq!(decode_events(&row).unwrap(), events);
    }

    #[test]
    fn postings_roundtrip(
        trace in 0u32..1000,
        occs in prop::collection::vec((0u64..1 << 48, 0u64..1 << 48), 0..64),
    ) {
        let row = encode_postings(TraceId(trace), &occs);
        let decoded = decode_postings(&row).unwrap();
        prop_assert_eq!(decoded.len(), occs.len());
        for (p, &(a, b)) in decoded.iter().zip(&occs) {
            prop_assert_eq!(p.trace, TraceId(trace));
            prop_assert_eq!((p.ts_a, p.ts_b), (a, b));
        }
    }

    #[test]
    fn postings_v2_roundtrip(postings in posting_list_strategy()) {
        let row = encode_index_row(&postings);
        let oracle = decode_postings_v2(&row).unwrap();
        prop_assert_eq!(&decode_index_row(PostingFormat::V2, &row).unwrap(), &oracle);
        prop_assert_eq!(oracle, postings);
    }

    #[test]
    fn postings_v2_into_roundtrip_appends(postings in posting_list_strategy()) {
        let mut row = Vec::new();
        encode_postings_v2_into(&postings, &mut row);
        let sentinel = Posting { trace: TraceId(u32::MAX), ts_a: 7, ts_b: 9 };
        let mut out = vec![sentinel];
        decode_postings_v2_into(&row, &mut out).unwrap();
        // Appending on both sides: the pre-existing prefix survives.
        prop_assert_eq!(out[0], sentinel);
        prop_assert_eq!(&out[1..], &postings[..]);
    }

    #[test]
    fn events_into_roundtrip_appends(head in events_strategy(), tail in events_strategy()) {
        let mut row = Vec::new();
        encode_events_into(&head, &mut row);
        encode_events_into(&tail, &mut row);
        let sentinel = Event::new(Activity(u32::MAX), 7);
        let mut out = vec![sentinel];
        decode_events_into(&row, &mut out).unwrap();
        prop_assert_eq!(out[0], sentinel);
        prop_assert_eq!(&out[1..], &[head, tail].concat()[..]);
    }

    #[test]
    fn attrs_into_roundtrip_appends(head in attrs_strategy(), tail in attrs_strategy()) {
        let mut row = Vec::new();
        encode_attrs_into(&head, &mut row);
        encode_attrs_into(&tail, &mut row);
        let sentinel = (7, Attr(u32::MAX), -1);
        let mut out = vec![sentinel];
        decode_attrs_into(&row, &mut out).unwrap();
        prop_assert_eq!(out[0], sentinel);
        prop_assert_eq!(&out[1..], &[head, tail].concat()[..]);
    }

    #[test]
    fn torn_rows_are_corrupt_and_append_nothing(
        events in events_strategy(),
        entries in attrs_strategy(),
        cut_ppm in 0u32..1_000_000,
    ) {
        // A row that is not whole fixed-width records is a typed error from
        // the appending decoders too, and leaves the reused buffer as it was.
        let row = encode_events(&events);
        let cut = (row.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        let mut out = Vec::new();
        match decode_events_into(&row[..cut], &mut out) {
            Ok(()) => prop_assert!(cut.is_multiple_of(12)),
            Err(e) => {
                prop_assert!(matches!(e, CoreError::Corrupt { table: "Seq", .. }));
                prop_assert!(out.is_empty());
            }
        }
        let row = encode_attrs(&entries);
        let cut = (row.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        let mut out = Vec::new();
        match decode_attrs_into(&row[..cut], &mut out) {
            Ok(()) => prop_assert!(cut.is_multiple_of(20)),
            Err(e) => {
                prop_assert!(matches!(e, CoreError::Corrupt { table: "Attrs", .. }));
                prop_assert!(out.is_empty());
            }
        }
    }

    #[test]
    fn counts_roundtrip(entries in counts_strategy()) {
        let row = encode_counts(&entries);
        prop_assert_eq!(decode_counts(&row).unwrap(), entries);
    }

    #[test]
    fn last_checked_roundtrip(entries in last_checked_strategy()) {
        let row = encode_last_checked(&entries);
        prop_assert_eq!(decode_last_checked(&row).unwrap(), entries);
    }

    #[test]
    fn attrs_roundtrip(entries in attrs_strategy()) {
        let row = encode_attrs(&entries);
        prop_assert_eq!(decode_attrs(&row).unwrap(), entries);
    }

    // ---------------------------------------------------------------
    // Hostile-input half: decoders must never panic.
    // ---------------------------------------------------------------

    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(row in prop::collection::vec(0u8..=255, 0..256)) {
        let _ = decode_events(&row);
        let _ = decode_events_into(&row, &mut Vec::new());
        let _ = decode_attrs_into(&row, &mut Vec::new());
        let _ = decode_postings(&row);
        let _ = decode_postings_v2(&row);
        let _ = decode_postings_v2_into(&row, &mut Vec::new());
        let _ = decode_index_row(PostingFormat::V2, &row);
        let _ = decode_counts(&row);
        let _ = decode_last_checked(&row);
        let _ = decode_attrs(&row);
    }

    #[test]
    fn truncated_rows_error_or_decode_prefix(
        events in events_strategy(),
        cut_ppm in 0u32..1_000_000,
    ) {
        let row = encode_events(&events);
        let cut = (row.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        match decode_events(&row[..cut]) {
            // A cut on a record boundary decodes the prefix…
            Ok(prefix) => prop_assert_eq!(&prefix[..], &events[..prefix.len()]),
            // …anywhere else must be a typed error, not a panic.
            Err(_) => prop_assert!(!cut.is_multiple_of(12)),
        }
    }

    #[test]
    fn bit_flipped_rows_never_panic(
        entries in counts_strategy(),
        byte_ppm in 0u32..1_000_000,
        bit in 0u8..8,
    ) {
        let mut row = encode_counts(&entries);
        if !row.is_empty() {
            let idx = (row.len() as u64 * byte_ppm as u64 / 1_000_000) as usize % row.len();
            row[idx] ^= 1 << bit;
            // Fixed-width records: a bit flip changes values, never framing,
            // so the row still decodes to the same number of entries.
            prop_assert_eq!(decode_counts(&row).unwrap().len(), entries.len());
        }
    }
}

/// Every decoder handles the empty row (a key that was written then fully
/// compacted away can legitimately read back empty).
#[test]
fn empty_rows_are_valid_everywhere() {
    assert!(decode_events(&[]).unwrap().is_empty());
    assert!(decode_postings(&[]).unwrap().is_empty());
    assert!(decode_postings_v2(&[]).unwrap().is_empty());
    assert!(decode_index_row(PostingFormat::V2, &[]).unwrap().is_empty());
    assert!(decode_counts(&[]).unwrap().is_empty());
    assert!(decode_last_checked(&[]).unwrap().is_empty());
    assert!(decode_attrs(&[]).unwrap().is_empty());
}
