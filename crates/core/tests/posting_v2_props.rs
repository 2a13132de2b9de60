//! Differential property suite for the posting codec.
//!
//! The fixed-width codec (`tables::decode_postings`) is the reference
//! oracle: for *any* posting list — empty, single-block, multi-chunk,
//! duplicate trace-ids, unsorted, extreme timestamps — encoding with
//! [`encode_postings_v2`] and decoding with the kernel
//! ([`decode_postings_v2_into`]) must produce exactly what the fixed-width
//! decoder produces for the fixed-width encoding of the same list.

use proptest::prelude::*;
use seqdet_core::decode_postings_v2_into;
use seqdet_core::postings::{encode_postings_v2, validate_v2_row};
use seqdet_core::tables::{decode_postings, encode_postings, Posting};
use seqdet_log::TraceId;

/// Whole-row decode through the kernel the query path runs.
fn decode(row: &[u8]) -> seqdet_core::Result<Vec<Posting>> {
    let mut out = Vec::new();
    decode_postings_v2_into(row, &mut out).map(|()| out)
}

/// Arbitrary posting lists: small trace universe (forces duplicates),
/// arbitrary u64 timestamps (including ts_b < ts_a), lengths spanning
/// empty → multi-block (the block size is 128).
fn arb_postings() -> impl Strategy<Value = Vec<Posting>> {
    prop::collection::vec((0u32..300, 0u64..=u64::MAX, 0u64..=u64::MAX), 0..400).prop_map(|v| {
        v.into_iter().map(|(t, a, b)| Posting { trace: TraceId(t), ts_a: a, ts_b: b }).collect()
    })
}

/// The v1 encoding of the same list: one fixed 20-byte record per posting.
fn v1_row(postings: &[Posting]) -> Vec<u8> {
    let mut row = Vec::new();
    for p in postings {
        row.extend_from_slice(&encode_postings(p.trace, &[(p.ts_a, p.ts_b)]));
    }
    row
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode_v2 → decode_v2 equals decode_v1 ∘ encode_v1 for arbitrary
    /// lists — the oracle relation.
    #[test]
    fn v2_roundtrip_equals_v1_oracle(postings in arb_postings()) {
        let v2 = encode_postings_v2(&postings);
        let decoded = decode(&v2).unwrap();
        let oracle = decode_postings(&v1_row(&postings)).unwrap();
        prop_assert_eq!(decoded, oracle);
    }

    /// Raw byte-append of independently encoded chunks decodes to the
    /// concatenated list — the invariant the indexer's append-only write
    /// path relies on.
    #[test]
    fn appended_chunks_decode_to_concatenation(
        chunks in prop::collection::vec(arb_postings(), 1..4),
    ) {
        let mut row = Vec::new();
        let mut whole = Vec::new();
        for chunk in &chunks {
            row.extend_from_slice(&encode_postings_v2(chunk));
            whole.extend_from_slice(chunk);
        }
        let decoded = decode(&row).unwrap();
        let oracle = decode_postings(&v1_row(&whole)).unwrap();
        prop_assert_eq!(decoded, oracle);
    }

    /// Trace-sorted lists (what the indexer writes) additionally pass the
    /// auditor's stricter validation, and validation returns the same
    /// postings as decoding.
    #[test]
    fn sorted_lists_validate_and_agree_with_decode(mut postings in arb_postings()) {
        postings.sort_by_key(|p| p.trace);
        let row = encode_postings_v2(&postings);
        let validated = validate_v2_row(&row).expect("indexer-shaped rows validate");
        prop_assert_eq!(validated, decode(&row).unwrap());
    }
}
