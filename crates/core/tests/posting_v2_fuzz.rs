//! Fuzz the posting-block decoders: like `segment_fuzz` does for the
//! storage record parser, this feeds hostile bytes — garbage, truncated,
//! bit-flipped — to every entry point. The decoders run on bytes read
//! back from disk, so *any* input must produce a typed error (or a valid
//! decode), never a panic.

use proptest::prelude::*;
use seqdet_core::decode_postings_v2_into;
use seqdet_core::postings::{decode_postings_v2, encode_postings_v2, validate_v2_row, V2_TAG};
use seqdet_core::tables::Posting;
use seqdet_log::TraceId;

fn postings(n: u32) -> Vec<Posting> {
    (0..n).map(|i| Posting { trace: TraceId(i / 2), ts_a: i as u64, ts_b: i as u64 + 3 }).collect()
}

/// Whole-row decode through the kernel the query path runs.
fn decode(row: &[u8]) -> seqdet_core::Result<Vec<Posting>> {
    let mut out = Vec::new();
    decode_postings_v2_into(row, &mut out).map(|()| out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes: every whole-row decoder classifies without
    /// panicking, and they agree on validity direction (validate is
    /// strictly stricter).
    #[test]
    fn arbitrary_bytes_never_panic(row in prop::collection::vec(0u8..=255u8, 0..512)) {
        let decoded = decode(&row);
        let _ = decode_postings_v2(&row);
        let validated = validate_v2_row(&row);
        if validated.is_ok() {
            prop_assert!(decoded.is_ok(), "validate accepted a row decode rejects");
        }
    }

    /// Arbitrary bytes biased toward the chunk tag (so parses get past the
    /// header more often): still no panics.
    #[test]
    fn tagged_garbage_never_panics(mut row in prop::collection::vec(0u8..=255u8, 1..512)) {
        row[0] = V2_TAG;
        let _ = decode(&row);
        let _ = decode_postings_v2(&row);
        let _ = validate_v2_row(&row);
    }

    /// Truncating a valid row anywhere is safe: a cut on a chunk boundary
    /// decodes the whole chunks before it, any other cut is a typed error.
    #[test]
    fn truncation_errors_or_decodes_a_chunk_prefix(
        n in 1u32..300,
        cut_ppm in 0u32..1_000_000,
    ) {
        let whole = postings(n);
        let row = encode_postings_v2(&whole);
        let cut = (row.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        if let Ok(list) = decode(&row[..cut]) {
            prop_assert!(cut == 0 || cut == row.len(), "mid-chunk cut decoded Ok");
            prop_assert_eq!(&list[..], &whole[..list.len()]);
        }
    }

    /// Single bit flips anywhere in a valid row never panic, through every
    /// entry point.
    #[test]
    fn bit_flips_never_panic(
        n in 1u32..300,
        byte_ppm in 0u32..1_000_000,
        bit in 0u8..8,
    ) {
        let mut row = encode_postings_v2(&postings(n));
        let idx = (row.len() as u64 * byte_ppm as u64 / 1_000_000) as usize % row.len();
        row[idx] ^= 1 << bit;
        let _ = decode(&row);
        let _ = decode_postings_v2(&row);
        let _ = validate_v2_row(&row);
    }
}
