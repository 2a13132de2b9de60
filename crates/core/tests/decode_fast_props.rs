//! Differential property suite for the posting decode kernel.
//!
//! The scalar `decode_postings_v2` is the oracle; the kernel
//! ([`decode_postings_v2_into`]) must accept *exactly* the rows it accepts
//! and produce bit-identical postings. Errors are compared as `is_err()`
//! only, while `Ok` values are compared exactly.
//!
//! Shapes deliberately covered by the strategies:
//!
//! * the empty list and the empty row;
//! * single partial blocks (< 128 postings) and multi-block rows;
//! * list lengths around the 4-lane prefix-sum remainder (len % 4 ∈
//!   {0,1,2,3}) and around the block boundary;
//! * maximal deltas: trace jumps across the whole `u32` range and
//!   timestamps across the whole `u64` range (10-byte varints, wrapping
//!   `ts` arithmetic);
//! * hostile bytes: truncations and bit flips of valid rows, plus fully
//!   arbitrary buffers.

use proptest::prelude::*;
use seqdet_core::decode_postings_v2_into;
use seqdet_core::postings::{decode_postings_v2, encode_postings_v2};
use seqdet_core::tables::Posting;
use seqdet_log::TraceId;

fn mk(postings: Vec<(u32, u64, u64)>) -> Vec<Posting> {
    postings.into_iter().map(|(t, a, b)| Posting { trace: TraceId(t), ts_a: a, ts_b: b }).collect()
}

/// Moderate values, lengths spanning empty / partial / multi-block and all
/// 4-lane remainders (0..300 crosses the 128-posting block boundary).
fn arb_postings() -> impl Strategy<Value = Vec<Posting>> {
    prop::collection::vec((0u32..1000, 0u64..1 << 48, 0u64..1 << 48), 0..300).prop_map(mk)
}

/// Full-range values: every delta can need the maximal varint length.
fn arb_extreme_postings() -> impl Strategy<Value = Vec<Posting>> {
    prop::collection::vec((0u32..=u32::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX), 0..160).prop_map(mk)
}

/// Decode `row` with the kernel and check the equivalence contract against
/// the scalar oracle. Returns proptest's unit result.
fn assert_kernel_matches_oracle(row: &[u8]) -> Result<(), TestCaseError> {
    let oracle = decode_postings_v2(row);
    let canary = Posting { trace: TraceId(42), ts_a: 1, ts_b: 2 };
    let mut out = vec![canary];
    let got = decode_postings_v2_into(row, &mut out);
    match (&oracle, got) {
        (Ok(expected), Ok(())) => {
            prop_assert_eq!(&out[0], &canary, "the kernel must append");
            prop_assert_eq!(&out[1..], &expected[..], "kernel disagrees with scalar");
        }
        (Err(_), Err(_)) => {
            // On error the output is rolled back to its prior length.
            prop_assert_eq!(&out[..], &[canary][..], "kernel left partial output");
        }
        (oracle, got) => {
            return Err(TestCaseError(format!(
                "kernel accept/reject disagrees with scalar: oracle={:?} got={:?}",
                oracle.as_ref().map(|v| v.len()),
                got
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn kernel_agrees_on_encoder_output(postings in arb_postings()) {
        assert_kernel_matches_oracle(&encode_postings_v2(&postings))?;
    }

    #[test]
    fn kernel_agrees_on_maximal_deltas(postings in arb_extreme_postings()) {
        assert_kernel_matches_oracle(&encode_postings_v2(&postings))?;
    }

    #[test]
    fn kernel_agrees_on_truncated_rows(
        postings in arb_postings(),
        cut_ppm in 0u32..1_000_000,
    ) {
        let row = encode_postings_v2(&postings);
        let cut = (row.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        assert_kernel_matches_oracle(&row[..cut])?;
    }

    #[test]
    fn kernel_agrees_on_bit_flipped_rows(
        postings in arb_postings(),
        byte_ppm in 0u32..1_000_000,
        bit in 0u8..8,
    ) {
        let mut row = encode_postings_v2(&postings);
        if !row.is_empty() {
            let idx = (row.len() as u64 * byte_ppm as u64 / 1_000_000) as usize % row.len();
            row[idx] ^= 1 << bit;
        }
        assert_kernel_matches_oracle(&row)?;
    }

    #[test]
    fn kernel_agrees_on_arbitrary_bytes(row in prop::collection::vec(0u8..=255, 0..512)) {
        assert_kernel_matches_oracle(&row)?;
    }
}

/// Pinned edge shapes the strategies only hit probabilistically: the empty
/// list, exact 4-lane remainders, the exact block boundary, and single
/// postings with every extreme delta direction.
#[test]
fn pinned_shapes_agree_with_the_oracle() {
    let shapes: Vec<Vec<Posting>> = vec![
        vec![],
        mk(vec![(0, 0, 0)]),
        mk((0..2).map(|i| (i, i as u64, i as u64 + 1)).collect()),
        mk((0..3).map(|i| (i, i as u64, i as u64 + 1)).collect()),
        mk((0..4).map(|i| (i, i as u64, i as u64 + 1)).collect()),
        mk((0..5).map(|i| (i, i as u64, i as u64 + 1)).collect()),
        // Exactly one full block, one full block ± 1, two full blocks.
        mk((0..127).map(|i| (i, 10, 20)).collect()),
        mk((0..128).map(|i| (i, 10, 20)).collect()),
        mk((0..129).map(|i| (i, 10, 20)).collect()),
        mk((0..256).map(|i| (i, 10, 20)).collect()),
        // Maximal deltas in both directions, including ts_b < ts_a
        // (wrapping) and the full trace range.
        mk(vec![(u32::MAX, u64::MAX, 0), (0, 0, u64::MAX)]),
        mk(vec![(0, 1, 1), (u32::MAX, u64::MAX, u64::MAX - 1), (1, 5, 4)]),
    ];
    for postings in shapes {
        let row = encode_postings_v2(&postings);
        let oracle = decode_postings_v2(&row).expect("encoder output decodes");
        assert_eq!(oracle, postings);
        let mut out = Vec::new();
        decode_postings_v2_into(&row, &mut out).expect("the kernel accepts a valid row");
        assert_eq!(out, postings, "{} postings", postings.len());
    }
}
