//! The decode kernel for `Index` posting rows — the one decoder the query
//! path, the zone extractor and the statistics scan run.
//!
//! [`crate::postings::decode_postings_v2`] walks each block with a
//! byte-at-a-time [`Dec`](seqdet_storage::codec::Dec) cursor — one bounds
//! check and one branch per varint *byte*. That scalar loop is the reference
//! oracle (and stays that way); this module decodes the same byte layout in
//! a single pass straight into the output vector:
//!
//! * **Hybrid varint extraction** — a first-byte short-circuit handles the
//!   1-byte varints that dominate real delta streams with one load and one
//!   predictable test; longer varints load an 8-byte little-endian window,
//!   find the stop byte with one `trailing_zeros` over the inverted
//!   continuation bits, and compact the 7-bit groups with three
//!   shift-and-mask steps ([`compact7`]) — no per-byte loop. Varints longer
//!   than 8 bytes (or near the row end) fall back to a slow reader that
//!   replicates `Dec::varint` bit for bit, canonicality rule included.
//! * **Single-pass emission** — each posting's `Δtrace` / `Δts_a` /
//!   `ts_b−ts_a` triple is decoded, its trace chain checked (the same u32
//!   range rule the reference decoder enforces) and its wrapping `ts_a`
//!   running sum applied in one loop iteration, writing the finished
//!   [`Posting`] directly to `out`. No intermediate lane buffers, no
//!   second pass over the block.
//!
//! ## Equivalence contract
//!
//! For every byte string, the kernel accepts exactly the rows the scalar
//! decoder accepts and produces bit-identical postings; rejected rows
//! produce an error from the same [`V2RowError`] classes. The property
//! suite (`crates/core/tests/decode_fast_props.rs`) pins this contract
//! against the oracle for arbitrary posting lists and hostile byte
//! mutations.

use crate::error::CoreError;
use crate::postings::{bad, block_end, parse_chunk, torn, DirEntry, V2RowError};
use crate::tables::Posting;
use crate::Result;
use seqdet_log::TraceId;
use seqdet_storage::codec::zigzag_decode;

/// Continuation bit of every byte of an 8-byte varint window.
const CONT_BITS: u64 = 0x8080_8080_8080_8080;

/// Decode a whole `Index` row into `out` (appending). Identical, posting
/// for posting and accept-for-reject, to
/// [`crate::postings::decode_postings_v2`]; a rejected row leaves `out` as
/// it was.
pub fn decode_postings_v2_into(row: &[u8], out: &mut Vec<Posting>) -> Result<()> {
    let truncate_to = out.len();
    decode_row_fast(row, out).map_err(|e| {
        // A failed decode must not leave partial postings behind.
        out.truncate(truncate_to);
        CoreError::from(e)
    })
}

/// Whole-row decode: the chunk/directory validation shared with the scalar
/// decoder, then the single-pass block unpacker, then the same directory
/// cross-checks the scalar decoder performs.
fn decode_row_fast(row: &[u8], out: &mut Vec<Posting>) -> std::result::Result<(), V2RowError> {
    let mut pos = 0usize;
    while pos < row.len() {
        let chunk = parse_chunk(row, pos)?;
        out.reserve(chunk.num_postings);
        let body = &row[chunk.body_start..chunk.body_end];
        for (i, &entry) in chunk.directory.iter().enumerate() {
            let end = block_end(&chunk, i);
            decode_block_fast(body, entry, end, out)?;
            let block = &out[out.len() - entry.count..];
            if let Some(first) = block.first() {
                if first.trace.0 != entry.first_trace {
                    return torn(format!(
                        "directory first-trace {} disagrees with block ({})",
                        entry.first_trace, first.trace.0
                    ));
                }
            }
            if let Some(max) = block.iter().map(|p| p.trace.0).max() {
                if max != entry.max_trace {
                    return torn(format!(
                        "directory max-trace {} disagrees with block ({max})",
                        entry.max_trace
                    ));
                }
            }
        }
        pos = chunk.next_chunk;
    }
    Ok(())
}

/// Decode one block in a single pass: read each posting's varint triple,
/// apply the checked trace chain and the wrapping `ts_a` running sum, and
/// push the finished posting straight to `out`.
fn decode_block_fast(
    body: &[u8],
    entry: DirEntry,
    end: usize,
    out: &mut Vec<Posting>,
) -> std::result::Result<(), V2RowError> {
    if entry.offset > end || end > body.len() {
        return torn("block span exceeds the chunk body");
    }
    let bytes = &body[entry.offset..end];
    if decode_block_postings(bytes, entry.count, out)? != bytes.len() {
        return bad("block does not end at the next directory offset");
    }
    Ok(())
}

/// Reconstruct one posting from its raw (pre-zigzag) delta triple and the
/// running block state. The trace chain carries the reference decoder's
/// per-posting u32 range check; timestamps wrap, as the encoder assumes.
#[inline(always)]
fn emit_posting(
    i: usize,
    (t, a, b): (u64, u64, u64),
    prev_trace: &mut u32,
    ts_acc: &mut u64,
    out: &mut Vec<Posting>,
) -> std::result::Result<(), V2RowError> {
    let Some(trace) =
        (*prev_trace as i64).checked_add(zigzag_decode(t)).and_then(|v| u32::try_from(v).ok())
    else {
        return bad(format!("posting {i}: trace delta leaves the u32 range"));
    };
    *ts_acc = ts_acc.wrapping_add(zigzag_decode(a) as u64);
    let ts_b = ts_acc.wrapping_add(zigzag_decode(b) as u64);
    out.push(Posting { trace: TraceId(trace), ts_a: *ts_acc, ts_b });
    *prev_trace = trace;
    Ok(())
}

/// Single-pass block decode via the short-circuiting hybrid varint
/// reader. Returns the bytes consumed.
fn decode_block_postings(
    bytes: &[u8],
    count: usize,
    out: &mut Vec<Posting>,
) -> std::result::Result<usize, V2RowError> {
    let mut at = 0usize;
    let mut prev_trace = 0u32;
    let mut ts_acc = 0u64;
    for i in 0..count {
        let Some((triple, next)) = read_triple(bytes, at) else {
            return bad(format!("posting {i} of a block is truncated"));
        };
        emit_posting(i, triple, &mut prev_trace, &mut ts_acc, out)?;
        at = next;
    }
    Ok(at)
}

// ---------------------------------------------------------------------------
// Varint extraction
// ---------------------------------------------------------------------------

/// Compact the low 7 bits of each byte of `w` (little-endian groups) into
/// one integer: the varint payload of up to 8 bytes in three shift-mask
/// steps instead of a per-byte loop.
#[inline]
fn compact7(w: u64) -> u64 {
    let w = w & !CONT_BITS;
    let w = (w & 0x007F_007F_007F_007F) | ((w & 0x7F00_7F00_7F00_7F00) >> 1);
    let w = (w & 0x0000_3FFF_0000_3FFF) | ((w & 0x3FFF_0000_3FFF_0000) >> 2);
    (w & 0x0000_0000_0FFF_FFFF) | ((w & 0x0FFF_FFFF_0000_0000) >> 4)
}

/// Byte-exact replica of `Dec::varint` for the cases the wide paths cannot
/// handle: fewer than 8 bytes left, or a varint longer than 8 bytes (where
/// the 10-byte ceiling and the canonical-final-byte rule apply).
#[cold]
fn read_varint_slow(bytes: &[u8], at: usize) -> Option<(u64, usize)> {
    let mut v: u64 = 0;
    for (i, &byte) in bytes.get(at..)?.iter().take(10).enumerate() {
        if i == 9 && byte > 0x01 {
            return None; // overflow past 64 bits (or non-canonical pad)
        }
        v |= ((byte & 0x7F) as u64) << (7 * i);
        if byte & 0x80 == 0 {
            return Some((v, i + 1));
        }
    }
    None
}

/// Read one varint at `bytes[at..]`: short-circuits for the 1- and 2-byte
/// varints that dominate delta streams (a predictable test and trivial
/// arithmetic each), [`read_varint_multi`] for longer ones. Returns the
/// value and its encoded length.
#[inline(always)]
fn read_varint(bytes: &[u8], at: usize) -> Option<(u64, usize)> {
    let b0 = *bytes.get(at)? as u64;
    if b0 < 0x80 {
        return Some((b0, 1));
    }
    let b1 = *bytes.get(at + 1)? as u64;
    if b1 < 0x80 {
        return Some(((b0 & 0x7F) | (b1 << 7), 2));
    }
    read_varint_multi(bytes, at)
}

/// ≥ 3-byte varints: the branchless 8-byte window when possible,
/// [`read_varint_slow`] otherwise.
fn read_varint_multi(bytes: &[u8], at: usize) -> Option<(u64, usize)> {
    if let Some(window) = bytes.get(at..at + 8) {
        let word = u64::from_le_bytes(window.try_into().ok()?);
        let stops = !word & CONT_BITS;
        if stops != 0 {
            let len = (stops.trailing_zeros() as usize >> 3) + 1;
            let keep = word & (u64::MAX >> (64 - 8 * len));
            return Some((compact7(keep), len));
        }
        // 8 continuation bytes in a row: 9- or 10-byte varint (or garbage).
    }
    read_varint_slow(bytes, at)
}

/// Read the three varints of one posting starting at `at`. Returns the
/// raw (pre-zigzag) values and the offset after them.
#[inline(always)]
fn read_triple(bytes: &[u8], at: usize) -> Option<((u64, u64, u64), usize)> {
    let (t, nt) = read_varint(bytes, at)?;
    let (a, na) = read_varint(bytes, at + nt)?;
    let (b, nb) = read_varint(bytes, at + nt + na)?;
    Some(((t, a, b), at + nt + na + nb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postings::{decode_postings_v2, encode_postings_v2};

    fn p(trace: u32, ts_a: u64, ts_b: u64) -> Posting {
        Posting { trace: TraceId(trace), ts_a, ts_b }
    }

    #[test]
    fn kernel_matches_the_scalar_oracle() {
        let lists: Vec<Vec<Posting>> = vec![
            vec![],
            vec![p(0, 0, 0)],
            vec![p(3, 1, 5), p(3, 9, 12), p(4, 2, 3)],
            vec![p(7, 10, 20); 5],
            vec![p(9, 5, 2)],
            vec![p(u32::MAX, u64::MAX, 0)],
            (0..300).map(|i| p(i, i as u64 * 10, i as u64 * 10 + 1)).collect(),
            (0..129).map(|i| p(i * 3, u64::MAX - i as u64, i as u64)).collect(),
        ];
        for list in lists {
            let row = encode_postings_v2(&list);
            let mut got = Vec::new();
            decode_postings_v2_into(&row, &mut got).unwrap();
            assert_eq!(got, decode_postings_v2(&row).unwrap(), "{} postings", list.len());
        }
    }

    #[test]
    fn appended_chunks_and_appending_output() {
        let a: Vec<Posting> = (0..10).map(|i| p(i, 1, 2)).collect();
        let b: Vec<Posting> = (10..150).map(|i| p(i, 3, 4)).collect();
        let mut row = encode_postings_v2(&a);
        row.extend_from_slice(&encode_postings_v2(&b));
        let mut out = vec![p(999, 0, 0)]; // pre-existing content survives
        decode_postings_v2_into(&row, &mut out).unwrap();
        assert_eq!(out[0], p(999, 0, 0));
        assert_eq!(&out[1..], decode_postings_v2(&row).unwrap());
    }

    #[test]
    fn corrupt_rows_fail_and_leave_out_untouched() {
        let list: Vec<Posting> = (0..200).map(|i| p(i, 5, 9)).collect();
        let mut corrupt = encode_postings_v2(&list);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x80; // final varint becomes a dangling continuation
        let mut out = vec![p(1, 2, 3)];
        assert!(decode_postings_v2_into(&corrupt, &mut out).is_err());
        assert_eq!(out, vec![p(1, 2, 3)], "partial postings left behind");
    }

    #[test]
    fn branchless_varint_matches_slow_reader() {
        let mut enc = seqdet_storage::codec::Enc::new();
        let values = [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        for &v in &values {
            enc.varint(v);
        }
        let buf = enc.into_vec();
        let mut at = 0usize;
        for &v in &values {
            let (fast, n) = read_varint(&buf, at).unwrap();
            let (slow, m) = read_varint_slow(&buf, at).unwrap();
            assert_eq!((fast, n), (slow, m));
            assert_eq!(fast, v);
            at += n;
        }
        assert_eq!(at, buf.len());
        // Non-canonical 10th byte rejected exactly like Dec::varint.
        let mut buf = vec![0xFF; 9];
        buf.push(0x02);
        assert!(read_varint(&buf, 0).is_none());
        buf[9] = 0x01;
        assert_eq!(read_varint(&buf, 0), Some((u64::MAX, 10)));
    }
}
