//! Block-compressed `Index` posting rows.
//!
//! Pair postings are monotone-per-trace and written trace-sorted by the
//! indexer, so the classic inverted-index layout — delta encoding + varints
//! in fixed-size blocks, with a directory per chunk — stores them in a few
//! bytes each (a fixed-width `(u32, u64, u64)` record spends 20).
//!
//! ## Row layout
//!
//! `Index` rows grow strictly by byte append (one append per batch), so a
//! row is a sequence of self-delimiting **chunks**, one per append:
//!
//! ```text
//! chunk := [0xF2]                          version tag
//!          [varint num_postings]           postings in this chunk (≥ 1)
//!          [varint num_blocks]             directory entries (≥ 1)
//!          [varint body_len]               bytes of block bodies
//!          directory × num_blocks          block directory
//!          body      × body_len            delta/varint-packed postings
//!
//! directory entry (per block):
//!          [varint first_trace]            trace of the block's 1st posting
//!          [varint max_trace − first_trace] largest trace in the block
//!          [varint offset_delta]           body offset − previous offset
//!                                          (first entry stores offset 0)
//!          [varint count]                  postings in the block (≥ 1)
//!
//! body (per posting, starting from (trace 0, ts_a 0) at each block start):
//!          [zigzag-varint Δtrace][zigzag-varint Δts_a][zigzag-varint ts_b − ts_a]
//! ```
//!
//! Deltas use wrapping 64-bit arithmetic, so *any* posting list round-trips
//! bit-exactly — including unsorted traces and duplicate trace ids. Block
//! size is [`V2_BLOCK_POSTINGS`] postings.
//!
//! ## Versioning
//!
//! This layout is the only one the workspace reads or writes. Its name,
//! `v2`, is persisted in `Meta` ([`PostingFormat`]) and checked when a store
//! is opened — never sniffed per row. Stores written with the earlier
//! fixed-width `v1` layout are refused at open
//! ([`crate::indexer::check_posting_format`]) and must be re-indexed.
//!
//! Shipping code decodes rows with the single-pass kernel in
//! [`crate::decode`]. [`decode_postings_v2`] here is the byte-at-a-time
//! reference the property suites hold that kernel against, and
//! [`validate_v2_row`] is the auditor's stricter walk of the same bytes.

use crate::error::CoreError;
use crate::tables::Posting;
use crate::Result;
use seqdet_log::TraceId;
use seqdet_storage::codec::{Dec, Enc};

/// Version tag opening every v2 chunk.
pub const V2_TAG: u8 = 0xF2;

/// Postings per compressed block (the skip-directory granularity).
pub const V2_BLOCK_POSTINGS: usize = 128;

/// Minimum encoded bytes per posting (three single-byte varints) — the
/// decoder uses it to reject directories whose counts could not possibly
/// fit their byte span.
const MIN_POSTING_BYTES: usize = 3;

/// The posting-row layout tag persisted in a store's `Meta` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostingFormat {
    /// Fixed 20-byte `(trace, ts_a, ts_b)` records — the original layout.
    /// Recognised so a legacy store is refused by name; no longer readable.
    V1,
    /// Block-compressed chunks (this module) — the only readable layout.
    V2,
}

impl PostingFormat {
    /// Stable name, as persisted in `Meta`.
    pub fn name(self) -> &'static str {
        match self {
            PostingFormat::V1 => "v1",
            PostingFormat::V2 => "v2",
        }
    }

    /// Inverse of [`PostingFormat::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "v1" => Some(PostingFormat::V1),
            "v2" => Some(PostingFormat::V2),
            _ => None,
        }
    }
}

/// How a v2 row failed validation. [`decode_postings_v2`] folds both cases
/// into [`CoreError::Corrupt`]; the auditor keeps them apart so a torn or
/// inconsistent skip directory gets its own finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum V2RowError {
    /// The chunk header or skip directory is truncated, non-monotone, out
    /// of bounds, or inconsistent with the posting counts.
    TornDirectory(String),
    /// A block body failed to decode (truncated varint, trace overflow, or
    /// a block not ending exactly at the next directory offset).
    BadBlock(String),
}

impl V2RowError {
    fn message(&self) -> &str {
        match self {
            V2RowError::TornDirectory(m) | V2RowError::BadBlock(m) => m,
        }
    }
}

impl From<V2RowError> for CoreError {
    fn from(e: V2RowError) -> Self {
        CoreError::Corrupt { table: "Index", message: e.message().to_owned() }
    }
}

pub(crate) fn torn<T>(msg: impl Into<String>) -> std::result::Result<T, V2RowError> {
    Err(V2RowError::TornDirectory(msg.into()))
}

pub(crate) fn bad<T>(msg: impl Into<String>) -> std::result::Result<T, V2RowError> {
    Err(V2RowError::BadBlock(msg.into()))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encode `postings` as one v2 chunk. An empty slice encodes to an empty
/// byte string (matching v1, where no postings mean no bytes).
pub fn encode_postings_v2(postings: &[Posting]) -> Vec<u8> {
    if postings.is_empty() {
        return Vec::new();
    }
    // Encode block bodies first; the header needs the directory + body size.
    let mut body = Enc::with_capacity(postings.len() * 4);
    let mut directory = Enc::new();
    let mut prev_offset = 0u64;
    for block in postings.chunks(V2_BLOCK_POSTINGS) {
        let offset = body.len() as u64;
        let first = block[0].trace.0;
        let max = block.iter().map(|p| p.trace.0).max().unwrap_or(first);
        directory
            .varint(first as u64)
            .varint((max - first) as u64)
            .varint(offset - prev_offset)
            .varint(block.len() as u64);
        prev_offset = offset;
        let (mut prev_trace, mut prev_ts_a) = (0u32, 0u64);
        for p in block {
            body.varint_signed(p.trace.0 as i64 - prev_trace as i64)
                .varint_signed(p.ts_a.wrapping_sub(prev_ts_a) as i64)
                .varint_signed(p.ts_b.wrapping_sub(p.ts_a) as i64);
            prev_trace = p.trace.0;
            prev_ts_a = p.ts_a;
        }
    }
    let mut out = Enc::with_capacity(8 + directory.len() + body.len());
    out.u8(V2_TAG)
        .varint(postings.len() as u64)
        .varint(postings.len().div_ceil(V2_BLOCK_POSTINGS) as u64)
        .varint(body.len() as u64)
        .bytes(directory.as_slice())
        .bytes(body.as_slice());
    out.into_vec()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// One parsed skip-directory entry: the block's byte range within the body
/// plus the seek bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DirEntry {
    pub(crate) first_trace: u32,
    pub(crate) max_trace: u32,
    pub(crate) offset: usize,
    pub(crate) count: usize,
}

/// One parsed chunk: directory plus the body's byte range within the row.
#[derive(Debug, Clone)]
pub(crate) struct Chunk {
    pub(crate) num_postings: usize,
    pub(crate) directory: Vec<DirEntry>,
    /// Body range, as offsets into the row.
    pub(crate) body_start: usize,
    pub(crate) body_end: usize,
    /// Offset of the byte after this chunk.
    pub(crate) next_chunk: usize,
}

/// End (exclusive, relative to the body) of block `i` of `chunk`.
pub(crate) fn block_end(chunk: &Chunk, i: usize) -> usize {
    chunk.directory.get(i + 1).map(|e| e.offset).unwrap_or(chunk.body_end - chunk.body_start)
}

/// Parse and validate one chunk header + directory starting at `pos`.
pub(crate) fn parse_chunk(row: &[u8], pos: usize) -> std::result::Result<Chunk, V2RowError> {
    let mut d = Dec::new(&row[pos..]);
    match d.u8() {
        Some(V2_TAG) => {}
        Some(tag) => return torn(format!("unknown posting-row version tag 0x{tag:02X}")),
        None => return torn("empty chunk"),
    }
    let (Some(num_postings), Some(num_blocks), Some(body_len)) =
        (d.varint(), d.varint(), d.varint())
    else {
        return torn("truncated chunk header");
    };
    let (num_postings, num_blocks, body_len) =
        (num_postings as usize, num_blocks as usize, body_len as usize);
    if num_postings == 0 || num_blocks == 0 {
        return torn("chunk declares zero postings or zero blocks");
    }
    if num_blocks > num_postings {
        return torn(format!("{num_blocks} blocks for {num_postings} postings"));
    }
    if num_postings.saturating_mul(MIN_POSTING_BYTES) > body_len {
        return torn(format!("{num_postings} postings cannot fit a {body_len}-byte body"));
    }
    let mut directory = Vec::with_capacity(num_blocks.min(d.remaining()));
    let mut offset = 0usize;
    let mut total = 0usize;
    for i in 0..num_blocks {
        let (Some(first), Some(span), Some(delta), Some(count)) =
            (d.varint(), d.varint(), d.varint(), d.varint())
        else {
            return torn(format!("torn directory: entry {i} of {num_blocks} is truncated"));
        };
        let Ok(first_trace) = u32::try_from(first) else {
            return torn(format!("directory entry {i}: first trace {first} exceeds u32"));
        };
        let Some(max_trace) = first_trace.checked_add(u32::try_from(span).unwrap_or(u32::MAX))
        else {
            return torn(format!("directory entry {i}: max trace overflows u32"));
        };
        if i == 0 {
            if delta != 0 {
                return torn("directory offsets do not start at 0");
            }
        } else if delta == 0 {
            return torn(format!("directory offsets not strictly monotone at entry {i}"));
        }
        offset += delta as usize;
        if count == 0 {
            return torn(format!("directory entry {i} declares an empty block"));
        }
        let count = count as usize;
        if offset >= body_len || offset + count * MIN_POSTING_BYTES > body_len {
            return torn(format!("directory entry {i} points past the chunk body"));
        }
        total += count;
        directory.push(DirEntry { first_trace, max_trace, offset, count });
    }
    if total != num_postings {
        return torn(format!("directory counts sum to {total}, chunk declares {num_postings}"));
    }
    let header_len = (row.len() - pos) - d.remaining();
    let body_start = pos + header_len;
    if d.remaining() < body_len {
        return torn("truncated chunk body");
    }
    Ok(Chunk {
        num_postings,
        directory,
        body_start,
        body_end: body_start + body_len,
        next_chunk: body_start + body_len,
    })
}

/// Decode the `count` postings of one block. `body` is the chunk body;
/// `end` is where the block must stop (the next directory offset).
fn decode_block(
    body: &[u8],
    entry: DirEntry,
    end: usize,
) -> std::result::Result<Vec<Posting>, V2RowError> {
    if entry.offset > end || end > body.len() {
        return torn("block span exceeds the chunk body");
    }
    let mut d = Dec::new(&body[entry.offset..end]);
    let mut out = Vec::with_capacity(entry.count);
    let (mut prev_trace, mut prev_ts_a) = (0u32, 0u64);
    for i in 0..entry.count {
        let (Some(dt), Some(da), Some(db)) =
            (d.varint_signed(), d.varint_signed(), d.varint_signed())
        else {
            return bad(format!("posting {i} of a block is truncated"));
        };
        let Some(trace) = (prev_trace as i64).checked_add(dt).and_then(|t| u32::try_from(t).ok())
        else {
            return bad(format!("posting {i}: trace delta leaves the u32 range"));
        };
        let ts_a = prev_ts_a.wrapping_add(da as u64);
        let ts_b = ts_a.wrapping_add(db as u64);
        out.push(Posting { trace: TraceId(trace), ts_a, ts_b });
        prev_trace = trace;
        prev_ts_a = ts_a;
    }
    if !d.is_done() {
        return bad("block does not end at the next directory offset");
    }
    Ok(out)
}

/// Decode a whole v2 `Index` row (any number of appended chunks). The
/// inverse of [`encode_postings_v2`] — equal, posting for posting, to what
/// [`crate::tables::decode_postings`] returns for the v1 encoding of the
/// same list (the oracle relation the property suite pins down).
pub fn decode_postings_v2(row: &[u8]) -> Result<Vec<Posting>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < row.len() {
        let chunk = parse_chunk(row, pos)?;
        out.reserve(chunk.num_postings);
        let body = &row[chunk.body_start..chunk.body_end];
        for (i, &entry) in chunk.directory.iter().enumerate() {
            let decoded = decode_block(body, entry, block_end(&chunk, i))?;
            if let Some(first) = decoded.first() {
                if first.trace.0 != entry.first_trace {
                    return Err(V2RowError::TornDirectory(format!(
                        "directory first-trace {} disagrees with block ({})",
                        entry.first_trace, first.trace.0
                    ))
                    .into());
                }
            }
            if let Some(max) = decoded.iter().map(|p| p.trace.0).max() {
                if max != entry.max_trace {
                    return Err(V2RowError::TornDirectory(format!(
                        "directory max-trace {} disagrees with block ({max})",
                        entry.max_trace
                    ))
                    .into());
                }
            }
            out.extend(decoded);
        }
        pos = chunk.next_chunk;
    }
    Ok(out)
}

/// Validate a v2 row the way the auditor needs it: every directory
/// invariant (offsets strictly monotone from 0, counts non-empty and
/// consistent, first/max keys matching the blocks) plus, for rows written
/// by the indexer, **first-keys sorted** across the blocks of each chunk.
/// Returns the decoded postings so callers audit content without a second
/// decode pass.
pub fn validate_v2_row(row: &[u8]) -> std::result::Result<Vec<Posting>, V2RowError> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < row.len() {
        let chunk = parse_chunk(row, pos)?;
        let body = &row[chunk.body_start..chunk.body_end];
        let mut prev_first: Option<u32> = None;
        for (i, &entry) in chunk.directory.iter().enumerate() {
            if prev_first.is_some_and(|p| entry.first_trace < p) {
                return torn(format!("directory first-keys not sorted at entry {i}"));
            }
            prev_first = Some(entry.first_trace);
            let decoded = decode_block(body, entry, block_end(&chunk, i))?;
            match decoded.first() {
                Some(first) if first.trace.0 != entry.first_trace => {
                    return torn(format!(
                        "directory first-trace {} disagrees with block ({})",
                        entry.first_trace, first.trace.0
                    ));
                }
                _ => {}
            }
            match decoded.iter().map(|p| p.trace.0).max() {
                Some(max) if max != entry.max_trace => {
                    return torn(format!(
                        "directory max-trace {} disagrees with block ({max})",
                        entry.max_trace
                    ));
                }
                _ => {}
            }
            out.extend(decoded);
        }
        pos = chunk.next_chunk;
    }
    Ok(out)
}

/// Decode a whole `Index` row of a store whose persisted layout tag is
/// `format`, through the query path's kernel
/// ([`crate::decode::decode_postings_v2_into`]). A [`PostingFormat::V1`]
/// store is refused with the same typed error opening it gives.
pub fn decode_index_row(format: PostingFormat, row: &[u8]) -> Result<Vec<Posting>> {
    match format {
        PostingFormat::V1 => Err(v1_unreadable()),
        PostingFormat::V2 => {
            let mut out = Vec::new();
            crate::decode::decode_postings_v2_into(row, &mut out)?;
            Ok(out)
        }
    }
}

/// The refusal every entry point gives a legacy store.
pub(crate) fn v1_unreadable() -> CoreError {
    CoreError::ConfigMismatch {
        stored: "posting format v1".into(),
        requested: "posting format v2 (posting format v1 is no longer readable; \
                    re-index from the source log)"
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{decode_postings, encode_postings};

    fn p(trace: u32, ts_a: u64, ts_b: u64) -> Posting {
        Posting { trace: TraceId(trace), ts_a, ts_b }
    }

    fn v1_row(postings: &[Posting]) -> Vec<u8> {
        let mut row = Vec::new();
        for posting in postings {
            row.extend_from_slice(&encode_postings(posting.trace, &[(posting.ts_a, posting.ts_b)]));
        }
        row
    }

    #[test]
    fn roundtrip_matches_v1_oracle() {
        let lists: Vec<Vec<Posting>> = vec![
            vec![],
            vec![p(0, 0, 0)],
            vec![p(3, 1, 5), p(3, 9, 12), p(4, 2, 3)],
            vec![p(7, 10, 20); 5],          // duplicate traces
            vec![p(9, 5, 2)],               // ts_b < ts_a still round-trips
            vec![p(u32::MAX, u64::MAX, 0)], // extreme wrapping deltas
            (0..300).map(|i| p(i, i as u64 * 10, i as u64 * 10 + 1)).collect(), // multi-block
        ];
        for list in lists {
            let enc = encode_postings_v2(&list);
            let dec = decode_postings_v2(&enc).unwrap();
            let oracle = decode_postings(&v1_row(&list)).unwrap();
            assert_eq!(dec, oracle, "list of {} postings", list.len());
        }
    }

    #[test]
    fn appended_chunks_concatenate() {
        let a: Vec<Posting> = (0..10).map(|i| p(i, 1, 2)).collect();
        let b: Vec<Posting> = (10..150).map(|i| p(i, 3, 4)).collect();
        let mut row = encode_postings_v2(&a);
        row.extend_from_slice(&encode_postings_v2(&b));
        let dec = decode_postings_v2(&row).unwrap();
        let whole: Vec<Posting> = a.iter().chain(&b).copied().collect();
        assert_eq!(dec, whole);
        assert!(validate_v2_row(&row).is_ok());
    }

    #[test]
    fn compression_beats_v1_on_monotone_postings() {
        let list: Vec<Posting> = (0..1000).map(|i| p(i, i as u64 * 7, i as u64 * 7 + 3)).collect();
        let v2 = encode_postings_v2(&list);
        assert!(
            v2.len() * 2 < v1_row(&list).len(),
            "v2 {} bytes vs v1 {} bytes",
            v2.len(),
            v1_row(&list).len()
        );
    }

    #[test]
    fn v1_tagged_garbage_is_a_typed_error() {
        // A v1 row whose first trace is ≡ V2_TAG mod 256 would mis-sniff —
        // which is why the format is persisted config, not sniffed. Fed to
        // the v2 decoder anyway, it must fail cleanly.
        let row = v1_row(&[p(0xF2, 1, 2)]);
        assert_eq!(row[0], V2_TAG);
        assert!(decode_postings_v2(&row).is_err());
    }

    #[test]
    fn torn_directory_is_distinguished_from_bad_block() {
        let list: Vec<Posting> = (0..10).map(|i| p(i, 1, 2)).collect();
        let good = encode_postings_v2(&list);
        // Truncate inside the directory.
        let torn = &good[..4];
        assert!(matches!(validate_v2_row(torn), Err(V2RowError::TornDirectory(_))));
        // Corrupt the body: flip a byte past the directory.
        let mut bad_body = good.clone();
        let last = bad_body.len() - 1;
        bad_body[last] ^= 0x80; // turn the final varint byte into a continuation
        assert!(matches!(validate_v2_row(&bad_body), Err(V2RowError::BadBlock(_))));
    }

    #[test]
    fn validate_rejects_unsorted_first_keys_but_decode_accepts() {
        // Two blocks with descending first traces: legal for the codec
        // (round-trips), illegal for the indexer's sorted-write invariant.
        let list: Vec<Posting> =
            (0..(V2_BLOCK_POSTINGS as u32 + 1)).rev().map(|i| p(i, 1, 2)).collect();
        let row = encode_postings_v2(&list);
        assert_eq!(decode_postings_v2(&row).unwrap(), list);
        assert!(
            matches!(validate_v2_row(&row), Err(V2RowError::TornDirectory(m)) if m.contains("not sorted"))
        );
    }

    #[test]
    fn format_names_roundtrip() {
        for f in [PostingFormat::V1, PostingFormat::V2] {
            assert_eq!(PostingFormat::from_name(f.name()), Some(f));
        }
        assert_eq!(PostingFormat::from_name("v3"), None);
    }

    #[test]
    fn decode_index_row_reads_v2_and_refuses_v1() {
        let list: Vec<Posting> = (0..50).map(|i| p(i, 2, 9)).collect();
        let row = encode_postings_v2(&list);
        assert_eq!(decode_index_row(PostingFormat::V2, &row).unwrap(), list);
        for row in [&row[..], &v1_row(&list)[..], &[][..]] {
            let err = decode_index_row(PostingFormat::V1, row).unwrap_err();
            assert!(matches!(err, CoreError::ConfigMismatch { .. }), "{err}");
            assert!(err.to_string().contains("re-index"), "{err}");
        }
    }
}
