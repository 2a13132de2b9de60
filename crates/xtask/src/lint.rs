//! The workspace invariant lints.
//!
//! Four rules, each encoding a correctness contract the compiler cannot:
//!
//! * **no-panic** — `unwrap()` / `expect(` / `panic!(` are banned in the
//!   non-test code of `server`, `query` and `storage`, plus the posting
//!   codec (`crates/core/src/postings.rs`, `crates/core/src/decode.rs`):
//!   these sit on the request path,
//!   where a panic tears down a worker instead of returning a typed error —
//!   and the codec additionally decodes untrusted bytes read back from
//!   disk.
//! * **decoder-boundary** — the `decode_postings*` decoders may only be
//!   called inside `crates/core` (and in test code, where the property
//!   suites compare them against each other). Everything else must go
//!   through the query engine's `ReadCtx`, which is the cached, metered
//!   read path.
//! * **no-std-sync-lock** — `std::sync::Mutex`/`RwLock` are banned in the
//!   query cache stripes, the exec worker code, and the server's
//!   connection pool/handler: a poisoned or blocking std lock on those
//!   paths stalls every query (or connection) sharing the stripe; the
//!   vendored `parking_lot` types are the sanctioned replacement.
//! * **codec-roundtrip-registered** — every `decode_*` codec in
//!   `crates/core/src/tables.rs`, `crates/core/src/postings.rs` and
//!   `crates/core/src/decode.rs` must be exercised by the codec roundtrip
//!   property suite (`crates/core/tests/codec_roundtrip.rs`); a codec
//!   without a registered roundtrip test can silently drift from its
//!   encoder.
//!
//! There is no rule about `unsafe_code`: every workspace crate root carries
//! `#![forbid(unsafe_code)]`, so the compiler holds that line.
//!
//! ## Escape hatch
//!
//! A site that is *provably* fine (e.g. an `expect` whose invariant the
//! type system already guarantees) can carry a justification directive on
//! the same or the immediately preceding line:
//!
//! ```text
//! // xtask-lint: allow(no-panic): chunks_exact(8) yields 8-byte slices.
//! ```
//!
//! The reason after the second colon is mandatory — an allow without a
//! written justification is itself reported.

use crate::mask::{in_regions, mask_source, test_regions};
use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintViolation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule that fired.
    pub rule: &'static str,
    /// What was found.
    pub message: String,
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Outcome of a full lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Files scanned.
    pub files: usize,
    /// All findings, in path/line order.
    pub violations: Vec<LintViolation>,
}

impl LintReport {
    /// True when the workspace is clean.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A token-level rule: fires on `needle` in files selected by `applies`.
struct TokenRule {
    rule: &'static str,
    needles: &'static [&'static str],
    applies: fn(&str) -> bool,
    message: fn(&str) -> String,
}

fn no_panic_scope(rel: &str) -> bool {
    ["crates/server/src/", "crates/query/src/", "crates/storage/src/"]
        .iter()
        .any(|p| rel.starts_with(p))
        // The posting codec decodes untrusted on-disk bytes on the query
        // read path; a panic there tears down whichever worker hit the row.
        // The decode kernel (`decode.rs`) parses the same bytes.
        || rel == "crates/core/src/postings.rs"
        || rel == "crates/core/src/decode.rs"
}

fn decoder_scope(rel: &str) -> bool {
    // Everything outside core; core owns the codec and may call it freely.
    rel.ends_with(".rs") && !rel.starts_with("crates/core/")
}

fn lock_scope(rel: &str) -> bool {
    rel == "crates/query/src/cache.rs"
        || rel.starts_with("crates/exec/src/")
        || rel == "crates/server/src/pool.rs"
        || rel == "crates/server/src/conn.rs"
}

const TOKEN_RULES: &[TokenRule] = &[
    TokenRule {
        rule: "no-panic",
        needles: &[".unwrap()", ".expect(", "panic!(", "unimplemented!(", "todo!("],
        applies: no_panic_scope,
        message: |tok| {
            format!(
                "`{}` in request-path code; return a typed error instead \
                 (or justify with an xtask-lint allow directive)",
                tok.trim_matches(|c| c == '.' || c == '(')
            )
        },
    },
    TokenRule {
        rule: "decoder-boundary",
        needles: &["decode_postings"],
        applies: decoder_scope,
        message: |_| {
            "direct `decode_postings*` call outside crates/core; read postings \
             through the query engine's ReadCtx (cached, metered)"
                .to_owned()
        },
    },
    TokenRule {
        rule: "no-std-sync-lock",
        needles: &["std::sync::Mutex", "std::sync::RwLock"],
        applies: lock_scope,
        message: |tok| {
            format!("blocking `{tok}` in cache-stripe/worker code; use the vendored parking_lot")
        },
    },
];

/// Directive prefix recognised on the offending or preceding line.
const DIRECTIVE: &str = "xtask-lint: allow(";

/// True when `lines[line_idx]` (or the line above) carries a well-formed
/// allow directive for `rule`. A malformed directive (no reason) does not
/// suppress — `lint_source` reports it separately.
pub(crate) fn allowed(lines: &[&str], line_idx: usize, rule: &str) -> bool {
    let candidates =
        [Some(lines[line_idx]), if line_idx > 0 { Some(lines[line_idx - 1]) } else { None }];
    for line in candidates.into_iter().flatten() {
        if let Some((r, reason)) = parse_directive(line) {
            if r == rule && !reason.is_empty() {
                return true;
            }
        }
    }
    false
}

/// Extract `(rule, reason)` from a directive line, if any.
fn parse_directive(line: &str) -> Option<(&str, &str)> {
    let at = line.find(DIRECTIVE)?;
    let rest = &line[at + DIRECTIVE.len()..];
    let close = rest.find(')')?;
    let rule = rest[..close].trim();
    let reason = rest[close + 1..].trim_start_matches(':').trim();
    Some((rule, reason))
}

/// Lint one file's source. `rel` is the workspace-relative path with
/// forward slashes (rule scoping matches on it).
pub fn lint_source(rel: &str, source: &str) -> Vec<LintViolation> {
    let mut out = Vec::new();
    let masked = mask_source(source);
    let regions = test_regions(&masked);
    let lines: Vec<&str> = source.lines().collect();

    // Line start offsets to translate byte offsets to line numbers.
    let mut line_starts = vec![0usize];
    for (i, b) in masked.bytes().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let line_of = |at: usize| line_starts.partition_point(|&s| s <= at) - 1;

    for rule in TOKEN_RULES {
        if !(rule.applies)(rel) {
            continue;
        }
        for needle in rule.needles {
            let mut from = 0;
            while let Some(found) = masked[from..].find(needle) {
                let at = from + found;
                from = at + needle.len();
                if in_regions(&regions, at) {
                    continue;
                }
                let line_idx = line_of(at);
                if allowed(&lines, line_idx, rule.rule) {
                    continue;
                }
                out.push(LintViolation {
                    file: rel.to_owned(),
                    line: line_idx + 1,
                    rule: rule.rule,
                    message: (rule.message)(needle),
                });
            }
        }
    }

    // Malformed directives: an allow without a reason is itself a finding —
    // otherwise the escape hatch silently erodes the rules.
    for (i, line) in lines.iter().enumerate() {
        if let Some((rule, reason)) = parse_directive(line) {
            if reason.is_empty() {
                out.push(LintViolation {
                    file: rel.to_owned(),
                    line: i + 1,
                    rule: "allow-without-reason",
                    message: format!(
                        "allow({rule}) directive has no justification; write \
                         `xtask-lint: allow({rule}): <why this site is safe>`"
                    ),
                });
            }
        }
    }

    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    out
}

/// The codec-roundtrip-registered rule: workspace-level, not per-file.
/// Every `pub fn decode_<name>` in the codec sources (`tables.rs` and
/// `postings.rs`) must appear (with its `encode_` counterpart) in the
/// codec roundtrip property suite.
pub fn lint_codec_roundtrips(
    codec_srcs: &[&str],
    roundtrip_src: Option<&str>,
) -> Vec<LintViolation> {
    let mut out = Vec::new();
    let mut codecs = Vec::new();
    for src in codec_srcs {
        let masked = mask_source(src);
        let mut from = 0;
        while let Some(found) = masked[from..].find("pub fn decode_") {
            let at = from + found + "pub fn decode_".len();
            from = at;
            let name: String = masked[at..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                codecs.push(name);
            }
        }
    }
    let Some(suite) = roundtrip_src else {
        return vec![LintViolation {
            file: "crates/core/tests/codec_roundtrip.rs".into(),
            line: 1,
            rule: "codec-roundtrip-registered",
            message: format!(
                "roundtrip property suite is missing; {} codec(s) are unregistered: {}",
                codecs.len(),
                codecs.join(", ")
            ),
        }];
    };
    for name in codecs {
        let decode = format!("decode_{name}");
        let encode = format!("encode_{name}");
        if !suite.contains(&decode) || !suite.contains(&encode) {
            out.push(LintViolation {
                file: "crates/core/tests/codec_roundtrip.rs".into(),
                line: 1,
                rule: "codec-roundtrip-registered",
                message: format!(
                    "codec `{name}` has no registered roundtrip property test \
                     (suite must reference both `{encode}` and `{decode}`)"
                ),
            });
        }
    }
    out
}

/// Recursively collect `.rs` files under `dir`, skipping build artifacts.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures` holds the analyzer's seeded-violation workspaces —
            // linting those would report the violations they exist to seed.
            if name == "target" || name == ".git" || name == "vendor" || name == "fixtures" {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Lint the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "benches"] {
        collect_rs(&root.join(top), &mut files);
    }
    files.sort();
    let mut report = LintReport::default();
    for path in &files {
        let source = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        report.violations.extend(lint_source(&rel, &source));
        report.files += 1;
    }
    let tables = std::fs::read_to_string(root.join("crates/core/src/tables.rs"))?;
    let postings = std::fs::read_to_string(root.join("crates/core/src/postings.rs"))?;
    let decode = std::fs::read_to_string(root.join("crates/core/src/decode.rs"))?;
    let suite = std::fs::read_to_string(root.join("crates/core/tests/codec_roundtrip.rs")).ok();
    report
        .violations
        .extend(lint_codec_roundtrips(&[&tables, &postings, &decode], suite.as_deref()));
    report.violations.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUERY_FILE: &str = "crates/query/src/engine.rs";

    #[test]
    fn seeded_unwrap_is_reported() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let v = lint_source(QUERY_FILE, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-panic");
        assert_eq!(v[0].line, 1);
        assert!(v[0].message.contains("unwrap"));
    }

    #[test]
    fn all_panic_tokens_fire() {
        let src =
            "fn f() { a.unwrap(); b.expect(\"x\"); panic!(\"y\"); todo!(); unimplemented!(); }";
        let v = lint_source(QUERY_FILE, src);
        assert_eq!(v.len(), 5, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "no-panic"));
    }

    #[test]
    fn out_of_scope_crates_are_not_linted_for_panics() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(lint_source("crates/core/src/tables.rs", src).is_empty());
        assert!(lint_source("crates/cli/src/main.rs", src).is_empty());
        assert!(lint_source("crates/query/tests/model.rs", src).is_empty());
    }

    #[test]
    fn posting_codec_is_inside_the_no_panic_scope() {
        // The block decoder parses untrusted on-disk bytes on the query
        // read path — it gets the same no-panic treatment as query/storage
        // even though the rest of core is exempt.
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let v = lint_source("crates/core/src/postings.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-panic");
        assert!(lint_source("crates/core/src/indexer.rs", src).is_empty());
    }

    #[test]
    fn storage_write_path_is_inside_the_no_panic_scope() {
        // The crash-consistency work hinges on the storage write path never
        // panicking on I/O failure — keep the whole crate (disk.rs,
        // segment.rs, delta.rs, vfs.rs, kv.rs, …) under the no-panic rule.
        let src = "fn f(x: std::io::Result<()>) { x.expect(\"write\"); }";
        for file in [
            "crates/storage/src/disk.rs",
            "crates/storage/src/segment.rs",
            "crates/storage/src/delta.rs",
            "crates/storage/src/vfs.rs",
            "crates/storage/src/kv.rs",
        ] {
            let v = lint_source(file, src);
            assert_eq!(v.len(), 1, "{file} must be linted: {v:?}");
            assert_eq!(v[0].rule, "no-panic");
        }
    }

    #[test]
    fn quarantine_and_repair_paths_are_inside_the_no_panic_scope() {
        // The partial-failure tolerance machinery runs exactly when the
        // filesystem is misbehaving: the scrub/quarantine/repair paths
        // (maintain.rs) and the publish point under them (disk.rs), the
        // quarantine ledger (health.rs), run verification (run.rs), the
        // failure taxonomy (error.rs) and the retry/fault VFS layers
        // (vfs.rs) must degrade or narrow, never panic.
        let src = "fn f(x: std::io::Result<()>) { x.expect(\"scrub\"); }";
        for file in [
            "crates/storage/src/maintain.rs",
            "crates/storage/src/disk.rs",
            "crates/storage/src/health.rs",
            "crates/storage/src/run.rs",
            "crates/storage/src/error.rs",
            "crates/storage/src/vfs.rs",
        ] {
            let v = lint_source(file, src);
            assert_eq!(v.len(), 1, "{file} must be linted: {v:?}");
            assert_eq!(v[0].rule, "no-panic");
        }
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn prod() -> u32 { 1 }\n#[cfg(test)]\nmod tests {\n #[test]\n fn t() { None::<u32>.unwrap(); }\n}";
        assert!(lint_source(QUERY_FILE, src).is_empty());
    }

    #[test]
    fn tokens_inside_strings_and_comments_are_ignored() {
        let src = "fn f() { log(\"never .unwrap() here\"); } // panic!(later)";
        assert!(lint_source(QUERY_FILE, src).is_empty());
    }

    #[test]
    fn allow_directive_with_reason_suppresses() {
        let same = "fn f() { x.unwrap() } // xtask-lint: allow(no-panic): x is checked above.";
        assert!(lint_source(QUERY_FILE, same).is_empty());
        let prev = "// xtask-lint: allow(no-panic): x is checked above.\nfn f() { x.unwrap() }";
        assert!(lint_source(QUERY_FILE, prev).is_empty());
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let src = "// xtask-lint: allow(decoder-boundary): wrong rule.\nfn f() { x.unwrap() }";
        let v = lint_source(QUERY_FILE, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-panic");
    }

    #[test]
    fn allow_without_reason_is_its_own_violation() {
        let src = "// xtask-lint: allow(no-panic)\nfn f() { x.unwrap() }";
        let v = lint_source(QUERY_FILE, src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|x| x.rule == "no-panic"));
        assert!(v.iter().any(|x| x.rule == "allow-without-reason"));
    }

    #[test]
    fn decoder_boundary_fires_outside_core_only() {
        let src =
            "use seqdet_core::tables::decode_postings;\nfn f(r: &[u8]) { decode_postings(r); }";
        let v = lint_source("crates/query/src/detect.rs", src);
        assert_eq!(v.len(), 2, "import + call: {v:?}");
        assert!(v.iter().all(|x| x.rule == "decoder-boundary"));
        assert!(lint_source("crates/core/src/stats.rs", src).is_empty());
    }

    #[test]
    fn decoder_boundary_exempts_test_oracles() {
        let src = "#[cfg(test)]\nmod tests {\n fn oracle(r: &[u8]) { seqdet_core::tables::decode_postings(r).unwrap(); }\n}";
        assert!(lint_source("crates/query/src/detect.rs", src).is_empty());
    }

    #[test]
    fn std_lock_banned_in_cache_and_exec_only() {
        let src = "use std::sync::Mutex;\nstruct S { m: Mutex<u32> }";
        let v = lint_source("crates/query/src/cache.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-std-sync-lock");
        assert!(!lint_source("crates/exec/src/lib.rs", src).is_empty());
        assert!(!lint_source("crates/server/src/pool.rs", src).is_empty());
        assert!(!lint_source("crates/server/src/conn.rs", src).is_empty());
        assert!(lint_source("crates/query/src/engine.rs", src).is_empty());
        assert!(lint_source("crates/server/src/server.rs", src).is_empty());
    }

    #[test]
    fn codec_rule_flags_unregistered_decoder() {
        let tables = "pub fn decode_events(r: &[u8]) {}\npub fn decode_postings(r: &[u8]) {}";
        let suite = "fn t() { encode_events(); decode_events(); }";
        let v = lint_codec_roundtrips(&[tables], Some(suite));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("postings"));
        let full =
            "fn t() { encode_events(); decode_events(); encode_postings(); decode_postings(); }";
        assert!(lint_codec_roundtrips(&[tables], Some(full)).is_empty());
    }

    #[test]
    fn codec_rule_scans_every_codec_source() {
        // `postings.rs` joined `tables.rs` as a codec source with the v2
        // format; its decoders need registered roundtrips too.
        let tables = "pub fn decode_events(r: &[u8]) {}";
        let postings = "pub fn decode_postings_v2(r: &[u8]) {}";
        let suite = "fn t() { encode_events(); decode_events(); }";
        let v = lint_codec_roundtrips(&[tables, postings], Some(suite));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("postings_v2"));
        let full = "fn t() { encode_events(); decode_events(); \
                    encode_postings_v2(); decode_postings_v2(); }";
        assert!(lint_codec_roundtrips(&[tables, postings], Some(full)).is_empty());
    }

    #[test]
    fn codec_rule_flags_missing_suite_entirely() {
        let tables = "pub fn decode_events(r: &[u8]) {}";
        let v = lint_codec_roundtrips(&[tables], None);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("missing"));
    }

    #[test]
    fn decode_kernel_is_inside_the_no_panic_scope() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let v = lint_source("crates/core/src/decode.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-panic");
    }

    #[test]
    fn violation_lines_are_accurate() {
        let src = "fn ok() {}\nfn f() {\n    a.unwrap();\n}";
        let v = lint_source(QUERY_FILE, src);
        assert_eq!(v[0].line, 3);
        assert!(v[0].to_string().starts_with("crates/query/src/engine.rs:3: [no-panic]"));
    }
}
