//! The whole-program analyses over the call graph: panic-reachability,
//! lock-order and error-taint.
//!
//! ## Panic-reachability
//!
//! The file-scoped no-panic lint cannot see a `panic!` in a `seqdet-core`
//! helper *called from* the server request path. This analysis can: it
//! walks the call graph from the request-path entry points — `pub`
//! functions in `crates/server/src/`, the `QueryEngine` API in
//! `crates/query/src/engine.rs`, and the disk store's modules
//! (`crates/storage/src/{disk,maintain,segment,delta,health}.rs`) — and
//! reports every reachable function
//! containing a panic source (`panic!`-family macros, `.unwrap()`,
//! `.expect(…)`, or indexing/slicing). Findings are keyed per
//! *(function, panic kind)*, not per line, so the baseline stays stable
//! under unrelated edits; each message carries an example call path from
//! an entry point. In-source `xtask-lint: allow(no-panic): <reason>`
//! directives suppress a site exactly as they do for the lint.
//!
//! ## Lock-order
//!
//! Every parking_lot `Mutex`/`RwLock` acquisition is recorded with an
//! inferred held-range ([`crate::graph::SiteKind::LockAcquire`]); nesting
//! pairs come from a second acquisition or a call to a function whose
//! transitive lock-set is non-empty inside a held range. A cycle in the
//! resulting lock-order graph — including a self-edge, since parking_lot
//! locks are not re-entrant — is a potential deadlock. Separately, a
//! user-supplied callback (`Fn`-family parameter) invoked while a lock is
//! held is reported: the callback can call back into the locked structure.
//!
//! ## Error-taint
//!
//! On the storage/ingest write path (`crates/storage/src/**`,
//! `crates/core/src/indexer.rs`) a discarded `Result` — `let _ = …` over a
//! call, or a statement-level `….ok();` — swallows exactly the I/O errors
//! the crash-consistency work made typed end-to-end. Each drop site is a
//! finding, keyed per function with an ordinal.
//!
//! ## Ratchet
//!
//! [`check`] diffs a report against the committed `analysis_baseline.json`:
//! any finding not in the baseline fails, any baseline entry with an empty
//! justification fails, and stale entries warn. [`updated_baseline`] regenerates the
//! file, preserving written justifications and inserting empty ones (which
//! keep failing until a human writes them) for new findings.

use crate::baseline::Baseline;
use crate::graph::{LockOp, PanicKind, SiteKind, Workspace};
use crate::lint;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::path::Path;

/// One analysis finding. `id` is the stable baseline key (no line
/// numbers); `line` is for human display only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub id: String,
    pub kind: &'static str,
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.kind, self.message)
    }
}

/// Graph-shape counters, reported with every run so resolution quality is
/// observable (a silent drop in edges would quietly blind the analyses).
#[derive(Debug, Default, Clone)]
pub struct Stats {
    pub files: usize,
    pub funcs: usize,
    pub entry_points: usize,
    pub call_edges: usize,
    pub ambiguous_calls: usize,
    pub locks: usize,
    pub lock_pairs: usize,
}

/// Output of one full analysis pass.
#[derive(Debug, Default)]
pub struct AnalysisReport {
    /// All findings, sorted by id.
    pub findings: Vec<Finding>,
    pub stats: Stats,
}

/// Entry points for panic-reachability: the code whose panic takes down a
/// worker serving requests. Matching is by path shape so the self-test
/// fixtures exercise the same rules as the real workspace.
fn is_entry(file: &str, owner: Option<&str>, is_pub: bool, in_test: bool) -> bool {
    if in_test || !is_pub {
        return false;
    }
    file.starts_with("crates/server/src/")
        || (file == "crates/query/src/engine.rs" && owner == Some("QueryEngine"))
        || DISK_STORE_FILES.contains(&file)
}

/// The disk store: open, write and read path (`disk.rs`), maintenance
/// (`maintain.rs`) and the segment, delta and health modules under them.
const DISK_STORE_FILES: [&str; 5] = [
    "crates/storage/src/disk.rs",
    "crates/storage/src/maintain.rs",
    "crates/storage/src/segment.rs",
    "crates/storage/src/delta.rs",
    "crates/storage/src/health.rs",
];

/// The error-taint scope: the write path whose errors PR 4 made typed.
fn taint_scope(file: &str) -> bool {
    file.starts_with("crates/storage/src/") || file == "crates/core/src/indexer.rs"
}

/// A lock's identity for the order graph: (crate, declared name).
/// Same-named fields in one crate conflate — conservative, and in practice
/// lock field names here are unique per crate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId {
    pub crate_name: String,
    pub name: String,
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.crate_name, self.name)
    }
}

/// Run every analysis over an already-loaded workspace.
pub fn analyze(ws: &Workspace) -> AnalysisReport {
    let mut findings = Vec::new();
    let mut stats = Stats {
        files: ws.sources.len(),
        funcs: ws.funcs.iter().filter(|f| !f.in_test).count(),
        ambiguous_calls: ws.ambiguous_calls,
        ..Stats::default()
    };

    // Pre-split lines per file for allow-directive lookups.
    let file_lines: BTreeMap<&str, Vec<&str>> =
        ws.sources.iter().map(|(f, s)| (f.as_str(), s.lines().collect())).collect();
    let suppressed = |file: &str, line: usize, rule: &str| {
        file_lines.get(file).is_some_and(|lines| {
            line >= 1 && line <= lines.len() && lint::allowed(lines, line - 1, rule)
        })
    };

    // Call edges, computed once.
    let edges: Vec<Vec<(usize, usize)>> = (0..ws.funcs.len()).map(|i| ws.edges_of(i)).collect();
    stats.call_edges = edges.iter().map(Vec::len).sum();

    panic_reachability(ws, &edges, &suppressed, &mut findings, &mut stats);
    lock_order(ws, &edges, &mut findings, &mut stats);
    error_taint(ws, &mut findings);

    findings.sort_by(|a, b| a.id.cmp(&b.id));
    findings.dedup_by(|a, b| a.id == b.id);
    AnalysisReport { findings, stats }
}

/// Load the workspace at `root` and analyze it.
pub fn analyze_root(root: &Path) -> std::io::Result<AnalysisReport> {
    let ws = Workspace::load(root)?;
    Ok(analyze(&ws))
}

fn panic_reachability(
    ws: &Workspace,
    edges: &[Vec<(usize, usize)>],
    suppressed: &dyn Fn(&str, usize, &str) -> bool,
    findings: &mut Vec<Finding>,
    stats: &mut Stats,
) {
    let n = ws.funcs.len();
    let mut visited = vec![false; n];
    let mut parent: Vec<usize> = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    for (i, f) in ws.funcs.iter().enumerate() {
        if is_entry(&f.file, f.owner.as_deref(), f.is_pub, f.in_test) {
            visited[i] = true;
            queue.push_back(i);
            stats.entry_points += 1;
        }
    }
    while let Some(f) = queue.pop_front() {
        for &(g, _) in &edges[f] {
            if !visited[g] && !ws.funcs[g].in_test {
                visited[g] = true;
                parent[g] = f;
                queue.push_back(g);
            }
        }
    }

    let display = |i: usize| format!("{}::{}", ws.funcs[i].crate_name, ws.funcs[i].qual());
    let path_to = |i: usize| {
        let mut chain = vec![i];
        let mut cur = i;
        // The parent chain is acyclic by construction (BFS tree), but cap
        // it anyway so a bug here cannot hang the analyzer.
        while parent[cur] != usize::MAX && chain.len() < 64 {
            cur = parent[cur];
            chain.push(cur);
        }
        chain.reverse();
        chain.iter().map(|&j| display(j)).collect::<Vec<_>>().join(" -> ")
    };

    for (i, f) in ws.funcs.iter().enumerate() {
        if !visited[i] {
            continue;
        }
        // Group surviving panic sites per kind.
        let mut per_kind: BTreeMap<PanicKind, Vec<usize>> = BTreeMap::new();
        for site in &f.sites {
            if let SiteKind::Panic { what } = site.kind {
                if !suppressed(&f.file, site.line, "no-panic") {
                    per_kind.entry(what).or_default().push(site.line);
                }
            }
        }
        for (kind, lines) in per_kind {
            let shown: Vec<String> = lines.iter().take(6).map(|l| l.to_string()).collect();
            let more = lines.len().saturating_sub(6);
            let lines_str = if more > 0 {
                format!("{} (+{more} more)", shown.join(", "))
            } else {
                shown.join(", ")
            };
            findings.push(Finding {
                id: format!("panic-reach:{}:{}:{}", f.file, f.qual(), kind.name()),
                kind: "panic-reach",
                file: f.file.clone(),
                line: lines[0],
                message: format!(
                    "`{}` can panic ({}, line{} {}) and is reachable from a request-path \
                     entry point: {}",
                    f.qual(),
                    kind.name(),
                    if lines.len() == 1 { "" } else { "s" },
                    lines_str,
                    path_to(i),
                ),
            });
        }
    }
}

fn lock_order(
    ws: &Workspace,
    edges: &[Vec<(usize, usize)>],
    findings: &mut Vec<Finding>,
    stats: &mut Stats,
) {
    // Direct acquisitions per function.
    struct Acq {
        lock: LockId,
        #[allow(dead_code)]
        op: LockOp,
        pos: usize,
        held_to: usize,
        line: usize,
    }
    let acquires: Vec<Vec<Acq>> = ws
        .funcs
        .iter()
        .map(|f| {
            f.sites
                .iter()
                .filter_map(|s| match &s.kind {
                    SiteKind::LockAcquire { lock, op, held_to } => Some(Acq {
                        lock: LockId { crate_name: f.crate_name.clone(), name: lock.clone() },
                        op: *op,
                        pos: s.pos,
                        held_to: *held_to,
                        line: s.line,
                    }),
                    _ => None,
                })
                .collect()
        })
        .collect();

    // Transitive lock-sets: S(f) = direct(f) ∪ ⋃ S(callees), to fixpoint.
    let mut sets: Vec<BTreeSet<LockId>> =
        acquires.iter().map(|a| a.iter().map(|x| x.lock.clone()).collect()).collect();
    loop {
        let mut changed = false;
        for f in 0..ws.funcs.len() {
            if ws.funcs[f].in_test {
                continue;
            }
            for &(g, _) in &edges[f] {
                let add: Vec<LockId> =
                    sets[g].iter().filter(|l| !sets[f].contains(*l)).cloned().collect();
                if !add.is_empty() {
                    sets[f].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Nesting pairs: (held lock, acquired-while-held lock) -> evidence.
    let mut pairs: BTreeMap<(LockId, LockId), Vec<String>> = BTreeMap::new();
    for (f, func) in ws.funcs.iter().enumerate() {
        if func.in_test {
            continue;
        }
        for a in &acquires[f] {
            // A second direct acquisition inside the held range.
            for b in &acquires[f] {
                if b.pos > a.pos && b.pos < a.held_to {
                    pairs.entry((a.lock.clone(), b.lock.clone())).or_default().push(format!(
                        "{} ({}:{}) holds `{}` and acquires `{}` (line {})",
                        func.qual(),
                        func.file,
                        a.line,
                        a.lock,
                        b.lock,
                        b.line
                    ));
                }
            }
            // A call whose transitive lock-set is non-empty.
            for site in &func.sites {
                if site.pos <= a.pos || site.pos >= a.held_to {
                    continue;
                }
                if let SiteKind::Call { name, method, qualifier, .. } = &site.kind {
                    // Callback invoked while the lock is held?
                    if !method && qualifier.is_none() && func.callback_params.contains(name) {
                        findings.push(Finding {
                            id: format!("lock-callback:{}:{}:{}", func.file, func.qual(), name),
                            kind: "lock-callback",
                            file: func.file.clone(),
                            line: site.line,
                            message: format!(
                                "`{}` invokes caller-supplied callback `{}` while holding \
                                 `{}` (acquired line {}); the callback can re-enter and \
                                 deadlock or block every contender",
                                func.qual(),
                                name,
                                a.lock,
                                a.line
                            ),
                        });
                    }
                    for g in ws.resolve(f, &site.kind) {
                        for x in &sets[g] {
                            pairs.entry((a.lock.clone(), x.clone())).or_default().push(format!(
                                "{} ({}:{}) holds `{}`, calls {} which acquires `{}`",
                                func.qual(),
                                func.file,
                                a.line,
                                a.lock,
                                ws.funcs[g].qual(),
                                x
                            ));
                        }
                    }
                }
            }
        }
    }

    let nodes: Vec<LockId> = {
        let mut s = BTreeSet::new();
        for (a, b) in pairs.keys() {
            s.insert(a.clone());
            s.insert(b.clone());
        }
        for set in &sets {
            s.extend(set.iter().cloned());
        }
        s.into_iter().collect()
    };
    stats.locks = nodes.len();
    stats.lock_pairs = pairs.len();

    // Transitive closure over the order graph; a lock that reaches itself
    // sits on a cycle. Mutually-reachable locks form one finding.
    let idx: HashMap<&LockId, usize> = nodes.iter().enumerate().map(|(i, l)| (l, i)).collect();
    let n = nodes.len();
    let mut reach = vec![vec![false; n]; n];
    for (a, b) in pairs.keys() {
        reach[idx[a]][idx[b]] = true;
    }
    for k in 0..n {
        for i in 0..n {
            if reach[i][k] {
                let via: Vec<usize> = (0..n).filter(|&j| reach[k][j]).collect();
                for j in via {
                    reach[i][j] = true;
                }
            }
        }
    }
    let mut seen = vec![false; n];
    for i in 0..n {
        if seen[i] || !reach[i][i] {
            continue;
        }
        let mut comp: Vec<usize> =
            (0..n).filter(|&j| reach[i][j] && reach[j][i] && reach[j][j]).collect();
        comp.sort_by(|&x, &y| nodes[x].cmp(&nodes[y]));
        for &j in &comp {
            seen[j] = true;
        }
        let members: Vec<String> = comp.iter().map(|&j| nodes[j].to_string()).collect();
        // Evidence: one example per edge inside the component.
        let mut evidence = Vec::new();
        for ((a, b), ev) in &pairs {
            let (ia, ib) = (idx[a], idx[b]);
            if comp.contains(&ia) && comp.contains(&ib) {
                evidence.push(ev[0].clone());
            }
        }
        findings.push(Finding {
            id: format!("lock-cycle:{}", members.join("+")),
            kind: "lock-cycle",
            file: String::new(),
            line: 0,
            message: format!(
                "lock-order cycle over {{{}}} — potential deadlock (parking_lot locks are \
                 not re-entrant). Evidence: {}",
                members.join(", "),
                evidence.join("; ")
            ),
        });
    }
}

fn error_taint(ws: &Workspace, findings: &mut Vec<Finding>) {
    for f in &ws.funcs {
        if f.in_test || !taint_scope(&f.file) {
            continue;
        }
        let mut ord: BTreeMap<&str, usize> = BTreeMap::new();
        for site in &f.sites {
            let kind = match site.kind {
                SiteKind::LetUnderscore => "let-underscore",
                SiteKind::OkDrop => "ok-drop",
                _ => continue,
            };
            let k = ord.entry(kind).or_default();
            let id = format!("error-drop:{}:{}:{}#{}", f.file, f.qual(), kind, *k);
            *k += 1;
            findings.push(Finding {
                id,
                kind: "error-drop",
                file: f.file.clone(),
                line: site.line,
                message: format!(
                    "`{}` discards a Result on the write path ({}, line {}); handle or \
                     propagate the error — a swallowed I/O failure here silently loses data",
                    f.qual(),
                    kind,
                    site.line
                ),
            });
        }
    }
}

/// Outcome of diffing a report against the baseline.
#[derive(Debug, Default)]
pub struct RatchetOutcome {
    /// Findings absent from the baseline — fail.
    pub new_findings: Vec<Finding>,
    /// Baseline ids whose justification is empty — fail.
    pub unjustified: Vec<String>,
    /// Baseline ids no longer produced — warn (garbage-collect them).
    pub stale: Vec<String>,
}

impl RatchetOutcome {
    pub fn ok(&self) -> bool {
        self.new_findings.is_empty() && self.unjustified.is_empty()
    }
}

/// Diff `report` against `baseline` per the ratchet rules.
pub fn check(report: &AnalysisReport, baseline: &Baseline) -> RatchetOutcome {
    let mut out = RatchetOutcome::default();
    let produced: BTreeSet<&str> = report.findings.iter().map(|f| f.id.as_str()).collect();
    for f in &report.findings {
        match baseline.findings.get(&f.id) {
            None => out.new_findings.push(f.clone()),
            Some(just) if just.trim().is_empty() => out.unjustified.push(f.id.clone()),
            Some(_) => {}
        }
    }
    for id in baseline.findings.keys() {
        if !produced.contains(id.as_str()) {
            out.stale.push(id.clone());
        }
    }
    out
}

/// Regenerate the baseline from `report`, preserving justifications already
/// written in `old`. New findings get an empty justification — which keeps
/// the run failing until a human writes one.
pub fn updated_baseline(report: &AnalysisReport, old: &Baseline) -> Baseline {
    let mut out = Baseline::default();
    for f in &report.findings {
        let just = old.findings.get(&f.id).cloned().unwrap_or_default();
        out.findings.insert(f.id.clone(), just);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn dep(pairs: &[(&str, &[&str])]) -> BTreeMap<String, BTreeSet<String>> {
        pairs
            .iter()
            .map(|(k, vs)| ((*k).to_owned(), vs.iter().map(|v| (*v).to_owned()).collect()))
            .collect()
    }

    #[test]
    fn cross_crate_panic_is_reachable_from_server_entry() {
        let ws = Workspace::from_sources(
            &[
                (
                    "crates/server/src/handler.rs",
                    "server",
                    "pub fn handle(q: &str) -> u32 { helper_decode(q) }",
                ),
                (
                    "crates/core/src/util.rs",
                    "core",
                    "pub fn helper_decode(q: &str) -> u32 { q.parse().unwrap() }",
                ),
            ],
            dep(&[("server", &["core"]), ("core", &[])]),
        );
        let report = analyze(&ws);
        let panics: Vec<&Finding> =
            report.findings.iter().filter(|f| f.kind == "panic-reach").collect();
        assert_eq!(panics.len(), 1, "{:?}", report.findings);
        assert!(panics[0].id.contains("helper_decode"));
        assert!(panics[0].message.contains("handle"), "path: {}", panics[0].message);
    }

    #[test]
    fn every_disk_store_module_is_an_entry_file() {
        // The store's public surface is spread over its modules: a `pub`
        // function in any of them starts a reachability walk, the same
        // function in a storage file outside the set does not.
        let src = "pub fn compact(x: Option<u32>) -> u32 { x.unwrap() }";
        for file in DISK_STORE_FILES {
            let ws = Workspace::from_sources(&[(file, "storage", src)], dep(&[("storage", &[])]));
            let report = analyze(&ws);
            assert_eq!(report.stats.entry_points, 1, "{file}");
            assert!(report.findings.iter().any(|f| f.kind == "panic-reach"), "{file}");
        }
        let ws = Workspace::from_sources(
            &[("crates/storage/src/codec.rs", "storage", src)],
            dep(&[("storage", &[])]),
        );
        assert_eq!(analyze(&ws).stats.entry_points, 0);
    }

    #[test]
    fn unreachable_panic_is_not_reported() {
        // Private helper never called from an entry point.
        let ws = Workspace::from_sources(
            &[(
                "crates/core/src/util.rs",
                "core",
                "fn internal(q: &str) -> u32 { q.parse().unwrap() }",
            )],
            dep(&[("core", &[])]),
        );
        let report = analyze(&ws);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn dependency_direction_blocks_phantom_edges() {
        // `core` has a fn named like the server's helper; without a dep
        // from core->server the call cannot resolve upward, and the server
        // entry calling `local` must not reach core's panicking `local`.
        let ws = Workspace::from_sources(
            &[
                (
                    "crates/server/src/handler.rs",
                    "server",
                    "pub fn handle() -> u32 { local() }\nfn local() -> u32 { 1 }",
                ),
                ("crates/core/src/util.rs", "core", "fn other() { std_only(); }"),
            ],
            dep(&[("server", &[]), ("core", &[])]),
        );
        let report = analyze(&ws);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn allow_directive_suppresses_reachable_panic() {
        let ws = Workspace::from_sources(
            &[(
                "crates/server/src/handler.rs",
                "server",
                "pub fn handle(v: &[u8]) -> u8 {\n    // xtask-lint: allow(no-panic): v is length-checked by the framing layer.\n    v[0]\n}",
            )],
            dep(&[("server", &[])]),
        );
        let report = analyze(&ws);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn lock_cycle_across_two_functions_is_detected() {
        let src = "pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                   pub fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                   pub fn ba(&self) { let g = self.b.lock(); let h = self.a.lock(); }\n\
                   }";
        let ws = Workspace::from_sources(
            &[("crates/query/src/cache.rs", "query", src)],
            dep(&[("query", &[])]),
        );
        let report = analyze(&ws);
        let cycles: Vec<&Finding> =
            report.findings.iter().filter(|f| f.kind == "lock-cycle").collect();
        assert_eq!(cycles.len(), 1, "{:?}", report.findings);
        assert!(cycles[0].id.contains("query/a") && cycles[0].id.contains("query/b"));
    }

    #[test]
    fn consistent_order_is_not_a_cycle() {
        let src = "pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                   pub fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                   pub fn ab2(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                   }";
        let ws = Workspace::from_sources(
            &[("crates/query/src/cache.rs", "query", src)],
            dep(&[("query", &[])]),
        );
        let report = analyze(&ws);
        assert!(!report.findings.iter().any(|f| f.kind == "lock-cycle"), "{:?}", report.findings);
    }

    #[test]
    fn nested_self_acquire_via_callee_is_a_cycle() {
        let src = "pub struct S { a: Mutex<u32> }\n\
                   impl S {\n\
                   pub fn outer(&self) { let g = self.a.lock(); self.inner_len(); }\n\
                   pub fn inner_len(&self) -> u32 { *self.a.lock() }\n\
                   }";
        let ws = Workspace::from_sources(
            &[("crates/query/src/cache.rs", "query", src)],
            dep(&[("query", &[])]),
        );
        let report = analyze(&ws);
        let cycles: Vec<&Finding> =
            report.findings.iter().filter(|f| f.kind == "lock-cycle").collect();
        assert_eq!(cycles.len(), 1, "{:?}", report.findings);
        assert!(cycles[0].message.contains("inner_len"), "{}", cycles[0].message);
    }

    #[test]
    fn sequential_acquires_are_not_nested() {
        // Guard dropped (scope ends) before the second acquire.
        let src = "pub struct S { a: Mutex<u32> }\n\
                   impl S {\n\
                   pub fn twice(&self) { { let g = self.a.lock(); } { let h = self.a.lock(); } }\n\
                   }";
        let ws = Workspace::from_sources(
            &[("crates/query/src/cache.rs", "query", src)],
            dep(&[("query", &[])]),
        );
        let report = analyze(&ws);
        assert!(!report.findings.iter().any(|f| f.kind == "lock-cycle"), "{:?}", report.findings);
    }

    #[test]
    fn callback_invoked_under_lock_is_reported() {
        let src = "pub struct S { a: Mutex<u32> }\n\
                   impl S {\n\
                   pub fn with_cb<F: Fn(u32)>(&self, f: F) { let g = self.a.lock(); f(*g); }\n\
                   }";
        let ws = Workspace::from_sources(
            &[("crates/query/src/cache.rs", "query", src)],
            dep(&[("query", &[])]),
        );
        let report = analyze(&ws);
        let cb: Vec<&Finding> =
            report.findings.iter().filter(|f| f.kind == "lock-callback").collect();
        assert_eq!(cb.len(), 1, "{:?}", report.findings);
        assert!(cb[0].id.ends_with(":with_cb:f"), "{}", cb[0].id);
    }

    #[test]
    fn callback_after_guard_scope_is_fine() {
        let src = "pub struct S { a: Mutex<u32> }\n\
                   impl S {\n\
                   pub fn with_cb<F: Fn(u32)>(&self, f: F) { let v = { let g = self.a.lock(); *g }; f(v); }\n\
                   }";
        let ws = Workspace::from_sources(
            &[("crates/query/src/cache.rs", "query", src)],
            dep(&[("query", &[])]),
        );
        let report = analyze(&ws);
        assert!(
            !report.findings.iter().any(|f| f.kind == "lock-callback"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn error_drops_only_flagged_in_taint_scope() {
        let drop_src =
            "pub fn flush() { let _ = sync_all(); }\nfn sync_all() -> Result<(), ()> { Ok(()) }";
        let ws = Workspace::from_sources(
            &[
                ("crates/storage/src/maintain.rs", "storage", drop_src),
                ("crates/query/src/engine.rs", "query", drop_src),
            ],
            dep(&[("storage", &[]), ("query", &[])]),
        );
        let report = analyze(&ws);
        let drops: Vec<&Finding> =
            report.findings.iter().filter(|f| f.kind == "error-drop").collect();
        assert_eq!(drops.len(), 1, "{:?}", report.findings);
        assert!(drops[0].file.starts_with("crates/storage/"));
        assert!(drops[0].id.ends_with("let-underscore#0"), "{}", drops[0].id);
    }

    #[test]
    fn ratchet_fails_new_and_unjustified() {
        let report = AnalysisReport {
            findings: vec![Finding {
                id: "error-drop:f.rs:g:ok-drop#0".into(),
                kind: "error-drop",
                file: "f.rs".into(),
                line: 1,
                message: "m".into(),
            }],
            stats: Stats::default(),
        };
        // Empty baseline: finding is new.
        let empty = Baseline::default();
        let out = check(&report, &empty);
        assert!(!out.ok());
        assert_eq!(out.new_findings.len(), 1);

        // Baselined without justification: still fails.
        let mut unjust = Baseline::default();
        unjust.findings.insert("error-drop:f.rs:g:ok-drop#0".into(), "".into());
        let out = check(&report, &unjust);
        assert!(!out.ok());
        assert_eq!(out.unjustified, vec!["error-drop:f.rs:g:ok-drop#0".to_owned()]);

        // Justified: clean, and a stale entry only warns.
        let mut good = unjust.clone();
        good.findings.insert("error-drop:f.rs:g:ok-drop#0".into(), "best-effort fsync".into());
        good.findings.insert("panic-reach:gone.rs:h:unwrap".into(), "fixed long ago".into());
        let out = check(&report, &good);
        assert!(out.ok(), "{out:?}");
        assert_eq!(out.stale, vec!["panic-reach:gone.rs:h:unwrap".to_owned()]);
    }

    #[test]
    fn update_preserves_written_justifications() {
        let report = AnalysisReport {
            findings: vec![
                Finding {
                    id: "a".into(),
                    kind: "error-drop",
                    file: "f".into(),
                    line: 1,
                    message: String::new(),
                },
                Finding {
                    id: "b".into(),
                    kind: "error-drop",
                    file: "f".into(),
                    line: 2,
                    message: String::new(),
                },
            ],
            stats: Stats::default(),
        };
        let mut old = Baseline::default();
        old.findings.insert("a".into(), "kept".into());
        old.findings.insert("gone".into(), "dropped".into());
        let new = updated_baseline(&report, &old);
        assert_eq!(new.findings.get("a").map(String::as_str), Some("kept"));
        assert_eq!(new.findings.get("b").map(String::as_str), Some(""));
        assert!(!new.findings.contains_key("gone"));
    }
}
