//! Self-tests for `cargo xtask analyze` against the seeded fixture
//! workspaces under `crates/xtask/fixtures/`.
//!
//! Each fixture seeds exactly one violation (or none, for `clean`); these
//! tests pin that the analyses fire on precisely the seeded finding and
//! stay silent otherwise, and that the baseline ratchet fails when a
//! justification is deleted or blanked — the contract CI relies on.

use std::path::{Path, PathBuf};

use xtask::analyze::{analyze_root, check, AnalysisReport};
use xtask::baseline::Baseline;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

fn report(name: &str) -> AnalysisReport {
    analyze_root(&fixture(name)).unwrap_or_else(|e| panic!("analyze {name}: {e}"))
}

#[test]
fn clean_fixture_produces_no_findings() {
    let r = report("clean");
    assert!(
        r.findings.is_empty(),
        "clean fixture must be silent, got: {:?}",
        r.findings.iter().map(|f| &f.id).collect::<Vec<_>>()
    );
    // Sanity: the fixture was actually analyzed, not skipped.
    assert!(r.stats.funcs >= 4, "expected the fixture functions, got {}", r.stats.funcs);
    assert!(r.stats.entry_points >= 1, "handle() must register as an entry point");
    assert_eq!(r.stats.locks, 2, "both clean-fixture mutexes must be discovered");
}

#[test]
fn panic_reach_fixture_detects_the_seeded_unwrap() {
    let r = report("panic_reach");
    let ids: Vec<&str> = r.findings.iter().map(|f| f.id.as_str()).collect();
    assert_eq!(
        ids,
        ["panic-reach:crates/core/src/lib.rs:lookup:unwrap"],
        "exactly the seeded cross-crate unwrap must be reported"
    );
    let f = &r.findings[0];
    assert!(
        f.message.contains("fx-server::handle") && f.message.contains("fx-core::lookup"),
        "the example path must cross the crate boundary: {}",
        f.message
    );
}

#[test]
fn lock_cycle_fixture_detects_the_seeded_inversion() {
    let r = report("lock_cycle");
    let ids: Vec<&str> = r.findings.iter().map(|f| f.id.as_str()).collect();
    assert_eq!(
        ids,
        ["lock-cycle:fx-storage/alpha+fx-storage/beta"],
        "exactly the seeded alpha/beta inversion must be reported"
    );
}

#[test]
fn error_drop_fixture_detects_the_seeded_discard() {
    let r = report("error_drop");
    let ids: Vec<&str> = r.findings.iter().map(|f| f.id.as_str()).collect();
    assert_eq!(
        ids,
        ["error-drop:crates/storage/src/lib.rs:persist:let-underscore#0"],
        "exactly the seeded let-underscore drop must be reported"
    );
}

#[test]
fn justified_baseline_passes_and_deleting_the_entry_fails() {
    let r = report("panic_reach");
    let id = "panic-reach:crates/core/src/lib.rs:lookup:unwrap";

    let mut base = Baseline::default();
    base.findings.insert(id.to_owned(), "seeded fixture violation".to_owned());
    assert!(check(&r, &base).ok(), "a justified baseline entry must pass");

    let empty = Baseline::default();
    let outcome = check(&r, &empty);
    assert!(!outcome.ok(), "an unbaselined finding must fail the run");
    assert_eq!(outcome.new_findings.len(), 1);
    assert_eq!(outcome.new_findings[0].id, id);
}

#[test]
fn blanking_a_justification_fails_the_run() {
    let r = report("panic_reach");
    let id = "panic-reach:crates/core/src/lib.rs:lookup:unwrap";
    let mut base = Baseline::default();
    base.findings.insert(id.to_owned(), "   ".to_owned());
    let outcome = check(&r, &base);
    assert!(!outcome.ok(), "a whitespace-only justification must fail the run");
    assert_eq!(outcome.unjustified, vec![id.to_owned()]);
}

#[test]
fn stale_entries_warn_but_do_not_fail() {
    let r = report("clean");
    let mut base = Baseline::default();
    base.findings.insert("panic-reach:gone/file.rs:f:unwrap".to_owned(), "was fixed".to_owned());
    let outcome = check(&r, &base);
    assert!(outcome.ok(), "a stale entry alone must not fail");
    assert_eq!(outcome.stale.len(), 1);
}

/// The committed workspace baseline must stay in sync with the analyzer:
/// running against the real repository root produces zero new findings
/// and zero unjustified entries.
#[test]
fn real_workspace_is_clean_against_committed_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap().to_path_buf();
    let r = analyze_root(&root).expect("analyze workspace");
    let base = Baseline::load(&root.join("analysis_baseline.json")).expect("load baseline");
    let outcome = check(&r, &base);
    assert!(
        outcome.ok(),
        "workspace drifted from analysis_baseline.json: new={:?} unjustified={:?}",
        outcome.new_findings.iter().map(|f| &f.id).collect::<Vec<_>>(),
        outcome.unjustified
    );
}
