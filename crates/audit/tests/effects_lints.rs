//! Integration tests for the flow-aware effect lints, driven by the
//! `tests/fixtures/hotpath` mini-workspace: one `audit:hot-path` root
//! with a deliberately seeded `Vec::push`, a justified indexing panic,
//! a whole-function allocation boundary, and a lock-discipline pair.

#![allow(clippy::expect_used, reason = "test helpers fail the test on a broken invariant")]

use nucache_audit::{run_effect_lints, Diagnostic, EffectModel, Justifications, Workspace};
use std::path::PathBuf;

fn fixture_ws() -> Workspace {
    let root =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures").join("hotpath");
    Workspace::load(&root).expect("load hotpath fixture")
}

fn run(just: &Justifications) -> Vec<Diagnostic> {
    let ws = fixture_ws();
    let model = EffectModel::build(&ws);
    run_effect_lints(&ws, &model, just).0
}

fn of_lint<'d>(diags: &'d [Diagnostic], lint: &str) -> Vec<&'d Diagnostic> {
    diags.iter().filter(|d| d.lint == lint).collect()
}

/// The ledger that excuses everything excusable in the fixture. The
/// seeded `record` push is deliberately *not* excusable: an allocation
/// without a site annotation is flagged even when a ledger line exists.
fn full_ledger() -> Justifications {
    let text = "\
        alloc-in-hot-path nucache-engine Engine::epoch fn -- epoch scratch, amortized\n\
        panic-in-hot-path nucache-engine Engine::locate index -- addr is reduced mod 7, slots holds 7 entries\n\
        lock-held-across-call nucache-engine Shared::absorb push -- fixture tolerates the bad pattern\n";
    let (just, errs) = Justifications::parse(text);
    assert!(errs.is_empty(), "{errs:?}");
    just
}

#[test]
fn seeded_push_is_caught_even_with_a_ledger_entry() {
    let mut just = full_ledger();
    just.entries.push(
        Justifications::parse(
            "alloc-in-hot-path nucache-engine Engine::record push -- trying to excuse it\n",
        )
        .0
        .entries
        .remove(0),
    );
    let diags = run(&just);
    let alloc = of_lint(&diags, "alloc-in-hot-path");
    assert!(
        alloc.iter().any(|d| d.message.contains("`Engine::record` allocates (`push`)")),
        "seeded Vec::push must be flagged: {alloc:?}"
    );
}

#[test]
fn unjustified_fixture_reports_every_contract_breach() {
    let diags = run(&Justifications::default());
    let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    // Seeded alloc on the hot path.
    assert!(msgs.iter().any(|m| m.contains("`Engine::record` allocates (`push`)")), "{msgs:?}");
    // Boundary fn must be in the ledger.
    assert!(
        msgs.iter().any(|m| m.contains("`Engine::epoch` is an audit:allow-alloc boundary")),
        "{msgs:?}"
    );
    // Panic source reachable from the root.
    assert!(msgs.iter().any(|m| m.contains("`Engine::locate` may panic (`index`)")), "{msgs:?}");
    // Guard live across an allocating call; the drop-disciplined twin is clean.
    assert!(
        msgs.iter().any(|m| m.contains("`Shared::absorb` holds guard `cells` across `push`")),
        "{msgs:?}"
    );
    assert!(!msgs.iter().any(|m| m.contains("read_one")), "read_one is clean: {msgs:?}");
}

#[test]
fn fully_justified_fixture_reports_only_the_seeded_push() {
    let diags = run(&full_ledger());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].lint, "alloc-in-hot-path");
    assert!(diags[0].message.contains("`Engine::record` allocates (`push`)"), "{diags:?}");
}

#[test]
fn stale_ledger_entries_are_flagged() {
    let mut just = full_ledger();
    just.entries.push(
        Justifications::parse(
            "panic-in-hot-path nucache-engine Engine::gone index -- excuses nothing\n",
        )
        .0
        .entries
        .remove(0),
    );
    let diags = run(&just);
    assert!(
        diags.iter().any(|d| d.message.contains("stale ledger entry")
            && d.message.contains("Engine::gone")),
        "{diags:?}"
    );
}

#[test]
fn unedited_update_justify_stub_is_a_hard_finding() {
    let mut just = full_ledger();
    // Degrade a real justification back to the scaffold `--update-justify`
    // writes: the entry still *covers* the finding, so without the stub
    // lint the gate would silently pass on placeholder text.
    let locate = just
        .entries
        .iter_mut()
        .find(|e| e.func == "Engine::locate")
        .expect("fixture ledger has the locate entry");
    locate.reason = nucache_audit::STUB_REASON.to_string();
    let diags = run(&just);
    let stubs = of_lint(&diags, "stub-justification");
    assert!(
        stubs.iter().any(|d| d.message.contains("Engine::locate")
            && d.message.contains("write a real justification")),
        "{diags:?}"
    );
    // The stubbed entry must not ALSO count as missing: the original
    // lint stays suppressed (only the seeded push and the stub remain).
    assert!(!of_lint(&diags, "panic-in-hot-path")
        .iter()
        .any(|d| d.message.contains("Engine::locate")));
}

#[test]
fn findings_are_deterministic() {
    let a = run(&Justifications::default());
    let b = run(&Justifications::default());
    let key = |d: &Diagnostic| (d.file.clone(), d.line, d.lint, d.message.clone());
    assert_eq!(a.iter().map(key).collect::<Vec<_>>(), b.iter().map(key).collect::<Vec<_>>());
}
