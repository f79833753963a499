//! Integration tests for the concurrency lints, driven by the
//! `tests/fixtures/locks` mini-workspace: an AB/BA ordering cycle, a
//! direct and an interprocedural double-lock, a guard escaping an
//! annotated hot path, and an unpaired Relaxed/Acquire atomic mix —
//! plus one drop-disciplined control function that must stay clean.

#![allow(clippy::expect_used, reason = "test helpers fail the test on a broken invariant")]

use nucache_audit::{
    run_atomic_lints, run_lock_lints, Diagnostic, EffectModel, Justifications, Workspace,
};
use std::path::PathBuf;

fn fixture_ws() -> Workspace {
    let root =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures").join("locks");
    Workspace::load(&root).expect("load locks fixture")
}

fn run_locks(just: &Justifications) -> Vec<Diagnostic> {
    let ws = fixture_ws();
    let model = EffectModel::build(&ws);
    run_lock_lints(&ws, &model, just).0
}

fn run_atomics(just: &Justifications) -> Vec<Diagnostic> {
    let ws = fixture_ws();
    let model = EffectModel::build(&ws);
    run_atomic_lints(&ws, &model, just).0
}

fn of_lint<'d>(diags: &'d [Diagnostic], lint: &str) -> Vec<&'d Diagnostic> {
    diags.iter().filter(|d| d.lint == lint).collect()
}

/// A ledger that excuses every seeded finding in the fixture.
fn full_ledger() -> Justifications {
    let text = "\
        double-lock nucache-locky Pair::twice field:Pair.a -- fixture tolerates it\n\
        double-lock nucache-locky Pair::reenter field:Pair.a -- fixture tolerates it\n\
        lock-order-cycle nucache-locky Pair::ab field:Pair.a->field:Pair.b -- fixture tolerates it\n\
        lock-order-cycle nucache-locky Pair::ba field:Pair.b->field:Pair.a -- fixture tolerates it\n\
        guard-escapes-hot-path nucache-locky Pair::peek field:Pair.a -- fixture tolerates it\n\
        atomic-ordering nucache-locky Pair::publish field:Pair.c:store:Relaxed -- fixture tolerates it\n\
        atomic-ordering nucache-locky Pair::consume field:Pair.c:load:Acquire -- fixture tolerates it\n\
        atomic-ordering nucache-locky Pair::publish field:Pair.c:mixed -- fixture tolerates it\n";
    let (just, errs) = Justifications::parse(text);
    assert!(errs.is_empty(), "{errs:?}");
    just
}

#[test]
fn unjustified_fixture_reports_every_seeded_breach() {
    let diags = run_locks(&Justifications::default());
    let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();

    let doubles = of_lint(&diags, "double-lock");
    assert!(
        doubles.iter().any(|d| d.message.contains("`Pair::twice` re-acquires `field:Pair.a`")),
        "direct double-lock must be flagged: {msgs:?}"
    );
    assert!(
        doubles.iter().any(|d| d.message.contains("`Pair::reenter` re-acquires `field:Pair.a`")),
        "interprocedural double-lock through take_a must be flagged: {msgs:?}"
    );

    let cycles = of_lint(&diags, "lock-order-cycle");
    assert!(
        cycles.iter().any(|d| d.message.contains("`field:Pair.a` then `field:Pair.b`")),
        "A->B half of the cycle must be flagged: {msgs:?}"
    );
    assert!(
        cycles.iter().any(|d| d.message.contains("`field:Pair.b` then `field:Pair.a`")),
        "B->A half of the cycle must be flagged: {msgs:?}"
    );

    let escapes = of_lint(&diags, "guard-escapes-hot-path");
    assert!(
        escapes.iter().any(|d| d.message.contains("Pair::peek")),
        "hot-path guard escape must be flagged: {msgs:?}"
    );

    assert!(
        !msgs.iter().any(|m| m.contains("good")),
        "the drop-disciplined control must stay clean: {msgs:?}"
    );
}

#[test]
fn unjustified_atomics_report_every_seeded_ordering() {
    let diags = run_atomics(&Justifications::default());
    let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("`store(Relaxed)` on `field:Pair.c`")),
        "Relaxed store must be flagged: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("`load(Acquire)` on `field:Pair.c`")),
        "Acquire load must be flagged: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("mixes orderings")
                && m.contains("without an acquire/release pairing")),
        "unpaired ordering mix must be flagged: {msgs:?}"
    );
}

#[test]
fn full_ledger_suppresses_everything() {
    let just = full_ledger();
    let lock_diags = run_locks(&just);
    let atomic_diags = run_atomics(&just);
    assert!(lock_diags.is_empty(), "{lock_diags:?}");
    assert!(atomic_diags.is_empty(), "{atomic_diags:?}");
}

#[test]
fn stale_entry_is_flagged_while_real_findings_persist() {
    let mut just = Justifications::default();
    just.entries.extend(
        Justifications::parse(
            "double-lock nucache-locky Pair::good field:Pair.b -- nothing requires this\n",
        )
        .0
        .entries,
    );
    let diags = run_locks(&just);
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("stale ledger entry") && d.message.contains("Pair::good")),
        "the unused entry must be reported stale: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("`Pair::twice` re-acquires")),
        "a stale entry must not mask real findings: {diags:?}"
    );
}

#[test]
fn ledgering_one_finding_leaves_the_others() {
    let mut just = Justifications::default();
    just.entries.extend(
        Justifications::parse(
            "double-lock nucache-locky Pair::twice field:Pair.a -- fixture tolerates it\n",
        )
        .0
        .entries,
    );
    let diags = run_locks(&just);
    assert!(
        !diags.iter().any(|d| d.message.contains("`Pair::twice` re-acquires")),
        "the ledgered double-lock must be suppressed: {diags:?}"
    );
    assert!(
        !diags.iter().any(|d| d.message.contains("stale ledger entry")),
        "a used entry is not stale: {diags:?}"
    );
    assert!(
        of_lint(&diags, "lock-order-cycle").len() == 2,
        "both cycle edges must survive: {diags:?}"
    );
}

#[test]
fn unedited_update_justify_stubs_are_hard_findings() {
    // Degrade one lock entry and one atomic entry back to the scaffold
    // reason `--update-justify` writes. Both still cover their findings
    // (the original lints stay suppressed), but each must surface as a
    // `stub-justification` error so the gate cannot pass on placeholders.
    let mut just = full_ledger();
    for e in &mut just.entries {
        if e.func == "Pair::twice" || (e.lint == "atomic-ordering" && e.func == "Pair::consume") {
            e.reason = nucache_audit::STUB_REASON.to_string();
        }
    }

    let lock_diags = run_locks(&just);
    let lock_stubs = of_lint(&lock_diags, "stub-justification");
    assert!(
        lock_stubs.iter().any(|d| d.message.contains("Pair::twice")
            && d.message.contains("write a real justification")),
        "{lock_diags:?}"
    );
    assert!(
        !lock_diags.iter().any(|d| d.message.contains("`Pair::twice` re-acquires")),
        "a stubbed entry still covers — the original lint stays suppressed: {lock_diags:?}"
    );

    let atomic_diags = run_atomics(&just);
    let atomic_stubs = of_lint(&atomic_diags, "stub-justification");
    assert!(
        atomic_stubs.iter().any(|d| d.message.contains("Pair::consume")
            && d.message.contains("field:Pair.c:load:Acquire")),
        "{atomic_diags:?}"
    );
    assert!(
        !atomic_diags.iter().any(|d| d.message.contains("`load(Acquire)` on `field:Pair.c`")),
        "{atomic_diags:?}"
    );
}

#[test]
fn findings_are_deterministic() {
    let first = run_locks(&Justifications::default());
    let second = run_locks(&Justifications::default());
    assert_eq!(first, second);
    let a1 = run_atomics(&Justifications::default());
    let a2 = run_atomics(&Justifications::default());
    assert_eq!(a1, a2);
}
