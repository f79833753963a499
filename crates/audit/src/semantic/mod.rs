//! Workspace-level semantic lints over the symbol index and reference
//! resolution.
//!
//! These three lints need the whole workspace at once, and no stock
//! rustc or clippy lint covers them:
//!
//! | lint | rule |
//! |------|------|
//! | `counter-dataflow` | every stats/telemetry counter field must be both written (incremented/assigned) and read outside tests, and its struct must have a reset/re-initialization path |
//! | `doc-constant-drift` | backticked `CONST_NAME` cells in DESIGN.md / EXPERIMENTS.md tables must match the `const` values in the code |
//! | `dead-cross-crate-pub` | `pub` items never referenced outside their defining crate must be in the checked-in baseline (`crates/audit/pub_baseline.txt`) |
//!
//! A `// nucache-audit: allow(<lint>) -- reason` comment on or above the
//! declaration line suppresses a finding.

pub mod counter_flow;
pub mod dead_pub;
pub mod doc_drift;

use crate::diag::Diagnostic;
use crate::resolve::Workspace;
use dead_pub::Baseline;

/// Names and one-line rules of the semantic lints, in run order.
pub const SEMANTIC_LINTS: &[(&str, &str)] = &[
    (
        "counter-dataflow",
        "counter fields must be incremented AND read outside tests, with a reset path",
    ),
    (
        "doc-constant-drift",
        "constants named in DESIGN.md/EXPERIMENTS.md tables must match the code",
    ),
    ("dead-cross-crate-pub", "pub items never referenced outside their crate must be baselined"),
];

/// Runs all three semantic lints. Findings are sorted by
/// (file, line, lint, message) — deterministic for CI diffing.
pub fn run_semantic_lints(ws: &Workspace, baseline: &Baseline) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    counter_flow::lint(ws, &mut out);
    doc_drift::lint(ws, &mut out);
    dead_pub::lint(ws, baseline, &mut out);
    out.sort_by(|a, b| {
        (&a.file, a.line, a.lint, &a.message).cmp(&(&b.file, b.line, b.lint, &b.message))
    });
    out
}

/// Whether a finding anchored at `(file_idx, line)` is suppressed by a
/// site comment.
pub(crate) fn suppressed(ws: &Workspace, lint: &str, file_idx: usize, line: usize) -> bool {
    ws.files[file_idx].scanned.is_suppressed(lint, line)
}

/// Index of `rel` in `ws.files`, when present.
pub(crate) fn file_index(ws: &Workspace, rel: &str) -> Option<usize> {
    ws.files.iter().position(|f| f.rel == rel)
}
