//! The `dead-cross-crate-pub` lint and its checked-in baseline.
//!
//! A `pub` item in a lib crate that nothing outside the crate ever
//! references is API surface without a consumer: it can't be refactored
//! safely (who knows who uses it?) yet nobody does. The lint flags every
//! such item — unless it is recorded in the baseline file
//! `crates/audit/pub_baseline.txt`, where each entry is a deliberate,
//! commented decision to keep the surface (e.g. "library API for
//! downstream experiments, not yet consumed in-tree").
//!
//! Scope and exclusions:
//!
//! * Only items declared in *lib* compilation units count — `pub` in a
//!   binary or test target is not importable anyway.
//! * Fields and re-exports are skipped (reached through instances /
//!   counted at their definition).
//! * The `nucache-audit` crate itself is skipped: its library exists for
//!   its own binary and unit tests by design.
//! * Items gated `#[cfg(test)]` are skipped.
//! * A reference from the crate's own `tests/`, `benches/` or `bin`
//!   targets counts as external — cargo compiles those as separate
//!   crates, so the `pub` is genuinely load-bearing.
//!
//! Baseline file format, one entry per line:
//!
//! ```text
//! # comment
//! <crate> <kind> <Qualified::name>
//! ```
//!
//! keyed on stable identity, not line numbers, so entries survive
//! unrelated edits. An entry that no current finding needs (the item
//! was deleted, renamed or gained an outside user) is stale and is
//! itself an error, as in `hotpath.txt` and `concurrency.txt`, so the
//! baseline never outlives the surface it excused. `--update-baseline`
//! rewrites the file from the current findings.

use crate::diag::{Diagnostic, Severity};
use crate::resolve::Workspace;
use crate::symbols::{SymbolKind, Visibility};
use std::collections::BTreeSet;
use std::path::Path;

const LINT: &str = "dead-cross-crate-pub";

/// Relative location of the baseline inside the workspace.
pub const PUB_BASELINE: &str = "crates/audit/pub_baseline.txt";

/// Crates whose pub surface is intentionally self-contained.
const EXEMPT_CRATES: &[&str] = &["nucache-audit"];

/// The checked-in set of accepted dead-pub entries.
#[derive(Debug, Default)]
pub struct Baseline {
    /// `"<crate> <kind> <qualified>"` entry strings.
    pub entries: BTreeSet<String>,
}

impl Baseline {
    /// Parses baseline text: one entry per line, `#` comments and blank
    /// lines ignored.
    pub fn parse(text: &str) -> Baseline {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();
        Baseline { entries }
    }

    /// Loads the baseline from `path`; a missing file is an empty
    /// baseline (first run / fixture workspaces).
    ///
    /// # Errors
    ///
    /// Propagates read errors other than `NotFound`.
    pub fn load(path: &Path) -> std::io::Result<Baseline> {
        match std::fs::read_to_string(path) {
            Ok(text) => Ok(Baseline::parse(&text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
            Err(e) => Err(e),
        }
    }

    /// Renders entry strings as a fresh baseline file body.
    pub fn render(entries: &BTreeSet<String>) -> String {
        let mut out = String::from(
            "# nucache-audit dead-cross-crate-pub baseline.\n\
             # Each line accepts one pub item with no external reference yet:\n\
             #   <crate> <kind> <Qualified::name>\n\
             # Regenerate with `nucache-audit lint --update-baseline`, then\n\
             # re-add the justifying comments for anything that stays.\n",
        );
        for e in entries {
            out.push_str(e);
            out.push('\n');
        }
        out
    }
}

/// The stable baseline key of one symbol.
fn entry_key(krate: &str, kind_label: &str, qualified: &str) -> String {
    format!("{krate} {kind_label} {qualified}")
}

/// Computes the current dead-pub entry set (used by both the lint and
/// `--update-baseline`).
pub fn current_entries(ws: &Workspace) -> BTreeSet<(String, String, usize)> {
    // (entry-key, file, line)
    let mut out = BTreeSet::new();
    for (id, sym) in ws.index.symbols.iter().enumerate() {
        let krate = ws.index.crates[id].as_str();
        if krate.starts_with("vendor/") || EXEMPT_CRATES.contains(&krate) {
            continue;
        }
        if sym.vis != Visibility::Pub
            || sym.kind == SymbolKind::Field
            || sym.kind == SymbolKind::Reexport
        {
            continue;
        }
        if sym.gates.iter().any(|g| g == "test") {
            continue;
        }
        let Some(file_idx) = super::file_index(ws, &sym.file) else { continue };
        let file = &ws.files[file_idx];
        // Only lib units export importable API.
        if file.unit != file.class.crate_name || file.scanned.is_test_code(sym.line) {
            continue;
        }
        let externally_referenced = ws
            .occurrences_of(&sym.name)
            .iter()
            .any(|occ| ws.files[occ.file].unit != krate && !ws.is_declaration(&sym.name, occ));
        if externally_referenced {
            continue;
        }
        if super::suppressed(ws, LINT, file_idx, sym.line) {
            continue;
        }
        out.insert((
            entry_key(krate, sym.kind.label(), &sym.qualified()),
            sym.file.clone(),
            sym.line,
        ));
    }
    out
}

/// Runs the lint, appending findings (entries not in `baseline`, and
/// baseline entries no finding needs) to `out`.
pub fn lint(ws: &Workspace, baseline: &Baseline, out: &mut Vec<Diagnostic>) {
    check(current_entries(ws), baseline, out);
}

/// The lint over computed entries: each `(key, file, line)` missing from
/// `baseline` is a finding, and so is each baseline entry that matches
/// none of them.
fn check(
    current: BTreeSet<(String, String, usize)>,
    baseline: &Baseline,
    out: &mut Vec<Diagnostic>,
) {
    let mut needed = BTreeSet::new();
    for (key, file, line) in current {
        if baseline.entries.contains(&key) {
            needed.insert(key);
            continue;
        }
        out.push(Diagnostic {
            file,
            line,
            lint: LINT,
            message: format!(
                "pub item with no reference outside its crate: {key} — remove the pub, \
                 reference it, or add it to crates/audit/pub_baseline.txt with a comment"
            ),
            severity: Severity::Error,
        });
    }
    for entry in baseline.entries.difference(&needed) {
        out.push(Diagnostic {
            file: PUB_BASELINE.to_string(),
            line: 0,
            lint: LINT,
            message: format!(
                "stale baseline entry `{entry}` — no current finding requires it; \
                 remove it from {PUB_BASELINE}"
            ),
            severity: Severity::Error,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_roundtrip() {
        let text =
            "# header\n\nnucache-core fn NuCache::epoch_len\n  nucache-sim struct SimConfig  \n";
        let b = Baseline::parse(text);
        assert_eq!(b.entries.len(), 2);
        assert!(b.entries.contains("nucache-core fn NuCache::epoch_len"));
        let rendered = Baseline::render(&b.entries);
        let reparsed = Baseline::parse(&rendered);
        assert_eq!(b.entries, reparsed.entries);
    }

    #[test]
    fn stale_entries_are_findings() {
        let at = |key: &str, line| (key.to_string(), "crates/a/src/lib.rs".to_string(), line);
        let current = [at("nucache-a fn kept", 3), at("nucache-a fn new", 9)].into_iter().collect();
        let mut out = Vec::new();
        check(current, &Baseline::parse("nucache-a fn kept\nnucache-a fn gone\n"), &mut out);
        let found: Vec<(&str, usize, &str)> =
            out.iter().map(|d| (d.file.as_str(), d.line, d.message.as_str())).collect();
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].1 == 9 && found[0].2.contains("nucache-a fn new"), "{found:?}");
        assert_eq!(found[1].0, PUB_BASELINE);
        assert!(found[1].2.contains("stale baseline entry `nucache-a fn gone`"), "{found:?}");
        assert!(out.iter().all(|d| d.severity == Severity::Error && d.lint == LINT));
    }

    #[test]
    fn missing_file_is_empty() {
        let b = Baseline::load(Path::new("/nonexistent/pub_baseline.txt")).expect("ok");
        assert!(b.entries.is_empty());
    }
}
