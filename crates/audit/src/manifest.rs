//! Minimal workspace-manifest model: each crate's dependency names.
//!
//! The effect call graph only follows edges a crate could actually
//! compile against, and the walk skips directories that are Cargo
//! workspaces of their own. Pulling in a TOML parser for those two facts
//! would be the tail wagging the dog — the workspace manifests are plain
//! `key = value` tables — so this module reads exactly two shapes:
//!
//! * dependency tables (`[dependencies]`, `[dev-dependencies]`,
//!   `[build-dependencies]`, inline or as `[dependencies.<pkg>]`
//!   sub-tables);
//! * a `[workspace]` table header.
//!
//! Everything else in a manifest is ignored. Crates are keyed by the
//! same names [`classify`](crate::walk::classify) assigns to source
//! files (`nucache-<dir>` for `crates/<dir>`, `root` for the workspace
//! root package), so passes can join manifest facts against
//! [`FileClass::crate_name`](crate::walk::FileClass) directly.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The dependency facts of one crate's `Cargo.toml`.
#[derive(Debug, Default, Clone)]
pub struct CrateManifest {
    /// Every package name this crate depends on (normal, dev and build
    /// dependencies alike) — the effect call graph only follows edges a
    /// crate could actually compile against.
    pub deps: BTreeSet<String>,
}

/// Dependency facts for every workspace crate, keyed by crate name.
#[derive(Debug, Default)]
pub struct Manifests {
    /// `crate_name` → parsed manifest facts.
    pub by_crate: BTreeMap<String, CrateManifest>,
}

impl Manifests {
    /// Reads the root manifest and every `crates/<dir>/Cargo.toml`.
    /// Unreadable or absent manifests (fixture mini-workspaces) simply
    /// yield no entry — passes treat a missing manifest conservatively.
    pub fn load(root: &Path) -> Manifests {
        let mut by_crate = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(root.join("Cargo.toml")) {
            by_crate.insert("root".to_string(), parse_manifest(&text));
        }
        if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
            let mut dirs: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
            dirs.sort();
            for dir in dirs {
                let Some(name) = dir.file_name().and_then(|n| n.to_str()) else { continue };
                if let Ok(text) = std::fs::read_to_string(dir.join("Cargo.toml")) {
                    by_crate.insert(format!("nucache-{name}"), parse_manifest(&text));
                }
            }
        }
        Manifests { by_crate }
    }
}

/// Strips a trailing `# comment` (the workspace manifests never put `#`
/// inside strings on lines this parser consumes).
fn strip_comment(line: &str) -> &str {
    line.split('#').next().unwrap_or("")
}

/// Whether a manifest's text opens a `[workspace]` table of its own —
/// the mark of a separate Cargo workspace (a root manifest, or a package
/// kept out of the enclosing workspace on purpose).
pub(crate) fn declares_workspace(text: &str) -> bool {
    text.lines().any(|raw| strip_comment(raw).trim() == "[workspace]")
}

/// Parses one manifest's text into the facts the passes use.
fn parse_manifest(text: &str) -> CrateManifest {
    let mut deps = BTreeSet::new();
    let mut section = String::new();
    for raw in text.lines() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        if let Some(pkg) = section
            .strip_prefix("dependencies.")
            .or_else(|| section.strip_prefix("dev-dependencies."))
            .or_else(|| section.strip_prefix("build-dependencies."))
        {
            // Sub-table: `[dependencies.pkg]` followed by its keys.
            deps.insert(pkg.trim_matches('"').to_string());
        } else if section.contains("dependencies") {
            // Inline table (`pkg = { path = "…" }`) or dotted key
            // (`pkg.workspace = true`).
            if let Some((key, _)) = line.split_once('=') {
                let key = key.trim().trim_matches('"');
                deps.insert(key.split('.').next().unwrap_or(key).to_string());
            }
        }
    }
    CrateManifest { deps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_dependency_shape() {
        let m = parse_manifest(
            r#"
[package]
name = "demo"

[features]
default = ["std"] # trailing comment
std = ["other/std"]

[dependencies]
other = { path = "../other", default-features = false }
plain = { path = "../plain" }
dotted.workspace = true

[dev-dependencies.devdep]
path = "../devdep"
default-features = false
"#,
        );
        for d in ["other", "plain", "devdep", "dotted"] {
            assert!(m.deps.contains(d), "missing dep {d}");
        }
        assert!(!m.deps.contains("dotted.workspace"), "dotted keys are normalized");
        assert!(!m.deps.contains("default"), "feature names are not dependencies");
        assert_eq!(m.deps.len(), 4, "{:?}", m.deps);
    }

    #[test]
    fn own_workspace_table_is_detected() {
        assert!(declares_workspace("[package]\nname = \"x\"\n\n[workspace]\n"));
        assert!(declares_workspace("[workspace] # standalone\nmembers = []\n"));
        assert!(!declares_workspace("[workspace.lints.rust]\nunsafe_code = \"forbid\"\n"));
        assert!(!declares_workspace("[package]\n# [workspace]\n[lints]\nworkspace = true\n"));
    }
}
