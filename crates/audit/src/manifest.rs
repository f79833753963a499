//! Minimal workspace-manifest model for feature-aware lints.
//!
//! The cfg-gate lint needs two facts Cargo owns: which features a crate
//! enables *by default*, and whether a dependent turns those defaults
//! off. Pulling in a TOML parser for that would be the tail wagging the
//! dog — the workspace manifests are plain `key = value` tables — so
//! this module reads exactly the three shapes the lint consumes:
//!
//! * `[features]` arrays, to compute the closure of `default`;
//! * inline dependency tables carrying `default-features = false`;
//! * `[dependencies.<pkg>]` sub-tables carrying the same key.
//!
//! Everything else in a manifest is ignored. Crates are keyed by the
//! same names [`classify`](crate::walk::classify) assigns to source
//! files (`nucache-<dir>` for `crates/<dir>`, `root` for the workspace
//! root package), so lints can join manifest facts against
//! [`FileClass::crate_name`](crate::walk::FileClass) directly.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The feature facts of one crate's `Cargo.toml`.
#[derive(Debug, Default, Clone)]
pub struct CrateManifest {
    /// Features enabled by a default build: the transitive closure of
    /// the `default` feature over the `[features]` graph (dependency
    /// features like `other-crate/std` are kept verbatim and simply
    /// never match a plain feature name).
    pub default_features: BTreeSet<String>,
    /// Package names this crate depends on with
    /// `default-features = false`.
    pub no_default_deps: BTreeSet<String>,
    /// Every package name this crate depends on (normal, dev and build
    /// dependencies alike) — the effect call graph only follows edges a
    /// crate could actually compile against.
    pub deps: BTreeSet<String>,
    /// Whether the manifest opts into the workspace lint table with
    /// `[lints] workspace = true` (how `unsafe_code = "forbid"` reaches
    /// every crate).
    pub lints_workspace: bool,
    /// Whether a `[workspace.lints.rust]` (or crate-local `[lints.rust]`)
    /// table pins `unsafe_code = "forbid"`.
    pub forbids_unsafe: bool,
}

/// Feature facts for every workspace crate, keyed by lint crate name.
#[derive(Debug, Default)]
pub struct Manifests {
    /// `crate_name` → parsed manifest facts.
    pub by_crate: BTreeMap<String, CrateManifest>,
}

impl Manifests {
    /// Reads the root manifest and every `crates/<dir>/Cargo.toml`.
    /// Unreadable or absent manifests (fixture mini-workspaces) simply
    /// yield no entry — lints treat a missing manifest conservatively.
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

    /// Whether feature `feature` of crate `of` is on in a default build.
    pub fn enabled_by_default(&self, of: &str, feature: &str) -> bool {
        self.by_crate.get(of).is_some_and(|m| m.default_features.contains(feature))
    }

    /// Whether crate `user` declares its dependency on `dep` with
    /// `default-features = false`.
    pub fn disables_defaults(&self, user: &str, dep: &str) -> bool {
        self.by_crate.get(user).is_some_and(|m| m.no_default_deps.contains(dep))
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

/// Parses one manifest's text into the facts the lints use.
fn parse_manifest(text: &str) -> CrateManifest {
    let mut features: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut no_default_deps = BTreeSet::new();
    let mut deps = BTreeSet::new();
    let mut lints_workspace = false;
    let mut forbids_unsafe = false;
    let mut section = String::new();
    // Accumulates a (possibly multi-line) `name = [ ... ]` array in the
    // `[features]` section until its closing bracket.
    let mut open_array: Option<(String, String)> = None;

    for raw in text.lines() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some((name, body)) = &mut open_array {
            body.push_str(line);
            if line.contains(']') {
                features.insert(name.clone(), parse_array(body));
                open_array = None;
            }
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        if section == "features" {
            if let Some((key, value)) = line.split_once('=') {
                let (key, value) = (key.trim().to_string(), value.trim());
                if value.contains(']') {
                    features.insert(key, parse_array(value));
                } else if value.starts_with('[') {
                    open_array = Some((key, value.to_string()));
                }
            }
        } else if let Some(pkg) = section
            .strip_prefix("dependencies.")
            .or_else(|| section.strip_prefix("dev-dependencies."))
            .or_else(|| section.strip_prefix("build-dependencies."))
        {
            // Sub-table: `[dependencies.pkg]` … `default-features = false`.
            deps.insert(pkg.trim_matches('"').to_string());
            if line.replace(' ', "").starts_with("default-features=false") {
                no_default_deps.insert(pkg.trim_matches('"').to_string());
            }
        } else if section.contains("dependencies") {
            // Inline table (`pkg = { path = "…", default-features = false }`)
            // or dotted key (`pkg.workspace = true`).
            if let Some((key, value)) = line.split_once('=') {
                let key = key.trim().trim_matches('"');
                let pkg = key.split('.').next().unwrap_or(key).to_string();
                deps.insert(pkg.clone());
                if value.contains("default-features") && value.contains("false") {
                    no_default_deps.insert(pkg);
                }
            }
        } else if section == "lints" && line.replace(' ', "").starts_with("workspace=true") {
            lints_workspace = true;
        } else if (section == "workspace.lints.rust" || section == "lints.rust")
            && line.replace(' ', "").starts_with("unsafe_code=")
            && line.contains("forbid")
        {
            forbids_unsafe = true;
        }
    }

    // Close the `default` feature over the feature graph: an entry that
    // names another feature pulls that feature's entries in too.
    let mut default_features = BTreeSet::new();
    let mut queue: Vec<String> = features.get("default").cloned().unwrap_or_default();
    while let Some(f) = queue.pop() {
        if default_features.insert(f.clone()) {
            if let Some(more) = features.get(&f) {
                queue.extend(more.iter().cloned());
            }
        }
    }

    CrateManifest { default_features, no_default_deps, deps, lints_workspace, forbids_unsafe }
}

/// Parses `["a", "b/c"]` into its string entries.
fn parse_array(text: &str) -> Vec<String> {
    let inner = text
        .trim()
        .trim_start_matches('[')
        .trim_end_matches(|c: char| c == ']' || c.is_whitespace());
    inner
        .split(',')
        .map(|e| e.trim().trim_matches('"').to_string())
        .filter(|e| !e.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_defaults_dependency_flags_and_closure() {
        let m = parse_manifest(
            r#"
[package]
name = "demo"

[features]
default = ["std", "extras"] # trailing comment
extras = ["rayon-like"]
rayon-like = []
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
        for f in ["std", "extras", "rayon-like"] {
            assert!(m.default_features.contains(f), "missing {f}");
        }
        assert!(m.default_features.contains("other/std"), "dep features kept verbatim");
        assert!(m.no_default_deps.contains("other"));
        assert!(m.no_default_deps.contains("devdep"));
        assert!(!m.no_default_deps.contains("plain"));
        for d in ["other", "plain", "devdep", "dotted"] {
            assert!(m.deps.contains(d), "missing dep {d}");
        }
        assert!(!m.deps.contains("dotted.workspace"), "dotted keys are normalized");
        assert!(!m.lints_workspace, "no [lints] table in this manifest");
    }

    #[test]
    fn lints_workspace_table_is_detected() {
        let m = parse_manifest("[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n");
        assert!(m.lints_workspace);
        let m = parse_manifest("[package]\nname = \"x\"\n\n[lints]\nworkspace = false\n");
        assert!(!m.lints_workspace);
    }

    #[test]
    fn unsafe_forbid_pin_is_detected() {
        let m = parse_manifest("[workspace.lints.rust]\nunsafe_code = \"forbid\"\n");
        assert!(m.forbids_unsafe);
        let m = parse_manifest("[lints.rust]\nunsafe_code = \"forbid\"\n");
        assert!(m.forbids_unsafe);
        let m = parse_manifest("[workspace.lints.rust]\nunsafe_code = \"deny\"\n");
        assert!(!m.forbids_unsafe);
    }

    #[test]
    fn own_workspace_table_is_detected() {
        assert!(declares_workspace("[package]\nname = \"x\"\n\n[workspace]\n"));
        assert!(declares_workspace("[workspace] # standalone\nmembers = []\n"));
        assert!(!declares_workspace("[workspace.lints.rust]\nunsafe_code = \"forbid\"\n"));
        assert!(!declares_workspace("[package]\n# [workspace]\n[lints]\nworkspace = true\n"));
    }

    #[test]
    fn multiline_arrays_and_missing_sections() {
        let m = parse_manifest("[features]\ndefault = [\n  \"a\",\n  \"b\",\n]\na = []\nb = []\n");
        assert_eq!(m.default_features.len(), 2);
        assert!(parse_manifest("[package]\nname = \"x\"\n").default_features.is_empty());
    }
}
