//! Workspace file discovery and path classification.

use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "runs", "results", "fixtures"];

/// Collects every `.rs` file under `root`, sorted by path so the walk
/// (and therefore diagnostic order and the allowlist) is deterministic.
///
/// A directory below `root` whose `Cargo.toml` declares its own
/// `[workspace]` is a separate Cargo workspace (the `perfbench`
/// benchmark, say): Cargo builds, tests and lints it apart from this
/// one, so the audit skips it too rather than judge it as library code
/// of the root package.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = std::fs::read_dir(&dir)?
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) && !name.starts_with('.') && !is_own_workspace(&path)
                {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Whether `dir` holds a `Cargo.toml` that declares its own `[workspace]`.
fn is_own_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|text| crate::manifest::declares_workspace(&text))
}

/// Where a source file sits in the workspace — drives which lints apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Crate the file belongs to (`nucache-core`, `root`, `vendor/rand`, …).
    pub crate_name: String,
    /// Vendored third-party code (`vendor/*`): only `forbid-unsafe-missing`
    /// is checked there, and only at crate roots.
    pub is_vendor: bool,
    /// Integration-test file (`tests/` directory).
    pub is_test_dir: bool,
    /// Benchmark file (`benches/` directory).
    pub is_bench: bool,
    /// Binary target (`src/bin/` or `src/main.rs`).
    pub is_bin: bool,
    /// Example program (`examples/` directory).
    pub is_example: bool,
    /// Crate root (`src/lib.rs` or `src/main.rs`): must carry
    /// `#![forbid(unsafe_code)]`.
    pub is_crate_root: bool,
    /// Build script (`build.rs`): exempt from library-code lints.
    pub is_build_script: bool,
}

impl FileClass {
    /// Whether this file is simulator library code — the scope for the
    /// determinism, wall-clock, cast and unwrap lints. Experiment
    /// binaries, benches, tests, vendor code and the audit tool itself
    /// are out of scope.
    pub fn is_sim_lib(&self) -> bool {
        !self.is_vendor
            && !self.is_test_dir
            && !self.is_bench
            && !self.is_bin
            && !self.is_example
            && !self.is_build_script
            && self.crate_name != "nucache-audit"
            && self.crate_name != "nucache-bench"
            && self.crate_name != "nucache-experiments"
    }
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileClass {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, is_vendor) = match parts.as_slice() {
        ["crates", name, ..] => (format!("nucache-{name}"), false),
        ["vendor", name, ..] => (format!("vendor/{name}"), true),
        _ => ("root".to_string(), false),
    };
    let is_test_dir = parts.contains(&"tests");
    let is_bench = parts.contains(&"benches");
    let is_example = parts.contains(&"examples");
    let file = parts.last().copied().unwrap_or("");
    let in_bin_dir = parts.windows(2).any(|w| w == ["src", "bin"]);
    let is_bin = in_bin_dir || (file == "main.rs" && parts.contains(&"src"));
    let is_crate_root =
        (file == "lib.rs" || file == "main.rs") && parts.iter().rev().nth(1) == Some(&"src");
    let is_build_script = rel.ends_with("build.rs") && !parts.contains(&"src");
    FileClass {
        crate_name,
        is_vendor,
        is_test_dir,
        is_bench,
        is_bin,
        is_example,
        is_crate_root,
        is_build_script,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_core_lib() {
        let c = classify("crates/core/src/llc.rs");
        assert_eq!(c.crate_name, "nucache-core");
        assert!(c.is_sim_lib());
        assert!(!c.is_crate_root);
    }

    #[test]
    fn classify_crate_roots() {
        assert!(classify("crates/core/src/lib.rs").is_crate_root);
        assert!(classify("src/lib.rs").is_crate_root);
        assert!(classify("vendor/rand/src/lib.rs").is_crate_root);
        assert!(!classify("crates/core/src/llc.rs").is_crate_root);
        let bin = classify("crates/experiments/src/bin/simulate.rs");
        assert!(bin.is_bin && !bin.is_crate_root);
    }

    #[test]
    fn nested_workspaces_are_not_walked() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/nested_workspace");
        let found = collect_rs_files(&root).expect("walk the fixture");
        let rel: Vec<_> =
            found.iter().map(|p| p.strip_prefix(&root).expect("under root")).collect();
        assert_eq!(rel, [Path::new("crates/core/src/lib.rs")], "bench/ has its own [workspace]");
        let diags = crate::lints::run_lints(&root, &crate::lints::Allowlist::default())
            .expect("lint the fixture");
        assert!(diags.is_empty(), "nothing under bench/ is linted: {diags:?}");
    }

    #[test]
    fn out_of_scope_files() {
        assert!(!classify("crates/cache/tests/policy_properties.rs").is_sim_lib());
        assert!(!classify("crates/bench/benches/nucache.rs").is_sim_lib());
        assert!(!classify("crates/experiments/src/lib.rs").is_sim_lib());
        assert!(!classify("vendor/proptest/src/lib.rs").is_sim_lib());
        assert!(!classify("crates/audit/src/lints.rs").is_sim_lib());
        assert!(!classify("examples/policy_comparison.rs").is_sim_lib());
        assert!(classify("crates/sim/src/driver.rs").is_sim_lib());
        assert!(classify("src/lib.rs").is_sim_lib());
    }
}
