//! Run-level telemetry plumbing: JSONL stream naming and
//! machine-readable run manifests.
//!
//! The event *model* lives in [`nucache_common::telemetry`]; this module
//! is the simulation-side glue that turns it into files on disk:
//!
//! * [`TelemetrySpec`] — per-run knobs (destination directory, LLC
//!   snapshot cadence), handed to a [`Runner`](crate::Runner) with
//!   `with_telemetry`. Without one, telemetry is off and simulations
//!   skip event construction entirely;
//! * [`stream_path`] — the canonical `NNN_mix__scheme.jsonl` naming for
//!   one simulation's event stream;
//! * [`Manifest`] / [`write_manifest`] — the `manifest.json` that makes
//!   every emitted CSV reproducible: configuration, git revision,
//!   wall-clock time, the streams written, and — when the run did not go
//!   cleanly — a `failures` section ([`FailureRecord`]) plus degradation
//!   `notes` from the runner's log, so partial results are explicitly
//!   labelled as partial.
//!
//! Streams are written one file per (mix, scheme) job, so parallel
//! runners never contend on a writer and stream contents are
//! bit-identical at any `--jobs` value.

use crate::config::SimConfig;
use nucache_common::json::JsonValue;
use std::path::{Path, PathBuf};

/// Default accesses between periodic LLC counter snapshots — matches the
/// default NUcache selection epoch, so `llc_epoch` and `selection_epoch`
/// events interleave at comparable cadence.
pub const DEFAULT_SNAPSHOT_INTERVAL: u64 = 100_000;

/// One failed pipeline unit — a simulation job that panicked, or an
/// experiment step that aborted — recorded for the run manifest's
/// `failures` section instead of being lost with the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecord {
    /// Where the failure happened: an experiment step id (`fig5`) or the
    /// literal `"job"` for a runner-level simulation job.
    pub stage: String,
    /// The failed job, as `mix/scheme`, when the failure was job-level.
    pub job: Option<String>,
    /// Index of the failed job within its run, when job-level.
    pub index: Option<u64>,
    /// The panic or error message.
    pub message: String,
}

impl FailureRecord {
    /// Serializes to the object stored in the manifest's `failures`
    /// array.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("stage", self.stage.as_str().into()),
            ("job", self.job.as_deref().map_or(JsonValue::Null, JsonValue::from)),
            ("index", self.index.map_or(JsonValue::Null, JsonValue::from)),
            ("message", self.message.as_str().into()),
        ])
    }
}

/// Where and how densely one run records telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Directory JSONL streams are written into.
    pub dir: PathBuf,
    /// Total issued accesses between periodic LLC counter snapshots.
    pub snapshot_interval: u64,
}

impl TelemetrySpec {
    /// Creates a spec writing to `dir` at the default snapshot cadence.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TelemetrySpec { dir: dir.into(), snapshot_interval: DEFAULT_SNAPSHOT_INTERVAL }
    }
}

/// The JSONL stream path for job number `index` simulating `mix` under
/// `scheme`: `dir/NNN_mix__scheme.jsonl`.
///
/// The index keeps streams unique when one mix runs under identically
/// named schemes (e.g. epoch-length sweeps where every column is
/// `nucache-d8`), and sorts streams in submission order.
pub fn stream_path(dir: &Path, index: usize, mix: &str, scheme: &str) -> PathBuf {
    let sanitize = |s: &str| -> String {
        s.chars()
            .map(|c| if c.is_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
            .collect()
    };
    dir.join(format!("{:03}_{}__{}.jsonl", index, sanitize(mix), sanitize(scheme)))
}

/// Best-effort current git revision, read directly from `.git` (no
/// subprocess, works offline): the first `.git` directory at or above the
/// current directory, resolved as `git_revision_from` does.
pub fn git_revision() -> Option<String> {
    git_revision_from(&std::env::current_dir().ok()?)
}

/// The revision of the first `.git` directory at or above `start`:
/// resolves `HEAD` through one level of `ref:` indirection, to the loose
/// ref file or else its `packed-refs` line. `None` when there is no
/// `.git` or the ref cannot be read.
fn git_revision_from(start: &Path) -> Option<String> {
    let root = start.ancestors().map(|d| d.join(".git")).find(|g| g.is_dir())?;
    let head = std::fs::read_to_string(root.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return (!head.is_empty()).then(|| head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(root.join(refname)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(root.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find_map(|(rev, name)| (name.trim() == refname).then(|| rev.to_string()))
}

/// Everything needed to reproduce one telemetered run, serialized as
/// `manifest.json` next to the JSONL streams.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// The experiment or driver that produced the streams (e.g.
    /// `fig5_dual_core`).
    pub experiment: String,
    /// Command-line arguments the driver was invoked with.
    pub argv: Vec<String>,
    /// Git revision of the tree, when resolvable.
    pub git_revision: Option<String>,
    /// Wall-clock seconds the run took.
    pub wall_seconds: f64,
    /// Worker threads used.
    pub jobs: u64,
    /// Whether quick mode (shortened runs) was active.
    pub quick: bool,
    /// The system configuration of the primary runs (experiments that
    /// sweep configurations record their base point).
    pub config: Option<SimConfig>,
    /// JSONL streams written, relative to the manifest's directory.
    pub streams: Vec<String>,
    /// Jobs and steps that failed; empty for a clean run. A non-empty
    /// list means every other number in this directory is a *partial*
    /// result.
    pub failures: Vec<FailureRecord>,
    /// Graceful degradations that did not fail anything (lost telemetry
    /// streams, stuck-job watchdog flags, …).
    pub notes: Vec<String>,
}

impl Manifest {
    /// Serializes to the `manifest.json` object.
    pub fn to_json(&self) -> JsonValue {
        let config = self.config.as_ref().map_or(JsonValue::Null, |c| {
            JsonValue::obj(vec![
                ("num_cores", c.num_cores.into()),
                ("llc_bytes", c.llc.size_bytes().into()),
                ("llc_associativity", c.llc.associativity().into()),
                ("llc_block_bytes", u64::from(c.llc.block_bytes()).into()),
                ("l1_bytes", c.l1.size_bytes().into()),
                ("l2_bytes", c.l2.size_bytes().into()),
                ("warmup_accesses", c.warmup_accesses.into()),
                ("measure_accesses", c.measure_accesses.into()),
                ("seed", c.seed.into()),
            ])
        });
        JsonValue::obj(vec![
            ("experiment", self.experiment.as_str().into()),
            ("argv", JsonValue::Arr(self.argv.iter().map(|a| a.as_str().into()).collect())),
            ("git_revision", self.git_revision.as_deref().map_or(JsonValue::Null, JsonValue::from)),
            ("wall_seconds", self.wall_seconds.into()),
            ("jobs", self.jobs.into()),
            ("quick", self.quick.into()),
            ("config", config),
            ("streams", JsonValue::Arr(self.streams.iter().map(|s| s.as_str().into()).collect())),
            (
                "failures",
                JsonValue::Arr(self.failures.iter().map(FailureRecord::to_json).collect()),
            ),
            ("notes", JsonValue::Arr(self.notes.iter().map(|n| n.as_str().into()).collect())),
        ])
    }
}

/// Writes `manifest.json` into `dir`, filling `streams` with the JSONL
/// files currently present there (sorted, so the listing is stable).
///
/// # Errors
///
/// Returns an error when the directory cannot be created or the file
/// cannot be written.
pub fn write_manifest(dir: &Path, manifest: &Manifest) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut manifest = manifest.clone();
    if manifest.streams.is_empty() {
        let mut streams: Vec<String> = std::fs::read_dir(dir)?
            .filter_map(Result::ok)
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.ends_with(".jsonl"))
            .collect();
        streams.sort();
        manifest.streams = streams;
    }
    let path = dir.join("manifest.json");
    std::fs::write(&path, manifest.to_json().to_string_pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucache_common::json;

    #[test]
    fn stream_paths_are_sanitized_and_ordered() {
        let d = Path::new("/tmp/t");
        let p = stream_path(d, 7, "mix2_01", "nucache-d8");
        assert_eq!(p, d.join("007_mix2_01__nucache-d8.jsonl"));
        let weird = stream_path(d, 0, "a/b c", "x:y");
        assert_eq!(weird, d.join("000_a-b-c__x-y.jsonl"));
    }

    #[test]
    fn git_revision_resolves_in_this_repo() {
        // In a checkout the revision must resolve to a 40-hex-digit commit
        // id; a source export with no `.git` above it has none.
        let cwd = std::env::current_dir().unwrap();
        let in_checkout = cwd.ancestors().any(|d| d.join(".git").is_dir());
        match git_revision() {
            Some(rev) => {
                assert!(in_checkout, "revision '{rev}' found outside a checkout");
                assert_eq!(rev.len(), 40, "unexpected revision '{rev}'");
                assert!(rev.chars().all(|c| c.is_ascii_hexdigit()));
            }
            None => assert!(!in_checkout, "a checkout must resolve a revision"),
        }
    }

    /// Builds `dir/.git` with `HEAD` and the given `(path, contents)` files.
    fn fake_git(dir: &Path, head: &str, files: &[(&str, String)]) {
        let git = dir.join(".git");
        std::fs::create_dir_all(&git).unwrap();
        std::fs::write(git.join("HEAD"), head).unwrap();
        for (path, contents) in files {
            let path = git.join(path);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, contents).unwrap();
        }
    }

    #[test]
    fn git_revision_reads_loose_packed_and_detached_heads() {
        let tmp = std::env::temp_dir().join(format!("nucache-gitrev-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        let rev = |c: char| c.to_string().repeat(40);

        // HEAD -> loose ref, found by walking up from a subdirectory.
        let loose = tmp.join("loose");
        fake_git(&loose, "ref: refs/heads/main\n", &[("refs/heads/main", rev('a') + "\n")]);
        let sub = loose.join("crates/sim");
        std::fs::create_dir_all(&sub).unwrap();
        assert_eq!(git_revision_from(&sub), Some(rev('a')));

        // HEAD -> a ref that exists only in packed-refs.
        let packed = tmp.join("packed");
        let table = format!(
            "# pack-refs with: peeled fully-peeled sorted\n{} refs/heads/dev\n{} refs/heads/main\n^{}\n",
            rev('b'),
            rev('c'),
            rev('d')
        );
        fake_git(&packed, "ref: refs/heads/main\n", &[("packed-refs", table)]);
        assert_eq!(git_revision_from(&packed), Some(rev('c')));

        // A ref in neither place does not resolve.
        let dangling = tmp.join("dangling");
        fake_git(&dangling, "ref: refs/heads/gone\n", &[]);
        assert_eq!(git_revision_from(&dangling), None);

        // Detached HEAD holds the commit id itself.
        let detached = tmp.join("detached");
        fake_git(&detached, &(rev('e') + "\n"), &[]);
        assert_eq!(git_revision_from(&detached), Some(rev('e')));

        // No `.git` anywhere above: no revision.
        let bare = tmp.join("bare");
        std::fs::create_dir_all(&bare).unwrap();
        if !bare.ancestors().any(|d| d.join(".git").is_dir()) {
            assert_eq!(git_revision_from(&bare), None);
        }
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn manifest_round_trips_and_lists_streams() {
        const REV: &str = "0123456789abcdef0123456789abcdef01234567";
        let dir = std::env::temp_dir().join(format!("nucache-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("001_m__s.jsonl"), "{}\n").unwrap();
        std::fs::write(dir.join("000_m__s.jsonl"), "{}\n").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let manifest = Manifest {
            experiment: "unit_test".into(),
            argv: vec!["--telemetry".into(), dir.display().to_string()],
            git_revision: Some(REV.into()),
            wall_seconds: 1.5,
            jobs: 4,
            quick: true,
            config: Some(SimConfig::demo()),
            streams: Vec::new(),
            failures: vec![FailureRecord {
                stage: "fig5".into(),
                job: Some("mix2_01/nucache-d8".into()),
                index: Some(3),
                message: "injected fault: worker-panic at index 3".into(),
            }],
            notes: vec!["telemetry stream lost".into()],
        };
        let path = write_manifest(&dir, &manifest).unwrap();
        let parsed = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed.get("experiment").unwrap().as_str(), Some("unit_test"));
        assert_eq!(parsed.get("jobs").unwrap().as_u64(), Some(4));
        assert_eq!(parsed.get("quick").unwrap().as_bool(), Some(true));
        let streams = parsed.get("streams").unwrap().as_arr().unwrap();
        assert_eq!(streams.len(), 2, "only jsonl files listed");
        assert_eq!(streams[0].as_str(), Some("000_m__s.jsonl"), "sorted");
        let config = parsed.get("config").unwrap();
        assert!(config.get("llc_bytes").unwrap().as_u64().unwrap() > 0);
        assert_eq!(parsed.get("git_revision").unwrap().as_str(), Some(REV));
        let failures = parsed.get("failures").unwrap().as_arr().unwrap();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].get("stage").unwrap().as_str(), Some("fig5"));
        assert_eq!(failures[0].get("index").unwrap().as_u64(), Some(3));
        assert_eq!(failures[0].get("attempts"), None);
        assert!(failures[0].get("message").unwrap().as_str().unwrap().contains("injected fault"));
        let notes = parsed.get("notes").unwrap().as_arr().unwrap();
        assert_eq!(notes.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
