//! `failures.json` keeps one entry per experiment and a run replaces
//! only its own, so a clean run into the same output directory leaves
//! a failed run's account in place.

#![allow(clippy::expect_used, reason = "test helpers fail the test on a broken invariant")]

use nucache_common::json::{parse, JsonValue};
use std::path::Path;
use std::process::Command;

/// What `run_all --inject-faults` leaves next to its partial CSVs.
const RUN_ALL_FAILED: &str = r#"{"run_all": [{"stage": "fig5_dual_core",
    "job": "mix2_03/nucache-d8", "index": 7,
    "message": "injected fault: worker panic (plan seed 42)"}]}"#;

/// Writes `before` as `out`'s `failures.json`, runs the clean
/// `table1_config` into `out`, and returns the file afterwards, if any.
fn clean_run_over(out: &Path, before: &str) -> Option<JsonValue> {
    std::fs::write(out.join("failures.json"), before).expect("write failures.json");
    let output = Command::new(env!("CARGO_BIN_EXE_table1_config"))
        .env("NUCACHE_OUT", out)
        .env_remove("NUCACHE_QUICK")
        .output()
        .expect("table1_config runs");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let after = std::fs::read_to_string(out.join("failures.json")).ok()?;
    Some(parse(&after).expect("failures.json parses"))
}

#[test]
fn a_clean_run_replaces_only_its_own_entry() {
    let out = std::env::temp_dir().join(format!("nucache_failures_json_{}", std::process::id()));
    std::fs::create_dir_all(&out).expect("create the output directory");
    let failed = parse(RUN_ALL_FAILED).expect("fixture parses");

    // A failed run_all's account survives a clean run unchanged.
    assert_eq!(clean_run_over(&out, RUN_ALL_FAILED), Some(failed.clone()));
    // The clean run drops its own earlier entry and keeps the others.
    let both = RUN_ALL_FAILED.replacen('{', r#"{"table1_config": [{"stage": "table1"}], "#, 1);
    assert_eq!(clean_run_over(&out, &both), Some(failed));
    // Once no entry is left the file goes, as does content of another shape.
    assert_eq!(clean_run_over(&out, r#"{"table1_config": [{"stage": "table1"}]}"#), None);
    assert_eq!(clean_run_over(&out, r#"[{"stage": "fig5_dual_core"}]"#), None);
    std::fs::remove_dir_all(&out).expect("remove the output directory");
}
