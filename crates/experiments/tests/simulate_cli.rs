//! `simulate` rejects input it cannot build with exit code 1 and a
//! message naming the flag, instead of panicking inside the simulator.

#![allow(clippy::expect_used, reason = "test helpers fail the test on a broken invariant")]

use std::process::{Command, Output};

/// Runs `simulate` with `args`, writing any run files into a scratch
/// directory.
fn simulate(args: &[&str]) -> Output {
    let out = std::env::temp_dir().join(format!("nucache_simulate_cli_{}", std::process::id()));
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .env("NUCACHE_OUT", &out)
        .env_remove("NUCACHE_QUICK")
        .output()
        .expect("simulate runs")
}

#[test]
fn unbuildable_input_exits_1_naming_the_flag() {
    let cases: &[(&[&str], &str)] = &[
        // The LLC defaults to 1 MiB per core: 3 MiB has no power-of-two
        // set count.
        (&["--cores", "3"], "--llc-mb"),
        (&["--llc-mb", "3"], "--llc-mb"),
        (&["--llc-mb", "0"], "--llc-mb"),
        (&["--measure", "0"], "--measure"),
        (&["--epoch", "0"], "--epoch"),
        // 16 DeliWays leave no MainWay in the 16-way LLC.
        (&["--deli-ways", "16"], "--deli-ways"),
        (&["--scheme", "ucp", "--cores", "32"], "--cores"),
        (&["--scheme", "pipp", "--cores", "17", "--llc-mb", "32"], "--cores"),
    ];
    for (args, flag) in cases {
        let output = simulate(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?} exits 1; stderr: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: message names {flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
}

#[test]
fn a_short_valid_run_succeeds() {
    // Three cores with an explicit power-of-two LLC: the configuration
    // is built core count first, then LLC.
    let output =
        simulate(&["--cores", "3", "--llc-mb", "4", "--warmup", "1000", "--measure", "2000"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    assert!(stdout.contains("scheme=nucache-d8 cores=3 llc=4MB"), "{stdout}");
    assert!(stdout.contains("LLC totals"), "{stdout}");
}
