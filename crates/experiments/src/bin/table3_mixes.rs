//! Regenerates Table 3 (multiprogrammed mixes).
fn main() -> std::process::ExitCode {
    nucache_experiments::cli_run("table3_mixes", |runner| {
        nucache_experiments::tables::table3(runner);
    })
}
