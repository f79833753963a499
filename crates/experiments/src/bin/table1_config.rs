//! Regenerates Table 1 (system configuration).
fn main() -> std::process::ExitCode {
    nucache_experiments::cli_run("table1_config", |runner| {
        nucache_experiments::tables::table1(runner);
    })
}
