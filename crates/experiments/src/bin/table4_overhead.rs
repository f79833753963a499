//! Regenerates Table 4 (storage overhead).
fn main() -> std::process::ExitCode {
    nucache_experiments::cli_run("table4_overhead", |runner| {
        nucache_experiments::tables::table4(runner);
    })
}
