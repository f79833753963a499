//! Regenerates Fig. 3 (single-core NUcache vs LRU).
fn main() -> std::process::ExitCode {
    nucache_experiments::cli_run("fig3_single_core", |runner| {
        nucache_experiments::figs::fig3(runner);
    })
}
