//! Regenerates Fig. 9 (LLC-capacity sensitivity).
fn main() -> std::process::ExitCode {
    nucache_experiments::cli_run("fig9_cache_size", |runner| {
        nucache_experiments::figs::fig9(runner);
    })
}
