//! Regenerates Fig. 2 (Next-Use distance distributions).
fn main() -> std::process::ExitCode {
    nucache_experiments::cli_run("fig2_next_use", |runner| {
        nucache_experiments::figs::fig2(runner);
    })
}
