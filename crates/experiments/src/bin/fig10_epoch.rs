//! Regenerates Fig. 10 (selection-epoch sensitivity).
fn main() -> std::process::ExitCode {
    nucache_experiments::cli_run("fig10_epoch", |runner| {
        nucache_experiments::figs::fig10(runner);
    })
}
