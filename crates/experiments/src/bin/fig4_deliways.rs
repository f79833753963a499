//! Regenerates Fig. 4 (DeliWays sensitivity).
fn main() -> std::process::ExitCode {
    nucache_experiments::cli_run("fig4_deliways", |runner| {
        nucache_experiments::figs::fig4(runner);
    })
}
