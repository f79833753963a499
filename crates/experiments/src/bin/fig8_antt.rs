//! Regenerates Fig. 8 (ANTT across core counts).
fn main() -> std::process::ExitCode {
    nucache_experiments::cli_run("fig8_antt", |runner| {
        nucache_experiments::figs::fig8(runner);
    })
}
