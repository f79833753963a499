//! Regenerates Fig. 12 (Belady-OPT headroom analysis).
fn main() -> std::process::ExitCode {
    nucache_experiments::cli_run("fig12_opt_headroom", |runner| {
        nucache_experiments::figs::fig12(runner);
    })
}
