//! Regenerates Fig. 11 (PC-selection strategy ablation).
fn main() -> std::process::ExitCode {
    nucache_experiments::cli_run("fig11_selection_ablation", |runner| {
        nucache_experiments::figs::fig11(runner);
    })
}
