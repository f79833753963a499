//! Regenerates Fig. 1 (delinquent-PC miss concentration).
fn main() -> std::process::ExitCode {
    nucache_experiments::cli_run("fig1_delinquent_pcs", |runner| {
        nucache_experiments::figs::fig1(runner);
    })
}
