//! Regenerates Fig. 5 (2-core headline comparison).
fn main() -> std::process::ExitCode {
    nucache_experiments::cli_run("fig5_dual_core", |runner| {
        let g = nucache_experiments::figs::fig5(runner);
        println!("\ngeomean normalized WS over LRU: {g:?}");
    })
}
