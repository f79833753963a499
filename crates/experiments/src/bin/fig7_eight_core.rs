//! Regenerates Fig. 7 (8-core headline comparison).
fn main() -> std::process::ExitCode {
    nucache_experiments::cli_run("fig7_eight_core", |runner| {
        let g = nucache_experiments::figs::fig7(runner);
        println!("\ngeomean normalized WS over LRU: {g:?}");
    })
}
