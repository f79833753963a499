//! Regenerates Fig. 6 (4-core headline comparison).
fn main() -> std::process::ExitCode {
    nucache_experiments::cli_run("fig6_quad_core", |runner| {
        let g = nucache_experiments::figs::fig6(runner);
        println!("\ngeomean normalized WS over LRU: {g:?}");
    })
}
