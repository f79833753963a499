//! Regenerates Table 2 (workload inventory).
fn main() -> std::process::ExitCode {
    nucache_experiments::cli_run("table2_workloads", |runner| {
        nucache_experiments::tables::table2(runner);
    })
}
