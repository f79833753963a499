//! Table generators (system configuration, workloads, mixes, overhead).

use crate::{emit, run_lengths};
use nucache_cache::config::DEFAULT_BLOCK_BYTES;
use nucache_common::table::{f2, f3, Table};
use nucache_common::CoreId;
use nucache_core::overhead::{nucache_overhead, pipp_overhead, tadip_overhead, ucp_overhead};
use nucache_core::NuCacheConfig;
use nucache_sim::config::{BASELINE_LLC_BYTES_PER_CORE, BASELINE_LLC_WAYS};
use nucache_sim::runner::{parallel_map, Runner};
use nucache_sim::scheme::PARTITION_EPOCH;
use nucache_sim::{run_solo, SimConfig};
use nucache_trace::{Mix, SpecWorkload, TraceGen, TraceSummary};

/// Table 1: the simulated system configuration.
pub fn table1(runner: &Runner) {
    let config = SimConfig::baseline(4);
    let nu = NuCacheConfig::default();
    let mut t = Table::new(["parameter", "value"]);
    let mut row = |k: &str, v: String| {
        t.row([k.to_string(), v]);
    };
    row("cores", "1 / 2 / 4 / 8 (per experiment)".into());
    row("core model", "in-order, 1 IPC + memory stalls, per-class MLP overlap".into());
    row("L1 (private)", format!("{}", config.l1));
    row("L2 (private)", format!("{}", config.l2));
    row(
        "LLC (shared)",
        format!(
            "{} MiB per core, {}-way, {}B (scales with cores)",
            BASELINE_LLC_BYTES_PER_CORE >> 20,
            BASELINE_LLC_WAYS,
            DEFAULT_BLOCK_BYTES
        ),
    );
    row("latencies", format!("{}", config.timing));
    row(
        "NUcache MainWays/DeliWays",
        format!("{} / {}", BASELINE_LLC_WAYS - nu.deli_ways, nu.deli_ways),
    );
    row("NUcache epoch", format!("{} LLC accesses", nu.epoch_len));
    row("NUcache candidates", format!("{}", nu.max_candidates));
    row(
        "Next-Use monitor",
        format!("1 set in {}, {} entries/set", 1 << nu.monitor_shift, nu.monitor_depth),
    );
    row("UCP/PIPP epoch", format!("{PARTITION_EPOCH} LLC accesses, UMON-DSS 1 set in 32"));
    let (warm, meas) = run_lengths();
    row("run length / core", format!("{warm} warm-up + {meas} measured accesses"));
    emit(runner, "table1_config", "Simulated system configuration", &t);
}

/// Table 2: workload inventory with solo behaviour.
pub fn table2(runner: &Runner) {
    let (warm, meas) = run_lengths();
    let config = SimConfig::baseline(1).with_run_lengths(warm, meas);
    let mut t = Table::new([
        "workload",
        "class",
        "footprint_mb",
        "apki",
        "solo_ipc",
        "solo_llc_mpki",
        "pcs",
        "top4_pc_cov",
    ]);
    let rows = parallel_map(runner.jobs(), &SpecWorkload::ALL, |&w| {
        let summary = TraceSummary::from_accesses(
            TraceGen::new(&w.spec(), CoreId::new(0), config.seed).take(200_000),
        );
        (summary, run_solo(&config, w))
    });
    for (w, (summary, solo)) in SpecWorkload::ALL.iter().zip(&rows) {
        t.row([
            w.name().to_string(),
            w.class().to_string(),
            f2(w.spec().footprint_lines() as f64 * 64.0 / (1024.0 * 1024.0)),
            f2(summary.apki()),
            f3(solo.ipc),
            f2(solo.llc_mpki),
            summary.distinct_pcs.to_string(),
            f2(summary.top_pc_coverage(4)),
        ]);
    }
    emit(runner, "table2_workloads", "Workload inventory (solo on 1 MiB LLC)", &t);
}

/// Table 3: the multiprogrammed mixes.
pub fn table3(runner: &Runner) {
    let mut t = Table::new(["mix", "cores", "workloads"]);
    for mix in Mix::dual_core_suite()
        .into_iter()
        .chain(Mix::quad_core_suite())
        .chain(Mix::eight_core_suite())
    {
        let members: Vec<&str> = mix.workloads().iter().map(|w| w.name()).collect();
        t.row([mix.name().to_string(), mix.num_cores().to_string(), members.join("+")]);
    }
    emit(runner, "table3_mixes", "Multiprogrammed mixes", &t);
}

/// Table 4: hardware storage overhead per scheme.
pub fn table4(runner: &Runner) {
    let mut t = Table::new([
        "cores",
        "scheme",
        "per_line_kb",
        "monitor_kb",
        "control_kb",
        "total_kb",
        "pct_of_llc",
    ]);
    for cores in [2usize, 4, 8] {
        let geom = SimConfig::baseline(cores).llc;
        let rows = [
            ("nucache", nucache_overhead(&geom, &NuCacheConfig::default())),
            ("ucp", ucp_overhead(&geom, cores, 5)),
            ("pipp", pipp_overhead(&geom, cores, 5)),
            ("tadip", tadip_overhead(&geom, cores)),
        ];
        for (name, o) in rows {
            t.row([
                cores.to_string(),
                name.to_string(),
                f2(o.per_line_bits as f64 / 8192.0),
                f2(o.monitor_bits as f64 / 8192.0),
                f2(o.control_bits as f64 / 8192.0),
                f2(o.total_kb()),
                format!("{:.2}%", o.fraction_of(&geom) * 100.0),
            ]);
        }
    }
    emit(runner, "table4_overhead", "Hardware storage overhead", &t);
}

#[cfg(test)]
mod tests {
    // The table functions run real simulations; they are exercised by the
    // run_all binary and the integration suite. Here we only check the
    // cheap ones execute.
    use super::*;

    #[test]
    fn static_tables_emit() {
        std::env::set_var("NUCACHE_OUT", std::env::temp_dir().join("nucache_tables_test"));
        let runner = Runner::new();
        table1(&runner);
        table3(&runner);
        table4(&runner);
        assert!(crate::out_dir().join("table3_mixes.csv").exists());
    }
}
