//! Table generators (system configuration, workloads, mixes, overhead).

use crate::{emit, run_lengths};
use nucache_cache::config::DEFAULT_BLOCK_BYTES;
use nucache_cache::shadow::DEFAULT_UMON_SHIFT;
use nucache_common::table::{f2, f3, Table};
use nucache_common::CoreId;
use nucache_core::overhead::{nucache_overhead, pipp_overhead, tadip_overhead, ucp_overhead};
use nucache_core::{KernelConfig, MAX_CANDIDATES, MONITOR_DEPTH};
use nucache_cpu::{L1_HIT_LATENCY, L2_HIT_LATENCY, LLC_HIT_LATENCY, MEMORY_LATENCY};
use nucache_sim::config::{BASELINE_LLC_BYTES_PER_CORE, BASELINE_LLC_WAYS};
use nucache_sim::runner::{parallel_map, Runner};
use nucache_sim::scheme::PARTITION_EPOCH;
use nucache_sim::{run_solo, SimConfig};
use nucache_trace::{Mix, SpecWorkload, TraceGen, TraceSummary};

/// Table 1: the simulated system configuration.
pub fn table1(runner: &Runner) {
    let config = SimConfig::baseline(4);
    let nu = KernelConfig::default();
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
    row(
        "latencies",
        format!(
            "L1={L1_HIT_LATENCY}cy L2={L2_HIT_LATENCY}cy LLC={LLC_HIT_LATENCY}cy \
             MEM={MEMORY_LATENCY}cy"
        ),
    );
    row(
        "NUcache MainWays/DeliWays",
        format!("{} / {}", BASELINE_LLC_WAYS - nu.deli_ways, nu.deli_ways),
    );
    row("NUcache epoch", format!("{} LLC accesses", nu.epoch_len));
    row("NUcache candidates", format!("{MAX_CANDIDATES}"));
    row(
        "Next-Use monitor",
        format!("1 set in {}, {MONITOR_DEPTH} entries/set", 1 << nu.monitor_shift),
    );
    row(
        "UCP/PIPP epoch",
        format!("{PARTITION_EPOCH} LLC accesses, UMON-DSS 1 set in {}", 1 << DEFAULT_UMON_SHIFT),
    );
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
            ("nucache", nucache_overhead(&geom, &KernelConfig::default())),
            ("ucp", ucp_overhead(&geom, cores)),
            ("pipp", pipp_overhead(&geom, cores)),
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
    // cheap ones: Tables 1 and 4 print configuration constants and the
    // overhead model, so their CSVs are pinned byte for byte.
    use super::*;

    const TABLE1_CONFIG: &str = "\
parameter,value
cores,1 / 2 / 4 / 8 (per experiment)
core model,\"in-order, 1 IPC + memory stalls, per-class MLP overlap\"
L1 (private),32KB/8-way/64B
L2 (private),256KB/8-way/64B
LLC (shared),\"1 MiB per core, 16-way, 64B (scales with cores)\"
latencies,L1=1cy L2=10cy LLC=30cy MEM=200cy
NUcache MainWays/DeliWays,8 / 8
NUcache epoch,100000 LLC accesses
NUcache candidates,32
Next-Use monitor,\"1 set in 32, 64 entries/set\"
UCP/PIPP epoch,\"100000 LLC accesses, UMON-DSS 1 set in 32\"
";

    const TABLE4_OVERHEAD: &str = "\
cores,scheme,per_line_kb,monitor_kb,control_kb,total_kb,pct_of_llc
2,nucache,64.00,22.34,0.00,86.35,4.22%
2,ucp,4.00,4.12,0.00,8.13,0.40%
2,pipp,20.00,4.12,0.00,24.13,1.18%
2,tadip,4.00,0.00,0.00,4.00,0.20%
4,nucache,128.00,42.47,0.00,170.47,4.16%
4,ucp,16.00,16.25,0.00,32.25,0.79%
4,pipp,48.00,16.25,0.00,64.25,1.57%
4,tadip,16.00,0.00,0.00,16.00,0.39%
8,nucache,256.00,82.72,0.00,338.72,4.13%
8,ucp,48.00,64.50,0.01,112.51,1.37%
8,pipp,112.00,64.50,0.01,176.51,2.15%
8,tadip,48.00,0.00,0.01,48.01,0.59%
";

    #[test]
    fn static_tables_emit() {
        std::env::set_var("NUCACHE_OUT", std::env::temp_dir().join("nucache_tables_test"));
        let runner = Runner::new();
        table1(&runner);
        table3(&runner);
        table4(&runner);
        assert!(crate::out_dir().join("table3_mixes.csv").exists());
        let csv = |id: &str| {
            std::fs::read_to_string(crate::out_dir().join(format!("{id}.csv")))
                .unwrap_or_else(|e| panic!("reading {id}.csv: {e}"))
        };
        // The last row follows NUCACHE_QUICK, so it is built here.
        let (warm, meas) = run_lengths();
        let table1 =
            format!("{TABLE1_CONFIG}run length / core,{warm} warm-up + {meas} measured accesses\n");
        assert_eq!(csv("table1_config"), table1);
        assert_eq!(csv("table4_overhead"), TABLE4_OVERHEAD);
    }
}
