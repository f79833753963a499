//! Figure generators (characterization, headline results, sensitivity).
//!
//! Every multi-run figure fans its simulations out through the run's
//! [`Runner`]: jobs are enumerated up front, dispatched over the worker
//! pool, and the tables are then assembled serially from the ordered
//! results — so the emitted CSVs are identical at any `--jobs` value.

use crate::characterize::characterize;
use crate::{emit, geomean, run_lengths};
use nucache_cache::CacheGeometry;
use nucache_common::table::{f2, f3, Table};
use nucache_core::{KernelConfig, SelectionStrategy};
use nucache_sim::runner::{parallel_map, Runner};
use nucache_sim::{Scheme, SimConfig};
use nucache_trace::{Mix, SpecWorkload};

fn base_config(cores: usize) -> SimConfig {
    let (warm, meas) = run_lengths();
    SimConfig::baseline(cores).with_run_lengths(warm, meas)
}

/// Fig. 1: cumulative LLC-miss coverage of the top-N delinquent PCs.
pub fn fig1(runner: &Runner) {
    let config = base_config(1);
    let mut t = Table::new(["workload", "pcs_tracked", "top1", "top2", "top4", "top8", "top16"]);
    let llcs =
        parallel_map(runner.jobs(), &SpecWorkload::ALL, |&w| characterize(w, 400_000, &config));
    for (w, llc) in SpecWorkload::ALL.iter().zip(&llcs) {
        let tr = llc.tracker();
        t.row([
            w.name().to_string(),
            tr.len().to_string(),
            f2(tr.top_k_coverage(1)),
            f2(tr.top_k_coverage(2)),
            f2(tr.top_k_coverage(4)),
            f2(tr.top_k_coverage(8)),
            f2(tr.top_k_coverage(16)),
        ]);
    }
    emit(runner, "fig1_delinquent_pcs", "Cumulative miss coverage of top-N delinquent PCs", &t);
}

/// Fig. 2: Next-Use distance distributions of the top delinquent PCs.
pub fn fig2(runner: &Runner) {
    let config = base_config(1);
    let workloads = [
        SpecWorkload::SphinxLike,
        SpecWorkload::McfLike,
        SpecWorkload::SoplexLike,
        SpecWorkload::AstarLike,
        SpecWorkload::OmnetppLike,
        SpecWorkload::LibquantumLike,
    ];
    let mut t = Table::new(["workload", "pc_rank", "samples", "p25", "p50", "p75", "p90"]);
    let llcs = parallel_map(runner.jobs(), &workloads, |&w| characterize(w, 400_000, &config));
    for (w, llc) in workloads.iter().zip(&llcs) {
        for (rank, (pc, _)) in llc.tracker().top_k(3).into_iter().enumerate() {
            if let Some(h) = llc.monitor().histogram(pc) {
                let q = |p: f64| h.quantile(p).map_or("inf".to_string(), |v| v.to_string());
                t.row([
                    w.name().to_string(),
                    (rank + 1).to_string(),
                    h.total().to_string(),
                    q(0.25),
                    q(0.5),
                    q(0.75),
                    q(0.9),
                ]);
            } else {
                t.row([
                    w.name().to_string(),
                    (rank + 1).to_string(),
                    "0".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ]);
            }
        }
    }
    emit(
        runner,
        "fig2_next_use",
        "Next-Use distance quantiles (set-accesses) for top delinquent PCs",
        &t,
    );
}

/// Fig. 3: single-core NUcache speedup over LRU.
pub fn fig3(runner: &Runner) {
    let mut t =
        Table::new(["workload", "lru_ipc", "nucache_ipc", "speedup", "lru_mpki", "nucache_mpki"]);
    let jobs: Vec<(Mix, Scheme)> = SpecWorkload::ALL
        .iter()
        .flat_map(|&w| {
            let mix = Mix::new(format!("solo_{}", w.name()), vec![w]);
            [(mix.clone(), Scheme::Lru), (mix, Scheme::nucache_default())]
        })
        .collect();
    let results = runner.run_jobs(&base_config(1), &jobs);
    let mut speedups = Vec::new();
    for (w, pair) in SpecWorkload::ALL.iter().zip(results.chunks(2)) {
        let (lru, nuc) = (&pair[0], &pair[1]);
        let s = nuc.per_core[0].ipc / lru.per_core[0].ipc;
        speedups.push(s);
        t.row([
            w.name().to_string(),
            f3(lru.per_core[0].ipc),
            f3(nuc.per_core[0].ipc),
            f3(s),
            f2(lru.per_core[0].llc_mpki),
            f2(nuc.per_core[0].llc_mpki),
        ]);
    }
    t.row([
        "geomean".to_string(),
        "-".into(),
        "-".into(),
        f3(geomean(&speedups)),
        "-".into(),
        "-".into(),
    ]);
    emit(runner, "fig3_single_core", "Single-core NUcache speedup over LRU", &t);
}

/// One headline experiment: all mixes of a suite under the comparison
/// schemes; reports per-mix weighted speedup normalized to LRU, plus
/// ANTT. Returns (scheme names, per-scheme geomean normalized WS).
fn headline(
    runner: &Runner,
    id: &str,
    title: &str,
    cores: usize,
    mixes: &[Mix],
) -> Vec<(String, f64)> {
    let schemes = Scheme::headline_suite();
    let grid = runner.evaluate_grid(&base_config(cores), mixes, &schemes);
    let mut header: Vec<String> = vec!["mix".into()];
    for s in &schemes {
        header.push(format!("{}_ws", s.name()));
    }
    for s in &schemes[1..] {
        header.push(format!("{}_norm", s.name()));
    }
    let mut t = Table::new(header);
    let mut norm_acc: Vec<Vec<f64>> = vec![Vec::new(); schemes.len() - 1];
    let mut antt_table = Table::new({
        let mut h: Vec<String> = vec!["mix".into()];
        h.extend(schemes.iter().map(|s| format!("{}_antt", s.name())));
        h
    });
    for (mix, row_results) in mixes.iter().zip(&grid) {
        let mut row = vec![mix.name().to_string()];
        let mut antt_row = vec![mix.name().to_string()];
        let ws: Vec<f64> = row_results.iter().map(|(_, m)| m.weighted_speedup).collect();
        for (w, (_, m)) in ws.iter().zip(row_results) {
            row.push(f3(*w));
            antt_row.push(f3(m.antt));
        }
        let lru_ws = ws[0];
        for (k, w) in ws[1..].iter().enumerate() {
            let norm = w / lru_ws;
            norm_acc[k].push(norm);
            row.push(f3(norm));
        }
        t.row(row);
        antt_table.row(antt_row);
    }
    let mut geo_row = vec!["geomean".to_string()];
    geo_row.extend(std::iter::repeat_n("-".to_string(), schemes.len()));
    let mut result = Vec::new();
    for (k, s) in schemes[1..].iter().enumerate() {
        let g = geomean(&norm_acc[k]);
        geo_row.push(f3(g));
        result.push((s.name(), g));
    }
    t.row(geo_row);
    emit(runner, id, title, &t);
    emit(runner, &format!("{id}_antt"), &format!("{title} — ANTT (lower is better)"), &antt_table);
    result
}

/// Fig. 5: dual-core headline (abstract: ≈9.6% over baseline).
pub fn fig5(runner: &Runner) -> Vec<(String, f64)> {
    headline(
        runner,
        "fig5_dual_core",
        "2-core weighted speedup (normalized to LRU)",
        2,
        &Mix::dual_core_suite(),
    )
}

/// Fig. 6: quad-core headline (abstract: ≈30%).
pub fn fig6(runner: &Runner) -> Vec<(String, f64)> {
    headline(
        runner,
        "fig6_quad_core",
        "4-core weighted speedup (normalized to LRU)",
        4,
        &Mix::quad_core_suite(),
    )
}

/// Fig. 7: eight-core headline (abstract: ≈33%).
pub fn fig7(runner: &Runner) -> Vec<(String, f64)> {
    headline(
        runner,
        "fig7_eight_core",
        "8-core weighted speedup (normalized to LRU)",
        8,
        &Mix::eight_core_suite(),
    )
}

/// Fig. 4: sensitivity to the number of DeliWays (4-core subset).
pub fn fig4(runner: &Runner) {
    let mixes = &Mix::quad_core_suite()[..3];
    let deli_counts = [0usize, 2, 4, 6, 8, 10, 12];
    // 0 DeliWays is exactly the 16-way LRU baseline; it doubles as the
    // normalization reference for the other columns.
    let schemes: Vec<Scheme> = deli_counts
        .iter()
        .map(|&d| {
            if d == 0 {
                Scheme::Lru
            } else {
                Scheme::NuCache(KernelConfig::default().with_deli_ways(d))
            }
        })
        .collect();
    let grid = runner.evaluate_grid(&base_config(4), mixes, &schemes);
    let mut header: Vec<String> = vec!["mix".into()];
    header.extend(deli_counts.iter().map(|d| format!("d{d}_norm_ws")));
    let mut t = Table::new(header);
    for (mix, row_results) in mixes.iter().zip(&grid) {
        let lru_ws = row_results[0].1.weighted_speedup;
        let mut row = vec![mix.name().to_string()];
        for (_, m) in row_results {
            row.push(f3(m.weighted_speedup / lru_ws));
        }
        t.row(row);
    }
    emit(runner, "fig4_deliways", "Sensitivity to DeliWays count (4-core, normalized WS)", &t);
}

/// Fig. 8: ANTT summary across core counts (NUcache vs LRU vs UCP).
pub fn fig8(runner: &Runner) {
    let mut t = Table::new(["cores", "mix", "lru_antt", "ucp_antt", "nucache_antt"]);
    let schemes = [Scheme::Lru, Scheme::Ucp, Scheme::nucache_default()];
    for (cores, mixes) in [
        (2usize, Mix::dual_core_suite()),
        (4, Mix::quad_core_suite()),
        (8, Mix::eight_core_suite()),
    ] {
        // A representative subset per core count keeps runtime sane.
        let subset: Vec<Mix> = mixes.iter().take(4).cloned().collect();
        let grid = runner.evaluate_grid(&base_config(cores), &subset, &schemes);
        for (mix, row_results) in subset.iter().zip(&grid) {
            t.row([
                cores.to_string(),
                mix.name().to_string(),
                f3(row_results[0].1.antt),
                f3(row_results[1].1.antt),
                f3(row_results[2].1.antt),
            ]);
        }
    }
    emit(runner, "fig8_antt", "ANTT across core counts (lower is better)", &t);
}

/// Fig. 9: sensitivity to LLC capacity (4-core subset).
pub fn fig9(runner: &Runner) {
    let mixes = &Mix::quad_core_suite()[..3];
    let sizes_mb = [2u64, 4, 8, 16];
    let schemes = [Scheme::Lru, Scheme::nucache_default()];
    let mut header: Vec<String> = vec!["mix".into()];
    for mb in sizes_mb {
        header.push(format!("{mb}mb_lru_ws"));
        header.push(format!("{mb}mb_nucache_norm"));
    }
    let mut t = Table::new(header);
    let mut rows: Vec<Vec<String>> = mixes.iter().map(|m| vec![m.name().to_string()]).collect();
    for mb in sizes_mb {
        let config = base_config(4).with_llc(CacheGeometry::new(mb * 1024 * 1024, 16, 64));
        // Solo IPC depends on the LLC geometry; the runner memoizes solo
        // runs per configuration.
        let grid = runner.evaluate_grid(&config, mixes, &schemes);
        for (i, row_results) in grid.iter().enumerate() {
            let lru_ws = row_results[0].1.weighted_speedup;
            rows[i].push(f3(lru_ws));
            rows[i].push(f3(row_results[1].1.weighted_speedup / lru_ws));
        }
    }
    for row in rows {
        t.row(row);
    }
    emit(runner, "fig9_cache_size", "Sensitivity to LLC capacity (4-core)", &t);
}

/// Fig. 10: sensitivity to the PC-selection epoch length (4-core subset).
pub fn fig10(runner: &Runner) {
    let mixes = &Mix::quad_core_suite()[..3];
    let epochs = [25_000u64, 50_000, 100_000, 200_000, 400_000];
    // Column 0 (LRU) is the normalization reference; the table reports
    // only the epoch columns.
    let mut schemes = vec![Scheme::Lru];
    schemes
        .extend(epochs.iter().map(|&e| Scheme::NuCache(KernelConfig::default().with_epoch_len(e))));
    let grid = runner.evaluate_grid(&base_config(4), mixes, &schemes);
    let mut header: Vec<String> = vec!["mix".into()];
    header.extend(epochs.iter().map(|e| format!("epoch_{}k", e / 1000)));
    let mut t = Table::new(header);
    for (mix, row_results) in mixes.iter().zip(&grid) {
        let lru_ws = row_results[0].1.weighted_speedup;
        let mut row = vec![mix.name().to_string()];
        for (_, m) in &row_results[1..] {
            row.push(f3(m.weighted_speedup / lru_ws));
        }
        t.row(row);
    }
    emit(runner, "fig10_epoch", "Sensitivity to selection-epoch length (normalized WS)", &t);
}

/// Fig. 12: OPT headroom — how much of the LRU→Belady gap each
/// PC-aware scheme closes, on single-core LLC-filtered traces.
pub fn fig12(runner: &Runner) {
    use nucache_cache::hierarchy::{PrivateHierarchy, PrivateOutcome};
    use nucache_cache::opt::optimal_misses;
    use nucache_cache::policy::{Lru, ShipPc};
    use nucache_cache::{BasicCache, SharedLlc};
    use nucache_common::{AccessKind, CoreId, LineAddr, Pc as PcT};
    use nucache_trace::TraceGen;

    let config = base_config(1);
    let accesses = if crate::quick_mode() { 300_000 } else { 800_000 };
    let mut t = Table::new([
        "workload",
        "llc_accesses",
        "lru_hit",
        "ship_hit",
        "nucache_hit",
        "opt_hit",
        "nucache_gap_closed",
    ]);
    let rows = parallel_map(runner.jobs(), &SpecWorkload::ALL, |&w| {
        // Capture the LLC-filtered (pc, line) stream.
        let core = CoreId::new(0);
        let mut hierarchy = PrivateHierarchy::new(core, config.l1, config.l2);
        let mut llc_trace: Vec<(PcT, LineAddr)> = Vec::new();
        for a in TraceGen::new(&w.spec(), core, config.seed).take(accesses) {
            if let PrivateOutcome::LlcAccess { .. } = hierarchy.access(a.pc, a.addr.line(6), a.kind)
            {
                llc_trace.push((a.pc, a.addr.line(6)));
            }
        }
        if llc_trace.is_empty() {
            return [
                w.name().to_string(),
                "0".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ];
        }
        let lines: Vec<LineAddr> = llc_trace.iter().map(|&(_, l)| l).collect();
        let opt = optimal_misses(&config.llc, &lines);

        let mut lru = BasicCache::new(config.llc, Lru::new(&config.llc));
        let mut ship = BasicCache::new(config.llc, ShipPc::new(&config.llc));
        let mut nucache = nucache_core::NuCache::new(config.llc, 1, KernelConfig::default());
        for &(pc, line) in &llc_trace {
            lru.access(line, AccessKind::Read, core, pc);
            ship.access(line, AccessKind::Read, core, pc);
            nucache.access(core, pc, line, AccessKind::Read);
        }
        let lru_hr = lru.stats().hit_rate();
        let opt_hr = opt.stats.hit_rate();
        let nuc_hr = nucache.stats().hit_rate();
        let gap = opt_hr - lru_hr;
        let closed = if gap > 1e-6 { (nuc_hr - lru_hr) / gap } else { 0.0 };
        [
            w.name().to_string(),
            llc_trace.len().to_string(),
            f3(lru_hr),
            f3(ship.stats().hit_rate()),
            f3(nuc_hr),
            f3(opt_hr),
            f2(closed),
        ]
    });
    for row in rows {
        t.row(row);
    }
    emit(runner, "fig12_opt_headroom", "Belady-OPT headroom closed by PC-aware schemes (solo)", &t);
}

/// Fig. 11: PC-selection strategy ablation (4-core subset).
pub fn fig11(runner: &Runner) {
    let mixes = &Mix::quad_core_suite()[..3];
    let strategies = [
        ("cost-benefit", SelectionStrategy::CostBenefit),
        ("exhaustive", SelectionStrategy::Exhaustive),
        ("static-top8", SelectionStrategy::StaticTopK(8)),
        ("random-8", SelectionStrategy::Random(8)),
        ("none", SelectionStrategy::None),
    ];
    // Column 0 (LRU) is the normalization reference.
    let mut schemes = vec![Scheme::Lru];
    schemes.extend(
        strategies.iter().map(|(_, s)| Scheme::NuCache(KernelConfig::default().with_strategy(*s))),
    );
    let grid = runner.evaluate_grid(&base_config(4), mixes, &schemes);
    let mut header: Vec<String> = vec!["mix".into()];
    header.extend(strategies.iter().map(|(n, _)| n.to_string()));
    let mut t = Table::new(header);
    for (mix, row_results) in mixes.iter().zip(&grid) {
        let lru_ws = row_results[0].1.weighted_speedup;
        let mut row = vec![mix.name().to_string()];
        for (_, m) in &row_results[1..] {
            row.push(f3(m.weighted_speedup / lru_ws));
        }
        t.row(row);
    }
    emit(runner, "fig11_selection_ablation", "PC-selection strategy ablation (normalized WS)", &t);
}
