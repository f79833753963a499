//! Author a custom phased workload with the builder API and inspect the
//! Next-Use structure NUcache sees.
//!
//! Run with: `cargo run --release --example custom_workload`

use nucache_repro::cache::hierarchy::{PrivateHierarchy, PrivateOutcome};
use nucache_repro::cache::{CacheGeometry, SharedLlc};
use nucache_repro::common::table::Table;
use nucache_repro::common::{AccessKind, CoreId};
use nucache_repro::core::{KernelConfig, NuCache};
use nucache_repro::trace::{Behavior, Phase, SiteSpec, TraceGen, TraceSummary, WorkloadSpec};

fn main() {
    // A two-phase application: a build phase streaming an input while
    // updating a medium table, then a query phase hammering the table
    // with random probes.
    let table_lines = 10_000;
    let build = Phase {
        sites: vec![
            SiteSpec::new(Behavior::Stream { lines: 200_000, stride: 1 }, 50),
            SiteSpec::new(Behavior::Loop { lines: table_lines }, 50).with_writes(0.6),
        ],
        accesses: 150_000,
    };
    let query = Phase {
        sites: vec![
            SiteSpec::new(Behavior::RandomUniform { lines: table_lines }, 80),
            SiteSpec::new(Behavior::Loop { lines: 256 }, 20),
        ],
        accesses: 150_000,
    };
    let spec = WorkloadSpec::phased("build_then_query", vec![build, query], (2, 6));

    // Characterize the raw trace.
    let core = CoreId::new(0);
    let summary = TraceSummary::from_accesses(TraceGen::new(&spec, core, 7).take(300_000));
    println!("workload: {}", spec.name);
    println!("  accesses:        {}", summary.accesses);
    println!("  footprint:       {:.1} MiB", summary.footprint_bytes() as f64 / (1 << 20) as f64);
    println!("  intensity:       {:.1} accesses/kilo-instruction", summary.apki());
    println!("  top-2 PCs cover: {:.0}% of accesses\n", summary.top_pc_coverage(2) * 100.0);

    // Drive it through a private hierarchy into an instrumented NUcache.
    let mut nucache_config = KernelConfig::default().with_epoch_len(25_000);
    nucache_config.monitor_shift = 0; // observe every set for the demo
    let llc_geom = CacheGeometry::new(1024 * 1024, 16, 64);
    let mut llc = NuCache::new(llc_geom, 1, nucache_config);
    let mut hierarchy = PrivateHierarchy::new(
        core,
        CacheGeometry::new(32 * 1024, 8, 64),
        CacheGeometry::new(256 * 1024, 8, 64),
    );
    for a in TraceGen::new(&spec, core, 7).take(900_000) {
        if let PrivateOutcome::LlcAccess { writeback } =
            hierarchy.access(a.pc, a.addr.line(6), a.kind)
        {
            if let Some(wb) = writeback {
                llc.access(core, a.pc, wb, AccessKind::Write);
            }
            llc.access(core, a.pc, a.addr.line(6), a.kind);
        }
    }

    println!("after 900k accesses through L1/L2 into a 1MiB NUcache LLC:");
    println!("  LLC: {}", llc.stats());
    println!("  DeliWays hits: {}\n", llc.deli_hits());

    let mut t = Table::new(["delinquent_pc", "misses", "next_use_p50 (set-accesses)"]);
    for (pc, misses) in llc.tracker().top_k(5) {
        let p50 = llc
            .monitor()
            .histogram(pc)
            .and_then(|h| h.quantile(0.5))
            .map_or("-".to_string(), |q| q.to_string());
        t.row([format!("{pc}"), misses.to_string(), p50]);
    }
    print!("{}", t.to_text());
    println!("\nchosen PCs this epoch: {:?}", llc.chosen_pcs());
}
