//! Quickstart: build an NUcache LLC, feed it accesses, watch the
//! mechanism work.
//!
//! Run with: `cargo run --release --example quickstart`

use nucache_repro::cache::{CacheGeometry, SharedLlc};
use nucache_repro::common::{AccessKind, CoreId, LineAddr, Pc};
use nucache_repro::core::{KernelConfig, NuCache};

fn main() {
    // A 1 MiB, 16-way shared LLC with 8 DeliWays and a short selection
    // epoch so the demo converges quickly.
    let geom = CacheGeometry::new(1024 * 1024, 16, 64);
    let config = KernelConfig::default().with_deli_ways(8).with_epoch_len(20_000);
    let mut llc = NuCache::new(geom, 1, config);

    let core = CoreId::new(0);
    let loop_pc = Pc::new(0x400_1000); // a reusable working set
    let stream_pc = Pc::new(0x400_2000); // a pollution stream

    // The loop working set: 12 lines per set across all 1024 sets —
    // larger than the 8 MainWays, well within MainWays + DeliWays.
    let loop_lines = 12 * geom.num_sets() as u64;
    let mut stream_line = 1 << 30;

    println!("driving a loop PC (reusable) against a stream PC (no reuse)...\n");
    for round in 0..1_500_000u64 {
        let line = LineAddr::new(round % loop_lines);
        llc.access(core, loop_pc, line, AccessKind::Read);
        if round % 2 == 0 {
            llc.access(core, stream_pc, LineAddr::new(stream_line), AccessKind::Read);
            stream_line += 1;
        }
    }

    let stats = llc.stats();
    println!("LLC after {} accesses: {stats}", stats.accesses());
    println!("selection epochs run:   {}", llc.epochs());
    println!("currently chosen PCs:   {:?}", llc.chosen_pcs());
    println!("lines routed to DeliWays: {}", llc.deli_fills());
    println!("hits served by DeliWays:  {}", llc.deli_hits());
    println!();

    let chosen = llc.chosen_pcs();
    if chosen.contains(&loop_pc) && !chosen.contains(&stream_pc) {
        println!("=> the cost-benefit selector admitted the loop PC to the DeliWays");
        println!("   and kept the stream PC out — exactly the NUcache mechanism.");
    } else {
        println!("=> unexpected selection; try more rounds or a longer epoch.");
    }
}
