//! End-to-end 4-core mix: evaluate every headline scheme on one mix and
//! report the multiprogrammed metrics.
//!
//! Run with: `cargo run --release --example multicore_mix`

use nucache_repro::common::table::{f3, Table};
use nucache_repro::sim::{Runner, Scheme, SimConfig};
use nucache_repro::trace::{Mix, SpecWorkload};

fn main() {
    // Shorter runs than the paper-scale experiments so the example
    // finishes in seconds.
    let config = SimConfig::baseline(4).with_run_lengths(100_000, 300_000);
    let mix = Mix::new(
        "example",
        vec![
            SpecWorkload::SphinxLike,
            SpecWorkload::LibquantumLike,
            SpecWorkload::McfLike,
            SpecWorkload::LbmLike,
        ],
    );
    println!("mix: {mix}\n");

    let mut t = Table::new(["scheme", "weighted_speedup", "antt", "throughput", "fairness"]);
    // One grid evaluates every scheme in parallel, sharing the solo runs.
    let schemes = Scheme::headline_suite();
    let grid = Runner::new().evaluate_grid(&config, std::slice::from_ref(&mix), &schemes);
    for (scheme, (_, m)) in schemes.iter().zip(&grid[0]) {
        t.row([
            scheme.name(),
            f3(m.weighted_speedup),
            f3(m.antt),
            f3(m.throughput),
            f3(m.fairness),
        ]);
    }
    print!("{}", t.to_text());
    // The headline suite starts with LRU and ends with default NUcache.
    if let (Some((_, lru)), Some((_, nuc))) = (grid[0].first(), grid[0].last()) {
        println!(
            "\nNUcache improves weighted speedup over shared LRU by {:.1}%",
            (nuc.weighted_speedup / lru.weighted_speedup - 1.0) * 100.0
        );
    }
}
