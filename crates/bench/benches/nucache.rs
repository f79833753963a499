//! NUcache component costs and design-choice ablations:
//!
//! * access cost vs the LRU baseline (the per-access tax of the
//!   organization);
//! * Next-Use monitor sampling ratio (DESIGN.md ablation);
//! * PC-selection pass cost: greedy vs exhaustive;
//! * DeliWays-hit promotion on/off.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use nucache_bench::{drive_shared_llc, mixed_pattern};
use nucache_cache::policy::Lru;
use nucache_cache::{CacheGeometry, ClassicLlc};
use nucache_common::{Log2Histogram, Pc};
use nucache_core::{NuCache, NuCacheConfig, SelectionStrategy};
use nucache_kernel::{select_classes, Candidate};
use std::hint::black_box;

fn bench_access_cost(c: &mut Criterion) {
    let geom = CacheGeometry::new(512 * 1024, 16, 64);
    let pattern = mixed_pattern(50_000, 4_000, 5);
    let mut group = c.benchmark_group("llc_access_50k");
    group.throughput(Throughput::Elements(pattern.len() as u64));
    group.bench_function("classic_lru", |b| {
        b.iter_batched_ref(
            || ClassicLlc::new(geom, Lru::new(&geom), 1),
            |llc| black_box(drive_shared_llc(llc, &pattern)),
            BatchSize::LargeInput,
        );
    });
    group.bench_function("nucache_d8", |b| {
        b.iter_batched_ref(
            || NuCache::new(geom, 1, NuCacheConfig::default()),
            |llc| black_box(drive_shared_llc(llc, &pattern)),
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_monitor_sampling(c: &mut Criterion) {
    let geom = CacheGeometry::new(512 * 1024, 16, 64);
    let pattern = mixed_pattern(50_000, 4_000, 6);
    let mut group = c.benchmark_group("monitor_sampling_50k");
    group.throughput(Throughput::Elements(pattern.len() as u64));
    for shift in [0u32, 3, 5, 7] {
        group.bench_function(format!("shift_{shift}"), |b| {
            b.iter_batched_ref(
                || {
                    let cfg = NuCacheConfig { monitor_shift: shift, ..NuCacheConfig::default() };
                    NuCache::new(geom, 1, cfg)
                },
                |llc| black_box(drive_shared_llc(llc, &pattern)),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_selection_pass(c: &mut Criterion) {
    // Realistic candidate pool: 32 PCs with populated histograms.
    let candidates: Vec<Candidate<Pc>> = (0..32)
        .map(|i| {
            let mut h = Log2Histogram::new(32);
            h.record_n(10 + i * 17, 500);
            h.record_n(1000 + i * 31, 200);
            Candidate { class: Pc::new(i), fills: 1_000 + i * 100, histogram: Some(h) }
        })
        .collect();
    let small: Vec<Candidate<Pc>> = candidates.iter().take(12).cloned().collect();
    let mut group = c.benchmark_group("selection_pass");
    group.bench_function("greedy_32", |b| {
        b.iter(|| {
            black_box(select_classes(
                black_box(&candidates),
                8,
                1_000_000,
                SelectionStrategy::CostBenefit,
                1,
            ))
        });
    });
    group.bench_function("exhaustive_12", |b| {
        b.iter(|| {
            black_box(select_classes(
                black_box(&small),
                8,
                1_000_000,
                SelectionStrategy::Exhaustive,
                1,
            ))
        });
    });
    group.finish();
}

fn bench_promotion_ablation(c: &mut Criterion) {
    let geom = CacheGeometry::new(512 * 1024, 16, 64);
    let pattern = mixed_pattern(50_000, 10_000, 7); // loop exceeding MainWays
    let mut group = c.benchmark_group("deli_promotion_50k");
    group.throughput(Throughput::Elements(pattern.len() as u64));
    let variants =
        [("promote", true, false), ("fifo", false, false), ("second_chance", false, true)];
    for (name, promote, refresh) in variants {
        group.bench_function(name, |b| {
            b.iter_batched_ref(
                || {
                    let mut cfg = NuCacheConfig::default().with_epoch_len(10_000);
                    cfg.promote_on_deli_hit = promote;
                    cfg.deli_hit_refresh = refresh;
                    NuCache::new(geom, 1, cfg)
                },
                |llc| black_box(drive_shared_llc(llc, &pattern)),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_access_cost,
    bench_monitor_sampling,
    bench_selection_pass,
    bench_promotion_ablation
);
criterion_main!(benches);
