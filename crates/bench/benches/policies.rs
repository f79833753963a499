//! Replacement-policy overhead: per-access cost of every policy on the
//! same pattern, so the price of smarter replacement is visible.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use nucache_bench::{drive_policy_cache, mixed_pattern};
use nucache_cache::policy::{Dip, Drrip, Lru, ShipPc, TadipF};
use nucache_cache::{BasicCache, CacheGeometry, ReplacementPolicy};
use std::hint::black_box;

fn bench_policies(c: &mut Criterion) {
    let geom = CacheGeometry::new(512 * 1024, 16, 64);
    let pattern = mixed_pattern(50_000, 4_000, 3);
    let mut group = c.benchmark_group("policy_50k");
    group.throughput(Throughput::Elements(pattern.len() as u64));

    fn case<P: ReplacementPolicy>(
        group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>,
        pattern: &[nucache_bench::CannedAccess],
        geom: CacheGeometry,
        name: &str,
        make: impl Fn() -> P,
    ) {
        group.bench_function(name, |b| {
            b.iter_batched_ref(
                || BasicCache::new(geom, make()),
                |cache| black_box(drive_policy_cache(cache, pattern)),
                BatchSize::LargeInput,
            );
        });
    }

    case(&mut group, &pattern, geom, "lru", || Lru::new(&geom));
    case(&mut group, &pattern, geom, "dip", || Dip::new(&geom, 1));
    case(&mut group, &pattern, geom, "drrip", || Drrip::new(&geom, 1));
    case(&mut group, &pattern, geom, "ship", || ShipPc::new(&geom));
    case(&mut group, &pattern, geom, "tadip", || TadipF::new(&geom, 2, 1));
    group.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
