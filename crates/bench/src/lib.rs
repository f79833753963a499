//! Benchmark support for the NUcache reproduction.
//!
//! The Criterion benches live under `benches/`; this library holds the
//! shared drivers so each bench file stays declarative:
//!
//! * [`drive_policy_cache`] — replay a canned access pattern against a
//!   policy cache and return its hit count;
//! * [`drive_shared_llc`] — the same against any [`SharedLlc`];
//! * [`mixed_pattern`] — the loop+scan pattern used across policy
//!   benches, pre-generated so benches measure the cache, not the RNG;
//! * [`fill_find_churn`] — the steady-state tag-array churn loop shared
//!   by the Criterion bench and the `summary` perf-trajectory binary;
//! * [`loadgen`] — the closed-loop threaded load generator driving the
//!   concurrent sharded front-end against a lock-striped LRU baseline
//!   (the `loadgen` binary and the `threaded` section of
//!   `BENCH_<n>.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::disallowed_types, reason = "a benchmark harness measures wall time")]

pub mod loadgen;

use nucache_cache::meta::LineMeta;
use nucache_cache::{BasicCache, ReplacementPolicy, SetArray, SharedLlc};
use nucache_common::{AccessKind, CoreId, DetRng, LineAddr, Pc};

/// One pre-generated access: line plus attributed PC.
pub type CannedAccess = (LineAddr, Pc);

/// A loop-plus-scan pattern of `n` accesses over `loop_lines` reusable
/// lines, with one scan access every third step — the canonical
/// retention workload used throughout the benches.
pub fn mixed_pattern(n: usize, loop_lines: u64, seed: u64) -> Vec<CannedAccess> {
    let mut rng = DetRng::substream(seed, 0xbe9c);
    let mut out = Vec::with_capacity(n);
    let mut scan = 1u64 << 30;
    for i in 0..n {
        if i % 3 == 2 {
            out.push((LineAddr::new(scan), Pc::new(0x200)));
            scan += 1;
        } else {
            // Mostly sequential loop with occasional random jumps so the
            // pattern is not trivially prefetchable.
            let line =
                if rng.chance(0.05) { rng.below(loop_lines) } else { (i as u64) % loop_lines };
            out.push((LineAddr::new(line), Pc::new(0x100)));
        }
    }
    out
}

/// Replays `pattern` against a policy cache; returns hits (as a
/// black-boxable value).
pub fn drive_policy_cache<P: ReplacementPolicy>(
    cache: &mut BasicCache<P>,
    pattern: &[CannedAccess],
) -> u64 {
    let core = CoreId::new(0);
    let mut hits = 0;
    for &(line, pc) in pattern {
        if cache.access(line, AccessKind::Read, core, pc).is_hit() {
            hits += 1;
        }
    }
    hits
}

/// Steady-state tag-array churn: `n` rounds of interleaved fills, probes
/// and invalidations across many sets — the access pattern the simulator
/// actually produces, rather than a single hot set. Returns the hit
/// count so callers can black-box it.
///
/// This is the canonical `fill_find_churn` workload: the Criterion bench
/// (`benches/substrate.rs`) and the `summary` binary both run exactly
/// this loop, so their numbers are comparable across PRs.
#[expect(clippy::cast_possible_truncation, reason = "only the low mask bits of the index are used")]
pub fn fill_find_churn(arr: &mut SetArray, n: u64) -> u64 {
    let sets = arr.geometry().num_sets();
    let ways = arr.geometry().associativity();
    // Geometries guarantee power-of-two set counts; the bench geometries
    // use power-of-two associativity too, so the index math reduces to
    // masks (same values as `% sets` / `% ways`, no division in the
    // harness — the loop measures the array, not the modulo unit).
    assert!(
        sets.is_power_of_two() && ways.is_power_of_two(),
        "fill_find_churn expects power-of-two geometry"
    );
    let (set_mask, way_mask) = (sets - 1, ways - 1);
    let mut hits = 0u64;
    for i in 0..n {
        let set = (i as usize).wrapping_mul(7) & set_mask;
        let way = (i as usize).wrapping_mul(5) & way_mask;
        let tag = i % 32;
        arr.fill(set, way, LineMeta::new(tag, CoreId::new(0), Pc::new(0), i & 3 == 0));
        hits += u64::from(arr.find(set, tag).is_some());
        if i % 9 == 0 {
            arr.invalidate(set, way);
        }
    }
    hits
}

/// Replays `pattern` against a shared LLC; returns hits.
pub fn drive_shared_llc(llc: &mut dyn SharedLlc, pattern: &[CannedAccess]) -> u64 {
    let core = CoreId::new(0);
    let mut hits = 0;
    for &(line, pc) in pattern {
        if llc.access(core, pc, line, AccessKind::Read).is_hit() {
            hits += 1;
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucache_cache::policy::Lru;
    use nucache_cache::CacheGeometry;

    #[test]
    fn pattern_is_deterministic_and_sized() {
        let a = mixed_pattern(1000, 64, 1);
        let b = mixed_pattern(1000, 64, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
    }

    #[test]
    fn drivers_count_hits() {
        let geom = CacheGeometry::new(64 * 1024, 8, 64);
        let mut cache = BasicCache::new(geom, Lru::new(&geom));
        let pattern = mixed_pattern(10_000, 128, 2);
        let hits = drive_policy_cache(&mut cache, &pattern);
        assert!(hits > 0);
    }
}
