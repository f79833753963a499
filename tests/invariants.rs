//! Property-based tests of cross-crate structural invariants.

#![allow(clippy::cast_possible_truncation, reason = "test indices are small")]

use nucache_repro::cache::policy::Lru;
use nucache_repro::cache::{BasicCache, CacheGeometry, SharedLlc};
use nucache_repro::common::{AccessKind, CoreId, LineAddr, Log2Histogram, Pc};
use nucache_repro::core::{KernelConfig, NuCache};
use nucache_repro::partition::{lookahead_partition, PippLlc, UcpLlc};
use proptest::prelude::*;

/// A compact random access trace: (line, is_write, core) triples.
fn trace_strategy(max_line: u64, cores: u8) -> impl Strategy<Value = Vec<(u64, bool, u8)>> {
    prop::collection::vec((0..max_line, any::<bool>(), 0..cores), 1..600)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// LRU stack-inclusion property: every hit observed with W ways is
    /// also a hit with W+1 ways (on the same set count).
    #[test]
    fn lru_stack_inclusion(trace in trace_strategy(256, 1)) {
        let small = CacheGeometry::new(64 * 4 * 8, 4, 64); // 8 sets, 4-way
        let big = CacheGeometry::new(64 * 8 * 8, 8, 64); // 8 sets, 8-way
        let mut c_small = BasicCache::new(small, Lru::new(&small));
        let mut c_big = BasicCache::new(big, Lru::new(&big));
        for (line, w, _) in &trace {
            let kind = if *w { AccessKind::Write } else { AccessKind::Read };
            let hit_small =
                c_small.access(LineAddr::new(*line), kind, CoreId::new(0), Pc::new(0)).is_hit();
            let hit_big =
                c_big.access(LineAddr::new(*line), kind, CoreId::new(0), Pc::new(0)).is_hit();
            prop_assert!(!hit_small || hit_big, "hit in 4-way but miss in 8-way");
        }
    }

    /// Any cache's occupancy never exceeds its capacity, and a line that
    /// was just accessed is resident.
    #[test]
    fn capacity_and_residency(trace in trace_strategy(512, 1)) {
        let geom = CacheGeometry::new(64 * 4 * 4, 4, 64); // 4 sets, 4-way
        let mut cache = BasicCache::new(geom, Lru::new(&geom));
        for (line, w, _) in &trace {
            let kind = if *w { AccessKind::Write } else { AccessKind::Read };
            cache.access(LineAddr::new(*line), kind, CoreId::new(0), Pc::new(0));
            prop_assert!(cache.occupancy() <= geom.num_lines());
            prop_assert!(cache.probe(LineAddr::new(*line)), "just-accessed line absent");
        }
    }

    /// NUcache conserves capacity and never reports more hits than
    /// accesses, for any deli/main split and any trace.
    #[test]
    fn nucache_structural_invariants(
        trace in trace_strategy(512, 2),
        deli in 1usize..7,
    ) {
        let geom = CacheGeometry::new(64 * 8 * 8, 8, 64); // 8 sets, 8-way
        let mut config = KernelConfig::default().with_deli_ways(deli).with_epoch_len(50);
        config.monitor_shift = 0;
        let mut llc = NuCache::new(geom, 2, config);
        for (line, w, core) in &trace {
            let kind = if *w { AccessKind::Write } else { AccessKind::Read };
            // Pseudo-PCs derived from the line so selection has structure.
            let pc = Pc::new(0x400 + (line % 4) * 8);
            llc.access(CoreId::new(*core), pc, LineAddr::new(*line), kind);
            let hit = llc.access(CoreId::new(*core), pc, LineAddr::new(*line), kind);
            prop_assert!(hit.is_hit(), "immediate re-access must hit");
        }
        let s = llc.stats();
        prop_assert!(s.hits + s.misses == s.accesses());
        prop_assert!(llc.deli_hits() <= s.hits);
        let core_total: u64 = llc.core_stats().iter().map(|c| c.accesses()).sum();
        prop_assert_eq!(core_total, s.accesses());
    }

    /// UCP and PIPP keep per-core attribution consistent with totals.
    #[test]
    fn partition_schemes_account_consistently(trace in trace_strategy(512, 2)) {
        let geom = CacheGeometry::new(64 * 8 * 8, 8, 64);
        let mut ucp = UcpLlc::new(geom, 2, 100);
        let mut pipp = PippLlc::new(geom, 2, 100, 3);
        for (line, w, core) in &trace {
            let kind = if *w { AccessKind::Write } else { AccessKind::Read };
            ucp.access(CoreId::new(*core), Pc::new(1), LineAddr::new(*line), kind);
            pipp.access(CoreId::new(*core), Pc::new(1), LineAddr::new(*line), kind);
        }
        for llc in [&ucp as &dyn SharedLlc, &pipp as &dyn SharedLlc] {
            let total: u64 = llc.core_stats().iter().map(|c| c.accesses()).sum();
            prop_assert_eq!(total, llc.stats().accesses());
        }
        prop_assert_eq!(ucp.allocations().iter().sum::<usize>(), 8);
        prop_assert_eq!(pipp.allocations().iter().sum::<usize>(), 8);
    }

    /// The lookahead partition always assigns exactly the associativity,
    /// with the floor respected, for arbitrary monotone curves.
    #[test]
    fn lookahead_total_and_floor(
        raw in prop::collection::vec(prop::collection::vec(0u64..1000, 17), 1..8),
    ) {
        // Make each curve monotone by prefix summation.
        let curves: Vec<Vec<u64>> = raw
            .iter()
            .map(|v| {
                v.iter()
                    .scan(0u64, |acc, x| {
                        *acc += x;
                        Some(*acc)
                    })
                    .collect()
            })
            .collect();
        let cores = curves.len();
        if cores <= 16 {
            let alloc = lookahead_partition(&curves, 16, 1);
            prop_assert_eq!(alloc.iter().sum::<usize>(), 16);
            prop_assert!(alloc.iter().all(|&a| a >= 1));
        }
    }

    /// Histogram mass conservation: total equals the number of records,
    /// and count_le is monotone in the threshold.
    #[test]
    fn histogram_mass_and_monotonicity(samples in prop::collection::vec(0u64..100_000, 1..200)) {
        let mut h = Log2Histogram::new(32);
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.total(), samples.len() as u64);
        let mut prev = 0;
        for t in [0u64, 1, 10, 100, 1_000, 10_000, 100_000, u64::MAX] {
            let c = h.count_le(t);
            prop_assert!(c >= prev, "count_le must be monotone");
            prop_assert!(c <= h.total());
            prev = c;
        }
    }

    /// The Next-Use monitor never reports a distance for a line it was
    /// not told about, and distances match a brute-force reference.
    #[test]
    fn monitor_matches_bruteforce(evictions in prop::collection::vec((0u64..16, 0u64..4), 1..100)) {
        let set_bits = 2; // 4 sets
        let mut monitor = nucache_kernel::NextUseMonitor::<Pc>::new(set_bits, 0, 64, 24);
        // Brute-force reference: (line, clock_at_eviction) map per set.
        let mut reference: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        let mut clocks = [0u64; 4];
        for (i, &(tag, set)) in evictions.iter().enumerate() {
            let line = LineAddr::new((tag << set_bits) | set);
            let pc = Pc::new(i as u64);
            // Interleave: an access, an eviction, an access, a next-use probe.
            monitor.on_set_access(line.0);
            clocks[set as usize] += 1;
            monitor.on_evict(line.0, pc);
            reference.insert(line.0, clocks[set as usize]);
            monitor.on_set_access(line.0);
            clocks[set as usize] += 1;
            if let Some((_, d)) = monitor.on_next_use(line.0) {
                let expected = clocks[set as usize] - reference[&line.0];
                prop_assert_eq!(d, expected);
            }
        }
    }
}

/// Silences the default panic hook for the panics this suite injects on
/// purpose (hundreds of them across proptest cases), while forwarding
/// every other panic to the previous hook unchanged.
fn quiet_injected_panics() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected test panic") {
                prev(info);
            }
        }));
    });
}

/// The parallel runner is an optimization, not a semantic change: a
/// serial run (`--jobs 1`) and any worker count must produce
/// byte-identical results for the same job list. `Debug` formatting
/// captures every field of every result, so string equality is the
/// strongest cheap proxy for bit-identity.
#[test]
fn runner_output_is_identical_at_any_job_count() {
    use nucache_repro::sim::{Runner, Scheme, SimConfig};
    use nucache_repro::trace::{Mix, SpecWorkload};

    let config = SimConfig::demo().with_run_lengths(2_000, 10_000);
    let jobs: Vec<(Mix, Scheme)> = [Scheme::Lru, Scheme::nucache_default(), Scheme::Ucp]
        .into_iter()
        .map(|s| (Mix::new("det", vec![SpecWorkload::HmmerLike, SpecWorkload::McfLike]), s))
        .collect();

    let serial = Runner::new().with_jobs(1).run_jobs(&config, &jobs);
    let reference = format!("{serial:?}");
    for workers in [2, 4, 7] {
        let parallel = Runner::new().with_jobs(workers).run_jobs(&config, &jobs);
        assert_eq!(
            reference,
            format!("{parallel:?}"),
            "results diverged between --jobs 1 and --jobs {workers}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Panic isolation in the fault-tolerant runner core: for any mix of
    /// healthy and panicking jobs and any worker count,
    /// `try_parallel_map` still returns a slot for every item in input
    /// order — healthy items carry exactly the value a serial run
    /// produces, panicking items carry their own index and the panic
    /// message.
    #[test]
    fn try_parallel_map_isolates_injected_panics(
        items in prop::collection::vec((0u64..1000, prop::bool::weighted(0.25)), 0..40),
        workers in 1usize..9,
    ) {
        use nucache_repro::sim::{try_parallel_map, JobFailure, JobPolicy, ParallelReport, StuckJob};

        quiet_injected_panics();
        let policy = JobPolicy { watchdog_secs: None };
        let f = |&(value, poisoned): &(u64, bool)| {
            assert!(!poisoned, "injected test panic on {value}");
            value.wrapping_mul(3) ^ 1
        };
        let report: ParallelReport<u64> = try_parallel_map(workers, &items, &policy, f);
        let stuck: &[StuckJob] = &report.stuck;
        prop_assert!(stuck.is_empty(), "no watchdog, no flags: {stuck:?}");
        prop_assert_eq!(report.results.len(), items.len());
        for (i, ((value, poisoned), result)) in items.iter().zip(&report.results).enumerate() {
            if *poisoned {
                let failure: &JobFailure = result.as_ref().expect_err("poisoned items must fail");
                prop_assert_eq!(failure.index, i);
                prop_assert!(
                    failure.message.contains("injected test panic"),
                    "unexpected message: {}", failure.message
                );
            } else {
                prop_assert_eq!(result.as_ref().ok(), Some(&(value.wrapping_mul(3) ^ 1)));
            }
        }
        // The parallel report must agree with a fully serial run.
        let serial = try_parallel_map(1, &items, &policy, f);
        prop_assert_eq!(&report.results, &serial.results);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// Same property under random seeds, core counts and worker counts:
    /// the worker pool must never leak into simulation results.
    #[test]
    fn runner_determinism_under_random_configs(
        seed in any::<u64>(),
        cores in 1usize..4,
        workers in 2usize..9,
    ) {
        use nucache_repro::sim::{Runner, Scheme, SimConfig};
        use nucache_repro::trace::{Mix, SpecWorkload};

        let config = SimConfig::demo()
            .with_cores(cores)
            .with_seed(seed)
            .with_run_lengths(1_000, 5_000);
        let mix = Mix::new("rand", vec![SpecWorkload::GobmkLike; cores]);
        let jobs = vec![(mix.clone(), Scheme::Lru), (mix, Scheme::nucache_default())];
        let serial = Runner::new().with_jobs(1).run_jobs(&config, &jobs);
        let parallel = Runner::new().with_jobs(workers).run_jobs(&config, &jobs);
        prop_assert_eq!(format!("{:?}", serial), format!("{:?}", parallel));
    }
}
