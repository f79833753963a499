//! End-to-end integration tests: full simulations across every crate.

use nucache_repro::cpu::MultiProgramMetrics;
use nucache_repro::sim::{run_mix, run_mix_nucache, Runner, Scheme, SimConfig};
use nucache_repro::trace::{Mix, SpecWorkload};

/// A small-but-real configuration: contention happens, runs stay fast.
fn test_config(cores: usize) -> SimConfig {
    SimConfig::baseline(cores).with_run_lengths(50_000, 150_000)
}

/// Normalized metrics of `mix` under each of `schemes`, in order.
fn evaluate(config: &SimConfig, mix: &Mix, schemes: &[Scheme]) -> Vec<MultiProgramMetrics> {
    let grid = Runner::new().evaluate_grid(config, std::slice::from_ref(mix), schemes);
    grid.into_iter().flatten().map(|(_, metrics)| metrics).collect()
}

#[test]
fn every_headline_scheme_completes_a_dual_core_mix() {
    let config = test_config(2);
    let mix = Mix::new("it", vec![SpecWorkload::SphinxLike, SpecWorkload::LibquantumLike]);
    for scheme in Scheme::headline_suite() {
        let r = run_mix(&config, &mix, &scheme);
        assert_eq!(r.per_core.len(), 2, "{scheme}");
        assert!(r.per_core.iter().all(|c| c.ipc > 0.0), "{scheme}");
        assert!(r.llc_totals.accesses() > 0, "{scheme}");
    }
}

#[test]
fn results_are_bit_identical_across_runs() {
    let config = test_config(2);
    let mix = Mix::new("det", vec![SpecWorkload::McfLike, SpecWorkload::MilcLike]);
    for scheme in [Scheme::Lru, Scheme::Pipp, Scheme::nucache_default()] {
        let a = run_mix(&config, &mix, &scheme);
        let b = run_mix(&config, &mix, &scheme);
        assert_eq!(a, b, "{scheme} must be deterministic");
    }
}

#[test]
fn nucache_beats_lru_on_retention_sensitive_mix() {
    // The flagship scenario: a retention-sensitive loop application
    // co-running with an intense streamer. Shared LRU lets the stream
    // flush the loop; NUcache must recover most of it.
    let config = test_config(2);
    let mix = Mix::new("flagship", vec![SpecWorkload::SphinxLike, SpecWorkload::LibquantumLike]);
    let metrics = evaluate(&config, &mix, &[Scheme::Lru, Scheme::nucache_default()]);
    let (lru, nuc) = (&metrics[0], &metrics[1]);
    assert!(
        nuc.weighted_speedup > lru.weighted_speedup * 1.10,
        "NUcache {} vs LRU {}: expected >10% improvement",
        nuc.weighted_speedup,
        lru.weighted_speedup
    );
}

#[test]
fn nucache_never_collapses_on_friendly_mixes() {
    // Cache-friendly co-runners leave nothing for NUcache to improve; it
    // must not lose more than a sliver to its reserved DeliWays.
    let config = test_config(2);
    let mix = Mix::new("friendly", vec![SpecWorkload::HmmerLike, SpecWorkload::GobmkLike]);
    let metrics = evaluate(&config, &mix, &[Scheme::Lru, Scheme::nucache_default()]);
    let (lru, nuc) = (&metrics[0], &metrics[1]);
    assert!(
        nuc.weighted_speedup > lru.weighted_speedup * 0.95,
        "NUcache {} vs LRU {}: must stay within 5%",
        nuc.weighted_speedup,
        lru.weighted_speedup
    );
}

#[test]
fn nucache_internals_are_active_in_a_real_mix() {
    let config = test_config(2);
    let mix = Mix::new("internals", vec![SpecWorkload::SphinxLike, SpecWorkload::LbmLike]);
    let (result, llc) =
        run_mix_nucache(&config, &mix, nucache_repro::core::KernelConfig::default());
    assert!(llc.epochs() > 0, "selection must have run");
    assert!(llc.deli_fills() > 0, "DeliWays must be used");
    assert!(llc.deli_hits() > 0, "DeliWays must produce hits");
    assert!(!llc.tracker().is_empty());
    assert!(result.llc_totals.hits > 0);
}

#[test]
fn weighted_speedup_bounded_by_core_count() {
    let config = test_config(4);
    let mix = Mix::new(
        "bound",
        vec![
            SpecWorkload::GccLike,
            SpecWorkload::Bzip2Like,
            SpecWorkload::SjengLike,
            SpecWorkload::GobmkLike,
        ],
    );
    let schemes = Scheme::headline_suite();
    for (scheme, m) in schemes.iter().zip(evaluate(&config, &mix, &schemes)) {
        assert!(
            m.weighted_speedup <= 4.0 * 1.05,
            "{scheme}: ws {} exceeds core count",
            m.weighted_speedup
        );
        assert!(m.antt >= 0.95, "{scheme}: antt {} below 1 is implausible", m.antt);
    }
}

#[test]
fn ucp_protects_the_reuser_better_than_lru() {
    let config = test_config(2);
    let mix = Mix::new("ucp_it", vec![SpecWorkload::SoplexLike, SpecWorkload::LbmLike]);
    let metrics = evaluate(&config, &mix, &[Scheme::Lru, Scheme::Ucp]);
    let (lru, ucp) = (&metrics[0], &metrics[1]);
    assert!(
        ucp.per_core_speedup[0] >= lru.per_core_speedup[0] * 0.98,
        "UCP must not hurt the reuser: {} vs {}",
        ucp.per_core_speedup[0],
        lru.per_core_speedup[0]
    );
}

#[test]
fn eight_core_mix_runs_under_every_scheme() {
    let config = SimConfig::baseline(8).with_run_lengths(20_000, 60_000);
    let mix = Mix::eight_core_suite().remove(0);
    for scheme in Scheme::headline_suite() {
        let r = run_mix(&config, &mix, &scheme);
        assert_eq!(r.per_core.len(), 8, "{scheme}");
        assert!(r.per_core.iter().all(|c| c.cycles > 0), "{scheme}");
    }
}

#[test]
fn solo_ipc_independent_of_co_runner_seeding() {
    // The runner's memoized solo runs must match a direct solo run.
    let config = test_config(2);
    let runner = Runner::new();
    let direct = nucache_repro::sim::run_solo(&config, SpecWorkload::AstarLike);
    let cached = runner.solo(&config, SpecWorkload::AstarLike);
    assert_eq!(cached.ipc, direct.ipc);
}
