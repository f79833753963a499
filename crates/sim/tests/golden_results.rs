//! Golden digests of exact simulated outcomes.
//!
//! Each row runs one simulation and folds every field of its
//! [`SimResult`] (or, for a solo run, its [`CoreResult`]) into a 64-bit
//! digest, `f64`s by their bit patterns. The expected digests were
//! computed once and are committed below, so any change to a decision
//! anywhere under `run_mix` — trace generation, the private L1/L2, an
//! LLC scheme, the timing model — fails this test. A change that is
//! meant to alter outcomes must update the table in the same commit and
//! say why.
//!
//! The grid: the eight LLC schemes on `mix4_01` under two
//! configurations, two seeds each, plus `run_solo` for each of the mix's
//! workloads. The demo configuration keeps its tiny private levels and
//! LLC at four cores; the baseline rows push 25k accesses per core
//! through the 8-way, 512-set L2, so it fills and evicts. Both use a
//! 16-way LLC, so the `demo-8way` and `demo-32way` rows rerun the eight
//! schemes (seed 1) with the demo's 64 KiB LLC at 8 and 32 ways: every
//! per-set replacement row is then pinned at three widths.

#![allow(clippy::expect_used, reason = "test helpers fail the test on a broken invariant")]

use nucache_cache::CacheGeometry;
use nucache_sim::{run_mix, run_solo, CoreResult, Scheme, SimConfig, SimResult};
use nucache_trace::Mix;

/// Expected digest per row, keyed `config/seed/scheme` or
/// `config/seed/solo/workload`.
const EXPECTED: &[(&str, u64)] = &[
    ("demo/1/lru", 0xf56b3c542651c657),
    ("demo/1/dip", 0x7bae2e3e7e80d2bb),
    ("demo/1/drrip", 0x19332af51fe121ae),
    ("demo/1/tadip", 0x76e428c3c672e369),
    ("demo/1/ucp", 0xf89d8a0b09ab2f89),
    ("demo/1/pipp", 0x01b1d9f8e89a49e9),
    ("demo/1/ship-pc", 0x2a318d062469faf9),
    ("demo/1/nucache-d8", 0xbcd8ede8aa006c29),
    ("demo/1/solo/sphinx_like", 0xdfc951c401bed546),
    ("demo/1/solo/libquantum_like", 0x2d0cc94ef41d2d59),
    ("demo/1/solo/mcf_like", 0x19609b6176daf98e),
    ("demo/1/solo/lbm_like", 0x0be2644f62987f52),
    ("demo/2/lru", 0xfdfe0cf5c6e0c756),
    ("demo/2/dip", 0x0e95a92483259cdf),
    ("demo/2/drrip", 0x660a8fbc83323e6f),
    ("demo/2/tadip", 0x13d938918b59580a),
    ("demo/2/ucp", 0xbdccc0aeda41429a),
    ("demo/2/pipp", 0xee6fc9972dd47741),
    ("demo/2/ship-pc", 0x266537390dd55f98),
    ("demo/2/nucache-d8", 0xf07f4504281389c2),
    ("demo/2/solo/sphinx_like", 0x7897d858ec866ca9),
    ("demo/2/solo/libquantum_like", 0x990c65148322ff88),
    ("demo/2/solo/mcf_like", 0xc2aa2a7f84f8580d),
    ("demo/2/solo/lbm_like", 0x1c1b9627dccdd996),
    ("baseline/1/lru", 0x2837957551e081fd),
    ("baseline/1/dip", 0xd7055166427637ed),
    ("baseline/1/drrip", 0x12e0cce3e06ac8eb),
    ("baseline/1/tadip", 0x45adc6c50dab87d2),
    ("baseline/1/ucp", 0x29b4e3208ed3987c),
    ("baseline/1/pipp", 0x185add9c8344b6d9),
    ("baseline/1/ship-pc", 0xf8f69b4f68244e3b),
    ("baseline/1/nucache-d8", 0xe708205abc3c8ee4),
    ("baseline/1/solo/sphinx_like", 0xea8b72b4fad1f444),
    ("baseline/1/solo/libquantum_like", 0xc54f68007cc683e9),
    ("baseline/1/solo/mcf_like", 0x3164d42cd17b5dd7),
    ("baseline/1/solo/lbm_like", 0x91431f9b7f6c2af5),
    ("baseline/2/lru", 0xbb9185048d6c4ab2),
    ("baseline/2/dip", 0xa30ff9f336a5ee55),
    ("baseline/2/drrip", 0x507a0e678bff0834),
    ("baseline/2/tadip", 0x59c9d861624c6186),
    ("baseline/2/ucp", 0x50601c0337d2608c),
    ("baseline/2/pipp", 0x45ffe2bf5738c1cb),
    ("baseline/2/ship-pc", 0x291b7125867055a7),
    ("baseline/2/nucache-d8", 0x659f6a21cf7ec39e),
    ("baseline/2/solo/sphinx_like", 0xbe31b7d673dd340e),
    ("baseline/2/solo/libquantum_like", 0x0763aee36e6c703f),
    ("baseline/2/solo/mcf_like", 0x0564843a8b91ab13),
    ("baseline/2/solo/lbm_like", 0xd420e9b0db23564d),
    ("demo-8way/1/lru", 0xd34e001a4f44b606),
    ("demo-8way/1/dip", 0x5a0e40e2adc1fb9f),
    ("demo-8way/1/drrip", 0x96ace4171b3f8601),
    ("demo-8way/1/tadip", 0x353c9dafd3557792),
    ("demo-8way/1/ucp", 0xed08809818a3e4ea),
    ("demo-8way/1/pipp", 0x3ff8903741bb157c),
    ("demo-8way/1/ship-pc", 0x7a6067d3c3b24572),
    ("demo-8way/1/nucache-d8", 0xfc9332f97cdbbeaf),
    ("demo-32way/1/lru", 0x9beb9b54ba31b40d),
    ("demo-32way/1/dip", 0xf4549d57754a0dfa),
    ("demo-32way/1/drrip", 0x29407a96cd6f310e),
    ("demo-32way/1/tadip", 0x6b12171c3674f0db),
    ("demo-32way/1/ucp", 0xbc3248977c4f2a55),
    ("demo-32way/1/pipp", 0x844c4c263fe9229a),
    ("demo-32way/1/ship-pc", 0xfd6bb118b99c5a9d),
    ("demo-32way/1/nucache-d8", 0xfe0bd9a0fe72c59c),
];

/// FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    fn stats(&mut self, s: &nucache_common::CacheStats) {
        let nucache_common::CacheStats { hits, misses, evictions, writebacks } = *s;
        for x in [hits, misses, evictions, writebacks] {
            self.u64(x);
        }
    }

    fn core(&mut self, c: &CoreResult) {
        // Destructured so a new field fails to compile until it is digested.
        let CoreResult { workload, ipc, instructions, cycles, llc, llc_mpki } = c;
        self.str(workload);
        self.f64(*ipc);
        self.u64(*instructions);
        self.u64(*cycles);
        self.stats(llc);
        self.f64(*llc_mpki);
    }

    fn result(&mut self, r: &SimResult) {
        let SimResult { scheme, mix, per_core, llc_totals } = r;
        self.str(scheme);
        self.str(mix);
        self.u64(per_core.len() as u64);
        for c in per_core {
            self.core(c);
        }
        self.stats(llc_totals);
    }
}

fn schemes() -> Vec<Scheme> {
    vec![
        Scheme::Lru,
        Scheme::Dip,
        Scheme::Drrip,
        Scheme::Tadip,
        Scheme::Ucp,
        Scheme::Pipp,
        Scheme::Ship,
        Scheme::nucache_default(),
    ]
}

fn mix4_01() -> Mix {
    Mix::quad_core_suite()
        .into_iter()
        .find(|m| m.name() == "mix4_01")
        .expect("mix4_01 is in the quad-core suite")
}

/// Every row of the grid with its freshly computed digest.
fn computed() -> Vec<(String, u64)> {
    let configs = [
        ("demo", SimConfig::demo().with_cores(4)),
        ("baseline", SimConfig::baseline(4).with_run_lengths(5_000, 20_000)),
    ];
    let mix = mix4_01();
    let mut rows = Vec::new();
    for (label, config) in configs {
        for seed in [1u64, 2] {
            let config = config.with_seed(seed);
            for scheme in schemes() {
                let mut d = Digest::new();
                d.result(&run_mix(&config, &mix, &scheme));
                rows.push((format!("{label}/{seed}/{}", scheme.name()), d.0));
            }
            for &w in mix.workloads() {
                let mut d = Digest::new();
                d.core(&run_solo(&config, w));
                rows.push((format!("{label}/{seed}/solo/{}", w.name()), d.0));
            }
        }
    }
    for ways in [8usize, 32] {
        let demo = SimConfig::demo().with_cores(4);
        let llc = CacheGeometry::new(demo.llc.size_bytes(), ways, demo.llc.block_bytes());
        let config = demo.with_llc(llc).with_seed(1);
        for scheme in schemes() {
            let mut d = Digest::new();
            d.result(&run_mix(&config, &mix, &scheme));
            rows.push((format!("demo-{ways}way/1/{}", scheme.name()), d.0));
        }
    }
    rows
}

#[test]
fn simulated_outcomes_match_golden_digests() {
    let rows = computed();
    let mut mismatches = Vec::new();
    for (row, got) in &rows {
        let want = EXPECTED.iter().find(|(name, _)| name == row).map(|&(_, d)| d);
        if want != Some(*got) {
            mismatches.push(format!("    (\"{row}\", {got:#018x}), // expected {want:#x?}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} rows differ from their golden digest:\n{}",
        mismatches.len(),
        rows.len(),
        mismatches.join("\n")
    );
    assert_eq!(EXPECTED.len(), rows.len(), "the table lists rows the grid does not run");
}
