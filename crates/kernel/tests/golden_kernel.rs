//! Golden digests of exact kernel decisions.
//!
//! Each row drives one `NucacheKernel` with a fixed get/put/remove
//! stream and folds into a 64-bit FNV-1a digest every `get` result (hit
//! or miss, the region, a promotion's eviction), every `put` and
//! `remove` eviction, and the end state: the counters, the chosen set,
//! the last selection, the delinquency tracker's ranking and the Next-Use
//! monitor's counters. The expected digests were computed once and are
//! committed below, so a change to any decision the kernel makes fails
//! this test.
//!
//! The first four rows use thousands of insertion classes, so they pin
//! the tracker above its capacity and the monitor in every sampled set:
//!
//! * `defaults`: the library defaults under 2,048 skewed classes. One
//!   class in 8 issues 64-byte-aligned keys, which all land in sampled
//!   sets, and 5% of the operations are removes.
//! * `refresh`: the same stream with promotion off and DeliWays refresh
//!   on.
//! * `deep-monitor`: 64 sets × 8 ways, every set sampled with 100-deep
//!   buffers, 300 classes.
//! * `deferred`: the `defaults` stream with deferred selection, each
//!   selection installed right after the `get` that made it due.
//!
//! The other rows cover a configuration grid with at most 8 classes,
//! below the tracker's capacity, and epochs short enough that every
//! stream crosses many selection boundaries. Their streams are
//! get-then-put accesses by 6 classes to uniform keys, so they pin the
//! epoch sequencing (tick, snapshot, decay, install) and the
//! replacement under each mode:
//!
//! * `<strategy>-d<D>`: every selection strategy at 0–3 DeliWays, 8 sets
//!   × 4 ways, every set sampled;
//! * `fifo` and `fifo-refresh`: promotion off, DeliWays refresh off and
//!   on, 4 sets × 8 ways with 3 DeliWays;
//! * `sampled-s1` and `sampled-s2`: one set in 2 and in 4 sampled, 16
//!   sets × 8 ways with 4 DeliWays;
//! * `loop-stream`: 64 sets × 16 ways with 8 DeliWays, one class looping
//!   over 768 keys while another streams through fresh ones.

#![allow(clippy::expect_used, reason = "test helpers fail the test on a broken invariant")]

use nucache_kernel::{
    InsertionClass, KernelConfig, Lookup, NucacheKernel, Region, SelectionStrategy,
};

/// Expected digest per row.
const EXPECTED: &[(&str, u64)] = &[
    ("defaults", 0xd29170ba4c1197d4),
    ("refresh", 0xd2da3d3e76fd55a3),
    ("deep-monitor", 0xf274bee9696e3d57),
    ("deferred", 0xd29170ba4c1197d4),
    ("cost-benefit-d0", 0xe8999a0a246197ef),
    ("cost-benefit-d1", 0x68927709ceb4f2d8),
    ("cost-benefit-d2", 0x702d269335f2a01e),
    ("cost-benefit-d3", 0xd600efd7386093f3),
    ("exhaustive-d0", 0xe8999a0a246197ef),
    ("exhaustive-d1", 0x94a076c3fab7dbb5),
    ("exhaustive-d2", 0x4dd871ea0f2e11e7),
    ("exhaustive-d3", 0xfc9faaf7d5ba8e60),
    ("static-top-2-d0", 0xaec3c333999c1dcf),
    ("static-top-2-d1", 0x59480d3cb6335344),
    ("static-top-2-d2", 0x2828b011ac27a2b0),
    ("static-top-2-d3", 0xdd75a863a989f5e8),
    ("random-2-d0", 0xbc413151a77d6faf),
    ("random-2-d1", 0xa55a851520fa7087),
    ("random-2-d2", 0xd9e9004b0f5475bf),
    ("random-2-d3", 0x77beea907fb57fac),
    ("none-d0", 0xe8999a0a246197ef),
    ("none-d1", 0xf01749c4dd65d4be),
    ("none-d2", 0x6a8cf4c0cdec1395),
    ("none-d3", 0xa70e5ea19deadb43),
    ("fifo", 0xd97589498824e564),
    ("fifo-refresh", 0x3128bb53e30b2d1a),
    ("sampled-s1", 0xa938c207b6e4d193),
    ("sampled-s2", 0xc62857c046495ada),
    ("loop-stream", 0x836c750d1e15836a),
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

    fn evicted(&mut self, e: Option<&nucache_kernel::Evicted<u64, InsertionClass>>) {
        match e {
            None => self.u64(0),
            Some(e) => {
                self.u64(1);
                self.u64(e.key);
                self.u64(e.class.raw());
                self.u64(e.value);
            }
        }
    }

    fn classes(&mut self, classes: &[InsertionClass]) {
        self.u64(classes.len() as u64);
        for c in classes {
            self.u64(c.raw());
        }
    }
}

/// SplitMix64: the stream generator, independent of the crates under test.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A stream of keyed operations over `classes` insertion classes.
struct Stream {
    rng: Rng,
    classes: usize,
    cursors: Vec<u64>,
}

enum Op {
    Access(u64, InsertionClass),
    Remove(u64),
}

impl Stream {
    fn new(seed: u64, classes: usize) -> Self {
        Stream { rng: Rng(seed), classes, cursors: vec![0; classes] }
    }
}

impl Iterator for Stream {
    type Item = Op;

    /// The next operation. The class is uniform below `classes >> s`,
    /// with `s` uniform in `0..8`, so low ids are the hot ones. Class `c`
    /// loops over, draws at random from, or scans past a private working
    /// set of `8 << (c % 6)` keys, by `c % 3`; one class in 8 shifts its
    /// keys left by 6, so they are 64-byte aligned.
    fn next(&mut self) -> Option<Op> {
        let span = (self.classes >> self.rng.below(8)).max(1);
        let c = self.rng.below(span as u64);
        let ws = 8u64 << (c % 6);
        let cursor = &mut self.cursors[usize::try_from(c).expect("below the class count")];
        let offset = match c % 3 {
            0 => {
                *cursor += 1;
                *cursor % ws
            }
            1 => self.rng.below(4 * ws),
            _ => {
                *cursor += 1;
                *cursor
            }
        };
        let local = if c % 8 == 3 { offset << 6 } else { offset };
        let key = ((c + 1) << 32) | local;
        Some(if self.rng.below(100) < 5 {
            Op::Remove(key)
        } else {
            Op::Access(key, InsertionClass::new(c))
        })
    }
}

/// Accesses by 6 classes to keys uniform below `keys`, both drawn at
/// random: the stream shape of the configuration grid.
fn uniform(seed: u64, keys: u64) -> impl Iterator<Item = Op> {
    let mut rng = Rng(seed);
    std::iter::repeat_with(move || {
        let class = InsertionClass::new(rng.below(6));
        Op::Access(rng.below(keys), class)
    })
}

/// 30,000 rounds: class 1 loops over keys `0..768` every round, and
/// class 2 takes the next key of a fresh run every other round.
fn loop_stream() -> impl Iterator<Item = Op> {
    (0..30_000u64).flat_map(|round| {
        let looping = Op::Access(round % 768, InsertionClass::new(1));
        let streaming =
            (round % 2 == 0).then(|| Op::Access((1 << 20) + round / 2, InsertionClass::new(2)));
        std::iter::once(looping).chain(streaming)
    })
}

/// The value stored under `key`.
fn value_of(key: u64) -> u64 {
    key.rotate_left(23) ^ 0x0123_4567_89ab_cdef
}

/// Runs the operations of `stream` through a kernel built from `config`
/// and returns the digest. With `deferred`, each selection is taken,
/// computed and installed right after the `get` that made it due.
fn run(config: KernelConfig, stream: impl Iterator<Item = Op>, deferred: bool) -> u64 {
    let mut k: NucacheKernel<u64> = NucacheKernel::init(config).expect("valid config");
    k.set_deferred_selection(deferred);
    let mut d = Digest::new();
    for op in stream {
        match op {
            Op::Remove(key) => d.evicted(k.remove(key).as_ref()),
            Op::Access(key, class) => {
                let hit = match k.get(key, class) {
                    Lookup::Hit { value, region, evicted } => {
                        assert_eq!(*value, value_of(key), "a hit returns the stored value");
                        d.u64(match region {
                            Region::Main => 1,
                            Region::Deli => 2,
                        });
                        d.evicted(evicted.as_ref());
                        true
                    }
                    Lookup::Miss => {
                        d.u64(3);
                        false
                    }
                };
                if k.selection_due() {
                    let inputs = k.take_epoch_inputs().expect("a due selection has inputs");
                    let selection = inputs.compute();
                    k.install_selection(inputs, selection);
                }
                if !hit {
                    d.evicted(k.put(key, class, value_of(key)).as_ref());
                }
            }
        }
    }
    for x in [
        k.hits(),
        k.misses(),
        k.deli_hits(),
        k.deli_fills(),
        k.epochs(),
        k.len() as u64,
        k.deli_occupancy(),
    ] {
        d.u64(x);
    }
    d.classes(&k.chosen_classes());
    let selection = k.last_selection();
    d.classes(&selection.chosen);
    d.u64(selection.expected_hits);
    d.u64(selection.extra_lifetime);
    let tracker = k.tracker();
    d.u64(tracker.total_misses());
    let top = tracker.top_k(tracker.len());
    d.u64(top.len() as u64);
    for (class, misses) in top {
        d.u64(class.raw());
        d.u64(misses);
    }
    let monitor = k.monitor();
    d.u64(monitor.recorded());
    d.u64(monitor.matched());
    d.u64(monitor.sampled_accesses());
    d.0
}

/// The grid rows: small geometries, every set sampled unless the row
/// says otherwise, and epochs of at most a few hundred accesses.
fn grid() -> Vec<(String, u64)> {
    let small = |sets: usize, ways: usize, deli: usize, epoch_len: u64| {
        let mut config = KernelConfig::default()
            .with_sets(sets)
            .with_ways(ways)
            .with_deli_ways(deli)
            .with_epoch_len(epoch_len);
        config.monitor_shift = 0;
        config
    };
    let strategies = [
        ("cost-benefit", SelectionStrategy::CostBenefit),
        ("exhaustive", SelectionStrategy::Exhaustive),
        ("static-top-2", SelectionStrategy::StaticTopK(2)),
        ("random-2", SelectionStrategy::Random(2)),
        ("none", SelectionStrategy::None),
    ];
    let mut rows = Vec::new();
    for (name, strategy) in strategies {
        for deli in 0..4 {
            let config = small(8, 4, deli, 97).with_strategy(strategy);
            rows.push((format!("{name}-d{deli}"), run(config, uniform(3, 96).take(3_000), false)));
        }
    }
    for refresh in [false, true] {
        let mut config = small(4, 8, 3, 89);
        config.promote_on_deli_hit = false;
        config.deli_hit_refresh = refresh;
        let name = if refresh { "fifo-refresh" } else { "fifo" };
        rows.push((name.to_string(), run(config, uniform(4, 64).take(3_000), false)));
    }
    for shift in [1, 2] {
        let mut config = small(16, 8, 4, 100);
        config.monitor_shift = shift;
        rows.push((format!("sampled-s{shift}"), run(config, uniform(5, 512).take(3_000), false)));
    }
    let anchor = small(64, 16, 8, 2_000);
    rows.push(("loop-stream".to_string(), run(anchor, loop_stream(), false)));
    rows
}

/// Every row with its freshly computed digest.
fn computed() -> Vec<(String, u64)> {
    let defaults = KernelConfig::default();
    let mut refresh = defaults;
    refresh.promote_on_deli_hit = false;
    refresh.deli_hit_refresh = true;
    let mut deep = KernelConfig::default().with_sets(64).with_ways(8).with_deli_ways(4);
    deep.epoch_len = 8_192;
    deep.monitor_shift = 0;
    deep.monitor_depth = 100;
    let ops = 320_000;
    let mut rows = vec![
        ("defaults".to_string(), run(defaults, Stream::new(1, 2_048).take(ops), false)),
        ("refresh".to_string(), run(refresh, Stream::new(1, 2_048).take(ops), false)),
        ("deep-monitor".to_string(), run(deep, Stream::new(2, 300).take(100_000), false)),
        ("deferred".to_string(), run(defaults, Stream::new(1, 2_048).take(ops), true)),
    ];
    rows.extend(grid());
    rows
}

#[test]
#[cfg_attr(miri, ignore)]
fn kernel_decisions_match_golden_digests() {
    let rows = computed();
    let mut mismatches = Vec::new();
    for (row, got) in &rows {
        let want = EXPECTED.iter().find(|(name, _)| *name == row).map(|&(_, d)| d);
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
