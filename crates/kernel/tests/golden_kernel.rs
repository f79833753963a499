//! Golden digests of exact kernel decisions.
//!
//! Each row drives one `NucacheKernel` with a fixed get/put/remove
//! stream and folds into a 64-bit FNV-1a digest every `get` result (hit
//! or miss, the region, a promotion's eviction), every `put` and
//! `remove` eviction, and the end state: the counters, the chosen set,
//! the last selection, the delinquency tracker's ranking and the Next-Use
//! monitor's counters. The expected digests were computed once and are
//! committed below, so a change to any decision the kernel makes fails
//! this test. Unlike the simulator's equivalence suite, the streams here
//! use thousands of insertion classes, so they pin the tracker above its
//! capacity and the monitor in every sampled set.
//!
//! The rows:
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

#![allow(clippy::expect_used, reason = "test helpers fail the test on a broken invariant")]

use nucache_kernel::{InsertionClass, KernelConfig, Lookup, NucacheKernel, Region};

/// Expected digest per row.
const EXPECTED: &[(&str, u64)] = &[
    ("defaults", 0xd29170ba4c1197d4),
    ("refresh", 0xd2da3d3e76fd55a3),
    ("deep-monitor", 0xf274bee9696e3d57),
    ("deferred", 0xd29170ba4c1197d4),
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

    /// The next operation. The class is uniform below `classes >> s`,
    /// with `s` uniform in `0..8`, so low ids are the hot ones. Class `c`
    /// loops over, draws at random from, or scans past a private working
    /// set of `8 << (c % 6)` keys, by `c % 3`; one class in 8 shifts its
    /// keys left by 6, so they are 64-byte aligned.
    fn next(&mut self) -> Op {
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
        if self.rng.below(100) < 5 {
            Op::Remove(key)
        } else {
            Op::Access(key, InsertionClass::new(c))
        }
    }
}

/// The value stored under `key`.
fn value_of(key: u64) -> u64 {
    key.rotate_left(23) ^ 0x0123_4567_89ab_cdef
}

/// Runs `ops` operations of `stream` through a kernel built from
/// `config` and returns the digest. With `deferred`, each selection is
/// taken, computed and installed right after the `get` that made it due.
fn run(config: KernelConfig, mut stream: Stream, ops: usize, deferred: bool) -> u64 {
    let mut k: NucacheKernel<u64> = NucacheKernel::init(config).expect("valid config");
    k.set_deferred_selection(deferred);
    let mut d = Digest::new();
    for _ in 0..ops {
        match stream.next() {
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

/// Every row with its freshly computed digest.
fn computed() -> Vec<(&'static str, u64)> {
    let defaults = KernelConfig::default();
    let mut refresh = defaults;
    refresh.promote_on_deli_hit = false;
    refresh.deli_hit_refresh = true;
    let mut deep = KernelConfig::default().with_sets(64).with_ways(8).with_deli_ways(4);
    deep.epoch_len = 8_192;
    deep.monitor_shift = 0;
    deep.monitor_depth = 100;
    let ops = 320_000;
    vec![
        ("defaults", run(defaults, Stream::new(1, 2_048), ops, false)),
        ("refresh", run(refresh, Stream::new(1, 2_048), ops, false)),
        ("deep-monitor", run(deep, Stream::new(2, 300), 100_000, false)),
        ("deferred", run(defaults, Stream::new(1, 2_048), ops, true)),
    ]
}

#[test]
#[cfg_attr(miri, ignore)]
fn kernel_decisions_match_golden_digests() {
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
