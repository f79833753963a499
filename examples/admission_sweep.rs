//! DeliWays admission sweep: hit rates of the kernel at the library
//! defaults (1024 sets x 16 ways, 8 DeliWays, 100k-access epochs) under
//! both admission rules, against an LRU cache of the same geometry
//! (`deli_ways = 0`).
//!
//! * *hot/cold*: 4M get-then-put-on-miss accesses over 48k dense keys,
//!   80% of them to a hot quarter; a key's class is `mix64(key)` modulo
//!   the class count. The last 3M accesses count.
//! * *loop*: one class cycles over `k` keys per set (`k x 1024` keys) for
//!   40 rounds; the last 20 count.
//!
//! Run with: `cargo run --release --example admission_sweep`

#![allow(clippy::expect_used, reason = "an example stops on the first failure")]

use nucache_common::mix64;
use nucache_kernel::{DeliAdmission, InsertionClass, KernelConfig, NucacheKernel};

/// Hot/cold accesses in all, and the warm-up that does not count.
const HOT_COLD_ACCESSES: u64 = 4_000_000;
const HOT_COLD_WARMUP: u64 = 1_000_000;
/// Dense keys of the hot/cold stream, and the hot quarter's share.
const HOT_COLD_KEYS: u64 = 48 * 1024;
const HOT_PERCENT: u64 = 80;
/// Loop rounds in all, and the warm-up rounds that do not count.
const LOOP_ROUNDS: u64 = 40;
const LOOP_WARMUP: u64 = 20;

/// The three caches a scenario runs on.
fn caches() -> [(&'static str, KernelConfig); 3] {
    let defaults = KernelConfig::default();
    [
        ("same-geometry LRU", defaults.with_deli_ways(0)),
        ("ChosenOnly", KernelConfig { deli_admission: DeliAdmission::ChosenOnly, ..defaults }),
        ("Guests", KernelConfig { deli_admission: DeliAdmission::Guests, ..defaults }),
    ]
}

/// The hit rate of `stream`'s `(key, class)` accesses after the first
/// `warmup`, each a `get` and a `put` on a miss.
fn hit_rate(config: KernelConfig, warmup: u64, stream: impl Iterator<Item = (u64, u64)>) -> f64 {
    let mut kernel: NucacheKernel<()> = NucacheKernel::init(config).expect("valid config");
    let (mut hits, mut counted) = (0u64, 0u64);
    for (n, (key, class)) in stream.enumerate() {
        let class = InsertionClass::new(class);
        let hit = kernel.get(key, class).is_hit();
        if !hit {
            kernel.put(key, class, ());
        }
        if n as u64 >= warmup {
            counted += 1;
            hits += u64::from(hit);
        }
    }
    hits as f64 / counted.max(1) as f64
}

/// The hot/cold stream with keys spread over `classes` classes.
fn hot_cold(classes: u64) -> impl Iterator<Item = (u64, u64)> {
    let mut state = 0x5eed_u64;
    (0..HOT_COLD_ACCESSES).map(move |_| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let draw = mix64(state);
        let key = if draw % 100 < HOT_PERCENT {
            (draw >> 8) % (HOT_COLD_KEYS / 4)
        } else {
            (draw >> 8) % HOT_COLD_KEYS
        };
        (key, mix64(key) % classes)
    })
}

/// One class cycling over `per_set` keys per set of `sets`.
fn single_loop(per_set: u64, sets: u64) -> impl Iterator<Item = (u64, u64)> {
    let keys = per_set * sets;
    (0..LOOP_ROUNDS * keys).map(move |n| (n % keys, 0))
}

/// A row of the sweep.
enum Scenario {
    /// The hot/cold stream over this many classes.
    HotCold(u64),
    /// The single-class loop over this many keys per set.
    Loop(u64),
}

impl Scenario {
    fn name(&self) -> String {
        match self {
            Scenario::HotCold(1) => "hot/cold, 1 class".to_string(),
            Scenario::HotCold(classes) => format!("hot/cold, {classes} classes"),
            Scenario::Loop(per_set) => format!("loop, {per_set} keys per set"),
        }
    }

    fn hit_rate(&self, config: KernelConfig) -> f64 {
        match *self {
            Scenario::HotCold(classes) => hit_rate(config, HOT_COLD_WARMUP, hot_cold(classes)),
            Scenario::Loop(per_set) => {
                let sets = config.sets as u64;
                hit_rate(config, LOOP_WARMUP * per_set * sets, single_loop(per_set, sets))
            }
        }
    }
}

fn main() {
    let scenarios = [1, 64, 1_000, 100_000]
        .map(Scenario::HotCold)
        .into_iter()
        .chain([12, 16, 20].map(Scenario::Loop));
    let caches = caches();
    print!("| {:<26} |", "scenario");
    for (name, _) in &caches {
        print!(" {name:>17} |");
    }
    print!("\n|{:-<28}|", "");
    for _ in &caches {
        print!("{:->19}|", ":");
    }
    println!();
    for scenario in scenarios {
        print!("| {:<26} |", scenario.name());
        for &(_, config) in &caches {
            print!(" {:>16.1}% |", 100.0 * scenario.hit_rate(config));
        }
        println!();
    }
}
