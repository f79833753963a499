//! The frozen reference loop that every timed value is normalised by.
//!
//! A 16 MiB, 8-way set-associative LRU over a fixed key stream: larger
//! than the L2 of the hosts the benchmark targets, so it slows down with
//! the host the way the measured workloads do (memory and CPU alike).
//! It imports nothing from the workspace and its constants and stream
//! never change: a change to the program under test cannot move the
//! reference rate, and a reference rate measured today stays comparable
//! with one measured later. Editing this file invalidates
//! `NOMINAL_REF_RATE` in `host.rs`.

use std::hint::black_box;

/// Sets of the reference cache (`2^18`).
const SETS: usize = 1 << 18;
/// Ways per set; `SETS * WAYS` 8-byte tags make 16 MiB.
const WAYS: usize = 8;
/// Keys are drawn from this many distinct values, 1.5x the capacity.
const UNIVERSE: u64 = (SETS * WAYS) as u64 * 3 / 2;
/// Half of the draws come from this hot subset, so lookups both hit and
/// miss.
const HOT: u64 = (SETS * WAYS) as u64 / 4;
/// Marks an empty way (never a key: keys are below `UNIVERSE`).
const EMPTY: u64 = u64::MAX;
/// The stream seed. Fixed on purpose: the reference work must be the
/// same in every run, whatever seed the workload takes.
const STREAM_SEED: u64 = 0x5eed_0f20_11ca_fe00;

/// The reference cache and its key-stream position.
pub struct RefLoop {
    /// Ways of set `s` are `tags[s * WAYS..][..WAYS]`, most recent first.
    tags: Vec<u64>,
    state: u64,
}

impl RefLoop {
    /// An empty reference cache at the start of its stream.
    pub fn new() -> Self {
        RefLoop { tags: vec![EMPTY; SETS * WAYS], state: STREAM_SEED }
    }

    /// SplitMix64: the next value of the stream.
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Runs `lookups` LRU lookups (inserting on a miss) and returns the
    /// hit count.
    pub fn run(&mut self, lookups: u64) -> u64 {
        let mut hits = 0;
        for _ in 0..lookups {
            let r = self.next();
            let key = if r & 1 == 0 { (r >> 1) % HOT } else { (r >> 1) % UNIVERSE };
            let set = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 46) as usize % SETS;
            let ways = &mut self.tags[set * WAYS..(set + 1) * WAYS];
            let pos = ways.iter().position(|&t| t == key);
            let end = match pos {
                Some(p) => {
                    hits += 1;
                    p
                }
                None => WAYS - 1,
            };
            ways[..=end].rotate_right(1);
            ways[0] = key;
        }
        black_box(hits)
    }
}
