//! An embeddable NUcache kernel: set-associative caching with
//! Next-Use-driven selective retention, usable from any Rust program
//! (including `no_std + alloc` targets).
//!
//! This crate is the mechanism of *NUcache: An efficient multicore
//! cache organization based on Next-Use distance* (Manikantan,
//! Rajan & Govindarajan, HPCA 2011), factored out of the simulator in
//! this workspace and re-keyed for software caches: where the hardware
//! design classifies cache lines by the program counter of the missing
//! load, the library accepts an opaque [`InsertionClass`] chosen by the
//! caller — a tenant id, an endpoint/query template, an object type.
//!
//! # The mechanism
//!
//! Each cache set's ways are split in two:
//!
//! - **MainWays** — ordinary LRU ways. Every insertion lands here.
//! - **DeliWays** — a FIFO region that *retains* entries evicted from
//!   the MainWays, but only entries whose insertion class is currently
//!   *chosen*.
//!
//! The bet is the paper's DelinquentPC observation: a handful of
//! insertion sources produce most misses, and for some of those
//! sources the evicted entries come back soon ("near" Next-Use
//! distance). Retaining exactly those classes converts their misses to
//! hits at far lower cost than growing the whole cache.
//!
//! # Epoch flow
//!
//! Learning happens in epochs of [`KernelConfig::epoch_len`] accesses:
//!
//! 1. **Observe.** During the epoch, a [`DelinquentTracker`] counts
//!    misses per class, and a sampled [`NextUseMonitor`] measures
//!    Next-Use distances: in one set out of `2^monitor_shift`, each
//!    MainWays eviction is buffered, and when the evicted key is
//!    requested again the elapsed set-access count is recorded into the
//!    evicting class's log2 histogram.
//! 2. **Select.** At the epoch boundary the top classes by combined
//!    fills (misses + DeliWays insertions) become candidates. The
//!    cost-benefit selector estimates, for each candidate mix, the
//!    *extra lifetime* the DeliWays would grant (`deli_ways ×
//!    accesses / fills`) and counts the histogram mass with Next-Use
//!    distance within that lifetime — the expected extra hits. The
//!    best mix becomes the chosen set ([`SelectionStrategy`] offers
//!    greedy cost-benefit, an exhaustive oracle, and baselines).
//! 3. **Decay.** Tracker counts, histograms and window denominators
//!    halve, so selection adapts to phase changes while keeping
//!    history.
//!
//! Between epochs the data path is cheap: a MainWays hit reorders the
//! set's 8-bit LRU ranks and allocates nothing, and every lookup a miss
//! adds (the miss tracker, the chosen-class test, the Next-Use buffer)
//! takes constant time.
//!
//! # Quickstart
//!
//! ```
//! use nucache_kernel::{InsertionClass, KernelConfig, Lookup, NucacheKernel};
//!
//! // 64 sets x 8 ways, 4 of which retain evictions of chosen classes.
//! let config = KernelConfig::default()
//!     .with_sets(64)
//!     .with_ways(8)
//!     .with_deli_ways(4);
//! let mut cache: NucacheKernel<String> = NucacheKernel::init(config)?;
//!
//! // Classify insertions by their source; here, per tenant.
//! let tenant_a = InsertionClass::new(1);
//! let tenant_b = InsertionClass::new(2);
//!
//! let key = 0xdead_beef;
//! match cache.get(key, tenant_a) {
//!     Lookup::Hit { value, .. } => println!("hit: {value}"),
//!     Lookup::Miss => {
//!         // The kernel recorded the miss for selection; the caller
//!         // decides whether to insert (demand-fill policy).
//!         let fetched = "expensive result".to_string();
//!         cache.put(key, tenant_a, fetched);
//!     }
//! }
//! cache.put(0x42, tenant_b, "other tenant".to_string());
//! assert!(cache.get(key, tenant_a).is_hit());
//! cache.remove(0x42);
//! # Ok::<(), nucache_kernel::ConfigError>(())
//! ```
//!
//! Keys are plain `u64`s: the low `log2(sets)` bits pick the set and the
//! rest are the tag. Distinct keys never alias, but only those low bits
//! spread keys over the sets. Keys that are all multiples of `2^k` use
//! only `sets / 2^k` of them, and keys spaced a multiple of `sets` apart
//! all land in one set, which then holds `ways` entries however many
//! keys are live. Ids whose low bits vary freely (a hash of a URL, a
//! dense counter) can be keys as they are. For aligned or strided ids
//! (byte addresses, ids with a type tag in the low bits) pass
//! `nucache_common::mix64(id)` instead: it is a bijection, so unique ids
//! stay unique, and it spreads any stride over every set.
//!
//! # Choosing insertion classes
//!
//! Selection quality depends on classes that separate reuse behaviour;
//! see [`InsertionClass`] for a classification guide with examples and
//! anti-patterns.
//!
//! # Features
//!
//! - `std` *(default)* — implements [`std::error::Error`] for
//!   [`ConfigError`]. Disable for `no_std + alloc` embedding:
//!   `default-features = false`.
//! - `concurrent` *(default, implies `std`)* — the sharded thread-safe
//!   front-end ([`concurrent::ConcurrentNucache`]): keys hash to one of
//!   N independently locked kernels, and a background epoch driver runs
//!   each shard's cost-benefit selection outside the shard lock.
//!
//! # Observability
//!
//! [`NucacheKernel::set_telemetry`] buffers an [`EpochSummary`] per
//! selection epoch (chosen classes, objective values, per-class
//! Next-Use quantiles); [`NucacheKernel::enable_audit`] turns on a
//! differential oracle that replays every `get`, `put` and `remove` into
//! a textbook model of the replacement (per set, the MainWays in LRU
//! order and the DeliWays in FIFO order) and checks epoch invariants,
//! panicking at the first divergence.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(feature = "std"), no_std)]

extern crate alloc;
// Unit tests always link std; the property tests' harness needs its
// macros and paths in the `no_std + alloc` build too.
#[cfg(all(test, not(feature = "std")))]
#[macro_use]
extern crate std;

pub mod class;
#[cfg(feature = "concurrent")]
pub mod concurrent;
pub mod config;
mod index;
pub mod kernel;
mod model;
pub mod monitor;
pub mod selector;
pub mod tracker;

pub use class::InsertionClass;
pub use config::{
    ConfigError, KernelConfig, SelectionStrategy, DEFAULT_DELI_WAYS, DEFAULT_EPOCH_LEN,
    DEFAULT_MONITOR_DEPTH, DEFAULT_MONITOR_SHIFT, DEFAULT_SETS, DEFAULT_WAYS, HISTOGRAM_BUCKETS,
    MAX_CANDIDATES,
};
pub use kernel::{
    ClassSnapshot, EpochInputs, EpochSummary, Evicted, Lookup, NucacheKernel, Region,
};
pub use monitor::NextUseMonitor;
pub use selector::{select_classes, Candidate, Selection};
pub use tracker::DelinquentTracker;
