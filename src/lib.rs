//! Umbrella crate for the NUcache reproduction workspace.
//!
//! Re-exports the workspace crates under one roof so examples and
//! downstream users can depend on a single package:
//!
//! * [`common`] — addresses, PCs, histograms, counters, RNG, tables;
//! * [`trace`] — synthetic PC-attributed workload generators and mixes;
//! * [`cache`] — the set-associative substrate and replacement policies;
//! * [`partition`] — UCP, PIPP and the insertion-policy baselines;
//! * [`core`] — NUcache itself (MainWays/DeliWays, Next-Use monitor,
//!   cost-benefit PC selection);
//! * [`cpu`] — timing model and multiprogrammed metrics;
//! * [`sim`] — end-to-end multicore simulation driver.
//!
//! # Quickstart
//!
//! ```
//! use nucache_repro::sim::{Runner, Scheme, SimConfig};
//! use nucache_repro::trace::{Mix, SpecWorkload};
//!
//! let runner = Runner::new();
//! let mix = Mix::new("demo", vec![SpecWorkload::HmmerLike, SpecWorkload::GobmkLike]);
//! let schemes = [Scheme::Lru, Scheme::nucache_default()];
//! let grid = runner.evaluate_grid(&SimConfig::demo(), &[mix], &schemes);
//! let (lru, nuc) = (&grid[0][0].1, &grid[0][1].1);
//! assert!(nuc.weighted_speedup > 0.0 && lru.weighted_speedup > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nucache_cache as cache;
pub use nucache_common as common;
pub use nucache_core as core;
pub use nucache_cpu as cpu;
pub use nucache_partition as partition;
pub use nucache_sim as sim;
pub use nucache_trace as trace;
