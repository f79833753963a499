//! Common foundation types for the NUcache reproduction.
//!
//! This crate holds the vocabulary shared by every other crate in the
//! workspace: strongly-typed addresses and program counters, access
//! records, geometric histograms (used by the Next-Use monitor), counter
//! bundles, a deterministic seeded RNG wrapper, small text-table /
//! CSV reporting helpers used by the experiment binaries, the
//! epoch-level [`telemetry`] event model (with its dependency-free
//! [`json`] substrate) that the simulator's JSONL streams and run
//! manifests are built on, the seeded [`fault`]-injection plan the
//! pipeline's fault-tolerance paths are exercised with, and the
//! whole-row [`tags`] compare every set-associative probe uses.
//!
//! # Examples
//!
//! ```
//! use nucache_common::{Access, AccessKind, Addr, CoreId, Pc};
//!
//! let a = Access::new(CoreId::new(0), Pc::new(0x400_1000), Addr::new(0x8000), AccessKind::Read);
//! assert_eq!(a.addr.line(6).0, 0x8000 >> 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(feature = "std"), no_std)]

extern crate alloc;

pub mod access;
pub mod addr;
#[cfg(feature = "std")]
pub mod fault;
pub mod histogram;
#[cfg(any(test, feature = "interleave"))]
#[cfg(feature = "std")]
pub mod interleave;
#[cfg(feature = "std")]
pub mod json;
pub mod rng;
pub mod stats;
#[cfg(feature = "std")]
pub mod table;
pub mod tags;
#[cfg(feature = "std")]
pub mod telemetry;

pub use access::{Access, AccessKind};
pub use addr::{Addr, CoreId, LineAddr, Pc};
#[cfg(feature = "std")]
pub use fault::{active_fault_plan, set_fault_plan, FaultPlan, FaultSite};
pub use histogram::Log2Histogram;
#[cfg(feature = "std")]
pub use json::JsonValue;
pub use rng::{mix64, DetRng, FastRange};
pub use stats::CacheStats;
#[cfg(feature = "std")]
pub use telemetry::{CounterSink, Event, EventSink, JsonlSink, NullSink};
