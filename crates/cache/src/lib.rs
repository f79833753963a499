//! Set-associative cache substrate for the NUcache reproduction.
//!
//! This crate provides everything a last-level-cache study needs below the
//! policy-innovation layer:
//!
//! * [`CacheGeometry`] — size/associativity/block-size arithmetic;
//! * [`SetArray`] — raw tag storage with lookup/fill/invalidate helpers;
//! * [`ReplacementPolicy`] and the implementations the schemes run (LRU,
//!   DIP, DRRIP, SHiP-PC, TADIP-F);
//! * [`BasicCache`] — a policy-driven set-associative cache used for the
//!   classic shared-LLC baselines;
//! * set-dueling machinery for DIP and DRRIP;
//! * sampled shadow tag directories and UCP's UMON utility monitor
//!   ([`shadow`]);
//! * a private L1/L2 [`hierarchy::PrivateHierarchy`] that filters the
//!   access stream reaching the shared LLC;
//! * the [`SharedLlc`] trait that every shared-LLC organization in the
//!   workspace (classic, UCP, PIPP, TADIP, NUcache) implements;
//! * Belady's offline-optimal replacement ([`opt`]) for headroom
//!   analysis.
//!
//! # Examples
//!
//! ```
//! use nucache_cache::{BasicCache, CacheGeometry, policy::Lru};
//! use nucache_common::{AccessKind, CoreId, LineAddr, Pc};
//!
//! let geom = CacheGeometry::new(32 * 1024, 8, 64);
//! let mut l1 = BasicCache::new(geom, Lru::new(&geom));
//! let line = LineAddr::new(0x40);
//! assert!(!l1.access(line, AccessKind::Read, CoreId::new(0), Pc::new(0)).is_hit());
//! assert!(l1.access(line, AccessKind::Read, CoreId::new(0), Pc::new(0)).is_hit());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod audit;
mod basic;
pub mod config;
mod dueling;
pub mod hierarchy;
pub mod llc;
pub mod meta;
pub mod opt;
pub mod policy;
pub mod shadow;

pub use array::SetArray;
pub use audit::AuditStats;
pub use basic::BasicCache;
pub use config::CacheGeometry;
pub use llc::{ClassicLlc, SharedLlc};
pub use meta::{AccessOutcome, EvictedLine, LineMeta};
pub use policy::ReplacementPolicy;
