//! Shared-LLC baseline managers for the NUcache reproduction.
//!
//! NUcache's evaluation compares against the well-known cache-partitioning
//! schemes of its era. This crate implements them on top of the
//! `nucache-cache` substrate:
//!
//! * [`UcpLlc`] — Utility-based Cache Partitioning: per-core UMON shadow
//!   monitors feed the lookahead algorithm, and the resulting way quotas
//!   are enforced at victim-selection time.
//! * [`PippLlc`] — Promotion/Insertion Pseudo-Partitioning: the same
//!   utility targets enforced softly through per-core insertion positions
//!   and probabilistic single-step promotion.
//! * TADIP-F and the plain LRU baseline, available through
//!   [`baselines`]'s constructors (they are thin wrappers over the cache
//!   crate's policy machinery).
//! * [`lookahead_partition`] — the marginal-utility partitioning algorithm itself,
//!   exposed separately so tests and experiments can probe it directly.
//!
//! # Examples
//!
//! ```
//! use nucache_cache::{CacheGeometry, SharedLlc};
//! use nucache_partition::UcpLlc;
//! use nucache_common::{AccessKind, CoreId, LineAddr, Pc};
//!
//! let geom = CacheGeometry::new(1024 * 1024, 16, 64);
//! let mut llc = UcpLlc::new(geom, 2, 100_000);
//! llc.access(CoreId::new(0), Pc::new(1), LineAddr::new(7), AccessKind::Read);
//! assert_eq!(llc.stats().misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod lookahead;
pub mod pipp;
pub mod ucp;

pub use lookahead::lookahead_partition;
pub use pipp::PippLlc;
pub use ucp::UcpLlc;
