//! Replacement policies for [`BasicCache`](crate::BasicCache).
//!
//! A policy keeps its per-way ordering state in the set's policy byte
//! row, which [`SetArray`](crate::SetArray) stores beside the set's masks
//! and hands to every callback: LRU, DIP and TADIP-F keep 8-bit recency
//! ranks there (moved with the rank ops of [`nucache_common::tags`]),
//! DRRIP and SHiP-PC their RRPVs. Per-cache state (dueling selectors,
//! RNGs, SHiP's signature table) stays in the policy. A policy reacts to
//! the events the cache reports: hit, fill, miss-without-fill-yet and
//! invalidation. The cache itself handles the mechanics of tag match
//! and prefers invalid ways on fills; a policy is only consulted for a
//! victim when the set is full, so the byte of an invalid way is never
//! read before a fill rewrites it.
//!
//! Implemented policies:
//!
//! | Policy | Module | Origin |
//! |---|---|---|
//! | LRU | [`lru`] | classic |
//! | DIP (duels LRU against BIP) | [`dip`] | Qureshi et al., ISCA 2007 |
//! | DRRIP (duels SRRIP against BRRIP) | [`Drrip`] | Jaleel et al., ISCA 2010 |
//! | SHiP-PC | [`ship`] | Wu et al., MICRO 2011 (post-dates NUcache; extra comparison point) |
//! | TADIP-F | [`tadip`] | Jaleel et al., PACT 2008 |

pub mod dip;
pub mod lru;
mod rrip;
pub mod ship;
pub mod tadip;

pub use dip::Dip;
pub use lru::Lru;
pub use rrip::Drrip;
pub use ship::ShipPc;
pub use tadip::TadipF;

use nucache_common::{CoreId, Pc};

/// Context a policy receives when a line is filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillCtx {
    /// Core whose miss triggered the fill.
    pub core: CoreId,
    /// PC whose miss triggered the fill.
    pub pc: Pc,
}

impl FillCtx {
    /// Creates a fill context.
    pub const fn new(core: CoreId, pc: Pc) -> Self {
        FillCtx { core, pc }
    }
}

/// A cache replacement policy.
///
/// Implementations are constructed against a concrete
/// [`CacheGeometry`](crate::CacheGeometry). Every callback about a set
/// receives that set's policy row, one byte per way in way order, which
/// starts as the identity permutation (way `w` at rank `w`). All methods
/// take `set`/`way` indices that the caller guarantees in range.
pub trait ReplacementPolicy {
    /// Called on every demand hit at `(set, way)`.
    fn on_hit(&mut self, set: usize, way: usize, row: &mut [u8]);

    /// Called when a line is installed at `(set, way)`.
    fn on_fill(&mut self, set: usize, way: usize, ctx: &FillCtx, row: &mut [u8]);

    /// Called on every demand miss to `set` (before the fill), so
    /// dueling-based policies can update their selectors.
    fn on_miss(&mut self, _set: usize, _ctx: &FillCtx) {}

    /// Chooses the way to evict from a full `set`.
    fn victim(&mut self, set: usize, row: &mut [u8]) -> usize;

    /// Called when an external actor invalidates `(set, way)`.
    fn on_invalidate(&mut self, _set: usize, _way: usize, _row: &mut [u8]) {}

    /// Short human-readable policy name (e.g. `"lru"`, `"drrip"`).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared harness for exercising policies through a tiny cache.

    use super::*;
    use crate::basic::BasicCache;
    use crate::config::CacheGeometry;
    use nucache_common::{AccessKind, LineAddr};

    /// 1-set geometry with the given associativity (64B blocks).
    pub(crate) fn one_set(assoc: usize) -> CacheGeometry {
        CacheGeometry::new(64 * assoc as u64, assoc, 64)
    }

    /// Accesses line number `n` (sets are ignored: single-set geometry).
    pub(crate) fn touch<P: ReplacementPolicy>(cache: &mut BasicCache<P>, n: u64) -> bool {
        cache.access(LineAddr::new(n), AccessKind::Read, CoreId::new(0), Pc::new(n)).is_hit()
    }
}
