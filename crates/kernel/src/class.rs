//! Insertion classes: the caller-defined generalization of the paper's
//! "delinquent PC".
//!
//! NUcache retains evicted lines in the DeliWays when they were inserted
//! by one of the currently *chosen* classes; other classes' evictions
//! only borrow the room those leave idle, as guests that leave first
//! ([`DeliAdmission::Guests`](crate::DeliAdmission::Guests)). Inside the
//! simulator the class of a fill is the program counter of the missing
//! load; an embedding application instead supplies any stable label
//! whose members share a reuse pattern. See the type-level docs for a
//! classification guide.

use core::fmt;

/// An opaque insertion-class tag supplied by the caller on every
/// [`get`](crate::NucacheKernel::get) and
/// [`put`](crate::NucacheKernel::put).
///
/// The class plays the role of the delinquent PC in the original
/// hardware design: the kernel tracks misses, fills and Next-Use
/// distances *per class*, and each epoch chooses the subset of classes
/// whose evicted entries are worth keeping around in the DeliWays.
/// Classes are never interpreted — only counted, compared and grouped —
/// so any `u64` encoding works.
///
/// # Choosing a classification
///
/// The mechanism works when a class groups entries with a *shared reuse
/// pattern*: either its entries tend to be re-requested shortly after
/// eviction (worth retaining) or they do not (worth bypassing). Good
/// classifications in a serving context:
///
/// * **Per tenant** — multi-tenant caches where each tenant's traffic
///   has its own temporal locality: `InsertionClass::new(tenant_id)`.
///   A scanning tenant stops polluting the retention space of a looping
///   tenant.
/// * **Per endpoint / query template** — requests produced by the same
///   handler or prepared statement usually touch their working set the
///   same way: `InsertionClass::new(hash(endpoint_name))`.
/// * **Per object type** — e.g. thumbnails vs. session blobs vs. feed
///   entries in a CDN or object cache: `InsertionClass::new(type_tag)`.
///
/// Poor classifications defeat the selection: one class for everything
/// (nothing to discriminate), or a unique class per key (no class
/// accumulates enough Next-Use evidence before it decays). Under the
/// default guest admission such a cache still serves about like an LRU
/// cache of all its ways, not of its MainWays alone.
///
/// # Examples
///
/// ```
/// use nucache_kernel::InsertionClass;
///
/// let tenant_7 = InsertionClass::new(7);
/// assert_eq!(tenant_7.raw(), 7);
/// assert_eq!(InsertionClass::from(7u64), tenant_7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InsertionClass(u64);

impl InsertionClass {
    /// Wraps a raw class tag.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        InsertionClass(raw)
    }

    /// The raw tag value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl From<u64> for InsertionClass {
    fn from(raw: u64) -> Self {
        InsertionClass(raw)
    }
}

impl fmt::Display for InsertionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::format;

    #[test]
    fn round_trips_and_orders() {
        let a = InsertionClass::new(3);
        let b = InsertionClass::from(9u64);
        assert!(a < b);
        assert_eq!(b.raw(), 9);
        assert_eq!(format!("{a}"), "class:0x3");
    }
}
