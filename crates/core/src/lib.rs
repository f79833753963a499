//! NUcache: an efficient multicore cache organization based on Next-Use
//! distance (Manikantan, Rajan & Govindarajan, HPCA 2011) — the paper's
//! primary contribution, implemented from scratch.
//!
//! # The mechanism
//!
//! NUcache logically partitions the ways of each LLC set into **MainWays**
//! and **DeliWays**. All lines are inserted into the MainWays under LRU;
//! when a line allocated by one of the currently *chosen* delinquent PCs
//! is evicted from the MainWays, it is moved into the DeliWays (managed
//! FIFO) instead of leaving the cache, buying it an extra lifetime of
//! roughly `DeliWays / fill-rate` set-accesses. Lookups search both
//! regions.
//!
//! The chosen set of PCs is recomputed every epoch by a cost-benefit
//! analysis over **Next-Use distances**: a sampled monitor records, per
//! delinquent PC, a histogram of the number of set-accesses between a
//! line's MainWays eviction and its next request. Selecting a PC adds its
//! histogram mass within the extra lifetime (benefit) but raises the
//! combined DeliWays fill rate, shortening that lifetime for every chosen
//! PC (cost). A greedy pass — or, for ablation, exhaustive search —
//! maximizes expected DeliWays hits.
//!
//! # Epoch data flow: monitor → selector → DeliWays
//!
//! ```text
//!  demand accesses
//!        │
//!        ▼
//!  DelinquentTracker            per-PC miss/fill counters
//!        │ top-K delinquent PCs
//!        ▼
//!  NextUseMonitor (sampled)     histograms of set-accesses between
//!        │                      MainWays eviction and next request
//!        ▼  every epoch_len LLC accesses
//!  select_classes               cost-benefit over the histograms
//!        │ chosen PC set
//!        ▼
//!  MainWays eviction ──(allocated by a chosen PC?)──▶ DeliWays (FIFO)
//! ```
//!
//! Each epoch ends with a selection pass, then the tracker and monitor
//! decay so the next epoch reflects recent behaviour. With telemetry
//! enabled ([`nucache_cache::SharedLlc::set_telemetry`]) the
//! organization buffers one `selection_epoch` event per epoch — chosen
//! set, expected hits, DeliWays occupancy and hit/fill counters, and
//! histogram quantiles of the top PCs, snapshotted exactly as the
//! selector saw them (before the decays) — for the simulation driver to
//! drain into its event sink.
//!
//! # Crate layout
//!
//! The mechanism itself lives in the embeddable [`nucache_kernel`]
//! crate (`no_std + alloc` capable, generic over the insertion class):
//! the delinquency tracker, the Next-Use monitor, the selector and the
//! MainWays/DeliWays arrays. This crate instantiates it for the
//! simulator — class = [`Pc`](nucache_common::Pc), key = raw
//! [`LineAddr`](nucache_common::LineAddr) — and keeps the
//! simulator-specific surface:
//!
//! * [`KernelConfig`] and [`SelectionStrategy`], re-exported from the
//!   kernel with its paper-faithful defaults, configure a [`NuCache`];
//!   the cache geometry supplies the kernel's `sets` and `ways`;
//! * [`NuCache`] — the thin adapter implementing
//!   [`nucache_cache::SharedLlc`] over
//!   [`nucache_kernel::NucacheKernel`]: per-core stats, write-back
//!   accounting, telemetry event conversion;
//! * [`overhead`] — hardware storage-cost model for the overhead table.
//!
//! # Examples
//!
//! ```
//! use nucache_cache::{CacheGeometry, SharedLlc};
//! use nucache_core::{KernelConfig, NuCache};
//! use nucache_common::{AccessKind, CoreId, LineAddr, Pc};
//!
//! let geom = CacheGeometry::new(1024 * 1024, 16, 64);
//! let mut llc = NuCache::new(geom, 2, KernelConfig::default());
//! llc.access(CoreId::new(0), Pc::new(0x400), LineAddr::new(1), AccessKind::Read);
//! assert_eq!(llc.stats().misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod llc;
pub mod overhead;

pub use llc::NuCache;
pub use nucache_kernel::{KernelConfig, SelectionStrategy, MAX_CANDIDATES, MONITOR_DEPTH};
