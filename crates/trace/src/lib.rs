//! Synthetic PC-attributed workload generation for the NUcache
//! reproduction.
//!
//! The paper evaluates on SPEC CPU binaries run through a cycle-accurate
//! simulator. Those binaries and traces are not redistributable, so this
//! crate builds the closest synthetic equivalent: each workload is a set
//! of *sites* (static instructions, i.e. PCs) with archetypal memory
//! behaviours — streaming, cyclic loops, uniform random, pointer chasing —
//! over disjoint address regions, mixed by weight, with a configurable
//! density of non-memory instructions between accesses.
//!
//! What matters to NUcache and the partitioning baselines is exactly what
//! these generators control: which PCs produce the misses, how each PC's
//! reuse (Next-Use) distances cluster, how working sets compare to the
//! LLC, and how memory-intensive each co-runner is. See `DESIGN.md` §3
//! for the substitution argument.
//!
//! # Examples
//!
//! ```
//! use nucache_trace::{SpecWorkload, TraceGen};
//! use nucache_common::CoreId;
//!
//! let spec = SpecWorkload::SphinxLike.spec();
//! let mut gen = TraceGen::new(&spec, CoreId::new(0), 42);
//! let first = gen.next().unwrap();
//! assert_eq!(first.core, CoreId::new(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod mix;
pub mod spec;
pub mod stats;
pub mod workload;

pub use gen::{TraceGen, BLOCK_BITS, BLOCK_BYTES, TRACE_BLOCK};
pub use mix::{Mix, MixBuilder};
pub use spec::SpecWorkload;
pub use stats::TraceSummary;
pub use workload::{Behavior, Phase, SiteSpec, WorkloadSpec};
