//! Timing model and multiprogrammed-performance metrics.
//!
//! The evaluation reports *relative* numbers (speedups over a shared-LRU
//! baseline), which are driven by miss counts; a simple in-order model —
//! one cycle per instruction plus the latency of the level that served
//! each access — translates miss-rate differences into cycle counts
//! monotonically and is the standard choice for LLC-policy studies when
//! the full out-of-order machinery is out of scope (see DESIGN.md §3).
//!
//! # Examples
//!
//! ```
//! use nucache_cpu::{CoreClock, ServiceLevel, LLC_HIT_LATENCY};
//!
//! let mut clock = CoreClock::new();
//! clock.charge(4, ServiceLevel::LlcHit.latency()); // 4-instr gap + LLC hit
//! assert_eq!(clock.instructions(), 5);
//! assert_eq!(clock.cycles(), 4 + u64::from(LLC_HIT_LATENCY));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
mod timing;

pub use metrics::MultiProgramMetrics;
pub use timing::{
    CoreClock, ServiceLevel, L1_HIT_LATENCY, L2_HIT_LATENCY, LLC_HIT_LATENCY, MEMORY_LATENCY,
};
