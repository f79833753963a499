//! Load generation for the NUcache reproduction.
//!
//! * [`loadgen`] — the closed-loop threaded load generator driving the
//!   concurrent sharded front-end against a lock-striped LRU baseline.
//!   The `loadgen` binary runs it (CI's fault-injection smoke), and
//!   perfbench's `serve_rw` workload sizes its front-end from
//!   [`loadgen::LoadgenConfig`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::disallowed_types, reason = "a load generator measures wall time")]

pub mod loadgen;
