//! Workspace analyses for the NUcache workspace that stock `rustc` and
//! `clippy` lints cannot express.
//!
//! The per-file rules — determinism (no `HashMap`/`HashSet`, no wall
//! clock in simulator code), unwrap/expect, truncating casts and
//! `unsafe` — are clippy and rustc lints configured in the workspace
//! `Cargo.toml` and `clippy.toml`; feature-gate consistency is checked by
//! compiling each feature configuration. See `DESIGN.md` §9.1.
//!
//! What remains here needs the whole workspace at once: a lexical
//! [symbol index](symbols), name-based [reference resolution](resolve)
//! and three [semantic lints](semantic) (`counter-dataflow`,
//! `doc-constant-drift`, `dead-cross-crate-pub`).
//! A finding can be suppressed at the site with a justification comment
//! on the same line or the line above:
//!
//! ```text
//! // nucache-audit: allow(counter-dataflow) -- read by the report binary
//! ```
//!
//! The scanner is a self-contained lexer — no external dependencies — so
//! the audit builds and runs offline even when the simulator crates
//! themselves are broken. See `DESIGN.md` §10 for the analysis model.
//!
//! The flow-aware layer ([mod@cfg], [effects], [hotpath]) builds per-function
//! control-flow graphs, infers an `alloc`/`panic`/`lock`/`io` effect set
//! per function through the workspace call graph, and gates the kernel's
//! hot-path contracts (`alloc-in-hot-path`, `panic-in-hot-path`,
//! `lock-held-across-call`) against a per-site justification file. See
//! `DESIGN.md` §14.
//!
//! The concurrency-soundness layer ([locks], [atomics]) resolves every
//! `Mutex`/`RwLock` guard and atomic op to a concrete lock identity,
//! builds the workspace lock-acquisition-order graph, and gates
//! `lock-order-cycle`, `double-lock`, `guard-escapes-hot-path` and
//! `atomic-ordering` against the shared `crates/audit/concurrency.txt`
//! ledger. See `DESIGN.md` §15.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomics;
pub mod cfg;
pub mod diag;
pub mod effects;
pub mod hotpath;
pub mod lexer;
pub mod locks;
pub mod manifest;
pub mod resolve;
pub mod semantic;
pub mod symbols;
pub mod walk;

pub use atomics::{run_atomic_lints, ATOMIC_LINTS};
pub use cfg::{build_cfg, fn_spans, Cfg, FnSpan};
pub use diag::{Diagnostic, Severity};
pub use effects::{EffectModel, EffectSet, FnInfo};
pub use hotpath::{run_effect_lints, Justifications, EFFECT_LINTS, STUB_REASON};
pub use lexer::ScannedFile;
pub use locks::{run_lock_lints, CONCURRENCY_LEDGER, LOCK_LINTS};
pub use resolve::Workspace;
pub use semantic::{dead_pub::Baseline, run_semantic_lints, SEMANTIC_LINTS};
pub use symbols::{SymbolIndex, SymbolKind, Visibility};
pub use walk::{classify, collect_rs_files, FileClass};
