//! The multicore simulation driver.
//!
//! Each core owns a trace generator, a private L1/L2 stack and a cycle
//! clock. Cores are interleaved in global-cycle order (the core with the
//! smallest elapsed cycle count issues next), so LLC contention follows
//! each application's actual memory intensity: a stalled core naturally
//! issues fewer LLC accesses per unit time.
//!
//! Runs proceed in two stages: a warm-up of `warmup_accesses` per core
//! (after which all statistics and clocks are reset while cache contents
//! and learned policy state are kept), then measurement until every core
//! has issued `measure_accesses`. A core reaching its quota freezes its
//! metrics but keeps running so the remaining cores still see contention.

use crate::config::SimConfig;
use crate::scheme::{build_nucache, with_built, Scheme};
use crate::telemetry::DEFAULT_SNAPSHOT_INTERVAL;
use nucache_cache::hierarchy::{PrivateHierarchy, PrivateOutcome};
use nucache_cache::SharedLlc;
use nucache_common::telemetry::{Event, EventSink, NullSink, Stage};
use nucache_common::{Access, AccessKind, Addr, CacheStats, CoreId, Pc};
use nucache_cpu::{CoreClock, ServiceLevel};
use nucache_trace::{Mix, SpecWorkload, TraceGen, BLOCK_BITS, TRACE_BLOCK};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of core accesses issued by simulation stages, for
/// throughput reporting (accesses/sec) by experiment drivers.
static SIMULATED_ACCESSES: AtomicU64 = AtomicU64::new(0);

/// Returns the number of per-core accesses simulated since the last call
/// (all stages, all threads) and resets the counter.
pub fn take_simulated_accesses() -> u64 {
    SIMULATED_ACCESSES.swap(0, Ordering::Relaxed)
}

/// Per-core results of a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreResult {
    /// Workload the core ran.
    pub workload: String,
    /// Measured IPC (frozen at the access quota).
    pub ipc: f64,
    /// Instructions at the freeze point.
    pub instructions: u64,
    /// Cycles at the freeze point.
    pub cycles: u64,
    /// LLC counters attributed to this core (measurement window).
    pub llc: CacheStats,
    /// LLC misses per kilo-instruction.
    pub llc_mpki: f64,
}

/// Results of simulating one mix under one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Scheme name (as reported by the LLC itself).
    pub scheme: String,
    /// Mix name.
    pub mix: String,
    /// Per-core results.
    pub per_core: Vec<CoreResult>,
    /// Aggregate LLC counters (measurement window).
    pub llc_totals: CacheStats,
}

impl SimResult {
    /// Measured IPC vector, indexed by core.
    pub fn ipcs(&self) -> Vec<f64> {
        self.per_core.iter().map(|c| c.ipc).collect()
    }
}

struct CoreState {
    gen: TraceGen,
    /// Block buffer refilled via [`TraceGen::fill_block`]: the generator
    /// runs up to [`TRACE_BLOCK`] accesses ahead of consumption, which is
    /// interleave-safe because each core's stream depends only on its own
    /// `(spec, core, seed)`.
    buf: [Access; TRACE_BLOCK],
    /// Next unconsumed index into `buf` (`TRACE_BLOCK` when empty).
    buf_pos: usize,
    hierarchy: PrivateHierarchy,
    clock: CoreClock,
    accesses: u64,
    workload: String,
    /// Per-core LLC counters snapshotted when the core hits its quota, so
    /// post-quota contention running doesn't inflate its statistics.
    llc_snapshot: Option<CacheStats>,
}

impl CoreState {
    /// The next access of this core's stream, refilling the block buffer
    /// from the generator when it runs dry.
    #[inline(always)]
    fn next_access(&mut self) -> Access {
        if self.buf_pos == TRACE_BLOCK {
            self.gen.fill_block(&mut self.buf);
            self.buf_pos = 0;
        }
        let access = self.buf[self.buf_pos];
        self.buf_pos += 1;
        access
    }
}

/// Simulates `mix` on `config` under `scheme`.
///
/// Deterministic for a given `(config, mix, scheme)` triple.
///
/// # Panics
///
/// Panics if the mix's core count differs from the config's.
pub fn run_mix(config: &SimConfig, mix: &Mix, scheme: &Scheme) -> SimResult {
    // Build the LLC with its concrete type and run the loop inside the
    // variant match: every `llc.access` in the hot path statically
    // dispatches to this scheme's implementation. Results are
    // bit-identical to the `dyn` path (`tests/driver_equivalence.rs`).
    let mut llc = scheme.build_concrete(config.llc, config.num_cores, config.seed);
    let mut sink = NullSink;
    with_built!(&mut llc, l => run_mix_impl(config, mix, l, DEFAULT_SNAPSHOT_INTERVAL, &mut sink))
}

/// Simulates `mix` under `scheme` while streaming epoch-level telemetry
/// into `sink`: a `run_start` banner, periodic cumulative LLC counter
/// snapshots every `snapshot_interval` issued accesses, any
/// scheme-internal events (NUcache selection epochs), and a `run_end`
/// record with the frozen per-core results.
///
/// Telemetry is observation only — the returned [`SimResult`] is
/// bit-identical to [`run_mix`]'s for the same inputs (asserted by
/// `tests/telemetry_determinism.rs`).
///
/// # Panics
///
/// Panics if the mix's core count differs from the config's.
pub fn run_mix_telemetry(
    config: &SimConfig,
    mix: &Mix,
    scheme: &Scheme,
    snapshot_interval: u64,
    sink: &mut dyn EventSink,
) -> SimResult {
    let mut llc = scheme.build(config.llc, config.num_cores, config.seed);
    run_mix_on_sink(config, mix, llc.as_mut(), snapshot_interval, sink)
}

/// Simulates `mix` under `scheme` with the differential audit oracle
/// enabled: every tag-array operation (NUcache: every kernel `get`,
/// `put` and `remove`) is replayed into a reference model and
/// cross-checked, and organizations with epoch-level state (NUcache)
/// verify their epoch invariants as they run. Any divergence panics at
/// the faulting operation, so a `(result, stats)` return means the run
/// completed with zero divergences over `stats.array_ops` checked
/// operations.
///
/// The result is bit-identical to [`run_mix`]'s for the same inputs —
/// the oracle observes, it never steers.
///
/// # Panics
///
/// Panics if the mix's core count differs from the config's, or if the
/// oracle detects a divergence or invariant violation.
pub fn run_mix_audited(
    config: &SimConfig,
    mix: &Mix,
    scheme: &Scheme,
) -> (SimResult, nucache_cache::AuditStats) {
    let mut llc = scheme.build(config.llc, config.num_cores, config.seed);
    llc.set_audit(true);
    let result = run_mix_on(config, mix, llc.as_mut());
    let stats = llc.audit_stats().unwrap_or_default();
    (result, stats)
}

/// Simulates `mix` on a caller-provided LLC instance, so callers can
/// inspect scheme-specific internals (monitors, chosen PCs, …) after the
/// run.
///
/// # Panics
///
/// Panics if the mix's core count differs from the config's.
pub fn run_mix_on(config: &SimConfig, mix: &Mix, llc: &mut dyn SharedLlc) -> SimResult {
    let mut sink = NullSink;
    run_mix_on_sink(config, mix, llc, DEFAULT_SNAPSHOT_INTERVAL, &mut sink)
}

/// [`run_mix_on`] with an explicit telemetry sink (the general form the
/// other entry points delegate to).
///
/// # Panics
///
/// Panics if the mix's core count differs from the config's, or
/// `snapshot_interval` is zero while the sink is enabled.
pub(crate) fn run_mix_on_sink(
    config: &SimConfig,
    mix: &Mix,
    llc: &mut dyn SharedLlc,
    snapshot_interval: u64,
    sink: &mut dyn EventSink,
) -> SimResult {
    run_mix_impl(config, mix, llc, snapshot_interval, sink)
}

/// The simulation loop, generic over the LLC's type: `dyn SharedLlc`
/// entry points instantiate it once with dynamic dispatch, while
/// [`run_mix`] instantiates it per concrete organization so the per-access
/// LLC calls are static and inlinable.
fn run_mix_impl<L: SharedLlc + ?Sized>(
    config: &SimConfig,
    mix: &Mix,
    llc: &mut L,
    snapshot_interval: u64,
    sink: &mut dyn EventSink,
) -> SimResult {
    assert_eq!(mix.num_cores(), config.num_cores, "mix/config core-count mismatch");
    config.validate();
    let telemetry = sink.is_enabled();
    if telemetry {
        assert!(snapshot_interval > 0, "snapshot_interval must be positive with telemetry on");
        llc.set_telemetry(true);
        sink.record_event(&Event::RunStart {
            mix: mix.name().to_string(),
            scheme: llc.scheme_name(),
            cores: config.num_cores as u64,
            seed: config.seed,
        });
    }
    #[expect(clippy::cast_possible_truncation, reason = "mixes run at most 8 cores")]
    let mut cores: Vec<CoreState> = mix
        .workloads()
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let core = CoreId::new(i as u8);
            CoreState {
                gen: TraceGen::new(&w.spec(), core, config.seed),
                buf: [Access::new(core, Pc::new(0), Addr::new(0), AccessKind::Read); TRACE_BLOCK],
                buf_pos: TRACE_BLOCK,
                hierarchy: PrivateHierarchy::new(core, config.l1, config.l2),
                clock: CoreClock::new(),
                accesses: 0,
                workload: w.name().to_string(),
                llc_snapshot: None,
            }
        })
        .collect();

    // Warm-up stage. The telemetry branch is decided once out here, so
    // the no-telemetry instantiation runs with the zero-sized [`NoTele`]
    // hook (no per-access check at all).
    if telemetry {
        let mut ctx = TeleCtx::new(&mut *sink, Stage::Warmup, snapshot_interval);
        run_until(&mut cores, llc, config.warmup_accesses, false, &mut ctx);
    } else {
        run_until(&mut cores, llc, config.warmup_accesses, false, &mut NoTele);
    }
    let warmup_issued: u64 = cores.iter().map(|c| c.accesses).sum();
    llc.reset_stats();
    for c in &mut cores {
        c.clock.reset();
        c.accesses = 0;
    }

    // Measurement stage.
    if telemetry {
        let mut ctx = TeleCtx::new(&mut *sink, Stage::Measure, snapshot_interval);
        run_until(&mut cores, llc, config.measure_accesses, true, &mut ctx);
    } else {
        run_until(&mut cores, llc, config.measure_accesses, true, &mut NoTele);
    }
    let measured_issued: u64 = cores.iter().map(|c| c.accesses).sum();
    SIMULATED_ACCESSES.fetch_add(warmup_issued + measured_issued, Ordering::Relaxed);

    let per_core: Vec<CoreResult> = cores
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let llc_stats = c.llc_snapshot.unwrap_or(llc.core_stats()[i]);
            let instructions = c.clock.measured_instructions();
            CoreResult {
                workload: c.workload.clone(),
                ipc: c.clock.measured_ipc(),
                instructions,
                cycles: c.clock.measured_cycles(),
                llc: llc_stats,
                llc_mpki: llc_stats.mpki(instructions),
            }
        })
        .collect();
    let result = SimResult {
        scheme: llc.scheme_name(),
        mix: mix.name().to_string(),
        per_core,
        llc_totals: *llc.stats(),
    };
    if telemetry {
        sink.record_event(&Event::RunEnd {
            scheme: result.scheme.clone(),
            ipcs: result.ipcs(),
            per_core: result.per_core.iter().map(|c| c.llc).collect(),
            totals: result.llc_totals,
        });
        llc.set_telemetry(false);
    }
    result
}

/// Per-stage telemetry bookkeeping threaded through [`run_until`]: counts
/// issued accesses, snapshots cumulative LLC counters every `interval`,
/// and forwards scheme-internal events (drained from the LLC) in stream
/// order ahead of each snapshot.
///
/// Telemetry is observation-only, so a failing sink degrades instead of
/// aborting the simulation: the first [`EventSink::try_record`] error
/// sets `lost` and all later events for this stage are skipped (not even
/// constructed). The owner of the sink surfaces the error — for
/// runner-managed JSONL streams that happens at `finish()`, which also
/// notes the degradation in the run manifest.
struct TeleCtx<'a> {
    sink: &'a mut dyn EventSink,
    stage: Stage,
    interval: u64,
    issued: u64,
    epochs: u64,
    lost: bool,
}

impl<'a> TeleCtx<'a> {
    fn new(sink: &'a mut dyn EventSink, stage: Stage, interval: u64) -> Self {
        TeleCtx { sink, stage, interval, issued: 0, epochs: 0, lost: false }
    }

    /// Records one event, degrading to a no-op after the first sink
    /// error.
    fn emit(&mut self, event: &Event) {
        if self.lost {
            return;
        }
        if self.sink.try_record(event).is_err() {
            self.lost = true;
        }
    }

    /// Emits buffered scheme events followed by one cumulative counter
    /// snapshot for the current stage.
    fn snapshot<L: SharedLlc + ?Sized>(&mut self, llc: &mut L) {
        for e in llc.drain_events() {
            self.emit(&e);
        }
        self.emit(&Event::LlcEpoch {
            stage: self.stage,
            index: self.epochs,
            accesses: self.issued,
            per_core: llc.core_stats().to_vec(),
            totals: *llc.stats(),
        });
        self.epochs += 1;
    }

    /// Called once per issued core access; snapshots on interval
    /// boundaries.
    fn on_access<L: SharedLlc + ?Sized>(&mut self, llc: &mut L) {
        self.issued += 1;
        if self.issued.is_multiple_of(self.interval) {
            self.snapshot(llc);
        }
    }

    /// Stage teardown: a final partial-epoch snapshot (when accesses were
    /// issued since the last boundary), plus a drain so late scheme
    /// events are never lost.
    fn finish<L: SharedLlc + ?Sized>(&mut self, llc: &mut L) {
        if !self.issued.is_multiple_of(self.interval) {
            self.snapshot(llc);
        } else {
            for e in llc.drain_events() {
                self.emit(&e);
            }
        }
    }
}

/// Compile-time telemetry dispatch for the hot loop. [`run_until`] is
/// generic over this hook: the telemetry instantiation threads a
/// [`TeleCtx`] through, while the common no-telemetry instantiation uses
/// [`NoTele`], whose empty callbacks vanish under monomorphization —
/// no per-access `Option` check survives in the emitted loop.
trait TeleHook {
    /// Called once per issued core access.
    fn on_access<L: SharedLlc + ?Sized>(&mut self, llc: &mut L);
    /// Called once when the stage completes.
    fn finish<L: SharedLlc + ?Sized>(&mut self, llc: &mut L);
}

/// The telemetry-off hook: both callbacks compile to nothing.
struct NoTele;

impl TeleHook for NoTele {
    #[inline(always)]
    fn on_access<L: SharedLlc + ?Sized>(&mut self, _llc: &mut L) {}
    #[inline(always)]
    fn finish<L: SharedLlc + ?Sized>(&mut self, _llc: &mut L) {}
}

impl TeleHook for TeleCtx<'_> {
    #[inline]
    fn on_access<L: SharedLlc + ?Sized>(&mut self, llc: &mut L) {
        TeleCtx::on_access(self, llc);
    }
    #[inline]
    fn finish<L: SharedLlc + ?Sized>(&mut self, llc: &mut L) {
        TeleCtx::finish(self, llc);
    }
}

/// Issues one access for `core`: drains the trace buffer, walks the
/// private hierarchy, touches the shared LLC on an L2 miss, and charges
/// the core clock. The single place the per-access work is defined —
/// both scheduler paths of [`run_until`] call it.
#[inline(always)]
fn step_core<L: SharedLlc + ?Sized, T: TeleHook>(core: &mut CoreState, llc: &mut L, tele: &mut T) {
    let access = core.next_access();
    let line = access.addr.line(BLOCK_BITS);
    let level = match core.hierarchy.access(access.pc, line, access.kind) {
        PrivateOutcome::L1Hit => ServiceLevel::L1Hit,
        PrivateOutcome::L2Hit => ServiceLevel::L2Hit,
        PrivateOutcome::LlcAccess { writeback } => {
            if let Some(wb) = writeback {
                // Write-backs update the LLC copy but are not demand
                // accesses; charge no latency (write buffers hide it).
                llc.access(access.core, access.pc, wb, AccessKind::Write);
            }
            let out = llc.access(access.core, access.pc, line, access.kind);
            if out.is_hit() {
                ServiceLevel::LlcHit
            } else {
                ServiceLevel::Memory
            }
        }
    };
    // Overlapped misses (MLP) see a fraction of the raw latency;
    // private hits are latency-bound regardless. MLP degrees from the
    // trace model are powers of two, so the division is a shift on that
    // path — the quotient is identical either way.
    let raw = level.latency();
    let effective = match level {
        ServiceLevel::L1Hit | ServiceLevel::L2Hit => raw,
        ServiceLevel::LlcHit | ServiceLevel::Memory => {
            let mlp = access.mlp as u32;
            let scaled =
                if mlp.is_power_of_two() { raw >> mlp.trailing_zeros() } else { raw / mlp };
            scaled.max(1)
        }
    };
    core.clock.charge(access.gap, effective);
    core.accesses += 1;
    tele.on_access(llc);
}

/// Advances all cores until each has issued `target` accesses in this
/// stage. With `freeze`, each core's clock freezes as it crosses the
/// target (measurement); without, the stage just runs (warm-up).
///
/// Scheduling: the least-advanced core (smallest `(cycles, index)`)
/// issues next. A flat min-scan over the core clocks replaces the old
/// `BinaryHeap` — at simulated core counts (≤16) the scan is
/// branch-predictable, allocation-free, and picks the same lexicographic
/// minimum the heap's `Reverse<(u64, usize)>` ordering did, so the
/// interleave (and therefore every result) is unchanged. Solo runs skip
/// the scheduler entirely.
fn run_until<L: SharedLlc + ?Sized, T: TeleHook>(
    cores: &mut [CoreState],
    llc: &mut L,
    target: u64,
    freeze: bool,
    tele: &mut T,
) {
    if target == 0 {
        return;
    }
    if let [core] = cores {
        // Single-core fast path (solo normalization baselines, a large
        // share of `run_all` jobs): no scheduling decision at all.
        if core.accesses < target {
            while core.accesses < target {
                step_core(core, llc, tele);
            }
            if freeze {
                core.clock.freeze();
                core.llc_snapshot = Some(llc.core_stats()[0]);
            }
        }
        tele.finish(llc);
        return;
    }
    let mut remaining = cores.len() - cores.iter().filter(|c| c.accesses >= target).count();
    while remaining > 0 {
        let mut i = 0;
        let mut best = cores[0].clock.cycles();
        for (j, c) in cores.iter().enumerate().skip(1) {
            let cycles = c.clock.cycles();
            if cycles < best {
                best = cycles;
                i = j;
            }
        }
        let core = &mut cores[i];
        step_core(core, llc, tele);
        if core.accesses == target {
            if freeze {
                core.clock.freeze();
                core.llc_snapshot = Some(llc.core_stats()[i]);
            }
            remaining -= 1;
            // Finished cores keep running while others still need
            // contention; the loop exits once everyone is done.
        }
    }
    tele.finish(llc);
}

/// Simulates `mix` under `Scheme::NuCache(nucache)` and returns the LLC
/// instance alongside the result, for introspection of chosen PCs,
/// monitors and DeliWays counters. The LLC is built exactly as
/// [`run_mix`] builds it for that scheme.
pub fn run_mix_nucache(
    config: &SimConfig,
    mix: &Mix,
    nucache: nucache_core::KernelConfig,
) -> (SimResult, nucache_core::NuCache) {
    let mut llc = build_nucache(nucache, config.llc, config.num_cores, config.seed);
    let result = run_mix_on(config, mix, &mut llc);
    (result, llc)
}

/// Runs `workload` alone on a single-core variant of `config` (same LLC
/// geometry) under the shared-LRU baseline; returns its solo result.
///
/// Solo IPC under the unmanaged baseline is the normalization reference
/// for every scheme, matching the paper's weighted-speedup definition.
pub fn run_solo(config: &SimConfig, workload: SpecWorkload) -> CoreResult {
    let solo_config = SimConfig { num_cores: 1, ..*config };
    let mix = Mix::new(format!("solo_{}", workload.name()), vec![workload]);
    let mut result = run_mix(&solo_config, &mix, &Scheme::Lru);
    result.per_core.remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_mix() -> Mix {
        Mix::new("t", vec![SpecWorkload::HmmerLike, SpecWorkload::Bzip2Like])
    }

    #[test]
    fn deterministic_end_to_end() {
        let config = SimConfig::demo();
        let a = run_mix(&config, &demo_mix(), &Scheme::Lru);
        let b = run_mix(&config, &demo_mix(), &Scheme::Lru);
        assert_eq!(a, b);
    }

    #[test]
    fn all_cores_reach_quota() {
        let config = SimConfig::demo();
        let r = run_mix(&config, &demo_mix(), &Scheme::Lru);
        for c in &r.per_core {
            assert!(c.instructions > config.measure_accesses, "gaps imply instructions > accesses");
            assert!(c.ipc > 0.0 && c.ipc <= 1.0);
        }
    }

    #[test]
    fn llc_attribution_sums_to_totals() {
        let config = SimConfig::demo();
        let r = run_mix(&config, &demo_mix(), &Scheme::Lru);
        let sum: u64 = r.per_core.iter().map(|c| c.llc.accesses()).sum();
        // Totals include accesses from cores still running after their
        // freeze, plus write-backs; per-core counters are a subset.
        assert!(sum <= r.llc_totals.accesses() + 1);
        assert!(r.llc_totals.accesses() > 0);
    }

    #[test]
    fn audited_run_is_bit_identical_and_counts_checks() {
        let config = SimConfig::demo();
        // Short epochs so the demo-length run crosses several selection
        // boundaries and the epoch invariants actually execute.
        let nucache = Scheme::NuCache(nucache_core::KernelConfig::default().with_epoch_len(500));
        for scheme in [Scheme::Lru, nucache] {
            let plain = run_mix(&config, &demo_mix(), &scheme);
            let (audited, stats) = run_mix_audited(&config, &demo_mix(), &scheme);
            assert_eq!(plain, audited, "the oracle must not perturb {}", scheme.name());
            assert!(stats.array_ops > 0, "{} must exercise the mirror", scheme.name());
            if scheme.name().starts_with("nucache") {
                assert!(stats.epoch_checks > 0, "NUcache must run epoch checks");
            }
        }
    }

    #[test]
    fn seed_changes_results() {
        let config = SimConfig::demo();
        let a = run_mix(&config, &demo_mix(), &Scheme::Lru);
        let b = run_mix(&config.with_seed(99), &demo_mix(), &Scheme::Lru);
        assert_ne!(a, b);
    }

    #[test]
    fn solo_run_is_single_core() {
        let config = SimConfig::demo();
        let solo = run_solo(&config, SpecWorkload::HmmerLike);
        assert_eq!(solo.workload, "hmmer_like");
        assert!(solo.ipc > 0.0);
    }

    #[test]
    fn memory_bound_core_has_lower_ipc() {
        let config = SimConfig::demo();
        let solo_friendly = run_solo(&config, SpecWorkload::HmmerLike);
        let solo_stream = run_solo(&config, SpecWorkload::LibquantumLike);
        assert!(
            solo_friendly.ipc > solo_stream.ipc,
            "cache-friendly {} vs streamer {}",
            solo_friendly.ipc,
            solo_stream.ipc
        );
        assert!(solo_stream.llc_mpki > solo_friendly.llc_mpki);
    }

    #[test]
    #[should_panic(expected = "core-count mismatch")]
    fn mix_size_must_match_config() {
        let config = SimConfig::demo(); // 2 cores
        let mix = Mix::new("one", vec![SpecWorkload::HmmerLike]);
        let _ = run_mix(&config, &mix, &Scheme::Lru);
    }
}
