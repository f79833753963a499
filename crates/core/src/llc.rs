//! The NUcache LLC organization: a thin simulator adapter over the
//! embeddable [`nucache_kernel`] state machine.
//!
//! The MainWays/DeliWays replacement logic, the Next-Use monitor, the
//! delinquent tracker and the epoch selection all live in
//! [`NucacheKernel`]; this adapter maps the simulator's vocabulary onto
//! the kernel's keyed API:
//!
//! * key — the raw [`LineAddr`] (`line.0`); the kernel's set/tag split
//!   is exactly the geometry's;
//! * insertion class — the allocating [`Pc`] (the paper's DelinquentPC);
//! * value — the per-line simulator state (the private `LineInfo`:
//!   allocating core + dirty bit);
//!
//! and layers on what only the simulator cares about: per-core stats
//! attribution, write-back accounting, [`Event`] telemetry conversion
//! and the [`SharedLlc`] trait surface the driver's monomorphized hot
//! loop dispatches on.

use nucache_cache::meta::{AccessOutcome, EvictedLine};
use nucache_cache::{AuditStats, CacheGeometry, SharedLlc};
use nucache_common::telemetry::{Event, PcSnapshot};
use nucache_common::{AccessKind, CacheStats, CoreId, LineAddr, Pc};
use nucache_kernel::{
    DelinquentTracker, Evicted, KernelConfig, Lookup, NextUseMonitor, NucacheKernel,
};

/// Per-line simulator state stored as the kernel's value type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineInfo {
    core: CoreId,
    dirty: bool,
}

/// A shared LLC organized as NUcache.
///
/// Each set's ways are split into `M` MainWays (LRU, all lines) and `D`
/// DeliWays (FIFO, only lines allocated by the currently chosen
/// delinquent PCs, entered on eviction from the MainWays). A sampled
/// Next-Use monitor and a per-PC miss tracker feed the epoch-based
/// cost-benefit PC selection.
///
/// # Examples
///
/// ```
/// use nucache_cache::{CacheGeometry, SharedLlc};
/// use nucache_core::{KernelConfig, NuCache};
/// let geom = CacheGeometry::new(512 * 1024, 16, 64);
/// let llc = NuCache::new(geom, 2, KernelConfig::default().with_deli_ways(8));
/// assert_eq!(llc.main_ways(), 8);
/// assert_eq!(llc.deli_ways(), 8);
/// ```
#[derive(Debug)]
pub struct NuCache {
    kernel: NucacheKernel<LineInfo, Pc>,
    geom: CacheGeometry,
    stats: CacheStats,
    core_stats: Vec<CacheStats>,
}

impl NuCache {
    /// Creates a NUcache LLC for `num_cores` cores. The kernel's `sets`
    /// and `ways` are the geometry's; those fields of `config` are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or the kernel rejects the
    /// configuration (see [`KernelConfig::validate`]).
    pub fn new(geom: CacheGeometry, num_cores: usize, config: KernelConfig) -> Self {
        assert!(num_cores > 0, "need at least one core");
        let config = config.with_sets(geom.num_sets()).with_ways(geom.associativity());
        let kernel = NucacheKernel::init(config)
            .unwrap_or_else(|e| panic!("invalid NUcache configuration: {e}"));
        #[allow(unused_mut)] // mut only needed under debug_invariants
        let mut llc = NuCache {
            kernel,
            geom,
            stats: CacheStats::default(),
            core_stats: vec![CacheStats::default(); num_cores],
        };
        #[cfg(feature = "debug_invariants")]
        llc.enable_audit();
        llc
    }

    /// Enables the differential audit oracle: the kernel replays every
    /// `get`, `put` and `remove` into a reference model of its
    /// replacement (MainWays LRU, DeliWays FIFO of chosen PCs' victims)
    /// and each selection epoch verifies NUcache's invariants (monotone
    /// counters, monitor matches within recorded evictions, selection
    /// objective reproducible from the candidates); see
    /// [`NucacheKernel::enable_audit`]. The adapter additionally
    /// cross-checks per-core stats attribution against the aggregate on
    /// every access. Violations panic at the faulting operation.
    pub fn enable_audit(&mut self) {
        self.kernel.enable_audit();
    }

    /// Disables the audit oracle and drops its model.
    pub fn disable_audit(&mut self) {
        self.kernel.disable_audit();
    }

    /// Per-core attribution check, the one audit invariant that lives in
    /// the adapter (the kernel has no notion of cores).
    #[cold]
    #[inline(never)]
    fn audit_core_attribution(&self) {
        let core_hits: u64 = self.core_stats.iter().map(|c| c.hits).sum();
        let core_misses: u64 = self.core_stats.iter().map(|c| c.misses).sum();
        assert_eq!(
            (core_hits, core_misses),
            (self.stats.hits, self.stats.misses),
            "audit: per-core counters must sum to the aggregate"
        );
    }

    /// Number of MainWays per set.
    pub const fn main_ways(&self) -> usize {
        self.kernel.main_ways()
    }

    /// Number of DeliWays per set.
    pub const fn deli_ways(&self) -> usize {
        self.kernel.deli_ways()
    }

    /// PCs currently admitted to the DeliWays.
    pub fn chosen_pcs(&self) -> Vec<Pc> {
        self.kernel.chosen_classes()
    }

    /// Completed selection epochs.
    pub const fn epochs(&self) -> u64 {
        self.kernel.epochs()
    }

    /// Hits satisfied from the DeliWays.
    pub const fn deli_hits(&self) -> u64 {
        self.kernel.deli_hits()
    }

    /// Lines moved from MainWays into DeliWays.
    pub const fn deli_fills(&self) -> u64 {
        self.kernel.deli_fills()
    }

    /// Read access to the delinquent-PC tracker (Fig. 1 uses this).
    pub const fn tracker(&self) -> &DelinquentTracker<Pc> {
        self.kernel.tracker()
    }

    /// Read access to the Next-Use monitor (Fig. 2 uses this).
    pub const fn monitor(&self) -> &NextUseMonitor<Pc> {
        self.kernel.monitor()
    }

    /// Valid lines currently resident in the DeliWays across all sets.
    pub fn deli_occupancy(&self) -> u64 {
        self.kernel.deli_occupancy()
    }

    /// Maps an eviction leaving the kernel back into the simulator's
    /// vocabulary.
    fn to_evicted_line(ev: Evicted<LineInfo, Pc>) -> EvictedLine {
        EvictedLine {
            line: LineAddr::new(ev.key),
            dirty: ev.value.dirty,
            core: ev.value.core,
            pc: ev.class,
        }
    }
}

impl SharedLlc for NuCache {
    fn access(&mut self, core: CoreId, pc: Pc, line: LineAddr, kind: AccessKind) -> AccessOutcome {
        // First phase against the kernel: the lookup. Owned results are
        // extracted immediately so the miss path can call back into the
        // kernel for the fill.
        let hit = match self.kernel.get(line.0, pc) {
            Lookup::Hit { value, evicted, .. } => {
                if kind.is_write() {
                    value.dirty = true;
                }
                Some(evicted)
            }
            Lookup::Miss => None,
        };

        let outcome = if let Some(promotion_eviction) = hit {
            self.stats.record_hit();
            self.core_stats[core.index()].record_hit();
            // A DeliWays-hit promotion can displace a MainWays victim out
            // of the cache entirely; that leaves through here and only
            // its write-back matters to the outer layers.
            if let Some(ev) = promotion_eviction {
                self.stats.record_eviction(ev.value.dirty);
            }
            AccessOutcome::Hit
        } else {
            self.stats.record_miss();
            self.core_stats[core.index()].record_miss();
            let leaving = self
                .kernel
                .put(line.0, pc, LineInfo { core, dirty: kind.is_write() })
                .map(Self::to_evicted_line);
            if let Some(ev) = &leaving {
                self.stats.record_eviction(ev.dirty);
            }
            AccessOutcome::Miss { evicted: leaving }
        };
        if self.kernel.audit_enabled() {
            self.audit_core_attribution();
        }
        outcome
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn core_stats(&self) -> &[CacheStats] {
        &self.core_stats
    }

    fn reset_stats(&mut self) {
        self.stats.clear();
        self.core_stats.iter_mut().for_each(CacheStats::clear);
        self.kernel.reset_stats();
    }

    fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    fn scheme_name(&self) -> String {
        format!("nucache-d{}", self.deli_ways())
    }

    fn set_telemetry(&mut self, enabled: bool) {
        self.kernel.set_telemetry(enabled);
    }

    fn drain_events(&mut self) -> Vec<Event> {
        self.kernel
            .drain_epochs()
            .into_iter()
            .map(|s| Event::SelectionEpoch {
                epoch: s.epoch,
                window_accesses: s.window_accesses,
                chosen: s.chosen,
                expected_hits: s.expected_hits,
                extra_lifetime: s.extra_lifetime,
                deli_hits: s.deli_hits,
                deli_fills: s.deli_fills,
                deli_occupancy: s.deli_occupancy,
                deli_capacity: s.deli_capacity,
                top_pcs: s
                    .top_classes
                    .into_iter()
                    .map(|c| PcSnapshot {
                        pc: c.class,
                        fills: c.fills,
                        chosen: c.chosen,
                        samples: c.samples,
                        p25: c.p25,
                        p50: c.p50,
                        p75: c.p75,
                        p90: c.p90,
                    })
                    .collect(),
            })
            .collect()
    }

    fn set_audit(&mut self, enabled: bool) {
        if enabled {
            self.enable_audit();
        } else {
            self.disable_audit();
        }
    }

    fn audit_stats(&self) -> Option<AuditStats> {
        self.kernel.audit_enabled().then(|| AuditStats {
            array_ops: self.kernel.audit_ops(),
            epoch_checks: self.kernel.epoch_checks(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucache_kernel::SelectionStrategy;

    fn geom(sets: u64, assoc: usize) -> CacheGeometry {
        CacheGeometry::new(64 * assoc as u64 * sets, assoc, 64)
    }

    fn cfg(deli: usize) -> KernelConfig {
        KernelConfig::default().with_deli_ways(deli).with_epoch_len(1000)
    }

    fn read(llc: &mut NuCache, pc: u64, line: u64) -> AccessOutcome {
        llc.access(CoreId::new(0), Pc::new(pc), LineAddr::new(line), AccessKind::Read)
    }

    /// Sampled monitoring on: shift 0 so every set is observed in tests.
    fn test_config(deli: usize) -> KernelConfig {
        let mut c = cfg(deli);
        c.monitor_shift = 0;
        c
    }

    /// The geometry sets the kernel's shape, whatever `sets` and `ways`
    /// the configuration carries.
    #[test]
    fn geometry_supplies_sets_and_ways() {
        let config = test_config(2).with_sets(4).with_ways(64);
        let llc = NuCache::new(geom(16, 4), 1, config);
        assert_eq!((llc.kernel.config().sets, llc.kernel.config().ways), (16, 4));
        assert_eq!((llc.main_ways(), llc.deli_ways()), (2, 2));
        assert_eq!(llc.kernel.capacity(), 64);
    }

    #[test]
    #[should_panic(expected = "at least one MainWay")]
    fn all_deli_rejected() {
        let _ = NuCache::new(geom(16, 4), 1, test_config(4));
    }

    #[test]
    fn basic_hit_miss() {
        let mut llc = NuCache::new(geom(16, 4), 1, test_config(2));
        assert!(read(&mut llc, 1, 5).is_miss());
        assert!(read(&mut llc, 1, 5).is_hit());
    }

    #[test]
    fn unchosen_lines_bypass_deliways() {
        let mut llc = NuCache::new(geom(1, 4), 1, test_config(2));
        // 2 MainWays, 2 DeliWays; nothing chosen yet, so a working set of
        // 3 lines thrashes the 2 MainWays exactly like a 2-way LRU.
        let mut hits = 0;
        for _ in 0..10 {
            for n in 0..3 {
                if read(&mut llc, 1, n).is_hit() {
                    hits += 1;
                }
            }
        }
        assert_eq!(hits, 0);
        assert_eq!(llc.deli_fills(), 0);
    }

    #[test]
    fn chosen_pc_lines_enter_deliways_and_hit() {
        let mut llc = NuCache::new(geom(1, 4), 1, test_config(2));
        llc.kernel.force_chosen(&[Pc::new(1)]);
        // 2 MainWays + 2 DeliWays and a 4-line loop from the chosen PC:
        // evicted lines park in the DeliWays and are re-hit.
        let mut hits = 0;
        for _ in 0..20 {
            for n in 0..4 {
                if read(&mut llc, 1, n).is_hit() {
                    hits += 1;
                }
            }
        }
        assert!(llc.deli_fills() > 0, "chosen lines must enter DeliWays");
        assert!(llc.deli_hits() > 0, "DeliWays must produce hits");
        assert!(hits > 40, "retention should convert most misses, got {hits}");
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut llc = NuCache::new(geom(4, 4), 1, test_config(2));
        llc.kernel.force_chosen(&[Pc::new(1)]);
        for n in 0..10_000 {
            read(&mut llc, 1, n % 97);
        }
        assert!(llc.kernel.len() <= 16);
    }

    #[test]
    fn cost_benefit_selection_discovers_loop_pc() {
        // One set-heavy scenario: PC 1 loops over a working set that fits
        // only with DeliWays help; PC 2 streams. After a few epochs the
        // selector must choose PC 1 and not PC 2.
        let mut config = test_config(8);
        config.epoch_len = 2_000;
        let mut llc = NuCache::new(geom(64, 16), 1, config);
        let mut stream = 1 << 20;
        for round in 0..30_000u64 {
            // Loop: 12 lines per set over 64 sets = 768 lines; MainWays
            // hold 8/set = 512: thrashes without DeliWays, fits with them.
            read(&mut llc, 1, round % 768);
            if round % 2 == 0 {
                read(&mut llc, 2, stream);
                stream += 1;
            }
        }
        assert!(llc.epochs() >= 2);
        let chosen = llc.chosen_pcs();
        assert!(chosen.contains(&Pc::new(1)), "loop PC must be chosen, got {chosen:?}");
        assert!(!chosen.contains(&Pc::new(2)), "stream PC must not be chosen, got {chosen:?}");
        assert!(llc.deli_hits() > 0);
    }

    #[test]
    fn strategy_none_never_uses_deliways() {
        let mut config = test_config(8).with_strategy(SelectionStrategy::None);
        config.epoch_len = 500;
        let mut llc = NuCache::new(geom(16, 16), 1, config);
        for n in 0..20_000u64 {
            read(&mut llc, 1, n % 300);
        }
        assert_eq!(llc.deli_fills(), 0);
        assert!(llc.epochs() > 0);
    }

    #[test]
    fn deli_hit_promotion_moves_line_to_main() {
        let mut config = test_config(2);
        config.promote_on_deli_hit = true;
        let mut llc = NuCache::new(geom(1, 4), 1, config);
        llc.kernel.force_chosen(&[Pc::new(1)]);
        // Fill MainWays with lines 0,1; push 0 into DeliWays with 2.
        read(&mut llc, 1, 0);
        read(&mut llc, 1, 1);
        read(&mut llc, 1, 2); // evicts 0 -> DeliWays
        assert_eq!(llc.deli_fills(), 1);
        assert!(read(&mut llc, 1, 0).is_hit()); // DeliWays hit, promoted
        assert_eq!(llc.deli_hits(), 1);
        // After promotion, 0 sits in the MainWays as MRU: another fill
        // must evict some other line, not 0.
        read(&mut llc, 1, 3);
        assert!(read(&mut llc, 1, 0).is_hit());
    }

    #[test]
    fn deli_hit_refresh_extends_retention() {
        // Without refresh: lines 0 and 1 are pushed into the 2-deep FIFO,
        // then recurring hits on 0 do not save it from being dropped when
        // two more lines arrive. With refresh, the hit moves 0 to the
        // FIFO tail, so the *unused* line is dropped instead.
        let run = |refresh: bool| {
            let mut config = test_config(2);
            config.promote_on_deli_hit = false;
            config.deli_hit_refresh = refresh;
            let mut llc = NuCache::new(geom(1, 4), 1, config);
            llc.kernel.force_chosen(&[Pc::new(1)]);
            read(&mut llc, 1, 0);
            read(&mut llc, 1, 1);
            read(&mut llc, 1, 2); // evicts 0 -> FIFO
            read(&mut llc, 1, 3); // evicts 1 -> FIFO (0 is FIFO head)
            assert!(read(&mut llc, 1, 0).is_hit()); // deli hit on 0
                                                    // One more arrival: pure FIFO drops head (= 0); with refresh
                                                    // the hit moved 0 to the tail, so 1 is dropped instead.
            read(&mut llc, 1, 4); // evicts 2 -> FIFO drops one line
            read(&mut llc, 1, 0).is_hit()
        };
        assert!(!run(false), "pure FIFO drops the reused line on schedule");
        assert!(run(true), "second-chance FIFO keeps the reused line");
    }

    #[test]
    fn telemetry_emits_one_event_per_epoch() {
        let mut config = test_config(8);
        config.epoch_len = 2_000;
        let mut llc = NuCache::new(geom(64, 16), 1, config);
        llc.set_telemetry(true);
        for round in 0..10_000u64 {
            read(&mut llc, 1, round % 768);
        }
        let events = llc.drain_events();
        assert_eq!(events.len() as u64, llc.epochs());
        assert!(!events.is_empty());
        let Event::SelectionEpoch { epoch, chosen, deli_capacity, top_pcs, .. } = &events[0] else {
            panic!("expected a selection epoch, got {events:?}");
        };
        assert_eq!(*epoch, 1);
        assert_eq!(*deli_capacity, 8 * 64);
        assert!(top_pcs.iter().any(|p| p.fills > 0), "candidates carry fill counts");
        for pc in chosen {
            assert!(top_pcs.iter().any(|p| p.pc == *pc && p.chosen), "chosen PCs flagged");
        }
        assert!(llc.drain_events().is_empty(), "drain consumes the buffer");
    }

    #[test]
    fn telemetry_disabled_buffers_nothing() {
        let mut config = test_config(2);
        config.epoch_len = 500;
        let mut llc = NuCache::new(geom(16, 4), 1, config);
        for n in 0..5_000u64 {
            read(&mut llc, 1, n % 40);
        }
        assert!(llc.epochs() > 0);
        assert!(llc.drain_events().is_empty());
        // Disabling clears anything pending.
        llc.set_telemetry(true);
        for n in 0..1_000u64 {
            read(&mut llc, 1, n % 40);
        }
        llc.set_telemetry(false);
        assert!(llc.drain_events().is_empty());
    }

    #[test]
    fn deli_occupancy_counts_valid_deli_lines() {
        let mut llc = NuCache::new(geom(1, 4), 1, test_config(2));
        llc.kernel.force_chosen(&[Pc::new(1)]);
        assert_eq!(llc.deli_occupancy(), 0);
        read(&mut llc, 1, 0);
        read(&mut llc, 1, 1);
        read(&mut llc, 1, 2); // evicts 0 -> DeliWays
        assert_eq!(llc.deli_occupancy(), 1);
        read(&mut llc, 1, 3); // evicts 1 -> DeliWays
        assert_eq!(llc.deli_occupancy(), 2);
    }

    #[test]
    fn scheme_name_reports_deliways() {
        let llc = NuCache::new(geom(16, 16), 1, test_config(4));
        assert_eq!(llc.scheme_name(), "nucache-d4");
        assert_eq!(llc.main_ways(), 12);
    }

    #[test]
    fn per_core_stats_attributed() {
        let mut llc = NuCache::new(geom(16, 4), 2, test_config(2));
        llc.access(CoreId::new(1), Pc::new(9), LineAddr::new(3), AccessKind::Read);
        llc.access(CoreId::new(1), Pc::new(9), LineAddr::new(3), AccessKind::Read);
        assert_eq!(llc.core_stats()[1].hits, 1);
        assert_eq!(llc.core_stats()[0].accesses(), 0);
    }

    #[test]
    fn reset_stats_keeps_learning_state() {
        let mut config = test_config(2);
        config.epoch_len = 100;
        let mut llc = NuCache::new(geom(16, 4), 1, config);
        for n in 0..500 {
            read(&mut llc, 1, n % 40);
        }
        let epochs = llc.epochs();
        llc.reset_stats();
        assert_eq!(llc.stats().accesses(), 0);
        assert_eq!(llc.deli_hits(), 0);
        assert_eq!(llc.epochs(), epochs, "selection state survives reset");
    }

    #[test]
    fn audited_run_checks_epochs_and_matches_unaudited() {
        let mut config = test_config(4);
        config.epoch_len = 500;
        let run = |audit: bool| {
            let mut llc = NuCache::new(geom(16, 8), 1, config);
            if audit {
                llc.enable_audit();
            } else {
                // With the debug_invariants feature on, constructors
                // auto-enable auditing; this arm wants a truly plain run.
                llc.disable_audit();
            }
            for n in 0..10_000u64 {
                read(&mut llc, 1 + n % 3, n % 90);
            }
            let summary = (llc.stats().hits, llc.stats().misses, llc.deli_hits(), llc.chosen_pcs());
            (summary, llc.audit_stats())
        };
        let (plain, none) = run(false);
        let (audited, stats) = run(true);
        assert_eq!(none, None);
        assert_eq!(plain, audited, "auditing must not perturb simulation results");
        let stats = stats.expect("auditing was on");
        assert!(stats.array_ops > 0, "the reference model must have been exercised");
        assert!(stats.epoch_checks > 0, "epoch invariants must have been checked");
    }

    #[test]
    fn disable_audit_stops_checking() {
        let mut llc = NuCache::new(geom(16, 4), 1, test_config(2));
        llc.enable_audit();
        read(&mut llc, 1, 5);
        assert!(llc.audit_stats().is_some());
        llc.disable_audit();
        assert_eq!(llc.audit_stats(), None);
        read(&mut llc, 1, 6);
    }

    #[test]
    #[should_panic(expected = "audit: per-core counters")]
    fn audit_catches_misattributed_stats() {
        let mut llc = NuCache::new(geom(16, 4), 2, test_config(2));
        llc.enable_audit();
        read(&mut llc, 1, 5);
        llc.core_stats[1].hits = 10_000; // corrupt: attribution out of sync
        read(&mut llc, 1, 5);
    }

    #[test]
    fn dirty_bit_survives_deliways_transit() {
        let mut llc = NuCache::new(geom(1, 4), 1, test_config(2));
        llc.kernel.force_chosen(&[Pc::new(1)]);
        llc.access(CoreId::new(0), Pc::new(1), LineAddr::new(0), AccessKind::Write);
        read(&mut llc, 1, 1);
        read(&mut llc, 1, 2); // dirty 0 -> DeliWays
        read(&mut llc, 1, 3); // dirty 1 -> DeliWays
                              // Push 0 out of the DeliWays FIFO: two more chosen evictions.
        read(&mut llc, 1, 4); // evicts 2 -> DeliWays, FIFO drops 0
        let out = read(&mut llc, 1, 5);
        // The drop of a dirty line must be visible as a writeback
        // eviction at some point.
        let _ = out;
        assert!(llc.stats().writebacks >= 1, "dirty line leaving must count as writeback");
    }
}
