//! The trace generator: turns a [`WorkloadSpec`] into an infinite,
//! deterministic stream of [`Access`]es.

use crate::workload::{Behavior, WorkloadSpec};
use nucache_common::{Access, AccessKind, Addr, CoreId, DetRng, FastRange, Pc};

/// Cache-line size assumed by the generators (64 bytes).
pub const BLOCK_BYTES: u64 = 64;
/// log2 of [`BLOCK_BYTES`]: the byte-to-line shift every consumer of
/// generated addresses must use (the driver routes its `Addr::line`
/// calls through this constant rather than a magic number).
pub const BLOCK_BITS: u32 = 6;

/// Natural batch size for [`TraceGen::fill_block`]: large enough to
/// amortize per-phase lookups, small enough that a per-core buffer stays
/// a few cache lines.
pub const TRACE_BLOCK: usize = 64;

/// Line-address spacing between site regions: 2^26 lines = 4 GiB of
/// address space per region, far larger than any region we generate.
const REGION_SPACING_LINES: u64 = 1 << 26;

/// Line-address spacing between cores' address spaces.
const CORE_SPACING_LINES: u64 = 1 << 40;

/// Per-site runtime state.
#[derive(Debug)]
struct SiteState {
    /// Position within the region (behaviour-specific meaning).
    cursor: u64,
    /// Base line address of the region.
    base_line: u64,
    /// LCG parameters for pointer chasing (full-period over pow2 region).
    chase_modulus: u64,
    /// Precomputed `[0, lines)` draw for `RandomUniform` probing — the
    /// per-draw division is paid once here, at construction.
    uniform: FastRange,
}

/// A deterministic, infinite iterator of accesses for one workload bound
/// to one core.
///
/// Site `i` of the workload gets PC `0x40_0000 + 0x10*i` (globalized with
/// the core id) and a private address region; two generators with equal
/// `(spec, core, seed)` produce identical streams.
///
/// # Examples
///
/// ```
/// use nucache_trace::{Behavior, SiteSpec, TraceGen, WorkloadSpec};
/// use nucache_common::CoreId;
///
/// let spec = WorkloadSpec::single_phase(
///     "demo",
///     vec![SiteSpec::new(Behavior::Loop { lines: 8 }, 1)],
///     (0, 0),
/// );
/// let accesses: Vec<_> = TraceGen::new(&spec, CoreId::new(0), 1).take(16).collect();
/// assert_eq!(accesses.len(), 16);
/// // A loop of 8 lines revisits the same 8 line addresses.
/// let first_line = accesses[0].addr.line(6);
/// assert_eq!(accesses[8].addr.line(6), first_line);
/// ```
#[derive(Debug)]
pub struct TraceGen {
    spec: WorkloadSpec,
    core: CoreId,
    rng: DetRng,
    sites: Vec<SiteState>,
    /// (phase index, site index within phase) -> global site index.
    phase_site_base: Vec<usize>,
    cum_weights: Vec<Vec<u32>>,
    /// Per-phase `[0, total_weight)` draw for site selection.
    phase_pick: Vec<FastRange>,
    /// Workload-wide `[gap.0, gap.1]` draw for instruction gaps.
    gap_pick: FastRange,
    phase: usize,
    phase_left: u64,
}

impl TraceGen {
    /// Creates a generator for `spec` on `core` with an explicit seed.
    pub fn new(spec: &WorkloadSpec, core: CoreId, seed: u64) -> Self {
        let mut sites = Vec::new();
        let mut phase_site_base = Vec::new();
        let mut cum_weights = Vec::new();
        let mut phase_pick = Vec::new();
        let mut rng = DetRng::substream(seed, trace_stream_label(core));
        for phase in &spec.phases {
            phase_site_base.push(sites.len());
            let mut cum = Vec::with_capacity(phase.sites.len());
            let mut acc = 0u32;
            for s in &phase.sites {
                acc += s.weight;
                cum.push(acc);
                let global_idx = sites.len() as u64;
                let base_line = CORE_SPACING_LINES * (core.index() as u64 + 1)
                    + REGION_SPACING_LINES * (global_idx + 1);
                let chase_modulus = s.behavior.lines().next_power_of_two();
                // Randomize starting positions so co-scheduled copies of
                // the same workload do not march in lockstep.
                let cursor = rng.below(s.behavior.lines());
                let uniform = FastRange::below(s.behavior.lines());
                sites.push(SiteState { cursor, base_line, chase_modulus, uniform });
            }
            phase_pick.push(FastRange::below(acc as u64));
            cum_weights.push(cum);
        }
        let phase_left = spec.phases[0].accesses;
        let gap_pick = FastRange::inclusive(spec.gap.0 as u64, spec.gap.1 as u64);
        TraceGen {
            spec: spec.clone(),
            core,
            rng,
            sites,
            phase_site_base,
            cum_weights,
            phase_pick,
            gap_pick,
            phase: 0,
            phase_left,
        }
    }

    /// The core this generator is bound to.
    pub const fn core(&self) -> CoreId {
        self.core
    }

    /// PC assigned to global site index `i` (before core globalization).
    fn site_pc(i: usize) -> Pc {
        Pc::new(0x40_0000 + 0x10 * i as u64)
    }

    fn pick_site(&mut self) -> usize {
        let local =
            pick_in(&self.cum_weights[self.phase], &self.phase_pick[self.phase], &mut self.rng);
        self.phase_site_base[self.phase] + local
    }

    fn advance_site(&mut self, global_idx: usize, behavior: Behavior) -> u64 {
        step_site(&mut self.sites[global_idx], &mut self.rng, behavior)
    }

    /// Fills `out` with the next `out.len()` accesses of the stream —
    /// byte-identical to calling [`Iterator::next`] that many times, but
    /// batched: phase bookkeeping, site-table base, and gap bounds are
    /// hoisted out of the per-access path and re-resolved only at phase
    /// boundaries, so the inner loop is draws and site stepping only.
    pub fn fill_block(&mut self, out: &mut [Access]) {
        let mut idx = 0;
        while idx < out.len() {
            self.advance_phase();
            let phase = self.phase;
            #[expect(clippy::cast_possible_truncation, reason = "phase lengths fit usize")]
            let run = (out.len() - idx).min(self.phase_left as usize);
            let base = self.phase_site_base[phase];
            // Split borrows: the RNG and site states advance while the
            // spec, cumulative weights, and precomputed ranges are
            // read-only.
            let TraceGen { spec, core, rng, sites, cum_weights, phase_pick, gap_pick, .. } = self;
            let cum = &cum_weights[phase];
            let pick = phase_pick[phase];
            let gap_pick = *gap_pick;
            let site_specs = &spec.phases[phase].sites;
            let core = *core;
            for slot in &mut out[idx..idx + run] {
                let local = pick_in(cum, &pick, rng);
                let site = site_specs[local];
                let line = step_site(&mut sites[base + local], rng, site.behavior);
                let kind =
                    if rng.chance(site.write_frac) { AccessKind::Write } else { AccessKind::Read };
                #[expect(clippy::cast_possible_truncation, reason = "gap draws fit the u32 range")]
                let gap = rng.draw(&gap_pick) as u32;
                let pc = Self::site_pc(base + local).globalize(core);
                *slot = Access::with_gap(core, pc, Addr::new(line << BLOCK_BITS), kind, gap)
                    .with_mlp(Self::mlp_of(site.behavior));
            }
            self.phase_left -= run as u64;
            idx += run;
        }
    }

    fn advance_phase(&mut self) {
        if self.phase_left == 0 {
            self.phase = (self.phase + 1) % self.spec.phases.len();
            self.phase_left = self.spec.phases[self.phase].accesses;
        }
    }

    /// Memory-level parallelism by behaviour class: independent streaming
    /// loads overlap deeply (prefetcher + MSHRs), array loops overlap
    /// moderately, and random probes somewhat; a pointer chase is a
    /// dependence chain with no overlap at all.
    const fn mlp_of(behavior: Behavior) -> u8 {
        match behavior {
            Behavior::Stream { .. } => 4,
            Behavior::Loop { .. } => 2,
            Behavior::RandomUniform { .. } => 2,
            Behavior::PointerChase { .. } => 1,
        }
    }
}

/// Substream label mixing the core id in, so per-core generators sharing
/// one seed stay independent.
const fn trace_stream_label(core: CoreId) -> u64 {
    0x7ace_0000 + core.0 as u64
}

/// Weighted site selection within one phase: one uniform draw against the
/// cumulative weight table. Shared by the per-access and batched paths so
/// both consume the RNG identically; `pick` is the phase's precomputed
/// `[0, total_weight)` range, so no division is paid per draw.
#[inline]
fn pick_in(cum: &[u32], pick: &FastRange, rng: &mut DetRng) -> usize {
    #[expect(clippy::cast_possible_truncation, reason = "`pick` ranges over the u32 total weight")]
    let draw = rng.draw(pick) as u32;
    cum.partition_point(|&c| c <= draw)
}

/// Advances one site and returns the line it touched. Shared by the
/// per-access and batched paths so both consume the RNG identically.
#[inline]
fn step_site(state: &mut SiteState, rng: &mut DetRng, behavior: Behavior) -> u64 {
    match behavior {
        Behavior::Stream { lines, stride } => {
            let line = state.base_line + state.cursor;
            // `cursor < lines` is invariant, so for in-range strides the
            // modulo is a single conditional subtract.
            let next = state.cursor + stride;
            state.cursor = if stride <= lines {
                if next >= lines {
                    next - lines
                } else {
                    next
                }
            } else {
                next % lines
            };
            line
        }
        Behavior::Loop { lines } => {
            let line = state.base_line + state.cursor;
            let next = state.cursor + 1;
            state.cursor = if next == lines { 0 } else { next };
            line
        }
        Behavior::RandomUniform { lines: _ } => state.base_line + rng.draw(&state.uniform),
        Behavior::PointerChase { lines: _ } => {
            // Full-period LCG over the power-of-two modulus: next =
            // (5*cur + 1) mod m visits every value exactly once per
            // period (a ≡ 1 mod 4, c odd), giving loop-like reuse with
            // no spatial pattern.
            let m = state.chase_modulus;
            let line = state.base_line + state.cursor;
            state.cursor = (5 * state.cursor + 1) & (m - 1);
            line
        }
    }
}

impl Iterator for TraceGen {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        self.advance_phase();
        let global_idx = self.pick_site();
        let phase = &self.spec.phases[self.phase];
        let local = global_idx - self.phase_site_base[self.phase];
        let site = phase.sites[local];
        let line = self.advance_site(global_idx, site.behavior);
        let kind =
            if self.rng.chance(site.write_frac) { AccessKind::Write } else { AccessKind::Read };
        #[expect(clippy::cast_possible_truncation, reason = "gap draws fit the u32 range")]
        let gap = self.rng.draw(&self.gap_pick) as u32;
        let pc = Self::site_pc(global_idx).globalize(self.core);
        self.phase_left -= 1;
        Some(
            Access::with_gap(self.core, pc, Addr::new(line << BLOCK_BITS), kind, gap)
                .with_mlp(Self::mlp_of(site.behavior)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Phase, SiteSpec};

    fn loop_spec(lines: u64) -> WorkloadSpec {
        WorkloadSpec::single_phase("loop", vec![SiteSpec::new(Behavior::Loop { lines }, 1)], (2, 4))
    }

    #[test]
    fn deterministic_across_instances() {
        let spec = loop_spec(100);
        let a: Vec<_> = TraceGen::new(&spec, CoreId::new(0), 9).take(500).collect();
        let b: Vec<_> = TraceGen::new(&spec, CoreId::new(0), 9).take(500).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = loop_spec(100);
        let a: Vec<_> = TraceGen::new(&spec, CoreId::new(0), 1).take(100).collect();
        let b: Vec<_> = TraceGen::new(&spec, CoreId::new(0), 2).take(100).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn loop_footprint_is_exact() {
        let spec = loop_spec(37);
        let distinct: std::collections::BTreeSet<u64> =
            TraceGen::new(&spec, CoreId::new(0), 1).take(500).map(|a| a.addr.line(6).0).collect();
        assert_eq!(distinct.len(), 37);
    }

    #[test]
    fn pointer_chase_visits_whole_region() {
        let spec = WorkloadSpec::single_phase(
            "chase",
            vec![SiteSpec::new(Behavior::PointerChase { lines: 64 }, 1)],
            (0, 0),
        );
        let distinct: std::collections::BTreeSet<u64> =
            TraceGen::new(&spec, CoreId::new(0), 1).take(64).map(|a| a.addr.line(6).0).collect();
        assert_eq!(distinct.len(), 64, "full-period cycle must cover the region");
    }

    #[test]
    fn stream_respects_stride() {
        let spec = WorkloadSpec::single_phase(
            "stream",
            vec![SiteSpec::new(Behavior::Stream { lines: 1 << 20, stride: 4 }, 1)],
            (0, 0),
        );
        let lines: Vec<u64> =
            TraceGen::new(&spec, CoreId::new(0), 1).take(10).map(|a| a.addr.line(6).0).collect();
        for w in lines.windows(2) {
            assert_eq!(w[1] - w[0], 4);
        }
    }

    #[test]
    fn gaps_within_range() {
        let spec = loop_spec(10);
        for a in TraceGen::new(&spec, CoreId::new(0), 3).take(200) {
            assert!((2..=4).contains(&a.gap));
        }
    }

    #[test]
    fn write_fraction_approximate() {
        let spec = WorkloadSpec::single_phase(
            "wr",
            vec![SiteSpec::new(Behavior::Loop { lines: 10 }, 1).with_writes(0.5)],
            (0, 0),
        );
        let writes = TraceGen::new(&spec, CoreId::new(0), 5)
            .take(2000)
            .filter(|a| a.kind.is_write())
            .count();
        assert!((800..1200).contains(&writes), "expected ~1000 writes, got {writes}");
    }

    #[test]
    fn cores_use_disjoint_address_spaces_and_pcs() {
        let spec = loop_spec(100);
        let a: Vec<_> = TraceGen::new(&spec, CoreId::new(0), 1).take(50).collect();
        let b: Vec<_> = TraceGen::new(&spec, CoreId::new(1), 1).take(50).collect();
        let lines_a: std::collections::BTreeSet<u64> = a.iter().map(|x| x.addr.line(6).0).collect();
        let lines_b: std::collections::BTreeSet<u64> = b.iter().map(|x| x.addr.line(6).0).collect();
        assert!(lines_a.is_disjoint(&lines_b));
        assert_ne!(a[0].pc, b[0].pc);
    }

    #[test]
    fn phases_cycle() {
        let p1 = Phase { sites: vec![SiteSpec::new(Behavior::Loop { lines: 4 }, 1)], accesses: 10 };
        let p2 = Phase { sites: vec![SiteSpec::new(Behavior::Loop { lines: 4 }, 1)], accesses: 10 };
        let spec = WorkloadSpec::phased("pp", vec![p1, p2], (0, 0));
        let accesses: Vec<_> = TraceGen::new(&spec, CoreId::new(0), 1).take(40).collect();
        // Phase 1's site is global index 0, phase 2's is 1: PCs alternate
        // in blocks of 10.
        let pc0 = TraceGen::site_pc(0).globalize(CoreId::new(0));
        let pc1 = TraceGen::site_pc(1).globalize(CoreId::new(0));
        assert!(accesses[..10].iter().all(|a| a.pc == pc0));
        assert!(accesses[10..20].iter().all(|a| a.pc == pc1));
        assert!(accesses[20..30].iter().all(|a| a.pc == pc0), "phases must cycle");
    }

    #[test]
    fn weighted_site_selection() {
        let spec = WorkloadSpec::single_phase(
            "weights",
            vec![
                SiteSpec::new(Behavior::Loop { lines: 8 }, 9),
                SiteSpec::new(Behavior::Loop { lines: 8 }, 1),
            ],
            (0, 0),
        );
        let pc0 = TraceGen::site_pc(0).globalize(CoreId::new(0));
        let n0 = TraceGen::new(&spec, CoreId::new(0), 7).take(5000).filter(|a| a.pc == pc0).count();
        assert!((4200..4800).contains(&n0), "expected ~4500 from the 90% site, got {n0}");
    }
}
