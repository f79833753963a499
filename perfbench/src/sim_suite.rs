//! `sim_suite`: the five headline schemes (LRU, UCP, PIPP, TADIP,
//! NUcache) on the quad-core mix `mix4_01`, one `run_mix` job each, run
//! serially the way `run_all` runs a mix, with `SimConfig::baseline(4)`,
//! fixed per-core run lengths and the seed from the command line.
//!
//! Untraced, a pass is the weighted-speedup set-up (the solo-LRU runs
//! plus LLC construction) and then the five jobs, each between two
//! reference slices. Passes repeat until the time budget is spent; every
//! pass must reproduce the first exactly.
//!
//! Traced, each job is run again through `run_mix_on` with a
//! [`Recorder`] LLC wrapper that notes only which core made each LLC
//! call. The per-core LLC streams are then rebuilt from outside —
//! `TraceGen::fill_block` feeding `PrivateHierarchy::access`, exact
//! because the private hierarchy never sees LLC outcomes — merged in the
//! recorded core order and replayed into a fresh LLC of the scheme. The
//! replay times trace generation, the hierarchy and the LLC separately;
//! what the job took beyond them is the driver's own time.

use crate::host::{median, order_stat, peak_rss_mib, HostClock, Timed, Tracer};
use crate::{Report, Settings, END_TO_END, PER_LAYER};
use nucache_cache::hierarchy::{PrivateHierarchy, PrivateOutcome};
use nucache_cache::{AccessOutcome, CacheGeometry, SharedLlc};
use nucache_common::telemetry::Event;
use nucache_common::{Access, AccessKind, Addr, CacheStats, CoreId, LineAddr, Pc};
use nucache_cpu::MultiProgramMetrics;
use nucache_sim::driver::take_simulated_accesses;
use nucache_sim::scheme::BuiltLlc;
use nucache_sim::{
    run_mix, run_mix_on, run_solo, AuditStats, CoreResult, Scheme, SimConfig, SimResult,
};
use nucache_trace::{Mix, TraceGen, BLOCK_BITS, TRACE_BLOCK};
use std::collections::VecDeque;
use std::hint::black_box;

/// Per-core warm-up accesses: with four cores, enough LLC calls to fill
/// the 4 MiB LLC before measurement starts.
const WARMUP: u64 = 25_000;
/// Per-core measured accesses. Jobs stay short (0.1-0.4 s here), so the
/// reference slices around each job sample the host speed often.
const MEASURE: u64 = 100_000;
/// The mix every job runs.
const MIX: &str = "mix4_01";
/// Accesses generated (and walked through the hierarchy) per replay step.
const GEN_CHUNK: usize = 64 * TRACE_BLOCK;
/// LLC calls replayed per timed LLC span.
const LLC_CHUNK: usize = 1 << 15;
/// Capacity of the kernel's delinquency tracker, for the input-property
/// line.
const TRACKER_SLOTS: usize = 256;

/// Traces each run simulates. NUcache's LLC hit rate moves by several
/// percent from trace to trace (about 0.38-0.42, now and then 0.54; at
/// four times these run lengths it settles near 0.45 or 0.6 by trace),
/// so a run averages several traces, and its `hit_rate` is that of all
/// five schemes together, which varies far less.
const TRACES: usize = 4;

/// Trace seed `k` of the run seeded `seed`.
fn trace_seed(seed: u64, k: usize) -> u64 {
    crate::rng::mix(seed.wrapping_mul(TRACES as u64).wrapping_add(k as u64))
}

/// The simulation configuration of every job for `seed`.
pub fn config(seed: u64) -> SimConfig {
    SimConfig::baseline(4).with_run_lengths(WARMUP, MEASURE).with_seed(seed)
}

/// The quad-core mix under test.
pub fn mix() -> Mix {
    Mix::quad_core_suite()
        .into_iter()
        .find(|m| m.name() == MIX)
        .expect("mix4_01 is in the quad-core suite")
}

/// Runs `$body` with `$l` bound to the concrete LLC inside a
/// [`BuiltLlc`], so LLC calls in the body dispatch statically.
macro_rules! with_llc {
    ($built:expr, $l:ident => $body:expr) => {
        match $built {
            BuiltLlc::Lru($l) => $body,
            BuiltLlc::Dip($l) => $body,
            BuiltLlc::Drrip($l) => $body,
            BuiltLlc::Tadip($l) => $body,
            BuiltLlc::Ucp($l) => $body,
            BuiltLlc::Pipp($l) => $body,
            BuiltLlc::Ship($l) => $body,
            BuiltLlc::NuCache($l) => $body,
        }
    };
}

/// One job of a pass.
struct Job {
    scheme: String,
    time: Timed,
    /// Core accesses the job simulated (warm-up and measurement).
    accesses: u64,
    result: SimResult,
}

/// One untraced pass over the suite.
struct Pass {
    setup: Timed,
    solos: Vec<CoreResult>,
    jobs: Vec<Job>,
}

fn untraced_pass(clock: &mut HostClock, config: &SimConfig, mix: &Mix, schemes: &[Scheme]) -> Pass {
    let mut solos = Vec::new();
    let setup = Timed::of(&clock.sliced(1, |_| {
        solos = mix.workloads().iter().map(|w| run_solo(config, *w)).collect();
        for s in schemes {
            black_box(s.build_concrete(config.llc, config.num_cores, config.seed));
        }
    }));
    take_simulated_accesses();
    let jobs = schemes
        .iter()
        .map(|s| {
            let mut result = None;
            let time = Timed::of(&clock.sliced(1, |_| result = Some(run_mix(config, mix, s))));
            Job {
                scheme: s.name(),
                time,
                accesses: take_simulated_accesses(),
                result: result.expect("the job ran"),
            }
        })
        .collect();
    Pass { setup, solos, jobs }
}

/// Every job reached its per-core quota, and the pass reproduces
/// `first` exactly.
fn check_pass(report: &mut Report, config: &SimConfig, pass: &Pass, first: &Pass) {
    let quota = config.num_cores as u64 * (config.warmup_accesses + config.measure_accesses);
    for job in &pass.jobs {
        let reached = job.accesses >= quota
            && job.result.per_core.iter().all(|c| {
                c.instructions >= config.measure_accesses && c.ipc > 0.0 && c.ipc.is_finite()
            });
        report.check(reached, 1, || {
            format!("{}: a core missed its quota ({} accesses issued)", job.scheme, job.accesses)
        });
    }
    report.check(pass.solos == first.solos, 1, || "solo runs differ between passes".into());
    for (job, reference) in pass.jobs.iter().zip(&first.jobs) {
        report.check(job.result == reference.result, 1, || {
            format!("{}: result differs between passes", job.scheme)
        });
    }
}

fn weighted_speedup(result: &SimResult, solos: &[CoreResult]) -> f64 {
    let solo: Vec<f64> = solos.iter().map(|c| c.ipc).collect();
    MultiProgramMetrics::new(&result.ipcs(), &solo).weighted_speedup
}

/// Distinct program counters of the mix: each trace site has its own PC
/// on each core.
fn pc_count(mix: &Mix) -> usize {
    mix.workloads()
        .iter()
        .map(|w| w.spec().phases.iter().map(|p| p.sites.len()).sum::<usize>())
        .sum()
}

/// Runs the workload.
pub fn run(settings: &Settings) -> Report {
    let mix = mix();
    let schemes = Scheme::headline_suite();
    let mut report = Report::default();
    report.line(format!(
        "sim_suite: {} ({}) on SimConfig::baseline(4), warm-up {WARMUP} + measure {MEASURE} \
         accesses per core, {TRACES} traces from seed {}, schemes {}",
        mix.name(),
        mix.workloads().iter().map(|w| w.name()).collect::<Vec<_>>().join(","),
        settings.seed,
        schemes.iter().map(Scheme::name).collect::<Vec<_>>().join(",")
    ));
    let pcs = pc_count(&mix);
    report.line(format!(
        "input properties: {pcs} PCs (insertion classes) against {TRACKER_SLOTS} tracker slots; \
         keys are line addresses of the trace model"
    ));
    let mut clock = HostClock::new();
    if settings.trace {
        traced(settings, &mix, &schemes, &mut clock, &mut report);
        return report;
    }
    // Pass `i` simulates trace `i % TRACES`; `firsts[k]` is trace k's
    // first pass, which every later pass of that trace must reproduce.
    let mut passes: Vec<Pass> = Vec::new();
    let mut firsts: Vec<usize> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let k = passes.len() % TRACES;
        let config = config(trace_seed(settings.seed, k));
        let pass = untraced_pass(&mut clock, &config, &mix, &schemes);
        let first = firsts.get(k).map_or(&pass, |&i| &passes[i]);
        check_pass(&mut report, &config, &pass, first);
        if passes.is_empty() {
            peak_rss = peak_rss_mib();
        }
        if firsts.len() == k {
            firsts.push(passes.len());
        }
        passes.push(pass);
        if passes.len() >= TRACES && settings.expired() {
            break;
        }
    }
    report.attempted = passes.iter().map(|p| (p.jobs.len() + p.solos.len()) as u64).sum();

    let mut hit_rates = Vec::new();
    for (k, &i) in firsts.iter().enumerate() {
        let first = &passes[i];
        let lru = weighted_speedup(&first.jobs[0].result, &first.solos);
        let nucache = first.jobs.last().expect("the suite ends with NUcache");
        let ws = weighted_speedup(&nucache.result, &first.solos);
        let (hits, lookups) = first.jobs.iter().fold((0, 0), |(h, n), j| {
            (h + j.result.llc_totals.hits, n + j.result.llc_totals.accesses())
        });
        hit_rates.push(hits as f64 / lookups as f64);
        report.line(format!(
            "trace {k} (seed {}): weighted_speedup NUcache {ws:.6}, LRU {lru:.6}, NUcache/LRU {:.6}; LLC hit rate \
             NUcache {:.6}, all schemes {:.6}",
            trace_seed(settings.seed, k),
            ws / lru,
            nucache.result.llc_totals.hit_rate(),
            hits as f64 / lookups as f64
        ));
    }
    for (j, scheme) in schemes.iter().enumerate() {
        let times: Vec<f64> = passes.iter().map(|p| p.jobs[j].time.norm_s).collect();
        let raw: Vec<f64> = passes.iter().map(|p| p.jobs[j].time.raw_s).collect();
        let accesses: Vec<f64> = passes.iter().map(|p| p.jobs[j].accesses as f64).collect();
        report.line(format!(
            "job {:<11} median {:.4} s (raw {:.4} s), median {:.0} accesses, over {} passes",
            scheme.name(),
            median(&times),
            median(&raw),
            median(&accesses),
            times.len()
        ));
    }

    let mut total = Timed::default();
    let mut accesses = 0;
    for job in passes.iter().flat_map(|p| &p.jobs) {
        total.add(job.time);
        accesses += job.accesses;
    }
    // One latency per distinct (trace, scheme) job: the median of its
    // repeats in this run.
    let mut job_us: Vec<f64> = Vec::new();
    for k in 0..TRACES {
        for j in 0..schemes.len() {
            let repeats: Vec<f64> = passes
                .iter()
                .skip(k)
                .step_by(TRACES)
                .map(|p| p.jobs[j].time.norm_s * 1e6)
                .collect();
            job_us.push(median(&repeats));
        }
    }
    job_us.sort_by(f64::total_cmp);
    let (p50, beyond50) = order_stat(&job_us, 0.50);
    let (p99, beyond99) = order_stat(&job_us, 0.99);
    let setups: Vec<f64> = passes.iter().map(|p| p.setup.norm_s).collect();
    let setup_raw: Vec<f64> = passes.iter().map(|p| p.setup.raw_s).collect();
    let ops = accesses as f64 / total.norm_s;
    let hit_rate = hit_rates.iter().sum::<f64>() / hit_rates.len() as f64;
    report.line(format!(
        "setup_s {:.6} s (raw {:.6} s), median of {} set-ups (4 solo-LRU runs + 5 LLC builds)",
        median(&setups),
        median(&setup_raw),
        setups.len()
    ));
    report.line(format!(
        "ops_per_s {ops:.1} simulated accesses/s (raw {:.1}) over {} jobs",
        accesses as f64 / total.raw_s,
        passes.len() * schemes.len()
    ));
    report.line(format!(
        "latency_p50_us {p50:.1} us, latency_p99_us {p99:.1} us per job; {} samples (each the median of a \
         (trace, scheme) job's {} or more repeats), {beyond50} beyond p50, {beyond99} beyond p99",
        job_us.len(),
        passes.len() / TRACES
    ));
    report.line(format!(
        "hit_rate {hit_rate:.6}: LLC lookups served over the five schemes' measurement windows, mean of the \
         {TRACES} traces (exact for the seed)"
    ));
    report.line(format!(
        "host: median reference rate {:.0} lookups/s, speed {:.4} of nominal",
        clock.median_rate(),
        clock.host_speed()
    ));
    let values = [
        ("setup_s", median(&setups)),
        ("ops_per_s", ops),
        ("latency_p50_us", p50),
        ("latency_p99_us", p99),
        ("hit_rate", hit_rate),
        ("peak_rss_mib", peak_rss),
    ];
    report.metrics_from(END_TO_END, &values);
    report
}

/// An LLC wrapper that records which core made each call, and where the
/// statistics were reset, and forwards everything else.
struct Recorder<L> {
    inner: L,
    cores: Vec<u8>,
    reset_at: Option<usize>,
}

impl<L: SharedLlc> SharedLlc for Recorder<L> {
    fn access(&mut self, core: CoreId, pc: Pc, line: LineAddr, kind: AccessKind) -> AccessOutcome {
        self.cores.push(core.index() as u8);
        self.inner.access(core, pc, line, kind)
    }
    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }
    fn core_stats(&self) -> &[CacheStats] {
        self.inner.core_stats()
    }
    fn reset_stats(&mut self) {
        self.reset_at = Some(self.cores.len());
        self.inner.reset_stats();
    }
    fn geometry(&self) -> &CacheGeometry {
        self.inner.geometry()
    }
    fn scheme_name(&self) -> String {
        self.inner.scheme_name()
    }
    fn set_telemetry(&mut self, enabled: bool) {
        self.inner.set_telemetry(enabled);
    }
    fn drain_events(&mut self) -> Vec<Event> {
        self.inner.drain_events()
    }
    fn set_audit(&mut self, enabled: bool) {
        self.inner.set_audit(enabled);
    }
    fn audit_stats(&self) -> Option<AuditStats> {
        self.inner.audit_stats()
    }
}

/// What a recorded job left behind.
struct Recording {
    result: SimResult,
    cores: Vec<u8>,
    reset_at: usize,
    stats: CacheStats,
    core_stats: Vec<CacheStats>,
}

fn record<L: SharedLlc>(config: &SimConfig, mix: &Mix, llc: L) -> (Recording, L) {
    let mut rec = Recorder { inner: llc, cores: Vec::new(), reset_at: None };
    let result = run_mix_on(config, mix, &mut rec);
    let recording = Recording {
        result,
        reset_at: rec.reset_at.expect("the driver resets LLC statistics after warm-up"),
        cores: rec.cores,
        stats: *rec.inner.stats(),
        core_stats: rec.inner.core_stats().to_vec(),
    };
    (recording, rec.inner)
}

/// NUcache internals read after a recorded job.
struct KernelView {
    deli_hit_share: f64,
    match_rate: f64,
    epochs: u64,
}

/// One LLC call rebuilt by the replay.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LlcCall {
    pc: Pc,
    line: LineAddr,
    kind: AccessKind,
}

/// One core of the replay: its trace generator and private hierarchy,
/// and the LLC calls they produced that the merge has not used yet.
struct CoreReplay {
    gen: TraceGen,
    hierarchy: PrivateHierarchy,
    buf: Vec<Access>,
    pending: VecDeque<LlcCall>,
}

/// Raw nanoseconds and counts of one replay.
#[derive(Default, Clone, Copy)]
struct ReplayCost {
    trace_ns: f64,
    hierarchy_ns: f64,
    llc_ns: f64,
    accesses: u64,
    /// Accesses that missed the private hierarchy.
    demand: u64,
    calls: u64,
}

impl CoreReplay {
    fn new(config: &SimConfig, mix: &Mix, core: usize) -> Self {
        let id = CoreId::new(core as u8);
        CoreReplay {
            gen: TraceGen::new(&mix.workloads()[core].spec(), id, config.seed),
            hierarchy: PrivateHierarchy::new(id, config.l1, config.l2),
            buf: vec![Access::new(id, Pc::new(0), Addr::new(0), AccessKind::Read); GEN_CHUNK],
            pending: VecDeque::new(),
        }
    }

    /// Generates the next [`GEN_CHUNK`] accesses and walks them through
    /// the private hierarchy, queueing the LLC calls exactly as the
    /// driver issues them (a write-back first, then the demand access).
    fn advance(&mut self, tracer: &mut Tracer, parent: u32, cost: &mut ReplayCost) {
        let t0 = tracer.now();
        for block in self.buf.chunks_mut(TRACE_BLOCK) {
            self.gen.fill_block(block);
        }
        let t1 = tracer.now();
        for a in &self.buf {
            let line = a.addr.line(BLOCK_BITS);
            if let PrivateOutcome::LlcAccess { writeback } =
                self.hierarchy.access(a.pc, line, a.kind)
            {
                if let Some(wb) = writeback {
                    self.pending.push_back(LlcCall { pc: a.pc, line: wb, kind: AccessKind::Write });
                }
                self.pending.push_back(LlcCall { pc: a.pc, line, kind: a.kind });
                cost.demand += 1;
            }
        }
        let t2 = tracer.now();
        tracer.leaf(parent, "trace.fill_block", t0, t1);
        tracer.leaf(parent, "hierarchy.access", t1, t2);
        cost.trace_ns += (t1 - t0) as f64;
        cost.hierarchy_ns += (t2 - t1) as f64;
        cost.accesses += GEN_CHUNK as u64;
    }

    /// Advances until at least `n` LLC calls are queued.
    fn fill_to(&mut self, n: usize, tracer: &mut Tracer, parent: u32, cost: &mut ReplayCost) {
        while self.pending.len() < n {
            self.advance(tracer, parent, cost);
        }
    }
}

/// Rebuilds the recorded job's LLC call stream and replays it into
/// `llc`; returns the cost and whether the replayed statistics equal the
/// recorded run's.
fn replay<L: SharedLlc>(
    mut llc: L,
    config: &SimConfig,
    mix: &Mix,
    rec: &Recording,
    tracer: &mut Tracer,
    parent: u32,
) -> (ReplayCost, bool) {
    let mut cost = ReplayCost::default();
    let mut cores: Vec<CoreReplay> =
        (0..mix.num_cores()).map(|c| CoreReplay::new(config, mix, c)).collect();
    let mut merged: Vec<(CoreId, LlcCall)> = Vec::with_capacity(LLC_CHUNK);
    let mut need = vec![0usize; cores.len()];
    for (chunk, seq) in rec.cores.chunks(LLC_CHUNK).enumerate() {
        need.iter_mut().for_each(|n| *n = 0);
        for &c in seq {
            need[c as usize] += 1;
        }
        for (core, &n) in cores.iter_mut().zip(&need) {
            core.fill_to(n, tracer, parent, &mut cost);
        }
        merged.clear();
        for &c in seq {
            let call = cores[c as usize].pending.pop_front().expect("filled above");
            merged.push((CoreId::new(c), call));
        }
        let base = chunk * LLC_CHUNK;
        let t0 = tracer.now();
        for (k, &(core, call)) in merged.iter().enumerate() {
            if base + k == rec.reset_at {
                llc.reset_stats();
            }
            llc.access(core, call.pc, call.line, call.kind);
        }
        let t1 = tracer.now();
        tracer.leaf(parent, "llc.access", t0, t1);
        cost.llc_ns += (t1 - t0) as f64;
    }
    if rec.reset_at == rec.cores.len() {
        llc.reset_stats();
    }
    cost.calls = rec.cores.len() as u64;
    let same = *llc.stats() == rec.stats && llc.core_stats() == rec.core_stats.as_slice();
    (cost, same)
}

/// Per-scheme results of one traced pass.
struct TracedJob {
    scheme: String,
    /// Untraced job time (this pass's untraced copy), normalised.
    job_s: f64,
    accesses: u64,
    traced_s: f64,
    /// Replay cost, normalised ns.
    cost: ReplayCost,
}

fn traced(
    settings: &Settings,
    mix: &Mix,
    schemes: &[Scheme],
    clock: &mut HostClock,
    report: &mut Report,
) {
    let mut tracer = Tracer::new();
    let mut jobs: Vec<TracedJob> = Vec::new();
    let mut solo_s: Vec<f64> = Vec::new();
    let mut kernel = KernelView { deli_hit_share: 0.0, match_rate: 0.0, epochs: 0 };
    let mut passes = 0;
    loop {
        let config = &config(trace_seed(settings.seed, passes % TRACES));
        passes += 1;
        let pass = untraced_pass(clock, config, mix, schemes);
        check_pass(report, config, &pass, &pass);
        report.attempted += (2 * (pass.jobs.len() + pass.solos.len())) as u64;
        let pass_span = tracer.id();
        let pass_start = tracer.now();

        let mut solos = Vec::new();
        let solo_time = Timed::of(&clock.sliced(1, |_| {
            for w in mix.workloads() {
                let t0 = tracer.now();
                solos.push(run_solo(config, *w));
                let t1 = tracer.now();
                tracer.leaf(pass_span, "evaluator.run_solo", t0, t1);
            }
        }));
        solo_s.push(solo_time.norm_s);
        report.check(solos == pass.solos, 1, || "traced solo runs differ from untraced".into());

        for (scheme, job) in schemes.iter().zip(&pass.jobs) {
            let mut built = Some(scheme.build_concrete(config.llc, config.num_cores, config.seed));
            let mut recording = None;
            let job_span = tracer.id();
            let traced_time = Timed::of(&clock.sliced(1, |_| {
                let t0 = tracer.now();
                recording = Some(match built.take().expect("built once per job") {
                    BuiltLlc::NuCache(llc) => {
                        let (rec, llc) = record(config, mix, llc);
                        let hits = llc.stats().hits.max(1);
                        let recorded = llc.monitor().recorded().max(1);
                        kernel = KernelView {
                            deli_hit_share: llc.deli_hits() as f64 / hits as f64,
                            match_rate: llc.monitor().matched() as f64 / recorded as f64,
                            epochs: llc.epochs(),
                        };
                        rec
                    }
                    other => with_llc!(other, llc => record(config, mix, llc).0),
                });
                tracer.record(job_span, pass_span, "driver.run_mix_on", t0, tracer.now());
            }));
            take_simulated_accesses();
            let rec = recording.expect("the traced job ran");
            report.check(rec.result == job.result, 1, || {
                format!("{}: traced run_mix_on result differs from run_mix", job.scheme)
            });

            let replay_span = tracer.id();
            let mut outcome = None;
            let replay_time = Timed::of(&clock.sliced(1, |_| {
                let r0 = tracer.now();
                let fresh = scheme.build_concrete(config.llc, config.num_cores, config.seed);
                outcome =
                    Some(with_llc!(fresh, llc => replay(llc, config, mix, &rec, &mut tracer, replay_span)));
                tracer.record(replay_span, pass_span, "replay", r0, tracer.now());
            }));
            let (mut cost, same) = outcome.expect("the replay ran");
            report.check(same, 1, || {
                format!("{}: replayed LLC statistics differ from the run's", job.scheme)
            });
            let factor = replay_time.norm_s / replay_time.raw_s;
            cost.trace_ns *= factor;
            cost.hierarchy_ns *= factor;
            cost.llc_ns *= factor;
            jobs.push(TracedJob {
                scheme: job.scheme.clone(),
                job_s: job.time.norm_s,
                accesses: job.accesses,
                traced_s: traced_time.norm_s,
                cost,
            });
        }
        tracer.record(pass_span, 0, "pass", pass_start, tracer.now());
        if settings.expired() {
            break;
        }
    }

    report.line("where the time goes (traced run, per job, normalised; driver = job - trace - hierarchy - llc):");
    let mut values: Vec<(&str, f64)> = Vec::new();
    let mut sum = ReplayCost::default();
    let (mut job_ns, mut traced_ns, mut job_accesses) = (0.0, 0.0, 0u64);
    for (i, scheme) in schemes.iter().enumerate() {
        let mine: Vec<&TracedJob> = jobs.iter().skip(i).step_by(schemes.len()).collect();
        let n = mine.len() as f64;
        let job = mine.iter().map(|j| j.job_s).sum::<f64>() * 1e9 / n;
        let trace = mine
            .iter()
            .map(|j| j.cost.trace_ns / j.cost.accesses as f64 * j.accesses as f64)
            .sum::<f64>()
            / n;
        let hier = mine
            .iter()
            .map(|j| j.cost.hierarchy_ns / j.cost.accesses as f64 * j.accesses as f64)
            .sum::<f64>()
            / n;
        let llc = mine.iter().map(|j| j.cost.llc_ns).sum::<f64>() / n;
        let driver = job - trace - hier - llc;
        let pct = |x: f64| 100.0 * x / job;
        report.line(format!(
            "  {:<11} job {:>8.1} ms = trace {:>7.1} ms ({:>4.1}%) + hierarchy {:>7.1} ms ({:>4.1}%) + llc {:>7.1} ms \
             ({:>4.1}%) + driver {:>7.1} ms ({:>4.1}%)",
            mine[0].scheme,
            job / 1e6,
            trace / 1e6,
            pct(trace),
            hier / 1e6,
            pct(hier),
            llc / 1e6,
            pct(llc),
            driver / 1e6,
            pct(driver)
        ));
        let calls: u64 = mine.iter().map(|j| j.cost.calls).sum();
        let llc_name = match scheme {
            Scheme::Lru => "llc.lru.ns_per_access",
            Scheme::Ucp => "llc.ucp.ns_per_access",
            Scheme::Pipp => "llc.pipp.ns_per_access",
            Scheme::Tadip => "llc.tadip.ns_per_access",
            Scheme::NuCache(_) => "llc.nucache.ns_per_access",
            other => unreachable!("{other} is not a headline scheme"),
        };
        values.push((llc_name, llc * n / calls as f64));
        for j in &mine {
            sum.trace_ns += j.cost.trace_ns;
            sum.hierarchy_ns += j.cost.hierarchy_ns;
            sum.llc_ns += j.cost.llc_ns;
            sum.accesses += j.cost.accesses;
            sum.demand += j.cost.demand;
            sum.calls += j.cost.calls;
            job_ns += j.job_s * 1e9;
            traced_ns += j.traced_s * 1e9;
            job_accesses += j.accesses;
        }
    }
    let passes = passes as f64;
    let trace_ns = sum.trace_ns / sum.accesses as f64;
    let hier_ns = sum.hierarchy_ns / sum.accesses as f64;
    let driver_ns =
        (job_ns - (trace_ns + hier_ns) * job_accesses as f64 - sum.llc_ns) / job_accesses as f64;
    values.extend([
        ("trace.ns_per_access", trace_ns),
        ("hierarchy.ns_per_access", hier_ns),
        ("hierarchy.llc_share", sum.demand as f64 / sum.accesses as f64),
        ("llc.accesses", sum.calls as f64 / passes),
        ("driver.self_ns_per_access", driver_ns),
        ("evaluator.solo_s", median(&solo_s)),
        ("kernel.deli_hit_share", kernel.deli_hit_share),
        ("monitor.match_rate", kernel.match_rate),
        ("selector.epochs", kernel.epochs as f64),
        ("bench.host_speed", clock.host_speed()),
        ("bench.trace_overhead", traced_ns / job_ns - 1.0),
    ]);
    report.line(format!(
        "traced passes {passes}; recorder overhead {:.4} (traced run_mix_on / untraced run_mix - 1)",
        traced_ns / job_ns - 1.0
    ));
    let path = settings.out.join("spans-sim_suite.csv");
    match tracer.write_csv(&path) {
        Ok(()) => report.line(format!(
            "spans: first {} of {} written to {}",
            tracer.spans.len(),
            tracer.recorded(),
            path.display()
        )),
        Err(e) => report.fail(1, format!("writing {}: {e}", path.display())),
    }
    report.metrics_from(PER_LAYER, &values);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every LLC call in full.
    struct FullRecorder<L> {
        inner: Recorder<L>,
        calls: Vec<Vec<LlcCall>>,
    }

    impl<L: SharedLlc> SharedLlc for FullRecorder<L> {
        fn access(
            &mut self,
            core: CoreId,
            pc: Pc,
            line: LineAddr,
            kind: AccessKind,
        ) -> AccessOutcome {
            self.calls[core.index()].push(LlcCall { pc, line, kind });
            self.inner.access(core, pc, line, kind)
        }
        fn stats(&self) -> &CacheStats {
            self.inner.stats()
        }
        fn core_stats(&self) -> &[CacheStats] {
            self.inner.core_stats()
        }
        fn reset_stats(&mut self) {
            self.inner.reset_stats();
        }
        fn geometry(&self) -> &CacheGeometry {
            self.inner.geometry()
        }
        fn scheme_name(&self) -> String {
            self.inner.scheme_name()
        }
    }

    fn small_config() -> SimConfig {
        SimConfig::demo().with_cores(4).with_run_lengths(2_000, 8_000).with_seed(7)
    }

    fn rebuilt_streams_match<L: SharedLlc>(llc: L, config: &SimConfig, mix: &Mix, scheme: &Scheme) {
        let mut full = FullRecorder {
            inner: Recorder { inner: llc, cores: Vec::new(), reset_at: None },
            calls: vec![Vec::new(); mix.num_cores()],
        };
        run_mix_on(config, mix, &mut full);
        let mut tracer = Tracer::new();
        let mut cost = ReplayCost::default();
        for (core, calls) in full.calls.iter().enumerate() {
            let recorded = full.inner.cores.iter().filter(|&&c| c as usize == core).count();
            assert_eq!(recorded, calls.len());
            let mut replay = CoreReplay::new(config, mix, core);
            replay.fill_to(recorded, &mut tracer, 0, &mut cost);
            let rebuilt: Vec<LlcCall> = replay.pending.iter().take(recorded).copied().collect();
            assert_eq!(&rebuilt, calls, "{scheme}: core {core} LLC stream differs");
        }
    }

    #[test]
    fn hierarchy_replay_reproduces_recorded_llc_calls() {
        let config = small_config();
        let mix = mix();
        for scheme in [Scheme::Ucp, Scheme::nucache_default()] {
            let built = scheme.build_concrete(config.llc, config.num_cores, config.seed);
            with_llc!(built, llc => rebuilt_streams_match(llc, &config, &mix, &scheme));
        }
    }

    #[test]
    fn llc_replay_reproduces_run_statistics() {
        let config = small_config();
        let mix = mix();
        let scheme = Scheme::nucache_default();
        let built = scheme.build_concrete(config.llc, config.num_cores, config.seed);
        let rec = with_llc!(built, llc => record(&config, &mix, llc).0);
        assert_eq!(rec.result, run_mix(&config, &mix, &scheme));
        let fresh = scheme.build_concrete(config.llc, config.num_cores, config.seed);
        let mut tracer = Tracer::new();
        let (cost, same) =
            with_llc!(fresh, llc => replay(llc, &config, &mix, &rec, &mut tracer, 0));
        assert!(same);
        assert_eq!(cost.calls as usize, rec.cores.len());
    }
}
