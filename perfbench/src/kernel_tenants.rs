//! `kernel_tenants`: one thread drives a bare `NucacheKernel<u64>` with
//! 16-key requests (a `get`, then a `put` on a miss) from ~4k tenants,
//! each its own insertion class, with Zipf popularity. Tenants loop over
//! private working sets, scan, or draw keys at random, and one tenant in
//! [`ALIGNED_ONE_IN`] issues 64-byte-aligned keys. Both of the kernel's
//! input cliffs are on this path: more classes than the 256-slot
//! delinquency tracker holds, and strided keys that land in few sets.
//!
//! A pass is `init` plus a fixed warm-up (the set-up time), then the
//! measured requests, each timed on its own. Passes repeat until the
//! time budget is spent and must reproduce the first pass's hit count.
//!
//! The traced copy runs the kernel in deferred-selection mode, taking,
//! computing and installing each selection right after the boundary
//! `get` — the inline selection, split so its computation can be timed.
//! It times one request in [`SAMPLE_ONE_IN`] call by call, and records
//! the class of every `get` miss so a clone of the kernel's delinquency
//! tracker can be replayed and timed on its own afterwards.

use crate::host::{median, order_stat, peak_rss_mib, HostClock, Timed, Tracer};
use crate::rng::{Rng, Zipf};
use crate::{Report, Settings, END_TO_END, PER_LAYER, REQUEST_KEYS};
use nucache_kernel::{DelinquentTracker, InsertionClass, KernelConfig, Lookup, NucacheKernel};
use std::hint::black_box;

/// Tenants, one insertion class each.
pub const TENANTS: usize = 4096;
/// Zipf exponent of tenant popularity.
const ZIPF_S: f64 = 0.8;
/// One tenant in this many issues 64-byte-aligned keys.
const ALIGNED_ONE_IN: u64 = 8;
/// Requests of the warm-up that set-up time includes.
const WARMUP_REQUESTS: usize = 16_000;
/// Measured requests per pass.
const MEASURE_REQUESTS: usize = 60_000;
/// The traced copy times one request in this many, call by call.
const SAMPLE_ONE_IN: usize = 64;
/// Slots of the kernel's delinquency tracker.
const TRACKER_SLOTS: usize = 256;
/// Marks an epoch boundary in the recorded miss-class sequence.
const BOUNDARY: u32 = u32::MAX;

/// The kernel under test: the library defaults (1024 sets x 16 ways, 8
/// of them DeliWays, 100k-access epochs).
fn kernel_config() -> KernelConfig {
    KernelConfig::default()
}

/// The value stored for `key`; a hit must return exactly this.
fn value_of(key: u64) -> u64 {
    key.rotate_left(17) ^ 0x5a5a_0f0f_a5a5_f0f0
}

#[derive(Clone, Copy)]
enum Pattern {
    /// Cycles over a private working set of this many keys.
    Loop(u64),
    /// Never repeats a key.
    Scan,
    /// Uniform over this many private keys.
    Random(u64),
}

struct Tenant {
    pattern: Pattern,
    aligned: bool,
    base: u64,
    cursor: u64,
}

impl Tenant {
    fn key(&mut self, id: usize, rng: &mut Rng) -> u64 {
        let offset = match self.pattern {
            Pattern::Loop(len) => {
                self.cursor += 1;
                self.cursor % len
            }
            Pattern::Scan => {
                self.cursor += 1;
                self.cursor
            }
            Pattern::Random(range) => rng.below(range),
        };
        let local = (self.base + offset) << if self.aligned { 6 } else { 0 };
        ((id as u64 + 1) << 40) | local
    }
}

/// One request: 16 keys of one tenant.
#[derive(Clone, PartialEq, Debug)]
pub struct Request {
    /// The tenant, which is also the insertion class.
    pub class: u32,
    /// Keys in request order.
    pub keys: [u64; REQUEST_KEYS],
}

/// The request streams of one seed.
pub struct Inputs {
    /// Requests of the warm-up.
    pub warmup: Vec<Request>,
    /// Measured requests.
    pub measure: Vec<Request>,
    /// Whether each tenant issues aligned keys.
    pub aligned: Vec<bool>,
}

/// The tenant at popularity `rank`. The population's shape is fixed by
/// rank, so the hit rate barely depends on the seed: every fourth rank
/// scans, one in four draws at random, the rest loop, and one rank in
/// [`ALIGNED_ONE_IN`] loops over 64-byte-aligned keys.
fn tenant(rank: usize, rng: &mut Rng) -> Tenant {
    let size = (rank / 4) as u64;
    let pattern = match rank % 4 {
        1 => Pattern::Scan,
        2 => Pattern::Random(4096 << (size % 5)),
        _ => Pattern::Loop(32 << (size % 7)),
    };
    let aligned = rank as u64 % ALIGNED_ONE_IN == 3;
    Tenant { pattern, aligned, base: rng.below(1 << 20), cursor: 0 }
}

/// Generates the inputs for `seed`: which class each rank gets, key
/// placement and every draw depend on it.
pub fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 0x7e4a);
    let mut by_rank: Vec<Tenant> = (0..TENANTS).map(|rank| tenant(rank, &mut rng)).collect();
    // Rank -> class id, so class ids say nothing about load.
    let mut class_of: Vec<usize> = (0..TENANTS).collect();
    for i in (1..TENANTS).rev() {
        class_of.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let zipf = Zipf::new(TENANTS, ZIPF_S);
    let mut request = |rng: &mut Rng| {
        let rank = zipf.sample(rng);
        let id = class_of[rank];
        let tenant = &mut by_rank[rank];
        let mut keys = [0; REQUEST_KEYS];
        for k in &mut keys {
            *k = tenant.key(id, rng);
        }
        Request { class: id as u32, keys }
    };
    let warmup = (0..WARMUP_REQUESTS).map(|_| request(&mut rng)).collect();
    let measure = (0..MEASURE_REQUESTS).map(|_| request(&mut rng)).collect();
    let mut aligned = vec![false; TENANTS];
    for (rank, t) in by_rank.iter().enumerate() {
        aligned[class_of[rank]] = t.aligned;
    }
    Inputs { warmup, measure, aligned }
}

/// Shares of measured lookups whose class is outside the 256 busiest
/// classes (the tracker cannot hold them all), and that use aligned keys.
fn input_shares(inputs: &Inputs) -> (f64, f64) {
    let mut per_class = vec![0u64; TENANTS];
    for r in &inputs.measure {
        per_class[r.class as usize] += REQUEST_KEYS as u64;
    }
    let total: u64 = per_class.iter().sum();
    let aligned: u64 =
        per_class.iter().zip(&inputs.aligned).filter(|(_, &a)| a).map(|(n, _)| n).sum();
    per_class.sort_unstable_by(|a, b| b.cmp(a));
    let beyond: u64 = per_class[TRACKER_SLOTS..].iter().sum();
    (beyond as f64 / total as f64, aligned as f64 / total as f64)
}

/// Counters of one pass.
#[derive(Default, Clone, Copy, PartialEq, Debug)]
struct Counts {
    gets: u64,
    hits: u64,
    puts: u64,
    /// Hits whose value was not the one stored for the key.
    bad: u64,
}

/// Serves one request untraced.
fn serve(kernel: &mut NucacheKernel<u64>, r: &Request, c: &mut Counts) {
    let class = InsertionClass::new(u64::from(r.class));
    for &key in &r.keys {
        c.gets += 1;
        match kernel.get(key, class) {
            Lookup::Hit { value, .. } => {
                c.hits += 1;
                c.bad += u64::from(*value != value_of(key));
            }
            Lookup::Miss => {
                c.puts += 1;
                black_box(kernel.put(key, class, value_of(key)));
            }
        }
    }
}

/// State the traced copy keeps beside the kernel.
struct TraceState {
    tracer: Tracer,
    /// Classes of `get` misses in order, with [`BOUNDARY`] where each
    /// selection epoch opened.
    misses: Vec<u32>,
    epoch_len: u64,
}

/// Serves one request traced: deferred selection installed right after
/// the boundary `get`, miss classes recorded, and, when `sampled`, a
/// span around the request and around each kernel call.
fn serve_traced(
    kernel: &mut NucacheKernel<u64>,
    r: &Request,
    c: &mut Counts,
    t: &mut TraceState,
    sampled: bool,
) {
    let class = InsertionClass::new(u64::from(r.class));
    let request_span = if sampled { t.tracer.id() } else { 0 };
    let start = if sampled { t.tracer.now() } else { 0 };
    for &key in &r.keys {
        c.gets += 1;
        if c.gets.is_multiple_of(t.epoch_len) {
            t.misses.push(BOUNDARY);
        }
        let t0 = if sampled { t.tracer.now() } else { 0 };
        let hit = match kernel.get(key, class) {
            Lookup::Hit { value, .. } => {
                c.bad += u64::from(*value != value_of(key));
                true
            }
            Lookup::Miss => false,
        };
        if sampled {
            let name = if hit { "kernel.get.hit" } else { "kernel.get.miss" };
            t.tracer.leaf(request_span, name, t0, t.tracer.now());
        }
        if kernel.selection_due() {
            let inputs = kernel.take_epoch_inputs().expect("a due selection has inputs");
            let s0 = t.tracer.now();
            let selection = inputs.compute();
            t.tracer.leaf(request_span, "selector.compute", s0, t.tracer.now());
            kernel.install_selection(inputs, selection);
        }
        if hit {
            c.hits += 1;
        } else {
            t.misses.push(r.class);
            c.puts += 1;
            let p0 = if sampled { t.tracer.now() } else { 0 };
            black_box(kernel.put(key, class, value_of(key)));
            if sampled {
                t.tracer.leaf(request_span, "kernel.put", p0, t.tracer.now());
            }
        }
    }
    if sampled {
        t.tracer.record(request_span, 0, "request", start, t.tracer.now());
    }
}

/// One pass's timings and end state.
struct Pass {
    setup: Timed,
    measure: Timed,
    /// Normalised per-request latencies, microseconds.
    latencies_us: Vec<f64>,
    warm: Counts,
    counts: Counts,
    kernel_hits: u64,
    kernel_misses: u64,
    len: usize,
    capacity: usize,
    deli_hits: u64,
    matched: u64,
    recorded: u64,
    epochs: u64,
    tracker_top: Vec<(InsertionClass, u64)>,
}

/// Runs one pass; `trace` selects the traced copy.
fn pass(
    clock: &mut HostClock,
    inputs: &Inputs,
    mut trace: Option<&mut TraceState>,
) -> (Pass, Option<DelinquentTracker<InsertionClass>>) {
    let mut kernel: Option<NucacheKernel<u64>> = None;
    let mut warm = Counts::default();
    let mut tracker = None;
    let setup = Timed::of(&clock.sliced(inputs.warmup.len() + 1, |i| {
        if i == 0 {
            let mut k = NucacheKernel::init(kernel_config())
                .expect("the default kernel configuration is valid");
            if trace.is_some() {
                k.set_deferred_selection(true);
                tracker = Some(k.tracker().clone());
            }
            kernel = Some(k);
            return;
        }
        let k = kernel.as_mut().expect("built by unit 0");
        match trace.as_deref_mut() {
            Some(t) => serve_traced(k, &inputs.warmup[i - 1], &mut warm, t, false),
            None => serve(k, &inputs.warmup[i - 1], &mut warm),
        }
    }));
    let mut kernel = kernel.expect("built by unit 0");
    let mut counts = Counts { gets: warm.gets, ..Counts::default() };
    let mut raw_ns = vec![0u64; inputs.measure.len()];
    let slices = clock.sliced(inputs.measure.len(), |i| {
        let t0 = std::time::Instant::now();
        match trace.as_deref_mut() {
            Some(t) => serve_traced(
                &mut kernel,
                &inputs.measure[i],
                &mut counts,
                t,
                i % SAMPLE_ONE_IN == 0,
            ),
            None => serve(&mut kernel, &inputs.measure[i], &mut counts),
        }
        raw_ns[i] = t0.elapsed().as_nanos() as u64;
    });
    counts.gets -= warm.gets;
    let mut latencies_us = Vec::with_capacity(raw_ns.len());
    for s in &slices {
        latencies_us.extend(raw_ns[s.start..s.end].iter().map(|&ns| ns as f64 * s.factor / 1e3));
    }
    let pass = Pass {
        setup,
        measure: Timed::of(&slices),
        latencies_us,
        warm,
        counts,
        kernel_hits: kernel.hits(),
        kernel_misses: kernel.misses(),
        len: kernel.len(),
        capacity: kernel.capacity(),
        deli_hits: kernel.deli_hits(),
        matched: kernel.monitor().matched(),
        recorded: kernel.monitor().recorded(),
        epochs: kernel.epochs(),
        tracker_top: kernel.tracker().top_k(kernel.tracker().len()),
    };
    (pass, tracker)
}

/// The output checks of one pass against the first.
fn check_pass(report: &mut Report, p: &Pass, first: &Pass, label: &str) {
    let ops = p.counts.gets + p.counts.puts;
    let lookups = p.warm.gets + p.counts.gets;
    report.check(p.warm.bad + p.counts.bad == 0, p.warm.bad + p.counts.bad, || {
        format!(
            "{label}: {} hits returned a value not stored for the key",
            p.warm.bad + p.counts.bad
        )
    });
    report.check(p.kernel_hits + p.kernel_misses == lookups, 1, || {
        format!(
            "{label}: kernel hits {} + misses {} != lookups {lookups}",
            p.kernel_hits, p.kernel_misses
        )
    });
    report.check(p.kernel_hits == p.warm.hits + p.counts.hits, 1, || {
        format!(
            "{label}: kernel hits {} != hits served {}",
            p.kernel_hits,
            p.warm.hits + p.counts.hits
        )
    });
    report.check(p.len <= p.capacity, 1, || {
        format!("{label}: {} resident > capacity {}", p.len, p.capacity)
    });
    report.check(p.counts == first.counts && p.warm == first.warm, ops, || {
        format!(
            "{label}: hit counts differ from the first pass ({:?} vs {:?})",
            p.counts, first.counts
        )
    });
}

fn ops(p: &Pass) -> u64 {
    p.counts.gets + p.counts.puts
}

/// Runs the workload.
pub fn run(settings: &Settings) -> Report {
    let inputs = generate(settings.seed);
    let mut report = Report::default();
    let config = kernel_config();
    report.line(format!(
        "kernel_tenants: NucacheKernel<u64> {} sets x {} ways ({} DeliWays), epoch {} lookups; {TENANTS} tenants \
         (Zipf {ZIPF_S}), {REQUEST_KEYS}-key requests, warm-up {WARMUP_REQUESTS} + measure {MEASURE_REQUESTS} \
         requests per pass, seed {}",
        config.sets, config.ways, config.deli_ways, config.epoch_len, settings.seed
    ));
    let (untrackable, strided) = input_shares(&inputs);
    report.line(format!(
        "input properties: {untrackable:.4} of lookups from classes beyond the {TRACKER_SLOTS} busiest \
         (tracker cannot hold), {strided:.4} with 64-byte-strided keys"
    ));
    let mut clock = HostClock::new();
    if settings.trace {
        traced(settings, &inputs, &mut clock, &mut report);
        return report;
    }
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let (p, _) = pass(&mut clock, &inputs, None);
        check_pass(&mut report, &p, passes.first().unwrap_or(&p), "pass");
        if passes.is_empty() {
            peak_rss = peak_rss_mib();
        }
        passes.push(p);
        if settings.expired() {
            break;
        }
    }
    report.attempted = passes.iter().map(|p| ops(p) + p.warm.gets + p.warm.puts).sum();
    let first = &passes[0];
    let hit_rate = first.counts.hits as f64 / first.counts.gets as f64;
    let mut measure = Timed::default();
    let mut all_ops = 0;
    let mut lat: Vec<f64> = Vec::new();
    for p in &passes {
        measure.add(p.measure);
        all_ops += ops(p);
        lat.extend_from_slice(&p.latencies_us);
    }
    lat.sort_by(f64::total_cmp);
    let (p50, beyond50) = order_stat(&lat, 0.50);
    let (p99, beyond99) = order_stat(&lat, 0.99);
    let setups: Vec<f64> = passes.iter().map(|p| p.setup.norm_s).collect();
    let setup_raw: Vec<f64> = passes.iter().map(|p| p.setup.raw_s).collect();
    let ops_per_s = all_ops as f64 / measure.norm_s;
    report.line(format!(
        "setup_s {:.6} s (raw {:.6} s), median of {} set-ups (init + {WARMUP_REQUESTS}-request warm-up)",
        median(&setups),
        median(&setup_raw),
        setups.len()
    ));
    report.line(format!(
        "ops_per_s {ops_per_s:.1} key ops/s (raw {:.1}) over {all_ops} gets and puts in {} passes",
        all_ops as f64 / measure.raw_s,
        passes.len()
    ));
    report.line(format!(
        "latency_p50_us {p50:.4} us, latency_p99_us {p99:.4} us per {REQUEST_KEYS}-key request; {} samples, \
         {beyond50} beyond p50, {beyond99} beyond p99",
        lat.len()
    ));
    report.line(format!(
        "hit_rate {hit_rate:.6} ({} of {} measured lookups; exact for the seed); {} epochs per pass",
        first.counts.hits, first.counts.gets, first.epochs
    ));
    report.line(format!(
        "host: median reference rate {:.0} lookups/s, speed {:.4} of nominal",
        clock.median_rate(),
        clock.host_speed()
    ));
    let values = [
        ("setup_s", median(&setups)),
        ("ops_per_s", ops_per_s),
        ("latency_p50_us", p50),
        ("latency_p99_us", p99),
        ("hit_rate", hit_rate),
        ("peak_rss_mib", peak_rss),
    ];
    report.metrics_from(END_TO_END, &values);
    report
}

/// Replays `tracker` on the recorded miss classes, timing the
/// `record_miss` runs between epoch boundaries; returns the replayed
/// tracker and the `record_miss` nanoseconds.
fn replay_tracker(
    mut tracker: DelinquentTracker<InsertionClass>,
    misses: &[u32],
    tracer: &mut Tracer,
) -> (DelinquentTracker<InsertionClass>, f64) {
    let parent = tracer.id();
    let start = tracer.now();
    let mut record_ns = 0.0;
    for run in misses.split(|&c| c == BOUNDARY).enumerate() {
        let (i, classes) = run;
        if i > 0 {
            let t0 = tracer.now();
            black_box(tracker.top_k(tracker.len()));
            tracker.decay();
            tracer.leaf(parent, "tracker.epoch", t0, tracer.now());
        }
        let t0 = tracer.now();
        for &c in classes {
            tracker.record_miss(InsertionClass::new(u64::from(c)));
        }
        let t1 = tracer.now();
        tracer.leaf(parent, "tracker.record_miss", t0, t1);
        record_ns += (t1 - t0) as f64;
    }
    tracer.record(parent, 0, "tracker.replay", start, tracer.now());
    (tracker, record_ns)
}

/// Misses from untracked classes while the tracker table is full: each
/// pays the capacity-wide victim scan.
fn full_inserts(mut tracker: DelinquentTracker<InsertionClass>, misses: &[u32]) -> u64 {
    let mut full = 0;
    for &c in misses {
        if c == BOUNDARY {
            tracker.top_k(tracker.len());
            tracker.decay();
            continue;
        }
        let class = InsertionClass::new(u64::from(c));
        full += u64::from(tracker.misses_of(class) == 0 && tracker.len() >= TRACKER_SLOTS);
        tracker.record_miss(class);
    }
    full
}

fn traced(settings: &Settings, inputs: &Inputs, clock: &mut HostClock, report: &mut Report) {
    let mut state = TraceState {
        tracer: Tracer::new(),
        misses: Vec::new(),
        epoch_len: kernel_config().epoch_len,
    };
    let empty_ns = state.tracer.empty_span_ns();
    let (mut plain_ops, mut plain_s, mut traced_ops, mut traced_s) = (0u64, 0.0, 0u64, 0.0);
    let (mut record_ns, mut recorded_misses, mut full, mut traced_passes) = (0.0, 0u64, 0u64, 0u64);
    let mut last;
    let mut first: Option<Pass> = None;
    loop {
        let (plain, _) = pass(clock, inputs, None);
        check_pass(report, &plain, first.as_ref().unwrap_or(&plain), "untraced pass");
        state.misses.clear();
        let (tp, tracker) = pass(clock, inputs, Some(&mut state));
        check_pass(report, &tp, first.as_ref().unwrap_or(&plain), "traced pass");
        report.check(tp.counts.hits == plain.counts.hits, ops(&tp), || {
            format!("traced hits {} != untraced hits {}", tp.counts.hits, plain.counts.hits)
        });
        let tracker = tracker.expect("the traced pass clones the tracker");
        let (replayed, ns) = replay_tracker(tracker.clone(), &state.misses, &mut state.tracer);
        let kernel_top = &tp.tracker_top;
        report.check(&replayed.top_k(replayed.len()) == kernel_top, 1, || {
            "tracker replay ends with a different top_k than the kernel's tracker".into()
        });
        record_ns += ns * clock.host_speed();
        recorded_misses += state.misses.iter().filter(|&&c| c != BOUNDARY).count() as u64;
        full += full_inserts(tracker, &state.misses);
        traced_passes += 1;
        report.attempted += ops(&plain)
            + ops(&tp)
            + plain.warm.gets
            + plain.warm.puts
            + tp.warm.gets
            + tp.warm.puts;
        plain_ops += ops(&plain);
        plain_s += plain.measure.norm_s;
        traced_ops += ops(&tp);
        traced_s += tp.measure.norm_s;
        if first.is_none() {
            first = Some(plain);
        }
        last = Some(tp);
        if settings.expired() {
            break;
        }
    }
    let speed = clock.host_speed();
    let tracer = &state.tracer;
    let mean_call = |name: &str| {
        let (n, total) = tracer.total(name);
        ((total / n.max(1) as f64) - empty_ns).max(0.0) * speed
    };
    let (computes, compute_ns) = tracer.total("selector.compute");
    let last = last.expect("at least one traced pass");
    let values = [
        ("kernel.get_hit_ns", mean_call("kernel.get.hit")),
        ("kernel.get_miss_ns", mean_call("kernel.get.miss")),
        ("kernel.put_ns", mean_call("kernel.put")),
        ("tracker.record_miss_ns", record_ns / recorded_misses.max(1) as f64),
        ("tracker.full_inserts", full as f64 / traced_passes as f64),
        ("selector.compute_us", compute_ns / computes.max(1) as f64 * speed / 1e3),
        ("selector.epochs", last.epochs as f64),
        ("kernel.occupancy", last.len as f64 / last.capacity as f64),
        ("kernel.deli_hit_share", last.deli_hits as f64 / last.kernel_hits.max(1) as f64),
        ("monitor.match_rate", last.matched as f64 / last.recorded.max(1) as f64),
        ("bench.host_speed", speed),
        (
            "bench.trace_overhead",
            (plain_ops as f64 / plain_s) / (traced_ops as f64 / traced_s) - 1.0,
        ),
    ];
    report.line(format!(
        "traced: empty span {empty_ns:.1} ns subtracted from each call span; 1 request in {SAMPLE_ONE_IN} \
         timed call by call; {} selections computed; tracker replayed over {recorded_misses} misses",
        computes
    ));
    let path = settings.out.join("spans-kernel_tenants.csv");
    match state.tracer.write_csv(&path) {
        Ok(()) => report.line(format!(
            "spans: first {} of {} written to {}",
            state.tracer.spans.len(),
            state.tracer.recorded(),
            path.display()
        )),
        Err(e) => report.fail(1, format!("writing {}: {e}", path.display())),
    }
    report.metrics_from(PER_LAYER, &values);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_stream_is_deterministic_for_a_seed() {
        let a = generate(11);
        let b = generate(11);
        assert_eq!(a.warmup, b.warmup);
        assert_eq!(a.measure, b.measure);
        assert_ne!(generate(12).measure, a.measure);
        let (untrackable, strided) = input_shares(&a);
        assert!(untrackable > 0.0 && strided > 0.0, "both cliffs must be on the path");
    }

    #[test]
    fn tracker_replay_matches_the_kernel_tracker() {
        let inputs = generate(5);
        let mut clock = HostClock::new();
        let mut state = TraceState {
            tracer: Tracer::new(),
            misses: Vec::new(),
            epoch_len: kernel_config().epoch_len,
        };
        let (p, tracker) = pass(&mut clock, &inputs, Some(&mut state));
        let (replayed, _) =
            replay_tracker(tracker.expect("cloned at init"), &state.misses, &mut state.tracer);
        assert!(p.epochs > 1);
        assert_eq!(replayed.top_k(replayed.len()), p.tracker_top);
    }
}
