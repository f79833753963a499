//! `serve_rw`: one closed-loop client thread drives
//! `ConcurrentNucache<u64>` — 16 shards of the load generator's shard
//! geometry (`LoadgenConfig::new`), deferred selection on its own
//! `EpochThread` — with 16-key requests over well-mixed keys from 8
//! classes. Requests mix reads that fill on a miss, overwrites of keys
//! read recently, and removes. The stream stays below the tracker's
//! capacity and has no key strides, so it measures the front-end's cost
//! per request (routing, the shard lock, the deferred epoch protocol)
//! and the kernel's write and remove paths, apart from the input cliffs
//! `kernel_tenants` exercises. One client only: on small shared hosts
//! two client threads do not reliably run in parallel.
//!
//! Each pass records what every `get` returned, and afterwards replays
//! the request stream into a model map to check that each hit returned
//! the value last stored for its key.
//!
//! The traced copy drives the deferred selections with a loop identical
//! to `EpochThread` (pump, sleep 1 ms) that times each `pump_epochs`
//! call, and times one request in [`SAMPLE_ONE_IN`] call by call.

use crate::host::{median, order_stat, peak_rss_mib, HostClock, Timed, Tracer};
use crate::rng::{mix, Rng};
use crate::{Report, Settings, END_TO_END, PER_LAYER, REQUEST_KEYS};
use nucache_bench::loadgen::LoadgenConfig;
use nucache_kernel::concurrent::{ConcurrentConfig, ConcurrentNucache, EpochThread};
use nucache_kernel::InsertionClass;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Insertion classes of the stream.
const CLASSES: u64 = 8;
/// Distinct keys per class; 8 x 6144 keys against 32768 slots.
const KEYS_PER_CLASS: u64 = 6144;
/// Share of read keys drawn from the first quarter of a class's keys.
const HOT_SHARE: f64 = 0.8;
/// Writes and removes target keys among the last this many read.
const RECENT: usize = 1024;
/// Requests of the warm-up that set-up time includes.
const WARMUP_REQUESTS: usize = 8_000;
/// Measured requests per pass.
const MEASURE_REQUESTS: usize = 40_000;
/// Percent of requests that overwrite, and that remove; the rest read.
const WRITE_PCT: u64 = 20;
const REMOVE_PCT: u64 = 5;
/// The traced copy times one request in this many, call by call.
const SAMPLE_ONE_IN: usize = 64;
/// Slots of each shard's delinquency tracker.
const TRACKER_SLOTS: usize = 256;
/// Sleep between epoch pumps, as the load generator's epoch thread.
const PUMP_INTERVAL: Duration = Duration::from_millis(1);

/// Shard count and per-shard geometry of the load generator.
fn front_end_config() -> ConcurrentConfig {
    let lg = LoadgenConfig::new(1, Duration::ZERO);
    ConcurrentConfig::new(lg.shards, lg.shard)
}

/// The value a read stores when it misses.
fn fill_value(key: u64) -> u64 {
    mix(key ^ 0xf111)
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    /// `get` each key, `put` its fill value on a miss.
    Read,
    /// `put` a new value for each key.
    Write,
    /// `remove` each key.
    Remove,
}

/// One request: 16 keys of one class.
#[derive(Clone, PartialEq, Debug)]
pub struct Request {
    kind: Kind,
    class: u32,
    keys: [u64; REQUEST_KEYS],
    /// Values a write stores.
    values: [u64; REQUEST_KEYS],
}

/// The request streams of one seed.
pub struct Inputs {
    warmup: Vec<Request>,
    measure: Vec<Request>,
}

/// Generates the inputs for `seed`.
pub fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 0x5e4e);
    let mut recent = vec![0u64; RECENT];
    let mut recent_class = vec![0u32; RECENT];
    let mut next = 0usize;
    let mut seen = 0usize;
    let mut request = |i: usize, rng: &mut Rng| {
        let roll = rng.below(100);
        let kind = if seen < RECENT || roll >= WRITE_PCT + REMOVE_PCT {
            Kind::Read
        } else if roll < WRITE_PCT {
            Kind::Write
        } else {
            Kind::Remove
        };
        let mut keys = [0; REQUEST_KEYS];
        let mut values = [0; REQUEST_KEYS];
        let class;
        if kind == Kind::Read {
            class = rng.below(CLASSES) as u32;
            for k in &mut keys {
                let idx = if rng.unit() < HOT_SHARE {
                    rng.below(KEYS_PER_CLASS / 4)
                } else {
                    rng.below(KEYS_PER_CLASS)
                };
                *k = mix((u64::from(class) << 32) | idx);
                recent[next] = *k;
                recent_class[next] = class;
                next = (next + 1) % RECENT;
                seen += 1;
            }
        } else {
            let pick = rng.below(RECENT as u64) as usize;
            class = recent_class[pick];
            for (j, k) in keys.iter_mut().enumerate() {
                *k = recent[(pick + 31 * j) % RECENT];
                values[j] = mix(*k ^ ((i as u64) << 8 | j as u64));
            }
        }
        Request { kind, class, keys, values }
    };
    let warmup = (0..WARMUP_REQUESTS).map(|i| request(i, &mut rng)).collect();
    let measure = (0..MEASURE_REQUESTS).map(|i| request(WARMUP_REQUESTS + i, &mut rng)).collect();
    Inputs { warmup, measure }
}

/// Counters of one pass phase.
#[derive(Default, Clone, Copy, PartialEq, Debug)]
struct Counts {
    gets: u64,
    hits: u64,
    puts: u64,
    removes: u64,
}

impl Counts {
    fn ops(&self) -> u64 {
        self.gets + self.puts + self.removes
    }
}

/// Runs `$call`, wrapped in a span named `$name` under `$parent` when
/// `$spans` holds a tracer.
macro_rules! call {
    ($spans:expr, $parent:expr, $name:expr, $call:expr) => {
        match $spans.as_deref_mut() {
            Some(t) => {
                let t0 = t.now();
                let out = $call;
                t.leaf($parent, $name, t0, t.now());
                out
            }
            None => $call,
        }
    };
}

/// Serves one request; `spans` times each call under a request span.
fn serve(
    cache: &ConcurrentNucache<u64>,
    r: &Request,
    got: &mut Vec<Option<u64>>,
    c: &mut Counts,
    mut spans: Option<&mut Tracer>,
) {
    let class = InsertionClass::new(u64::from(r.class));
    let (id, start) = match spans.as_deref_mut() {
        Some(t) => (t.id(), t.now()),
        None => (0, 0),
    };
    for (j, &key) in r.keys.iter().enumerate() {
        match r.kind {
            Kind::Read => {
                c.gets += 1;
                let v = call!(spans, id, "concurrent.get", cache.get(key, class));
                got.push(v);
                if v.is_some() {
                    c.hits += 1;
                } else {
                    c.puts += 1;
                    black_box(call!(
                        spans,
                        id,
                        "concurrent.put",
                        cache.put(key, class, fill_value(key))
                    ));
                }
            }
            Kind::Write => {
                c.puts += 1;
                black_box(call!(spans, id, "concurrent.put", cache.put(key, class, r.values[j])));
            }
            Kind::Remove => {
                c.removes += 1;
                black_box(call!(spans, id, "concurrent.remove", cache.remove(key)));
            }
        }
    }
    if let Some(t) = spans {
        t.record(id, 0, "request", start, t.now());
    }
}

/// Hits that returned something other than the value last stored for
/// their key, found by replaying `requests` into a model map.
fn wrong_values<'a>(requests: impl Iterator<Item = &'a Request>, got: &[Option<u64>]) -> u64 {
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut results = got.iter();
    let mut wrong = 0;
    for r in requests {
        for (j, &key) in r.keys.iter().enumerate() {
            match r.kind {
                Kind::Read => match results.next().copied().flatten() {
                    Some(v) => wrong += u64::from(model.get(&key) != Some(&v)),
                    None => {
                        model.insert(key, fill_value(key));
                    }
                },
                Kind::Write => {
                    model.insert(key, r.values[j]);
                }
                Kind::Remove => {
                    model.remove(&key);
                }
            }
        }
    }
    wrong
}

/// The epoch driver of a pass.
enum Pump {
    /// The library's `EpochThread`.
    Plain(EpochThread),
    /// The same loop, timing each `pump_epochs` call.
    Traced(Arc<AtomicBool>, JoinHandle<(u64, Tracer)>),
}

impl Pump {
    fn spawn(cache: &Arc<ConcurrentNucache<u64>>, tracer: Option<&Tracer>) -> Pump {
        let Some(tracer) = tracer else {
            return Pump::Plain(EpochThread::spawn(Arc::clone(cache), PUMP_INTERVAL));
        };
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let cache = Arc::clone(cache);
        let mut spans = tracer.fork();
        let handle = std::thread::spawn(move || {
            let mut installed = 0;
            let pump = |spans: &mut Tracer| {
                let t0 = spans.now();
                let n = cache.pump_epochs() as u64;
                let name = if n > 0 {
                    "concurrent.pump_epochs.install"
                } else {
                    "concurrent.pump_epochs.idle"
                };
                spans.leaf(0, name, t0, spans.now());
                n
            };
            while !flag.load(Ordering::SeqCst) {
                installed += pump(&mut spans);
                std::thread::sleep(PUMP_INTERVAL);
            }
            installed += pump(&mut spans);
            (installed, spans)
        });
        Pump::Traced(stop, handle)
    }

    /// Stops the driver; returns the selections it installed and, when
    /// traced, its spans.
    fn stop(self) -> (u64, Option<Tracer>) {
        match self {
            Pump::Plain(thread) => (thread.stop(), None),
            Pump::Traced(stop, handle) => {
                stop.store(true, Ordering::SeqCst);
                let (installed, spans) = handle.join().expect("the pump loop must not panic");
                (installed, Some(spans))
            }
        }
    }
}

/// One pass's timings and end state.
struct Pass {
    setup: Timed,
    measure: Timed,
    latencies_us: Vec<f64>,
    warm: Counts,
    counts: Counts,
    installs: u64,
    hits: u64,
    misses: u64,
    deli_hits: u64,
    epochs: u64,
    len: u64,
    capacity: u64,
    poison_recoveries: u64,
    shard_lens: Vec<usize>,
    matched: u64,
    recorded: u64,
    wrong: u64,
}

fn pass(clock: &mut HostClock, inputs: &Inputs, mut tracer: Option<&mut Tracer>) -> Pass {
    let config = front_end_config();
    let mut cache: Option<Arc<ConcurrentNucache<u64>>> = None;
    let mut pump = None;
    let reads =
        inputs.warmup.iter().chain(&inputs.measure).filter(|r| r.kind == Kind::Read).count();
    let mut got: Vec<Option<u64>> = Vec::with_capacity(reads * REQUEST_KEYS);
    let mut warm = Counts::default();
    let setup = Timed::of(&clock.sliced(inputs.warmup.len() + 1, |i| {
        if i == 0 {
            let c = Arc::new(
                ConcurrentNucache::init(config).expect("the load generator's geometry is valid"),
            );
            pump = Some(Pump::spawn(&c, tracer.as_deref()));
            cache = Some(c);
            return;
        }
        let c = cache.as_ref().expect("built by unit 0");
        serve(c, &inputs.warmup[i - 1], &mut got, &mut warm, None);
    }));
    let cache = cache.expect("built by unit 0");
    let mut counts = Counts::default();
    let mut raw_ns = vec![0u64; inputs.measure.len()];
    let slices = clock.sliced(inputs.measure.len(), |i| {
        let t0 = Instant::now();
        let spans = if i % SAMPLE_ONE_IN == 0 { tracer.as_deref_mut() } else { None };
        serve(&cache, &inputs.measure[i], &mut got, &mut counts, spans);
        raw_ns[i] = t0.elapsed().as_nanos() as u64;
    });
    let (installs, pump_spans) = pump.expect("spawned by unit 0").stop();
    if let (Some(t), Some(spans)) = (tracer, pump_spans) {
        t.absorb(spans);
    }
    let mut latencies_us = Vec::with_capacity(raw_ns.len());
    for s in &slices {
        latencies_us.extend(raw_ns[s.start..s.end].iter().map(|&ns| ns as f64 * s.factor / 1e3));
    }
    let stats = cache.stats();
    let shard_lens: Vec<usize> =
        (0..cache.shard_count()).map(|i| cache.with_shard(i, |k| k.len())).collect();
    let (matched, recorded) = (0..cache.shard_count())
        .map(|i| cache.with_shard(i, |k| (k.monitor().matched(), k.monitor().recorded())))
        .fold((0, 0), |(m, r), (a, b)| (m + a, r + b));
    Pass {
        setup,
        measure: Timed::of(&slices),
        latencies_us,
        warm,
        counts,
        installs,
        hits: stats.hits,
        misses: stats.misses,
        deli_hits: stats.deli_hits,
        epochs: stats.epochs,
        len: stats.len,
        capacity: (config.shards * config.shard.sets * config.shard.ways) as u64,
        poison_recoveries: stats.poison_recoveries,
        shard_lens,
        matched,
        recorded,
        wrong: wrong_values(inputs.warmup.iter().chain(&inputs.measure), &got),
    }
}

fn check_pass(report: &mut Report, p: &Pass, label: &str) {
    let lookups = p.warm.gets + p.counts.gets;
    report.check(p.wrong == 0, p.wrong, || {
        format!("{label}: {} hits returned a value other than the one last stored", p.wrong)
    });
    report.check(p.hits + p.misses == lookups, 1, || {
        format!("{label}: hits {} + misses {} != lookups {lookups}", p.hits, p.misses)
    });
    report.check(p.hits == p.warm.hits + p.counts.hits, 1, || {
        format!("{label}: shard hits {} != hits served {}", p.hits, p.warm.hits + p.counts.hits)
    });
    report.check(p.len <= p.capacity, 1, || {
        format!("{label}: {} resident > capacity {}", p.len, p.capacity)
    });
    report.check(p.poison_recoveries == 0, 1, || {
        format!("{label}: {} poisoned-shard recoveries", p.poison_recoveries)
    });
}

/// Runs the workload.
pub fn run(settings: &Settings) -> Report {
    let inputs = generate(settings.seed);
    let config = front_end_config();
    let mut report = Report::default();
    report.line(format!(
        "serve_rw: ConcurrentNucache<u64> {} shards of {} sets x {} ways ({} DeliWays, epoch {}), deferred \
         selection, 1 closed-loop client; {CLASSES} classes x {KEYS_PER_CLASS} mixed keys, {REQUEST_KEYS}-key \
         requests ({WRITE_PCT}% overwrite, {REMOVE_PCT}% remove, rest read-fill), warm-up {WARMUP_REQUESTS} + \
         measure {MEASURE_REQUESTS} requests per pass, seed {}",
        config.shards,
        config.shard.sets,
        config.shard.ways,
        config.shard.deli_ways,
        config.shard.epoch_len,
        settings.seed
    ));
    report.line(format!(
        "input properties: 0 of lookups from classes beyond the {TRACKER_SLOTS} busiest ({CLASSES} classes), \
         0 with strided keys (keys are bijectively mixed)"
    ));
    let mut clock = HostClock::new();
    if settings.trace {
        traced(settings, &inputs, &mut clock, &mut report);
        return report;
    }
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let p = pass(&mut clock, &inputs, None);
        check_pass(&mut report, &p, "pass");
        if passes.is_empty() {
            peak_rss = peak_rss_mib();
        }
        passes.push(p);
        if settings.expired() {
            break;
        }
    }
    report.attempted = passes.iter().map(|p| p.warm.ops() + p.counts.ops()).sum();
    let mut measure = Timed::default();
    let mut ops = 0;
    let mut lat: Vec<f64> = Vec::new();
    let mut hits = 0;
    let mut gets = 0;
    for p in &passes {
        measure.add(p.measure);
        ops += p.counts.ops();
        lat.extend_from_slice(&p.latencies_us);
        hits += p.counts.hits;
        gets += p.counts.gets;
    }
    lat.sort_by(f64::total_cmp);
    let (p50, beyond50) = order_stat(&lat, 0.50);
    let (p99, beyond99) = order_stat(&lat, 0.99);
    let setups: Vec<f64> = passes.iter().map(|p| p.setup.norm_s).collect();
    let setup_raw: Vec<f64> = passes.iter().map(|p| p.setup.raw_s).collect();
    let ops_per_s = ops as f64 / measure.norm_s;
    let hit_rate = hits as f64 / gets as f64;
    report.line(format!(
        "setup_s {:.6} s (raw {:.6} s), median of {} set-ups (init + epoch thread + {WARMUP_REQUESTS}-request \
         warm-up)",
        median(&setups),
        median(&setup_raw),
        setups.len()
    ));
    report.line(format!(
        "ops_per_s {ops_per_s:.1} key ops/s (raw {:.1}) over {ops} gets, puts and removes in {} passes",
        ops as f64 / measure.raw_s,
        passes.len()
    ));
    report.line(format!(
        "latency_p50_us {p50:.4} us, latency_p99_us {p99:.4} us per {REQUEST_KEYS}-key request; {} samples, \
         {beyond50} beyond p50, {beyond99} beyond p99",
        lat.len()
    ));
    report.line(format!(
        "hit_rate {hit_rate:.6} ({hits} of {gets} measured lookups over all passes; selection installs are \
         asynchronous, so this varies slightly from pass to pass)"
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

fn traced(settings: &Settings, inputs: &Inputs, clock: &mut HostClock, report: &mut Report) {
    let mut tracer = Tracer::new();
    let empty_ns = tracer.empty_span_ns();
    let (mut plain_ops, mut plain_s, mut traced_ops, mut traced_s) = (0u64, 0.0, 0u64, 0.0);
    let mut last;
    loop {
        let plain = pass(clock, inputs, None);
        check_pass(report, &plain, "untraced pass");
        let tp = pass(clock, inputs, Some(&mut tracer));
        check_pass(report, &tp, "traced pass");
        report.attempted += plain.warm.ops() + plain.counts.ops() + tp.warm.ops() + tp.counts.ops();
        plain_ops += plain.counts.ops();
        plain_s += plain.measure.norm_s;
        traced_ops += tp.counts.ops();
        traced_s += tp.measure.norm_s;
        last = Some(tp);
        if settings.expired() {
            break;
        }
    }
    let last = last.expect("at least one traced pass");
    let speed = clock.host_speed();
    let mean_call = |name: &str| {
        let (n, total) = tracer.total(name);
        ((total / n.max(1) as f64) - empty_ns).max(0.0) * speed
    };
    let (pumps, pump_ns) = tracer.total("concurrent.pump_epochs.install");
    let mean_len = last.shard_lens.iter().sum::<usize>() as f64 / last.shard_lens.len() as f64;
    let max_len = last.shard_lens.iter().copied().max().unwrap_or(0) as f64;
    let values = [
        ("concurrent.get_ns", mean_call("concurrent.get")),
        ("concurrent.put_ns", mean_call("concurrent.put")),
        ("concurrent.remove_ns", mean_call("concurrent.remove")),
        ("concurrent.pump_us", pump_ns / pumps.max(1) as f64 * speed / 1e3),
        ("concurrent.installs", last.installs as f64),
        ("concurrent.shard_skew", max_len / mean_len.max(1.0)),
        ("selector.epochs", last.epochs as f64),
        ("kernel.occupancy", last.len as f64 / last.capacity as f64),
        ("kernel.deli_hit_share", last.deli_hits as f64 / last.hits.max(1) as f64),
        ("monitor.match_rate", last.matched as f64 / last.recorded.max(1) as f64),
        ("bench.host_speed", speed),
        (
            "bench.trace_overhead",
            (plain_ops as f64 / plain_s) / (traced_ops as f64 / traced_s) - 1.0,
        ),
    ];
    report.line(format!(
        "traced: empty span {empty_ns:.1} ns subtracted from each call span; 1 request in {SAMPLE_ONE_IN} timed \
         call by call; {pumps} pumps installed selections, {} idle",
        tracer.total("concurrent.pump_epochs.idle").0
    ));
    let path = settings.out.join("spans-serve_rw.csv");
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

    #[test]
    fn key_stream_is_deterministic_for_a_seed() {
        let a = generate(3);
        let b = generate(3);
        assert_eq!(a.warmup, b.warmup);
        assert_eq!(a.measure, b.measure);
        assert_ne!(generate(4).measure, a.measure);
        let kinds = |k: Kind| a.measure.iter().filter(|r| r.kind == k).count();
        assert!(kinds(Kind::Read) > 0 && kinds(Kind::Write) > 0 && kinds(Kind::Remove) > 0);
    }

    #[test]
    fn model_flags_a_wrong_value() {
        let r = |kind, key, value| Request {
            kind,
            class: 0,
            keys: [key; REQUEST_KEYS],
            values: [value; REQUEST_KEYS],
        };
        let stream = [r(Kind::Write, 7, 70), r(Kind::Read, 7, 0)];
        let right = vec![Some(70); REQUEST_KEYS];
        assert_eq!(wrong_values(stream.iter(), &right), 0);
        let stale = vec![Some(fill_value(7)); REQUEST_KEYS];
        assert_eq!(wrong_values(stream.iter(), &stale), REQUEST_KEYS as u64);
    }
}
