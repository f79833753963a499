//! Host-speed normalisation, order statistics, spans and memory readings.
//!
//! The hosts this benchmark runs on change speed from second to second
//! (shared machines), so a raw wall-clock time cannot tell a 15% gain
//! from noise. Every timed value is therefore measured in slices of about
//! [`SLICE`], each followed by a slice of the frozen reference loop
//! ([`crate::refloop`]), and reported at a nominal host speed:
//! `raw seconds x (reference rate around the slice / NOMINAL_REF_RATE)`.

use crate::refloop::RefLoop;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Workload time between two reference slices.
pub const SLICE: Duration = Duration::from_millis(20);
/// Reference lookups in a reference slice: at least this many (a few
/// milliseconds)...
const REF_SLICE_LOOKUPS: u64 = 50_000;
/// ...and enough to last about this share of the workload slice before
/// it, so a long unit (a whole simulation job) is bracketed by
/// correspondingly long samples of the host speed.
const REF_SHARE: f64 = 0.15;
/// The reference loop's rate, in lookups per second, on the nominal
/// host: about the median over several dozen runs of this benchmark on a
/// 2-vCPU Intel Xeon VM (2 MiB L2 per vCPU, shared 300 MiB L3), where a
/// run's median read from 13 to 22 million and single slices from 9 to
/// 20 million. A normalised time is the time the work would take on that
/// host at its median speed.
pub const NOMINAL_REF_RATE: f64 = 14.5e6;

/// One slice of workload units, with its host-speed factor.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// First unit of the slice.
    pub start: usize,
    /// One past its last unit.
    pub end: usize,
    /// Wall-clock seconds the units took.
    pub raw_s: f64,
    /// Mean reference rate of the slices around it over the nominal
    /// rate: `raw_s * factor` is the time on the nominal host.
    pub factor: f64,
}

impl Slice {
    /// The slice's time on the nominal host.
    pub fn norm_s(&self) -> f64 {
        self.raw_s * self.factor
    }
}

/// Sums of a set of slices.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Wall-clock seconds.
    pub raw_s: f64,
    /// Seconds on the nominal host.
    pub norm_s: f64,
}

impl Timed {
    /// Totals over `slices`.
    pub fn of(slices: &[Slice]) -> Timed {
        Timed {
            raw_s: slices.iter().map(|s| s.raw_s).sum(),
            norm_s: slices.iter().map(Slice::norm_s).sum(),
        }
    }

    /// Adds `other` in place.
    pub fn add(&mut self, other: Timed) {
        self.raw_s += other.raw_s;
        self.norm_s += other.norm_s;
    }
}

/// Runs workload slices between reference slices and keeps every
/// reference rate it measured.
pub struct HostClock {
    refloop: RefLoop,
    /// Reference rates (lookups/s), one per reference slice.
    rates: Vec<f64>,
}

impl HostClock {
    /// A clock whose reference cache has been filled once.
    pub fn new() -> Self {
        let mut clock = HostClock { refloop: RefLoop::new(), rates: Vec::new() };
        // Fill the reference cache so every measured slice sees the
        // same steady state.
        black_box(clock.refloop.run(4_000_000));
        clock.reference(0.0);
        clock
    }

    /// Runs one reference slice after `work_s` seconds of workload and
    /// returns its rate.
    fn reference(&mut self, work_s: f64) -> f64 {
        let last = self.rates.last().copied().unwrap_or(0.0);
        let lookups = REF_SLICE_LOOKUPS.max((work_s * REF_SHARE * last) as u64);
        let t = Instant::now();
        black_box(self.refloop.run(lookups));
        let rate = lookups as f64 / t.elapsed().as_secs_f64();
        self.rates.push(rate);
        rate
    }

    /// Runs `unit(i)` for every `i` in `0..n` in order, cutting the run
    /// into slices of about [`SLICE`] with a reference slice after each.
    /// A unit longer than a slice forms a slice of its own.
    pub fn sliced(&mut self, n: usize, mut unit: impl FnMut(usize)) -> Vec<Slice> {
        let mut slices = Vec::new();
        let mut i = 0;
        while i < n {
            let before = *self.rates.last().expect("the clock measures a rate at construction");
            let start = i;
            let t = Instant::now();
            loop {
                unit(i);
                i += 1;
                if i == n || t.elapsed() >= SLICE {
                    break;
                }
            }
            let raw_s = t.elapsed().as_secs_f64();
            let after = self.reference(raw_s);
            slices.push(Slice {
                start,
                end: i,
                raw_s,
                factor: (before + after) / 2.0 / NOMINAL_REF_RATE,
            });
        }
        slices
    }

    /// Median reference rate of the run so far.
    pub fn median_rate(&self) -> f64 {
        median(&self.rates)
    }

    /// The run's host speed: median reference rate over the nominal.
    pub fn host_speed(&self) -> f64 {
        self.median_rate() / NOMINAL_REF_RATE
    }
}

/// Median of `values` (mean of the middle pair for an even count); 0
/// for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank order statistic of ascending `sorted` at quantile `q`,
/// with the number of samples ranked beyond it.
pub fn order_stat(sorted: &[f64], q: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within the run; 0 is "no span".
    pub id: u32,
    /// The span that caused this one, or 0.
    pub parent: u32,
    /// Layer boundary, e.g. `kernel.get`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    /// Nanoseconds since the tracer's origin.
    pub end: u64,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn ns(&self) -> f64 {
        (self.end - self.start) as f64
    }
}

/// Spans a tracer keeps for the span file; later spans still count
/// toward the per-name totals.
const KEPT_SPANS: usize = 200_000;

/// In-memory span store, written out when the run ends.
pub struct Tracer {
    origin: Instant,
    next_id: u32,
    /// The first [`KEPT_SPANS`] spans recorded, in completion order.
    pub spans: Vec<Span>,
    /// Count and total nanoseconds of every span recorded, per name.
    totals: Vec<(&'static str, usize, f64)>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), next_id: 0, spans: Vec::new(), totals: Vec::new() }
    }

    /// A tracer for another thread, sharing this one's clock and taking
    /// ids from a range this one will not reach before the fork's spans
    /// are merged back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            next_id: self.next_id + (1 << 24),
            spans: Vec::new(),
            totals: Vec::new(),
        }
    }

    /// Takes the spans of a forked tracer.
    pub fn absorb(&mut self, other: Tracer) {
        self.next_id = self.next_id.max(other.next_id);
        let room = KEPT_SPANS.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
        for (name, n, ns) in other.totals {
            self.add(name, n, ns);
        }
    }

    fn add(&mut self, name: &'static str, n: usize, ns: f64) {
        match self.totals.iter_mut().find(|(t, _, _)| *t == name) {
            Some(t) => {
                t.1 += n;
                t.2 += ns;
            }
            None => self.totals.push((name, n, ns)),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Allocates a span id (before the span's children are recorded).
    pub fn id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// Records a finished span.
    pub fn record(&mut self, id: u32, parent: u32, name: &'static str, start: u64, end: u64) {
        let span = Span { id, parent, name, start, end };
        self.add(name, 1, span.ns());
        if self.spans.len() < KEPT_SPANS {
            self.spans.push(span);
        }
    }

    /// Records a finished span under a fresh id and returns the id.
    pub fn leaf(&mut self, parent: u32, name: &'static str, start: u64, end: u64) -> u32 {
        let id = self.id();
        self.record(id, parent, name, start, end);
        id
    }

    /// Median length of an empty span (two clock reads), in ns: the
    /// fixed cost a one-call span adds to the call it wraps.
    pub fn empty_span_ns(&self) -> f64 {
        let samples: Vec<f64> = (0..20_000)
            .map(|_| {
                let a = self.now();
                let b = self.now();
                (b - a) as f64
            })
            .collect();
        median(&samples)
    }

    /// Number and total nanoseconds of every span named `name`.
    pub fn total(&self, name: &str) -> (usize, f64) {
        self.totals.iter().find(|(t, _, _)| *t == name).map_or((0, 0.0), |&(_, n, ns)| (n, ns))
    }

    /// Spans recorded, kept or not.
    pub fn recorded(&self) -> usize {
        self.totals.iter().map(|&(_, n, _)| n).sum()
    }

    /// Writes every span as CSV (`id,parent,name,start_ns,end_ns`).
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 40 + 32);
        out.push_str("id,parent,name,start_ns,end_ns\n");
        for s in &self.spans {
            let _ = writeln!(out, "{},{},{},{},{}", s.id, s.parent, s.name, s.start, s.end);
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_stats_are_exact_ranks() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(order_stat(&v, 0.5), (100.0, 100));
        assert_eq!(order_stat(&v, 0.99), (198.0, 2));
        assert_eq!(order_stat(&[7.0], 0.99), (7.0, 0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn reference_loop_imports_no_workspace_crate() {
        let src = include_str!("refloop.rs");
        for line in src.lines() {
            let code = line.split("//").next().unwrap_or("").trim();
            if let Some(path) = code.strip_prefix("use ") {
                assert!(
                    path.starts_with("std::") || path.starts_with("core::"),
                    "reference loop imports `{path}`"
                );
            }
            for forbidden in ["nucache", "crate::", "super::", "extern crate"] {
                assert!(!code.contains(forbidden), "reference loop names `{forbidden}`: {line}");
            }
        }
    }
}
