//! Epoch-level telemetry: the event model and pluggable event sinks.
//!
//! The abstract's mechanism — DelinquentPC monitoring, Next-Use
//! histograms, cost-benefit PC selection — is driven entirely by
//! per-epoch statistics, but end-of-run aggregates cannot show *why* a
//! selection flipped mid-run. This module defines the shared vocabulary
//! for recording that evolution:
//!
//! * [`Event`] — the epoch-granular things a simulation can report:
//!   run banners, periodic LLC counter snapshots, and NUcache selection
//!   epochs (chosen PC set, cost-benefit scores, Next-Use summaries,
//!   DeliWays occupancy);
//! * [`EventSink`] — the consumer interface. Simulation code holds a
//!   `&mut dyn EventSink` and never knows where events go;
//! * [`NullSink`] — the zero-cost default: reports itself disabled so
//!   producers skip snapshot construction entirely;
//! * [`CounterSink`] — tallies event counts and final LLC totals, for
//!   tests that cross-check telemetry against the simulator's own
//!   counters;
//! * [`JsonlSink`] — serializes each event as one JSON line through
//!   [`crate::json`], the machine-readable format the `report` binary
//!   and the run manifests consume.
//!
//! Events are emitted at epoch granularity (every ~100k accesses), never
//! per access, so a run with telemetry enabled performs the same
//! simulation work as one without — a property the sim crate's
//! determinism tests assert.

use crate::json::JsonValue;
use crate::stats::CacheStats;
use crate::Pc;
use std::io::Write;

/// Which simulation stage an LLC snapshot belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Cache warm-up; statistics are discarded before measurement.
    Warmup,
    /// The measured window every reported number comes from.
    Measure,
}

impl Stage {
    /// Stable lowercase name used in JSONL streams.
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Warmup => "warmup",
            Stage::Measure => "measure",
        }
    }

    /// Inverse of [`Stage::name`].
    pub fn from_name(name: &str) -> Option<Stage> {
        match name {
            "warmup" => Some(Stage::Warmup),
            "measure" => Some(Stage::Measure),
            _ => None,
        }
    }
}

/// Per-PC state captured at a selection epoch: fills, whether the PC was
/// chosen, and a summary of its Next-Use histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct PcSnapshot {
    /// The delinquent PC.
    pub pc: Pc,
    /// Combined fill count over the decayed window (demand misses +
    /// DeliWays insertions).
    pub fills: u64,
    /// Whether the selector admitted this PC to the DeliWays.
    pub chosen: bool,
    /// Samples in the PC's Next-Use histogram (0 = none recorded).
    pub samples: u64,
    /// Next-Use distance quantiles in set-accesses (`None` when the
    /// histogram is empty or the mass sits in the overflow bucket).
    pub p25: Option<u64>,
    /// Median Next-Use distance.
    pub p50: Option<u64>,
    /// 75th-percentile Next-Use distance.
    pub p75: Option<u64>,
    /// 90th-percentile Next-Use distance.
    pub p90: Option<u64>,
}

/// One epoch-granular telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Emitted once at the start of a telemetered run.
    RunStart {
        /// Mix name.
        mix: String,
        /// Scheme name (as the LLC reports it).
        scheme: String,
        /// Core count.
        cores: u64,
        /// Simulation seed.
        seed: u64,
    },
    /// Periodic LLC counter snapshot (cumulative within the stage).
    LlcEpoch {
        /// Stage the counters accumulate over.
        stage: Stage,
        /// 0-based snapshot index within the stage.
        index: u64,
        /// Total accesses issued by all cores in the stage so far.
        accesses: u64,
        /// Cumulative per-core LLC counters.
        per_core: Vec<CacheStats>,
        /// Cumulative aggregate LLC counters (includes write-backs, so
        /// it is not simply the sum of `per_core`).
        totals: CacheStats,
    },
    /// A NUcache PC-selection epoch: what the monitor saw and what the
    /// cost-benefit pass decided.
    SelectionEpoch {
        /// 1-based selection epoch counter.
        epoch: u64,
        /// Accesses in the decayed selection window (the cost model's
        /// fill-rate denominator).
        window_accesses: u64,
        /// PCs admitted to the DeliWays, ascending.
        chosen: Vec<Pc>,
        /// The selector's objective value (expected DeliWays hits).
        expected_hits: u64,
        /// Extra lifetime (set-accesses) the chosen set enjoys.
        extra_lifetime: u64,
        /// Cumulative DeliWays hits at this epoch.
        deli_hits: u64,
        /// Cumulative MainWays→DeliWays transfers at this epoch.
        deli_fills: u64,
        /// Valid lines currently resident in DeliWays across all sets.
        deli_occupancy: u64,
        /// Total DeliWays line slots (occupancy denominator).
        deli_capacity: u64,
        /// The top candidate PCs presented to the selector, with their
        /// Next-Use evidence, ordered by descending fills.
        top_pcs: Vec<PcSnapshot>,
    },
    /// Emitted once at the end of a telemetered run with the frozen
    /// per-core results.
    RunEnd {
        /// Scheme name.
        scheme: String,
        /// Measured IPC per core.
        ipcs: Vec<f64>,
        /// Frozen per-core LLC counters (measurement window).
        per_core: Vec<CacheStats>,
        /// Aggregate LLC counters over the measurement window.
        totals: CacheStats,
    },
}

fn stats_json(s: &CacheStats) -> JsonValue {
    JsonValue::obj(vec![
        ("hits", s.hits.into()),
        ("misses", s.misses.into()),
        ("evictions", s.evictions.into()),
        ("writebacks", s.writebacks.into()),
    ])
}

fn stats_from_json(v: &JsonValue) -> Option<CacheStats> {
    Some(CacheStats {
        hits: v.get("hits")?.as_u64()?,
        misses: v.get("misses")?.as_u64()?,
        evictions: v.get("evictions")?.as_u64()?,
        writebacks: v.get("writebacks")?.as_u64()?,
    })
}

fn opt_u64_json(v: Option<u64>) -> JsonValue {
    v.map_or(JsonValue::Null, JsonValue::from)
}

impl Event {
    /// The stable `type` tag this event serializes under.
    pub(crate) const fn type_name(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run_start",
            Event::LlcEpoch { .. } => "llc_epoch",
            Event::SelectionEpoch { .. } => "selection_epoch",
            Event::RunEnd { .. } => "run_end",
        }
    }

    /// Serializes the event to the JSON object the JSONL streams carry.
    pub fn to_json(&self) -> JsonValue {
        match self {
            Event::RunStart { mix, scheme, cores, seed } => JsonValue::obj(vec![
                ("type", self.type_name().into()),
                ("mix", mix.as_str().into()),
                ("scheme", scheme.as_str().into()),
                ("cores", (*cores).into()),
                ("seed", (*seed).into()),
            ]),
            Event::LlcEpoch { stage, index, accesses, per_core, totals } => JsonValue::obj(vec![
                ("type", self.type_name().into()),
                ("stage", stage.name().into()),
                ("index", (*index).into()),
                ("accesses", (*accesses).into()),
                ("per_core", JsonValue::Arr(per_core.iter().map(stats_json).collect())),
                ("totals", stats_json(totals)),
            ]),
            Event::SelectionEpoch {
                epoch,
                window_accesses,
                chosen,
                expected_hits,
                extra_lifetime,
                deli_hits,
                deli_fills,
                deli_occupancy,
                deli_capacity,
                top_pcs,
            } => JsonValue::obj(vec![
                ("type", self.type_name().into()),
                ("epoch", (*epoch).into()),
                ("window_accesses", (*window_accesses).into()),
                ("chosen", JsonValue::Arr(chosen.iter().map(|pc| pc.0.into()).collect())),
                ("expected_hits", (*expected_hits).into()),
                ("extra_lifetime", (*extra_lifetime).into()),
                ("deli_hits", (*deli_hits).into()),
                ("deli_fills", (*deli_fills).into()),
                ("deli_occupancy", (*deli_occupancy).into()),
                ("deli_capacity", (*deli_capacity).into()),
                (
                    "top_pcs",
                    JsonValue::Arr(
                        top_pcs
                            .iter()
                            .map(|p| {
                                JsonValue::obj(vec![
                                    ("pc", p.pc.0.into()),
                                    ("fills", p.fills.into()),
                                    ("chosen", p.chosen.into()),
                                    ("samples", p.samples.into()),
                                    ("p25", opt_u64_json(p.p25)),
                                    ("p50", opt_u64_json(p.p50)),
                                    ("p75", opt_u64_json(p.p75)),
                                    ("p90", opt_u64_json(p.p90)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Event::RunEnd { scheme, ipcs, per_core, totals } => JsonValue::obj(vec![
                ("type", self.type_name().into()),
                ("scheme", scheme.as_str().into()),
                ("ipcs", JsonValue::Arr(ipcs.iter().map(|&i| i.into()).collect())),
                ("per_core", JsonValue::Arr(per_core.iter().map(stats_json).collect())),
                ("totals", stats_json(totals)),
            ]),
        }
    }

    /// Reconstructs an event from its JSON form (inverse of
    /// [`Event::to_json`]); `None` when the object is not a well-formed
    /// event.
    pub fn from_json(v: &JsonValue) -> Option<Event> {
        let stats_vec = |key: &str| -> Option<Vec<CacheStats>> {
            v.get(key)?.as_arr()?.iter().map(stats_from_json).collect()
        };
        match v.get("type")?.as_str()? {
            "run_start" => Some(Event::RunStart {
                mix: v.get("mix")?.as_str()?.to_string(),
                scheme: v.get("scheme")?.as_str()?.to_string(),
                cores: v.get("cores")?.as_u64()?,
                seed: v.get("seed")?.as_u64()?,
            }),
            "llc_epoch" => Some(Event::LlcEpoch {
                stage: Stage::from_name(v.get("stage")?.as_str()?)?,
                index: v.get("index")?.as_u64()?,
                accesses: v.get("accesses")?.as_u64()?,
                per_core: stats_vec("per_core")?,
                totals: stats_from_json(v.get("totals")?)?,
            }),
            "selection_epoch" => Some(Event::SelectionEpoch {
                epoch: v.get("epoch")?.as_u64()?,
                window_accesses: v.get("window_accesses")?.as_u64()?,
                chosen: v
                    .get("chosen")?
                    .as_arr()?
                    .iter()
                    .map(|p| p.as_u64().map(Pc::new))
                    .collect::<Option<Vec<Pc>>>()?,
                expected_hits: v.get("expected_hits")?.as_u64()?,
                extra_lifetime: v.get("extra_lifetime")?.as_u64()?,
                deli_hits: v.get("deli_hits")?.as_u64()?,
                deli_fills: v.get("deli_fills")?.as_u64()?,
                deli_occupancy: v.get("deli_occupancy")?.as_u64()?,
                deli_capacity: v.get("deli_capacity")?.as_u64()?,
                top_pcs: v
                    .get("top_pcs")?
                    .as_arr()?
                    .iter()
                    .map(|p| {
                        Some(PcSnapshot {
                            pc: Pc::new(p.get("pc")?.as_u64()?),
                            fills: p.get("fills")?.as_u64()?,
                            chosen: p.get("chosen")?.as_bool()?,
                            samples: p.get("samples")?.as_u64()?,
                            p25: p.get("p25")?.as_u64(),
                            p50: p.get("p50")?.as_u64(),
                            p75: p.get("p75")?.as_u64(),
                            p90: p.get("p90")?.as_u64(),
                        })
                    })
                    .collect::<Option<Vec<PcSnapshot>>>()?,
            }),
            "run_end" => Some(Event::RunEnd {
                scheme: v.get("scheme")?.as_str()?.to_string(),
                ipcs: v
                    .get("ipcs")?
                    .as_arr()?
                    .iter()
                    .map(JsonValue::as_f64)
                    .collect::<Option<Vec<f64>>>()?,
                per_core: stats_vec("per_core")?,
                totals: stats_from_json(v.get("totals")?)?,
            }),
            _ => None,
        }
    }
}

/// Consumer of telemetry events.
///
/// Producers must call [`EventSink::is_enabled`] before building
/// expensive snapshots, so a disabled sink costs one branch per epoch
/// and nothing else.
pub trait EventSink {
    /// Consumes one event.
    fn record_event(&mut self, event: &Event);

    /// Consumes one event, surfacing I/O failure eagerly.
    ///
    /// In-memory sinks cannot fail and use the default (record_event, then
    /// `Ok`); file-backed sinks override this so producers that *can*
    /// degrade gracefully — drop telemetry, keep simulating — learn
    /// about a dead stream at the first failing write instead of at
    /// teardown. [`EventSink::record_event`] remains infallible for producers
    /// that defer error handling to the sink.
    ///
    /// # Errors
    ///
    /// Returns the I/O error that prevented the event from being
    /// durably recorded.
    fn try_record(&mut self, event: &Event) -> std::io::Result<()> {
        self.record_event(event);
        Ok(())
    }

    /// Whether producers should bother constructing events at all.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// The zero-cost default sink: discards everything and tells producers
/// not to construct events in the first place.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record_event(&mut self, _event: &Event) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// Tallies events and remembers the final counters, for cross-checking
/// telemetry against the simulator's own statistics.
#[derive(Debug, Clone, Default)]
pub struct CounterSink {
    /// Events seen, by type: (run_start, llc_epoch, selection_epoch,
    /// run_end).
    pub run_starts: u64,
    /// `llc_epoch` events seen.
    pub llc_epochs: u64,
    /// `selection_epoch` events seen.
    pub selection_epochs: u64,
    /// `run_end` events seen.
    pub run_ends: u64,
    /// Aggregate LLC counters from the last `run_end`.
    pub final_totals: CacheStats,
    /// Per-core LLC counters from the last `run_end`.
    pub final_per_core: Vec<CacheStats>,
    /// Distinct chosen-PC sets observed across selection epochs, in
    /// order (selection churn is `transitions()`).
    pub chosen_history: Vec<Vec<Pc>>,
}

impl CounterSink {
    /// Total events consumed.
    pub fn total(&self) -> u64 {
        self.run_starts + self.llc_epochs + self.selection_epochs + self.run_ends
    }
}

impl EventSink for CounterSink {
    fn record_event(&mut self, event: &Event) {
        match event {
            Event::RunStart { .. } => self.run_starts += 1,
            Event::LlcEpoch { .. } => self.llc_epochs += 1,
            Event::SelectionEpoch { chosen, .. } => {
                self.selection_epochs += 1;
                self.chosen_history.push(chosen.clone());
            }
            Event::RunEnd { per_core, totals, .. } => {
                self.run_ends += 1;
                self.final_totals = *totals;
                self.final_per_core = per_core.clone();
            }
        }
    }
}

/// Serializes each event as one JSON line into a writer.
///
/// The stream is machine-readable by design: `report` and the
/// regeneration workflow documented in `README.md` parse it back through
/// [`crate::json::parse_jsonl`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    lines: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Creates a sink writing to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink { out, lines: 0, error: None }
    }

    /// Lines written so far.
    pub const fn lines(&self) -> u64 {
        self.lines
    }

    /// Marks the sink as failed with `error`, as if a write had failed;
    /// later records are dropped and [`JsonlSink::finish`] returns the
    /// error. No-op when a real error is already recorded.
    ///
    /// This is the hook deterministic fault injection
    /// ([`crate::fault::FaultSite::TelemetryWrite`]) uses to exercise
    /// the degraded-stream paths without an actually failing filesystem.
    pub fn inject_error(&mut self, error: std::io::Error) {
        if self.error.is_none() {
            self.error = Some(error);
        }
    }

    /// Flushes and returns the writer; surfaces any I/O error swallowed
    /// during recording (sinks must not perturb simulations, so write
    /// errors are deferred to here).
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered while recording or
    /// flushing.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl JsonlSink<std::io::BufWriter<std::fs::File>> {
    /// Creates a sink writing to a freshly created file (parent
    /// directories are created as needed).
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be created.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        Ok(JsonlSink::new(std::io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn record_event(&mut self, event: &Event) {
        let _ = self.try_record(event);
    }

    fn try_record(&mut self, event: &Event) -> std::io::Result<()> {
        // A failed stream stays failed: report the original failure
        // (by kind and message — `io::Error` is not `Clone`) so a
        // producer polling `try_record` sees a stable diagnosis.
        if let Some(e) = &self.error {
            return Err(std::io::Error::new(e.kind(), e.to_string()));
        }
        let line = event.to_json().to_string_compact();
        if let Err(e) = writeln!(self.out, "{line}") {
            let reported = std::io::Error::new(e.kind(), e.to_string());
            self.error = Some(e);
            return Err(reported);
        }
        self.lines += 1;
        Ok(())
    }
}

#[cfg(test)]
impl CounterSink {
    /// Number of epochs whose chosen set differed from the previous
    /// epoch's (selection churn).
    fn transitions(&self) -> u64 {
        self.chosen_history.windows(2).filter(|w| w[0] != w[1]).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RunStart {
                mix: "mix2_01".into(),
                scheme: "nucache-d8".into(),
                cores: 2,
                seed: 7,
            },
            Event::LlcEpoch {
                stage: Stage::Measure,
                index: 0,
                accesses: 100_000,
                per_core: vec![
                    CacheStats { hits: 10, misses: 5, evictions: 4, writebacks: 1 },
                    CacheStats { hits: 20, misses: 2, evictions: 2, writebacks: 0 },
                ],
                totals: CacheStats { hits: 30, misses: 7, evictions: 6, writebacks: 1 },
            },
            Event::SelectionEpoch {
                epoch: 3,
                window_accesses: 123_456,
                chosen: vec![Pc::new(0x400), Pc::new(0x520)],
                expected_hits: 900,
                extra_lifetime: 640,
                deli_hits: 1_000,
                deli_fills: 2_000,
                deli_occupancy: 512,
                deli_capacity: 1024,
                top_pcs: vec![PcSnapshot {
                    pc: Pc::new(0x400),
                    fills: 321,
                    chosen: true,
                    samples: 900,
                    p25: Some(63),
                    p50: Some(63),
                    p75: Some(127),
                    p90: None,
                }],
            },
            Event::RunEnd {
                scheme: "nucache-d8".into(),
                ipcs: vec![0.5, 0.25],
                per_core: vec![CacheStats::default(), CacheStats::default()],
                totals: CacheStats { hits: 40, misses: 9, evictions: 8, writebacks: 2 },
            },
        ]
    }

    #[test]
    fn events_round_trip_through_json() {
        for e in sample_events() {
            let back = Event::from_json(&e.to_json()).expect("parses back");
            assert_eq!(back, e);
        }
    }

    #[test]
    fn jsonl_sink_round_trips_through_parser() {
        let events = sample_events();
        let mut sink = JsonlSink::new(Vec::new());
        for e in &events {
            sink.record_event(e);
        }
        assert_eq!(sink.lines(), events.len() as u64);
        let bytes = sink.finish().expect("no io error");
        let text = String::from_utf8(bytes).expect("utf8");
        let parsed = json::parse_jsonl(&text).expect("valid jsonl");
        let back: Vec<Event> = parsed.iter().map(|v| Event::from_json(v).expect("event")).collect();
        assert_eq!(back, events);
    }

    #[test]
    fn null_sink_reports_disabled() {
        let sink = NullSink;
        assert!(!sink.is_enabled());
        // And the trait default is enabled:
        assert!(CounterSink::default().is_enabled());
    }

    #[test]
    fn counter_sink_tallies_and_tracks_churn() {
        let mut sink = CounterSink::default();
        for e in sample_events() {
            sink.record_event(&e);
        }
        assert_eq!(sink.run_starts, 1);
        assert_eq!(sink.llc_epochs, 1);
        assert_eq!(sink.selection_epochs, 1);
        assert_eq!(sink.run_ends, 1);
        assert_eq!(sink.total(), 4);
        assert_eq!(sink.final_totals.hits, 40);
        // Churn: identical -> no transition; changed -> transition.
        let sel = |pcs: Vec<u64>| Event::SelectionEpoch {
            epoch: 0,
            window_accesses: 0,
            chosen: pcs.into_iter().map(Pc::new).collect(),
            expected_hits: 0,
            extra_lifetime: 0,
            deli_hits: 0,
            deli_fills: 0,
            deli_occupancy: 0,
            deli_capacity: 0,
            top_pcs: Vec::new(),
        };
        let mut churn = CounterSink::default();
        churn.record_event(&sel(vec![1, 2]));
        churn.record_event(&sel(vec![1, 2]));
        churn.record_event(&sel(vec![1, 3]));
        assert_eq!(churn.transitions(), 1);
    }

    #[test]
    fn try_record_surfaces_injected_errors_eagerly() {
        let mut sink = JsonlSink::new(Vec::new());
        let events = sample_events();
        sink.try_record(&events[0]).expect("in-memory write succeeds");
        sink.inject_error(std::io::Error::other("injected fault: telemetry-write"));
        let err = sink.try_record(&events[1]).expect_err("failed stream stays failed");
        assert!(err.to_string().contains("injected fault"));
        assert_eq!(sink.lines(), 1, "no lines counted after the failure");
        // record() keeps swallowing, finish() still surfaces the error.
        sink.record_event(&events[2]);
        let err = sink.finish().expect_err("finish reports the first error");
        assert!(err.to_string().contains("injected fault"));
    }

    #[test]
    fn stage_names_round_trip() {
        for s in [Stage::Warmup, Stage::Measure] {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Stage::from_name("bogus"), None);
    }

    #[test]
    fn malformed_events_rejected() {
        assert!(Event::from_json(&json::parse(r#"{"type":"unknown"}"#).unwrap()).is_none());
        assert!(Event::from_json(&json::parse(r#"{"no_type":1}"#).unwrap()).is_none());
        assert!(
            Event::from_json(&json::parse(r#"{"type":"run_start","mix":"m"}"#).unwrap()).is_none()
        );
    }
}
