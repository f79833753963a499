//! Renders telemetry JSONL streams back into human-readable epoch
//! timelines (the `report` binary is a thin wrapper over this module).
//!
//! Input is a directory produced by any experiment binary's
//! `--telemetry DIR` flag: one `NNN_mix__scheme.jsonl` stream per
//! simulation plus a `manifest.json`. Output is markdown — a run summary
//! table across streams, then a selection-epoch timeline per NUcache
//! stream showing chosen-set churn and DeliWays occupancy over time.

use nucache_common::json::{self, JsonValue};
use nucache_common::telemetry::{Event, Stage};
use std::fmt::Write as _;
use std::path::Path;

/// One NUcache selection epoch, reduced to timeline columns.
#[derive(Debug, Clone)]
struct SelEpochRow {
    /// Epoch number (as reported by the scheme).
    epoch: u64,
    /// Size of the chosen delinquent-PC set.
    chosen: usize,
    /// PCs newly chosen relative to the previous epoch.
    added: usize,
    /// PCs dropped relative to the previous epoch.
    dropped: usize,
    /// DeliWays hits during the epoch's window.
    deli_hits: u64,
    /// DeliWays fills during the epoch's window.
    deli_fills: u64,
    /// Valid DeliWays lines at the snapshot.
    occupancy: u64,
    /// Total DeliWays lines.
    capacity: u64,
    /// Expected DeliWays hits the selector projected for the epoch.
    expected_hits: u64,
}

/// Everything the report needs from one JSONL stream.
#[derive(Debug, Clone)]
struct StreamSummary {
    /// Stream file name.
    file: String,
    /// Mix simulated.
    mix: String,
    /// Scheme name.
    scheme: String,
    /// `llc_epoch` snapshots seen in the measurement stage.
    measure_epochs: u64,
    /// Selection-epoch timeline (empty for non-NUcache schemes).
    selection: Vec<SelEpochRow>,
    /// Selection churn: epochs whose chosen set differed from the
    /// previous epoch's (the same definition as
    /// `CounterSink::transitions`).
    churn: u64,
    /// Final aggregate LLC hit rate.
    hit_rate: f64,
    /// Final per-core IPCs.
    ipcs: Vec<f64>,
}

/// Parses one JSONL stream file into events.
///
/// # Errors
///
/// Returns an error when the file is unreadable, a line is not valid
/// JSON, or a line is not a recognized event.
fn load_events(path: &Path) -> Result<Vec<Event>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let values =
        json::parse_jsonl(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            Event::from_json(v).ok_or_else(|| {
                format!("{}: line {} is not a telemetry event", path.display(), i + 1)
            })
        })
        .collect()
}

/// Reduces one stream's events to the report's summary form.
fn summarize(file: &str, events: &[Event]) -> StreamSummary {
    let mut summary = StreamSummary {
        file: file.to_string(),
        mix: String::new(),
        scheme: String::new(),
        measure_epochs: 0,
        selection: Vec::new(),
        churn: 0,
        hit_rate: 0.0,
        ipcs: Vec::new(),
    };
    let mut previous_chosen: Option<Vec<nucache_common::Pc>> = None;
    for event in events {
        match event {
            Event::RunStart { mix, scheme, .. } => {
                summary.mix = mix.clone();
                summary.scheme = scheme.clone();
            }
            Event::LlcEpoch { stage: Stage::Measure, .. } => summary.measure_epochs += 1,
            Event::LlcEpoch { .. } => {}
            Event::SelectionEpoch {
                epoch,
                chosen,
                expected_hits,
                deli_hits,
                deli_fills,
                deli_occupancy,
                deli_capacity,
                ..
            } => {
                let (added, dropped) = match &previous_chosen {
                    None => (chosen.len(), 0),
                    Some(prev) => (
                        chosen.iter().filter(|pc| !prev.contains(pc)).count(),
                        prev.iter().filter(|pc| !chosen.contains(pc)).count(),
                    ),
                };
                if previous_chosen.as_ref().is_some_and(|prev| prev != chosen) {
                    summary.churn += 1;
                }
                previous_chosen = Some(chosen.clone());
                summary.selection.push(SelEpochRow {
                    epoch: *epoch,
                    chosen: chosen.len(),
                    added,
                    dropped,
                    deli_hits: *deli_hits,
                    deli_fills: *deli_fills,
                    occupancy: *deli_occupancy,
                    capacity: *deli_capacity,
                    expected_hits: *expected_hits,
                });
            }
            Event::RunEnd { ipcs, totals, .. } => {
                summary.ipcs = ipcs.clone();
                summary.hit_rate = totals.hit_rate();
            }
        }
    }
    summary
}

/// Maximum timeline rows rendered per stream; longer timelines are
/// sampled evenly (first and last epochs always shown).
const MAX_TIMELINE_ROWS: usize = 16;

fn render_manifest(out: &mut String, manifest: &JsonValue) {
    let s = |key: &str| manifest.get(key).and_then(JsonValue::as_str).unwrap_or("?").to_string();
    let n = |key: &str| manifest.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let _ = writeln!(out, "# Telemetry report: {}\n", s("experiment"));
    let _ = writeln!(out, "- git revision: `{}`", s("git_revision"));
    let _ = writeln!(
        out,
        "- wall time: {:.1}s with {} worker thread(s){}",
        n("wall_seconds"),
        n("jobs"),
        if manifest.get("quick").and_then(JsonValue::as_bool) == Some(true) {
            " (quick mode)"
        } else {
            ""
        }
    );
    if let Some(config) = manifest.get("config").filter(|c| !matches!(c, JsonValue::Null)) {
        let c = |key: &str| config.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        let _ = writeln!(
            out,
            "- config: {} core(s), {} KiB {}-way LLC, warmup {} / measure {} accesses per core, seed {}",
            c("num_cores"),
            c("llc_bytes") / 1024,
            c("llc_associativity"),
            c("warmup_accesses"),
            c("measure_accesses"),
            c("seed"),
        );
    }
    let _ = writeln!(out);
}

fn render_summary_table(out: &mut String, streams: &[StreamSummary]) {
    let _ = writeln!(out, "## Streams\n");
    let _ = writeln!(
        out,
        "| stream | mix | scheme | LLC hit rate | sel. epochs | churn | final occupancy |"
    );
    let _ = writeln!(out, "|---|---|---|---:|---:|---:|---:|");
    for s in streams {
        let occupancy = s
            .selection
            .last()
            .map_or("-".to_string(), |e| format!("{}/{}", e.occupancy, e.capacity));
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.3} | {} | {} | {} |",
            s.file,
            s.mix,
            s.scheme,
            s.hit_rate,
            s.selection.len(),
            s.churn,
            occupancy,
        );
    }
    let _ = writeln!(out);
}

fn render_timeline(out: &mut String, s: &StreamSummary) {
    let _ = writeln!(out, "## {} — selection timeline\n", s.file);
    let _ = writeln!(
        out,
        "mix `{}` under `{}`: {} selection epoch(s), churn {} ({} measurement snapshot(s))\n",
        s.mix,
        s.scheme,
        s.selection.len(),
        s.churn,
        s.measure_epochs,
    );
    let _ = writeln!(
        out,
        "| epoch | chosen | +new | -dropped | deli hits | deli fills | occupancy | expected hits |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|---:|---:|---:|");
    let rows = sample_rows(s.selection.len(), MAX_TIMELINE_ROWS);
    for &i in &rows {
        let e = &s.selection[i];
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {}/{} | {} |",
            e.epoch,
            e.chosen,
            e.added,
            e.dropped,
            e.deli_hits,
            e.deli_fills,
            e.occupancy,
            e.capacity,
            e.expected_hits,
        );
    }
    if rows.len() < s.selection.len() {
        let _ = writeln!(out, "\n(showing {} of {} epochs)", rows.len(), s.selection.len());
    }
    let _ = writeln!(out);
}

/// Evenly samples `want` indices out of `0..len`, always keeping the
/// endpoints.
fn sample_rows(len: usize, want: usize) -> Vec<usize> {
    if len <= want {
        return (0..len).collect();
    }
    let mut rows: Vec<usize> = (0..want).map(|k| k * (len - 1) / (want - 1)).collect();
    rows.dedup();
    rows
}

/// Renders the full markdown report for a telemetry directory.
///
/// # Errors
///
/// Returns an error when the directory has no JSONL streams or a stream
/// fails to parse.
pub fn render_report(dir: &Path) -> Result<String, String> {
    let manifest_path = dir.join("manifest.json");
    let manifest = match std::fs::read_to_string(&manifest_path) {
        Ok(text) => Some(
            json::parse(&text).map_err(|e| format!("parsing {}: {e}", manifest_path.display()))?,
        ),
        Err(_) => None,
    };

    let mut files: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".jsonl"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .jsonl streams in {}", dir.display()));
    }

    let mut streams = Vec::new();
    for file in &files {
        let events = load_events(&dir.join(file))?;
        streams.push(summarize(file, &events));
    }

    let mut out = String::new();
    match &manifest {
        Some(m) => render_manifest(&mut out, m),
        None => {
            let _ = writeln!(out, "# Telemetry report: {}\n", dir.display());
        }
    }
    render_summary_table(&mut out, &streams);
    for s in &streams {
        if !s.selection.is_empty() {
            render_timeline(&mut out, s);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucache_common::telemetry::{JsonlSink, PcSnapshot};
    use nucache_common::{CacheStats, EventSink, Pc};

    fn selection(epoch: u64, chosen: &[u64], occupancy: u64) -> Event {
        Event::SelectionEpoch {
            epoch,
            window_accesses: 1000,
            chosen: chosen.iter().map(|&p| Pc(p)).collect(),
            expected_hits: 40,
            extra_lifetime: 800,
            deli_hits: 30,
            deli_fills: 90,
            deli_occupancy: occupancy,
            deli_capacity: 64,
            top_pcs: Vec::<PcSnapshot>::new(),
        }
    }

    fn synthetic_events() -> Vec<Event> {
        let mut totals = CacheStats::default();
        totals.record_hit();
        totals.record_miss();
        vec![
            Event::RunStart { mix: "m".into(), scheme: "nucache-d8".into(), cores: 2, seed: 1 },
            selection(0, &[1, 2], 10),
            selection(1, &[1, 2], 20),
            selection(2, &[1, 3], 30),
            Event::RunEnd {
                scheme: "nucache-d8".into(),
                ipcs: vec![0.5, 0.75],
                per_core: vec![totals, totals],
                totals,
            },
        ]
    }

    #[test]
    fn summarize_counts_churn_and_occupancy() {
        let s = summarize("000_m__nucache-d8.jsonl", &synthetic_events());
        assert_eq!(s.mix, "m");
        assert_eq!(s.scheme, "nucache-d8");
        assert_eq!(s.selection.len(), 3);
        assert_eq!(s.churn, 1, "only epoch 2 changed the chosen set");
        assert_eq!(s.selection[2].added, 1);
        assert_eq!(s.selection[2].dropped, 1);
        assert_eq!(s.selection.last().unwrap().occupancy, 30);
        assert_eq!(s.ipcs, vec![0.5, 0.75]);
        assert!((s.hit_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn report_round_trips_a_jsonl_directory() {
        let dir = std::env::temp_dir().join(format!("nucache-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("000_m__nucache-d8.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap();
        for e in synthetic_events() {
            sink.record_event(&e);
        }
        sink.finish().unwrap();

        let events = load_events(&path).expect("stream parses back");
        assert_eq!(events.len(), 5);

        let report = render_report(&dir).expect("report renders");
        assert!(report.contains("## Streams"));
        assert!(report.contains("selection timeline"));
        assert!(report.contains("| 2 |"), "epoch 2 row present");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampling_keeps_endpoints() {
        assert_eq!(sample_rows(5, 16), vec![0, 1, 2, 3, 4]);
        let rows = sample_rows(100, 16);
        assert_eq!(rows.first(), Some(&0));
        assert_eq!(rows.last(), Some(&99));
        assert!(rows.len() <= 16);
    }
}
