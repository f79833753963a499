//! Telemetry must be pure observation: recording events cannot change
//! simulation results, counters must agree with the returned statistics,
//! and JSONL streams must survive a round trip through the parser.

use nucache_common::json;
use nucache_common::telemetry::{CounterSink, Event, JsonlSink};
use nucache_sim::{run_mix, run_mix_telemetry, Runner, Scheme, SimConfig, TelemetrySpec};
use nucache_trace::{Mix, SpecWorkload};

fn mix() -> Mix {
    Mix::new("tmix", vec![SpecWorkload::HmmerLike, SpecWorkload::LibquantumLike])
}

/// NUcache with an epoch short enough that demo-length runs (25k core
/// accesses) cross several selection epochs.
fn nucache_short_epoch() -> Scheme {
    Scheme::NuCache(nucache_core::KernelConfig::default().with_epoch_len(1_000))
}

const INTERVAL: u64 = 10_000;

#[test]
fn telemetry_does_not_perturb_results() {
    let config = SimConfig::demo();
    for scheme in [Scheme::Lru, nucache_short_epoch()] {
        let plain = run_mix(&config, &mix(), &scheme);
        let mut sink = CounterSink::default();
        let observed = run_mix_telemetry(&config, &mix(), &scheme, INTERVAL, &mut sink);
        assert_eq!(plain, observed, "telemetry changed the simulation under {}", plain.scheme);
    }
}

#[test]
fn counter_sink_totals_match_llc_stats() {
    let config = SimConfig::demo();
    let mut sink = CounterSink::default();
    let result = run_mix_telemetry(&config, &mix(), &nucache_short_epoch(), INTERVAL, &mut sink);

    assert_eq!(sink.run_starts, 1);
    assert_eq!(sink.run_ends, 1);
    assert!(sink.llc_epochs > 0, "demo runs span several snapshot intervals");
    assert!(sink.selection_epochs > 0, "NUcache must report its selection epochs");
    assert_eq!(sink.final_totals, result.llc_totals);
    let per_core: Vec<_> = result.per_core.iter().map(|c| c.llc).collect();
    assert_eq!(sink.final_per_core, per_core);
}

#[test]
fn plain_schemes_emit_no_selection_epochs() {
    let config = SimConfig::demo();
    let mut sink = CounterSink::default();
    run_mix_telemetry(&config, &mix(), &Scheme::Lru, INTERVAL, &mut sink);
    assert_eq!(sink.selection_epochs, 0);
    assert!(sink.llc_epochs > 0);
}

#[test]
fn jsonl_stream_round_trips_through_parser() {
    let config = SimConfig::demo();
    let mut sink = JsonlSink::new(Vec::new());
    let result = run_mix_telemetry(&config, &mix(), &nucache_short_epoch(), INTERVAL, &mut sink);
    let bytes = sink.finish().expect("in-memory writer cannot fail");
    let text = String::from_utf8(bytes).expect("jsonl is utf-8");

    let values = json::parse_jsonl(&text).expect("every line parses");
    let events: Vec<Event> = values
        .iter()
        .map(|v| Event::from_json(v).expect("every line decodes to an event"))
        .collect();

    assert!(matches!(events.first(), Some(Event::RunStart { .. })));
    match events.last() {
        Some(Event::RunEnd { totals, ipcs, .. }) => {
            assert_eq!(*totals, result.llc_totals);
            assert_eq!(*ipcs, result.ipcs());
        }
        other => panic!("stream must end with run_end, got {other:?}"),
    }
    assert!(
        events.iter().any(|e| matches!(e, Event::SelectionEpoch { .. })),
        "NUcache streams include selection epochs"
    );

    // The decoded events must re-encode to the identical stream.
    let rewritten: String = events.iter().map(|e| e.to_json().to_string_compact() + "\n").collect();
    assert_eq!(rewritten, text);
}

#[test]
fn one_runner_keeps_a_stream_for_every_job_across_configurations() {
    // The fig9 shape: the same mixes and schemes under two LLC sizes on
    // one runner. Every job draws its own index, so no stream overwrites
    // another.
    let dir = std::env::temp_dir()
        .join("nucache_telemetry_streams_test")
        .join(format!("run_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let runner = Runner::new()
        .with_jobs(2)
        .with_telemetry(Some(TelemetrySpec { dir: dir.clone(), snapshot_interval: INTERVAL }));
    let small = SimConfig::demo().with_run_lengths(1_000, 4_000);
    let large = small.with_llc(nucache_cache::CacheGeometry::new(128 * 1024, 16, 64));
    let mixes = [mix(), Mix::new("other", vec![SpecWorkload::McfLike, SpecWorkload::GobmkLike])];
    let schemes = [Scheme::Lru, nucache_short_epoch()];
    for config in [small, large] {
        runner.evaluate_grid(&config, &mixes, &schemes);
    }

    let mut streams: Vec<String> = std::fs::read_dir(&dir)
        .expect("telemetry dir")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .filter(|n| n.ends_with(".jsonl"))
        .collect();
    streams.sort();
    assert_eq!(streams.len(), 2 * mixes.len() * schemes.len(), "one stream per job: {streams:?}");
    for (i, name) in streams.iter().enumerate() {
        assert!(name.starts_with(&format!("{i:03}_")), "stream {i} is {name}");
    }
    assert!(runner.degradations().is_empty(), "{:?}", runner.degradations());
    let _ = std::fs::remove_dir_all(&dir);
}
