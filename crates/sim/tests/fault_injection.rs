//! End-to-end checks of the fault-tolerance layer: seeded fault
//! injection must exercise the degradation paths (isolated worker
//! panics, dropped telemetry streams) without ever changing a surviving
//! simulation result, and with injection disabled the machinery must be
//! invisible.
//!
//! Each runner keeps its own failure and degradation log, so every
//! test checks exactly what its runner recorded.

use nucache_common::fault::{FaultPlan, FaultSite};
use nucache_sim::telemetry::stream_path;
use nucache_sim::{Runner, Scheme, SimConfig, TelemetrySpec};
use nucache_trace::{Mix, SpecWorkload};

fn config() -> SimConfig {
    SimConfig::demo().with_run_lengths(1_000, 4_000)
}

fn job_list(n: usize) -> Vec<(Mix, Scheme)> {
    (0..n)
        .map(|i| {
            let mix =
                Mix::new(format!("m{i}"), vec![SpecWorkload::HmmerLike, SpecWorkload::GobmkLike]);
            let scheme = if i % 2 == 0 { Scheme::Lru } else { Scheme::nucache_default() };
            (mix, scheme)
        })
        .collect()
}

/// Silences the default panic hook for the faults this suite injects on
/// purpose, forwarding every other panic unchanged.
fn quiet_injected_panics() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected fault") {
                prev(info);
            }
        }));
    });
}

#[test]
fn disabled_injection_and_worker_count_are_invisible() {
    let jobs = job_list(4);
    let base = Runner::new().with_jobs(2).run_jobs(&config(), &jobs);
    // A different worker count must be pure scheduling.
    let other = Runner::new().with_jobs(3);
    assert_eq!(format!("{base:?}"), format!("{:?}", other.run_jobs(&config(), &jobs)));
    assert!(other.failures().is_empty());
    assert!(other.degradations().is_empty());
}

#[test]
fn injected_worker_panics_isolate_jobs_deterministically() {
    quiet_injected_panics();
    let jobs = job_list(8);
    // A fresh runner numbers these jobs 0..8; pick a plan that fails
    // some but not all of them.
    let plan = (0..500)
        .map(FaultPlan::new)
        .find(|p| {
            let n = (0..8).filter(|&i| p.should_fault(FaultSite::WorkerPanic, i)).count();
            (1..8).contains(&n)
        })
        .expect("some small seed fails 1..8 of 8 jobs");
    let expected_failures: Vec<u64> =
        (0..8).filter(|&i| plan.should_fault(FaultSite::WorkerPanic, i)).collect();

    let runner = Runner::new().with_jobs(3).with_fault_plan(Some(plan));
    let results = runner.try_run_jobs(&config(), &jobs);
    let clean = Runner::new().with_jobs(2).run_jobs(&config(), &jobs);

    assert_eq!(results.len(), jobs.len());
    for (i, result) in results.iter().enumerate() {
        if expected_failures.contains(&(i as u64)) {
            let failure = result.as_ref().expect_err("planned fault must fail the job");
            assert_eq!(failure.index, i);
            assert!(failure.message.contains("injected fault"), "{}", failure.message);
            assert!(failure.message.contains("worker-panic"), "{}", failure.message);
        } else {
            // Surviving jobs match a clean run exactly.
            assert_eq!(result.as_ref().ok(), Some(&clean[i]), "job {i} result drifted");
        }
    }

    // Failures land in the runner's log, tagged per job, in job order.
    let marker = format!("plan seed {}", plan.seed());
    let recorded = runner.failures();
    assert_eq!(recorded.len(), expected_failures.len());
    let failed = jobs.iter().enumerate().filter(|&(i, _)| expected_failures.contains(&(i as u64)));
    for (f, (i, (mix, scheme))) in recorded.iter().zip(failed) {
        assert_eq!(f.stage, "job");
        assert_eq!(f.index, Some(i as u64));
        assert_eq!(f.job, Some(format!("{}/{}", mix.name(), scheme.name())));
        assert!(f.message.contains(&marker), "{}", f.message);
    }
    assert!(runner.degradations().is_empty(), "{:?}", runner.degradations());

    // Same plan, fresh runner: bit-identical outcomes.
    let again =
        Runner::new().with_jobs(5).with_fault_plan(Some(plan)).try_run_jobs(&config(), &jobs);
    assert_eq!(format!("{results:?}"), format!("{again:?}"));
}

#[test]
fn injected_telemetry_faults_degrade_without_changing_results() {
    let jobs = job_list(4);
    // Want: at least one stream-creation fault, at least one write fault
    // on a job whose creation succeeds, and no worker panics in 0..4.
    let plan = (0..5_000)
        .map(FaultPlan::new)
        .find(|p| {
            let create = |i| p.should_fault(FaultSite::TelemetryCreate, i);
            let write = |i| p.should_fault(FaultSite::TelemetryWrite, i);
            let panic = |i| p.should_fault(FaultSite::WorkerPanic, i);
            (0..4).any(create) && (0..4).any(|i| write(i) && !create(i)) && !(0..4).any(panic)
        })
        .expect("some small seed hits both telemetry sites without worker panics");

    let dir = std::env::temp_dir()
        .join("nucache_fault_injection_test")
        .join(format!("tele_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let spec = TelemetrySpec { dir: dir.clone(), snapshot_interval: 2_000 };

    let runner = Runner::new().with_jobs(2).with_fault_plan(Some(plan)).with_telemetry(Some(spec));
    let results = runner.try_run_jobs(&config(), &jobs);

    // Telemetry faults never fail a job or change its result.
    let clean = Runner::new().with_jobs(2).run_jobs(&config(), &jobs);
    assert!(runner.failures().is_empty(), "{:?}", runner.failures());
    for (i, result) in results.iter().enumerate() {
        assert_eq!(result.as_ref().ok(), Some(&clean[i]), "job {i} perturbed by telemetry fault");
    }

    // Faulted streams are absent (never created, or removed as partial);
    // healthy streams exist and are non-empty.
    for (i, (mix, scheme)) in jobs.iter().enumerate() {
        let path = stream_path(&dir, i, mix.name(), &scheme.name());
        let faulted = plan.should_fault(FaultSite::TelemetryCreate, i as u64)
            || plan.should_fault(FaultSite::TelemetryWrite, i as u64);
        if faulted {
            assert!(!path.exists(), "faulted stream {} must not survive", path.display());
        } else {
            let bytes = std::fs::read(&path).expect("healthy stream exists");
            assert!(!bytes.is_empty(), "healthy stream {} is empty", path.display());
        }
    }

    // Each degraded stream left exactly one note for the manifest,
    // naming its stream and the injected fault.
    let notes = runner.degradations();
    let degraded: Vec<_> = jobs
        .iter()
        .enumerate()
        .filter(|&(i, _)| {
            plan.should_fault(FaultSite::TelemetryCreate, i as u64)
                || plan.should_fault(FaultSite::TelemetryWrite, i as u64)
        })
        .map(|(i, (mix, scheme))| stream_path(&dir, i, mix.name(), &scheme.name()))
        .collect();
    assert_eq!(notes.len(), degraded.len(), "one note per degraded stream: {notes:?}");
    for path in &degraded {
        let name = path.display().to_string();
        let n = notes.iter().filter(|n| n.contains(&name)).count();
        assert_eq!(n, 1, "one note names {name}: {notes:?}");
    }
    assert!(notes.iter().all(|n| n.contains("injected fault")), "{notes:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
