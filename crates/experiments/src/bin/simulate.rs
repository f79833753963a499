//! `simulate` — the general-purpose CLI front-end to the simulator.
//!
//! ```text
//! cargo run --release -p nucache-experiments --bin simulate -- \
//!     --cores 4 --scheme nucache --deli-ways 8 \
//!     --workloads sphinx_like,libquantum_like,mcf_like,lbm_like \
//!     --warmup 300000 --measure 1000000 --llc-mb 4 --seed 7
//! ```
//!
//! `--scheme` accepts `lru`, `dip`, `drrip`, `tadip`, `ucp`, `pipp`,
//! `nucache`. `--workloads` is a comma-separated list with one entry per
//! core (defaults cycle the roster). `--normalize` also runs the solo
//! baselines and reports weighted speedup / ANTT. `--audit` runs the
//! differential invariant oracle alongside the simulation: every
//! tag-array operation is mirrored into a naive reference model and
//! NUcache's epoch invariants are checked; any divergence aborts the run.

#![allow(clippy::disallowed_types, reason = "wall time never reaches a simulation")]

use nucache_cache::CacheGeometry;
use nucache_common::table::{f2, f3, Table};
use nucache_core::NuCacheConfig;
use nucache_sim::args::Args;
use nucache_sim::telemetry::{git_revision, take_manifest_config, Manifest};
use nucache_sim::{run_mix, Runner, Scheme, SimConfig};
use nucache_trace::{Mix, SpecWorkload};
use std::path::PathBuf;
use std::process::ExitCode;

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(argv.iter().cloned()).map_err(|e| e.to_string())?;
    if args.flag("help") {
        println!(
            "options: --cores N --scheme NAME --workloads a,b,... --llc-mb N \
             --warmup N --measure N --seed N --deli-ways N --epoch N --normalize --jobs N \
             --telemetry DIR --audit --help"
        );
        return Ok(());
    }
    let cores: usize = args.get_num("cores", 2).map_err(|e| e.to_string())?;
    if cores == 0 || cores > 64 {
        return Err("--cores must be in 1..=64".into());
    }
    let scheme_name = args.get_or("scheme", "nucache").to_string();
    // NUCACHE_QUICK=1 shrinks the default run lengths (explicit --warmup
    // / --measure always win).
    let (default_warmup, default_measure) = nucache_experiments::run_lengths();
    let warmup: u64 = args.get_num("warmup", default_warmup).map_err(|e| e.to_string())?;
    let measure: u64 = args.get_num("measure", default_measure).map_err(|e| e.to_string())?;
    let seed: u64 = args.get_num("seed", 0x5eed_2011).map_err(|e| e.to_string())?;
    let llc_mb: u64 = args.get_num("llc-mb", cores as u64).map_err(|e| e.to_string())?;
    let deli: usize = args.get_num("deli-ways", 8).map_err(|e| e.to_string())?;
    let epoch: u64 = args.get_num("epoch", 100_000).map_err(|e| e.to_string())?;
    let workloads_arg = args.get_or("workloads", "").to_string();
    let normalize = args.flag("normalize");
    let audit = args.flag("audit");
    let jobs: usize = args.get_num("jobs", 0).map_err(|e| e.to_string())?;
    let telemetry = args.get_or("telemetry", "").to_string();
    args.reject_unknown().map_err(|e| e.to_string())?;
    if jobs >= 1 {
        nucache_sim::set_default_jobs(jobs);
    }
    let telemetry_dir = (!telemetry.is_empty()).then(|| PathBuf::from(telemetry));
    if let Some(dir) = &telemetry_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        nucache_sim::set_default_telemetry_dir(Some(dir));
        let _ = take_manifest_config();
    }
    let t0 = std::time::Instant::now();

    let workloads: Vec<SpecWorkload> = if workloads_arg.is_empty() {
        SpecWorkload::ALL.iter().copied().cycle().take(cores).collect()
    } else {
        let parsed: Result<Vec<_>, String> = workloads_arg
            .split(',')
            .map(|n| {
                SpecWorkload::from_name(n.trim())
                    .ok_or_else(|| format!("unknown workload '{n}' (see table2_workloads)"))
            })
            .collect();
        parsed?
    };
    if workloads.len() != cores {
        return Err(format!("--workloads lists {} entries for {cores} cores", workloads.len()));
    }

    let scheme = match scheme_name.as_str() {
        "lru" => Scheme::Lru,
        "dip" => Scheme::Dip,
        "drrip" => Scheme::Drrip,
        "tadip" => Scheme::Tadip,
        "ucp" => Scheme::Ucp,
        "pipp" => Scheme::Pipp,
        "nucache" => {
            Scheme::NuCache(NuCacheConfig::default().with_deli_ways(deli).with_epoch_len(epoch))
        }
        other => return Err(format!("unknown scheme '{other}'")),
    };

    let config = SimConfig::baseline(cores)
        .with_llc(CacheGeometry::new(llc_mb * 1024 * 1024, 16, 64))
        .with_run_lengths(warmup, measure)
        .with_seed(seed);
    let mix = Mix::new("cli", workloads);

    if audit && normalize {
        return Err("--audit and --normalize cannot be combined (audit one run at a time)".into());
    }

    println!("scheme={scheme} cores={cores} llc={llc_mb}MB warmup={warmup} measure={measure}\n");
    let mut t = Table::new(["core", "workload", "ipc", "llc_mpki", "llc_hit_rate"]);
    if audit {
        // A completed audited run means zero divergences: the oracle
        // panics at the first disagreement with the reference model.
        let (result, stats) = nucache_sim::run_mix_audited(&config, &mix, &scheme);
        for (i, c) in result.per_core.iter().enumerate() {
            t.row([
                i.to_string(),
                c.workload.clone(),
                f3(c.ipc),
                f2(c.llc_mpki),
                f2(c.llc.hit_rate()),
            ]);
        }
        print!("{}", t.to_text());
        println!("\nLLC totals: {}", result.llc_totals);
        println!(
            "audit: {} array ops mirrored, {} epoch checks, 0 divergences",
            stats.array_ops, stats.epoch_checks
        );
    } else if normalize {
        // The runner computes the mix run and the per-workload solo
        // baselines concurrently.
        let runner = Runner::new(config);
        let grid = runner.evaluate_grid(std::slice::from_ref(&mix), std::slice::from_ref(&scheme));
        let (result, metrics) = &grid[0][0];
        for (i, c) in result.per_core.iter().enumerate() {
            t.row([
                i.to_string(),
                c.workload.clone(),
                f3(c.ipc),
                f2(c.llc_mpki),
                f2(c.llc.hit_rate()),
            ]);
        }
        print!("{}", t.to_text());
        println!("\nweighted speedup: {:.3}", metrics.weighted_speedup);
        println!("ANTT:             {:.3}", metrics.antt);
        println!("throughput:       {:.3}", metrics.throughput);
        println!("fairness:         {:.3}", metrics.fairness);
    } else {
        let result = if let Some(spec) = nucache_sim::TelemetrySpec::from_default_dir() {
            nucache_sim::telemetry::note_manifest_config(&config);
            let path =
                nucache_sim::telemetry::stream_path(&spec.dir, 0, mix.name(), &scheme.name());
            let mut sink = nucache_common::JsonlSink::create(&path)
                .map_err(|e| format!("creating telemetry stream {}: {e}", path.display()))?;
            let r = nucache_sim::run_mix_telemetry(
                &config,
                &mix,
                &scheme,
                spec.snapshot_interval,
                &mut sink,
            );
            sink.finish()
                .map_err(|e| format!("writing telemetry stream {}: {e}", path.display()))?;
            r
        } else {
            run_mix(&config, &mix, &scheme)
        };
        for (i, c) in result.per_core.iter().enumerate() {
            t.row([
                i.to_string(),
                c.workload.clone(),
                f3(c.ipc),
                f2(c.llc_mpki),
                f2(c.llc.hit_rate()),
            ]);
        }
        print!("{}", t.to_text());
        println!("\nLLC totals: {}", result.llc_totals);
    }
    if let Some(dir) = &telemetry_dir {
        let manifest = Manifest {
            experiment: "simulate".to_string(),
            argv,
            git_revision: git_revision(),
            wall_seconds: t0.elapsed().as_secs_f64(),
            jobs: nucache_sim::default_jobs() as u64,
            quick: nucache_experiments::quick_mode(),
            config: take_manifest_config(),
            streams: Vec::new(),
            failures: nucache_sim::take_failures(),
            notes: nucache_sim::take_degradations(),
        };
        let path = nucache_sim::write_manifest(dir, &manifest)
            .map_err(|e| format!("writing manifest in {}: {e}", dir.display()))?;
        println!("[telemetry] wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("try --help");
            ExitCode::FAILURE
        }
    }
}
