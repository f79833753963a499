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
//!
//! Input the simulator cannot build (a non-power-of-two LLC, a zero
//! measurement window, NUcache flags the kernel rejects, more cores
//! than a partitioning scheme has LLC ways) exits 1 with a message
//! naming the flag. The run itself goes through the same runner and
//! finish step as the figure binaries, so `--telemetry DIR` writes one
//! stream plus `manifest.json`, and a stream that cannot be written
//! degrades to a manifest note.

use nucache_cache::CacheGeometry;
use nucache_common::table::{f2, f3, Table};
use nucache_core::KernelConfig;
use nucache_experiments::{finish_run, telemetry_spec, usage_error};
use nucache_sim::args::Args;
use nucache_sim::{Runner, Scheme, SimConfig, SimResult};
use nucache_trace::{Mix, SpecWorkload};
use std::process::ExitCode;

/// One validated `simulate` invocation.
struct Plan {
    config: SimConfig,
    mix: Mix,
    scheme: Scheme,
    normalize: bool,
    audit: bool,
}

/// Parses and validates the flags into a plan and the runner it runs
/// on; `None` after printing `--help`.
fn parse(argv: &[String]) -> Result<Option<(Plan, Runner)>, String> {
    let args = Args::parse(argv.iter().cloned()).map_err(|e| e.to_string())?;
    if args.flag("help") {
        println!(
            "options: --cores N --scheme NAME --workloads a,b,... --llc-mb N \
             --warmup N --measure N --seed N --deli-ways N --epoch N --normalize --jobs N \
             --telemetry DIR --audit --help"
        );
        return Ok(None);
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
    if audit && normalize {
        return Err("--audit and --normalize cannot be combined (audit one run at a time)".into());
    }
    if measure == 0 {
        return Err("--measure must be at least 1".into());
    }
    let llc_bytes =
        llc_mb.checked_mul(1024 * 1024).filter(|_| llc_mb.is_power_of_two()).ok_or_else(|| {
            format!("--llc-mb must be a power of two, got {llc_mb} (it defaults to --cores)")
        })?;
    let llc = CacheGeometry::new(llc_bytes, 16, 64);

    let workloads: Vec<SpecWorkload> = if workloads_arg.is_empty() {
        SpecWorkload::ALL.iter().copied().cycle().take(cores).collect()
    } else {
        workloads_arg
            .split(',')
            .map(|n| {
                SpecWorkload::from_name(n.trim())
                    .ok_or_else(|| format!("unknown workload '{n}' (see table2_workloads)"))
            })
            .collect::<Result<_, _>>()?
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
            let nucache = KernelConfig::default().with_deli_ways(deli).with_epoch_len(epoch);
            if let Err(e) =
                nucache.with_sets(llc.num_sets()).with_ways(llc.associativity()).validate()
            {
                return Err(format!("invalid --deli-ways {deli} / --epoch {epoch}: {e}"));
            }
            Scheme::NuCache(nucache)
        }
        other => return Err(format!("unknown scheme '{other}'")),
    };
    if matches!(scheme, Scheme::Ucp | Scheme::Pipp) && cores > llc.associativity() {
        return Err(format!(
            "--cores {cores} exceeds the LLC's {} ways; {scheme} needs at least one way per core",
            llc.associativity()
        ));
    }

    let config = SimConfig::baseline(1)
        .with_cores(cores)
        .with_llc(llc)
        .with_run_lengths(warmup, measure)
        .with_seed(seed);
    let mut runner = Runner::new().with_telemetry(telemetry_spec(&telemetry)?);
    if jobs >= 1 {
        runner = runner.with_jobs(jobs);
    }
    let mix = Mix::new("cli", workloads);
    Ok(Some((Plan { config, mix, scheme, normalize, audit }, runner)))
}

/// Prints the per-core table of one result.
fn print_cores(result: &SimResult) {
    let mut t = Table::new(["core", "workload", "ipc", "llc_mpki", "llc_hit_rate"]);
    for (i, c) in result.per_core.iter().enumerate() {
        t.row([i.to_string(), c.workload.clone(), f3(c.ipc), f2(c.llc_mpki), f2(c.llc.hit_rate())]);
    }
    print!("{}", t.to_text());
}

fn simulate(plan: &Plan, runner: &Runner) {
    let Plan { config, mix, scheme, .. } = plan;
    println!(
        "scheme={scheme} cores={} llc={}MB warmup={} measure={}\n",
        config.num_cores,
        config.llc.size_bytes() >> 20,
        config.warmup_accesses,
        config.measure_accesses
    );
    if plan.audit {
        // A completed audited run means zero divergences: the oracle
        // panics at the first disagreement with the reference model.
        let (result, stats) = nucache_sim::run_mix_audited(config, mix, scheme);
        print_cores(&result);
        println!("\nLLC totals: {}", result.llc_totals);
        println!(
            "audit: {} array ops mirrored, {} epoch checks, 0 divergences",
            stats.array_ops, stats.epoch_checks
        );
    } else if plan.normalize {
        // The runner computes the mix run and the per-workload solo
        // baselines concurrently.
        let grid =
            runner.evaluate_grid(config, std::slice::from_ref(mix), std::slice::from_ref(scheme));
        let (result, metrics) = &grid[0][0];
        print_cores(result);
        println!("\nweighted speedup: {:.3}", metrics.weighted_speedup);
        println!("ANTT:             {:.3}", metrics.antt);
        println!("throughput:       {:.3}", metrics.throughput);
        println!("fairness:         {:.3}", metrics.fairness);
    } else {
        let result = runner.run_jobs(config, &[(mix.clone(), scheme.clone())]).remove(0);
        print_cores(&result);
        println!("\nLLC totals: {}", result.llc_totals);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(Some((plan, runner))) => {
            finish_run("simulate", argv, &runner, |runner| simulate(&plan, runner))
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => usage_error(&e),
    }
}
