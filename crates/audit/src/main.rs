//! CLI for the workspace audit.
//!
//! ```text
//! cargo run -p nucache-audit -- lint                   # the 3 workspace lints, text output
//! cargo run -p nucache-audit -- lint --format json     # machine-readable, for CI
//! cargo run -p nucache-audit -- lint --lint counter-dataflow
//! cargo run -p nucache-audit -- effects                # hot-path contract gates
//! cargo run -p nucache-audit -- effects --list         # per-function effect sets
//! cargo run -p nucache-audit -- effects --update-justify # rewrite hotpath.txt stubs
//! cargo run -p nucache-audit -- locks                  # lock-discipline gates
//! cargo run -p nucache-audit -- atomics                # atomic-ordering gate
//! cargo run -p nucache-audit -- locks --update-justify # rewrite concurrency.txt stubs
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

#![forbid(unsafe_code)]

use nucache_audit::atomics::{run_atomic_lints, ATOMIC_LINTS};
use nucache_audit::hotpath::{run_effect_lints, Justifications, EFFECT_LINTS};
use nucache_audit::locks::{run_lock_lints, CONCURRENCY_HEADER, LOCK_LINTS};
use nucache_audit::semantic::dead_pub::{self, Baseline};
use nucache_audit::semantic::{run_semantic_lints, SEMANTIC_LINTS};
use nucache_audit::{EffectModel, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

/// Relative location of the dead-pub baseline inside the workspace.
const BASELINE_REL: &str = dead_pub::PUB_BASELINE;

/// Relative location of the hot-path justification ledger.
const HOTPATH_REL: &str = "crates/audit/hotpath.txt";

/// Relative location of the concurrency (locks + atomics) ledger.
const CONCURRENCY_REL: &str = nucache_audit::CONCURRENCY_LEDGER;

fn usage() {
    eprintln!(
        "usage: nucache-audit [lint|effects|locks|atomics] [options]\n\
         \n\
         subcommands:\n\
         \x20 lint     run the workspace lints (the default)\n\
         \x20 effects  run the flow-aware hot-path contract gates\n\
         \x20 locks    run the lock-discipline gates (order cycles, double-lock, guard escapes)\n\
         \x20 atomics  run the atomic-ordering gate\n\
         \n\
         options:\n\
         \x20 --format text|json   output format (default text)\n\
         \x20 --root PATH          workspace root (default: this checkout)\n\
         \x20 --lint NAME          run only the named lint(s); repeatable\n\
         \x20 --update-justify     rewrite {HOTPATH_REL} (effects) or {CONCURRENCY_REL}\n\
         \x20                      (locks/atomics, both families) from current findings\n\
         \x20 --list               (effects) print per-function inferred effect sets\n\
         \n\
         exit codes: 0 = clean, 1 = violations found, 2 = usage or I/O error\n\
         \n\
         workspace lints:"
    );
    for (name, rule) in SEMANTIC_LINTS {
        eprintln!("  {name:<28} {rule}");
    }
    eprintln!("\neffect lints (effects subcommand):");
    for (name, rule) in EFFECT_LINTS {
        eprintln!("  {name:<28} {rule}");
    }
    eprintln!("\nconcurrency lints (locks / atomics subcommands):");
    for (name, rule) in LOCK_LINTS.iter().chain(ATOMIC_LINTS.iter()) {
        eprintln!("  {name:<28} {rule}");
    }
    eprintln!(
        "\nsuppress a finding with `// nucache-audit: allow(lint-name) -- reason` on the\n\
         same line or the line above, or `allow-file(lint-name)` anywhere in the file.\n\
         the per-file rules are clippy lints: see DESIGN.md section 9.1."
    );
}

/// Parsed command line.
struct Cli {
    command: String,
    format: String,
    root: PathBuf,
    only: Vec<String>,
    update_justify: bool,
    list_effects: bool,
}

fn parse_args() -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        command: String::from("lint"),
        format: String::from("text"),
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(".."),
        only: Vec::new(),
        update_justify: false,
        list_effects: false,
    };
    let mut args = std::env::args().skip(1).peekable();
    if let Some(first) = args.peek() {
        if ["lint", "effects", "locks", "atomics"].iter().any(|c| c == first) {
            cli.command = args.next().unwrap_or_default();
        }
    }
    let known: Vec<&str> = SEMANTIC_LINTS
        .iter()
        .chain(EFFECT_LINTS.iter())
        .chain(LOCK_LINTS.iter())
        .chain(ATOMIC_LINTS.iter())
        .map(|(name, _)| *name)
        .collect();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next() {
                Some(f) if f == "text" || f == "json" => cli.format = f,
                _ => return Err("--format takes `text` or `json`".into()),
            },
            "--root" => match args.next() {
                Some(p) => cli.root = PathBuf::from(p),
                None => return Err("--root takes a path".into()),
            },
            "--lint" => match args.next() {
                Some(name) if known.contains(&name.as_str()) => cli.only.push(name),
                Some(name) => return Err(format!("unknown lint {name:?} (see --help)")),
                None => return Err("--lint takes a lint name".into()),
            },
            "--update-justify" => cli.update_justify = true,
            "--list" => cli.list_effects = true,
            "--help" | "-h" => {
                usage();
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Some(cli))
}

/// `lint` subcommand body.
fn run_lint(cli: &Cli) -> Result<ExitCode, String> {
    let ws = Workspace::load(&cli.root).map_err(|e| format!("scanning workspace: {e}"))?;

    let baseline =
        Baseline::load(&cli.root.join(BASELINE_REL)).map_err(|e| format!("baseline: {e}"))?;

    let mut diags = run_semantic_lints(&ws, &baseline);
    if !cli.only.is_empty() {
        diags.retain(|d| cli.only.iter().any(|n| n == d.lint));
    }

    if cli.format == "json" {
        print!("{}", nucache_audit::diag::to_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        if diags.is_empty() {
            let total = SEMANTIC_LINTS.len();
            let scope = if cli.only.is_empty() {
                format!("{total} lints")
            } else {
                format!("{} of {total} lints", cli.only.len())
            };
            eprintln!("nucache-audit: workspace clean ({scope})");
        } else {
            eprintln!("nucache-audit: {} violation(s)", diags.len());
        }
    }
    Ok(if diags.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `effects` subcommand body: build the effect model, run the hot-path
/// contract gates against the justification ledger.
fn run_effects(cli: &Cli) -> Result<ExitCode, String> {
    let ws = Workspace::load(&cli.root).map_err(|e| format!("scanning workspace: {e}"))?;
    let model = EffectModel::build(&ws);

    if cli.list_effects {
        for f in &model.fns {
            println!("{:<18} {:<40} {}", f.crate_name, f.qualified(), f.effects);
        }
        return Ok(ExitCode::SUCCESS);
    }

    let path = cli.root.join(HOTPATH_REL);
    let (just, errors) = Justifications::load(&path);
    if let Some((line, text)) = errors.first() {
        return Err(format!("{HOTPATH_REL}:{line}: malformed ledger line: {text:?}"));
    }
    let (mut diags, required) = run_effect_lints(&ws, &model, &just);

    if cli.update_justify {
        let mut ledger = Justifications { entries: required };
        ledger.entries.sort_by(|a, b| {
            (&a.lint, &a.krate, &a.func, &a.source).cmp(&(&b.lint, &b.krate, &b.func, &b.source))
        });
        let count = ledger.entries.len();
        std::fs::write(&path, ledger.render()).map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("wrote {count} entries to {}", path.display());
        return Ok(ExitCode::SUCCESS);
    }

    diags.sort_by(|a, b| {
        (&a.file, a.line, a.lint, &a.message).cmp(&(&b.file, b.line, b.lint, &b.message))
    });
    if !cli.only.is_empty() {
        diags.retain(|d| cli.only.iter().any(|n| n == d.lint));
    }
    if cli.format == "json" {
        print!("{}", nucache_audit::diag::to_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        if diags.is_empty() {
            eprintln!(
                "nucache-audit: hot-path contracts hold ({} effect lints, {} ledger entries)",
                EFFECT_LINTS.len(),
                just.entries.len()
            );
        } else {
            eprintln!("nucache-audit: {} violation(s)", diags.len());
        }
    }
    Ok(if diags.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `locks` / `atomics` subcommand body: both families run against the
/// shared concurrency ledger; `--update-justify` rewrites it from the
/// union of required entries, the gate reports one family's findings.
fn run_concurrency(cli: &Cli) -> Result<ExitCode, String> {
    let ws = Workspace::load(&cli.root).map_err(|e| format!("scanning workspace: {e}"))?;
    let model = EffectModel::build(&ws);

    let path = cli.root.join(CONCURRENCY_REL);
    let (just, errors) = Justifications::load(&path);
    if let Some((line, text)) = errors.first() {
        return Err(format!("{CONCURRENCY_REL}:{line}: malformed ledger line: {text:?}"));
    }
    let (lock_diags, lock_required) = run_lock_lints(&ws, &model, &just);
    let (atomic_diags, atomic_required) = run_atomic_lints(&ws, &model, &just);

    if cli.update_justify {
        let mut entries = lock_required;
        entries.extend(atomic_required);
        let mut ledger = Justifications { entries };
        ledger.entries.sort_by(|a, b| {
            (&a.lint, &a.krate, &a.func, &a.source).cmp(&(&b.lint, &b.krate, &b.func, &b.source))
        });
        ledger.entries.dedup();
        let count = ledger.entries.len();
        let lints: Vec<(&str, &str)> =
            LOCK_LINTS.iter().chain(ATOMIC_LINTS.iter()).copied().collect();
        std::fs::write(&path, ledger.render_with(CONCURRENCY_HEADER, &lints))
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("wrote {count} entries to {}", path.display());
        return Ok(ExitCode::SUCCESS);
    }

    let mut diags = if cli.command == "locks" { lock_diags } else { atomic_diags };
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.lint, &a.message).cmp(&(&b.file, b.line, b.lint, &b.message))
    });
    if !cli.only.is_empty() {
        diags.retain(|d| cli.only.iter().any(|n| n == d.lint));
    }
    if cli.format == "json" {
        print!("{}", nucache_audit::diag::to_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        if diags.is_empty() {
            let family = if cli.command == "locks" {
                format!("{} lock lints", LOCK_LINTS.len())
            } else {
                format!("{} atomic lint", ATOMIC_LINTS.len())
            };
            eprintln!(
                "nucache-audit: concurrency contracts hold ({family}, {} ledger entries)",
                just.entries.len()
            );
        } else {
            eprintln!("nucache-audit: {} violation(s)", diags.len());
        }
    }
    Ok(if diags.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(Some(cli)) => cli,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    let result = match cli.command.as_str() {
        "effects" => run_effects(&cli),
        "locks" | "atomics" => run_concurrency(&cli),
        _ => run_lint(&cli),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
