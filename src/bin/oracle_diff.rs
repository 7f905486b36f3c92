//! The differential validation driver.
//!
//! Runs every Table-2 cell and every seeded mutant corpus through both
//! the symbolic checker and the explicit-state oracle at small concrete
//! parameters, compares verdicts under the soundness-approximation
//! rules, replays every symbolic counterexample through the oracle's
//! transition relation, and (in full scope) adjudicates the two
//! documented kill-matrix survivors.
//!
//! ```text
//! cargo run --release --bin oracle_diff                    # full sweep + adjudication
//! cargo run --release --bin oracle_diff -- --smoke         # CI subset (bv-broadcast only)
//! cargo run --release --bin oracle_diff -- --out diff.json # write the JSON report
//! cargo run --release --bin oracle_diff -- --max-states N  # oracle BFS budget per cell
//! cargo run --release --bin oracle_diff -- --bound B       # parameter sweep bound
//! ```
//!
//! Exit status 1 on any definite-verdict disagreement or replay
//! failure — those are soundness bugs in one of the two pipelines.

use std::env;
use std::process::ExitCode;

use holistic_mutate::{run_diff, DiffConfig};

struct Options {
    smoke: bool,
    out: Option<String>,
    max_states: Option<usize>,
    bound: Option<i64>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        smoke: false,
        out: None,
        max_states: None,
        bound: None,
    };
    let args: Vec<String> = env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--smoke" => {
                opts.smoke = true;
                i += 1;
            }
            "--out" => {
                opts.out = Some(value(i)?.clone());
                i += 2;
            }
            "--max-states" => {
                opts.max_states = Some(
                    value(i)?
                        .parse()
                        .map_err(|e| format!("--max-states: {e}"))?,
                );
                i += 2;
            }
            "--bound" => {
                opts.bound = Some(value(i)?.parse().map_err(|e| format!("--bound: {e}"))?);
                i += 2;
            }
            other => {
                return Err(format!(
                    "unknown flag {other} (see --help in the doc header)"
                ))
            }
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("oracle_diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = if opts.smoke {
        DiffConfig::smoke()
    } else {
        DiffConfig::full()
    };
    if let Some(n) = opts.max_states {
        cfg.max_states = n;
    }
    if let Some(b) = opts.bound {
        cfg.param_bound = b;
    }
    println!(
        "oracle_diff: {} scope, state budget {}, parameters <= {}",
        if cfg.smoke { "smoke" } else { "full" },
        cfg.max_states,
        cfg.param_bound
    );
    let start = std::time::Instant::now();
    let report = run_diff(&cfg, |cell| {
        println!(
            "  {} {} -> {} [{}]",
            cell.subject,
            cell.name,
            cell.symbolic,
            cell.agreement.label()
        );
    });
    println!();
    println!("{}", report.render());
    println!("total wall clock: {:.1?}", start.elapsed());

    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("oracle_diff: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("diff report written to {path}");
    }

    if !report.passed() {
        eprintln!(
            "oracle_diff: {} DEFINITE-VERDICT DISAGREEMENT(S) — soundness bug in one of the \
             two pipelines",
            report.disagreements().len()
        );
        return ExitCode::FAILURE;
    }
    println!("oracle_diff: zero definite-verdict disagreements");
    ExitCode::SUCCESS
}
