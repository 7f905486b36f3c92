//! The mutation kill-matrix driver.
//!
//! Seeds semantic bugs into the verified automata (via
//! `holistic-mutate`), runs the Table-2 property matrix over every
//! mutant, and reports which properties killed which mutants — with
//! every kill confirmed by replaying the counterexample through the
//! concrete counter-system semantics.
//!
//! ```text
//! cargo run --release --bin mutation_matrix                       # both corpora
//! cargo run --release --bin mutation_matrix -- --automaton bv     # bv-broadcast only
//! cargo run --release --bin mutation_matrix -- --smoke            # CI subset (10 bv mutants)
//! cargo run --release --bin mutation_matrix -- --gate 0.9         # exit 1 below 90% caught
//! cargo run --release --bin mutation_matrix -- --out kill.json    # write the JSON report
//! ```

use std::env;
use std::process::ExitCode;
use std::time::Duration;

use holistic_ltl::Justice;
use holistic_mutate::{
    bv_broadcast_corpus, bv_kill_properties, run_kill_matrix, simplified_corpus,
    simplified_kill_properties, smoke_ids, KillConfig, KillMatrix,
};

struct Options {
    automaton: String,
    smoke: bool,
    workers: usize,
    out: Option<String>,
    gate: Option<f64>,
    budget_secs: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        automaton: "all".to_owned(),
        smoke: false,
        workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
        out: None,
        gate: None,
        budget_secs: 60,
    };
    let args: Vec<String> = env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--automaton" => {
                opts.automaton = value(i)?.clone();
                i += 2;
            }
            "--smoke" => {
                opts.smoke = true;
                i += 1;
            }
            "--threads" => {
                opts.workers = value(i)?.parse().map_err(|e| format!("--threads: {e}"))?;
                i += 2;
            }
            "--out" => {
                opts.out = Some(value(i)?.clone());
                i += 2;
            }
            "--gate" => {
                opts.gate = Some(value(i)?.parse().map_err(|e| format!("--gate: {e}"))?);
                i += 2;
            }
            "--budget-secs" => {
                opts.budget_secs = value(i)?
                    .parse()
                    .map_err(|e| format!("--budget-secs: {e}"))?;
                i += 2;
            }
            other => {
                return Err(format!(
                    "unknown flag {other} (see --help in the doc header)"
                ))
            }
        }
    }
    if !matches!(opts.automaton.as_str(), "bv" | "simplified" | "all") {
        return Err(format!(
            "--automaton must be bv, simplified or all (got {})",
            opts.automaton
        ));
    }
    if opts.smoke && opts.automaton == "simplified" {
        return Err("--smoke is a bv-broadcast subset; drop --automaton simplified".into());
    }
    Ok(opts)
}

fn summarize(m: &KillMatrix) {
    println!("{}", m.render());
    println!(
        "{}: {} mutants — {} killed, {} rejected statically, {} survived, {} unknown \
         (caught rate {:.1}%)",
        m.automaton,
        m.total(),
        m.killed(),
        m.rejected(),
        m.survived(),
        m.unknown(),
        100.0 * m.caught_rate()
    );
    for (id, props) in m.unconfirmed_kills() {
        println!(
            "  !! {id}: unconfirmed counterexample for {}",
            props.join(", ")
        );
    }
    println!();
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mutation_matrix: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = KillConfig {
        workers: opts.workers,
        time_budget: Duration::from_secs(opts.budget_secs),
        ..KillConfig::default()
    };
    let start = std::time::Instant::now();
    let mut matrices = Vec::new();

    if opts.automaton == "bv" || opts.automaton == "all" {
        let (model, mut corpus) = bv_broadcast_corpus();
        if opts.smoke {
            let keep = smoke_ids();
            corpus.retain(|m| keep.contains(&m.id.as_str()));
            assert_eq!(corpus.len(), keep.len(), "smoke ids must all exist");
        }
        let properties = bv_kill_properties(&model);
        println!(
            "bv-broadcast: {} mutants x {} properties",
            corpus.len(),
            properties.len()
        );
        matrices.push(run_kill_matrix(
            "bv_broadcast",
            &corpus,
            &properties,
            Justice::from_rules,
            &config,
        ));
        summarize(matrices.last().unwrap());
    }

    if !opts.smoke && (opts.automaton == "simplified" || opts.automaton == "all") {
        let (model, corpus) = simplified_corpus();
        let properties = simplified_kill_properties(&model);
        println!(
            "simplified-consensus: {} mutants x {} properties",
            corpus.len(),
            properties.len()
        );
        // The Appendix-F justice is requirement-based (location/variable
        // ids, which rule surgery leaves untouched), so the pristine
        // model's justice applies to every mutant.
        let justice = model.justice();
        matrices.push(run_kill_matrix(
            "simplified_consensus",
            &corpus,
            &properties,
            |_| justice.clone(),
            &config,
        ));
        summarize(matrices.last().unwrap());
    }

    println!("total wall clock: {:.1?}", start.elapsed());

    if let Some(path) = &opts.out {
        let body: Vec<String> = matrices.iter().map(KillMatrix::to_json).collect();
        let json = format!("[\n{}\n]\n", body.join(",\n"));
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("mutation_matrix: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("kill matrix written to {path}");
    }

    if let Some(min_rate) = opts.gate {
        for m in &matrices {
            if let Err(e) = m.gate(min_rate) {
                eprintln!("mutation_matrix: GATE FAILED for {}: {e}", m.automaton);
                return ExitCode::FAILURE;
            }
        }
        println!(
            "gate passed: every matrix caught >= {:.0}% with all kills confirmed",
            100.0 * min_rate
        );
    }
    ExitCode::SUCCESS
}
