//! The benchmark of the holistic verification pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2|mutants|oracle --seed N --seconds S --trace 0|1
//! ```
//!
//! One run generates the workload's inputs from the seed, runs one
//! warm-up set-up and pass, then rounds of timed set-ups (the front end)
//! each followed by a whole pass over the workload's cells, for at least
//! `--seconds` seconds, each pass in a cell order the seed draws. Every
//! cell is checked against the reference. The last line of standard
//! output is one JSON object: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. A traced run alternates
//! recorded and unrecorded rounds, reports the difference as
//! `trace.overhead_frac`, and writes its spans to
//! `perfbench/traces/<workload>-seed<N>.jsonl`. See `perfbench/README.md`.

mod mutants;
mod oracle;
mod reference;
mod stats;
mod table2;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{median, tail, SplitMix64};
use trace::Tracer;
use workload::{derive_ratios, Layers, Pass, Workload};

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("cell_ms.p50", "ms"),
    ("cell_ms.tail", "ms"),
    ("decided_frac", "ratio"),
    ("correct_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 31] = [
    ("ta.parse_ms", "ms"),
    ("ltl.classify_ms", "ms"),
    ("ltl.queries", "count"),
    ("guards.analyse_ms", "ms"),
    ("lia.checks", "count"),
    ("lia.pivots", "count"),
    ("lia.case_splits", "count"),
    ("lia.branch_nodes", "count"),
    ("lia.propagations", "count"),
    ("lia.propagations_per_check", "1/check"),
    ("lia.disjuncts_skipped", "count"),
    ("lia.intern_hit_rate", "ratio"),
    ("lia.cores_extracted", "count"),
    ("lia.core_ms", "ms"),
    ("explore.schemas", "count"),
    ("explore.cache_hits", "count"),
    ("explore.cache_misses", "count"),
    ("explore.cache_hit_rate", "ratio"),
    ("explore.schemas_pruned_by_core", "count"),
    ("explore.cores_learned", "count"),
    ("checker.verified_ms", "ms"),
    ("checker.violated_ms", "ms"),
    ("replay.ms", "ms"),
    ("replay.counterexamples", "count"),
    ("replay.steps", "count"),
    ("oracle.decide_ms", "ms"),
    ("oracle.states", "count"),
    ("oracle.states_per_ms", "1/ms"),
    ("oracle.unknown", "count"),
    ("mutate.rejected", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// How many timed set-ups precede each measured pass, and the fewest
/// measured passes (a multiple of the workload's block).
struct Plan {
    setups_per_pass: usize,
    min_passes: usize,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("{k} is required"))
    };
    let num = |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload: get("--workload")?.to_owned(),
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload table2|mutants|oracle --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "table2" => run(
            &table2::Table2::new(),
            &args,
            Plan {
                setups_per_pass: 2,
                min_passes: 15,
            },
        ),
        "mutants" => run(
            &mutants::Mutants::new(),
            &args,
            Plan {
                setups_per_pass: 3,
                min_passes: 2,
            },
        ),
        "oracle" => run(
            &oracle::Oracle::new(args.seed),
            &args,
            Plan {
                setups_per_pass: 2,
                min_passes: 10,
            },
        ),
        other => Err(format!("unknown workload {other}")),
    };
    match outcome {
        Ok(report) => {
            if args.trace {
                write_trace(&report.tracer, &args);
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What the measured passes of one run add up to.
#[derive(Default)]
struct Tally {
    attempted: usize,
    undecided: usize,
    mismatched: usize,
    failed: usize,
    /// Mismatch text → how many cells showed it.
    mismatches: BTreeMap<String, usize>,
}

impl Tally {
    fn add(&mut self, pass: &Pass) {
        for c in &pass.cells {
            self.attempted += 1;
            self.undecided += usize::from(!c.decided);
            if let Some(m) = &c.mismatch {
                self.mismatched += 1;
                *self
                    .mismatches
                    .entry(format!("{}: {m}", c.name))
                    .or_default() += 1;
            }
            self.failed += usize::from(!c.decided || c.mismatch.is_some());
        }
    }
}

/// One timed set-up: its wall time and per-layer accumulators.
fn timed_setup<W: Workload>(
    w: &W,
    tr: &mut Tracer,
    label: String,
) -> Result<(W::Ready, f64, Layers), String> {
    let mut layers = Layers::new();
    let open = tr.begin("setup", || label);
    let ready = w.setup(tr, &mut layers);
    let secs = tr.end(open).as_secs_f64();
    derive_ratios(&mut layers);
    Ok((ready?, secs, layers))
}

/// Runs one workload.
fn run<W: Workload>(w: &W, args: &Args, plan: Plan) -> Result<Report, String> {
    let mut tr = Tracer::new();

    // The seed draws one cell order per pass. A traced run keeps the
    // first order for every pass, so its counters repeat exactly.
    let mut orders = SplitMix64::new(args.seed);
    let first_order = orders.next_u64();

    // Warm-up (allocator and pages): one set-up and one pass, checked
    // but not timed.
    let mut tally = Tally::default();
    let (ready, _, _) = timed_setup(w, &mut tr, "warm-up".to_owned())?;
    tally.add(&w.warm_up(&ready, first_order, &mut tr));

    // Measured rounds, in whole blocks, until the budget is used up
    // (stopping at the block boundary nearest to it). Each round sets
    // up afresh and then runs one pass, so the set-up samples spread
    // over the whole run instead of one burst at its start. A traced
    // run alternates unrecorded and recorded rounds, so both see the
    // same drift of the machine.
    let block = if args.trace { 2 } else { w.block() };
    let mut setups: Vec<(f64, Layers)> = Vec::new();
    let mut plain: Vec<(f64, Pass)> = Vec::new();
    let mut recorded: Vec<(f64, Pass)> = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut block_start = start;
    for i in 0.. {
        let record = args.trace && i % 2 == 1;
        let (order, round) = if args.trace {
            (first_order, 0)
        } else {
            (orders.next_u64(), i)
        };
        tr.set_recording(record);
        let mut ready = None;
        for rep in 0..plan.setups_per_pass {
            let (r, secs, layers) = timed_setup(w, &mut tr, format!("round {i} set-up {rep}"))?;
            setups.push((secs, layers));
            ready = Some(r);
        }
        let ready = ready.expect("at least one set-up per round");
        let open = tr.begin("pass", || format!("round {i}"));
        let mut pass = w.pass(&ready, order, round, &mut tr);
        let secs = tr.end(open).as_secs_f64();
        tally.add(&pass);
        derive_ratios(&mut pass.layers);
        if record { &mut recorded } else { &mut plain }.push((secs, pass));
        if (i + 1) % block == 0 {
            let block_time = block_start.elapsed();
            block_start = Instant::now();
            if i + 1 >= plan.min_passes && start.elapsed() + block_time / 2 >= budget {
                break;
            }
        }
    }
    tr.set_recording(false);

    for (m, n) in &tally.mismatches {
        eprintln!("perfbench: MISMATCH ({n} cells): {m}");
    }
    let pass_s = median(&plain.iter().map(|p| p.0).collect::<Vec<_>>());
    let cell_ms: Vec<f64> = plain
        .iter()
        .flat_map(|(_, p)| p.cells.iter().map(|c| c.ms))
        .collect();
    let cell_tail = tail(&cell_ms, plan.min_passes * plain[0].1.cells.len());
    println!(
        "# workload={} seed={} trace={} set-ups={} passes={}+{} cells/pass={} tail=p{} of {} samples",
        args.workload,
        args.seed,
        u8::from(args.trace),
        setups.len(),
        plain.len(),
        recorded.len(),
        plain[0].1.cells.len(),
        cell_tail.percentile,
        cell_tail.samples,
    );

    let mut metrics = Vec::new();
    if args.trace {
        let traced_s = median(&recorded.iter().map(|p| p.0).collect::<Vec<_>>());
        for &(name, unit) in &PER_LAYER {
            let value = if name == "trace.overhead_frac" {
                traced_s / pass_s - 1.0
            } else if setups[0].1.contains_key(name) {
                layer_median(setups.iter().map(|s| &s.1), name)
            } else {
                layer_median(recorded.iter().map(|p| &p.1.layers), name)
            };
            metrics.push((name, unit, value));
        }
    } else {
        let attempted = tally.attempted as f64;
        for &(name, unit) in &END_TO_END {
            let value = match name {
                "setup_s" => median(&setups.iter().map(|s| s.0).collect::<Vec<_>>()),
                "pass_s" => pass_s,
                "cell_ms.p50" => median(&cell_ms),
                "cell_ms.tail" => cell_tail.value,
                "decided_frac" => (attempted - tally.undecided as f64) / attempted,
                "correct_frac" => (attempted - tally.mismatched as f64) / attempted,
                "peak_rss_mb" => peak_rss_mb()?,
                _ => unreachable!("every end-to-end metric is computed"),
            };
            metrics.push((name, unit, value));
        }
    }
    Ok(Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        tracer: tr,
    })
}

/// The outcome of one run.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// `(name, unit, value)` of every reported metric.
    metrics: Vec<(&'static str, &'static str, f64)>,
    tracer: Tracer,
}

impl Report {
    /// The result line: one JSON object.
    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    finite(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Median of one per-layer accumulator over several passes or set-ups;
/// an accumulator a pass never touched counts as zero.
fn layer_median<'a>(layers: impl Iterator<Item = &'a Layers>, name: &str) -> f64 {
    let values: Vec<f64> = layers
        .map(|l| l.get(name).copied().unwrap_or(0.0))
        .collect();
    median(&values)
}

/// JSON has no NaN or infinity; report those as zero.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Writes the recorded spans next to the benchmark's sources and prints
/// the self-time rollup.
fn write_trace(tr: &Tracer, args: &Args) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            tr.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    eprintln!("perfbench: span rollup (calls, total ms, self ms):");
    for (name, (calls, total, own)) in tr.rollup() {
        eprintln!(
            "  {name:<32} {calls:>7} {:>12.3} {:>12.3}",
            workload::ms(total),
            workload::ms(own)
        );
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    use holistic_core::json::Json;

    fn args(workload: &str, seed: u64, trace: bool) -> Args {
        Args {
            workload: workload.to_owned(),
            seed,
            seconds: 1,
            trace,
        }
    }

    #[test]
    fn seeds_reorder_table2_but_change_no_verdict_or_schema_count() {
        // Five untraced passes give every simplified-consensus property
        // the first slot once; every cell is checked against the
        // reference, schema counts and average lengths included.
        for seed in [1, 2, 3] {
            let plan = Plan {
                setups_per_pass: 1,
                min_passes: 5,
            };
            let report = run(&table2::Table2::new(), &args("table2", seed, false), plan)
                .expect("table2 runs");
            assert!(report.correct, "seed {seed}");
            assert_eq!(report.failed, 0);
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric_the_program_prints() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let f = |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit");
                    (f("name").to_owned(), f("unit").to_owned())
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, ["table2", "mutants", "oracle"]);
    }
}
