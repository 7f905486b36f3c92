//! Machine-readable Table 2 benchmark: emits `BENCH_table2.json`.
//!
//! ```text
//! cargo run --release -p holistic-bench --bin table2_bench -- \
//!     [--quick] [--iters N] [--threads N] [--out PATH] [--baseline PATH] \
//!     [--automaton NAME] [--property NAME] [--explain-prunes] \
//!     [--trace PATH] [--profile]
//! ```
//!
//! Runs the full decomposed Table 2 matrix (bv-broadcast + simplified
//! consensus, nine properties) and writes per-property wall time, schema
//! counts, verdicts, SMT solver statistics, exploration-cache hit rates
//! and the thread count as JSON — the repo's perf trajectory record.
//!
//! Each iteration uses a fresh checker, so the exploration cache starts
//! cold and is shared across the properties of one matrix pass (the
//! intended production shape); the per-property time is the minimum over
//! iterations. `--quick` is a single pass for CI smoke use.
//!
//! With `--baseline PATH`, the run is compared against a previously
//! emitted file: the process exits nonzero if any verdict changed, any
//! property got more than 3x slower, or any deterministic solver
//! statistic (checks, pivots, entries rewritten by pivots, tableau rows
//! created, case splits) regressed beyond its own factor — wall time
//! alone is too noisy on shared CI machines to either trust or fake.
//! The four-thread cache and solver counters depend on the thread
//! schedule (which recordings of an automaton are already cached when a
//! property starts), so they vary from run to run; the baseline gate
//! skips them across thread counts.
//!
//! Without `--threads`, properties run one at a time but each one's
//! schedule DFS uses [`std::thread::available_parallelism`] worker
//! threads (the JSON's `threads`), so the counters of some properties
//! vary from run to run there too. `--threads 1` is the sequential,
//! byte-deterministic walk that `BENCH_table2.json` and CI's baseline
//! gate use.
//!
//! `--automaton NAME` / `--property NAME` (substring match, repeatable
//! by intent via a comma list) restrict the matrix, so the dev loop on
//! one hot property doesn't pay for the full run. Filtered runs skip
//! the baseline *totals* block but still gate the selected rows.
//!
//! Every pass runs through the resilient supervisor
//! ([`holistic_supervise`]): each cell is panic-isolated, checked once
//! at full strength and, if that fails, stepped down the degradation
//! ladder. On a clean run that is exactly the checker's matrix
//! scheduler (one `check_cell` per property on one shared checker), so
//! verdicts and counters do not depend on it. The `HOLISTIC_CHAOS` env
//! hook (`panic-every=N,budget-ms=M`) injects worker panics and a tiny
//! budget for the CI chaos-smoke job; failed cells are logged with their
//! failure kind and the rung that answered.
//!
//! `--explain-prunes` dumps the learned core patterns per automaton to
//! stderr.
//!
//! Unknown flags, flags missing their value and counts that do not
//! parse exit with status 2.
//!
//! `--trace PATH` enables the [`holistic_obs`] span collector and
//! writes a JSONL trace of the whole run; `--profile` prints the
//! hierarchical self/child time table (per phase and per property) to
//! stdout. Both are verdict-inert: tracing only observes.

use std::env;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use holistic_bench::json::{num, Json, Writer};
use holistic_bench::trace;
use holistic_bench::{table2_cells, Flags, Table2Cell};
use holistic_checker::{CheckReport, Checker, CheckerConfig, MatrixJob};
use holistic_supervise::{ChaosOptions, Supervisor, SupervisorConfig};

/// Factor by which a property may slow down vs the baseline before the
/// comparison fails.
const REGRESSION_FACTOR: f64 = 3.0;

/// Factor by which a *deterministic* solver statistic (checks, pivots,
/// pivot entries, tableau rows created, case splits) may grow vs the
/// baseline before the comparison fails.
/// These counters don't depend on machine speed, so the tolerance is
/// much tighter than the wall-time gate — a noisy CI machine can
/// neither mask nor fake a solver-work regression.
const STAT_REGRESSION_FACTOR: f64 = 1.10;

/// Absolute slack under which a statistic increase is ignored (tiny
/// properties legitimately wobble by a handful of checks when encoding
/// details change).
const STAT_REGRESSION_SLACK: u64 = 64;

struct PropResult {
    automaton: &'static str,
    property: String,
    verdict: &'static str,
    schemas: usize,
    avg_segments: f64,
    /// Minimum wall time over iterations, in milliseconds.
    wall_ms: f64,
    cache_hits: u64,
    cache_misses: u64,
    /// Core patterns newly learned while this property explored.
    cores_learned: u64,
    /// Extension attempts pruned by learned core patterns.
    schemas_pruned_by_core: u64,
    threads: usize,
    solver: holistic_lia::SolverStats,
}

/// Row selection for the dev loop: comma-separated substring matches on
/// the automaton and/or property name; `None` selects everything.
struct Filter {
    automaton: Option<String>,
    property: Option<String>,
}

impl Filter {
    fn matches_list(selector: &Option<String>, name: &str) -> bool {
        match selector {
            None => true,
            Some(list) => list.split(',').any(|pat| name.contains(pat.trim())),
        }
    }

    fn keep(&self, automaton: &str, property: &str) -> bool {
        Self::matches_list(&self.automaton, automaton)
            && Self::matches_list(&self.property, property)
    }

    fn is_full(&self) -> bool {
        self.automaton.is_none() && self.property.is_none()
    }
}

/// One full pass over the decomposed matrix with a cold shared cache,
/// through the supervisor.
///
/// `--threads N` with `N > 1` runs `N` supervisor workers that pull
/// whole properties off a shared queue (each property itself running
/// the inline deterministic walk), so the dominant simplified-consensus
/// properties overlap instead of serializing. `--threads 1` is the
/// sequential, byte-deterministic walk. Without `--threads`, properties
/// run one at a time, each on the checker's default DFS pool of
/// `available_parallelism` threads, whose counters vary between runs.
fn run_matrix(
    threads: Option<usize>,
    filter: &Filter,
    explain: bool,
) -> Vec<(&'static str, String, CheckReport)> {
    let workers = threads.unwrap_or(1);
    let mut config = CheckerConfig {
        // Property-level concurrency subsumes intra-property pooling
        // here; each matrix job stays single-threaded internally.
        threads: if workers > 1 { Some(1) } else { threads },
        ..CheckerConfig::default()
    };
    if let Some(chaos) = ChaosOptions::from_env() {
        eprintln!("  chaos injection armed: {chaos:?}");
        chaos.apply(&mut config);
    }
    let checker = Checker::with_config(config);
    // The decomposed matrix: every Table-2 cell but the naive block.
    let all = table2_cells();
    let cells: Vec<&Table2Cell> = all
        .iter()
        .filter(|c| c.automaton != "naive-consensus" && filter.keep(c.automaton, &c.property))
        .collect();
    let jobs: Vec<MatrixJob<'_>> = cells
        .iter()
        .map(|c| MatrixJob {
            ta: &c.ta,
            spec: &c.spec,
            justice: &c.justice,
            label: &c.property,
        })
        .collect();

    let supervisor = Supervisor::new(SupervisorConfig {
        workers,
        ..SupervisorConfig::default()
    });
    let records = supervisor.run(&checker, &jobs);
    for (c, r) in cells.iter().zip(&records) {
        if let Some(kind) = r.failure {
            eprintln!(
                "  {}/{}: {} (rung {}{})",
                c.automaton,
                c.property,
                kind,
                r.rung,
                r.note
                    .as_deref()
                    .map(|n| format!("; {n}"))
                    .unwrap_or_default()
            );
        }
    }
    // A rejected cell was logged above with its `model-error` note.
    let reports: Vec<CheckReport> = records
        .into_iter()
        .map(|r| {
            r.report
                .expect("the Table-2 models are in the checker's fragment")
        })
        .collect();
    if explain {
        for name in ["bv-broadcast", "simplified-consensus"] {
            if let Some(cell) = all.iter().find(|c| c.automaton == name) {
                explain_prunes(&checker, name, &cell.ta);
            }
        }
    }
    cells
        .into_iter()
        .zip(reports)
        .map(|(c, r)| (c.automaton, c.property.clone(), r))
        .collect()
}

/// How many learned core patterns `--explain-prunes` renders per
/// automaton.
const EXPLAIN_TOP: usize = 10;

/// Dumps the learned core patterns for one automaton to stderr, most
/// general first, rendered with guard formulas and the rule names each
/// blocked guard gates — the human-readable face of the certificate
/// pipeline.
fn explain_prunes(checker: &Checker, label: &str, ta: &holistic_ta::ThresholdAutomaton) {
    let mut cores = checker.exploration_cache().cores_for(ta);
    if cores.is_empty() {
        eprintln!("  [explain-prunes] {label}: no learned core patterns");
        return;
    }
    // Most general first: fewer guards to unlock, fewer guards that
    // must be held, larger context mask.
    cores.sort_by_key(|&(m, h, d)| {
        (
            d.count_ones(),
            h.count_ones(),
            std::cmp::Reverse(m.count_ones()),
            d,
            h,
            m,
        )
    });
    let info = holistic_checker::GuardInfo::analyse(ta).expect("guard analysis");
    let render_guard = |gi: usize| -> String {
        let g = &info.guards[gi];
        let gated: Vec<&str> = ta
            .rules
            .iter()
            .filter(|r| info.rule_mask(r) & (1 << gi) != 0)
            .map(|r| r.name.as_str())
            .collect();
        format!(
            "g{gi}: {} {} {} (gates {})",
            g.lhs.display(&ta.variables),
            g.cmp,
            g.rhs.display(&ta.params),
            if gated.is_empty() {
                "no rules".to_owned()
            } else {
                gated.join(", ")
            }
        )
    };
    let render_mask = |mask: u64| -> String {
        if mask == 0 {
            return "(initial: no guards unlocked)".to_owned();
        }
        let names: Vec<String> = (0..info.len())
            .filter(|gi| mask & (1 << gi) != 0)
            .map(render_guard)
            .collect();
        names.join("; ")
    };
    eprintln!(
        "  [explain-prunes] {label}: {} learned core pattern(s), top {}:",
        cores.len(),
        cores.len().min(EXPLAIN_TOP)
    );
    for (i, &(m, h, d)) in cores.iter().take(EXPLAIN_TOP).enumerate() {
        eprintln!("    #{:<2} under contexts within {}", i + 1, render_mask(m));
        if h != 0 {
            eprintln!("        having already unlocked {}", render_mask(h));
        }
        eprintln!("        cannot newly unlock {}", render_mask(d));
    }
}

fn emit(results: &[PropResult], iters: usize, baseline: Option<(&str, f64, f64)>) -> String {
    let total_ms: f64 = results.iter().map(|r| r.wall_ms).sum();
    let threads = results.first().map_or(1, |r| r.threads);
    // Farkas-certificate core pipeline: patterns learned, extension
    // attempts they pruned, and the average extracted-core size
    // (members per certificate, from the cumulative solver counters).
    let cores_learned: u64 = results.iter().map(|r| r.cores_learned).sum();
    let pruned_by_core: u64 = results.iter().map(|r| r.schemas_pruned_by_core).sum();
    let (extracted, members): (u64, u64) = results.iter().fold((0, 0), |(e, m), r| {
        (e + r.solver.cores_extracted, m + r.solver.core_members)
    });
    let core_avg_size = if extracted == 0 {
        0.0
    } else {
        members as f64 / extracted as f64
    };
    let mut w = Writer::pretty();
    w.begin_obj()
        .field_u64("schema_version", 2)
        .field_str("generated_by", "table2_bench")
        .field_u64("threads", threads as u64)
        .field_u64("iters", iters as u64)
        .field_raw("total_wall_ms", &num(total_ms))
        .field_u64("cores_learned", cores_learned)
        .field_u64("schemas_pruned_by_core", pruned_by_core)
        .field_raw("core_avg_size", &num(core_avg_size));
    if let Some((file, base_ms, speedup)) = baseline {
        w.field_str("baseline_file", file)
            .field_raw("baseline_total_wall_ms", &num(base_ms))
            .field_raw("speedup_vs_baseline", &num(speedup));
    }
    w.key("properties").begin_arr();
    for r in results {
        let hit_rate = if r.cache_hits + r.cache_misses > 0 {
            r.cache_hits as f64 / (r.cache_hits + r.cache_misses) as f64
        } else {
            0.0
        };
        let s = &r.solver;
        w.begin_obj()
            .field_str("automaton", r.automaton)
            .field_str("property", &r.property)
            .field_str("verdict", r.verdict)
            .field_u64("schemas", r.schemas as u64)
            .field_raw("avg_segments", &num(r.avg_segments))
            .field_raw("wall_ms", &num(r.wall_ms))
            .field_u64("cache_hits", r.cache_hits)
            .field_u64("cache_misses", r.cache_misses)
            .field_raw("cache_hit_rate", &num(hit_rate))
            .field_u64("cores_learned", r.cores_learned)
            .field_u64("schemas_pruned_by_core", r.schemas_pruned_by_core)
            .key("solver")
            .begin_obj()
            .field_u64("checks", s.checks)
            .field_u64("branch_nodes", s.branch_nodes)
            .field_u64("case_splits", s.case_splits)
            .field_u64("pivots", s.pivots)
            .field_u64("pivot_entries", s.pivot_entries)
            .field_u64("rows", s.rows)
            .field_u64("intern_hits", s.intern_hits)
            .field_u64("intern_misses", s.intern_misses)
            .field_u64("cores_extracted", s.cores_extracted)
            .field_u64("core_members", s.core_members)
            .field_u64("core_micros", s.core_micros)
            .end_obj()
            .end_obj();
    }
    w.end_arr().end_obj();
    w.finish()
}

/// Compares this run against a baseline document. Returns the list of
/// failures (empty means the gate passes).
fn compare(results: &[PropResult], baseline: &Json) -> (Vec<String>, f64) {
    let mut failures = Vec::new();
    let empty: &[Json] = &[];
    let rows = baseline
        .get("properties")
        .and_then(|p| p.as_array())
        .unwrap_or(empty);
    // Timing and solver-work gates only make sense against a baseline
    // recorded at the same thread count; a cross-thread comparison
    // (e.g. the CI threads=4 divergence check against the threads=1
    // baseline) still gates everything deterministic — verdicts, schema
    // counts, average segment lengths.
    let base_threads = baseline
        .get("threads")
        .and_then(Json::as_f64)
        .map_or(1, |t| t as usize);
    let same_threads = results.first().is_none_or(|r| r.threads == base_threads);
    let mut base_total = 0.0;
    for r in results {
        let Some(base) = rows.iter().find(|row| {
            row.get("automaton").and_then(Json::as_str) == Some(r.automaton)
                && row.get("property").and_then(Json::as_str) == Some(r.property.as_str())
        }) else {
            failures.push(format!(
                "{}/{}: missing from baseline",
                r.automaton, r.property
            ));
            continue;
        };
        let base_verdict = base.get("verdict").and_then(Json::as_str).unwrap_or("?");
        if base_verdict != r.verdict {
            failures.push(format!(
                "{}/{}: verdict changed: {} -> {}",
                r.automaton, r.property, base_verdict, r.verdict
            ));
        }
        if let Some(base_schemas) = base.get("schemas").and_then(Json::as_f64) {
            if base_schemas as usize != r.schemas {
                failures.push(format!(
                    "{}/{}: schema count changed: {} -> {}",
                    r.automaton, r.property, base_schemas as usize, r.schemas
                ));
            }
        }
        if let Some(base_avg) = base.get("avg_segments").and_then(Json::as_f64) {
            // The emitter rounds (`num()`), so compare at its precision.
            if num(base_avg) != num(r.avg_segments) {
                failures.push(format!(
                    "{}/{}: avg segments changed: {} -> {}",
                    r.automaton, r.property, base_avg, r.avg_segments
                ));
            }
        }
        let base_ms = base
            .get("wall_ms")
            .and_then(Json::as_f64)
            .unwrap_or(f64::INFINITY);
        base_total += base_ms;
        if !same_threads {
            continue; // deterministic gates only across thread counts
        }
        if r.wall_ms > REGRESSION_FACTOR * base_ms {
            failures.push(format!(
                "{}/{}: {:.0} ms vs baseline {:.0} ms (> {REGRESSION_FACTOR}x regression)",
                r.automaton, r.property, r.wall_ms, base_ms
            ));
        }
        let base_solver = base.get("solver");
        let stats: [(&str, u64); 5] = [
            ("checks", r.solver.checks),
            ("case_splits", r.solver.case_splits),
            ("pivots", r.solver.pivots),
            ("pivot_entries", r.solver.pivot_entries),
            ("rows", r.solver.rows),
        ];
        for (stat, current) in stats {
            let Some(base_stat) = base_solver.and_then(|s| s.get(stat)).and_then(Json::as_f64)
            else {
                continue; // baseline predates this statistic: no gate
            };
            let limit = (base_stat * STAT_REGRESSION_FACTOR) + STAT_REGRESSION_SLACK as f64;
            if current as f64 > limit {
                failures.push(format!(
                    "{}/{}: solver {stat} regressed: {current} vs baseline {base_stat:.0} \
                     (> {STAT_REGRESSION_FACTOR}x + {STAT_REGRESSION_SLACK})",
                    r.automaton, r.property,
                ));
            }
        }
    }
    (failures, base_total)
}

/// The flags this binary accepts.
const FLAGS: Flags<'static> = Flags {
    values: &[
        "--iters",
        "--threads",
        "--out",
        "--baseline",
        "--automaton",
        "--property",
        "--trace",
    ],
    counts: &["--iters", "--threads"],
    switches: &["--quick", "--explain-prunes", "--profile"],
};

fn main() -> ExitCode {
    let args: Vec<String> = env::args().collect();
    if let Err(e) = FLAGS.check(&args[1..]) {
        eprintln!("table2_bench: {e}");
        return ExitCode::from(2);
    }
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let quick = args.iter().any(|a| a == "--quick");
    let explain = args.iter().any(|a| a == "--explain-prunes");
    let iters: usize = flag_value("--iters")
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick { 1 } else { 3 });
    let threads: Option<usize> = flag_value("--threads").and_then(|s| s.parse().ok());
    let out_path = flag_value("--out").map_or("BENCH_table2.json", String::as_str);
    let baseline_path = flag_value("--baseline").map(String::as_str);
    let filter = Filter {
        automaton: flag_value("--automaton").cloned(),
        property: flag_value("--property").cloned(),
    };
    let trace_path = flag_value("--trace").cloned();
    let profile_on = args.iter().any(|a| a == "--profile");

    // Read the baseline up front: `--out` may point at the same file.
    let baseline = baseline_path.map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        Json::parse(&text).unwrap_or_else(|e| panic!("cannot parse baseline {path}: {e}"))
    });

    eprintln!(
        "table2_bench: {iters} iteration(s), threads={}",
        threads.map_or("auto".to_owned(), |t| t.to_string())
    );
    // Tracing is strictly opt-in: without these flags the collector
    // stays disabled and every span/counter call is a near-no-op.
    if trace_path.is_some() || profile_on {
        holistic_obs::set_enabled(true);
    }
    let run_started = Instant::now();
    let run_span = holistic_obs::span("bench.run");
    let mut results: Vec<PropResult> = Vec::new();
    for iter in 0..iters {
        let pass = run_matrix(threads, &filter, explain && iter == 0);
        for (idx, (automaton, property, report)) in pass.into_iter().enumerate() {
            let wall_ms = report.duration.as_secs_f64() * 1e3;
            if iter == 0 {
                // Matrix-scheduled runs are 1 thread *per property*;
                // report the scheduler width, not the inner walk's.
                let stats_threads = report.queries.first().map_or(1, |q| q.stats.threads);
                let stats_threads = threads.map_or(stats_threads, |t| t.max(stats_threads));
                results.push(PropResult {
                    automaton,
                    property: property.clone(),
                    verdict: report.verdict().label(),
                    schemas: report.total_schemas(),
                    avg_segments: report.avg_segments(),
                    wall_ms,
                    cache_hits: report.total_cache_hits(),
                    cache_misses: report.total_cache_misses(),
                    cores_learned: report.total_cores_learned(),
                    schemas_pruned_by_core: report.total_schemas_pruned_by_core(),
                    threads: stats_threads,
                    solver: report.solver_stats(),
                });
                eprintln!(
                    "  {automaton}/{property}: {} in {:.2?} ({} schemas, {} cache hits)",
                    report.verdict().label(),
                    report.duration,
                    report.total_schemas(),
                    report.total_cache_hits(),
                );
            } else {
                let slot = &mut results[idx];
                assert_eq!(slot.property, property, "iteration order must be stable");
                assert_eq!(
                    slot.verdict,
                    report.verdict().label(),
                    "{automaton}/{property}: verdict must not vary across iterations"
                );
                if wall_ms < slot.wall_ms {
                    slot.wall_ms = wall_ms;
                }
            }
        }
        let total: f64 = results.iter().map(|r| r.wall_ms).sum();
        eprintln!(
            "  pass {}/{iters} done; best-total {:.1?}",
            iter + 1,
            Duration::from_secs_f64(total / 1e3)
        );
    }

    drop(run_span);
    let wall_us = run_started.elapsed().as_micros() as u64;

    if results.is_empty() {
        eprintln!("no properties match the filter");
        return ExitCode::FAILURE;
    }

    let comparison = baseline.as_ref().map(|b| compare(&results, b));
    // A filtered run still gates its rows but must not publish a
    // misleading "matrix" speedup computed over a subset.
    let baseline_block = comparison.as_ref().and_then(|(_, base_total)| {
        let total: f64 = results.iter().map(|r| r.wall_ms).sum();
        (*base_total > 0.0 && filter.is_full()).then(|| {
            (
                baseline_path.unwrap(),
                *base_total,
                *base_total / total.max(f64::MIN_POSITIVE),
            )
        })
    });

    let doc = emit(&results, iters, baseline_block);
    std::fs::write(out_path, &doc).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");

    if trace_path.is_some() || profile_on {
        let snapshot = holistic_obs::drain();
        if let Some(path) = &trace_path {
            let trace_doc = trace::write_trace(&snapshot, wall_us, "table2_bench");
            std::fs::write(path, &trace_doc)
                .unwrap_or_else(|e| panic!("cannot write trace {path}: {e}"));
            eprintln!("wrote trace {path} ({} spans)", snapshot.spans.len());
        }
        if profile_on {
            print!("{}", trace::render_profile(&snapshot, wall_us, 10));
        }
    }

    if let Some((failures, base_total)) = comparison {
        let total: f64 = results.iter().map(|r| r.wall_ms).sum();
        eprintln!(
            "baseline total {:.1?} -> current total {:.1?} ({:.2}x)",
            Duration::from_secs_f64(base_total / 1e3),
            Duration::from_secs_f64(total / 1e3),
            base_total / total.max(f64::MIN_POSITIVE),
        );
        if !failures.is_empty() {
            eprintln!("BASELINE COMPARISON FAILED:");
            for f in &failures {
                eprintln!("  {f}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!(
            "baseline comparison passed (verdicts stable, no >{REGRESSION_FACTOR}x regression)"
        );
    }
    ExitCode::SUCCESS
}
