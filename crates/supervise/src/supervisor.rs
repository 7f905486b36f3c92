//! The resilient matrix supervisor.
//!
//! [`Supervisor::run`] drives a property×automaton matrix to a verdict
//! for *every* cell, no matter what individual cells do:
//!
//! * **isolation** — each cell runs through
//!   [`Checker::check_cell`], so a worker panic becomes a per-cell
//!   `Unknown` instead of aborting the run;
//! * **retry** — transient failures (panics) are retried a bounded
//!   number of times with exponential backoff and seeded jitter;
//! * **degradation** — cells that exhaust their time budget, memory
//!   watermark, schema cap or retries step down the ladder
//!   (full → depth-bounded → simulation, see
//!   [`Rung`]) so the report still says
//!   *something* checked about the property;
//! * **checkpointing** — completed cells and the exploration cache are
//!   persisted after every cell, so a killed run resumes without
//!   losing finished work.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use holistic_checker::{
    CheckReport, Checker, CheckerConfig, MatrixJob, QueryReport, QueryStats, Strategy, Verdict,
};
use holistic_lia::SolverStats;
use holistic_ltl::{Justice, Ltl};
use holistic_sim::FaultPlan;
use holistic_ta::ThresholdAutomaton;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::{CellRecord, Checkpoint, CheckpointError};
use crate::failure::{FailureKind, Rung};
use crate::memory;

/// The degradation-ladder knobs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LadderConfig {
    /// Whether to step down at all (off = report the failure as-is).
    pub enabled: bool,
    /// Rung-2 schema bound for the depth-bounded re-check.
    pub depth_schemas: usize,
    /// Rung-2 wall-clock budget.
    pub depth_budget: Option<Duration>,
    /// Rung-3 scenario cap (0 = the full standard sweep).
    pub sim_scenarios: usize,
}

impl Default for LadderConfig {
    fn default() -> LadderConfig {
        LadderConfig {
            enabled: true,
            depth_schemas: 64,
            depth_budget: Some(Duration::from_secs(5)),
            sim_scenarios: 12,
        }
    }
}

/// Supervisor configuration.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// The checker configuration used at full strength (rung 1).
    pub checker: CheckerConfig,
    /// Concurrent cells (1 = deterministic sequential run).
    pub workers: usize,
    /// Retries after the first attempt for transient failures.
    pub max_retries: u64,
    /// Base backoff delay; attempt `k` waits `base * 2^(k-1)` plus
    /// jitter, capped at [`backoff_cap`](SupervisorConfig::backoff_cap).
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
    /// Flush the exploration-cache snapshot every N completed cells
    /// (cells themselves are always persisted immediately). `1` keeps
    /// the cache exactly in step with the cells, which is what the
    /// byte-identical-resume guarantee needs.
    pub checkpoint_every: usize,
    /// Resident-set watermark in KiB; when crossed, new full-strength
    /// attempts are skipped and the cell degrades with
    /// [`FailureKind::MemoryBudget`].
    pub memory_budget_kb: Option<u64>,
    /// The degradation ladder.
    pub ladder: LadderConfig,
    /// Master seed: retry jitter and simulation scenarios derive from
    /// it, so runs (and resumed runs) are reproducible.
    pub master_seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            checker: CheckerConfig::default(),
            workers: 1,
            max_retries: 2,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            checkpoint_every: 1,
            memory_budget_kb: None,
            ladder: LadderConfig::default(),
            master_seed: 0,
        }
    }
}

/// One supervised matrix cell.
pub struct SupervisedJob<'a> {
    /// Stable id, unique within the run (doubles as the checkpoint
    /// file name after sanitization).
    pub id: String,
    /// The paper property name (picks the simulation monitor on
    /// rung 3).
    pub property: String,
    /// The automaton.
    pub ta: &'a ThresholdAutomaton,
    /// The LTL property.
    pub spec: &'a Ltl,
    /// The justice assumption.
    pub justice: &'a Justice,
}

/// One cell's outcome in the final report.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The record (identical whether computed now or resumed).
    pub record: CellRecord,
    /// Whether the record was loaded from a checkpoint instead of
    /// recomputed.
    pub resumed: bool,
}

/// The outcome of a supervised matrix run.
#[derive(Clone, Debug)]
pub struct MatrixRunReport {
    /// Per-cell outcomes, in job order.
    pub cells: Vec<CellOutcome>,
    /// Total wall-clock time of this run (excludes resumed cells'
    /// original compute time).
    pub duration: Duration,
    /// Time spent writing checkpoint files (the supervisor overhead
    /// the bench records).
    pub checkpoint_overhead: Duration,
}

impl MatrixRunReport {
    /// Number of cells loaded from the checkpoint.
    pub fn resumed_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.resumed).count()
    }

    /// Whether every cell holds a definite verdict or a classified
    /// failure (the chaos-smoke invariant).
    pub fn all_classified(&self) -> bool {
        self.cells.iter().all(|c| {
            c.record
                .report
                .queries
                .iter()
                .all(|q| !matches!(q.verdict, Verdict::Unknown(_)))
                || c.record.failure.is_some()
        })
    }
}

/// The supervisor. Construct with a [`SupervisorConfig`], then call
/// [`run`](Supervisor::run).
#[derive(Clone, Debug, Default)]
pub struct Supervisor {
    config: SupervisorConfig,
}

struct Shared<'a> {
    checkpoint: Option<&'a Checkpoint>,
    checker: Checker,
    completed: AtomicUsize,
    overhead: Mutex<Duration>,
    errors: Mutex<Vec<CheckpointError>>,
}

impl Supervisor {
    /// A supervisor with the given configuration.
    pub fn new(config: SupervisorConfig) -> Supervisor {
        Supervisor { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// Runs the matrix. With a checkpoint, previously completed cells
    /// are loaded instead of recomputed, the exploration cache is
    /// warm-started from the snapshot, and every newly completed cell
    /// is persisted immediately.
    ///
    /// # Errors
    ///
    /// Returns the first checkpoint I/O error encountered; the
    /// in-memory results for all completed cells are lost in that case
    /// (but previously persisted cells are still on disk).
    pub fn run(
        &self,
        jobs: &[SupervisedJob<'_>],
        checkpoint: Option<&Checkpoint>,
    ) -> Result<MatrixRunReport, CheckpointError> {
        let start = Instant::now();
        let checker = Checker::with_config(self.config.checker.clone());
        let mut done: Vec<Option<CellOutcome>> = (0..jobs.len()).map(|_| None).collect();
        if let Some(cp) = checkpoint {
            for record in cp.load_cells()? {
                if let Some(i) = jobs.iter().position(|j| j.id == record.id) {
                    done[i] = Some(CellOutcome {
                        record,
                        resumed: true,
                    });
                }
            }
            checker.exploration_cache().import(cp.load_cache()?);
        }
        let remaining: Vec<usize> = (0..jobs.len()).filter(|&i| done[i].is_none()).collect();
        let shared = Shared {
            checkpoint,
            checker,
            completed: AtomicUsize::new(0),
            overhead: Mutex::new(Duration::ZERO),
            errors: Mutex::new(Vec::new()),
        };
        let workers = self.config.workers.max(1).min(remaining.len().max(1));
        let fresh: Vec<Mutex<Option<CellOutcome>>> =
            remaining.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        if workers <= 1 {
            for (slot, &job_index) in remaining.iter().enumerate() {
                let outcome = self.run_one(&shared, &jobs[job_index]);
                *fresh[slot].lock().unwrap() = Some(outcome);
            }
        } else {
            // Supervision workers run cells on their own threads; parent
            // their spans under the caller's current span.
            let parent = holistic_obs::current();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let _adopt = holistic_obs::adopt(parent);
                        let slot = next.fetch_add(1, Ordering::SeqCst);
                        if slot >= remaining.len() {
                            break;
                        }
                        let outcome = self.run_one(&shared, &jobs[remaining[slot]]);
                        *fresh[slot].lock().unwrap() = Some(outcome);
                    });
                }
            });
        }
        if let Some(e) = shared.errors.lock().unwrap().pop() {
            return Err(e);
        }
        // Final cache flush so the checkpoint is complete even when
        // checkpoint_every > 1.
        if let Some(cp) = shared.checkpoint {
            let t = Instant::now();
            cp.save_cache(&shared.checker.exploration_cache().export())?;
            *shared.overhead.lock().unwrap() += t.elapsed();
        }
        for (slot, &job_index) in remaining.iter().enumerate() {
            done[job_index] = fresh[slot].lock().unwrap().take();
        }
        let checkpoint_overhead = *shared.overhead.lock().unwrap();
        Ok(MatrixRunReport {
            cells: done
                .into_iter()
                .map(|c| c.expect("every cell resolved"))
                .collect(),
            duration: start.elapsed(),
            checkpoint_overhead,
        })
    }

    /// Runs one cell to a record and persists it.
    fn run_one(&self, shared: &Shared<'_>, job: &SupervisedJob<'_>) -> CellOutcome {
        let record = self.supervise_cell(&shared.checker, job);
        if let Some(cp) = shared.checkpoint {
            let t = Instant::now();
            let mut result = cp.record_cell(&record);
            let completed = shared.completed.fetch_add(1, Ordering::SeqCst) + 1;
            let every = self.config.checkpoint_every.max(1);
            if result.is_ok() && completed.is_multiple_of(every) {
                result = cp.save_cache(&shared.checker.exploration_cache().export());
            }
            *shared.overhead.lock().unwrap() += t.elapsed();
            if let Err(e) = result {
                shared.errors.lock().unwrap().push(e);
            }
        }
        CellOutcome {
            record,
            resumed: false,
        }
    }

    /// The retry + degradation state machine for one cell.
    fn supervise_cell(&self, checker: &Checker, job: &SupervisedJob<'_>) -> CellRecord {
        let _span = holistic_obs::span_labeled("supervise.cell", &job.id);
        let matrix_job = MatrixJob {
            ta: job.ta,
            spec: job.spec,
            justice: job.justice,
            label: &job.property,
        };
        let mut attempts = 0u64;
        loop {
            attempts += 1;
            if let Some(limit) = self.config.memory_budget_kb {
                if let Some(rss) = memory::rss_kb().filter(|&rss| rss > limit) {
                    return self.degrade(
                        job,
                        attempts,
                        FailureKind::MemoryBudget,
                        None,
                        Some(format!(
                            "resident set {rss} KiB crossed the {limit} KiB watermark"
                        )),
                    );
                }
            }
            let attempt_span = holistic_obs::span_labeled("supervise.attempt", "full");
            let report = match checker.check_cell(&matrix_job) {
                Ok(report) => report,
                Err(e) => {
                    // Outside the fragment: deterministic, never
                    // retried, and the depth-bounded rung would reject
                    // it identically — only simulation can still probe
                    // the property.
                    return self.degrade(
                        job,
                        attempts,
                        FailureKind::ModelError,
                        None,
                        Some(format!("model rejected: {e}")),
                    );
                }
            };
            drop(attempt_span);
            let failure = report
                .queries
                .iter()
                .find_map(|q| FailureKind::classify(&q.verdict));
            let Some(kind) = failure else {
                return CellRecord {
                    id: job.id.clone(),
                    attempts,
                    rung: Rung::Full,
                    failure: None,
                    note: None,
                    report,
                };
            };
            if kind.is_transient() && attempts <= self.config.max_retries {
                holistic_obs::add("supervise.retries", 1);
                self.backoff(&job.id, attempts);
                continue;
            }
            let kind = if kind.is_transient() {
                FailureKind::RetryExhausted
            } else {
                kind
            };
            return self.degrade(job, attempts, kind, Some(report), None);
        }
    }

    /// Sleeps `base * 2^(attempt-1)` capped, with ±50% seeded jitter so
    /// retried cells don't stampede back in lockstep.
    fn backoff(&self, id: &str, attempt: u64) {
        let exp = self
            .config
            .backoff_base
            .saturating_mul(1u32 << (attempt - 1).min(16) as u32)
            .min(self.config.backoff_cap);
        let mut rng = StdRng::seed_from_u64(
            self.config.master_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stable_hash(id) ^ attempt,
        );
        let jitter_pct: u64 = rng.gen_range(50..150);
        let delay = exp.mul_f64(jitter_pct as f64 / 100.0);
        if !delay.is_zero() {
            let _span = holistic_obs::span("supervise.backoff");
            holistic_obs::add("supervise.backoff_ms", delay.as_millis() as u64);
            std::thread::sleep(delay);
        }
    }

    /// Steps a failed cell down the ladder. `full` is the full-strength
    /// report when one exists (with its `Unknown` verdicts); `detail`
    /// is an extra note for failures that never produced a report.
    fn degrade(
        &self,
        job: &SupervisedJob<'_>,
        attempts: u64,
        kind: FailureKind,
        full: Option<CheckReport>,
        detail: Option<String>,
    ) -> CellRecord {
        let base = full.unwrap_or_else(|| {
            unknown_report(format!(
                "no full-strength report ({kind}{})",
                detail
                    .as_deref()
                    .map(|d| format!(": {d}"))
                    .unwrap_or_default()
            ))
        });
        let mut record = CellRecord {
            id: job.id.clone(),
            attempts,
            rung: Rung::Full,
            failure: Some(kind),
            note: detail,
            report: base,
        };
        if !self.config.ladder.enabled {
            return record;
        }
        holistic_obs::add("supervise.rung_drops", 1);
        // Rung 2: depth-bounded re-check. A Violated verdict here is
        // real (counterexamples are replay-validated regardless of the
        // bound), and a Verified one means the whole lattice happened
        // to fit inside the bound — both are sound, so either replaces
        // the Unknown report. Skipped for rejected models, which the
        // bounded checker rejects identically.
        if kind != FailureKind::ModelError {
            let _span = holistic_obs::span_labeled("supervise.attempt", "depth-bounded");
            let mut config = self.config.checker.clone();
            config.max_schemas = self.config.ladder.depth_schemas;
            config.time_budget = self.config.ladder.depth_budget;
            config.strategy = Strategy::Enumerate;
            config.threads = Some(1);
            config.chaos = Default::default();
            let bounded = Checker::with_config(config);
            let matrix_job = MatrixJob {
                ta: job.ta,
                spec: job.spec,
                justice: job.justice,
                label: &job.property,
            };
            if let Ok(report) = bounded.check_cell(&matrix_job) {
                let definite = !matches!(report.verdict(), Verdict::Unknown(_));
                if definite {
                    record.rung = Rung::DepthBounded;
                    record.note = Some(format!(
                        "depth-bounded re-check (<= {} schemas) reached a definite verdict",
                        self.config.ladder.depth_schemas
                    ));
                    record.report = report;
                    return record;
                }
            }
        }
        // Rung 3: seeded simulation-based falsification. Concrete
        // adversarial runs can refute the property but never prove it,
        // so the verdict stays Unknown; the note records what the
        // sweep saw.
        let _span = holistic_obs::span_labeled("supervise.attempt", "simulation");
        let seed = self.config.master_seed ^ stable_hash(&job.id);
        let mut plan = FaultPlan::standard(seed);
        if self.config.ladder.sim_scenarios > 0 {
            plan.scenarios.truncate(self.config.ladder.sim_scenarios);
        }
        let monitor = sim_property(&job.property);
        let total = plan.scenarios.len();
        let mut falsified = None;
        for scenario_report in plan.run() {
            let hit = scenario_report
                .violations
                .iter()
                .find(|v| monitor.is_none_or(|m| v.property == m));
            if let Some(v) = hit {
                falsified = Some(format!("{v} [{}]", scenario_report.label));
                break;
            }
        }
        record.rung = Rung::Simulation;
        let sim_note = match falsified {
            Some(v) => format!("simulation falsified the property: {v}"),
            None => format!("property survived {total} seeded adversarial scenarios (seed {seed})"),
        };
        record.note = Some(match record.note.take() {
            Some(prev) => format!("{prev}; {sim_note}"),
            None => sim_note,
        });
        record
    }
}

/// Maps a paper property name to the simulation monitor that watches
/// it. `None` means "count any safety violation" (used for liveness
/// and unrecognized properties, where any monitor hit is still signal).
fn sim_property(property: &str) -> Option<&'static str> {
    if property.contains("Just") {
        Some("BV-Justification")
    } else if property.starts_with("Inv1") || property.contains("Agreement") {
        Some("Agreement")
    } else if property.starts_with("Inv2") || property.contains("Validity") {
        Some("Validity")
    } else {
        None
    }
}

/// A synthetic single-query report for cells that failed before the
/// checker produced one.
fn unknown_report(message: String) -> CheckReport {
    CheckReport {
        queries: vec![QueryReport {
            verdict: Verdict::Unknown(message),
            stats: QueryStats {
                schemas: 0,
                avg_segments: 0.0,
                duration: Duration::ZERO,
                capped: false,
                timed_out: false,
                strategy: Strategy::Enumerate,
                solver: SolverStats::default(),
                cache_hits: 0,
                cache_misses: 0,
                replayed: false,
                cores_learned: 0,
                schemas_pruned_by_core: 0,
                threads: 1,
            },
        }],
        duration: Duration::ZERO,
    }
}

/// Stable FNV-1a hash of a cell id (deterministic across processes,
/// unlike `DefaultHasher` with random state — resume must reproduce the
/// same jitter and simulation seeds).
fn stable_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
