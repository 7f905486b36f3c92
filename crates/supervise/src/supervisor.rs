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
//! * **degradation** — cells that exhaust their time budget, schema
//!   cap or retries step down the ladder
//!   (full → depth-bounded → oracle, see
//!   [`Rung`]) so the report still says
//!   *something* checked about the property.
//!
//! On a clean run every cell is answered by its first full-strength
//! `check_cell`, so the records carry exactly the reports
//! [`Checker::check_matrix`] returns for the same jobs and checker.

use std::time::Duration;

use holistic_checker::{
    pull_next, CeStep, CheckReport, Checker, Counterexample, MatrixJob, Verdict,
};
use holistic_ltl::{Justice, Ltl};
use holistic_oracle::{decide_spec, replay_counterexample, ConcreteSystem, OracleVerdict};
use holistic_ta::{Config, ThresholdAutomaton};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::failure::{FailureKind, Rung};

/// The degradation-ladder knobs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LadderConfig {
    /// Rung-2 schema bound for the depth-bounded re-check.
    pub depth_schemas: usize,
    /// Rung-2 wall-clock budget.
    pub depth_budget: Option<Duration>,
}

impl Default for LadderConfig {
    fn default() -> LadderConfig {
        LadderConfig {
            depth_schemas: 64,
            depth_budget: Some(Duration::from_secs(5)),
        }
    }
}

/// Supervisor configuration. The full-strength (rung 1) checker
/// configuration is the caller's: [`Supervisor::run`] borrows the
/// checker it runs every cell on.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Concurrent cells (1 = deterministic sequential run).
    pub workers: usize,
    /// Retries after the first attempt for transient failures.
    pub max_retries: u64,
    /// Base backoff delay; attempt `k` waits `base * 2^(k-1)` plus
    /// jitter, capped at [`backoff_cap`](SupervisorConfig::backoff_cap).
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
    /// The degradation ladder.
    pub ladder: LadderConfig,
    /// Master seed of the retry jitter, so runs are reproducible.
    pub master_seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            workers: 1,
            max_retries: 2,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            ladder: LadderConfig::default(),
            master_seed: 0,
        }
    }
}

/// One supervised matrix cell.
pub struct SupervisedJob<'a> {
    /// Stable id, unique within the run (names the cell in logs and
    /// seeds its retry jitter).
    pub id: String,
    /// The paper property name (the checker's label for the cell).
    pub property: String,
    /// The automaton.
    pub ta: &'a ThresholdAutomaton,
    /// The LTL property.
    pub spec: &'a Ltl,
    /// The justice assumption.
    pub justice: &'a Justice,
}

/// One completed cell, exactly as it is reported.
#[derive(Clone, Debug)]
pub struct CellRecord {
    /// The cell's stable id.
    pub id: String,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u64,
    /// The ladder rung that produced the verdict.
    pub rung: Rung,
    /// Why full verification failed, for non-definite verdicts.
    pub failure: Option<FailureKind>,
    /// Free-form degradation detail (e.g. the model rejection or the
    /// oracle outcome).
    pub note: Option<String>,
    /// The per-query report of the rung that answered; `None` when the
    /// checker rejected the model (the rejection is in `note`).
    pub report: Option<CheckReport>,
}

impl CellRecord {
    /// Whether the cell holds a definite verdict or a classified
    /// failure (the chaos-smoke invariant).
    pub fn is_classified(&self) -> bool {
        self.failure.is_some()
            || self.report.as_ref().is_some_and(|r| {
                r.queries
                    .iter()
                    .all(|q| !matches!(q.verdict, Verdict::Unknown(_)))
            })
    }
}

/// The supervisor. Construct with a [`SupervisorConfig`], then call
/// [`run`](Supervisor::run).
#[derive(Clone, Debug, Default)]
pub struct Supervisor {
    config: SupervisorConfig,
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

    /// Runs the matrix on `checker` (its configuration is rung 1, and
    /// its exploration cache is shared by every cell) and returns one
    /// record per job, in job order. Up to
    /// [`workers`](SupervisorConfig::workers) cells run concurrently,
    /// each idle worker pulling the next unstarted job.
    pub fn run(&self, checker: &Checker, jobs: &[SupervisedJob<'_>]) -> Vec<CellRecord> {
        pull_next(jobs.len(), self.config.workers, |i| {
            self.supervise_cell(checker, &jobs[i])
        })
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
            let attempt_span = holistic_obs::span_labeled("supervise.attempt", "full");
            let report = match checker.check_cell(&matrix_job) {
                Ok(report) => report,
                Err(e) => {
                    // Outside the fragment: deterministic, never
                    // retried, and the depth-bounded rung would reject
                    // it identically — only the oracle can still probe
                    // the property.
                    return self.degrade(
                        checker,
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
                    report: Some(report),
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
            return self.degrade(checker, job, attempts, kind, Some(report), None);
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
    /// is the note for a rejected model, which has none.
    fn degrade(
        &self,
        checker: &Checker,
        job: &SupervisedJob<'_>,
        attempts: u64,
        kind: FailureKind,
        full: Option<CheckReport>,
        detail: Option<String>,
    ) -> CellRecord {
        let mut record = CellRecord {
            id: job.id.clone(),
            attempts,
            rung: Rung::Full,
            failure: Some(kind),
            note: detail,
            report: full,
        };
        holistic_obs::add("supervise.rung_drops", 1);
        // Rung 2: depth-bounded re-check. A Violated verdict here is
        // real (counterexamples are replay-validated regardless of the
        // bound), and a Verified one means the whole lattice happened
        // to fit inside the bound — both are sound, so either replaces
        // the Unknown report. Skipped for rejected models, which the
        // bounded checker rejects identically.
        if kind != FailureKind::ModelError {
            let _span = holistic_obs::span_labeled("supervise.attempt", "depth-bounded");
            let mut config = checker.config().clone();
            config.max_schemas = self.config.ladder.depth_schemas;
            config.time_budget = self.config.ladder.depth_budget;
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
                    record.report = Some(report);
                    return record;
                }
            }
        }
        // Rung 3: the explicit-state oracle on the cell's own
        // automaton at small valuations. A violation it finds is a
        // concrete run, reported once replay confirms it; "holds at
        // every swept valuation" proves nothing for larger parameters,
        // so that verdict stays Unknown.
        let _span = holistic_obs::span_labeled("supervise.attempt", "oracle");
        record.rung = Rung::Oracle;
        let oracle_note = oracle_rung(job, record.report.as_mut());
        record.note = Some(match record.note.take() {
            Some(prev) => format!("{prev}; {oracle_note}"),
            None => oracle_note,
        });
        record
    }
}

/// Parameters of the oracle rung's valuations are at most this.
const ORACLE_BOUND: i64 = 4;

/// The oracle rung's state budget per query and valuation.
const ORACLE_MAX_STATES: usize = 500_000;

/// Runs [`decide_spec`] on the cell's automaton at every admissible
/// valuation with parameters up to [`ORACLE_BOUND`], smallest system
/// first. The first violation that replay confirms replaces its
/// query's verdict in `report` (a rejected model has no report: the
/// note alone records it). Returns the note describing the outcome.
fn oracle_rung(job: &SupervisedJob<'_>, report: Option<&mut CheckReport>) -> String {
    let valuations = job.ta.admissible_valuations(ORACLE_BOUND);
    let mut states = 0;
    let mut undecided = Vec::new();
    for params in &valuations {
        let decisions = match decide_spec(job.ta, job.spec, job.justice, params, ORACLE_MAX_STATES)
        {
            Ok(decisions) => decisions,
            Err(e) => return format!("oracle cannot decide the cell: {e}"),
        };
        for (qi, d) in decisions.iter().enumerate() {
            states += d.states;
            let witness = match &d.verdict {
                OracleVerdict::Holds => continue,
                OracleVerdict::Unknown(reason) => {
                    undecided.push(format!("{params:?} ({reason})"));
                    continue;
                }
                OracleVerdict::Violated(witness) => witness,
            };
            let Some(ce) = witness_counterexample(job.ta, params, &witness.trace)
                .filter(|ce| replay_counterexample(job.ta, job.spec, job.justice, qi, ce).is_ok())
            else {
                return format!("oracle witness at {params:?} failed replay");
            };
            if let Some(q) = report.and_then(|r| r.queries.get_mut(qi)) {
                q.verdict = Verdict::Violated(Box::new(ce));
            }
            return format!(
                "oracle found a replay-confirmed {} violation of query {qi} at {params:?} \
                 ({} states, {} configurations)",
                witness.kind,
                d.states,
                witness.trace.len()
            );
        }
    }
    let mut note = format!(
        "oracle: no violation at the admissible valuations {valuations:?} ({states} states)"
    );
    if !undecided.is_empty() {
        note += &format!("; undecided at {}", undecided.join(", "));
    }
    note
}

/// The oracle's witness `trace` at `params` as a counterexample: one
/// segment with a single firing per pair of consecutive configurations,
/// of the rule between them. `None` when some pair is not one rule
/// apart.
fn witness_counterexample(
    ta: &ThresholdAutomaton,
    params: &[i64],
    trace: &[Config],
) -> Option<Counterexample> {
    let sys = ConcreteSystem::new(ta, params).ok()?;
    let steps = trace
        .windows(2)
        .map(|pair| {
            let (rule, _) = sys
                .successors(&pair[0])
                .into_iter()
                .find(|(_, next)| *next == pair[1])?;
            Some(CeStep {
                segment: 0,
                rule,
                times: 1,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let (first, last) = (trace.first()?, trace.last()?);
    Some(Counterexample {
        params: params.to_vec(),
        initial: first.clone(),
        steps,
        boundaries: vec![first.clone(), last.clone()],
    })
}

/// Stable FNV-1a hash of a cell id (deterministic across processes,
/// unlike `DefaultHasher` with random state, so a rerun reproduces the
/// same jitter).
fn stable_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
