//! The resilient matrix supervisor.
//!
//! [`Supervisor::run`] drives a property×automaton matrix to a verdict
//! for *every* cell, no matter what individual cells do:
//!
//! * **isolation** — each cell runs through
//!   [`Checker::check_cell`], so a worker panic becomes a per-cell
//!   `Unknown` instead of aborting the run;
//! * **degradation** — a cell whose one full-strength check fails (a
//!   panic, an exhausted time budget or schema cap, a solver budget or
//!   a rejected model) is classified and steps down the ladder
//!   (full → depth-bounded → oracle, see [`Rung`]) so the report still
//!   says *something* checked about the property.
//!
//! A check is a pure function of the automaton, the property and the
//! checker configuration, so a failed cell is never checked again at
//! full strength: it would fail the same way.
//!
//! On a clean run every cell is answered by its full-strength
//! `check_cell`, so the records carry exactly the reports
//! [`Checker::check_matrix`] returns for the same jobs and checker.

use std::time::Duration;

use holistic_checker::{
    pull_next, CeStep, CheckReport, Checker, Counterexample, MatrixJob, Verdict,
};
use holistic_oracle::{decide_spec, replay_counterexample, ConcreteSystem, OracleVerdict};
use holistic_ta::{Config, ThresholdAutomaton};

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
    /// The degradation ladder.
    pub ladder: LadderConfig,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            workers: 1,
            ladder: LadderConfig::default(),
        }
    }
}

/// One completed cell, exactly as it is reported.
#[derive(Clone, Debug)]
pub struct CellRecord {
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

    /// Runs the matrix on `checker` (its configuration is rung 1, and
    /// its exploration cache is shared by every cell) and returns one
    /// record per job, in job order. Up to
    /// [`workers`](SupervisorConfig::workers) cells run concurrently,
    /// each idle worker pulling the next unstarted job.
    pub fn run(&self, checker: &Checker, jobs: &[MatrixJob<'_>]) -> Vec<CellRecord> {
        pull_next(jobs.len(), self.config.workers, |i| {
            self.supervise_cell(checker, &jobs[i])
        })
    }

    /// One full-strength check of a cell; a failure goes down the
    /// ladder.
    fn supervise_cell(&self, checker: &Checker, job: &MatrixJob<'_>) -> CellRecord {
        let _span = holistic_obs::span_labeled("supervise.cell", job.label);
        let full = {
            let _span = holistic_obs::span_labeled("supervise.attempt", "full");
            checker.check_cell(job)
        };
        let report = match full {
            Ok(report) => report,
            // Outside the fragment: the depth-bounded rung would
            // reject it identically — only the oracle can still probe
            // the property.
            Err(e) => {
                return self.degrade(
                    checker,
                    job,
                    FailureKind::ModelError,
                    None,
                    Some(format!("model rejected: {e}")),
                )
            }
        };
        match report
            .queries
            .iter()
            .find_map(|q| FailureKind::classify(&q.verdict))
        {
            None => CellRecord {
                rung: Rung::Full,
                failure: None,
                note: None,
                report: Some(report),
            },
            Some(kind) => self.degrade(checker, job, kind, Some(report), None),
        }
    }

    /// Steps a failed cell down the ladder. `full` is the full-strength
    /// report when one exists (with its `Unknown` verdicts); `detail`
    /// is the note for a rejected model, which has none.
    fn degrade(
        &self,
        checker: &Checker,
        job: &MatrixJob<'_>,
        kind: FailureKind,
        full: Option<CheckReport>,
        detail: Option<String>,
    ) -> CellRecord {
        let mut record = CellRecord {
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
            if let Ok(report) = Checker::with_config(config).check_cell(job) {
                if !matches!(report.verdict(), Verdict::Unknown(_)) {
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
fn oracle_rung(job: &MatrixJob<'_>, report: Option<&mut CheckReport>) -> String {
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
