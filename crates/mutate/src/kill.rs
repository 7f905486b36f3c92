//! The kill-matrix runner.
//!
//! Runs every mutant of a corpus against every property of the matrix
//! through [`Checker::check_matrix`], classifies each mutant, and
//! confirms every kill concretely:
//!
//! * **rejected** — static validation or guard analysis refuses the
//!   automaton before any verification (fall guards, updating
//!   self-loops): the front line of the toolchain caught the breakage;
//! * **killed** — some property is `Violated` and *every* violated
//!   query's counterexample replays through the explicit-state
//!   oracle's own counter-system semantics to a property violation
//!   ([`holistic_oracle::replay_counterexample`]) — no vacuous kills:
//!   an unconfirmable counterexample fails the whole run
//!   ([`KillMatrix::gate`]) because it would mean the checker and the
//!   independent semantics disagree;
//! * **survived** — every property verifies. Designed survivors
//!   (equivalent mutants) carry their triage note; any other survivor
//!   is flagged for triage in the JSON;
//! * **unknown** — a property gave up (schema cap / time budget)
//!   and nothing else killed the mutant.

use std::time::Duration;

use holistic_bench::json::{num, quote as q};
use holistic_checker::{Checker, CheckerConfig, GuardInfo, MatrixJob, Verdict};
use holistic_ltl::{Justice, Ltl};
use holistic_oracle::replay_counterexample;
use holistic_ta::ThresholdAutomaton;

use crate::operators::Mutant;

/// Configuration for a kill-matrix run.
#[derive(Clone, Debug)]
pub struct KillConfig {
    /// Whole-property workers for [`Checker::check_matrix`].
    pub workers: usize,
    /// Per-property wall-clock budget (mutants can reshape the
    /// schedule lattice, so every cell is bounded).
    pub time_budget: Duration,
    /// Schema cap per property.
    pub max_schemas: usize,
    /// Farkas-core learning and pruning in the checker (see
    /// [`CheckerConfig::core_pruning`]). On by default; the kill-rate
    /// acceptance tests flip it off to prove the matrix is identical
    /// either way.
    pub core_pruning: bool,
}

impl Default for KillConfig {
    fn default() -> KillConfig {
        KillConfig {
            workers: 2,
            time_budget: Duration::from_secs(30),
            max_schemas: 20_000,
            core_pruning: true,
        }
    }
}

/// One (mutant, property) cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Property name.
    pub property: String,
    /// `verified`, `violated`, `unknown: …`, or `error: …`.
    pub verdict: String,
    /// Schemas explored.
    pub schemas: usize,
    /// For `violated` cells: whether every violated query's
    /// counterexample was confirmed concretely.
    pub confirmed: bool,
    /// For confirmed cells: the witness parameter valuation.
    pub witness_params: Vec<i64>,
    /// For confirmed cells: single-step length of the replayed trace.
    pub trace_len: usize,
}

/// How a mutant fared against the whole matrix.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// At least one property violated, all counterexamples confirmed.
    Killed,
    /// Static validation / guard analysis refused the automaton.
    Rejected(String),
    /// Every property verified.
    Survived,
    /// No kill, and at least one property gave up.
    Unknown,
}

/// Per-mutant result row.
#[derive(Clone, Debug)]
pub struct MutantResult {
    /// Mutant identifier.
    pub id: String,
    /// Operator family.
    pub operator: &'static str,
    /// Seeded deviation, in words.
    pub description: String,
    /// Classification.
    pub outcome: Outcome,
    /// Properties that killed it (violated + confirmed).
    pub killed_by: Vec<String>,
    /// Property names whose counterexample failed confirmation — must
    /// stay empty; non-empty fails [`KillMatrix::gate`].
    pub unconfirmed: Vec<String>,
    /// Per-property cells (empty for rejected mutants).
    pub cells: Vec<CellResult>,
    /// Triage note: the designed-survivor note, or a flag for
    /// unexpected survivors.
    pub note: Option<String>,
}

/// A completed kill matrix.
#[derive(Clone, Debug)]
pub struct KillMatrix {
    /// Name of the subject automaton.
    pub automaton: String,
    /// Property names, in matrix column order.
    pub properties: Vec<String>,
    /// Per-mutant rows, in corpus order.
    pub results: Vec<MutantResult>,
}

/// The static front line: why validation or guard analysis refuses
/// `ta` before any verification, or `None` if it is checkable.
pub(crate) fn static_rejection(ta: &ThresholdAutomaton) -> Option<String> {
    match ta.validate() {
        Err(e) => Some(format!("validation: {e}")),
        Ok(()) => match GuardInfo::analyse(ta) {
            Err(e) => Some(format!("guard analysis: {e:?}")),
            Ok(_) => None,
        },
    }
}

/// Runs the kill matrix: `mutants × properties`, with per-mutant
/// justice derived by `justice_for` (rule-wise justice must be
/// recomputed against each mutated rule set).
pub fn run_kill_matrix(
    automaton: &str,
    mutants: &[Mutant],
    properties: &[(String, Ltl)],
    justice_for: impl Fn(&ThresholdAutomaton) -> Justice,
    config: &KillConfig,
) -> KillMatrix {
    let checker = Checker::with_config(CheckerConfig {
        max_schemas: config.max_schemas,
        time_budget: Some(config.time_budget),
        threads: Some(1),
        core_pruning: config.core_pruning,
        ..CheckerConfig::default()
    });

    // Static front line: validation + guard analysis.
    let mut rejected: Vec<Option<String>> = Vec::with_capacity(mutants.len());
    for m in mutants {
        rejected.push(static_rejection(&m.ta));
    }

    // One justice per checkable mutant, then the flat job list.
    let checkable: Vec<usize> = (0..mutants.len())
        .filter(|&i| rejected[i].is_none())
        .collect();
    let justices: Vec<Justice> = checkable
        .iter()
        .map(|&i| justice_for(&mutants[i].ta))
        .collect();
    let mut jobs = Vec::new();
    for (k, &i) in checkable.iter().enumerate() {
        for (name, spec) in properties {
            jobs.push(MatrixJob {
                ta: &mutants[i].ta,
                spec,
                justice: &justices[k],
                label: name,
            });
        }
    }
    let reports = checker.check_matrix(&jobs, config.workers);

    let mut results = Vec::with_capacity(mutants.len());
    let mut next_report = 0usize;
    for (i, m) in mutants.iter().enumerate() {
        if let Some(reason) = &rejected[i] {
            results.push(MutantResult {
                id: m.id.clone(),
                operator: m.operator,
                description: m.description.clone(),
                outcome: Outcome::Rejected(reason.clone()),
                killed_by: Vec::new(),
                unconfirmed: Vec::new(),
                cells: Vec::new(),
                note: m.note.map(str::to_owned),
            });
            continue;
        }
        let k = checkable.iter().position(|&j| j == i).expect("checkable");
        let justice = &justices[k];
        let mut cells = Vec::new();
        let mut killed_by = Vec::new();
        let mut unconfirmed = Vec::new();
        let mut gave_up = false;
        for (name, spec) in properties {
            let report = &reports[next_report];
            next_report += 1;
            let cell = match report {
                Err(e) => CellResult {
                    property: name.clone(),
                    verdict: format!("error: {e}"),
                    schemas: 0,
                    confirmed: false,
                    witness_params: Vec::new(),
                    trace_len: 0,
                },
                Ok(report) => {
                    let mut confirmed_all = true;
                    let mut violated = false;
                    let mut witness_params = Vec::new();
                    let mut trace_len = 0;
                    for (qi, q) in report.queries.iter().enumerate() {
                        if let Verdict::Violated(ce) = &q.verdict {
                            violated = true;
                            match replay_counterexample(&m.ta, spec, justice, qi, ce) {
                                Ok(replayed) => {
                                    witness_params = ce.params.clone();
                                    trace_len = replayed.trace_len;
                                }
                                Err(_) => confirmed_all = false,
                            }
                        }
                    }
                    let verdict = match report.verdict() {
                        Verdict::Unknown(r) => {
                            gave_up = true;
                            format!("unknown: {r}")
                        }
                        v => v.label().to_owned(),
                    };
                    if violated {
                        if confirmed_all {
                            killed_by.push(name.clone());
                        } else {
                            unconfirmed.push(name.clone());
                        }
                    }
                    CellResult {
                        property: name.clone(),
                        verdict,
                        schemas: report.total_schemas(),
                        confirmed: violated && confirmed_all,
                        witness_params,
                        trace_len,
                    }
                }
            };
            cells.push(cell);
        }
        // A violated cell whose counterexample failed confirmation still
        // counts as killed for rate purposes; the gate fails on the
        // unconfirmed list.
        let outcome = if !killed_by.is_empty() || !unconfirmed.is_empty() {
            Outcome::Killed
        } else if gave_up {
            Outcome::Unknown
        } else {
            Outcome::Survived
        };
        let note = match (&outcome, m.note) {
            (Outcome::Survived, Some(n)) => Some(n.to_owned()),
            (Outcome::Survived, None) => Some("UNEXPECTED SURVIVOR: triage required".to_owned()),
            (_, Some(n)) => Some(format!("expected survivor, but: {n}")),
            _ => None,
        };
        results.push(MutantResult {
            id: m.id.clone(),
            operator: m.operator,
            description: m.description.clone(),
            outcome,
            killed_by,
            unconfirmed,
            cells,
            note,
        });
    }
    KillMatrix {
        automaton: automaton.to_owned(),
        properties: properties.iter().map(|(n, _)| n.clone()).collect(),
        results,
    }
}

impl KillMatrix {
    /// Total mutants.
    pub fn total(&self) -> usize {
        self.results.len()
    }

    /// Mutants killed by a confirmed counterexample.
    pub fn killed(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.outcome == Outcome::Killed)
            .count()
    }

    /// Mutants rejected statically.
    pub fn rejected(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Rejected(_)))
            .count()
    }

    /// Mutants every property verified.
    pub fn survived(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.outcome == Outcome::Survived)
            .count()
    }

    /// Mutants with a gave-up cell and no kill.
    pub fn unknown(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.outcome == Outcome::Unknown)
            .count()
    }

    /// `(killed + rejected) / total` — the fraction of seeded mutants
    /// the toolchain caught, by counterexample or by static refusal.
    pub fn caught_rate(&self) -> f64 {
        if self.results.is_empty() {
            return 1.0;
        }
        (self.killed() + self.rejected()) as f64 / self.total() as f64
    }

    /// Kills whose counterexample failed concrete confirmation
    /// (property names per mutant id). Must be empty.
    pub fn unconfirmed_kills(&self) -> Vec<(String, Vec<String>)> {
        self.results
            .iter()
            .filter(|r| !r.unconfirmed.is_empty())
            .map(|r| (r.id.clone(), r.unconfirmed.clone()))
            .collect()
    }

    /// The acceptance gate: the caught rate must reach `min_rate` and
    /// every kill must be backed by a confirmed counterexample.
    ///
    /// # Errors
    ///
    /// A human-readable description of the failure.
    pub fn gate(&self, min_rate: f64) -> Result<(), String> {
        let unconfirmed = self.unconfirmed_kills();
        if !unconfirmed.is_empty() {
            return Err(format!(
                "vacuous kills (counterexample failed concrete replay): {unconfirmed:?}"
            ));
        }
        let rate = self.caught_rate();
        if rate < min_rate {
            let survivors: Vec<&str> = self
                .results
                .iter()
                .filter(|r| matches!(r.outcome, Outcome::Survived | Outcome::Unknown))
                .map(|r| r.id.as_str())
                .collect();
            return Err(format!(
                "caught rate {:.1}% below the {:.1}% gate; uncaught: {survivors:?}",
                rate * 100.0,
                min_rate * 100.0
            ));
        }
        Ok(())
    }

    /// Renders the matrix as text: one row per mutant, one column per
    /// property (`.` verified, `X` confirmed kill, `!` unconfirmed,
    /// `?` gave up), plus the outcome and note.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let id_w = self
            .results
            .iter()
            .map(|r| r.id.len())
            .max()
            .unwrap_or(6)
            .max(6);
        let _ = write!(out, "{:id_w$}  ", "mutant");
        for p in &self.properties {
            let _ = write!(out, "{p:>10} ");
        }
        let _ = writeln!(out, " outcome");
        for r in &self.results {
            let _ = write!(out, "{:id_w$}  ", r.id);
            match &r.outcome {
                Outcome::Rejected(reason) => {
                    for _ in &self.properties {
                        let _ = write!(out, "{:>10} ", "-");
                    }
                    let _ = writeln!(out, " rejected ({reason})");
                }
                _ => {
                    for c in &r.cells {
                        let mark = if c.verdict == "verified" {
                            "."
                        } else if c.confirmed {
                            "X"
                        } else if c.verdict == "violated" {
                            "!"
                        } else {
                            "?"
                        };
                        let _ = write!(out, "{mark:>10} ");
                    }
                    let outcome = match &r.outcome {
                        Outcome::Killed => format!("killed by {:?}", r.killed_by),
                        Outcome::Survived => "SURVIVED".to_owned(),
                        Outcome::Unknown => "unknown".to_owned(),
                        Outcome::Rejected(_) => unreachable!(),
                    };
                    let note = r
                        .note
                        .as_deref()
                        .map(|n| format!("  // {n}"))
                        .unwrap_or_default();
                    let _ = writeln!(out, " {outcome}{note}");
                }
            }
        }
        let _ = writeln!(
            out,
            "total {} = {} killed + {} rejected + {} survived + {} unknown; caught {:.1}%",
            self.total(),
            self.killed(),
            self.rejected(),
            self.survived(),
            self.unknown(),
            self.caught_rate() * 100.0
        );
        out
    }

    /// Serialises the matrix in the same hand-rolled JSON style as
    /// `BENCH_table2.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema_version\": 1,\n");
        out.push_str("  \"generated_by\": \"mutation_matrix\",\n");
        out.push_str(&format!("  \"automaton\": {},\n", q(&self.automaton)));
        let props: Vec<String> = self.properties.iter().map(|p| q(p)).collect();
        out.push_str(&format!("  \"properties\": [{}],\n", props.join(", ")));
        out.push_str("  \"summary\": {\n");
        out.push_str(&format!("    \"total\": {},\n", self.total()));
        out.push_str(&format!("    \"killed\": {},\n", self.killed()));
        out.push_str(&format!("    \"rejected\": {},\n", self.rejected()));
        out.push_str(&format!("    \"survived\": {},\n", self.survived()));
        out.push_str(&format!("    \"unknown\": {},\n", self.unknown()));
        out.push_str(&format!(
            "    \"caught_rate\": {}\n",
            num(self.caught_rate())
        ));
        out.push_str("  },\n");
        out.push_str("  \"mutants\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"id\": {},\n", q(&r.id)));
            out.push_str(&format!("      \"operator\": {},\n", q(r.operator)));
            out.push_str(&format!("      \"description\": {},\n", q(&r.description)));
            let (outcome, reason) = match &r.outcome {
                Outcome::Killed => ("killed", None),
                Outcome::Rejected(reason) => ("rejected", Some(reason.clone())),
                Outcome::Survived => ("survived", None),
                Outcome::Unknown => ("unknown", None),
            };
            out.push_str(&format!("      \"outcome\": {},\n", q(outcome)));
            if let Some(reason) = reason {
                out.push_str(&format!("      \"reason\": {},\n", q(&reason)));
            }
            let killed_by: Vec<String> = r.killed_by.iter().map(|p| q(p)).collect();
            out.push_str(&format!(
                "      \"killed_by\": [{}],\n",
                killed_by.join(", ")
            ));
            match &r.note {
                Some(n) => out.push_str(&format!("      \"note\": {},\n", q(n))),
                None => out.push_str("      \"note\": null,\n"),
            }
            out.push_str("      \"cells\": [\n");
            for (j, c) in r.cells.iter().enumerate() {
                let params: Vec<String> = c.witness_params.iter().map(|p| p.to_string()).collect();
                out.push_str(&format!(
                    "        {{\"property\": {}, \"verdict\": {}, \"schemas\": {}, \
                     \"confirmed\": {}, \"witness_params\": [{}], \"trace_len\": {}}}{}\n",
                    q(&c.property),
                    q(&c.verdict),
                    c.schemas,
                    c.confirmed,
                    params.join(", "),
                    c.trace_len,
                    if j + 1 < r.cells.len() { "," } else { "" }
                ));
            }
            out.push_str("      ]\n");
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}
