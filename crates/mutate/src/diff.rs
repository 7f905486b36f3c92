//! The differential validation harness.
//!
//! Sweeps every Table-2 cell and every seeded mutant corpus through
//! *both* pipelines — the symbolic checker and the explicit-state
//! oracle — at small concrete parameters, and compares verdicts under
//! the soundness-approximation rules:
//!
//! * symbolic **verified** claims all admissible parameters, so a
//!   concrete oracle violation at *any* swept valuation is a hard
//!   disagreement;
//! * symbolic **violated** carries a counterexample at specific
//!   parameters: it must replay step-by-step through the oracle's
//!   transition relation, and the oracle must not exhaustively prove
//!   the property at exactly those parameters;
//! * symbolic **unknown** is always acceptable (giving up is sound;
//!   lying is not), and so is the oracle's own budget-exhaustion
//!   `Unknown`.
//!
//! On top of the sweep, [`run_adjudication`] takes the two documented
//! kill-matrix survivors (via [`survivor_cases`]) and tests their
//! triage claims concretely: `thr.down.b0_high`'s claimed equivalence
//! by comparing mutant-vs-pristine oracle verdicts on the full
//! kill-property set, and `drop.s3`'s claimed justice mask by
//! re-deciding `SRoundTerm` under rule-wise justice, where the kill
//! should reappear.

use std::time::Duration;

use holistic_bench::json::quote as q;
use holistic_bench::table2_cells;
use holistic_checker::{Checker, CheckerConfig, Verdict};
use holistic_ltl::{classify, Justice, Ltl};
use holistic_oracle::{
    combined_verdict, decide_query, decide_spec, replay_counterexample, OracleVerdict,
};
use holistic_ta::ThresholdAutomaton;

use crate::adjudicate::survivor_cases;
use crate::corpus::{
    bv_broadcast_corpus, bv_kill_properties, simplified_corpus, simplified_kill_properties,
    smoke_ids,
};
use crate::kill::static_rejection;

/// Budgets and scope for a differential run.
#[derive(Clone, Debug)]
pub struct DiffConfig {
    /// Oracle BFS budget per (query, valuation).
    pub max_states: usize,
    /// Sweep valuations with every parameter in `0..=param_bound`.
    pub param_bound: i64,
    /// Keep only the smallest (by process count) admissible valuations.
    pub max_valuations: usize,
    /// Checker wall-clock budget per property.
    pub time_budget: Duration,
    /// Checker schema cap per property.
    pub max_schemas: usize,
    /// Smoke scope: bv-broadcast Table-2 cells and the bv smoke mutant
    /// subset only, no survivor adjudication.
    pub smoke: bool,
}

impl DiffConfig {
    /// The full sweep: all twelve Table-2 cells, both complete mutant
    /// corpora and the survivor adjudication.
    pub fn full() -> DiffConfig {
        DiffConfig {
            max_states: 500_000,
            param_bound: 4,
            max_valuations: 6,
            time_budget: Duration::from_secs(20),
            max_schemas: 20_000,
            smoke: false,
        }
    }

    /// The CI smoke scope: bv-broadcast only, tighter budgets.
    pub fn smoke() -> DiffConfig {
        DiffConfig {
            max_states: 100_000,
            param_bound: 4,
            max_valuations: 4,
            time_budget: Duration::from_secs(10),
            max_schemas: 5_000,
            smoke: true,
        }
    }
}

/// How one cell's two verdicts relate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Agreement {
    /// Definite verdicts on both sides, consistent.
    Agree,
    /// The checker gave up (schema cap / time budget) — acceptable.
    SymbolicUnknown,
    /// Every oracle attempt exhausted its state budget — acceptable.
    OracleUnknown,
    /// The cell never reached a comparison (checker error, static
    /// mutant rejection, no admissible valuation under the bound).
    NotCheckable(String),
    /// A hard soundness failure: the pipelines contradict each other.
    Disagreement(String),
}

impl Agreement {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Agreement::Agree => "agree",
            Agreement::SymbolicUnknown => "symbolic-unknown",
            Agreement::OracleUnknown => "oracle-unknown",
            Agreement::NotCheckable(_) => "not-checkable",
            Agreement::Disagreement(_) => "DISAGREE",
        }
    }

    /// Whether this outcome fails the harness.
    pub fn is_failure(&self) -> bool {
        matches!(self, Agreement::Disagreement(_))
    }
}

/// One compared cell.
#[derive(Clone, Debug)]
pub struct CellDiff {
    /// Cell family: `table2` or `mutant/<corpus>`.
    pub subject: String,
    /// Cell name: `<automaton>/<property>` or `<mutant>/<property>`.
    pub name: String,
    /// The symbolic side, in words.
    pub symbolic: String,
    /// The oracle side, in words (per query, per valuation).
    pub oracle: String,
    /// Valuations swept.
    pub valuations: usize,
    /// Total oracle product states explored.
    pub states: usize,
    /// Counterexamples replayed step-by-step.
    pub replays: usize,
    /// The comparison outcome.
    pub agreement: Agreement,
}

/// A concretely adjudicated kill-matrix survivor.
#[derive(Clone, Debug)]
pub struct SurvivorVerdict {
    /// Mutant id.
    pub id: String,
    /// Corpus name.
    pub automaton: &'static str,
    /// The triage note whose claim is under test.
    pub claim: String,
    /// `(scenario, property, valuation, mutant verdict, pristine
    /// verdict, diverged)` rows.
    pub rows: Vec<AdjRow>,
    /// No kill-matrix property distinguishes mutant from pristine at
    /// any swept valuation (with at least one definite pair observed).
    pub equivalent: bool,
    /// For survivors with an alternative scenario: whether the kill
    /// reappears there (mutant violated, pristine holds).
    pub alt_kill_reappears: Option<bool>,
    /// The mechanical conclusion drawn from the rows.
    pub conclusion: String,
}

/// One adjudication measurement.
#[derive(Clone, Debug)]
pub struct AdjRow {
    /// `matrix` or the alternative-scenario label.
    pub scenario: String,
    /// Property name.
    pub property: String,
    /// Parameter valuation.
    pub valuation: Vec<i64>,
    /// Oracle verdict on the mutant.
    pub mutant: String,
    /// Oracle verdict on the pristine automaton.
    pub pristine: String,
    /// Both definite and different.
    pub diverged: bool,
}

/// A completed differential run.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Every compared cell.
    pub cells: Vec<CellDiff>,
    /// Survivor adjudications (empty in smoke scope).
    pub survivors: Vec<SurvivorVerdict>,
}

/// Accumulated outcome of comparing one cell.
struct CellOutcome {
    agree_definite: bool,
    symbolic_unknown: bool,
    oracle_unknown: bool,
    disagreement: Option<String>,
    states: usize,
    replays: usize,
    summary: Vec<String>,
}

impl CellOutcome {
    fn new() -> CellOutcome {
        CellOutcome {
            agree_definite: false,
            symbolic_unknown: false,
            oracle_unknown: false,
            disagreement: None,
            states: 0,
            replays: 0,
            summary: Vec::new(),
        }
    }

    fn agreement(&self) -> Agreement {
        if let Some(msg) = &self.disagreement {
            Agreement::Disagreement(msg.clone())
        } else if self.agree_definite {
            Agreement::Agree
        } else if self.oracle_unknown {
            Agreement::OracleUnknown
        } else {
            Agreement::SymbolicUnknown
        }
    }
}

fn fmt_valuation(v: &[i64]) -> String {
    let parts: Vec<String> = v.iter().map(i64::to_string).collect();
    format!("[{}]", parts.join(","))
}

/// Compares one (automaton, property, justice) cell.
fn diff_cell(
    subject: &str,
    name: &str,
    ta: &ThresholdAutomaton,
    spec: &Ltl,
    justice: &Justice,
    checker: &Checker,
    cfg: &DiffConfig,
) -> CellDiff {
    let mut valuations = ta.admissible_valuations(cfg.param_bound);
    valuations.truncate(cfg.max_valuations);
    let skeleton = |symbolic: String, oracle: String, agreement: Agreement| CellDiff {
        subject: subject.to_owned(),
        name: name.to_owned(),
        symbolic,
        oracle,
        valuations: valuations.len(),
        states: 0,
        replays: 0,
        agreement,
    };
    if valuations.is_empty() {
        return skeleton(
            "-".into(),
            "-".into(),
            Agreement::NotCheckable(format!(
                "no admissible valuation with parameters <= {}",
                cfg.param_bound
            )),
        );
    }
    let report = match checker.check_ltl(ta, spec, justice) {
        Ok(r) => r,
        Err(e) => {
            return skeleton(
                format!("error: {e}"),
                "-".into(),
                Agreement::NotCheckable(format!("checker error: {e}")),
            )
        }
    };
    let queries = match classify(ta, spec) {
        Ok(qs) => qs,
        Err(e) => {
            return skeleton(
                report.verdict().label().into(),
                "-".into(),
                Agreement::Disagreement(format!(
                    "checker produced a report but the spec does not classify: {e:?}"
                )),
            )
        }
    };
    let mut out = CellOutcome::new();
    if queries.len() != report.queries.len() {
        out.disagreement = Some(format!(
            "classification gives {} queries, checker report has {}",
            queries.len(),
            report.queries.len()
        ));
    }
    for (qi, (query, qr)) in queries.iter().zip(&report.queries).enumerate() {
        if out.disagreement.is_some() {
            break;
        }
        match &qr.verdict {
            Verdict::Unknown(_) => {
                out.symbolic_unknown = true;
                out.summary.push(format!("q{qi}: symbolic gave up"));
            }
            Verdict::Verified => {
                let mut labels = Vec::new();
                for val in &valuations {
                    match decide_query(ta, query, justice, val, cfg.max_states) {
                        Err(e) => {
                            out.disagreement =
                                Some(format!("q{qi}: oracle rejects valuation {val:?}: {e}"));
                            break;
                        }
                        Ok(d) => {
                            out.states += d.states;
                            match &d.verdict {
                                OracleVerdict::Violated(w) => {
                                    out.disagreement = Some(format!(
                                        "q{qi}: symbolic verified, but a concrete {} violation \
                                         exists at {} ({} steps)",
                                        w.kind,
                                        fmt_valuation(val),
                                        w.trace.len().saturating_sub(1)
                                    ));
                                    break;
                                }
                                OracleVerdict::Holds => {
                                    out.agree_definite = true;
                                    labels.push(format!("holds@{}", fmt_valuation(val)));
                                }
                                OracleVerdict::Unknown(_) => {
                                    out.oracle_unknown = true;
                                    labels.push(format!("budget@{}", fmt_valuation(val)));
                                }
                            }
                        }
                    }
                }
                out.summary.push(format!("q{qi}: {}", labels.join(" ")));
            }
            Verdict::Violated(ce) => {
                match replay_counterexample(ta, spec, justice, qi, ce) {
                    Err(e) => {
                        out.disagreement =
                            Some(format!("q{qi}: counterexample fails oracle replay: {e}"));
                        continue;
                    }
                    Ok(replayed) => {
                        out.replays += 1;
                        out.agree_definite = true;
                        out.summary.push(format!(
                            "q{qi}: replayed {} steps@{}",
                            replayed.trace_len.saturating_sub(1),
                            fmt_valuation(&ce.params)
                        ));
                    }
                }
                // The oracle must not *exhaustively* prove the property
                // at exactly the counterexample's parameters.
                match decide_query(ta, query, justice, &ce.params, cfg.max_states) {
                    Err(e) => {
                        out.disagreement = Some(format!(
                            "q{qi}: counterexample at inadmissible parameters {:?}: {e}",
                            ce.params
                        ));
                    }
                    Ok(d) => {
                        out.states += d.states;
                        if matches!(d.verdict, OracleVerdict::Holds) {
                            out.disagreement = Some(format!(
                                "q{qi}: symbolic violated at {:?}, but exhaustive search finds \
                                 no violation there",
                                ce.params
                            ));
                        }
                    }
                }
            }
        }
    }
    CellDiff {
        subject: subject.to_owned(),
        name: name.to_owned(),
        symbolic: report.verdict().label().to_owned(),
        oracle: out.summary.join("; "),
        valuations: valuations.len(),
        states: out.states,
        replays: out.replays,
        agreement: out.agreement(),
    }
}

/// Runs the differential sweep (and, in full scope, the survivor
/// adjudication). `progress` receives one line per completed cell.
pub fn run_diff(cfg: &DiffConfig, mut progress: impl FnMut(&CellDiff)) -> DiffReport {
    let checker = Checker::with_config(CheckerConfig {
        max_schemas: cfg.max_schemas,
        time_budget: Some(cfg.time_budget),
        threads: Some(1),
        ..CheckerConfig::default()
    });
    let mut cells = Vec::new();
    let mut push = |cell: CellDiff, cells: &mut Vec<CellDiff>| {
        progress(&cell);
        cells.push(cell);
    };

    for cell in table2_cells() {
        if cfg.smoke && cell.automaton != "bv-broadcast" {
            continue;
        }
        let name = format!("{}/{}", cell.automaton, cell.property);
        let diff = diff_cell(
            "table2",
            &name,
            &cell.ta,
            &cell.spec,
            &cell.justice,
            &checker,
            cfg,
        );
        push(diff, &mut cells);
    }

    let (bv, mut corpus) = bv_broadcast_corpus();
    if cfg.smoke {
        let keep = smoke_ids();
        corpus.retain(|m| keep.contains(&m.id.as_str()));
    }
    let properties = bv_kill_properties(&bv);
    for m in &corpus {
        if let Some(reason) = static_rejection(&m.ta) {
            push(
                CellDiff {
                    subject: "mutant/bv_broadcast".into(),
                    name: m.id.clone(),
                    symbolic: "rejected".into(),
                    oracle: "-".into(),
                    valuations: 0,
                    states: 0,
                    replays: 0,
                    agreement: Agreement::NotCheckable(format!("statically rejected: {reason}")),
                },
                &mut cells,
            );
            continue;
        }
        let justice = Justice::from_rules(&m.ta);
        for (prop, spec) in &properties {
            let name = format!("{}/{}", m.id, prop);
            let diff = diff_cell(
                "mutant/bv_broadcast",
                &name,
                &m.ta,
                spec,
                &justice,
                &checker,
                cfg,
            );
            push(diff, &mut cells);
        }
    }

    if !cfg.smoke {
        let (simplified, corpus) = simplified_corpus();
        let properties = simplified_kill_properties(&simplified);
        // The kill matrix runs every simplified mutant under the
        // pristine Appendix-F justice (requirement-based, surgery-safe).
        let justice = simplified.justice();
        for m in &corpus {
            if let Some(reason) = static_rejection(&m.ta) {
                push(
                    CellDiff {
                        subject: "mutant/simplified_consensus".into(),
                        name: m.id.clone(),
                        symbolic: "rejected".into(),
                        oracle: "-".into(),
                        valuations: 0,
                        states: 0,
                        replays: 0,
                        agreement: Agreement::NotCheckable(format!(
                            "statically rejected: {reason}"
                        )),
                    },
                    &mut cells,
                );
                continue;
            }
            for (prop, spec) in &properties {
                let name = format!("{}/{}", m.id, prop);
                let diff = diff_cell(
                    "mutant/simplified_consensus",
                    &name,
                    &m.ta,
                    spec,
                    &justice,
                    &checker,
                    cfg,
                );
                push(diff, &mut cells);
            }
        }
    }

    let survivors = if cfg.smoke {
        Vec::new()
    } else {
        run_adjudication(cfg)
    };
    DiffReport { cells, survivors }
}

/// Oracle verdict label for one spec (combined across its queries),
/// with errors folded into a label string.
fn oracle_label(
    ta: &ThresholdAutomaton,
    spec: &Ltl,
    justice: &Justice,
    params: &[i64],
    max_states: usize,
) -> String {
    match decide_spec(ta, spec, justice, params, max_states) {
        Err(e) => format!("error: {e}"),
        Ok(decisions) => combined_verdict(&decisions).label().to_owned(),
    }
}

/// Adjudicates the two documented kill-matrix survivors with the
/// explicit-state oracle: are they true equivalences, or missed kills?
pub fn run_adjudication(cfg: &DiffConfig) -> Vec<SurvivorVerdict> {
    let mut out = Vec::new();
    for case in survivor_cases() {
        let mut valuations = case.mutant.ta.admissible_valuations(cfg.param_bound);
        valuations.truncate(cfg.max_valuations);
        let mut rows = Vec::new();
        let mut any_definite_pair = false;
        let mut any_divergence = false;
        for (prop, spec) in &case.properties {
            for val in &valuations {
                let mutant = oracle_label(
                    &case.mutant.ta,
                    spec,
                    &case.mutant_justice,
                    val,
                    cfg.max_states,
                );
                let pristine = oracle_label(
                    &case.pristine,
                    spec,
                    &case.pristine_justice,
                    val,
                    cfg.max_states,
                );
                let definite = |s: &str| s == "holds" || s == "violated";
                let diverged = definite(&mutant) && definite(&pristine) && mutant != pristine;
                any_definite_pair |= definite(&mutant) && definite(&pristine);
                any_divergence |= diverged;
                rows.push(AdjRow {
                    scenario: "matrix".into(),
                    property: prop.clone(),
                    valuation: val.clone(),
                    mutant,
                    pristine,
                    diverged,
                });
            }
        }
        let equivalent = any_definite_pair && !any_divergence;

        let mut alt_kill_reappears = None;
        if let Some(alt) = &case.alt {
            let mut reappears = false;
            for (prop, spec) in &alt.properties {
                for val in &valuations {
                    let mutant = oracle_label(
                        &case.mutant.ta,
                        spec,
                        &alt.mutant_justice,
                        val,
                        cfg.max_states,
                    );
                    let pristine = oracle_label(
                        &case.pristine,
                        spec,
                        &alt.pristine_justice,
                        val,
                        cfg.max_states,
                    );
                    let diverged = mutant == "violated" && pristine == "holds";
                    reappears |= diverged;
                    rows.push(AdjRow {
                        scenario: alt.label.to_owned(),
                        property: prop.clone(),
                        valuation: val.clone(),
                        mutant,
                        pristine,
                        diverged,
                    });
                }
            }
            alt_kill_reappears = Some(reappears);
        }

        let conclusion = match (equivalent, alt_kill_reappears) {
            (true, None) => format!(
                "no kill-matrix property distinguishes the mutant from the pristine automaton \
                 at any of the {} swept valuations: consistent with the claimed equivalence \
                 in the abstraction",
                valuations.len()
            ),
            (false, None) => "DIVERGENCE on the kill-matrix properties: the equivalence claim \
                 is wrong — the kill matrix missed a real kill"
                .to_owned(),
            (eq, Some(true)) => format!(
                "{}; under the alternative justice the kill reappears (mutant violated, \
                 pristine holds): the survival is a property of the justice encoding, \
                 not an equivalence",
                if eq {
                    "kill-matrix properties cannot distinguish the mutant under the matrix justice"
                } else {
                    "kill-matrix properties already diverge"
                }
            ),
            (eq, Some(false)) => format!(
                "{}; the kill did NOT reappear under the alternative justice — the triage \
                 note's mask claim is not confirmed at these parameters",
                if eq {
                    "kill-matrix properties cannot distinguish the mutant under the matrix justice"
                } else {
                    "kill-matrix properties already diverge"
                }
            ),
        };
        out.push(SurvivorVerdict {
            id: case.mutant.id.clone(),
            automaton: case.automaton,
            claim: case.mutant.note.unwrap_or("").to_owned(),
            rows,
            equivalent,
            alt_kill_reappears,
            conclusion,
        });
    }
    out
}

impl DiffReport {
    /// Cells whose outcome fails the harness.
    pub fn disagreements(&self) -> Vec<&CellDiff> {
        self.cells
            .iter()
            .filter(|c| c.agreement.is_failure())
            .collect()
    }

    /// Whether the run found zero definite-verdict disagreements.
    pub fn passed(&self) -> bool {
        self.disagreements().is_empty()
    }

    /// Counts by agreement label: `(agree, symbolic-unknown,
    /// oracle-unknown, not-checkable, disagree)`.
    pub fn tally(&self) -> (usize, usize, usize, usize, usize) {
        let mut t = (0, 0, 0, 0, 0);
        for c in &self.cells {
            match c.agreement {
                Agreement::Agree => t.0 += 1,
                Agreement::SymbolicUnknown => t.1 += 1,
                Agreement::OracleUnknown => t.2 += 1,
                Agreement::NotCheckable(_) => t.3 += 1,
                Agreement::Disagreement(_) => t.4 += 1,
            }
        }
        t
    }

    /// Renders the report as aligned text.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let name_w = self
            .cells
            .iter()
            .map(|c| c.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let _ = writeln!(
            out,
            "{:<26} {:<name_w$} {:<9} {:>6} {:>9}  agreement",
            "subject", "cell", "symbolic", "vals", "states"
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{:<26} {:<name_w$} {:<9} {:>6} {:>9}  {}",
                c.subject,
                c.name,
                c.symbolic,
                c.valuations,
                c.states,
                c.agreement.label()
            );
            if let Agreement::Disagreement(msg) | Agreement::NotCheckable(msg) = &c.agreement {
                let _ = writeln!(out, "    {msg}");
            }
        }
        let (agree, sym_unknown, orc_unknown, not_checkable, disagree) = self.tally();
        let _ = writeln!(
            out,
            "{} cells: {agree} agree, {sym_unknown} symbolic-unknown, {orc_unknown} \
             oracle-unknown, {not_checkable} not-checkable, {disagree} DISAGREE",
            self.cells.len()
        );
        for s in &self.survivors {
            let _ = writeln!(out, "\nsurvivor {} ({}):", s.id, s.automaton);
            let _ = writeln!(out, "  claim: {}", s.claim);
            for r in &s.rows {
                let _ = writeln!(
                    out,
                    "  [{}] {} @{}: mutant {} / pristine {}{}",
                    r.scenario,
                    r.property,
                    fmt_valuation(&r.valuation),
                    r.mutant,
                    r.pristine,
                    if r.diverged { "  <-- diverged" } else { "" }
                );
            }
            let _ = writeln!(out, "  conclusion: {}", s.conclusion);
        }
        out
    }

    /// Serialises the report in the repo's hand-rolled JSON style.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema_version\": 1,\n");
        out.push_str("  \"generated_by\": \"oracle_diff\",\n");
        let (agree, sym_unknown, orc_unknown, not_checkable, disagree) = self.tally();
        out.push_str("  \"summary\": {\n");
        out.push_str(&format!("    \"cells\": {},\n", self.cells.len()));
        out.push_str(&format!("    \"agree\": {agree},\n"));
        out.push_str(&format!("    \"symbolic_unknown\": {sym_unknown},\n"));
        out.push_str(&format!("    \"oracle_unknown\": {orc_unknown},\n"));
        out.push_str(&format!("    \"not_checkable\": {not_checkable},\n"));
        out.push_str(&format!("    \"disagreements\": {disagree}\n"));
        out.push_str("  },\n");
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let detail = match &c.agreement {
                Agreement::Disagreement(m) | Agreement::NotCheckable(m) => m.as_str(),
                _ => "",
            };
            out.push_str(&format!(
                "    {{\"subject\": {}, \"cell\": {}, \"symbolic\": {}, \"oracle\": {}, \
                 \"valuations\": {}, \"states\": {}, \"replays\": {}, \"agreement\": {}, \
                 \"detail\": {}}}{}\n",
                q(&c.subject),
                q(&c.name),
                q(&c.symbolic),
                q(&c.oracle),
                c.valuations,
                c.states,
                c.replays,
                q(c.agreement.label()),
                q(detail),
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"survivors\": [\n");
        for (i, s) in self.survivors.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"id\": {},\n", q(&s.id)));
            out.push_str(&format!("      \"automaton\": {},\n", q(s.automaton)));
            out.push_str(&format!("      \"claim\": {},\n", q(&s.claim)));
            out.push_str(&format!("      \"equivalent\": {},\n", s.equivalent));
            match s.alt_kill_reappears {
                Some(b) => {
                    out.push_str(&format!("      \"alt_kill_reappears\": {b},\n"));
                }
                None => out.push_str("      \"alt_kill_reappears\": null,\n"),
            }
            out.push_str("      \"rows\": [\n");
            for (j, r) in s.rows.iter().enumerate() {
                let val: Vec<String> = r.valuation.iter().map(i64::to_string).collect();
                out.push_str(&format!(
                    "        {{\"scenario\": {}, \"property\": {}, \"valuation\": [{}], \
                     \"mutant\": {}, \"pristine\": {}, \"diverged\": {}}}{}\n",
                    q(&r.scenario),
                    q(&r.property),
                    val.join(", "),
                    q(&r.mutant),
                    q(&r.pristine),
                    r.diverged,
                    if j + 1 < s.rows.len() { "," } else { "" }
                ));
            }
            out.push_str("      ],\n");
            out.push_str(&format!("      \"conclusion\": {}\n", q(&s.conclusion)));
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.survivors.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_models::BvBroadcastModel;

    #[test]
    fn verified_cell_agrees_at_small_params() {
        let model = BvBroadcastModel::new();
        let (name, spec) = model.table2_specs().remove(0);
        let checker = Checker::new();
        let cfg = DiffConfig {
            max_valuations: 2,
            ..DiffConfig::smoke()
        };
        let cell = diff_cell(
            "table2",
            &format!("bv-broadcast/{name}"),
            &model.ta,
            &spec,
            &model.justice(),
            &checker,
            &cfg,
        );
        assert!(
            matches!(cell.agreement, Agreement::Agree),
            "{:?}: {}",
            cell.agreement,
            cell.oracle
        );
        assert!(cell.states > 0);
    }

    #[test]
    fn violated_cell_replays_concretely() {
        // A mutant the matrix kills: its counterexample must replay.
        let (_, corpus) = bv_broadcast_corpus();
        let m = corpus
            .into_iter()
            .find(|m| m.id == "guard.flip.echo1_low")
            .or_else(|| {
                let (_, c) = bv_broadcast_corpus();
                c.into_iter().find(|m| static_rejection(&m.ta).is_none())
            })
            .expect("some checkable bv mutant");
        let bv = BvBroadcastModel::new();
        let properties = bv_kill_properties(&bv);
        let justice = Justice::from_rules(&m.ta);
        let checker = Checker::new();
        let cfg = DiffConfig::smoke();
        let mut replays = 0;
        for (prop, spec) in &properties {
            let cell = diff_cell(
                "mutant/bv_broadcast",
                &format!("{}/{prop}", m.id),
                &m.ta,
                spec,
                &justice,
                &checker,
                &cfg,
            );
            assert!(
                !cell.agreement.is_failure(),
                "{}: {:?}",
                cell.name,
                cell.agreement
            );
            replays += cell.replays;
        }
        // At least one property kills this mutant, so at least one
        // counterexample went through the oracle's transition relation.
        assert!(replays > 0, "expected a replayed counterexample");
    }
}
