//! # holistic-bench — the Table 2 harness
//!
//! The paper's evaluation is a single table (Table 2): per automaton and
//! property, the number of schemas, the average schema length, and the
//! verification time; the naive consensus automaton times out while the
//! decomposed approach finishes in under 70 seconds.
//!
//! * the [`table2_rows`] API produces the same rows from
//!   this reproduction's checker (the `table2` binary prints them);
//! * the `table2_bench` binary times the decomposed matrix (best of
//!   `--iters` runs, `--automaton`/`--property` filters) and writes
//!   `BENCH_table2.json`; the stand-alone `perfbench` package measures
//!   every workload end to end and per layer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use holistic_core::json;

pub mod trace;

use std::time::Duration;

use holistic_checker::{Checker, CheckerConfig, UnknownReason, Verdict};
use holistic_ltl::{Justice, Ltl};
use holistic_models::{BvBroadcastModel, NaiveConsensusModel, SimplifiedConsensusModel};
use holistic_ta::ThresholdAutomaton;

/// One Table-2 cell as a *checkable object*: the automaton, the
/// property and the justice assumption, independent of any particular
/// driver. `table2` renders these through the symbolic checker;
/// `holistic-oracle`'s differential harness sweeps the same list
/// through explicit-state enumeration at small parameters, so the two
/// pipelines can never silently drift onto different cell sets.
pub struct Table2Cell {
    /// Automaton block name as used in reports (`bv-broadcast` …).
    pub automaton: &'static str,
    /// Property name (`BV-Just0`, `Inv1_0`, …).
    pub property: String,
    /// The automaton.
    pub ta: ThresholdAutomaton,
    /// The LTL property.
    pub spec: Ltl,
    /// The justice assumption the paper pairs with this automaton.
    pub justice: Justice,
}

/// Every cell of the paper's Table 2, in row order: the four
/// bv-broadcast properties, the three naive-consensus properties and
/// the five simplified-consensus properties.
pub fn table2_cells() -> Vec<Table2Cell> {
    let bv = BvBroadcastModel::new();
    let naive = NaiveConsensusModel::new();
    let simplified = SimplifiedConsensusModel::new();
    let blocks = [
        ("bv-broadcast", bv.justice(), bv.table2_specs(), bv.ta),
        (
            "naive-consensus",
            naive.justice(),
            naive.table2_specs(),
            naive.ta,
        ),
        (
            "simplified-consensus",
            simplified.justice(),
            simplified.table2_specs(),
            simplified.ta,
        ),
    ];
    let mut cells = Vec::new();
    for (automaton, justice, specs, ta) in blocks {
        for (name, spec) in specs {
            cells.push(Table2Cell {
                automaton,
                property: name.to_owned(),
                ta: ta.clone(),
                spec,
                justice: justice.clone(),
            });
        }
    }
    cells
}

/// One row of Table 2.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Automaton block (`bv-broadcast`, `naive consensus`,
    /// `simplified consensus`).
    pub automaton: &'static str,
    /// Automaton size `(unique guards, locations, rules)`.
    pub size: (usize, usize, usize),
    /// Property name.
    pub property: String,
    /// Verdict.
    pub verdict: Verdict,
    /// Number of schemas (a lower bound when the verdict is
    /// [`UnknownReason::SchemaCap`]).
    pub schemas: usize,
    /// Average schema length.
    pub avg_segments: f64,
    /// Wall-clock time.
    pub time: Duration,
    /// What the paper reports for this row (for EXPERIMENTS.md).
    pub paper: &'static str,
}

/// How each automaton block is labelled in the rendered table.
const LABELS: [(&str, &str); 3] = [
    ("bv-broadcast", "bv-broadcast (Fig. 2)"),
    ("naive-consensus", "naive consensus (Fig. 3)"),
    ("simplified-consensus", "simplified consensus (Fig. 4)"),
];

/// What the paper reports for each cell, in [`table2_cells`] order.
///
/// The paper could not verify any naive-consensus property within a
/// day. This reproduction's feasibility-pruned DFS verifies all three
/// given a schema cap of at least 7,585 (`Inv1_0` needs that many;
/// Inv2_0's □-emptiness premise collapses its lattice to a handful);
/// the explosion survives in the raw, unpruned lattice, which has
/// 55,995,021 schedules.
const PAPER: [&str; 12] = [
    "90 schemas, len 54, 5.61s",
    "90 schemas, len 79, 6.87s",
    "760 schemas, len 97, 27.64s",
    "90 schemas, len 79, 6.75s",
    ">100 000 schemas, >24h (timeout)",
    ">100 000 schemas, >24h (timeout)",
    ">100 000 schemas, >24h (timeout)",
    "6 schemas, len 102, 4.68s",
    "2 schemas, len 73, 4.56s",
    "2 schemas, len 109, 4.13s",
    "2 schemas, len 67, 4.55s",
    "2 schemas, len 73, 4.62s",
];

/// Runs the Table-2 block of one automaton (a [`Table2Cell::automaton`]
/// name) through `checker`, in row order.
pub fn table2_rows(checker: &Checker, automaton: &str) -> Vec<Table2Row> {
    table2_cells()
        .into_iter()
        .zip(PAPER)
        .filter(|(cell, _)| cell.automaton == automaton)
        .map(|(cell, paper)| {
            let report = checker
                .check_ltl(&cell.ta, &cell.spec, &cell.justice)
                .expect("the Table-2 models are in the checker's fragment");
            Table2Row {
                automaton: LABELS
                    .iter()
                    .find(|(name, _)| *name == cell.automaton)
                    .map_or(cell.automaton, |(_, label)| label),
                size: cell.ta.size_summary(),
                property: cell.property,
                verdict: report.verdict(),
                schemas: report.total_schemas(),
                avg_segments: report.avg_segments(),
                time: report.duration,
                paper,
            }
        })
        .collect()
}

/// Runs the naive-consensus block of Table 2 with the given schema cap.
/// At a cap of 10,000 every cell verifies (the largest needs 7,585
/// schemas, about 40 s on one core); a smaller cap reports the cells it
/// cuts off as `Unknown(SchemaCap)`, the shape of the paper's
/// `>100 000 schemas, >24h` rows.
pub fn naive_rows(cap: usize) -> Vec<Table2Row> {
    // One thread: with more, which `cap` schemas get counted depends on
    // the schedule, and so do the capped rows' lengths and times.
    let checker = Checker::with_config(CheckerConfig {
        max_schemas: cap,
        threads: Some(1),
        ..CheckerConfig::default()
    });
    table2_rows(&checker, "naive-consensus")
}

/// Formats rows as an aligned text table.
pub fn render(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<40} {:<12} {:<10} {:>9} {:>8} {:>12}   {}\n",
        "TA (guards/locs/rules)",
        "property",
        "verdict",
        "#schemas",
        "avg len",
        "time",
        "paper reports"
    ));
    for r in rows {
        let verdict = match &r.verdict {
            Verdict::Verified => "verified".to_owned(),
            Verdict::Violated(_) => "VIOLATED".to_owned(),
            Verdict::Unknown(_) => "gave up".to_owned(),
        };
        let schemas = if matches!(r.verdict, Verdict::Unknown(UnknownReason::SchemaCap { .. })) {
            format!(">{}", r.schemas)
        } else {
            r.schemas.to_string()
        };
        out.push_str(&format!(
            "{:<40} {:<12} {:<10} {:>9} {:>8.1} {:>12.2?}   {}\n",
            format!("{} {}/{}/{}", r.automaton, r.size.0, r.size.1, r.size.2),
            r.property,
            verdict,
            schemas,
            r.avg_segments,
            r.time,
            r.paper,
        ));
    }
    out
}

/// Command-line flags a binary accepts.
pub struct Flags<'a> {
    /// Flags followed by a value.
    pub values: &'a [&'a str],
    /// Value flags whose value must parse as a count.
    pub counts: &'a [&'a str],
    /// Flags that stand alone.
    pub switches: &'a [&'a str],
}

impl Flags<'_> {
    /// Rejects any argument that is not a known flag, a value flag with
    /// nothing after it, and a count that does not parse, so a stale or
    /// misspelt option fails loudly instead of being dropped.
    ///
    /// # Errors
    ///
    /// A message naming the offending argument.
    pub fn check(&self, args: &[String]) -> Result<(), String> {
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].as_str();
            if self.values.contains(&arg) {
                let Some(value) = args.get(i + 1) else {
                    return Err(format!("{arg} needs a value"));
                };
                if self.counts.contains(&arg) && value.parse::<usize>().is_err() {
                    return Err(format!("{arg} needs a count, got {value:?}"));
                }
                i += 2;
            } else if self.switches.contains(&arg) {
                i += 1;
            } else {
                return Err(format!("unknown flag {arg} (see the doc header)"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bv_rows_all_verified() {
        let checker = Checker::new();
        let rows = table2_rows(&checker, "bv-broadcast");
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.verdict.is_verified(), "{}", r.property);
        }
        let table = render(&rows);
        assert!(table.contains("BV-Unif0"), "{table}");
    }

    #[test]
    fn table2_cells_cover_every_row() {
        let cells = table2_cells();
        assert_eq!(cells.len(), 12);
        let props: Vec<&str> = cells.iter().map(|c| c.property.as_str()).collect();
        assert_eq!(
            props,
            [
                "BV-Just0",
                "BV-Obl0",
                "BV-Unif0",
                "BV-Term",
                "Inv1_0",
                "Inv2_0",
                "SRoundTerm",
                "Inv1_0",
                "Inv2_0",
                "SRoundTerm",
                "Good_0",
                "Dec_0",
            ]
        );
        for c in &cells {
            assert!(c.ta.validate().is_ok(), "{}/{}", c.automaton, c.property);
        }
    }

    #[test]
    fn naive_rows_show_the_explosion() {
        // Tiny cap: enough to show the explosion signal quickly. Inv2_0
        // is the exception — its globally-empty premise collapses the
        // lattice and it verifies outright (beyond the paper).
        let rows = naive_rows(40);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            if r.property == "Inv2_0" {
                assert!(r.verdict.is_verified(), "Inv2_0 verifies even naively");
            } else {
                assert!(
                    matches!(
                        r.verdict,
                        Verdict::Unknown(UnknownReason::SchemaCap { cap: 40 })
                    ),
                    "{} should hit the cap: {:?}",
                    r.property,
                    r.verdict
                );
            }
        }
    }
}
