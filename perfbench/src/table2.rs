//! `table2`: the nine decomposed Table-2 cells (four bv-broadcast, five
//! simplified-consensus), all expected `Verified`, checked in seeded
//! orders through `Checker::check_cell` at one thread.

use std::collections::BTreeMap;

use holistic_bench::table2_cells;
use holistic_checker::{Checker, CheckerConfig, MatrixJob, Verdict};
use holistic_ltl::{Justice, Ltl};
use holistic_ta::{to_ta_source, ThresholdAutomaton};

use crate::reference::{self, Table2Ref};
use crate::stats::SplitMix64;
use crate::trace::Tracer;
use crate::workload::{self as wl, Cell, Layers, Pass, Workload};

struct Table2Cell {
    automaton: usize,
    property: String,
    spec: Ltl,
}

/// The generated inputs of the `table2` workload.
pub struct Table2 {
    /// `(automaton name, .ta source, justice)` per automaton.
    automata: Vec<(&'static str, String, Justice)>,
    cells: Vec<Table2Cell>,
    reference: BTreeMap<(String, String), Table2Ref>,
}

/// What set-up hands to the passes.
pub struct Ready {
    tas: Vec<ThresholdAutomaton>,
    checker: Checker,
}

impl Table2 {
    /// Generates the inputs: the two automata as `.ta` text and the
    /// nine cells. Nothing here depends on the seed; it only orders the
    /// cells of each pass.
    pub fn new() -> Table2 {
        let mut automata: Vec<(&'static str, String, Justice)> = Vec::new();
        let mut cells = Vec::new();
        // The naive-consensus rows stop at an arbitrary schema cap, so
        // their time would only say how fast the search reaches it.
        for cell in table2_cells()
            .into_iter()
            .filter(|c| c.automaton != "naive-consensus")
        {
            let automaton = match automata.iter().position(|a| a.0 == cell.automaton) {
                Some(i) => i,
                None => {
                    automata.push((cell.automaton, to_ta_source(&cell.ta), cell.justice));
                    automata.len() - 1
                }
            };
            cells.push(Table2Cell {
                automaton,
                property: cell.property,
                spec: cell.spec,
            });
        }
        Table2 {
            automata,
            cells,
            reference: reference::table2(),
        }
    }

    /// Indices of the cells of automaton `a`.
    fn group(&self, a: usize) -> Vec<usize> {
        (0..self.cells.len())
            .filter(|&i| self.cells[i].automaton == a)
            .collect()
    }

    /// The cell order of one pass: a permutation drawn from
    /// `order_seed`, then, per automaton, the property at `round` modulo
    /// the automaton's cell count is moved to the automaton's first
    /// slot. The first cell of an automaton pays for recording its base
    /// exploration, so over a block of passes every property pays once.
    fn order(&self, order_seed: u64, round: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        SplitMix64::new(order_seed).shuffle(&mut order);
        for a in 0..self.automata.len() {
            let group = self.group(a);
            let payer = group[round % group.len()];
            let first = order
                .iter()
                .position(|&i| self.cells[i].automaton == a)
                .expect("every automaton has cells");
            let at = order
                .iter()
                .position(|&i| i == payer)
                .expect("payer is ordered");
            order.swap(first, at);
        }
        order
    }

    fn cell_name(&self, cell: &Table2Cell) -> String {
        format!("{}/{}", self.automata[cell.automaton].0, cell.property)
    }
}

impl Workload for Table2 {
    type Ready = Ready;

    fn setup(&self, tr: &mut Tracer, layers: &mut Layers) -> Result<Ready, String> {
        let mut tas = Vec::new();
        for (name, source, _) in &self.automata {
            let ta = wl::parse(tr, layers, name, source)?;
            wl::analyse(tr, layers, name, &ta)?;
            tas.push(ta);
        }
        for cell in &self.cells {
            let name = self.cell_name(cell);
            wl::classify_spec(tr, layers, &name, &tas[cell.automaton], &cell.spec)?;
        }
        let (checker, _) = tr.time("checker.new", String::new, || {
            Checker::with_config(CheckerConfig {
                threads: Some(1),
                ..CheckerConfig::default()
            })
        });
        Ok(Ready { tas, checker })
    }

    fn pass(&self, ready: &Ready, order_seed: u64, round: usize, tr: &mut Tracer) -> Pass {
        let checker = Checker::with_config(ready.checker.config().clone());
        let mut layers = Layers::new();
        let mut cells = Vec::with_capacity(self.cells.len());
        for &i in &self.order(order_seed, round) {
            let cell = &self.cells[i];
            let name = self.cell_name(cell);
            let (automaton, _, justice) = &self.automata[cell.automaton];
            let job = MatrixJob {
                ta: &ready.tas[cell.automaton],
                spec: &cell.spec,
                justice,
                label: &cell.property,
            };
            let (report, d) = tr.time(
                "checker.check_cell",
                || name.clone(),
                || checker.check_cell(&job),
            );
            let ms = wl::ms(d);
            let (decided, mismatch) = match report {
                Err(e) => (false, Some(format!("checker error: {e}"))),
                Ok(report) => {
                    wl::add_report(&mut layers, &report, ms);
                    let key = ((*automaton).to_owned(), cell.property.clone());
                    let mismatch = match self.reference.get(&key) {
                        None => Some("no reference row".to_owned()),
                        Some(r) => compare(
                            r,
                            &report.verdict(),
                            report.total_schemas(),
                            report.avg_segments(),
                        ),
                    };
                    (wl::decided(&report.verdict()), mismatch)
                }
            };
            cells.push(Cell {
                name,
                ms,
                decided,
                mismatch,
            });
        }
        Pass { cells, layers }
    }

    fn block(&self) -> usize {
        (0..self.automata.len())
            .map(|a| self.group(a).len())
            .max()
            .unwrap_or(1)
    }
}

/// Compares a cell against its reference row; `None` when it matches.
fn compare(r: &Table2Ref, verdict: &Verdict, schemas: usize, avg_segments: f64) -> Option<String> {
    let mut diffs = Vec::new();
    if verdict.label() != r.verdict {
        diffs.push(format!(
            "verdict {} (reference {})",
            verdict.label(),
            r.verdict
        ));
    }
    if schemas != r.schemas {
        diffs.push(format!("schemas {schemas} (reference {})", r.schemas));
    }
    // The reference rounds to three decimals.
    if (avg_segments - r.avg_segments).abs() > 5e-4 + 1e-9 {
        diffs.push(format!(
            "avg segments {avg_segments:.3} (reference {})",
            r.avg_segments
        ));
    }
    (!diffs.is_empty()).then(|| diffs.join(", "))
}
