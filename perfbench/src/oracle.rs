//! `oracle`: `holistic_oracle::decide_spec` on all twelve Table-2 cells
//! (the naive-consensus rows included) at a seeded sample of admissible
//! valuations, every decision expected to be `Holds`. It bypasses the
//! checker and the LIA solver entirely.

use holistic_bench::table2_cells;
use holistic_ltl::{Justice, Ltl};
use holistic_oracle::{decide_spec, OracleVerdict};
use holistic_ta::{to_ta_source, ThresholdAutomaton};

use crate::stats::SplitMix64;
use crate::trace::Tracer;
use crate::workload::{self as wl, Cell, Layers, Pass, Workload};

/// Valuations are drawn from those with every parameter `<= PARAM_BOUND`.
pub const PARAM_BOUND: i64 = 4;
/// Valuations decided per cell.
pub const VALUATIONS: usize = 6;
/// Product-state budget per decision; the largest decision of the
/// workload explores about 106,000 states.
pub const MAX_STATES: usize = 500_000;

struct OracleCell {
    automaton: usize,
    property: String,
    spec: Ltl,
    justice: Justice,
}

/// The generated inputs of the `oracle` workload.
pub struct Oracle {
    /// `(automaton name, .ta source, valuation sample)` per automaton.
    automata: Vec<(&'static str, String, Vec<Vec<i64>>)>,
    cells: Vec<OracleCell>,
}

impl Oracle {
    /// Generates the inputs: the three automata as `.ta` text, the
    /// twelve cells, and per automaton a sample of [`VALUATIONS`]
    /// admissible valuations drawn by `seed`. With the bound at 4 each
    /// automaton admits exactly six valuations, so the draw fixes the
    /// order in which they are decided. The seed also orders the cells
    /// of each pass.
    pub fn new(seed: u64) -> Oracle {
        let mut rng = SplitMix64::new(seed);
        let mut automata: Vec<(&'static str, String, Vec<Vec<i64>>)> = Vec::new();
        let mut cells = Vec::new();
        for cell in table2_cells() {
            let automaton = match automata.iter().position(|a| a.0 == cell.automaton) {
                Some(i) => i,
                None => {
                    let mut sample = cell.ta.admissible_valuations(PARAM_BOUND);
                    rng.shuffle(&mut sample);
                    sample.truncate(VALUATIONS);
                    automata.push((cell.automaton, to_ta_source(&cell.ta), sample));
                    automata.len() - 1
                }
            };
            cells.push(OracleCell {
                automaton,
                property: cell.property,
                spec: cell.spec,
                justice: cell.justice,
            });
        }
        Oracle { automata, cells }
    }

    fn cell_name(&self, cell: &OracleCell) -> String {
        format!("{}/{}", self.automata[cell.automaton].0, cell.property)
    }
}

impl Workload for Oracle {
    type Ready = Vec<ThresholdAutomaton>;

    fn setup(&self, tr: &mut Tracer, layers: &mut Layers) -> Result<Self::Ready, String> {
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
        Ok(tas)
    }

    fn pass(&self, tas: &Self::Ready, order_seed: u64, _round: usize, tr: &mut Tracer) -> Pass {
        let mut layers = Layers::new();
        let mut cells = Vec::with_capacity(self.cells.len());
        let mut order: Vec<&OracleCell> = self.cells.iter().collect();
        SplitMix64::new(order_seed).shuffle(&mut order);
        for cell in order {
            let name = self.cell_name(cell);
            let ta = &tas[cell.automaton];
            let open = tr.begin("cell", || name.clone());
            let mut decided = true;
            let mut wrong = Vec::new();
            for params in &self.automata[cell.automaton].2 {
                let (decisions, d) = tr.time(
                    "oracle.decide_spec",
                    || format!("{name}@{params:?}"),
                    || decide_spec(ta, &cell.spec, &cell.justice, params, MAX_STATES),
                );
                wl::add(&mut layers, "oracle.decide_ms", wl::ms(d));
                let decisions = match decisions {
                    Ok(ds) => ds,
                    Err(e) => {
                        decided = false;
                        wrong.push(format!("{params:?}: {e}"));
                        continue;
                    }
                };
                for decision in decisions {
                    wl::add(&mut layers, "oracle.states", decision.states as f64);
                    match decision.verdict {
                        OracleVerdict::Holds => {}
                        OracleVerdict::Unknown(why) => {
                            decided = false;
                            wl::add(&mut layers, "oracle.unknown", 1.0);
                            wrong.push(format!("{params:?}: unknown ({why})"));
                        }
                        OracleVerdict::Violated(w) => {
                            wrong.push(format!("{params:?}: {} violation", w.kind))
                        }
                    }
                }
            }
            let ms = wl::ms(tr.end(open));
            cells.push(Cell {
                name,
                ms,
                decided,
                mismatch: (!wrong.is_empty()).then(|| wrong.join("; ")),
            });
        }
        Pass { cells, layers }
    }
}
