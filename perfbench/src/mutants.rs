//! `mutants`: both seeded mutant corpora (33 bv-broadcast mutants × 7
//! properties, 22 simplified-consensus mutants × 8). Set-up is the
//! static front line that refuses 8 of them; each pass then runs
//! `Checker::check_cell` on every (mutant, property) pair in a seeded
//! order and replays every counterexample through the oracle.

use std::collections::BTreeMap;

use holistic_checker::{CheckReport, Checker, CheckerConfig, MatrixJob, Verdict};
use holistic_ltl::{Justice, Ltl};
use holistic_mutate::{
    bv_broadcast_corpus, bv_kill_properties, simplified_corpus, simplified_kill_properties,
    KillConfig,
};
use holistic_oracle::replay_counterexample;
use holistic_ta::{to_ta_source, ThresholdAutomaton};

use crate::reference::{self, MutantRef};
use crate::stats::SplitMix64;
use crate::trace::Tracer;
use crate::workload::{self as wl, Cell, Layers, Pass, Workload};

/// How a corpus derives a mutant's justice, as the kill matrix does.
enum JusticeRule {
    /// One requirement per rule of the mutated automaton.
    FromRules,
    /// The pristine model's requirement-based justice.
    Pristine(Justice),
}

struct Corpus {
    name: &'static str,
    properties: Vec<(String, Ltl)>,
    justice: JusticeRule,
}

struct MutantInput {
    corpus: usize,
    id: String,
    source: String,
}

/// The generated inputs of the `mutants` workload.
pub struct Mutants {
    corpora: Vec<Corpus>,
    mutants: Vec<MutantInput>,
    /// Every `(mutant, property)` index pair.
    pairs: Vec<(usize, usize)>,
    reference: BTreeMap<(String, String), MutantRef>,
}

/// A mutant that passed the front line.
struct Checkable {
    ta: ThresholdAutomaton,
    justice: Justice,
}

/// What set-up hands to the passes: `None` for refused mutants.
pub struct Ready {
    mutants: Vec<Option<Checkable>>,
    checker: Checker,
}

impl Mutants {
    /// Generates the inputs: every mutant as `.ta` text and the
    /// (mutant, property) cells. Nothing here depends on the seed; it
    /// only orders the cells of each pass.
    pub fn new() -> Mutants {
        let (bv, bv_mutants) = bv_broadcast_corpus();
        let (sc, sc_mutants) = simplified_corpus();
        let corpora = vec![
            Corpus {
                name: "bv_broadcast",
                properties: bv_kill_properties(&bv),
                justice: JusticeRule::FromRules,
            },
            Corpus {
                name: "simplified_consensus",
                properties: simplified_kill_properties(&sc),
                justice: JusticeRule::Pristine(sc.justice()),
            },
        ];
        let mut mutants = Vec::new();
        for (corpus, list) in [(0, bv_mutants), (1, sc_mutants)] {
            for m in list {
                mutants.push(MutantInput {
                    corpus,
                    id: m.id,
                    source: to_ta_source(&m.ta),
                });
            }
        }
        let pairs = mutants
            .iter()
            .enumerate()
            .flat_map(|(i, m)| (0..corpora[m.corpus].properties.len()).map(move |p| (i, p)))
            .collect();
        Mutants {
            corpora,
            mutants,
            pairs,
            reference: reference::mutation_kill(),
        }
    }

    fn reference(&self, m: &MutantInput) -> Option<&MutantRef> {
        let key = (self.corpora[m.corpus].name.to_owned(), m.id.clone());
        self.reference.get(&key)
    }
}

impl Workload for Mutants {
    type Ready = Ready;

    fn setup(&self, tr: &mut Tracer, layers: &mut Layers) -> Result<Ready, String> {
        let mut ready = Vec::with_capacity(self.mutants.len());
        let mut mismatches = Vec::new();
        for m in &self.mutants {
            let corpus = &self.corpora[m.corpus];
            let front_line = wl::parse(tr, layers, &m.id, &m.source)
                .and_then(|ta| wl::analyse(tr, layers, &m.id, &ta).map(|()| ta));
            let expect_rejected = self.reference(m).map(|r| r.outcome == "rejected");
            match (front_line, expect_rejected) {
                (Err(_), Some(true)) => {
                    wl::add(layers, "mutate.rejected", 1.0);
                    ready.push(None);
                }
                (Ok(ta), Some(false)) => {
                    for (property, spec) in &corpus.properties {
                        let name = format!("{}/{property}", m.id);
                        wl::classify_spec(tr, layers, &name, &ta, spec)?;
                    }
                    let justice = match &corpus.justice {
                        JusticeRule::FromRules => Justice::from_rules(&ta),
                        JusticeRule::Pristine(justice) => justice.clone(),
                    };
                    ready.push(Some(Checkable { ta, justice }));
                }
                (Err(reason), _) => mismatches.push(format!("{} refused: {reason}", m.id)),
                (Ok(_), _) => mismatches.push(format!("{} accepted, reference refuses it", m.id)),
            }
        }
        if !mismatches.is_empty() {
            return Err(format!(
                "front line differs from the reference: {mismatches:?}"
            ));
        }
        let (checker, _) = tr.time("checker.new", String::new, || {
            let kill = KillConfig::default();
            Checker::with_config(CheckerConfig {
                max_schemas: kill.max_schemas,
                time_budget: Some(kill.time_budget),
                threads: Some(1),
                core_pruning: kill.core_pruning,
                ..CheckerConfig::default()
            })
        });
        Ok(Ready {
            mutants: ready,
            checker,
        })
    }

    fn pass(&self, ready: &Ready, order_seed: u64, _round: usize, tr: &mut Tracer) -> Pass {
        self.run_cells(ready, &self.order(ready, order_seed), tr)
    }

    /// A quarter of a pass: enough to warm the allocator up without
    /// paying for a whole pass.
    fn warm_up(&self, ready: &Ready, order_seed: u64, tr: &mut Tracer) -> Pass {
        let order = self.order(ready, order_seed);
        self.run_cells(ready, &order[..order.len() / 4], tr)
    }
}

impl Mutants {
    /// Every checkable (mutant, property) pair, permuted by `order_seed`.
    fn order(&self, ready: &Ready, order_seed: u64) -> Vec<(usize, usize)> {
        let mut order: Vec<(usize, usize)> = self
            .pairs
            .iter()
            .copied()
            .filter(|&(mi, _)| ready.mutants[mi].is_some())
            .collect();
        SplitMix64::new(order_seed).shuffle(&mut order);
        order
    }

    /// Checks the given cells, in order, from a cold exploration cache.
    fn run_cells(&self, ready: &Ready, order: &[(usize, usize)], tr: &mut Tracer) -> Pass {
        let checker = Checker::with_config(ready.checker.config().clone());
        let mut layers = Layers::new();
        let mut cells = Vec::with_capacity(order.len());
        // Per mutant: the verdict label and replay result per property.
        let mut verdicts: Vec<BTreeMap<usize, (String, bool)>> =
            vec![BTreeMap::new(); self.mutants.len()];
        for &(mi, pi) in order {
            let mutant = ready.mutants[mi]
                .as_ref()
                .expect("only checkable mutants are ordered");
            let input = &self.mutants[mi];
            let (property, spec) = &self.corpora[input.corpus].properties[pi];
            let name = format!("{}/{property}", input.id);
            let open = tr.begin("cell", || name.clone());
            let job = MatrixJob {
                ta: &mutant.ta,
                spec,
                justice: &mutant.justice,
                label: property,
            };
            let (report, check) = tr.time(
                "checker.check_cell",
                || name.clone(),
                || checker.check_cell(&job),
            );
            let (label, replayed) = match &report {
                Err(e) => (format!("error: {e}"), false),
                Ok(report) => {
                    let replayed = replay_all(tr, &mut layers, mutant, spec, &name, report);
                    (report.verdict().label().to_owned(), replayed)
                }
            };
            let ms = wl::ms(tr.end(open));
            if let Ok(report) = &report {
                wl::add_report(&mut layers, report, wl::ms(check));
            }
            let decided = report.as_ref().is_ok_and(|r| wl::decided(&r.verdict()));
            verdicts[mi].insert(pi, (label, replayed));
            cells.push(Cell {
                name,
                ms,
                decided,
                mismatch: None,
            });
        }
        // Compare with the reference once every property of a mutant ran.
        let mismatches: Vec<Option<String>> = self
            .mutants
            .iter()
            .zip(&verdicts)
            .map(|(m, v)| self.compare(m, v))
            .collect();
        for (cell, &(mi, _)) in cells.iter_mut().zip(order) {
            cell.mismatch.clone_from(&mismatches[mi]);
        }
        Pass { cells, layers }
    }

    /// Checks one mutant's cells against the reference: each verdict,
    /// that every violated cell's counterexample replayed and, once all
    /// its properties ran, the outcome and the `killed_by` set. `None`
    /// when all match.
    fn compare(&self, m: &MutantInput, cells: &BTreeMap<usize, (String, bool)>) -> Option<String> {
        if cells.is_empty() {
            return None;
        }
        let Some(r) = self.reference(m) else {
            return Some(format!("{}: no reference", m.id));
        };
        let properties = &self.corpora[m.corpus].properties;
        let mut diffs = Vec::new();
        let mut killed_by = Vec::new();
        for (&pi, (verdict, replayed)) in cells {
            let property = &properties[pi].0;
            let expected = r.verdicts.get(property).map_or("-", String::as_str);
            if verdict != expected {
                diffs.push(format!("{property}: {verdict} (reference {expected})"));
            }
            if verdict == "violated" {
                if *replayed {
                    killed_by.push(property.clone());
                } else {
                    diffs.push(format!("{property}: counterexample does not replay"));
                }
            }
        }
        if cells.len() == properties.len() {
            killed_by.sort();
            let outcome = if !killed_by.is_empty() {
                "killed"
            } else if cells.values().all(|(v, _)| v == "verified") {
                "survived"
            } else {
                "unknown"
            };
            if outcome != r.outcome {
                diffs.push(format!("outcome {outcome} (reference {})", r.outcome));
            }
            if killed_by != r.killed_by {
                diffs.push(format!(
                    "killed_by {killed_by:?} (reference {:?})",
                    r.killed_by
                ));
            }
        }
        (!diffs.is_empty()).then(|| format!("{}: {}", m.id, diffs.join("; ")))
    }
}

/// Replays the counterexample of every violated query through the
/// oracle's transition relation; `true` when all of them replay.
fn replay_all(
    tr: &mut Tracer,
    layers: &mut Layers,
    mutant: &Checkable,
    spec: &Ltl,
    name: &str,
    report: &CheckReport,
) -> bool {
    let mut all = true;
    for (qi, q) in report.queries.iter().enumerate() {
        let Verdict::Violated(ce) = &q.verdict else {
            continue;
        };
        let (replayed, d) = tr.time(
            "oracle.replay_counterexample",
            || format!("{name}/q{qi}"),
            || replay_counterexample(&mutant.ta, spec, &mutant.justice, qi, ce),
        );
        wl::add(layers, "replay.ms", wl::ms(d));
        match replayed {
            Ok(r) => {
                wl::add(layers, "replay.counterexamples", 1.0);
                wl::add(layers, "replay.steps", r.trace_len as f64);
            }
            Err(_) => all = false,
        }
    }
    all
}
