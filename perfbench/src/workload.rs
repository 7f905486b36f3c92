//! What every workload provides, and the per-layer bookkeeping they
//! share.

use std::collections::BTreeMap;

use holistic_checker::{CheckReport, GuardInfo, Verdict};
use holistic_ltl::{classify, Ltl};
use holistic_ta::{parse_ta, ThresholdAutomaton};

use crate::trace::Tracer;

/// Per-layer accumulators of one set-up or one pass, keyed by metric
/// name. Raw counts that only feed a ratio (`lia.intern_hits` …) are
/// kept here too; [`derive_ratios`] turns them into the ratios.
pub type Layers = BTreeMap<&'static str, f64>;

/// Adds `v` to the accumulator `key`.
pub fn add(layers: &mut Layers, key: &'static str, v: f64) {
    *layers.entry(key).or_default() += v;
}

/// One cell's result within a pass.
#[derive(Clone, Debug)]
pub struct Cell {
    /// `<automaton or mutant>/<property>`.
    pub name: String,
    /// Wall time from the cell's first call to its verdict.
    pub ms: f64,
    /// A definite verdict was reached (not unknown, error or panic).
    pub decided: bool,
    /// How the cell differs from the reference, if it does.
    pub mismatch: Option<String>,
}

/// One complete pass over a workload's cells.
pub struct Pass {
    /// Cells in the order they ran.
    pub cells: Vec<Cell>,
    /// Per-layer accumulators of the pass.
    pub layers: Layers,
}

/// A workload: inputs generated from the seed, a front end timed as
/// set-up, and passes over its cells in seeded orders.
pub trait Workload {
    /// What set-up hands to every pass.
    type Ready;

    /// Runs the front end on the generated inputs. Returns an error
    /// when an input the reference expects to be accepted is refused
    /// (or the other way round).
    fn setup(&self, tr: &mut Tracer, layers: &mut Layers) -> Result<Self::Ready, String>;

    /// One pass over every cell, from a cold exploration cache, in the
    /// order that `order_seed` permutes them into; `round` counts the
    /// passes of the run.
    fn pass(&self, ready: &Self::Ready, order_seed: u64, round: usize, tr: &mut Tracer) -> Pass;

    /// The warm-up before the measured passes; a whole pass unless the
    /// workload has a cheaper one.
    fn warm_up(&self, ready: &Self::Ready, order_seed: u64, tr: &mut Tracer) -> Pass {
        self.pass(ready, order_seed, 0, tr)
    }

    /// Measured passes come in whole blocks of this many, over which
    /// the cell orders are balanced.
    fn block(&self) -> usize {
        1
    }
}

/// `parse_ta` (which validates) on one generated source text.
pub fn parse(
    tr: &mut Tracer,
    layers: &mut Layers,
    name: &str,
    source: &str,
) -> Result<ThresholdAutomaton, String> {
    let (parsed, d) = tr.time("ta.parse", || name.to_owned(), || parse_ta(source));
    add(layers, "ta.parse_ms", ms(d));
    parsed.map_err(|e| format!("{name}: parse: {e}"))
}

/// `GuardInfo::analyse`, the static front line, on one automaton.
pub fn analyse(
    tr: &mut Tracer,
    layers: &mut Layers,
    name: &str,
    ta: &ThresholdAutomaton,
) -> Result<(), String> {
    let (info, d) = tr.time(
        "guards.analyse",
        || name.to_owned(),
        || GuardInfo::analyse(ta),
    );
    add(layers, "guards.analyse_ms", ms(d));
    add(layers, "guards.analyse_calls", 1.0);
    info.map(drop)
        .map_err(|e| format!("{name}: guard analysis: {e}"))
}

/// `classify` of one property; counts the queries it yields.
pub fn classify_spec(
    tr: &mut Tracer,
    layers: &mut Layers,
    name: &str,
    ta: &ThresholdAutomaton,
    spec: &Ltl,
) -> Result<(), String> {
    let (queries, d) = tr.time("ltl.classify", || name.to_owned(), || classify(ta, spec));
    add(layers, "ltl.classify_ms", ms(d));
    let queries = queries.map_err(|e| format!("{name}: classify: {e:?}"))?;
    add(layers, "ltl.queries", queries.len() as f64);
    Ok(())
}

/// Folds a checker report's public counters (`SolverStats`,
/// `QueryStats`) and its check time into the pass accumulators.
pub fn add_report(layers: &mut Layers, report: &CheckReport, cell_ms: f64) {
    let s = report.solver_stats();
    for (key, v) in [
        ("lia.checks", s.checks),
        ("lia.pivots", s.pivots),
        ("lia.case_splits", s.case_splits),
        ("lia.branch_nodes", s.branch_nodes),
        ("lia.propagations", s.propagations),
        ("lia.disjuncts_skipped", s.disjuncts_skipped),
        ("lia.intern_hits", s.intern_hits),
        ("lia.intern_misses", s.intern_misses),
        ("lia.cores_extracted", s.cores_extracted),
        ("explore.schemas", report.total_schemas() as u64),
        ("explore.cache_hits", report.total_cache_hits()),
        ("explore.cache_misses", report.total_cache_misses()),
        (
            "explore.schemas_pruned_by_core",
            report.total_schemas_pruned_by_core(),
        ),
        ("explore.cores_learned", report.total_cores_learned()),
    ] {
        add(layers, key, v as f64);
    }
    add(layers, "lia.core_ms", s.core_micros as f64 / 1000.0);
    match report.verdict() {
        Verdict::Verified => add(layers, "checker.verified_ms", cell_ms),
        Verdict::Violated(_) => add(layers, "checker.violated_ms", cell_ms),
        Verdict::Unknown(_) => {}
    }
}

/// Turns raw accumulators into the reported ratios and per-call means.
/// A ratio is only derived where its accumulators exist, so set-up and
/// pass accumulators never shadow each other's ratios.
pub fn derive_ratios(layers: &mut Layers) {
    // (ratio, numerator, denominator terms)
    const RATIOS: [(&str, &str, &[&str]); 5] = [
        (
            "guards.analyse_ms",
            "guards.analyse_ms",
            &["guards.analyse_calls"],
        ),
        (
            "lia.propagations_per_check",
            "lia.propagations",
            &["lia.checks"],
        ),
        (
            "lia.intern_hit_rate",
            "lia.intern_hits",
            &["lia.intern_hits", "lia.intern_misses"],
        ),
        (
            "explore.cache_hit_rate",
            "explore.cache_hits",
            &["explore.cache_hits", "explore.cache_misses"],
        ),
        (
            "oracle.states_per_ms",
            "oracle.states",
            &["oracle.decide_ms"],
        ),
    ];
    for (key, num, den) in RATIOS {
        if !den.iter().all(|d| layers.contains_key(d)) {
            continue;
        }
        let den: f64 = den.iter().map(|d| layers[d]).sum();
        let num = layers.get(num).copied().unwrap_or(0.0);
        layers.insert(key, if den > 0.0 { num / den } else { 0.0 });
    }
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Whether a checker verdict is definite.
pub fn decided(v: &Verdict) -> bool {
    !matches!(v, Verdict::Unknown(_))
}
