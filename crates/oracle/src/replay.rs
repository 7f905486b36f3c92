//! Replaying symbolic counterexamples through the oracle's own
//! transition relation.
//!
//! This is the repository's one counterexample confirmer: the
//! differential harness and the mutation kill matrix both require it
//! of every `Violated` verdict. It checks a counterexample against the
//! *oracle's* independently-implemented semantics ([`ConcreteSystem`])
//! rather than [`holistic_ta::CounterSystem`], so a bug shared by the
//! encoding and the `ta` semantics would still be caught. Every firing
//! is expanded and checked step by step — acceleration factors get no
//! credit — the expanded run must end at the counterexample's recorded
//! final boundary, and the violated query is then re-evaluated on the
//! concrete trace.

use holistic_checker::Counterexample;
use holistic_ltl::{classify, Justice, Ltl, Query};
use holistic_ta::{Config, LocationId, ThresholdAutomaton};

use crate::concrete::ConcreteSystem;

/// Why a symbolic counterexample failed oracle replay. Any of these on
/// a checker-reported counterexample is a hard differential failure.
#[derive(Clone, Debug)]
pub enum ReplayFailure {
    /// The spec no longer classifies (wrong automaton for this CE).
    Fragment(String),
    /// The reported query index is out of range.
    QueryIndex(usize, usize),
    /// The counterexample's parameters or initial configuration are
    /// malformed.
    Setup(String),
    /// A firing in the sequence is illegal under the oracle semantics.
    IllegalStep {
        /// Index of the offending accelerated step.
        step: usize,
        /// What went wrong.
        reason: String,
    },
    /// The expanded run does not end at the recorded final boundary.
    FinalMismatch,
    /// The run replays, but the claimed violation does not hold on it.
    Vacuous(String),
}

impl std::fmt::Display for ReplayFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayFailure::Fragment(m) => write!(f, "classification failed: {m}"),
            ReplayFailure::QueryIndex(i, n) => {
                write!(f, "query index {i} out of range ({n} queries)")
            }
            ReplayFailure::Setup(m) => write!(f, "malformed counterexample: {m}"),
            ReplayFailure::IllegalStep { step, reason } => {
                write!(f, "illegal firing at accelerated step {step}: {reason}")
            }
            ReplayFailure::FinalMismatch => {
                write!(f, "expanded run diverges from the recorded final boundary")
            }
            ReplayFailure::Vacuous(m) => write!(f, "vacuous counterexample: {m}"),
        }
    }
}

impl std::error::Error for ReplayFailure {}

/// A successfully replayed counterexample.
#[derive(Clone, Debug)]
pub struct ReplayedCe {
    /// `"safety"` or `"liveness"`.
    pub kind: &'static str,
    /// Single-step length of the expanded concrete trace.
    pub trace_len: usize,
}

fn all_empty(config: &Config, locs: &[LocationId]) -> bool {
    locs.iter().all(|&l| config.counters[l.0] == 0)
}

/// Replays `ce` (reported against query `query_index` of `spec`)
/// through the oracle's concrete semantics and re-evaluates the
/// violation on the resulting trace.
///
/// # Errors
///
/// [`ReplayFailure`] describing the first discrepancy.
pub fn replay_counterexample(
    ta: &ThresholdAutomaton,
    spec: &Ltl,
    justice: &Justice,
    query_index: usize,
    ce: &Counterexample,
) -> Result<ReplayedCe, ReplayFailure> {
    let queries = classify(ta, spec).map_err(|e| ReplayFailure::Fragment(format!("{e:?}")))?;
    let Some(query) = queries.get(query_index) else {
        return Err(ReplayFailure::QueryIndex(query_index, queries.len()));
    };
    let sys = ConcreteSystem::new(ta, &ce.params)
        .map_err(|e| ReplayFailure::Setup(format!("parameters {:?}: {e}", ce.params)))?;

    // The initial configuration must be a genuine initial state.
    let init = &ce.initial;
    if init.counters.len() != ta.locations.len() || init.shared.len() != ta.variables.len() {
        return Err(ReplayFailure::Setup("initial configuration arity".into()));
    }
    if init.counters.iter().any(|&c| c < 0) {
        return Err(ReplayFailure::Setup("negative counter".into()));
    }
    if init.counters.iter().sum::<i64>() != sys.size() {
        return Err(ReplayFailure::Setup(format!(
            "initial configuration has {} processes, size expression gives {}",
            init.counters.iter().sum::<i64>(),
            sys.size()
        )));
    }
    for (i, loc) in ta.locations.iter().enumerate() {
        if !loc.initial && init.counters[i] != 0 {
            return Err(ReplayFailure::Setup(format!(
                "non-initial location {} populated at step 0",
                loc.name
            )));
        }
    }
    if init.shared.iter().any(|&x| x != 0) {
        return Err(ReplayFailure::Setup(
            "shared variable non-zero at step 0".into(),
        ));
    }

    // Expand every accelerated firing one step at a time.
    let mut trace = vec![init.clone()];
    for (i, step) in ce.steps.iter().enumerate() {
        for _ in 0..step.times {
            let next = sys
                .fire(trace.last().unwrap(), step.rule)
                .map_err(|reason| ReplayFailure::IllegalStep { step: i, reason })?;
            trace.push(next);
        }
    }
    let last = trace.last().unwrap();
    if last != ce.final_config() {
        return Err(ReplayFailure::FinalMismatch);
    }

    // Re-evaluate the violation on the concrete trace.
    let params = &ce.params;
    let (kind, globally_empty, initially) = match query {
        Query::Safety {
            globally_empty,
            initially,
            ..
        } => ("safety", globally_empty, initially),
        Query::Liveness {
            globally_empty,
            initially,
            ..
        } => ("liveness", globally_empty, initially),
    };
    if !initially.eval(&trace[0], params) {
        return Err(ReplayFailure::Vacuous(
            "initial constraint fails at step 0".into(),
        ));
    }
    if let Some(step) = trace.iter().position(|c| !all_empty(c, globally_empty)) {
        return Err(ReplayFailure::Vacuous(format!(
            "globally-empty location populated at step {step}"
        )));
    }
    match query {
        Query::Safety { witnesses, .. } => {
            for (i, w) in witnesses.iter().enumerate() {
                if !trace.iter().any(|c| w.eval(c, params)) {
                    return Err(ReplayFailure::Vacuous(format!(
                        "witness {i} never holds along the run"
                    )));
                }
            }
        }
        Query::Liveness { tail, .. } => {
            if !tail.eval(last, params) {
                return Err(ReplayFailure::Vacuous(
                    "violating tail fails at the final configuration".into(),
                ));
            }
            if !justice.as_prop().eval(last, params) {
                return Err(ReplayFailure::Vacuous(
                    "final configuration is not justice-consistent".into(),
                ));
            }
        }
    }
    Ok(ReplayedCe {
        kind,
        trace_len: trace.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_checker::{Checker, Verdict};
    use holistic_ltl::Prop;
    use holistic_ta::{Guard, TaBuilder};

    /// A reachable final location `D`, the spec `□ empty(D)` it
    /// violates, and the checker's counterexample with its query index.
    fn reach_violation() -> (ThresholdAutomaton, Ltl, Justice, usize, Counterexample) {
        let mut b = TaBuilder::new("reach");
        let n = b.param("n");
        let f = b.param("f");
        b.resilience_gt(n, f, 1);
        b.resilience_ge_const(f, 0);
        b.size_n_minus_f(n, f);
        let x = b.shared("x");
        let v = b.initial_location("V");
        let d = b.final_location("D");
        b.rule("r1", v, d, Guard::always()).inc(x, 1);
        b.self_loop(d);
        let ta = b.build().unwrap();
        let spec = Ltl::always(Ltl::state(Prop::loc_empty(d)));
        let justice = Justice::from_rules(&ta);
        let report = Checker::new().check_ltl(&ta, &spec, &justice).unwrap();
        let (index, ce) = report
            .queries
            .iter()
            .enumerate()
            .find_map(|(i, q)| match &q.verdict {
                Verdict::Violated(ce) => Some((i, (**ce).clone())),
                _ => None,
            })
            .expect("reachable D violates emptiness");
        (ta, spec, justice, index, ce)
    }

    #[test]
    fn checker_counterexample_replays_in_the_oracle() {
        let (ta, spec, justice, index, ce) = reach_violation();
        let replayed = replay_counterexample(&ta, &spec, &justice, index, &ce).unwrap();
        assert_eq!(replayed.kind, "safety");
        assert!(replayed.trace_len >= 2);
    }

    #[test]
    fn tampered_counterexample_is_rejected() {
        let (ta, spec, justice, index, mut ce) = reach_violation();
        ce.steps[0].times += 100;
        assert!(matches!(
            replay_counterexample(&ta, &spec, &justice, index, &ce),
            Err(ReplayFailure::IllegalStep { .. })
        ));
    }

    #[test]
    fn tampered_final_boundary_is_rejected() {
        let (ta, spec, justice, index, mut ce) = reach_violation();
        // Every firing stays legal; only the recorded end point lies.
        ce.boundaries.last_mut().unwrap().shared[0] += 1;
        assert!(matches!(
            replay_counterexample(&ta, &spec, &justice, index, &ce),
            Err(ReplayFailure::FinalMismatch)
        ));
    }
}
