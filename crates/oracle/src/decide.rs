//! Deciding classified queries by exhaustive explicit-state search.
//!
//! For one concrete valuation the counter system of an increment-only
//! DAG automaton is finite: each process moves at most `|L|` times, so
//! shared variables are bounded by the total number of increments. The
//! oracle explores it breadth-first with a visited set and decides the
//! checker's [`Query`] shapes directly:
//!
//! * **safety** — a violation is a finite run from an
//!   `initially`-satisfying initial configuration that keeps every
//!   `globally_empty` location empty and realises every witness
//!   proposition somewhere. The BFS runs over product states
//!   `(configuration, witness bitmask)`.
//! * **liveness** — with DAG shape and increment-only updates every
//!   infinite run stabilises in some configuration, and stuttering
//!   there forever is *fair* exactly when the justice proposition holds
//!   of it. A fair violation is therefore a reachable configuration
//!   satisfying both the violating tail and the justice proposition —
//!   the same reduction the symbolic checker applies
//!   ([`replay_counterexample`](crate::replay::replay_counterexample)
//!   checks it on every replayed run), evaluated here by brute force.
//!
//! A state budget keeps hostile inputs (mutants with huge lattices,
//! the naive consensus automaton) from running away; exhausting it
//! yields an honest [`OracleVerdict::Unknown`], never a verdict.

use std::collections::HashMap;

use holistic_ltl::{classify, FragmentError, Justice, Ltl, Prop, Query};
use holistic_ta::{Config, LocationId, ThresholdAutomaton};

use crate::concrete::{ConcreteError, ConcreteSystem};

/// Errors that prevent the oracle from deciding a spec at all.
#[derive(Clone, Debug)]
pub enum OracleError {
    /// The spec falls outside the checkable fragment.
    Fragment(FragmentError),
    /// The valuation is inadmissible for the automaton.
    Concrete(ConcreteError),
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::Fragment(e) => write!(f, "fragment: {e:?}"),
            OracleError::Concrete(e) => write!(f, "concrete semantics: {e}"),
        }
    }
}

impl std::error::Error for OracleError {}

/// A concrete violating run found by the oracle.
#[derive(Clone, Debug)]
pub struct OracleWitness {
    /// `"safety"` or `"liveness"`.
    pub kind: &'static str,
    /// The run, from an initial configuration to the violation point
    /// (for liveness, the configuration the run fairly stalls in).
    pub trace: Vec<Config>,
}

/// The oracle's verdict for one query at one valuation.
#[derive(Clone, Debug)]
pub enum OracleVerdict {
    /// Exhaustive exploration found no violating run.
    Holds,
    /// A concrete violating run exists.
    Violated(OracleWitness),
    /// The oracle could not decide (budget exhausted, or the
    /// stabilisation argument is unavailable on a non-DAG automaton).
    Unknown(String),
}

impl OracleVerdict {
    /// Whether this is a definite verdict (`Holds` or `Violated`).
    pub fn is_definite(&self) -> bool {
        !matches!(self, OracleVerdict::Unknown(_))
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            OracleVerdict::Holds => "holds",
            OracleVerdict::Violated(_) => "violated",
            OracleVerdict::Unknown(_) => "unknown",
        }
    }
}

/// One decided query, with exploration statistics.
#[derive(Clone, Debug)]
pub struct OracleDecision {
    /// The verdict.
    pub verdict: OracleVerdict,
    /// Product states explored.
    pub states: usize,
}

fn all_empty(config: &Config, locs: &[LocationId]) -> bool {
    locs.iter().all(|&l| config.counters[l.0] == 0)
}

/// Exhaustive BFS over `(configuration, witness-mask)` product states.
///
/// `witnesses` is empty for liveness (mask stays 0); `accept` decides
/// whether a product state is a violation. Returns the witness trace on
/// violation, `Ok(None)` when the whole space was exhausted without
/// one, and `Err(states)` when the budget ran out first.
struct Search<'a> {
    sys: &'a ConcreteSystem<'a>,
    globally_empty: &'a [LocationId],
    witnesses: &'a [Prop],
    max_states: usize,
}

impl Search<'_> {
    fn witness_mask(&self, config: &Config, prev: u32) -> u32 {
        let mut mask = prev;
        for (i, w) in self.witnesses.iter().enumerate() {
            if mask & (1 << i) == 0 && w.eval(config, self.sys.params()) {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Runs the search. `accept(config, mask)` flags a violation.
    fn run(
        &self,
        roots: Vec<Config>,
        accept: impl Fn(&Config, u32) -> bool,
    ) -> (Result<Option<Vec<Config>>, ()>, usize) {
        let mut states: Vec<(Config, u32)> = Vec::new();
        let mut parent: Vec<usize> = Vec::new();
        let mut index: HashMap<(Config, u32), usize> = HashMap::new();
        for root in roots {
            if !all_empty(&root, self.globally_empty) {
                continue;
            }
            let mask = self.witness_mask(&root, 0);
            let key = (root, mask);
            if index.contains_key(&key) {
                continue;
            }
            index.insert(key.clone(), states.len());
            parent.push(usize::MAX);
            states.push(key);
        }
        let mut head = 0;
        while head < states.len() {
            let (config, mask) = states[head].clone();
            if accept(&config, mask) {
                return (Ok(Some(self.trace_back(&states, &parent, head))), head + 1);
            }
            for (_, succ) in self.sys.successors(&config) {
                if !all_empty(&succ, self.globally_empty) {
                    continue;
                }
                let mask = self.witness_mask(&succ, mask);
                let key = (succ, mask);
                if index.contains_key(&key) {
                    continue;
                }
                if states.len() >= self.max_states {
                    return (Err(()), states.len());
                }
                index.insert(key.clone(), states.len());
                parent.push(head);
                states.push(key);
            }
            head += 1;
        }
        (Ok(None), states.len())
    }

    fn trace_back(&self, states: &[(Config, u32)], parent: &[usize], end: usize) -> Vec<Config> {
        let mut trace = Vec::new();
        let mut i = end;
        loop {
            trace.push(states[i].0.clone());
            if parent[i] == usize::MAX {
                break;
            }
            i = parent[i];
        }
        trace.reverse();
        trace
    }
}

/// Decides one classified query at one concrete valuation.
///
/// # Errors
///
/// [`ConcreteError`] when the valuation is inadmissible.
pub fn decide_query(
    ta: &ThresholdAutomaton,
    query: &Query,
    justice: &Justice,
    params: &[i64],
    max_states: usize,
) -> Result<OracleDecision, ConcreteError> {
    let sys = ConcreteSystem::new(ta, params)?;
    match query {
        Query::Safety {
            globally_empty,
            initially,
            witnesses,
        } => {
            let full: u32 = if witnesses.len() >= 32 {
                return Ok(OracleDecision {
                    verdict: OracleVerdict::Unknown("more than 31 witnesses".to_owned()),
                    states: 0,
                });
            } else {
                (1u32 << witnesses.len()) - 1
            };
            let search = Search {
                sys: &sys,
                globally_empty,
                witnesses,
                max_states,
            };
            let roots = sys
                .initial_configs()
                .into_iter()
                .filter(|c| initially.eval(c, params))
                .collect();
            let (found, states) = search.run(roots, |_, mask| mask == full);
            Ok(OracleDecision {
                verdict: match found {
                    Ok(Some(trace)) => OracleVerdict::Violated(OracleWitness {
                        kind: "safety",
                        trace,
                    }),
                    Ok(None) => OracleVerdict::Holds,
                    Err(()) => OracleVerdict::Unknown(format!(
                        "state budget ({max_states}) exhausted after {states} states"
                    )),
                },
                states,
            })
        }
        Query::Liveness {
            globally_empty,
            initially,
            tail,
        } => {
            if ta.topological_locations().is_none() {
                return Ok(OracleDecision {
                    verdict: OracleVerdict::Unknown(
                        "not a DAG: the stabilisation reduction does not apply".to_owned(),
                    ),
                    states: 0,
                });
            }
            let fair_stall = justice.as_prop();
            let search = Search {
                sys: &sys,
                globally_empty,
                witnesses: &[],
                max_states,
            };
            let roots = sys
                .initial_configs()
                .into_iter()
                .filter(|c| initially.eval(c, params))
                .collect();
            let (found, states) = search.run(roots, |config, _| {
                tail.eval(config, params) && fair_stall.eval(config, params)
            });
            Ok(OracleDecision {
                verdict: match found {
                    Ok(Some(trace)) => OracleVerdict::Violated(OracleWitness {
                        kind: "liveness",
                        trace,
                    }),
                    Ok(None) => OracleVerdict::Holds,
                    Err(()) => OracleVerdict::Unknown(format!(
                        "state budget ({max_states}) exhausted after {states} states"
                    )),
                },
                states,
            })
        }
    }
}

/// Decides every query of an LTL spec at one valuation (classification
/// order matches the checker's report order).
///
/// # Errors
///
/// [`OracleError`] when the spec is outside the fragment or the
/// valuation is inadmissible.
pub fn decide_spec(
    ta: &ThresholdAutomaton,
    spec: &Ltl,
    justice: &Justice,
    params: &[i64],
    max_states: usize,
) -> Result<Vec<OracleDecision>, OracleError> {
    let queries = classify(ta, spec).map_err(OracleError::Fragment)?;
    queries
        .iter()
        .map(|q| decide_query(ta, q, justice, params, max_states).map_err(OracleError::Concrete))
        .collect()
}

/// Folds per-query verdicts into one, `Violated` dominating, then
/// `Unknown`, then `Holds` — mirroring
/// [`CheckReport::verdict`](holistic_checker::CheckReport::verdict).
pub fn combined_verdict(decisions: &[OracleDecision]) -> OracleVerdict {
    for d in decisions {
        if let OracleVerdict::Violated(_) = &d.verdict {
            return d.verdict.clone();
        }
    }
    for d in decisions {
        if let OracleVerdict::Unknown(_) = &d.verdict {
            return d.verdict.clone();
        }
    }
    OracleVerdict::Holds
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_ltl::Prop;
    use holistic_ta::{Guard, TaBuilder};

    fn reach() -> ThresholdAutomaton {
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
        b.build().unwrap()
    }

    #[test]
    fn safety_violation_found_with_trace() {
        let ta = reach();
        let d = ta.location_by_name("D").unwrap();
        let spec = Ltl::always(Ltl::state(Prop::loc_empty(d)));
        let justice = Justice::from_rules(&ta);
        let decisions = decide_spec(&ta, &spec, &justice, &[3, 0], 10_000).unwrap();
        assert_eq!(decisions.len(), 1);
        match &decisions[0].verdict {
            OracleVerdict::Violated(w) => {
                assert_eq!(w.kind, "safety");
                assert!(w.trace.len() >= 2);
                // The trace really ends with D populated.
                assert!(w.trace.last().unwrap().counters[d.0] >= 1);
            }
            v => panic!("expected violation, got {v:?}"),
        }
    }

    #[test]
    fn liveness_holds_under_justice() {
        // Every process must eventually reach D: justice drains V.
        let ta = reach();
        let d = ta.location_by_name("D").unwrap();
        let v = ta.location_by_name("V").unwrap();
        let spec = Ltl::eventually(Ltl::state(Prop::and(vec![
            Prop::loc_empty(v),
            Prop::loc_nonempty(d),
        ])));
        let justice = Justice::from_rules(&ta);
        let decisions = decide_spec(&ta, &spec, &justice, &[3, 0], 10_000).unwrap();
        assert!(
            matches!(decisions[0].verdict, OracleVerdict::Holds),
            "{:?}",
            decisions[0].verdict
        );
        // Without justice, stalling in V forever is fair: violated.
        let decisions = decide_spec(&ta, &spec, &Justice::none(), &[3, 0], 10_000).unwrap();
        assert!(matches!(
            decisions[0].verdict,
            OracleVerdict::Violated(ref w) if w.kind == "liveness"
        ));
    }

    #[test]
    fn budget_exhaustion_is_unknown() {
        // "Some location is always populated" holds (9 processes exist),
        // so the search must exhaust the space — which the tiny budget
        // forbids: honest Unknown, not Holds.
        let ta = reach();
        let d = ta.location_by_name("D").unwrap();
        let v = ta.location_by_name("V").unwrap();
        let spec = Ltl::always(Ltl::state(Prop::or(vec![
            Prop::loc_nonempty(v),
            Prop::loc_nonempty(d),
        ])));
        let justice = Justice::from_rules(&ta);
        let decisions = decide_spec(&ta, &spec, &justice, &[9, 0], 2).unwrap();
        assert!(
            matches!(decisions[0].verdict, OracleVerdict::Unknown(_)),
            "{:?}",
            decisions[0].verdict
        );
        // With an adequate budget the same query exhausts and holds.
        let decisions = decide_spec(&ta, &spec, &justice, &[9, 0], 10_000).unwrap();
        assert!(matches!(decisions[0].verdict, OracleVerdict::Holds));
    }
}
