//! The oracle's packed-state search against a plain reference BFS.
//!
//! `holistic_oracle::decide_query` stores each product state once in a
//! flat arena with an open-addressing index. The reference below is the
//! straightforward search it replaced — product states kept as
//! `(Config, u32)` values in a `Vec` and as `HashMap` keys, successors
//! from `ConcreteSystem::successors` — kept here, as a test-only
//! reference, so the two can be compared on the verdict label, the
//! number of states explored and the witness trace. Equal state counts
//! pin the BFS order itself: roots in enumeration order, rules in rule
//! order, first-seen dedup and the budget check before each insert.
//!
//! The search stores rows of bytes and widens them to `i64` in place at
//! the first value past 255; the reference has no such switch, so the
//! widening cases below pin that it changes nothing.
//!
//! The fast tests cover random automata at small valuations, the
//! bv-broadcast Table-2 cells, one tight budget and the widening cases;
//! all twelve Table-2 cells at all six admissible valuations run behind
//! `HOLISTIC_SLOW=1`.

use std::collections::HashMap;

use holistic_bench::table2_cells;
use holistic_ltl::{classify, Justice, Ltl, Prop, Query};
use holistic_mutate::generator::random_ta;
use holistic_oracle::{
    decide_query, ConcreteError, ConcreteSystem, OracleDecision, OracleUnknownReason,
    OracleVerdict, OracleWitness,
};
use holistic_ta::{
    AtomicGuard, Config, Guard, LocationId, ParamExpr, TaBuilder, ThresholdAutomaton, VarExpr,
};
use proptest::prelude::*;
use rand::SeedableRng;

/// The workspace-wide slow-test gate (see README "Testing").
fn skip_slow(name: &str) -> bool {
    if std::env::var("HOLISTIC_SLOW").as_deref() == Ok("1") {
        return false;
    }
    eprintln!("{name}: skipped (slow test); set HOLISTIC_SLOW=1 to run");
    true
}

// ---------------------------------------------------------------------
// Reference search: the oracle's previous BFS, unchanged.
// ---------------------------------------------------------------------

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

/// The previous `decide_query`, over the reference search.
fn reference_decide_query(
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
                    verdict: OracleVerdict::Unknown(OracleUnknownReason::TooManyWitnesses),
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
                    Err(()) => OracleVerdict::Unknown(OracleUnknownReason::StateBudget {
                        max_states,
                        states,
                    }),
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
                    verdict: OracleVerdict::Unknown(OracleUnknownReason::NotDag),
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
                    Err(()) => OracleVerdict::Unknown(OracleUnknownReason::StateBudget {
                        max_states,
                        states,
                    }),
                },
                states,
            })
        }
    }
}

// ---------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------

/// Decides `query` both ways and requires the same verdict label, state
/// count and witness; returns the shared decision.
fn assert_same(
    what: &str,
    ta: &ThresholdAutomaton,
    query: &Query,
    justice: &Justice,
    params: &[i64],
    max_states: usize,
) -> OracleDecision {
    let packed = decide_query(ta, query, justice, params, max_states).expect("admissible");
    let reference =
        reference_decide_query(ta, query, justice, params, max_states).expect("admissible");
    assert_eq!(
        packed.verdict.label(),
        reference.verdict.label(),
        "{what} @ {params:?}: verdict"
    );
    assert_eq!(
        packed.states, reference.states,
        "{what} @ {params:?}: states"
    );
    match (&packed.verdict, &reference.verdict) {
        (OracleVerdict::Violated(a), OracleVerdict::Violated(b)) => {
            assert_eq!(a.kind, b.kind, "{what} @ {params:?}: witness kind");
            assert_eq!(a.trace, b.trace, "{what} @ {params:?}: witness trace");
        }
        (OracleVerdict::Unknown(a), OracleVerdict::Unknown(b)) => {
            assert_eq!(a, b, "{what} @ {params:?}: reason");
        }
        _ => {}
    }
    packed
}

/// Every query of every Table-2 cell of `automata` (all when empty) at
/// every admissible valuation with parameters `<= 4`; returns the total
/// number of states explored.
fn table2_states(automata: &[&str], max_states: usize) -> usize {
    let mut total = 0;
    for cell in table2_cells() {
        if !automata.is_empty() && !automata.contains(&cell.automaton) {
            continue;
        }
        let queries = classify(&cell.ta, &cell.spec).expect("Table-2 specs are in the fragment");
        for params in cell.ta.admissible_valuations(4) {
            for query in &queries {
                let what = format!("{}/{}", cell.automaton, cell.property);
                let d = assert_same(&what, &cell.ta, query, &cell.justice, &params, max_states);
                total += d.states;
            }
        }
    }
    total
}

#[test]
fn bv_broadcast_table2_cells_match_the_reference() {
    assert!(table2_states(&["bv-broadcast"], 500_000) > 0);
}

#[test]
fn tight_budget_is_unknown_at_the_same_state_count() {
    let cell = table2_cells()
        .into_iter()
        .find(|c| c.automaton == "bv-broadcast")
        .expect("bv-broadcast cells exist");
    let queries = classify(&cell.ta, &cell.spec).unwrap();
    let params = cell.ta.admissible_valuations(4).pop().unwrap();
    let exhaustive = assert_same("bv", &cell.ta, &queries[0], &cell.justice, &params, 500_000);
    assert!(matches!(exhaustive.verdict, OracleVerdict::Holds));
    let budget = exhaustive.states / 2;
    let tight = assert_same("bv", &cell.ta, &queries[0], &cell.justice, &params, budget);
    assert!(matches!(tight.verdict, OracleVerdict::Unknown(_)));
    assert_eq!(tight.states, budget);
}

/// `n - f` processes move `V → M → D`, each move adding one to `x`, so
/// `x` ends at `2(n - f)`.
fn climb() -> ThresholdAutomaton {
    let mut b = TaBuilder::new("climb");
    let n = b.param("n");
    let f = b.param("f");
    b.resilience_gt(n, f, 1);
    b.resilience_ge_const(f, 0);
    b.size_n_minus_f(n, f);
    let x = b.shared("x");
    let v = b.initial_location("V");
    let m = b.location("M");
    let d = b.final_location("D");
    b.rule("r1", v, m, Guard::always()).inc(x, 1);
    b.rule("r2", m, d, Guard::always()).inc(x, 1);
    b.self_loop(d);
    b.build().unwrap()
}

/// `□(x < bound)`.
fn x_below(ta: &ThresholdAutomaton, bound: i64) -> Ltl {
    let x = ta.variable_by_name("x").unwrap();
    Ltl::always(Ltl::state(Prop::guard(AtomicGuard::lt(
        VarExpr::var(x),
        ParamExpr::constant(bound),
    ))))
}

/// Decides `spec` at `params` both ways through [`assert_same`].
fn climb_decision(spec: &Ltl, justice: &Justice, params: &[i64], budget: usize) -> OracleDecision {
    let ta = climb();
    let queries = classify(&ta, spec).expect("in the fragment");
    assert_eq!(queries.len(), 1);
    assert_same("climb", &ta, &queries[0], justice, params, budget)
}

#[test]
fn a_shared_variable_past_255_widens_the_rows_midway() {
    // 200 processes: every counter fits in a byte, and `x` passes 255
    // partway through the search.
    let ta = climb();
    let justice = Justice::from_rules(&ta);
    let params = [200, 0];
    // Every (V, M, D) split of the 200 processes is reachable.
    let all = 201 * 202 / 2;
    let holds = climb_decision(&x_below(&ta, 401), &justice, &params, 100_000);
    assert!(matches!(holds.verdict, OracleVerdict::Holds));
    assert_eq!(holds.states, all);
    let tight = climb_decision(&x_below(&ta, 401), &justice, &params, all - 1);
    assert!(matches!(tight.verdict, OracleVerdict::Unknown(_)));
    // A violation found after widening: its trace ends at x = 300.
    let violated = climb_decision(&x_below(&ta, 300), &justice, &params, 100_000);
    let OracleVerdict::Violated(w) = &violated.verdict else {
        panic!("x reaches 400: {:?}", violated.verdict);
    };
    assert_eq!(w.trace.last().unwrap().shared, vec![300]);
    assert!(violated.states < all);
    // Liveness over the widened rows: justice drains V and M.
    let v = ta.location_by_name("V").unwrap();
    let m = ta.location_by_name("M").unwrap();
    let drained = Ltl::eventually(Ltl::state(Prop::all_empty([v, m])));
    let live = climb_decision(&drained, &justice, &params, 100_000);
    assert!(matches!(live.verdict, OracleVerdict::Holds));
    assert_eq!(live.states, all);
}

#[test]
fn a_counter_past_255_widens_the_rows_at_the_root() {
    // 300 processes start in V, so the root itself needs i64 rows, and
    // the 300 increments of `x` then run on them.
    let ta = climb();
    let justice = Justice::from_rules(&ta);
    let params = [300, 0];
    let holds = climb_decision(&x_below(&ta, 601), &justice, &params, 100_000);
    assert!(matches!(holds.verdict, OracleVerdict::Holds));
    assert_eq!(holds.states, 301 * 302 / 2);
    let violated = climb_decision(&x_below(&ta, 450), &justice, &params, 100_000);
    let OracleVerdict::Violated(w) = &violated.verdict else {
        panic!("x reaches 600: {:?}", violated.verdict);
    };
    assert_eq!(w.trace[0].counters, vec![300, 0, 0]);
    assert_eq!(w.trace.last().unwrap().shared, vec![450]);
}

/// Small valuations of the random automata's `n > 3f` resilience.
const GRID: [[i64; 2]; 3] = [[2, 0], [3, 0], [4, 1]];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_automata_match_the_reference(seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ta = random_ta(&mut rng);
        let target = *ta.final_locations().last().unwrap();
        let first = ta.initial_locations()[0];
        let target_empty = || Ltl::always(Ltl::state(Prop::loc_empty(target)));
        let specs = [
            // Safety, one witness: the target is reachable.
            target_empty(),
            // Two witnesses: `first` populated, then the target.
            Ltl::implies(
                Ltl::eventually(Ltl::state(Prop::loc_nonempty(first))),
                target_empty(),
            ),
            // Initial-state premise.
            Ltl::implies(Ltl::state(Prop::loc_empty(first)), target_empty()),
            // Globally-empty premise: the search prunes through L1.
            Ltl::implies(Ltl::always(Ltl::state(Prop::loc_empty(LocationId(1)))), target_empty()),
            // Liveness.
            Ltl::eventually(Ltl::state(Prop::loc_nonempty(target))),
        ];
        for justice in [Justice::from_rules(&ta), Justice::none()] {
            for spec in &specs {
                let queries = classify(&ta, spec).expect("in the fragment");
                for params in GRID {
                    for query in &queries {
                        let what = format!("seed {seed}: {spec:?}");
                        assert_same(&what, &ta, query, &justice, &params, 100_000);
                    }
                }
            }
        }
    }
}

#[test]
fn all_table2_cells_match_the_reference() {
    if skip_slow("all_table2_cells_match_the_reference") {
        return;
    }
    // The oracle benchmark workload's state total.
    assert_eq!(table2_states(&[], 500_000), 592_047);
}
