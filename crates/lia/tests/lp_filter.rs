//! The LP-probe disjunct filter of `Solver::search`.
//!
//! With 16 or more open disjunctions the solver probes every conjunctive
//! disjunct against the simplex before splitting: an LP-infeasible
//! disjunct is dropped, a disjunction left with one disjunct is forced,
//! and an emptied one refutes the node, all without a case split. The
//! instances here keep every disjunct consistent with the variable
//! intervals (`x ≥ a ∧ y ≥ b` with `a, b ≤ 5` inside the box `[0, 5]`)
//! while the coupling rows `v0 + v1 ≤ 5` and `v2 + v3 ≤ 5` make some of
//! them LP-infeasible, so only the LP probe, not interval filtering,
//! can drop them. Each verdict is compared with brute-force enumeration
//! of the box, with propagation on and off.

use holistic_lia::{Constraint, Formula, LinExpr, SatResult, Solver, SolverConfig, Var};
use proptest::prelude::*;

const NUM_VARS: usize = 4;
const BOX: i64 = 5;

/// One disjunct: a lower bound on each member of a coupled pair, or a
/// single bound on one variable.
#[derive(Clone, Copy, Debug)]
enum Disjunct {
    /// `v[2p] ≥ a ∧ v[2p+1] ≥ b`: LP-infeasible iff `a + b > BOX`.
    Pair { pair: usize, a: i64, b: i64 },
    /// `v[var] ≥ c` (`ge`) or `v[var] ≤ c`.
    Bound { var: usize, ge: bool, c: i64 },
}

impl Disjunct {
    fn holds(&self, x: &[i64; NUM_VARS]) -> bool {
        match *self {
            Disjunct::Pair { pair, a, b } => x[2 * pair] >= a && x[2 * pair + 1] >= b,
            Disjunct::Bound { var, ge: true, c } => x[var] >= c,
            Disjunct::Bound { var, ge: false, c } => x[var] <= c,
        }
    }

    fn build(&self, v: &[Var]) -> Formula {
        let ge =
            |x: Var, c: i64| Formula::atom(Constraint::ge(LinExpr::var(x), LinExpr::constant(c)));
        match *self {
            Disjunct::Pair { pair, a, b } => {
                Formula::and([ge(v[2 * pair], a), ge(v[2 * pair + 1], b)])
            }
            Disjunct::Bound { var, ge: true, c } => ge(v[var], c),
            Disjunct::Bound { var, ge: false, c } => {
                Formula::atom(Constraint::le(LinExpr::var(v[var]), LinExpr::constant(c)))
            }
        }
    }
}

/// A pair disjunct that the coupling rows make LP-infeasible.
const BLOCKED_01: Disjunct = Disjunct::Pair {
    pair: 0,
    a: 3,
    b: 3,
};
const BLOCKED_23: Disjunct = Disjunct::Pair {
    pair: 1,
    a: 4,
    b: 2,
};

fn brute_force(disjunctions: &[Vec<Disjunct>]) -> bool {
    let n = (BOX + 1) as usize;
    (0..n.pow(NUM_VARS as u32)).any(|mut code| {
        let mut x = [0i64; NUM_VARS];
        for xi in &mut x {
            *xi = (code % n) as i64;
            code /= n;
        }
        x[0] + x[1] <= BOX
            && x[2] + x[3] <= BOX
            && disjunctions.iter().all(|d| d.iter().any(|f| f.holds(&x)))
    })
}

/// Solves the instance; checks any model against every assertion.
fn solve(disjunctions: &[Vec<Disjunct>], propagation: bool) -> (SatResult, Solver) {
    let mut s = Solver::with_config(SolverConfig {
        propagation,
        ..SolverConfig::default()
    });
    let v: Vec<Var> = (0..NUM_VARS)
        .map(|i| s.new_nonneg_var(format!("v{i}")))
        .collect();
    for &x in &v {
        s.assert_constraint(Constraint::le(LinExpr::var(x), LinExpr::constant(BOX)));
    }
    for (a, b) in [(v[0], v[1]), (v[2], v[3])] {
        s.assert_constraint(Constraint::le(
            LinExpr::var(a) + LinExpr::var(b),
            LinExpr::constant(BOX),
        ));
    }
    for d in disjunctions {
        s.assert(Formula::or(d.iter().map(|f| f.build(&v))));
    }
    let r = s.check();
    if let Some(m) = r.model() {
        let x: [i64; NUM_VARS] = std::array::from_fn(|i| m.value(v[i]) as i64);
        assert!(x.iter().all(|&xi| (0..=BOX).contains(&xi)), "{x:?}");
        assert!(x[0] + x[1] <= BOX && x[2] + x[3] <= BOX, "{x:?}");
        for d in disjunctions {
            assert!(d.iter().any(|f| f.holds(&x)), "{x:?} violates {d:?}");
        }
    }
    (r, s)
}

/// Sixteen disjunctions, each one LP-infeasible disjunct beside a
/// satisfiable bound: the filter forces every one of them.
fn forced_units() -> Vec<Vec<Disjunct>> {
    (0..16)
        .map(|i| {
            let blocked = if i % 2 == 0 { BLOCKED_01 } else { BLOCKED_23 };
            // `v ≥ 1` or `v ≤ 4`: all hold at v = (1, 1, 1, 1).
            let bound = Disjunct::Bound {
                var: i % NUM_VARS,
                ge: i % 2 == 0,
                c: if i % 2 == 0 { 1 } else { BOX - 1 },
            };
            vec![blocked, bound]
        })
        .collect()
}

#[test]
fn forced_disjunctions_resolve_without_a_case_split() {
    let disjunctions = forced_units();
    assert!(brute_force(&disjunctions));
    for propagation in [true, false] {
        let (r, s) = solve(&disjunctions, propagation);
        assert!(r.is_sat(), "propagation {propagation}: {r:?}");
        let stats = s.stats();
        // Every blocked disjunct was consistent with the intervals, so
        // interval filtering kept it and only the LP probe dropped it.
        assert_eq!(stats.disjuncts_skipped, 0, "propagation {propagation}");
        assert_eq!(stats.case_splits, 0, "propagation {propagation}");
    }
}

#[test]
fn emptied_disjunction_refutes_without_a_case_split() {
    // A forced unit first, then a disjunction whose every disjunct is
    // LP-infeasible.
    let mut disjunctions = forced_units();
    disjunctions.insert(1, vec![BLOCKED_01, BLOCKED_23]);
    assert!(!brute_force(&disjunctions));
    for propagation in [true, false] {
        let (r, s) = solve(&disjunctions, propagation);
        assert!(r.is_unsat(), "propagation {propagation}: {r:?}");
        assert_eq!(s.stats().disjuncts_skipped, 0, "propagation {propagation}");
        assert_eq!(s.stats().case_splits, 0, "propagation {propagation}");
    }
}

#[test]
fn fifteen_disjunctions_stay_below_the_filter() {
    // The same shape one disjunction short of the threshold is split
    // by plain DFS: the zero split counts above come from the filter.
    let mut disjunctions = forced_units();
    disjunctions.pop();
    let (r, s) = solve(&disjunctions, false);
    assert!(r.is_sat());
    assert!(s.stats().case_splits > 0);
}

/// Pairs over the whole box (LP-infeasible when `a + b > BOX`) and
/// bounds loose enough that about half the instances are satisfiable.
fn disjunct() -> impl Strategy<Value = Disjunct> {
    (
        any::<bool>(),
        0usize..NUM_VARS,
        any::<bool>(),
        0i64..=BOX,
        0i64..=BOX,
    )
        .prop_map(|(pair, var, ge, a, b)| match pair {
            true => Disjunct::Pair {
                pair: var % 2,
                a,
                b,
            },
            false => Disjunct::Bound {
                var,
                ge,
                c: if ge { a.min(3) } else { a.max(2) },
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn filtered_search_agrees_with_brute_force(
        disjunctions in prop::collection::vec(prop::collection::vec(disjunct(), 2..=3), 16..=20),
    ) {
        let expected = brute_force(&disjunctions);
        for propagation in [true, false] {
            let (r, _) = solve(&disjunctions, propagation);
            prop_assert!(!matches!(r, SatResult::Unknown(_)), "{:?}", r);
            prop_assert_eq!(r.is_sat(), expected, "propagation {}", propagation);
        }
    }
}
