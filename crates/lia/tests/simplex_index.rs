//! Property-based test of the simplex's incremental bookkeeping: the
//! dense basic-variable map and the column index must stay consistent
//! with the rows through every push, multi-variable assertion, check
//! and pop, and an incremental check must agree with a fresh tableau
//! built from the constraints that are live at that point.

use holistic_lia::{Constraint, LinExpr, LpResult, Rat, Simplex, Var};
use proptest::prelude::*;

const NUM_VARS: usize = 5;
/// Every variable lives in `[0, BOX]`, so checks are decided quickly and
/// the random systems flip between feasible and infeasible.
const BOX: i64 = 6;

#[derive(Clone, Debug)]
struct RawConstraint {
    /// `(variable, coefficient)`; at least two distinct variables, so
    /// every assertion goes through a slack row.
    terms: Vec<(usize, i64)>,
    constant: i64,
    rel: u8, // 0 <=, 1 >=, 2 ==
}

impl RawConstraint {
    fn build(&self, vars: &[Var]) -> Constraint {
        let mut e = LinExpr::constant(self.constant as i128);
        for &(v, k) in &self.terms {
            e.add_term(vars[v], Rat::from(k));
        }
        match self.rel {
            0 => Constraint::le(e, LinExpr::zero()),
            1 => Constraint::ge(e, LinExpr::zero()),
            _ => Constraint::eq(e, LinExpr::zero()),
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    Push,
    Pop,
    Assert(RawConstraint),
    Check,
}

/// A nonzero coefficient in `[-3, 3]`.
fn nonzero(k: i64) -> i64 {
    if k == 0 {
        1
    } else {
        k
    }
}

fn raw_constraint() -> impl Strategy<Value = RawConstraint> {
    (
        (0..NUM_VARS, 1..NUM_VARS),
        prop::array::uniform5(-3i64..=3),
        -12i64..=12,
        0u8..=2,
    )
        .prop_map(|((first, offset), coeffs, constant, rel)| {
            // Two distinct variables with nonzero coefficients, plus
            // whichever other coefficients came out nonzero.
            let second = (first + offset) % NUM_VARS;
            let terms = (0..NUM_VARS)
                .filter_map(|v| {
                    let k = coeffs[v];
                    if v == first || v == second {
                        Some((v, nonzero(k)))
                    } else {
                        (k != 0).then_some((v, k))
                    }
                })
                .collect();
            RawConstraint {
                terms,
                constant,
                rel,
            }
        })
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..11, raw_constraint()).prop_map(|(pick, c)| match pick {
        0..=1 => Op::Push,
        2..=3 => Op::Pop,
        4..=7 => Op::Assert(c),
        _ => Op::Check,
    })
}

/// A tableau over `NUM_VARS` boxed variables.
fn boxed() -> (Simplex, Vec<Var>) {
    let mut s = Simplex::new();
    let vars: Vec<Var> = (0..NUM_VARS).map(|i| s.new_var(format!("v{i}"))).collect();
    for &v in &vars {
        s.assert_lower(v, Rat::ZERO);
        s.assert_upper(v, Rat::from(BOX));
    }
    (s, vars)
}

/// Whether the live constraints hold at the tableau's current values.
fn satisfied(s: &Simplex, vars: &[Var], live: &[RawConstraint]) -> bool {
    live.iter().all(|c| {
        let con = c.build(vars);
        let lhs = con.expr().eval(|v| s.value(v));
        match con.rel() {
            holistic_lia::Rel::Le => lhs <= Rat::ZERO,
            holistic_lia::Rel::Ge => lhs >= Rat::ZERO,
            holistic_lia::Rel::Eq => lhs == Rat::ZERO,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn column_index_survives_push_assert_check_pop(ops in prop::collection::vec(op(), 1..40)) {
        let (mut s, vars) = boxed();
        // Live constraints per open level; levels[0] is never popped.
        let mut levels: Vec<Vec<RawConstraint>> = vec![Vec::new()];
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Push => {
                    s.push();
                    levels.push(Vec::new());
                }
                Op::Pop => {
                    if levels.len() > 1 {
                        s.pop();
                        levels.pop();
                    }
                }
                Op::Assert(c) => {
                    s.assert_constraint(&c.build(&vars));
                    levels.last_mut().unwrap().push(c.clone());
                }
                Op::Check => {
                    let live: Vec<RawConstraint> = levels.iter().flatten().cloned().collect();
                    let incremental = s.check();
                    let (mut fresh, fresh_vars) = boxed();
                    for c in &live {
                        fresh.assert_constraint(&c.build(&fresh_vars));
                    }
                    let reference = fresh.check();
                    prop_assert_ne!(incremental, LpResult::TimedOut);
                    prop_assert_eq!(incremental, reference, "step {}: {:?}", step, live);
                    if incremental == LpResult::Feasible {
                        prop_assert!(satisfied(&s, &vars, &live), "step {}: model", step);
                    }
                }
            }
            prop_assert!(s.debug_check_invariants(), "step {}: {:?}", step, op);
        }
    }
}
