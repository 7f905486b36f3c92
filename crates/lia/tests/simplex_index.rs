//! Property-based test of the simplex's incremental bookkeeping: the
//! dense basic-variable map and the column index must stay consistent
//! with the rows through every push, multi-variable assertion, check
//! and pop, and an incremental check must agree with a fresh tableau
//! built from the constraints that are live at that point. A pop must
//! also give back the tableau of its push: the same variables and rows.

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
    /// A new boxed variable; later assertions range over the newest
    /// `NUM_VARS` variables.
    NewVar,
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

/// Nested levels: new variables, multi-variable assertions over the
/// newest ones, and checks that pivot slacks out of the basis.
fn nested_op() -> impl Strategy<Value = Op> {
    (0u8..12, raw_constraint()).prop_map(|(pick, c)| match pick {
        0..=1 => Op::Push,
        2..=3 => Op::Pop,
        4..=7 => Op::Assert(c),
        8..=9 => Op::Check,
        _ => Op::NewVar,
    })
}

/// A new variable in `[0, BOX]`.
fn new_boxed(s: &mut Simplex, vars: &mut Vec<Var>) {
    let v = s.new_var(format!("v{}", vars.len()));
    s.assert_lower(v, Rat::ZERO);
    s.assert_upper(v, Rat::from(BOX));
    vars.push(v);
}

/// A tableau over `NUM_VARS` boxed variables.
fn boxed() -> (Simplex, Vec<Var>) {
    let mut s = Simplex::new();
    let mut vars = Vec::new();
    for _ in 0..NUM_VARS {
        new_boxed(&mut s, &mut vars);
    }
    (s, vars)
}

/// The verdict of a fresh tableau over `num_vars` boxed variables fed
/// only `live`.
fn fresh_verdict(num_vars: usize, live: &[RawConstraint]) -> LpResult {
    let (mut fresh, mut vars) = boxed();
    while vars.len() < num_vars {
        new_boxed(&mut fresh, &mut vars);
    }
    for c in live {
        fresh.assert_constraint(&c.build(&vars));
    }
    fresh.check()
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
                    let reference = fresh_verdict(NUM_VARS, &live);
                    prop_assert_ne!(incremental, LpResult::TimedOut);
                    prop_assert_eq!(incremental, reference, "step {}: {:?}", step, live);
                    if incremental == LpResult::Feasible {
                        prop_assert!(satisfied(&s, &vars, &live), "step {}: model", step);
                    }
                }
                Op::NewVar => unreachable!("op() makes no variables"),
            }
            prop_assert!(s.debug_check_invariants(), "step {}: {:?}", step, op);
        }
    }

    #[test]
    fn pop_restores_the_tableau_of_its_push(ops in prop::collection::vec(nested_op(), 1..60)) {
        let (mut s, mut vars) = boxed();
        // Per open level: the constraints asserted in it, and the
        // variable count, variables and rows at its push.
        let mut levels: Vec<(Vec<RawConstraint>, usize, usize, usize)> =
            vec![(Vec::new(), vars.len(), s.num_vars(), s.num_rows())];
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Push => {
                    s.push();
                    levels.push((Vec::new(), vars.len(), s.num_vars(), s.num_rows()));
                }
                Op::Pop => {
                    if levels.len() > 1 {
                        s.pop();
                        let (popped, live_vars, num_vars, num_rows) = levels.pop().unwrap();
                        vars.truncate(live_vars);
                        prop_assert!(s.debug_check_invariants(), "step {}: pop", step);
                        prop_assert_eq!(s.num_vars(), num_vars, "step {}: variables", step);
                        prop_assert_eq!(s.num_rows(), num_rows, "step {}: rows", step);
                        let live: Vec<RawConstraint> =
                            levels.iter().flat_map(|l| l.0.iter().cloned()).collect();
                        let verdict = s.check();
                        prop_assert_eq!(verdict, fresh_verdict(vars.len(), &live), "step {}", step);
                        if verdict == LpResult::Feasible {
                            let boxed = vars.iter().all(|&v| {
                                (Rat::ZERO..=Rat::from(BOX)).contains(&s.value(v))
                            });
                            prop_assert!(boxed, "step {}: a variable left its box", step);
                            prop_assert!(satisfied(&s, &vars, &live), "step {}: model", step);
                        }
                        // Re-pushing the popped forms that are still over
                        // live variables builds their rows anew, and
                        // popping them again retracts them again.
                        s.push();
                        for c in &popped {
                            if c.terms.iter().all(|&(v, _)| v < vars.len()) {
                                s.assert_constraint(&c.build(&vars));
                            }
                        }
                        prop_assert_ne!(s.check(), LpResult::TimedOut);
                        s.pop();
                        prop_assert!(s.debug_check_invariants(), "step {}: re-pop", step);
                        prop_assert_eq!(s.num_vars(), num_vars, "step {}: re-pop", step);
                        prop_assert_eq!(s.num_rows(), num_rows, "step {}: re-pop", step);
                    }
                }
                Op::Assert(c) => {
                    // Over the newest NUM_VARS variables.
                    let mut c = c.clone();
                    for term in &mut c.terms {
                        term.0 += vars.len() - NUM_VARS;
                    }
                    s.assert_constraint(&c.build(&vars));
                    levels.last_mut().unwrap().0.push(c);
                }
                Op::Check => {
                    prop_assert_ne!(s.check(), LpResult::TimedOut);
                }
                Op::NewVar => new_boxed(&mut s, &mut vars),
            }
            prop_assert!(s.debug_check_invariants(), "step {}: {:?}", step, op);
        }
    }
}
