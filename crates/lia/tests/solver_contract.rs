//! The solver's contract over disjunctive sessions and push/pop.
//!
//! Verdicts over conjunctions with disjunctions match brute-force
//! enumeration of a bounded domain; positive-gain difference cycles over
//! unbounded variables are refuted with a definite verdict; a pop keeps
//! the older variables' bounds and drops everything the level made; and
//! the core of a cycle conflict is exactly the cycle.

use holistic_lia::{Constraint, Formula, LinExpr, Rat, SatResult, Solver, Var};
use proptest::prelude::*;

const DOMAIN: i64 = 4;
const NUM_VARS: usize = 3;

#[derive(Clone, Debug)]
struct RawConstraint {
    coeffs: [i64; NUM_VARS],
    constant: i64,
    rel: u8, // 0 <=, 1 >=, 2 ==
}

impl RawConstraint {
    fn holds(&self, assignment: &[i64; NUM_VARS]) -> bool {
        let lhs: i64 = self
            .coeffs
            .iter()
            .zip(assignment)
            .map(|(c, v)| c * v)
            .sum::<i64>()
            + self.constant;
        match self.rel {
            0 => lhs <= 0,
            1 => lhs >= 0,
            _ => lhs == 0,
        }
    }

    fn build(&self, vars: &[Var]) -> Constraint {
        let mut e = LinExpr::constant(self.constant as i128);
        for (i, &c) in self.coeffs.iter().enumerate() {
            e.add_term(vars[i], Rat::from(c));
        }
        match self.rel {
            0 => Constraint::le(e, LinExpr::zero()),
            1 => Constraint::ge(e, LinExpr::zero()),
            _ => Constraint::eq(e, LinExpr::zero()),
        }
    }
}

fn raw_constraint() -> impl Strategy<Value = RawConstraint> {
    (prop::array::uniform3(-3i64..=3), -8i64..=8, 0u8..=2).prop_map(|(coeffs, constant, rel)| {
        RawConstraint {
            coeffs,
            constant,
            rel,
        }
    })
}

/// Builds a session of `NUM_VARS` non-negative variables, capped at
/// `DOMAIN` when `capped` (the brute-forceable setting) and unbounded
/// otherwise.
fn session(s: &mut Solver, capped: bool) -> Vec<Var> {
    let vars: Vec<Var> = (0..NUM_VARS)
        .map(|i| s.new_nonneg_var(format!("v{i}")))
        .collect();
    if capped {
        for &v in &vars {
            s.assert_constraint(Constraint::le(
                LinExpr::var(v),
                LinExpr::constant(DOMAIN as i128),
            ));
        }
    }
    vars
}

fn brute_force_sat(conj: &[RawConstraint], disj: &[(RawConstraint, RawConstraint)]) -> bool {
    for x in 0..=DOMAIN {
        for y in 0..=DOMAIN {
            for z in 0..=DOMAIN {
                let a = [x, y, z];
                if conj.iter().all(|c| c.holds(&a))
                    && disj.iter().all(|(p, q)| p.holds(&a) || q.holds(&a))
                {
                    return true;
                }
            }
        }
    }
    false
}

fn run(capped: bool, conj: &[RawConstraint], disj: &[(RawConstraint, RawConstraint)]) -> SatResult {
    let mut s = Solver::new();
    let vars = session(&mut s, capped);
    for c in conj {
        s.assert_constraint(c.build(&vars));
    }
    for (p, q) in disj {
        s.assert(Formula::or([
            Formula::atom(p.build(&vars)),
            Formula::atom(q.build(&vars)),
        ]));
    }
    s.check()
}

/// A difference cycle `v[i+1] - v[i] >= gain[i]` over the first `len`
/// variables, closed back to `v[0]`. When the gains sum to a positive
/// number the cycle is infeasible, though no finite bound on any one
/// variable shows it.
fn difference_cycle() -> impl Strategy<Value = (Vec<RawConstraint>, i64)> {
    (2usize..=NUM_VARS, prop::array::uniform3(-1i64..=3)).prop_map(|(len, gains)| {
        let cycle = (0..len)
            .map(|i| {
                let mut coeffs = [0; NUM_VARS];
                coeffs[(i + 1) % len] = 1;
                coeffs[i] = -1;
                RawConstraint {
                    coeffs,
                    constant: -gains[i],
                    rel: 1,
                }
            })
            .collect();
        (cycle, gains[..len].iter().sum())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Difference cycles over unbounded variables get a definite
    /// verdict, and a positive-gain cycle is refuted.
    #[test]
    fn difference_cycles_are_decided(
        cycle in difference_cycle(),
        extra in prop::collection::vec(raw_constraint(), 0..3),
        disj in prop::collection::vec((raw_constraint(), raw_constraint()), 0..2),
    ) {
        let (cycle, gain) = cycle;
        let conj: Vec<RawConstraint> = cycle.into_iter().chain(extra).collect();
        let r = run(false, &conj, &disj);
        prop_assert!(!matches!(r, SatResult::Unknown(_)));
        if gain > 0 {
            prop_assert!(r.is_unsat());
        }
    }

    /// The verdict matches brute force, through disjunctions too.
    #[test]
    fn verdicts_agree_with_brute_force(
        conj in prop::collection::vec(raw_constraint(), 0..4),
        disj in prop::collection::vec((raw_constraint(), raw_constraint()), 0..3),
    ) {
        let r = run(true, &conj, &disj);
        prop_assert!(!matches!(r, SatResult::Unknown(_)));
        prop_assert_eq!(r.is_sat(), brute_force_sat(&conj, &disj));
    }
}

/// The variable lifetime contract of `pop`: a variable made before the
/// push keeps its declared `>= 0` across the pop, and one made inside
/// the level is gone with it: the next variable the solver makes takes
/// the popped index, without the popped bound.
#[test]
fn pop_keeps_older_nonneg_bounds_and_drops_newer_variables() {
    let mut s = Solver::new();
    let x = s.new_nonneg_var("x");
    s.push();
    let y = s.new_nonneg_var("y");
    s.assert_constraint(Constraint::ge(LinExpr::var(y), LinExpr::var(x)));
    assert!(s.check().is_sat());
    s.pop();
    // x's bound outlives the level.
    s.push();
    s.assert_constraint(Constraint::le(LinExpr::var(x), LinExpr::constant(-1)));
    assert!(s.check().is_unsat(), "x >= 0 must survive the pop");
    s.pop();
    // y is gone: its index is reused by an unbounded variable.
    let z = s.new_var("z");
    assert_eq!(z, y, "the popped index is handed out again");
    assert_eq!(s.var_name(z), "z");
    s.assert_constraint(Constraint::le(LinExpr::var(z), LinExpr::constant(-1)));
    let r = s.check();
    let model = r.model().expect("z is unbounded below");
    assert!(model.value(z) <= -1);
}

/// A refutation inside a level does not outlive it: after the pop,
/// `x <= 3` alone is satisfiable.
#[test]
fn popped_constraints_do_not_linger() {
    let mut s = Solver::new();
    let x = s.new_nonneg_var("x");
    s.push();
    s.assert_constraint(Constraint::ge(LinExpr::var(x), LinExpr::constant(10)));
    s.assert_constraint(Constraint::le(LinExpr::var(x), LinExpr::constant(3)));
    assert!(s.check().is_unsat());
    s.pop();
    s.assert_constraint(Constraint::le(LinExpr::var(x), LinExpr::constant(3)));
    assert!(s.check().is_sat(), "popped conflict must not persist");
}

/// The cycle `t + 1 <= f ∧ f <= t` under `t <= 100`: its core is
/// exactly the cycle, without the bound on `t`.
#[test]
fn the_cycle_core_is_exactly_the_cycle() {
    let mut s = Solver::new();
    let t = s.new_nonneg_var("t");
    let f = s.new_nonneg_var("f");
    let up = s.assert_constraint_tracked(Constraint::le(
        LinExpr::var(t) + LinExpr::constant(1),
        LinExpr::var(f),
    ));
    let down = s.assert_constraint_tracked(Constraint::le(LinExpr::var(f), LinExpr::var(t)));
    s.assert_constraint_tracked(Constraint::le(LinExpr::var(t), LinExpr::constant(100)));
    assert!(s.check().is_unsat());
    let mut core = s.unsat_core().expect("the cycle is a certifiable core");
    core.sort();
    assert_eq!(core, vec![up, down]);
}
