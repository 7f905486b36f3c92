//! Equivalence and core-soundness properties of the propagation-first
//! layer.
//!
//! The interval presolve and interval disjunct filtering are pure
//! accelerators: with `SolverConfig::propagation` on or off the solver
//! must reach the same verdict on every input (and
//! both must agree with brute-force enumeration over a bounded domain).
//! When propagation itself refutes a system before any pivoting, the
//! reported `unsat_core` must still be a real core: infeasible on its
//! own and irreducible.

use holistic_lia::{
    AssertId, Constraint, Formula, LinExpr, Rat, SatResult, Solver, SolverConfig, Var,
};
use proptest::prelude::*;
use std::collections::HashMap;

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

fn solver_with(propagation: bool) -> Solver {
    Solver::with_config(SolverConfig {
        propagation,
        ..SolverConfig::default()
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

fn run(
    propagation: bool,
    capped: bool,
    conj: &[RawConstraint],
    disj: &[(RawConstraint, RawConstraint)],
) -> SatResult {
    let mut s = solver_with(propagation);
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
/// number the cycle is infeasible, and over unbounded variables the
/// interval presolve can only crawl the lower bounds up by that sum per
/// round.
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

    /// Propagation on and off agree on difference cycles over unbounded
    /// variables, where the presolve creeps instead of converging; a
    /// positive-gain cycle is refuted either way.
    #[test]
    fn propagation_on_off_agree_on_creeping_cycles(
        cycle in difference_cycle(),
        extra in prop::collection::vec(raw_constraint(), 0..3),
        disj in prop::collection::vec((raw_constraint(), raw_constraint()), 0..2),
    ) {
        let (cycle, gain) = cycle;
        let conj: Vec<RawConstraint> = cycle.into_iter().chain(extra).collect();
        let on = run(true, false, &conj, &disj);
        let off = run(false, false, &conj, &disj);
        prop_assert!(!matches!(on, SatResult::Unknown(_)));
        prop_assert!(!matches!(off, SatResult::Unknown(_)));
        prop_assert_eq!(on.is_sat(), off.is_sat());
        if gain > 0 {
            prop_assert!(on.is_unsat());
        }
    }

    /// Propagation on and off reach the same verdict, and both match
    /// brute force — including through disjunctions, where the interval
    /// layer filters and reorders branches.
    #[test]
    fn propagation_on_off_agree_with_brute_force(
        conj in prop::collection::vec(raw_constraint(), 0..4),
        disj in prop::collection::vec((raw_constraint(), raw_constraint()), 0..3),
    ) {
        let on = run(true, true, &conj, &disj);
        let off = run(false, true, &conj, &disj);
        prop_assert!(!matches!(on, SatResult::Unknown(_)));
        prop_assert!(!matches!(off, SatResult::Unknown(_)));
        prop_assert_eq!(on.is_sat(), off.is_sat());
        let expected = brute_force_sat(&conj, &disj);
        prop_assert_eq!(on.is_sat(), expected);
    }

    /// When the propagation-enabled solver refutes a *conjunctive*
    /// system (the presolve's home turf: every such refutation is
    /// interval-derivable or simplex-derivable, and the test does not
    /// care which fired), the reported core is infeasible on its own
    /// and irreducible — even when re-checked by the propagation-OFF
    /// pipeline, so the core cannot lean on propagation-only facts.
    #[test]
    fn propagation_unsat_cores_are_sound_and_minimal(
        raws in prop::collection::vec(raw_constraint(), 2..=8),
    ) {
        // No domain caps here: untracked background constraints could
        // be essential to the conflict, making the core unreportable —
        // non-negativity (which cores treat as background) suffices to
        // keep the solver definite on these generators.
        let mut s = solver_with(true);
        let vars: Vec<Var> = (0..NUM_VARS)
            .map(|i| s.new_nonneg_var(format!("v{i}")))
            .collect();
        let mut by_id: HashMap<AssertId, &RawConstraint> = HashMap::new();
        for raw in &raws {
            let id = s.assert_constraint_tracked(raw.build(&vars));
            by_id.insert(id, raw);
        }
        let before = s.stats();
        if !s.check().is_unsat() {
            return Ok(());
        }
        let after = s.stats();
        // A *presolve* refutation: propagation refuted the asserted
        // conjunction before the search ran a single pivot or branch.
        // Its conflict reasons are all tagged (the asserts were
        // tracked), so a core is guaranteed. Refutations found deeper
        // in the search (untagged re-asserts, branch-and-bound integer
        // gaps) may legitimately lack a certificate.
        let presolve_refutation = after.propagation_refutations
            > before.propagation_refutations
            && after.pivots == before.pivots
            && after.branch_nodes == before.branch_nodes;
        let Some(core) = s.unsat_core() else {
            prop_assert!(
                !presolve_refutation,
                "presolve propagation refutation must yield a core"
            );
            return Ok(());
        };
        let members: Vec<&RawConstraint> =
            core.iter().map(|id| by_id[id]).collect();
        prop_assert_eq!(
            subset_verdict(&members, false),
            Some(false),
            "core is not infeasible on its own"
        );
        for drop in 0..members.len() {
            let reduced: Vec<&RawConstraint> = members
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != drop)
                .map(|(_, c)| *c)
                .collect();
            prop_assert_eq!(
                subset_verdict(&reduced, false),
                Some(true),
                "core member {} is removable",
                drop
            );
        }
    }
}

/// Asserts the given subset (over fresh non-negative variables,
/// mirroring the core test's session) in a fresh solver with
/// propagation as requested.
fn subset_verdict(subset: &[&RawConstraint], propagation: bool) -> Option<bool> {
    let mut s = solver_with(propagation);
    let vars: Vec<Var> = (0..NUM_VARS)
        .map(|i| s.new_nonneg_var(format!("v{i}")))
        .collect();
    for c in subset {
        s.assert_constraint(c.build(&vars));
    }
    let r = s.check();
    if r.is_unsat() {
        Some(false)
    } else if r.is_sat() {
        Some(true)
    } else {
        None
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

/// Through the propagation layer: an interval-derived refutation must
/// not resurrect stale bounds either direction — after
/// the pop, `x <= 3` alone is satisfiable.
#[test]
fn popped_constraints_do_not_linger_in_propagation() {
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

/// The creep cycle `t + 1 <= f ∧ f <= t` over unbounded parameters:
/// each presolve round raises both lower bounds by one and never meets
/// an upper bound. The stall limit stops the crawl after a few
/// tightenings per variable and leaves the refutation to the simplex.
fn creep_cycle(s: &mut Solver) -> (Var, Constraint, Constraint) {
    let t = s.new_nonneg_var("t");
    let f = s.new_nonneg_var("f");
    let up = Constraint::le(LinExpr::var(t) + LinExpr::constant(1), LinExpr::var(f));
    let down = Constraint::le(LinExpr::var(f), LinExpr::var(t));
    (t, up, down)
}

#[test]
fn unbounded_creep_stalls_instead_of_crawling() {
    let mut s = Solver::new();
    let (_, up, down) = creep_cycle(&mut s);
    s.assert_constraint(up);
    s.assert_constraint(down);
    assert!(s.check().is_unsat());
    let propagations = s.stats().propagations;
    assert!(
        propagations <= 64,
        "presolve crept through {propagations} tightenings"
    );
}

/// With `t <= 100` the crawl would eventually meet the bound and refute
/// by propagation; the stall hands the refutation to the simplex
/// instead, whose core must still be exactly the cycle.
#[test]
fn stalled_creep_still_yields_the_cycle_core() {
    let mut s = Solver::new();
    let (t, up, down) = creep_cycle(&mut s);
    let up = s.assert_constraint_tracked(up);
    let down = s.assert_constraint_tracked(down);
    s.assert_constraint_tracked(Constraint::le(LinExpr::var(t), LinExpr::constant(100)));
    assert!(s.check().is_unsat());
    let mut core = s.unsat_core().expect("the cycle is a certifiable core");
    core.sort();
    assert_eq!(core, vec![up, down]);
}
