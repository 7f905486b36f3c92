//! `SolverConfig::deadline` holds for a search made of many short
//! simplex checks, not only for one long check.
//!
//! Ten pigeons in nine holes: each pigeon takes some hole (`x ≥ 1`
//! over a disjunction of holes) and each hole holds at most one pigeon
//! (`Σ x ≤ 1`). The search case-splits through the whole budget, and
//! every simplex check along the way takes only a few pivots. The
//! deadline is already past when the check starts, so the expected
//! verdict does not depend on timing.

use std::time::{Duration, Instant};

use holistic_lia::{
    Constraint, Formula, LinExpr, SatResult, Solver, SolverConfig, UnknownReason, Var,
};

const PIGEONS: usize = 10;
const HOLES: usize = 9;

/// Asserts the pigeonhole instance into `s`.
fn assert_pigeonhole(s: &mut Solver) {
    let x: Vec<Vec<Var>> = (0..PIGEONS)
        .map(|p| {
            (0..HOLES)
                .map(|h| s.new_nonneg_var(format!("x{p}_{h}")))
                .collect()
        })
        .collect();
    for row in &x {
        s.assert(Formula::or(row.iter().map(|&v| {
            Formula::atom(Constraint::ge(LinExpr::var(v), LinExpr::constant(1)))
        })));
    }
    for h in 0..HOLES {
        let mut sum = LinExpr::zero();
        for row in &x {
            sum += LinExpr::var(row[h]);
        }
        s.assert_constraint(Constraint::le(sum, LinExpr::constant(1)));
    }
}

fn past() -> Instant {
    let now = Instant::now();
    now.checked_sub(Duration::from_secs(1)).unwrap_or(now)
}

fn assert_stopped_by_the_deadline(s: &Solver, r: &SatResult) {
    assert!(
        matches!(r, SatResult::Unknown(UnknownReason::Deadline)),
        "{r:?}"
    );
    // Without the deadline the search runs through its whole budget of
    // 200,000 case splits.
    assert!(s.stats().case_splits < 1_000, "{:?}", s.stats());
}

#[test]
fn past_deadline_stops_the_search() {
    let mut s = Solver::with_config(SolverConfig {
        deadline: Some(past()),
        ..SolverConfig::default()
    });
    assert_pigeonhole(&mut s);
    let r = s.check();
    assert_stopped_by_the_deadline(&s, &r);
}

#[test]
fn deadline_is_polled_across_short_checks() {
    // A first check under a distant deadline uses up the solver's
    // poll-before-pivoting, so the pigeonhole search below is stopped
    // only by pivots counted across its many short checks.
    let mut s = Solver::with_config(SolverConfig {
        deadline: Some(Instant::now() + Duration::from_secs(3600)),
        ..SolverConfig::default()
    });
    assert!(s.check().is_sat());
    s.set_deadline(Some(past()));
    assert_pigeonhole(&mut s);
    let r = s.check();
    assert_stopped_by_the_deadline(&s, &r);
}
