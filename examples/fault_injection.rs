//! Byzantine fault injection: the standard robustness sweep, and
//! delta-debugging a violation out of a mis-parameterized deployment.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```
//!
//! Part 1 runs [`FaultPlan::standard`]: every Byzantine strategy
//! (silence, equivocation, targeted lying, value-flip spam, Lemma-7
//! stalling) × three system sizes at the resilience boundary
//! `f = t = ⌊(n−1)/3⌋`, on the reliable network Fig. 1 assumes. Within
//! `t < n/3` every run must satisfy Agreement, Validity and
//! BV-Justification.
//!
//! Part 2 breaks the precondition — `n = 3, t = 1` has `t ≥ n/3` — and
//! lets the equivocator split the correct processes. The recorded
//! schedule is then delta-debugged (prefix bisection + ddmin) to a
//! 1-minimal reproducing trace, which replays deterministically.

use holistic_verification::sim::{
    monitor, plan, shrink, FaultPlan, Scenario, SimParams, StrategyKind,
};

fn main() {
    // ------------------------------------------------------------------
    // Part 1: the standard sweep.
    // ------------------------------------------------------------------
    let fault_plan = FaultPlan::standard(2026);
    println!(
        "sweep: {} scenarios (3 sizes x {} strategies)",
        fault_plan.scenarios.len(),
        StrategyKind::all().len(),
    );
    let reports = fault_plan.run();
    let mut violations = 0;
    for report in &reports {
        if !report.is_safe() {
            violations += 1;
            println!("  VIOLATION {}: {:?}", report.label, report.violations);
        }
    }
    let decided = reports
        .iter()
        .filter(|r| r.outcome == holistic_verification::sim::Outcome::AllDecided)
        .count();
    println!(
        "  {}/{} decided, {} safety violations",
        decided,
        reports.len(),
        violations,
    );
    assert_eq!(violations, 0, "safety must hold within t < n/3");

    // ------------------------------------------------------------------
    // Part 2: break t < n/3, find the violation, shrink it.
    // ------------------------------------------------------------------
    let params = SimParams { n: 3, t: 1, f: 1 };
    println!();
    println!(
        "mis-parameterized deployment: n = {}, t = {} (t >= n/3)",
        params.n, params.t
    );
    let shrunk = (0..50)
        .find_map(|seed| {
            let mut scenario = Scenario::new(params, StrategyKind::Equivocator, seed);
            scenario.proposals = vec![0, 1, 0];
            scenario.max_deliveries = 5_000;
            plan::shrink_first_violation(&scenario)
        })
        .expect("the equivocator must split n = 3, t = 1");
    println!(
        "  equivocator breaks {}: schedule shrunk {} -> {} events (1-minimal)",
        shrunk.violation.property,
        shrunk.original_len,
        shrunk.minimal.len(),
    );

    // The minimal schedule replays deterministically — a regression
    // fixture needing no adversary and no scheduler.
    let replayed = shrink::replay(params, &[0, 1, 0], &shrunk.minimal);
    let violation = monitor::check_agreement(&replayed)
        .expect_err("the minimal trace must reproduce the disagreement");
    println!("  replayed fixture: {violation}");
}
