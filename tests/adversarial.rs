//! The adversarial robustness harness, end to end.
//!
//! * the **standard sweep** (`FaultPlan::standard`): every Byzantine
//!   strategy × three system sizes at the resilience boundary
//!   `f = t = ⌊(n−1)/3⌋`, on the reliable network — all safety monitors
//!   must pass on every run (Theorem 1/5, executed);
//! * the **broken-resilience probe**: at `t ≥ n/3` the equivocator
//!   splits the correct processes; the violation is delta-debugged to a
//!   minimal reproducing schedule;
//! * the **checker bridge**: the model checker's §6 counterexample
//!   (Inv1₀ violated under the weakened resilience `n > 2t`) is carried
//!   over to the simulator — the same parameters, driven by the
//!   equivocator, exhibit the same disagreement at the message level,
//!   and the shrunk trace becomes a regression fixture that replays.

use holistic_verification::checker::Checker;
use holistic_verification::models::SimplifiedConsensusModel;
use holistic_verification::sim::{
    monitor, shrink, FaultPlan, Outcome, Scenario, SimParams, StrategyKind,
};

#[test]
fn standard_sweep_is_safe_within_resilience() {
    let plan = FaultPlan::standard(2026);
    assert_eq!(plan.scenarios.len(), 15, "3 sizes × 5 strategies");
    let reports = plan.run();
    let unsafe_runs: Vec<String> = reports
        .iter()
        .filter(|r| !r.is_safe())
        .map(|r| format!("{}: {:?}", r.label, r.violations))
        .collect();
    assert!(unsafe_runs.is_empty(), "{}", unsafe_runs.join("\n"));
    // Sanity against vacuity: the harness must actually drive runs to
    // completion somewhere.
    assert!(reports.iter().any(|r| r.outcome == Outcome::AllDecided));
}

#[test]
fn misparameterized_run_violates_and_shrinks_to_minimal_trace() {
    // n = 3 with t = 1 violates t < n/3: the deployment the paper's §6
    // experiment warns about. The equivocator finds the disagreement;
    // the shrinker reduces the recorded schedule to a minimal trace.
    let params = SimParams { n: 3, t: 1, f: 1 };
    let shrunk = (0..50)
        .find_map(|seed| {
            let mut scenario = Scenario::new(params, StrategyKind::Equivocator, seed);
            scenario.proposals = vec![0, 1, 0];
            scenario.max_deliveries = 5_000;
            holistic_verification::sim::plan::shrink_first_violation(&scenario)
        })
        .expect("t >= n/3 must be observably broken");
    assert_eq!(shrunk.violation.property, "Agreement");
    // ddmin guarantees 1-minimality (removing any one event loses the
    // violation), so "minimal" here means every remaining delivery is
    // load-bearing — a genuine two-round disagreement still needs its
    // quorum traffic, so expect tens of events, not thousands.
    assert!(
        shrunk.minimal.len() < shrunk.original_len,
        "shrinker made no progress: {} -> {}",
        shrunk.original_len,
        shrunk.minimal.len()
    );
    // The minimal schedule is a self-contained regression fixture:
    // replaying it (no adversary, no scheduler) reproduces
    // the violation.
    let replayed = shrink::replay(params, &[0, 1, 0], &shrunk.minimal);
    let violation = monitor::check_agreement(&replayed).unwrap_err();
    assert_eq!(violation.property, "Agreement");
}

#[test]
fn checker_counterexample_replays_in_the_simulator() {
    // Holistic verification, the paper's pitch: the model checker's
    // abstract counterexample and the simulator's concrete traces talk
    // about the same system. Weakened resilience n > 2t makes the
    // checker produce a §6 agreement counterexample with concrete
    // parameters; the simulator, configured with those very parameters
    // and an equivocating adversary, realises the disagreement as an
    // actual message schedule — which then shrinks to a fixture.
    let model = SimplifiedConsensusModel::with_resilience(2);
    let checker = Checker::new();
    let report = checker
        .check_ltl(&model.ta, &model.inv1(0), &model.justice())
        .expect("model in fragment");
    let ce = report
        .verdict()
        .counterexample()
        .cloned()
        .expect("Inv1_0 must be violated under weakened resilience (the §6 experiment)");
    // The automaton's parameters are (n, t, f) in declaration order.
    let [n, t, f] = ce.params[..] else {
        panic!("expected 3 parameters, got {:?}", ce.params)
    };
    let params = SimParams {
        n: n as usize,
        t: t as usize,
        f: f as usize,
    };
    assert!(3 * params.t >= params.n, "the ce must break t < n/3");

    let shrunk = (0..80)
        .find_map(|seed| {
            let mut scenario = Scenario::new(params, StrategyKind::Equivocator, seed);
            // Mixed proposals: disagreement needs both values proposed.
            scenario.proposals = (0..params.n).map(|i| (i % 2) as u8).collect();
            scenario.max_deliveries = 5_000;
            holistic_verification::sim::plan::shrink_first_violation(&scenario)
        })
        .expect("checker counterexample must be realisable as a concrete schedule");
    assert_eq!(shrunk.violation.property, "Agreement");
    let proposals: Vec<u8> = (0..params.n).map(|i| (i % 2) as u8).collect();
    let replayed = shrink::replay(params, &proposals, &shrunk.minimal);
    assert!(monitor::check_agreement(&replayed).is_err());
}
