//! The two full-lattice verification tasks of Table 2: Inv1₀ and
//! SRoundTerm on the simplified consensus automaton. Each explores the
//! complete 10-guard schedule lattice (169 feasible schemas) and takes
//! on the order of a minute — together they are this suite's long pole,
//! and the heart of the reproduction: safety *and liveness* of the
//! consensus, for all parameters.
//!
//! The third test is the *other* half of Table 2's story: the naive
//! (undecomposed) consensus automaton, whose row reads ">100 000
//! schemas, >24h (timeout)". With a wall-clock `time_budget` the
//! checker gives up gracefully, as a `Verdict::Unknown` whose reason
//! names the budget. The test pins that path with an already-expired
//! budget, so it neither waits for the budget nor depends on how long
//! the cell takes to verify.

use std::time::{Duration, Instant};

use holistic_supervise::FailureKind;
use holistic_verification::checker::{Checker, CheckerConfig, Verdict};
use holistic_verification::models::{NaiveConsensusModel, SimplifiedConsensusModel};

/// The workspace-wide slow-test gate: tests behind it run only when
/// `HOLISTIC_SLOW=1` (CI's nightly job sets it; the per-push job and a
/// plain `cargo test` do not — see README "Testing"). Returns `true`
/// when the calling test should return early.
fn skip_slow(name: &str) -> bool {
    if std::env::var("HOLISTIC_SLOW").as_deref() == Ok("1") {
        return false;
    }
    eprintln!("{name}: skipped (slow test); set HOLISTIC_SLOW=1 to run");
    true
}

#[test]
fn inv1_verifies_for_all_parameters() {
    if skip_slow("inv1_verifies_for_all_parameters") {
        return;
    }
    let model = SimplifiedConsensusModel::new();
    let checker = Checker::new();
    let report = checker
        .check_ltl(&model.ta, &model.inv1(0), &model.justice())
        .unwrap();
    assert!(
        report.verdict().is_verified(),
        "Inv1_0: {:?}",
        report.verdict()
    );
    // The pruned DFS visits far fewer schemas than the factorial
    // lattice; the count is stable for a fixed model.
    assert!(report.total_schemas() >= 100, "{}", report.total_schemas());
}

#[test]
fn sround_term_verifies_for_all_parameters() {
    if skip_slow("sround_term_verifies_for_all_parameters") {
        return;
    }
    let model = SimplifiedConsensusModel::new();
    let checker = Checker::new();
    let report = checker
        .check_ltl(&model.ta, &model.sround_term(), &model.justice())
        .unwrap();
    assert!(
        report.verdict().is_verified(),
        "SRoundTerm: {:?}",
        report.verdict()
    );
}

#[test]
fn naive_consensus_times_out_gracefully() {
    let model = NaiveConsensusModel::new();
    let checker = Checker::with_config(CheckerConfig {
        time_budget: Some(Duration::ZERO),
        ..CheckerConfig::default()
    });
    let start = Instant::now();
    let report = checker
        .check_ltl(&model.ta, &model.inv1(0), &model.justice())
        .expect("naive model is in the checkable fragment");
    let elapsed = start.elapsed();
    let verdict = report.verdict();
    assert!(
        matches!(verdict, Verdict::Unknown(_)),
        "expected Unknown on budget exhaustion, got {verdict:?}"
    );
    // Either the checker's own budget check or the solver's deadline
    // poll may notice first; both are a spent time budget.
    assert_eq!(
        FailureKind::classify(&verdict),
        Some(FailureKind::TimeBudget),
        "{verdict:?}"
    );
    // "Promptly": at most one solver-bounded schema past the budget,
    // not the paper's >24h.
    assert!(elapsed < Duration::from_secs(60), "took {elapsed:?}");
}
