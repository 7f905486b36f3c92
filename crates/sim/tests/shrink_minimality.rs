//! 1-minimality of the delta-debugged schedules.
//!
//! `shrink::shrink_schedule` promises that its result is 1-minimal:
//! dropping any single remaining event makes the failure predicate
//! flip. These tests hold it to that promise on real adversarial runs
//! (not hand-built schedules): a misparameterized deployment
//! (`n = 3, t = 1`, so `t >= n/3`) where the equivocator reliably
//! splits the correct processes, shrunk from two different seeds, and
//! then every single-event deletion of the minimal schedule is
//! replayed to check the violation is gone.

use holistic_sim::plan::shrink_first_violation;
use holistic_sim::shrink::replay;
use holistic_sim::{monitor, Scenario, ScheduleEvent, SimParams, StrategyKind};

const PARAMS: SimParams = SimParams { n: 3, t: 1, f: 1 };
const PROPOSALS: [u8; 3] = [0, 1, 0];

/// Scans seeds from `from` until the equivocator produces an Agreement
/// violation, and returns the seed with the shrunk minimal schedule.
fn first_violation_from(from: u64) -> (u64, Vec<ScheduleEvent>) {
    (from..from + 50)
        .find_map(|seed| {
            let mut scenario = Scenario::new(PARAMS, StrategyKind::Equivocator, seed);
            scenario.proposals = PROPOSALS.to_vec();
            scenario.max_deliveries = 5_000;
            let shrunk = shrink_first_violation(&scenario)?;
            assert_eq!(shrunk.violation.property, "Agreement");
            Some((seed, shrunk.minimal))
        })
        .expect("t >= n/3 must be observably broken within 50 seeds")
}

/// Asserts that `minimal` reproduces the Agreement violation and that
/// removing any single event no longer does (1-minimality, the ddmin
/// termination guarantee).
fn assert_one_minimal(minimal: &[ScheduleEvent], seed: u64) {
    let violates = |schedule: &[ScheduleEvent]| {
        monitor::check_agreement(&replay(PARAMS, &PROPOSALS, schedule)).is_err()
    };
    assert!(
        violates(minimal),
        "seed {seed}: minimal schedule does not reproduce the violation"
    );
    for skip in 0..minimal.len() {
        let mut reduced = minimal.to_vec();
        reduced.remove(skip);
        assert!(
            !violates(&reduced),
            "seed {seed}: schedule is not 1-minimal — event {skip} of {} is redundant",
            minimal.len()
        );
    }
}

#[test]
fn shrunk_equivocator_run_is_one_minimal() {
    let (seed, minimal) = first_violation_from(0);
    assert!(!minimal.is_empty());
    assert_one_minimal(&minimal, seed);
}

#[test]
fn shrunk_equivocator_run_from_a_different_seed_is_one_minimal() {
    // A second, independent violating run: start the scan past the
    // first test's range so the two tests exercise different recorded
    // schedules (the shrinker's input shape differs run to run).
    let (seed, minimal) = first_violation_from(50);
    assert!(!minimal.is_empty());
    assert_one_minimal(&minimal, seed);
}
