//! Differential validation: the symbolic checker against the
//! explicit-state oracle.
//!
//! The fast test runs the smoke scope (bv-broadcast Table-2 cells plus
//! the bv smoke mutant subset) on every `cargo test`; the full sweep —
//! all twelve Table-2 cells, both complete mutant corpora and the
//! survivor adjudication — runs behind `HOLISTIC_SLOW=1` like the other
//! whole-corpus suites.

use holistic_mutate::{run_adjudication, run_diff, DiffConfig};

/// The workspace-wide slow-test gate (see README "Testing").
fn skip_slow(name: &str) -> bool {
    if std::env::var("HOLISTIC_SLOW").as_deref() == Ok("1") {
        return false;
    }
    eprintln!("{name}: skipped (slow test); set HOLISTIC_SLOW=1 to run");
    true
}

#[test]
fn smoke_scope_has_zero_definite_disagreements() {
    let report = run_diff(&DiffConfig::smoke(), |_| {});
    assert!(
        report.passed(),
        "definite-verdict disagreements:\n{}",
        report.render()
    );
    // The smoke scope is not allowed to degenerate into vacuity: the
    // four bv-broadcast Table-2 cells must actually agree (symbolic
    // verified + oracle exhaustive holds), and the killed smoke mutants
    // must produce concretely replayed counterexamples.
    let (agree, _, _, _, _) = report.tally();
    assert!(
        agree >= 4,
        "expected at least the 4 bv cells to agree:\n{}",
        report.render()
    );
    let replays: usize = report.cells.iter().map(|c| c.replays).sum();
    assert!(replays > 0, "no counterexample went through oracle replay");
    let states: usize = report.cells.iter().map(|c| c.states).sum();
    assert!(states > 0, "oracle never explored a state");
}

#[test]
fn full_sweep_and_adjudication_agree() {
    if skip_slow("full_sweep_and_adjudication_agree") {
        return;
    }
    let report = run_diff(&DiffConfig::full(), |_| {});
    assert!(
        report.passed(),
        "definite-verdict disagreements:\n{}",
        report.render()
    );
    // Both documented kill-matrix survivors must be adjudicated, and
    // the adjudication must reproduce the triage claims: a concrete
    // equivalence for thr.down.b0_high, a justice-encoding mask (kill
    // reappears under rule-wise justice) for drop.s3.
    assert_eq!(report.survivors.len(), 2);
    let b0 = &report.survivors[0];
    assert_eq!(b0.id, "thr.down.b0_high");
    assert!(b0.equivalent, "{}", b0.conclusion);
    let s3 = &report.survivors[1];
    assert_eq!(s3.id, "drop.s3");
    assert_eq!(s3.alt_kill_reappears, Some(true), "{}", s3.conclusion);
}

#[test]
fn adjudication_is_runnable_standalone() {
    if skip_slow("adjudication_is_runnable_standalone") {
        return;
    }
    let survivors = run_adjudication(&DiffConfig::full());
    assert_eq!(survivors.len(), 2);
    for s in &survivors {
        assert!(
            s.rows
                .iter()
                .any(|r| r.mutant != "unknown" || r.pristine != "unknown"),
            "{}: adjudication produced no definite verdicts",
            s.id
        );
    }
}
