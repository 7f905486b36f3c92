//! Robustness regression tests for the resilient matrix supervisor:
//! worker isolation under injected panics, bounded time-budget
//! overshoot inside the solver hot loop, equivalence of a clean
//! supervised run with the checker's matrix scheduler, the
//! graceful-degradation ladder down to its oracle rung, and cells the
//! checker rejects.

use std::time::{Duration, Instant};

use holistic_checker::{
    ChaosConfig, CheckReport, Checker, CheckerConfig, MatrixJob, UnknownReason, Verdict,
};
use holistic_models::{BvBroadcastModel, NaiveConsensusModel, SimplifiedConsensusModel};
use holistic_oracle::replay_counterexample;
use holistic_supervise::{CellRecord, FailureKind, Rung, Supervisor, SupervisorConfig};

/// Satellite regression: a panic inside a work-stealing DFS worker must
/// degrade that cell to `Unknown(WorkerPanic(..))` instead of
/// aborting the whole `check_matrix` run. The chaos hook panics at the
/// exact point a buggy guard evaluation would strike (right before a
/// prefix's feasibility is resolved), on every feasibility decision, so
/// every cell of the matrix trips it — and every cell must still come
/// back classified.
#[test]
fn injected_worker_panic_degrades_cell_not_the_matrix() {
    let model = BvBroadcastModel::new();
    let justice = model.justice();
    let specs = model.table2_specs();
    let jobs: Vec<MatrixJob<'_>> = specs
        .iter()
        .map(|(name, spec)| MatrixJob {
            ta: &model.ta,
            spec,
            justice: &justice,
            label: name,
        })
        .collect();
    let checker = Checker::with_config(CheckerConfig {
        chaos: ChaosConfig { panic_every: 1 },
        threads: Some(2),
        ..CheckerConfig::default()
    });
    // The run must complete (no process abort) with one report per job.
    let reports = checker.check_matrix(&jobs, 2);
    assert_eq!(reports.len(), jobs.len(), "one report per cell, in order");
    for ((name, _), report) in specs.iter().zip(reports) {
        let report = report.expect("in fragment");
        match report.verdict() {
            Verdict::Unknown(UnknownReason::WorkerPanic(_)) => {}
            other => panic!("{name}: expected a worker-panic Unknown, got {other:?}"),
        }
    }
}

/// The uninjected matrix, run through the same per-cell isolation
/// wrapper, must be untouched: chaos off means every bv cell verifies
/// exactly as before.
#[test]
fn isolation_wrapper_is_transparent_without_chaos() {
    let model = BvBroadcastModel::new();
    let justice = model.justice();
    let specs = model.table2_specs();
    let jobs: Vec<MatrixJob<'_>> = specs
        .iter()
        .map(|(name, spec)| MatrixJob {
            ta: &model.ta,
            spec,
            justice: &justice,
            label: name,
        })
        .collect();
    let checker = Checker::with_config(CheckerConfig {
        threads: Some(1),
        ..CheckerConfig::default()
    });
    for ((name, _), report) in specs.iter().zip(checker.check_matrix(&jobs, 1)) {
        let report = report.expect("in fragment");
        assert!(
            report.verdict().is_verified(),
            "{name}: bv-broadcast property must verify with chaos off"
        );
    }
}

/// Satellite regression: the wall-clock budget is polled inside the
/// simplex pivot loop (every `DEADLINE_STRIDE` pivots), not just at
/// coarse DFS boundaries — so even on the naive automaton, whose
/// queries blow through any practical schema cap, a run with budget `B`
/// must come back `Unknown` in well under `2 * B`.
#[test]
fn time_budget_overshoot_is_bounded() {
    let model = NaiveConsensusModel::new();
    let justice = model.justice();
    let (name, spec) = &model.table2_specs()[0];
    let budget = Duration::from_millis(400);
    let checker = Checker::with_config(CheckerConfig {
        time_budget: Some(budget),
        threads: Some(1),
        ..CheckerConfig::default()
    });
    let start = Instant::now();
    let report = checker
        .check_ltl(&model.ta, spec, &justice)
        .expect("in fragment");
    let elapsed = start.elapsed();
    assert!(
        matches!(report.verdict(), Verdict::Unknown(_)),
        "{name}: the naive automaton cannot finish within {budget:?}"
    );
    assert!(
        elapsed < budget * 2,
        "{name}: budget {budget:?} overshot to {elapsed:?} (>= 2x)"
    );
}

/// Builds the bv-broadcast Table-2 matrix as matrix jobs.
fn bv_jobs<'a>(
    model: &'a BvBroadcastModel,
    specs: &'a [(&'static str, holistic_ltl::Ltl)],
    justice: &'a holistic_ltl::Justice,
) -> Vec<MatrixJob<'a>> {
    specs
        .iter()
        .map(|(name, spec)| MatrixJob {
            ta: &model.ta,
            spec,
            justice,
            label: name,
        })
        .collect()
}

/// The deterministic checker configuration (sequential DFS) the
/// supervised runs use at full strength.
fn deterministic_checker() -> CheckerConfig {
    CheckerConfig {
        threads: Some(1),
        ..CheckerConfig::default()
    }
}

/// Runs `jobs` through a sequential, default-configured supervisor on a
/// fresh checker with the given configuration.
fn supervise(config: CheckerConfig, jobs: &[MatrixJob<'_>]) -> Vec<CellRecord> {
    Supervisor::default().run(&Checker::with_config(config), jobs)
}

/// Asserts two reports of one cell are observably identical: per
/// query, the verdict (counterexample included), schema count, average
/// segment length, cache and core counters, and every solver counter
/// except the wall-clock `core_micros`.
fn assert_same_report(cell: &str, a: &CheckReport, b: &CheckReport) {
    assert_eq!(a.queries.len(), b.queries.len(), "{cell}: query count");
    for (qi, (x, y)) in a.queries.iter().zip(&b.queries).enumerate() {
        assert_eq!(
            format!("{:?}", x.verdict),
            format!("{:?}", y.verdict),
            "{cell} query {qi}: verdict"
        );
        let (s, t) = (&x.stats, &y.stats);
        assert_eq!(s.schemas, t.schemas, "{cell} query {qi}: schemas");
        assert_eq!(
            s.avg_segments, t.avg_segments,
            "{cell} query {qi}: avg segments"
        );
        assert_eq!(s.cache_hits, t.cache_hits, "{cell} query {qi}: cache hits");
        assert_eq!(
            s.cache_misses, t.cache_misses,
            "{cell} query {qi}: cache misses"
        );
        assert_eq!(s.cores_learned, t.cores_learned, "{cell} query {qi}: cores");
        assert_eq!(
            s.schemas_pruned_by_core, t.schemas_pruned_by_core,
            "{cell} query {qi}: core prunes"
        );
        let (mut u, mut v) = (s.solver, t.solver);
        u.core_micros = 0;
        v.core_micros = 0;
        assert_eq!(u, v, "{cell} query {qi}: solver counters");
    }
}

/// A clean supervised run is the checker's matrix scheduler: on two
/// fresh checkers, `Supervisor::run` and `check_matrix` return the same
/// report for every bv-broadcast Table-2 cell, in job order, each
/// answered at full strength. This is what lets `table2_bench`, which
/// runs every pass through the supervisor, keep its baseline.
#[test]
fn supervised_clean_run_equals_check_matrix() {
    let model = BvBroadcastModel::new();
    let justice = model.justice();
    let specs = model.table2_specs();
    let jobs = bv_jobs(&model, &specs, &justice);

    let records = supervise(deterministic_checker(), &jobs);
    let reports = Checker::with_config(deterministic_checker()).check_matrix(&jobs, 1);
    assert_eq!(records.len(), jobs.len(), "one record per job");
    for ((job, record), report) in jobs.iter().zip(&records).zip(reports) {
        assert_eq!(
            record.rung,
            Rung::Full,
            "{}: answered at full strength",
            job.label
        );
        assert_eq!(
            record.failure, None,
            "{}: no failure on a clean run",
            job.label
        );
        let full = record.report.as_ref().expect("answered at full strength");
        assert_same_report(job.label, full, &report.expect("in fragment"));
    }
}

/// The degradation ladder under injected panics: every feasibility
/// decision of the one full-strength check panics, so each cell is
/// classified `WorkerPanic` and steps down at once (chaos stays off
/// below rung 1). `BV-Just0`'s lattice fits rung 2's 64-schema bound,
/// so the depth-bounded re-check verifies it; simplified consensus's
/// `Inv1_0` needs 169 schemas, so it falls through to the oracle, which
/// finds no violation at the small valuations and leaves it `Unknown`.
#[test]
fn chaos_poisoned_cell_walks_the_ladder() {
    let chaos = CheckerConfig {
        chaos: ChaosConfig { panic_every: 1 },
        ..deterministic_checker()
    };

    let bv = BvBroadcastModel::new();
    let bv_justice = bv.justice();
    let bv_specs = bv.table2_specs();
    let just0 = &supervise(chaos.clone(), &bv_jobs(&bv, &bv_specs[..1], &bv_justice))[0];
    assert_eq!(bv_specs[0].0, "BV-Just0");
    assert_eq!(just0.failure, Some(FailureKind::WorkerPanic));
    assert_eq!(just0.rung, Rung::DepthBounded, "BV-Just0 fits rung 2");
    assert!(
        just0
            .report
            .as_ref()
            .is_some_and(|r| r.verdict().is_verified()),
        "the depth-bounded rung verifies BV-Just0"
    );

    let sc = SimplifiedConsensusModel::new();
    let sc_justice = sc.justice();
    let spec = sc.inv1(0);
    let job = MatrixJob {
        ta: &sc.ta,
        spec: &spec,
        justice: &sc_justice,
        label: "Inv1_0",
    };
    let inv1 = &supervise(chaos, &[job])[0];
    assert_eq!(inv1.failure, Some(FailureKind::WorkerPanic));
    assert_eq!(
        inv1.rung,
        Rung::Oracle,
        "Inv1_0's 169 schemas exceed rung 2's bound"
    );
    assert!(
        inv1.report
            .as_ref()
            .is_some_and(|r| matches!(r.verdict(), Verdict::Unknown(_))),
        "no violation at small valuations never upgrades an Unknown verdict"
    );
    let note = inv1.note.as_deref().expect("rung-3 outcome is documented");
    assert!(
        note.contains("oracle: no violation at the admissible valuations"),
        "note must state the oracle's outcome, got {note:?}"
    );
    assert!(just0.is_classified() && inv1.is_classified());
}

/// A wall-clock budget failure on the naive automaton must fall through the
/// depth-bounded rung (the naive lattice blows the rung-2 schema bound
/// too) to the oracle rung. The oracle finds no violation at the swept
/// valuations, which proves nothing for larger parameters: the verdict
/// stays `Unknown` and the note names the valuations.
#[test]
fn time_budget_walks_to_oracle_rung() {
    let model = NaiveConsensusModel::new();
    let justice = model.justice();
    let specs = model.table2_specs();
    let jobs: Vec<MatrixJob<'_>> = specs[..1]
        .iter()
        .map(|(name, spec)| MatrixJob {
            ta: &model.ta,
            spec,
            justice: &justice,
            label: name,
        })
        .collect();
    let mut config = SupervisorConfig::default();
    config.ladder.depth_budget = Some(Duration::from_millis(500));
    let checker = Checker::with_config(CheckerConfig {
        time_budget: Some(Duration::from_millis(150)),
        ..deterministic_checker()
    });
    let records = Supervisor::new(config).run(&checker, &jobs);
    let cell = &records[0];
    assert_eq!(cell.failure, Some(FailureKind::TimeBudget));
    assert_eq!(
        cell.rung,
        Rung::Oracle,
        "the naive lattice exceeds the rung-2 bound, so rung 3 answers"
    );
    assert!(
        cell.report
            .as_ref()
            .is_some_and(|r| matches!(r.verdict(), Verdict::Unknown(_))),
        "no violation at small valuations never upgrades an Unknown verdict"
    );
    let note = cell.note.as_deref().expect("rung-3 outcome is documented");
    let swept = format!("{:?}", model.ta.admissible_valuations(4));
    assert!(
        note.contains("oracle: no violation at the admissible valuations") && note.contains(&swept),
        "note must name the swept valuations {swept}, got {note:?}"
    );
}

/// The oracle rung tests the automaton it was given: with both checker
/// rungs starved (zero budgets), the `Inv1_0` violation of simplified
/// consensus under the weakened resilience `n > 2t` comes back from
/// rung 3 as a `Violated` report whose counterexample the oracle's
/// replay confirms.
#[test]
fn oracle_rung_reports_a_replayed_violation_of_the_cells_automaton() {
    let model = SimplifiedConsensusModel::with_resilience(2);
    let justice = model.justice();
    let spec = model.inv1(0);
    let jobs = [MatrixJob {
        ta: &model.ta,
        spec: &spec,
        justice: &justice,
        label: "Inv1_0",
    }];
    let mut config = SupervisorConfig::default();
    config.ladder.depth_budget = Some(Duration::ZERO);
    let checker = Checker::with_config(CheckerConfig {
        time_budget: Some(Duration::ZERO),
        ..deterministic_checker()
    });
    let records = Supervisor::new(config).run(&checker, &jobs);
    let cell = &records[0];
    assert_eq!(cell.failure, Some(FailureKind::TimeBudget));
    assert_eq!(cell.rung, Rung::Oracle, "both checker rungs are starved");
    let report = cell.report.as_ref().expect("the full-strength report");
    let (index, ce) = report
        .queries
        .iter()
        .enumerate()
        .find_map(|(i, q)| match &q.verdict {
            Verdict::Violated(ce) => Some((i, ce)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("the oracle rung must find the violation: {:?}", cell.note));
    assert!(report.verdict().is_violated());
    replay_counterexample(&model.ta, &spec, &justice, index, ce)
        .expect("the oracle's counterexample replays");
    let note = cell.note.as_deref().expect("rung-3 outcome is documented");
    assert!(
        note.contains("replay-confirmed"),
        "note must state the confirmed violation, got {note:?}"
    );
}

/// A cell the checker rejects (here an out-of-fragment spec: a bare
/// state formula) is a `ModelError`: no depth-bounded re-check (it would reject the cell identically),
/// no report, and the rejection in the note.
#[test]
fn rejected_cell_is_a_model_error_with_the_rejection_in_its_note() {
    let model = BvBroadcastModel::new();
    let justice = model.justice();
    let spec = holistic_ltl::Ltl::state(holistic_ltl::Prop::True);
    let jobs = [MatrixJob {
        ta: &model.ta,
        spec: &spec,
        justice: &justice,
        label: "bare-state",
    }];
    let records = supervise(deterministic_checker(), &jobs);
    let cell = &records[0];
    assert_eq!(cell.failure, Some(FailureKind::ModelError));
    assert_eq!(
        cell.rung,
        Rung::Oracle,
        "the depth-bounded rung is skipped for a rejected model"
    );
    assert!(cell.report.is_none(), "a rejected cell has no report");
    assert!(cell.is_classified());
    let note = cell.note.as_deref().expect("the rejection is documented");
    assert!(
        note.starts_with("model rejected: formula shape outside the checkable fragment"),
        "note must carry the rejection, got {note:?}"
    );
}
