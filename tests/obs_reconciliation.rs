//! Reconciliation of the observability registry against the checker's
//! own statistics.
//!
//! The metrics registry ([`holistic_verification::obs`]) is fed by
//! side-channel `add()` calls scattered through the checker and the LIA
//! solver; the [`CheckReport`] statistics are threaded through return
//! values. The two accountings must agree **exactly** — a counter that
//! drifts from the report means a code path publishes twice, not at
//! all, or from the wrong merge point.
//!
//! On randomly generated automata (same generator and master-seed
//! convention as `tests/cross_validation.rs`):
//!
//! * with `share_exploration = false` there is no skeleton pass, so
//!   every registry counter equals the summed report fields exactly, at
//!   1, 2 and 3 worker threads;
//! * with sharing on, the checker folds the skeleton pass's solver work
//!   and its two core-pruning fields into the report, and the probes
//!   merge their full solver statistics, so every solver counter and
//!   `cores_learned` / `schemas_pruned_by_core` match exactly; the
//!   skeleton's schemas and cache hits are published but not folded in,
//!   so there the registry must *dominate* the report.
//!
//! The registry is process-global, so every test serializes on one
//! mutex and resets the registry around each measured run.

use std::sync::Mutex;

use holistic_verification::checker::{CheckReport, Checker, CheckerConfig};
use holistic_verification::lia::SolverStats;
use holistic_verification::ltl::{Justice, Ltl, Prop};
use holistic_verification::models::BvBroadcastModel;
use holistic_verification::mutate::generator::random_ta;
use holistic_verification::obs;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Serializes registry access across the tests of this binary.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Master seed: `HOLISTIC_MASTER_SEED` if set, else 0 (the committed
/// corpus, same convention as `tests/cross_validation.rs`).
fn master_seed() -> u64 {
    match std::env::var("HOLISTIC_MASTER_SEED") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("HOLISTIC_MASTER_SEED must be a u64, got {v:?}")),
        Err(_) => 0,
    }
}

fn checker(share: bool, threads: usize) -> Checker {
    Checker::with_config(CheckerConfig {
        share_exploration: share,
        threads: Some(threads),
        ..CheckerConfig::default()
    })
}

/// The fourteen solver counters, in `SolverStats` field order, paired
/// with their registry names.
fn solver_fields(s: &SolverStats) -> [(&'static str, u64); 14] {
    [
        ("lia.checks", s.checks),
        ("lia.branch_nodes", s.branch_nodes),
        ("lia.case_splits", s.case_splits),
        ("lia.pivots", s.pivots),
        ("lia.pivot_entries", s.pivot_entries),
        ("lia.rows", s.rows),
        ("lia.intern_hits", s.intern_hits),
        ("lia.intern_misses", s.intern_misses),
        ("lia.cores_extracted", s.cores_extracted),
        ("lia.core_members", s.core_members),
        ("lia.core_micros", s.core_micros),
        ("lia.propagations", s.propagations),
        ("lia.propagation_refutations", s.propagation_refutations),
        ("lia.disjuncts_skipped", s.disjuncts_skipped),
    ]
}

/// Total segments across a report, reconstructed from the per-query
/// average (`avg = segments / schemas` in f64; multiplying back and
/// rounding is exact for the magnitudes these runs produce).
fn report_segments(report: &CheckReport) -> u64 {
    report
        .queries
        .iter()
        .map(|q| (q.stats.avg_segments * q.stats.schemas as f64).round() as u64)
        .sum()
}

/// Runs one property with a fresh, enabled registry and returns the
/// report next to the drained counter totals.
fn measured_run(
    checker: &Checker,
    ta: &holistic_verification::ta::ThresholdAutomaton,
    spec: &Ltl,
    justice: &Justice,
) -> Option<(CheckReport, Vec<(String, u64)>)> {
    obs::reset();
    obs::set_enabled(true);
    let report = checker.check_ltl(ta, spec, justice);
    obs::set_enabled(false);
    obs::flush();
    let snapshot = obs::drain();
    obs::reset();
    report.ok().map(|r| (r, snapshot.counters))
}

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// The two Table-2-shaped questions asked of every random automaton.
fn specs(ta: &holistic_verification::ta::ThresholdAutomaton) -> Vec<Ltl> {
    let target = *ta.final_locations().last().unwrap();
    vec![
        Ltl::always(Ltl::state(Prop::loc_empty(target))),
        Ltl::eventually(Ltl::state(Prop::loc_nonempty(target))),
    ]
}

#[test]
fn registry_equals_reports_without_sharing() {
    let _guard = OBS_LOCK.lock().unwrap();
    let master = master_seed();
    eprintln!("reconciliation (share=off) under master seed {master}");
    let mut cases = 0;
    for i in 0..6u64 {
        let seed = master.wrapping_add(i);
        let mut rng = StdRng::seed_from_u64(seed);
        let ta = random_ta(&mut rng);
        let justice = Justice::from_rules(&ta);
        for spec in specs(&ta) {
            for threads in 1..=3usize {
                let checker = checker(false, threads);
                let Some((report, counters)) = measured_run(&checker, &ta, &spec, &justice) else {
                    continue; // outside the fragment; seed-dependent
                };
                cases += 1;
                let ctx = format!("seed {seed}, threads {threads}, spec {spec:?}");
                assert_eq!(
                    counter(&counters, "checker.schemas"),
                    report.total_schemas() as u64,
                    "{ctx}: schemas"
                );
                assert_eq!(
                    counter(&counters, "checker.segments"),
                    report_segments(&report),
                    "{ctx}: segments"
                );
                assert_eq!(
                    counter(&counters, "checker.cache_hits"),
                    report.total_cache_hits(),
                    "{ctx}: cache hits"
                );
                assert_eq!(
                    counter(&counters, "checker.cache_misses"),
                    report.total_cache_misses(),
                    "{ctx}: cache misses"
                );
                assert_eq!(
                    counter(&counters, "checker.cores_learned"),
                    report.total_cores_learned(),
                    "{ctx}: cores learned"
                );
                assert_eq!(
                    counter(&counters, "checker.schemas_pruned_by_core"),
                    report.total_schemas_pruned_by_core(),
                    "{ctx}: schemas pruned by core"
                );
                for (name, expected) in solver_fields(&report.solver_stats()) {
                    assert_eq!(
                        counter(&counters, name),
                        expected,
                        "{ctx}: {name} must equal the merged report value"
                    );
                }
            }
        }
    }
    assert!(
        cases >= 12,
        "corpus too thin: only {cases} in-fragment runs"
    );
}

/// One sharing-on run on a fresh checker, so the skeleton pass runs on
/// first contact with the automaton. Returns whether the property was
/// in the fragment (and so was checked).
fn reconcile_with_sharing(
    ta: &holistic_verification::ta::ThresholdAutomaton,
    spec: &Ltl,
    justice: &Justice,
    ctx: &str,
) -> bool {
    let checker = checker(true, 1);
    let Some((report, counters)) = measured_run(&checker, ta, spec, justice) else {
        return false;
    };
    // The two core-pruning fields the checker folds back into the
    // report must reconcile exactly.
    assert_eq!(
        counter(&counters, "checker.cores_learned"),
        report.total_cores_learned(),
        "{ctx}: cores learned (skeleton folded into report)"
    );
    assert_eq!(
        counter(&counters, "checker.schemas_pruned_by_core"),
        report.total_schemas_pruned_by_core(),
        "{ctx}: schemas pruned by core (skeleton folded into report)"
    );
    // The skeleton's schemas and cache hits publish but are not folded
    // into the report, so registry ≥ report, never less.
    assert!(
        counter(&counters, "checker.schemas") >= report.total_schemas() as u64,
        "{ctx}: registry schemas must dominate the report"
    );
    assert!(
        counter(&counters, "checker.cache_hits") >= report.total_cache_hits(),
        "{ctx}: registry cache hits must dominate the report"
    );
    // Solver work, skeleton and probes included, is one ledger.
    for (name, expected) in solver_fields(&report.solver_stats()) {
        assert_eq!(
            counter(&counters, name),
            expected,
            "{ctx}: {name} must equal the merged report value"
        );
    }
    true
}

#[test]
fn registry_equals_report_solver_stats_with_sharing() {
    let _guard = OBS_LOCK.lock().unwrap();
    let master = master_seed();
    eprintln!("reconciliation (share=on) under master seed {master}");
    let mut cases = 0;
    for i in 0..6u64 {
        let seed = master.wrapping_add(i);
        let mut rng = StdRng::seed_from_u64(seed);
        let ta = random_ta(&mut rng);
        let justice = Justice::from_rules(&ta);
        for spec in specs(&ta) {
            let ctx = format!("seed {seed}, spec {spec:?}");
            cases += usize::from(reconcile_with_sharing(&ta, &spec, &justice, &ctx));
        }
    }
    assert!(cases >= 6, "corpus too thin: only {cases} in-fragment runs");
    // The random automata are small enough that their skeleton passes
    // and probes may do no solver work; bv-broadcast's Table-2 cells
    // run both (BV-Just0 extracts probe cores).
    let bv = BvBroadcastModel::new();
    let justice = bv.justice();
    for (name, spec) in bv.table2_specs() {
        assert!(
            reconcile_with_sharing(&bv.ta, &spec, &justice, name),
            "{name} must be in the fragment"
        );
    }
}
