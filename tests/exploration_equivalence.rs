//! Equivalence of the cross-property exploration cache with the
//! independent per-property DFS.
//!
//! `CheckerConfig::share_exploration = true` (the default) prunes the
//! schedule lattice against recordings made by earlier properties of
//! the same automaton; `false` restores the old fully
//! independent DFS. The two must be **observably identical** — same
//! verdicts (byte-for-byte, including counterexamples), same schema
//! counts, same average schema lengths — on every automaton of the
//! paper's Table 2. Both sides run with `threads = Some(1)` so the
//! exploration order is byte-deterministic.

use holistic_checker::{CheckReport, Checker, CheckerConfig, MatrixJob};
use holistic_ltl::{Justice, Ltl};
use holistic_models::{BvBroadcastModel, NaiveConsensusModel, SimplifiedConsensusModel};
use holistic_ta::ThresholdAutomaton;

/// The workspace-wide slow-test gate (same convention as
/// `tests/slow_verification.rs`): run only under `HOLISTIC_SLOW=1`.
fn skip_slow(name: &str) -> bool {
    if std::env::var("HOLISTIC_SLOW").as_deref() == Ok("1") {
        return false;
    }
    eprintln!("{name}: skipped (slow test); set HOLISTIC_SLOW=1 to run");
    true
}

fn checker(share: bool, max_schemas: usize) -> Checker {
    Checker::with_config(CheckerConfig {
        share_exploration: share,
        threads: Some(1),
        max_schemas,
        ..CheckerConfig::default()
    })
}

/// Runs every property through both checkers (one shared cache across
/// the whole sequence — the point of the exercise) and asserts the
/// reports are observably identical.
fn assert_equivalent(
    ta: &ThresholdAutomaton,
    specs: &[(&'static str, Ltl)],
    justice: &Justice,
    max_schemas: usize,
) -> Vec<(CheckReport, CheckReport)> {
    let shared = checker(true, max_schemas);
    let independent = checker(false, max_schemas);
    let mut reports = Vec::new();
    for (name, spec) in specs {
        let with_cache = shared.check_ltl(ta, spec, justice).expect("in fragment");
        let without = independent
            .check_ltl(ta, spec, justice)
            .expect("in fragment");
        assert_eq!(
            format!("{:?}", with_cache.verdict()),
            format!("{:?}", without.verdict()),
            "{name}: verdicts (incl. counterexamples) must be byte-identical"
        );
        assert_eq!(
            with_cache.total_schemas(),
            without.total_schemas(),
            "{name}: schema counts must match"
        );
        assert_eq!(
            with_cache.avg_segments(),
            without.avg_segments(),
            "{name}: average schema length must match"
        );
        assert_eq!(
            with_cache.queries.len(),
            without.queries.len(),
            "{name}: query decomposition must match"
        );
        for (q_cache, q_plain) in with_cache.queries.iter().zip(&without.queries) {
            assert_eq!(
                q_cache.stats.schemas, q_plain.stats.schemas,
                "{name}: per-query schema counts must match"
            );
            assert_eq!(
                format!("{:?}", q_cache.verdict),
                format!("{:?}", q_plain.verdict),
                "{name}: per-query verdicts (a schema cap included) must match"
            );
        }
        reports.push((with_cache, without));
    }
    reports
}

#[test]
fn bv_broadcast_cached_equals_independent() {
    let model = BvBroadcastModel::new();
    let justice = model.justice();
    let reports = assert_equivalent(&model.ta, &model.table2_specs(), &justice, 100_000);
    // Every property after the first must have touched the cache.
    for ((with_cache, _), (name, _)) in reports.iter().zip(model.table2_specs()).skip(1) {
        assert!(
            with_cache.total_cache_hits() > 0,
            "{name}: expected cache hits after the first property"
        );
    }
}

#[test]
fn simplified_consensus_cached_equals_independent() {
    // Runs Inv1_0 and SRoundTerm both cached and uncached — the
    // workspace's longest test by far.
    if skip_slow("simplified_consensus_cached_equals_independent") {
        return;
    }
    let model = SimplifiedConsensusModel::new();
    let justice = model.justice();
    let reports = assert_equivalent(&model.ta, &model.table2_specs(), &justice, 100_000);
    for ((with_cache, _), (name, _)) in reports.iter().zip(model.table2_specs()).skip(1) {
        assert!(
            with_cache.total_cache_hits() > 0,
            "{name}: expected cache hits after the first property"
        );
    }
}

#[test]
fn naive_capped_cached_equals_independent() {
    // The naive automaton blows through any practical cap (Table 2's
    // ">100 000 schemas, timeout" rows); equivalence must hold for the
    // capped Unknown verdicts too, with the cap firing at the same
    // schema count on both sides.
    let model = NaiveConsensusModel::new();
    let justice = model.justice();
    assert_equivalent(&model.ta, &model.table2_specs(), &justice, 40);
}

#[test]
fn naive_schema_cap_holds_across_workers() {
    // Two workers race for the last schema slots; each reserves its slot
    // before counting a schema, so the count never overshoots the cap.
    let model = NaiveConsensusModel::new();
    let justice = model.justice();
    let (name, spec) = &model.table2_specs()[0];
    assert_eq!(*name, "Inv1_0");
    let cap = 40;
    let checker = Checker::with_config(CheckerConfig {
        threads: Some(2),
        max_schemas: cap,
        ..CheckerConfig::default()
    });
    for run in 0..3 {
        let report = checker
            .check_ltl(&model.ta, spec, &justice)
            .expect("in fragment");
        assert!(
            report.total_schemas() <= cap,
            "run {run}: {} schemas past the cap of {cap}",
            report.total_schemas()
        );
    }
}

#[test]
fn work_stealing_pool_matches_single_thread() {
    // The parallel DFS (work-stealing frontier, donation on idle) must
    // produce the same verdicts and schema counts as the inline
    // single-threaded walk — schema *count* is scheduling-independent
    // because exploration always completes the feasible frontier.
    let model = BvBroadcastModel::new();
    let justice = model.justice();
    for share in [true, false] {
        let pooled = Checker::with_config(CheckerConfig {
            share_exploration: share,
            threads: Some(4),
            ..CheckerConfig::default()
        });
        let inline = Checker::with_config(CheckerConfig {
            share_exploration: share,
            threads: Some(1),
            ..CheckerConfig::default()
        });
        for (name, spec) in model.table2_specs() {
            let par = pooled
                .check_ltl(&model.ta, &spec, &justice)
                .expect("in fragment");
            let seq = inline
                .check_ltl(&model.ta, &spec, &justice)
                .expect("in fragment");
            assert_eq!(
                format!("{:?}", par.verdict()),
                format!("{:?}", seq.verdict()),
                "{name} (share={share}): pooled verdict must match inline"
            );
            assert_eq!(
                par.total_schemas(),
                seq.total_schemas(),
                "{name} (share={share}): pooled schema count must match inline"
            );
            assert!(par.queries.iter().all(|q| q.stats.threads == 4), "{name}");
        }
    }
}

#[test]
fn matrix_scheduler_matches_inline_walk() {
    // The cross-property matrix scheduler (4 workers pulling whole
    // properties off a shared queue, lock-striped exploration cache)
    // must produce the same verdicts, schema counts, and average
    // schema lengths as the inline deterministic walk, in the same
    // order — results are cache-independent, so property-level
    // scheduling can only change wall time and hit counters.
    let bv = BvBroadcastModel::new();
    let bv_justice = bv.justice();
    let sc = SimplifiedConsensusModel::new();
    let sc_justice = sc.justice();
    let bv_specs = bv.table2_specs();
    let sc_specs = sc.table2_specs();
    let mut jobs: Vec<MatrixJob<'_>> = Vec::new();
    let mut names: Vec<&'static str> = Vec::new();
    for (name, spec) in &bv_specs {
        names.push(name);
        jobs.push(MatrixJob {
            ta: &bv.ta,
            spec,
            justice: &bv_justice,
            label: name,
        });
    }
    for (name, spec) in &sc_specs {
        names.push(name);
        jobs.push(MatrixJob {
            ta: &sc.ta,
            spec,
            justice: &sc_justice,
            label: name,
        });
    }
    let concurrent: Vec<CheckReport> = checker(true, 100_000)
        .check_matrix(&jobs, 4)
        .into_iter()
        .map(|r| r.expect("in fragment"))
        .collect();
    let sequential: Vec<CheckReport> = checker(true, 100_000)
        .check_matrix(&jobs, 1)
        .into_iter()
        .map(|r| r.expect("in fragment"))
        .collect();
    assert_eq!(concurrent.len(), jobs.len(), "one report per job, in order");
    for ((name, par), seq) in names.iter().zip(&concurrent).zip(&sequential) {
        assert_eq!(
            format!("{:?}", par.verdict()),
            format!("{:?}", seq.verdict()),
            "{name}: matrix verdict (incl. counterexamples) must match inline"
        );
        assert_eq!(
            par.total_schemas(),
            seq.total_schemas(),
            "{name}: matrix schema count must match inline"
        );
        assert_eq!(
            par.avg_segments(),
            seq.avg_segments(),
            "{name}: matrix average schema length must match inline"
        );
    }
}

#[test]
fn matrix_scheduler_finds_identical_counterexamples() {
    // A violated property through the matrix scheduler must replay the
    // exact counterexample the inline walk finds.
    let model = SimplifiedConsensusModel::with_resilience(2);
    let justice = model.justice();
    let spec = model.inv1(0);
    let jobs = [
        MatrixJob {
            ta: &model.ta,
            spec: &spec,
            justice: &justice,
            label: "Inv1_0",
        },
        MatrixJob {
            ta: &model.ta,
            spec: &spec,
            justice: &justice,
            label: "Inv1_0",
        },
    ];
    let reports: Vec<CheckReport> = checker(true, 100_000)
        .check_matrix(&jobs, 2)
        .into_iter()
        .map(|r| r.expect("in fragment"))
        .collect();
    let inline = checker(true, 100_000)
        .check_ltl(&model.ta, &spec, &justice)
        .expect("in fragment");
    assert!(inline.verdict().is_violated(), "Inv1_0 under n > 2t");
    for par in &reports {
        assert_eq!(
            format!("{:?}", par.verdict()),
            format!("{:?}", inline.verdict()),
            "matrix counterexample must be byte-identical to inline"
        );
    }
}

#[test]
fn violation_counterexamples_are_identical() {
    // Weakened resilience n > 2t: Inv1_0 is violated. The cached and
    // independent explorations must find (and replay) the *same*
    // counterexample.
    let model = SimplifiedConsensusModel::with_resilience(2);
    let justice = model.justice();
    let shared = checker(true, 100_000);
    let independent = checker(false, 100_000);
    let spec = model.inv1(0);
    let with_cache = shared
        .check_ltl(&model.ta, &spec, &justice)
        .expect("in fragment");
    let without = independent
        .check_ltl(&model.ta, &spec, &justice)
        .expect("in fragment");
    assert!(with_cache.verdict().is_violated(), "Inv1_0 under n > 2t");
    assert_eq!(
        format!("{:?}", with_cache.verdict()),
        format!("{:?}", without.verdict()),
        "counterexamples must be byte-identical"
    );
}

/// Runs every property with Farkas-core pruning on and off and asserts
/// the reports are observably identical — pruning is licensed only by
/// UNSAT certificates, so it must never change a verdict, a schema
/// count, or a counterexample, only the SMT work spent getting there.
fn assert_core_pruning_inert(
    ta: &ThresholdAutomaton,
    specs: &[(&'static str, Ltl)],
    justice: &Justice,
) -> u64 {
    let pruning = checker(true, 100_000);
    let plain = Checker::with_config(CheckerConfig {
        share_exploration: true,
        threads: Some(1),
        max_schemas: 100_000,
        core_pruning: false,
        ..CheckerConfig::default()
    });
    let mut pruned_total = 0;
    for (name, spec) in specs {
        let with_cores = pruning.check_ltl(ta, spec, justice).expect("in fragment");
        let without = plain.check_ltl(ta, spec, justice).expect("in fragment");
        assert_eq!(
            format!("{:?}", with_cores.verdict()),
            format!("{:?}", without.verdict()),
            "{name}: verdicts (incl. counterexamples) must be byte-identical \
             with core pruning on vs off"
        );
        assert_eq!(
            with_cores.total_schemas(),
            without.total_schemas(),
            "{name}: core pruning must not change the schema count"
        );
        assert_eq!(
            with_cores.avg_segments(),
            without.avg_segments(),
            "{name}: core pruning must not change average schema length"
        );
        assert_eq!(
            without.total_cores_learned(),
            0,
            "{name}: the disabled side must not learn cores"
        );
        pruned_total += with_cores.total_schemas_pruned_by_core();
    }
    pruned_total
}

#[test]
fn core_pruning_is_inert_on_bv_broadcast() {
    let model = BvBroadcastModel::new();
    let justice = model.justice();
    let pruned = assert_core_pruning_inert(&model.ta, &model.table2_specs(), &justice);
    assert!(
        pruned > 0,
        "bv-broadcast must actually exercise core pruning"
    );
}

#[test]
fn core_pruning_is_inert_on_simplified_consensus() {
    if skip_slow("core_pruning_is_inert_on_simplified_consensus") {
        return;
    }
    let model = SimplifiedConsensusModel::new();
    let justice = model.justice();
    let pruned = assert_core_pruning_inert(&model.ta, &model.table2_specs(), &justice);
    assert!(
        pruned > 0,
        "simplified consensus must actually exercise core pruning"
    );
}

#[test]
fn core_pruning_preserves_counterexamples() {
    // Weakened resilience n > 2t: Inv1_0 is violated. The pruned and
    // unpruned explorations must find (and replay) the *same*
    // counterexample — a pattern that swallowed the violating schema
    // would surface here as a verdict flip.
    let model = SimplifiedConsensusModel::with_resilience(2);
    let justice = model.justice();
    let spec = model.inv1(0);
    let pruned = checker(true, 100_000)
        .check_ltl(&model.ta, &spec, &justice)
        .expect("in fragment");
    let plain = Checker::with_config(CheckerConfig {
        threads: Some(1),
        core_pruning: false,
        ..CheckerConfig::default()
    });
    let unpruned = plain
        .check_ltl(&model.ta, &spec, &justice)
        .expect("in fragment");
    assert!(pruned.verdict().is_violated(), "Inv1_0 under n > 2t");
    assert_eq!(
        format!("{:?}", pruned.verdict()),
        format!("{:?}", unpruned.verdict()),
        "counterexamples must be byte-identical with core pruning on vs off"
    );
}

#[test]
fn tracing_is_verdict_inert() {
    // Enabling the observability layer must be invisible to the
    // checker: spans and counters are recorded on the side, so verdicts
    // (including counterexamples), schema counts, and average schema
    // lengths must be byte-identical with tracing on and off. Runs the
    // full bv-broadcast block plus a violated property so both verdict
    // polarities are covered.
    struct DisableOnDrop;
    impl Drop for DisableOnDrop {
        fn drop(&mut self) {
            holistic_obs::set_enabled(false);
            holistic_obs::reset();
        }
    }
    let _guard = DisableOnDrop;

    let bv = BvBroadcastModel::new();
    let bv_justice = bv.justice();
    let weakened = SimplifiedConsensusModel::with_resilience(2);
    let weakened_justice = weakened.justice();
    let inv1 = weakened.inv1(0);

    let run = || -> Vec<String> {
        let shared = checker(true, 100_000);
        let mut out = Vec::new();
        for (name, spec) in bv.table2_specs() {
            let report = shared
                .check_ltl(&bv.ta, &spec, &bv_justice)
                .expect("in fragment");
            out.push(format!(
                "{name}: {:?} schemas={} avg={} queries={}",
                report.verdict(),
                report.total_schemas(),
                report.avg_segments(),
                report.queries.len(),
            ));
        }
        let violated = checker(true, 100_000)
            .check_ltl(&weakened.ta, &inv1, &weakened_justice)
            .expect("in fragment");
        assert!(violated.verdict().is_violated(), "Inv1_0 under n > 2t");
        out.push(format!("Inv1_0-weak: {:?}", violated.verdict()));
        out
    };

    holistic_obs::set_enabled(false);
    let silent = run();

    holistic_obs::reset();
    holistic_obs::set_enabled(true);
    let traced = run();
    holistic_obs::flush();
    let snapshot = holistic_obs::drain();

    assert_eq!(
        silent, traced,
        "tracing must be verdict-inert: every report byte-identical"
    );
    assert!(
        !snapshot.spans.is_empty(),
        "the traced run must actually record spans"
    );
    assert!(
        holistic_obs::counter_value("checker.schemas") > 0
            || snapshot
                .counters
                .iter()
                .any(|(n, v)| n == "checker.schemas" && *v > 0),
        "the traced run must actually publish counters"
    );
}

#[test]
fn second_property_hits_the_cache() {
    // The cheap pair from the simplified-consensus block: after Inv2_0
    // has populated the cache, Dec_0's exploration must be answered (at
    // least partially) from it — nonzero hit counters, and a hit rate
    // the stats actually expose.
    let model = SimplifiedConsensusModel::new();
    let justice = model.justice();
    let shared = checker(true, 100_000);
    let specs = model.table2_specs();
    let (_, inv2) = &specs[1]; // Inv2_0
    let (_, dec) = &specs[4]; // Dec_0
    let first = shared
        .check_ltl(&model.ta, inv2, &justice)
        .expect("in fragment");
    assert!(first.verdict().is_verified());
    let second = shared
        .check_ltl(&model.ta, dec, &justice)
        .expect("in fragment");
    assert!(second.verdict().is_verified());
    assert!(
        second.total_cache_hits() > 0,
        "second property of a run must hit the exploration cache \
         (got {} hits / {} misses)",
        second.total_cache_hits(),
        second.total_cache_misses(),
    );
    assert!(shared.cached_explorations() > 0);

    // Equal keys: BV-Obl0's base encoding equals one BV-Just0 recorded,
    // so the pruner answers every chain in both directions and the
    // second property runs no feasibility check at all.
    let bv = BvBroadcastModel::new();
    let bv_justice = bv.justice();
    let shared = checker(true, 100_000);
    let specs = bv.table2_specs();
    let (_, just) = &specs[0]; // BV-Just0
    let (_, obl) = &specs[1]; // BV-Obl0
    let first = shared
        .check_ltl(&bv.ta, just, &bv_justice)
        .expect("in fragment");
    assert!(first.verdict().is_verified());
    let second = shared
        .check_ltl(&bv.ta, obl, &bv_justice)
        .expect("in fragment");
    assert!(second.verdict().is_verified());
    assert!(second.total_cache_hits() > 0);
    assert_eq!(
        second.total_cache_misses(),
        0,
        "an equal-key recording must decide every chain"
    );
}
