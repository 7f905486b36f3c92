//! Cross-validation of the symbolic checker against the explicit-state
//! oracle (`holistic-oracle`) on randomly generated threshold automata.
//!
//! For each random DAG automaton we ask two questions both ways:
//!
//! * **safety** — `□(κ[target] = 0)`: the checker's verdict must agree
//!   with the oracle's exhaustive reachability at several concrete
//!   parameter valuations (checker-Verified ⟹ unreachable everywhere;
//!   concretely-reachable ⟹ checker-Violated);
//! * **liveness** — `♢(κ[target] ≠ 0)` under rule-wise justice: a
//!   violation is exactly a reachable configuration with no proper rule
//!   enabled and the target empty, which the oracle decides by
//!   exhaustive search.
//!
//! Every checker counterexample must also be a concrete violation: the
//! oracle must decide `Violated` at the counterexample's own parameters.
//!
//! This exercises the whole stack — guard analysis, schedule DFS,
//! encoding, LIA solver, replay — against an independent ground truth.
//!
//! # Seed handling
//!
//! Every per-case RNG seed derives from **one master seed** as
//! `master + case_index` (safety cases 0..40, liveness cases 100..130).
//! The default master seed is [`DEFAULT_MASTER_SEED`]; override it with
//! the `HOLISTIC_MASTER_SEED` environment variable to sweep a different
//! corpus:
//!
//! ```sh
//! HOLISTIC_MASTER_SEED=12345 cargo test --test cross_validation
//! ```
//!
//! Every failure message prints the *derived* per-case seed, and the
//! generator ([`holistic_verification::mutate::generator::random_ta`])
//! guarantees stable RNG consumption order, so re-running with the same
//! `HOLISTIC_MASTER_SEED` reproduces the exact failing automaton.

use holistic_oracle::{combined_verdict, decide_spec, OracleVerdict};
use holistic_verification::checker::{Checker, Verdict};
use holistic_verification::ltl::{Justice, Ltl, Prop};
use holistic_verification::mutate::generator::random_ta;
use holistic_verification::ta::ThresholdAutomaton;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The documented default master seed. All committed expectations (the
/// sample exercises both Verified and Violated outcomes) hold for this
/// corpus; sweeping other masters is for bug hunting, not CI.
const DEFAULT_MASTER_SEED: u64 = 0;

/// The master seed: `HOLISTIC_MASTER_SEED` if set, else
/// [`DEFAULT_MASTER_SEED`].
fn master_seed() -> u64 {
    match std::env::var("HOLISTIC_MASTER_SEED") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("HOLISTIC_MASTER_SEED must be a u64, got {v:?}")),
        Err(_) => DEFAULT_MASTER_SEED,
    }
}

/// Derives the per-case seeds for `indices` from the master seed and
/// announces the master so a failing run is reproducible from the log.
fn case_seeds(indices: std::ops::Range<u64>) -> Vec<u64> {
    let master = master_seed();
    eprintln!(
        "cross-validation cases {indices:?} under master seed {master} \
         (override with HOLISTIC_MASTER_SEED)"
    );
    indices.map(|i| master.wrapping_add(i)).collect()
}

/// Concrete parameter valuations satisfying `n > 3f`.
const GRID: [[i64; 2]; 4] = [[2, 0], [3, 0], [4, 1], [5, 1]];

/// The oracle's state budget per decision; every case fits it.
const MAX_STATES: usize = 300_000;

/// Checks the checker's `verdict` on `spec` against the oracle: at
/// every valuation of [`GRID`], and at the counterexample's own
/// parameters when the verdict is `Violated`.
fn agrees_with_oracle(
    seed: u64,
    ta: &ThresholdAutomaton,
    spec: &Ltl,
    justice: &Justice,
    verdict: &Verdict,
) {
    let oracle = |params: &[i64]| {
        let decisions = decide_spec(ta, spec, justice, params, MAX_STATES)
            .unwrap_or_else(|e| panic!("failing seed {seed}: oracle at {params:?}: {e}"));
        combined_verdict(&decisions)
    };
    for params in GRID {
        match (verdict, oracle(&params)) {
            (_, OracleVerdict::Unknown(r)) => {
                panic!("failing seed {seed}: oracle Unknown at {params:?}: {r}")
            }
            (Verdict::Verified, OracleVerdict::Violated(w)) => panic!(
                "failing seed {seed}: checker Verified but the oracle finds a {} violation \
                 at {params:?}",
                w.kind
            ),
            (Verdict::Violated(_), _) | (Verdict::Verified, OracleVerdict::Holds) => {}
            (Verdict::Unknown(r), _) => panic!("failing seed {seed}: unexpected Unknown: {r}"),
        }
    }
    if let Verdict::Violated(ce) = verdict {
        let at_ce = oracle(&ce.params);
        assert!(
            matches!(at_ce, OracleVerdict::Violated(_)),
            "failing seed {seed}: checker counterexample at {:?}, but the oracle says {}",
            ce.params,
            at_ce.label()
        );
    }
}

/// Asserts that a default-seed sample exercised both outcomes, or the
/// comparison is vacuous. (A swept corpus may not.)
fn assert_both_outcomes(what: &str, violations: usize, verifications: usize) {
    eprintln!("{what}: {violations} violations, {verifications} verifications");
    if master_seed() == DEFAULT_MASTER_SEED {
        assert!(violations > 0, "no {what} violations sampled");
        assert!(verifications > 0, "no {what} verifications sampled");
    }
}

#[test]
fn safety_agrees_with_explicit_reachability() {
    let checker = Checker::new();
    let mut violations = 0;
    let mut verifications = 0;
    for seed in case_seeds(0..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ta = random_ta(&mut rng);
        let target = *ta.final_locations().last().unwrap();
        let spec = Ltl::always(Ltl::state(Prop::loc_empty(target)));
        let justice = Justice::from_rules(&ta);
        let verdict = checker
            .check_ltl(&ta, &spec, &justice)
            .unwrap_or_else(|e| panic!("failing seed {seed}: {e}"))
            .verdict();
        agrees_with_oracle(seed, &ta, &spec, &justice, &verdict);
        match &verdict {
            // Violations must come with consistent witness parameters.
            Verdict::Violated(ce) => {
                violations += 1;
                assert!(
                    ce.params[0] > 3 * ce.params[1],
                    "failing seed {seed}: {:?}",
                    ce.params
                );
                assert!(
                    ce.boundaries.iter().any(|c| c.counters[target.0] > 0),
                    "failing seed {seed}: counterexample never visits the target"
                );
            }
            Verdict::Verified => verifications += 1,
            Verdict::Unknown(_) => {}
        }
    }
    assert_both_outcomes("safety", violations, verifications);
}

#[test]
fn liveness_agrees_with_explicit_stuck_analysis() {
    let checker = Checker::new();
    let mut violations = 0;
    let mut verifications = 0;
    for seed in case_seeds(100..130) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ta = random_ta(&mut rng);
        let target = *ta.final_locations().last().unwrap();
        // ♢(κ[target] ≠ 0): needs target non-emptiness to be stable;
        // skip generated automata where the analysis cannot prove it
        // (possible when the "final" location grew an outgoing edge).
        let spec = Ltl::eventually(Ltl::state(Prop::loc_nonempty(target)));
        let justice = Justice::from_rules(&ta);
        let Ok(report) = checker.check_ltl(&ta, &spec, &justice) else {
            continue; // outside fragment for this sample
        };
        let verdict = report.verdict();
        agrees_with_oracle(seed, &ta, &spec, &justice, &verdict);
        match verdict {
            Verdict::Violated(_) => violations += 1,
            Verdict::Verified => verifications += 1,
            Verdict::Unknown(_) => {}
        }
    }
    assert_both_outcomes("liveness", violations, verifications);
}

#[test]
fn safety_violations_exist_in_the_sample() {
    // Guard against a generator that only produces unreachable targets,
    // independently of the oracle comparison above.
    let checker = Checker::new();
    let mut violations = 0;
    let mut verifications = 0;
    for seed in case_seeds(0..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ta = random_ta(&mut rng);
        let target = *ta.final_locations().last().unwrap();
        let spec = Ltl::always(Ltl::state(Prop::loc_empty(target)));
        match checker
            .check_ltl(&ta, &spec, &Justice::from_rules(&ta))
            .unwrap_or_else(|e| panic!("failing seed {seed}: {e}"))
            .verdict()
        {
            Verdict::Violated(_) => violations += 1,
            Verdict::Verified => verifications += 1,
            Verdict::Unknown(_) => {}
        }
    }
    assert_both_outcomes("safety sample", violations, verifications);
}
