//! End-to-end integration: the paper's headline results, fast subset.
//!
//! The two full-lattice properties (Inv1 and SRoundTerm on the
//! simplified automaton) live in `slow_verification.rs`.

use holistic_verification::checker::{Checker, Verdict};
use holistic_verification::core::HolisticVerification;
use holistic_verification::models::{BvBroadcastModel, SimplifiedConsensusModel};

#[test]
fn bv_broadcast_all_four_properties_verify() {
    let model = BvBroadcastModel::new();
    let checker = Checker::new();
    let justice = model.justice();
    for (name, spec) in model.table2_specs() {
        let report = checker.check_ltl(&model.ta, &spec, &justice).unwrap();
        assert!(
            report.verdict().is_verified(),
            "{name}: {:?}",
            report.verdict()
        );
        assert!(report.total_schemas() > 0);
    }
}

#[test]
fn simplified_consensus_fast_properties_verify() {
    let model = SimplifiedConsensusModel::new();
    let checker = Checker::new();
    let justice = model.justice();
    for (name, spec) in [
        ("Inv2_0", model.inv2(0)),
        ("Inv2_1", model.inv2(1)),
        ("Dec_0", model.dec(0)),
        ("Dec_1", model.dec(1)),
        ("Good_0", model.good(0)),
        ("Good_1", model.good(1)),
    ] {
        let report = checker.check_ltl(&model.ta, &spec, &justice).unwrap();
        assert!(
            report.verdict().is_verified(),
            "{name}: {:?}",
            report.verdict()
        );
    }
}

#[test]
fn weakened_resilience_yields_validated_counterexample() {
    // §6: a counterexample to Inv1_0 exists once n > 3t is weakened.
    let model = SimplifiedConsensusModel::with_resilience(2);
    let checker = Checker::new();
    let report = checker
        .check_ltl(&model.ta, &model.inv1(0), &model.justice())
        .unwrap();
    let verdict = report.verdict();
    let ce = verdict.counterexample().expect("must find a violation");
    // The counterexample is replay-validated; its parameters break
    // n > 3t but satisfy n > 2t.
    let (n, t) = (ce.params[0], ce.params[1]);
    assert!(n > 2 * t && n <= 3 * t, "params {:?}", ce.params);
    // Both decision locations are visited along the trace.
    let d0 = model.ta.location_by_name("D0").unwrap();
    let d1 = model.ta.location_by_name("D1").unwrap();
    assert!(ce.boundaries.iter().any(|c| c.counters[d0.0] > 0));
    assert!(ce.boundaries.iter().any(|c| c.counters[d1.0] > 0));
}

#[test]
fn inner_phase_report_feeds_theorem6() {
    let pipeline = HolisticVerification::new();
    let inner = pipeline.verify_inner().unwrap();
    assert_eq!(inner.len(), 4);
    let names: Vec<&str> = inner.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["BV-Just0", "BV-Obl0", "BV-Unif0", "BV-Term"]);
    assert!(inner.iter().all(|r| r.verdict.is_verified()));
}

#[test]
fn bv_justification_for_value_one_also_verifies() {
    // The paper benchmarks v = 0; symmetry says v = 1 holds too — check
    // it rather than assume it.
    let model = BvBroadcastModel::new();
    let checker = Checker::new();
    let justice = model.justice();
    for spec in [
        model.justification(1),
        model.obligation(1),
        model.uniformity(1),
    ] {
        let report = checker.check_ltl(&model.ta, &spec, &justice).unwrap();
        assert!(report.verdict().is_verified());
    }
}

#[test]
fn bv_broadcast_can_deliver_one() {
    // A deliberately false property: the bv-broadcast *can* deliver 1
    // when someone proposes it, so □(κ[C1]=0) with both inputs allowed
    // is violated.
    use holistic_verification::ltl::{Ltl, Prop};
    let model = BvBroadcastModel::new();
    let c1 = model.ta.location_by_name("C1").unwrap();
    let spec = Ltl::always(Ltl::state(Prop::loc_empty(c1)));
    let report = Checker::new()
        .check_ltl(&model.ta, &spec, &model.justice())
        .unwrap();
    let verdict = report.verdict();
    let ce = verdict
        .counterexample()
        .expect("□(κ[C1]=0) must be violated");
    // The replay validated the counterexample; it must reach C1.
    assert!(
        ce.boundaries.iter().any(|c| c.counters[c1.0] > 0),
        "counterexample must visit C1"
    );
}

#[test]
fn broken_model_is_caught_not_misverified() {
    // Sanity: a deliberately broken bv-broadcast (delivery after t+1
    // instead of 2t+1) must violate justification-style reasoning
    // downstream. Here: BV-Just still holds (justification is about
    // broadcasts, not thresholds), but agreement-style counting breaks:
    // we check that the checker *finds* the broken-threshold violation
    // of uniformity rather than reporting Verified.
    use holistic_verification::ta::parse_ta;
    let src = r#"
        automaton broken_bv {
            params n, t, f;
            shared b0, b1;
            resilience n > 3t, t >= f, f >= 0;
            processes n - f;
            initial V0, V1;
            locations B0, B1;
            final C0, C1;
            rule r1: V0 -> B0 when true do b0 += 1;
            rule r2: V1 -> B1 when true do b1 += 1;
            // BROKEN: deliver after only t+1-f correct copies.
            rule r3: B0 -> C0 when b0 >= t + 1 - f;
            rule r4: B1 -> C1 when b1 >= t + 1 - f;
            selfloop C0, C1;
        }
    "#;
    let ta = parse_ta(src).unwrap();
    use holistic_verification::ltl::{Justice, Ltl, Prop};
    // "Uniformity-like": if someone delivers 0, eventually nobody is
    // still stuck in B1 with... simpler: termination-style check that
    // everyone delivers — which FAILS for this automaton because a
    // process whose value never reaches t+1-f copies stays in B0/B1.
    let pending = ["V0", "V1", "B0", "B1"]
        .iter()
        .map(|l| ta.location_by_name(l).unwrap())
        .collect::<Vec<_>>();
    let spec = Ltl::eventually(Ltl::state(Prop::all_empty(pending)));
    let checker = Checker::new();
    let report = checker
        .check_ltl(&ta, &spec, &Justice::from_rules(&ta))
        .unwrap();
    match report.verdict() {
        Verdict::Violated(ce) => {
            // Concrete stuck run found and replayed.
            assert!(!ce.params.is_empty());
        }
        other => panic!("broken broadcast must not terminate: {other:?}"),
    }
}
