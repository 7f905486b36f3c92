//! Exhaustive explicit-state checks of the paper's models at one small
//! valuation each, decided by the oracle.
//!
//! Each test states a model property as an LTL spec and asks
//! [`decide_spec`] for the verdict at a fixed `(n, t, f)`. `Holds`
//! means the oracle exhausted the reachable state space (product
//! states, for safety) without a violation; it never answers `Holds`
//! when its state budget runs out. A property of the reachable
//! configurations is the safety spec `□b`. "Some configuration
//! satisfying `q` is reachable" is the safety spec `□¬q`, which must be
//! `Violated`. A property of the configurations a fair run can stall in
//! (no proper rule enabled, under rule-wise justice) is a liveness
//! spec.

use holistic_ltl::{Justice, Ltl, Prop};
use holistic_models::{
    BvBroadcastModel, NaiveConsensusModel, ReliableBroadcastModel, SimplifiedConsensusModel,
};
use holistic_oracle::{combined_verdict, decide_spec, OracleVerdict};
use holistic_ta::{AtomicGuard, LocationId, ParamExpr, ThresholdAutomaton, VarExpr};

/// The oracle's verdict on `spec` at `params`.
fn decide(
    ta: &ThresholdAutomaton,
    spec: &Ltl,
    justice: &Justice,
    params: &[i64],
    max_states: usize,
) -> OracleVerdict {
    let decisions = decide_spec(ta, spec, justice, params, max_states).expect("checkable spec");
    combined_verdict(&decisions)
}

fn loc(ta: &ThresholdAutomaton, name: &str) -> LocationId {
    ta.location_by_name(name)
        .unwrap_or_else(|| panic!("location {name} exists"))
}

/// `□(κ[D0] = 0 ∨ κ[D1] = 0)`: no configuration holds both decisions.
fn agreement(ta: &ThresholdAutomaton) -> Ltl {
    Ltl::always(Ltl::state(Prop::or([
        Prop::loc_empty(loc(ta, "D0")),
        Prop::loc_empty(loc(ta, "D1")),
    ])))
}

/// BV-Justification at n=4, t=f=1: with nobody proposing 0 (`V0`
/// starts empty), no configuration delivers 0.
#[test]
fn bv_broadcast_justification_holds() {
    let m = BvBroadcastModel::new();
    let verdict = decide(
        &m.ta,
        &m.justification(0),
        &m.justice(),
        &[4, 1, 1],
        500_000,
    );
    assert!(matches!(verdict, OracleVerdict::Holds), "{verdict:?}");
}

/// At n=4, t=f=1 a configuration with everyone delivered is reachable,
/// and every configuration a fair run stalls in has everyone delivered
/// (the state-level content of BV-Term).
#[test]
fn bv_broadcast_termination_reachable() {
    let m = BvBroadcastModel::new();
    let pending = ["V0", "V1", "B0", "B1", "B01"].map(|name| loc(&m.ta, name));
    let justice = Justice::from_rules(&m.ta);
    let never_terminated = Ltl::always(Ltl::state(Prop::any_nonempty(pending)));
    let verdict = decide(&m.ta, &never_terminated, &justice, &[4, 1, 1], 500_000);
    assert!(
        matches!(verdict, OracleVerdict::Violated(_)),
        "termination unreachable: {verdict:?}"
    );
    let verdict = decide(&m.ta, &m.termination(), &justice, &[4, 1, 1], 500_000);
    assert!(
        matches!(verdict, OracleVerdict::Holds),
        "stuck but undelivered: {verdict:?}"
    );
}

/// Agreement of the naive automaton at n=4, t=f=1, over the complete
/// reachable state space.
#[test]
fn naive_consensus_agreement_holds() {
    let m = NaiveConsensusModel::new();
    let verdict = decide(
        &m.ta,
        &agreement(&m.ta),
        &m.justice(),
        &[4, 1, 1],
        2_000_000,
    );
    assert!(matches!(verdict, OracleVerdict::Holds), "{verdict:?}");
}

/// Validity of the naive automaton at n=4, t=f=1: all-zero inputs
/// (`V1` starts empty) never decide 1 nor leave round 2 with estimate 1.
#[test]
fn naive_consensus_validity_holds() {
    let m = NaiveConsensusModel::new();
    let spec = Ltl::implies(
        Ltl::state(Prop::loc_empty(loc(&m.ta, "V1"))),
        Ltl::always(Ltl::state(Prop::all_empty([
            loc(&m.ta, "D1"),
            loc(&m.ta, "E1'"),
        ]))),
    );
    let verdict = decide(&m.ta, &spec, &m.justice(), &[4, 1, 1], 2_000_000);
    assert!(matches!(verdict, OracleVerdict::Holds), "{verdict:?}");
}

/// Agreement of the simplified automaton at n=4, t=f=1.
#[test]
fn simplified_consensus_agreement_holds() {
    let m = SimplifiedConsensusModel::new();
    let verdict = decide(
        &m.ta,
        &agreement(&m.ta),
        &m.justice(),
        &[4, 1, 1],
        2_000_000,
    );
    assert!(matches!(verdict, OracleVerdict::Holds), "{verdict:?}");
}

/// With the weakened resilience n > 2t, disagreement IS reachable (the
/// §6 counterexample), already at n=3, t=f=1.
#[test]
fn simplified_consensus_disagreement_when_resilience_weakened() {
    let m = SimplifiedConsensusModel::with_resilience(2);
    let verdict = decide(
        &m.ta,
        &agreement(&m.ta),
        &m.justice(),
        &[3, 1, 1],
        2_000_000,
    );
    let OracleVerdict::Violated(witness) = verdict else {
        panic!("disagreement must be reachable under n > 2t: {verdict:?}");
    };
    let last = witness.trace.last().expect("non-empty witness");
    assert!(last.counters[loc(&m.ta, "D0").0] > 0 && last.counters[loc(&m.ta, "D1").0] > 0);
}

/// The gadget mirrors Corollary 5 at n=4, t=f=1: deciding 0 needs the
/// round-1 quorum of 0-aux messages, so `D0` is occupied only once
/// `a0 ≥ 1` (state-level Good₀).
#[test]
fn simplified_consensus_good_holds() {
    let m = SimplifiedConsensusModel::new();
    let a0 = m.ta.variable_by_name("a0").expect("shared variable a0");
    let spec = Ltl::always(Ltl::state(Prop::or([
        Prop::loc_empty(loc(&m.ta, "D0")),
        Prop::guard(AtomicGuard::ge(VarExpr::var(a0), ParamExpr::constant(1))),
    ])));
    let verdict = decide(&m.ta, &spec, &m.justice(), &[4, 1, 1], 2_000_000);
    assert!(matches!(verdict, OracleVerdict::Holds), "{verdict:?}");
}

/// Relay of the reliable broadcast at n=4, t=f=1: no configuration a
/// fair run stalls in has `AC` populated and `SE` not drained. The spec
/// also asks `V0` and `V1` to drain, which adds no violation: with `AC`
/// populated, `nsnt ≥ 2t+1−f` enables both of their rules, so a stalled
/// configuration has them empty.
#[test]
fn reliable_broadcast_relay_holds() {
    let m = ReliableBroadcastModel::new();
    let verdict = decide(
        &m.ta,
        &m.relay(),
        &Justice::from_rules(&m.ta),
        &[4, 1, 1],
        200_000,
    );
    assert!(matches!(verdict, OracleVerdict::Holds), "{verdict:?}");
}
