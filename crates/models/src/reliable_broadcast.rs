//! Asynchronous Byzantine reliable broadcast (Srikanth & Toueg's
//! authenticated-broadcast simulation, the classic ByMC benchmark).
//!
//! The paper's related work (§7) points at the reliable broadcast as
//! the canonical component that explicit-state and parameterized model
//! checkers cut their teeth on ([33] in the paper); it is also the
//! ancestor of the bv-broadcast. We include it both as an additional
//! verified model and as a fast regression automaton for the checker:
//! only 2 unique guards, so the full schedule lattice is tiny.
//!
//! One (possibly Byzantine) sender INITs a message; correct processes
//! echo it, amplify echoes seen from `t+1` distinct processes, and
//! *accept* after `2t+1` distinct echoes:
//!
//! * `V1` — received INIT, will echo;
//! * `V0` — did not receive INIT (a Byzantine sender may equivocate);
//! * `SE` — echoed, waiting to accept;
//! * `AC` — accepted.

use holistic_ltl::{Justice, Ltl, Prop};
use holistic_ta::{
    AtomicGuard, Guard, LocationId, ParamExpr, TaBuilder, ThresholdAutomaton, VarExpr,
};

/// The reliable broadcast automaton plus its specifications.
#[derive(Clone, Debug)]
pub struct ReliableBroadcastModel {
    /// The threshold automaton (4 locations, 2 unique guards).
    pub ta: ThresholdAutomaton,
}

impl Default for ReliableBroadcastModel {
    fn default() -> Self {
        Self::new()
    }
}

impl ReliableBroadcastModel {
    /// Builds the automaton under `n > 3t ∧ t ≥ f ≥ 0`.
    pub fn new() -> ReliableBroadcastModel {
        let mut b = TaBuilder::new("reliable_broadcast");
        let n = b.param("n");
        let t = b.param("t");
        let f = b.param("f");
        b.resilience_gt(n, t, 3);
        b.resilience_ge(t, f);
        b.resilience_ge_const(f, 0);
        b.size_n_minus_f(n, f);

        let nsnt = b.shared("nsnt");
        let v0 = b.initial_location("V0");
        let v1 = b.initial_location("V1");
        let se = b.location("SE");
        let ac = b.final_location("AC");

        let mut low = ParamExpr::param(t); // t + 1 - f
        low.add_constant(1);
        low.add_term(f, -1);
        let mut high = ParamExpr::term(t, 2); // 2t + 1 - f
        high.add_constant(1);
        high.add_term(f, -1);

        // Received INIT: echo unconditionally.
        b.rule("r1", v1, se, Guard::always()).inc(nsnt, 1);
        // Amplification: echo after t+1 distinct echoes.
        b.rule(
            "r2",
            v0,
            se,
            Guard::atom(AtomicGuard::ge(VarExpr::var(nsnt), low)),
        )
        .inc(nsnt, 1);
        // Accept after 2t+1 distinct echoes.
        b.rule(
            "r3",
            se,
            ac,
            Guard::atom(AtomicGuard::ge(VarExpr::var(nsnt), high)),
        );
        b.self_loop(se);
        b.self_loop(ac);

        ReliableBroadcastModel {
            ta: b.build().expect("reliable broadcast model is valid"),
        }
    }

    fn loc(&self, name: &str) -> LocationId {
        self.ta.location_by_name(name).expect("location exists")
    }

    /// **Unforgeability**: if no correct process received INIT, no
    /// correct process ever accepts.
    pub fn unforgeability(&self) -> Ltl {
        Ltl::implies(
            Ltl::state(Prop::loc_empty(self.loc("V1"))),
            Ltl::always(Ltl::state(Prop::loc_empty(self.loc("AC")))),
        )
    }

    /// **Correctness**: if every correct process received INIT, every
    /// correct process eventually accepts.
    pub fn correctness(&self) -> Ltl {
        let pending = [self.loc("V0"), self.loc("V1"), self.loc("SE")];
        Ltl::implies(
            Ltl::state(Prop::loc_empty(self.loc("V0"))),
            Ltl::eventually(Ltl::state(Prop::all_empty(pending))),
        )
    }

    /// **Relay**: if some correct process accepts, every correct
    /// process eventually accepts.
    pub fn relay(&self) -> Ltl {
        let pending = [self.loc("V0"), self.loc("V1"), self.loc("SE")];
        Ltl::implies(
            Ltl::eventually(Ltl::state(Prop::loc_nonempty(self.loc("AC")))),
            Ltl::eventually(Ltl::state(Prop::all_empty(pending))),
        )
    }

    /// Rule-wise reliable-communication justice.
    pub fn justice(&self) -> Justice {
        Justice::from_rules(&self.ta)
    }

    /// All three properties, named.
    pub fn all_specs(&self) -> Vec<(&'static str, Ltl)> {
        vec![
            ("Unforgeability", self.unforgeability()),
            ("Correctness", self.correctness()),
            ("Relay", self.relay()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_checker::Checker;

    #[test]
    fn automaton_shape() {
        let m = ReliableBroadcastModel::new();
        assert_eq!(m.ta.size_summary(), (2, 4, 5));
        assert!(m.ta.is_dag());
    }

    #[test]
    fn all_three_properties_verify() {
        let m = ReliableBroadcastModel::new();
        let checker = Checker::new();
        let justice = m.justice();
        for (name, spec) in m.all_specs() {
            let report = checker.check_ltl(&m.ta, &spec, &justice).unwrap();
            assert!(
                report.verdict().is_verified(),
                "{name}: {:?}",
                report.verdict()
            );
        }
    }

    #[test]
    fn broken_amplification_threshold_is_caught() {
        // Lower the amplification threshold to 1 (i.e. `f` Byzantine
        // echoes alone could trigger it): unforgeability breaks.
        let mut b = TaBuilder::new("broken_rb");
        let n = b.param("n");
        let t = b.param("t");
        let f = b.param("f");
        b.resilience_gt(n, t, 3);
        b.resilience_ge(t, f);
        b.resilience_ge_const(f, 0);
        b.size_n_minus_f(n, f);
        let nsnt = b.shared("nsnt");
        let v0 = b.initial_location("V0");
        let v1 = b.initial_location("V1");
        let se = b.location("SE");
        let ac = b.final_location("AC");
        b.rule("r1", v1, se, Guard::always()).inc(nsnt, 1);
        // BROKEN: t+1-f should be the threshold; f Byzantine echoes can
        // fake `nsnt >= 1 - f + f`, modelled by threshold 1-f... which
        // over correct counters is `nsnt >= 1 - f`.
        let mut broken = ParamExpr::constant(1);
        broken.add_term(f, -1);
        b.rule(
            "r2",
            v0,
            se,
            Guard::atom(AtomicGuard::ge(VarExpr::var(nsnt), broken)),
        )
        .inc(nsnt, 1);
        let mut high = ParamExpr::term(t, 2);
        high.add_constant(1);
        high.add_term(f, -1);
        b.rule(
            "r3",
            se,
            ac,
            Guard::atom(AtomicGuard::ge(VarExpr::var(nsnt), high)),
        );
        let ta = b.build().unwrap();

        let spec = Ltl::implies(
            Ltl::state(Prop::loc_empty(ta.location_by_name("V1").unwrap())),
            Ltl::always(Ltl::state(Prop::loc_empty(
                ta.location_by_name("AC").unwrap(),
            ))),
        );
        let checker = Checker::new();
        let report = checker
            .check_ltl(&ta, &spec, &holistic_ltl::Justice::from_rules(&ta))
            .unwrap();
        let verdict = report.verdict();
        let ce = verdict
            .counterexample()
            .expect("broken threshold must forge an accept");
        // The forged accept happens with f >= 1 (Byzantine help).
        assert!(ce.params[2] >= 1, "params {:?}", ce.params);
    }
}
