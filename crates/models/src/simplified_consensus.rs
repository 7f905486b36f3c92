//! The simplified DBFT consensus automaton (paper Fig. 4, §4.2, App. F).
//!
//! The inner bv-broadcast of the naive automaton is replaced by a
//! *gadget*: a single waiting location `M` from which a process moves to
//! `M0`/`M1` when the first value is delivered (guard `bvb_v ≥ 1`
//! encodes **BV-Justification**: something can only be delivered if a
//! correct process broadcast it) and on to `M01` when the second value
//! arrives. The progress of the gadget is *not* the rule-wise reliable
//! communication assumption — the gadget rule guards are weaker than
//! what the broadcast actually guarantees — so the justice assumption is
//! assembled from the **verified** bv-broadcast properties exactly as in
//! the paper's Appendix F:
//!
//! * BV-Termination → `M` drains unconditionally;
//! * BV-Obligation → `bvb₀ ≥ t+1` drains `M1` (and symmetrically);
//! * BV-Uniformity → `a₀ ≥ 1` (someone delivered 0 first) drains `M1`;
//! * "business as usual" → an aux quorum drains `M0`/`M1`/`M01`.

use holistic_ltl::{Justice, Ltl, Prop};
use holistic_ta::{
    AtomicGuard, Guard, LocationId, ParamExpr, TaBuilder, ThresholdAutomaton, VarExpr, VarId,
};

/// The simplified consensus automaton plus its specifications and the
/// Appendix-F justice assumption.
#[derive(Clone, Debug)]
pub struct SimplifiedConsensusModel {
    /// The two-round superround automaton (18 locations, 37 rules,
    /// 10 unique guards).
    pub ta: ThresholdAutomaton,
}

impl Default for SimplifiedConsensusModel {
    fn default() -> Self {
        Self::new()
    }
}

struct GadgetRound {
    v0: LocationId,
    v1: LocationId,
    m: LocationId,
    m0: LocationId,
    m1: LocationId,
    m01: LocationId,
    e0: LocationId,
    e1: LocationId,
    decided: LocationId,
}

fn build_round(
    b: &mut TaBuilder,
    suffix: &str,
    parity: u8,
    quorum: &ParamExpr,
    terminal: bool,
) -> GadgetRound {
    let name = |base: &str| format!("{base}{suffix}");
    let bvb0 = b.shared(name("bvb0"));
    let bvb1 = b.shared(name("bvb1"));
    let a0 = b.shared(name("a0"));
    let a1 = b.shared(name("a1"));

    let v0 = if suffix.is_empty() {
        b.initial_location(name("V0"))
    } else {
        b.location(name("V0"))
    };
    let v1 = if suffix.is_empty() {
        b.initial_location(name("V1"))
    } else {
        b.location(name("V1"))
    };
    let m = b.location(name("M"));
    let m0 = b.location(name("M0"));
    let m1 = b.location(name("M1"));
    let m01 = b.location(name("M01"));
    let mk = |b: &mut TaBuilder, n: String| {
        if terminal {
            b.final_location(n)
        } else {
            b.location(n)
        }
    };
    let e0 = mk(b, name("E0"));
    let e1 = mk(b, name("E1"));
    let decided = mk(b, format!("D{parity}"));

    let ge1 = |v: VarId| Guard::atom(AtomicGuard::ge(VarExpr::var(v), ParamExpr::constant(1)));
    let geq = |v: VarId| Guard::atom(AtomicGuard::ge(VarExpr::var(v), quorum.clone()));
    let geq2 = |x: VarId, y: VarId| {
        let mut e = VarExpr::var(x);
        e.add_term(y, 1);
        Guard::atom(AtomicGuard::ge(e, quorum.clone()))
    };
    let rn = |base: &str| format!("{base}{suffix}");

    // s1/s2: bv-broadcast the estimate.
    b.rule(rn("s1"), v0, m, Guard::always()).inc(bvb0, 1);
    b.rule(rn("s2"), v1, m, Guard::always()).inc(bvb1, 1);
    // s3/s4: first delivery; the aux message is broadcast
    // (BV-Justification is the `bvb ≥ 1` guard).
    b.rule(rn("s3"), m, m0, ge1(bvb0)).inc(a0, 1);
    b.rule(rn("s4"), m, m1, ge1(bvb1)).inc(a1, 1);
    // s6/s7: second delivery.
    b.rule(rn("s6"), m0, m01, ge1(bvb1));
    b.rule(rn("s7"), m1, m01, ge1(bvb0));
    // Decisions: qualifiers {0} / {1} / {0,1} with an n−t quorum of aux
    // messages; the parity value decides, the other estimates carry.
    let to_if0 = if parity == 0 { decided } else { e0 };
    let to_if1 = if parity == 1 { decided } else { e1 };
    let to_mixed = if parity == 1 { e1 } else { e0 };
    b.rule(rn("s5"), m0, to_if0, geq(a0));
    b.rule(rn("s8"), m1, to_if1, geq(a1));
    b.rule(rn("s9"), m01, to_if0, geq(a0));
    b.rule(rn("s10"), m01, to_mixed, geq2(a0, a1));
    b.rule(rn("s11"), m01, to_if1, geq(a1));

    GadgetRound {
        v0,
        v1,
        m,
        m0,
        m1,
        m01,
        e0,
        e1,
        decided,
    }
}

impl SimplifiedConsensusModel {
    /// Builds the automaton of Fig. 4 with the standard resilience
    /// `n > 3t ∧ t ≥ f ≥ 0`.
    pub fn new() -> SimplifiedConsensusModel {
        Self::with_resilience(3)
    }

    /// Builds the automaton with resilience `n > k·t`; `k = 2` weakens
    /// the fault assumption enough for the §6 agreement counterexample.
    pub fn with_resilience(k: i64) -> SimplifiedConsensusModel {
        let mut b = TaBuilder::new("simplified_consensus");
        let n = b.param("n");
        let t = b.param("t");
        let f = b.param("f");
        b.resilience_gt(n, t, k);
        b.resilience_ge(t, f);
        b.resilience_ge_const(f, 0);
        b.size_n_minus_f(n, f);

        let mut quorum = ParamExpr::param(n);
        quorum.add_term(t, -1);
        quorum.add_term(f, -1);

        let r1 = build_round(&mut b, "", 1, &quorum, false);
        let r2 = build_round(&mut b, "'", 0, &quorum, true);

        // s12–s14: round switches (dotted in Fig. 4 are the next
        // superround; these are the solid odd→even switches).
        b.rule("s12", r1.e0, r2.v0, Guard::always()).round_switch();
        b.rule("s13", r1.e1, r2.v1, Guard::always()).round_switch();
        b.rule("s14", r1.decided, r2.v1, Guard::always())
            .round_switch();

        // 12 self-loops: the gadget waiting locations of both rounds and
        // the superround's terminal locations (rule count 37 = 2×11 + 3
        // switches + 12 self-loops).
        for loc in [
            r1.m, r1.m0, r1.m1, r1.m01, r2.m, r2.m0, r2.m1, r2.m01, r1.decided, r2.decided, r2.e0,
            r2.e1,
        ] {
            b.self_loop(loc);
        }

        SimplifiedConsensusModel {
            ta: b.build().expect("simplified consensus model is valid"),
        }
    }

    fn loc(&self, name: &str) -> LocationId {
        self.ta
            .location_by_name(name)
            .unwrap_or_else(|| panic!("location {name} exists"))
    }

    fn var(&self, name: &str) -> VarId {
        self.ta
            .variable_by_name(name)
            .unwrap_or_else(|| panic!("variable {name} exists"))
    }

    fn param_expr_t_plus_1(&self) -> ParamExpr {
        let t = self.ta.param_by_name("t").expect("parameter t");
        let mut e = ParamExpr::param(t);
        e.add_constant(1);
        e
    }

    fn quorum_expr(&self) -> ParamExpr {
        let n = self.ta.param_by_name("n").expect("parameter n");
        let t = self.ta.param_by_name("t").expect("parameter t");
        let f = self.ta.param_by_name("f").expect("parameter f");
        let mut e = ParamExpr::param(n);
        e.add_term(t, -1);
        e.add_term(f, -1);
        e
    }

    /// `Inv1ᵥ` (Appendix F `inv1_0` / `inv1_1`).
    pub fn inv1(&self, v: u8) -> Ltl {
        let (dv, d_other, e_other) = if v == 0 {
            (self.loc("D0"), self.loc("D1"), self.loc("E1'"))
        } else {
            (self.loc("D1"), self.loc("D0"), self.loc("E0'"))
        };
        Ltl::implies(
            Ltl::eventually(Ltl::state(Prop::loc_nonempty(dv))),
            Ltl::always(Ltl::state(Prop::all_empty([d_other, e_other]))),
        )
    }

    /// `Inv2ᵥ` (Appendix F `inv2_0` / `inv2_1`).
    pub fn inv2(&self, v: u8) -> Ltl {
        let (vv, dv, ev) = if v == 0 {
            (self.loc("V0"), self.loc("D0"), self.loc("E0'"))
        } else {
            (self.loc("V1"), self.loc("D1"), self.loc("E1'"))
        };
        Ltl::implies(
            Ltl::always(Ltl::state(Prop::loc_empty(vv))),
            Ltl::always(Ltl::state(Prop::all_empty([dv, ev]))),
        )
    }

    /// `Decᵥ` (paper (Dec), Appendix F `dec_0` / `dec_1`): if no process
    /// starts with `v`, everyone decides `1−v` in the round of that
    /// parity (nobody exits it undecided).
    pub fn dec(&self, v: u8) -> Ltl {
        let (vv, exits) = if v == 0 {
            (self.loc("V0"), [self.loc("E0"), self.loc("E1")])
        } else {
            (self.loc("V1"), [self.loc("E0'"), self.loc("E1'")])
        };
        Ltl::implies(
            Ltl::always(Ltl::state(Prop::loc_empty(vv))),
            Ltl::always(Ltl::state(Prop::all_empty(exits))),
        )
    }

    /// `Goodᵥ` (paper (Good), Appendix F `good_0` / `good_1`): the
    /// consequence of a `v`-good bv-broadcast round (Corollary 5).
    pub fn good(&self, v: u8) -> Ltl {
        if v == 0 {
            // [](k[M0] = 0) => [](k[D0] = 0 && k[E0'] = 0)
            Ltl::implies(
                Ltl::always(Ltl::state(Prop::loc_empty(self.loc("M0")))),
                Ltl::always(Ltl::state(Prop::all_empty([
                    self.loc("D0"),
                    self.loc("E0'"),
                ]))),
            )
        } else {
            // [](k[M1'] = 0) => [](k[E1'] = 0)
            Ltl::implies(
                Ltl::always(Ltl::state(Prop::loc_empty(self.loc("M1'")))),
                Ltl::always(Ltl::state(Prop::loc_empty(self.loc("E1'")))),
            )
        }
    }

    /// `SRoundTerm` (paper (SRoundTerm), Appendix F
    /// `s_round_termination`): eventually only `D0`, `E0'`, `E1'` are
    /// occupied.
    pub fn sround_term(&self) -> Ltl {
        let terminals = [self.loc("D0"), self.loc("E0'"), self.loc("E1'")];
        let pending: Vec<LocationId> = (0..self.ta.locations.len())
            .map(LocationId)
            .filter(|l| !terminals.contains(l))
            .collect();
        Ltl::eventually(Ltl::state(Prop::all_empty(pending)))
    }

    /// The justice assumption of Appendix F: rule-wise justice for the
    /// real rules, and property-derived requirements for the gadget
    /// locations (BV-Termination, BV-Obligation, BV-Uniformity, plus
    /// the aux-quorum progress).
    pub fn justice(&self) -> Justice {
        let mut j = Justice::none();
        let t_plus_1 = self.param_expr_t_plus_1();
        let quorum = self.quorum_expr();
        let ge = |v: VarId, e: ParamExpr| Prop::guard(AtomicGuard::ge(VarExpr::var(v), e));
        let ge2 = |x: VarId, y: VarId, e: ParamExpr| {
            let mut lhs = VarExpr::var(x);
            lhs.add_term(y, 1);
            Prop::guard(AtomicGuard::ge(lhs, e))
        };

        // Unconditional drains: broadcasting (s1/s2/s'1/s'2), the round
        // switches (s12–s14), and BV-Termination for M / M'.
        for l in ["V0", "V1", "V0'", "V1'", "E0", "E1", "D1"] {
            j.require(Prop::True, self.loc(l), format!("reliable send ({l})"));
        }
        j.require(Prop::True, self.loc("M"), "BV-Termination");
        j.require(Prop::True, self.loc("M'"), "BV-Termination'");

        for suffix in ["", "'"] {
            let bvb0 = self.var(&format!("bvb0{suffix}"));
            let bvb1 = self.var(&format!("bvb1{suffix}"));
            let a0 = self.var(&format!("a0{suffix}"));
            let a1 = self.var(&format!("a1{suffix}"));
            let m0 = self.loc(&format!("M0{suffix}"));
            let m1 = self.loc(&format!("M1{suffix}"));
            let m01 = self.loc(&format!("M01{suffix}"));
            // BV-Obligation: t+1 correct broadcasts of v force delivery
            // of v everywhere, draining the other-value-only location.
            j.require(
                ge(bvb0, t_plus_1.clone()),
                m1,
                format!("BV-Obligation{suffix}"),
            );
            j.require(
                ge(bvb1, t_plus_1.clone()),
                m0,
                format!("BV-Obligation{suffix}"),
            );
            // BV-Uniformity: one first-delivery of v forces delivery of
            // v everywhere.
            j.require(
                ge(a0, ParamExpr::constant(1)),
                m1,
                format!("BV-Uniformity{suffix}"),
            );
            j.require(
                ge(a1, ParamExpr::constant(1)),
                m0,
                format!("BV-Uniformity{suffix}"),
            );
            // Business as usual: an aux quorum completes the wait of
            // Algorithm 1, line 9.
            j.require(ge(a0, quorum.clone()), m0, format!("aux quorum{suffix}"));
            j.require(ge(a1, quorum.clone()), m1, format!("aux quorum{suffix}"));
            j.require(
                ge2(a0, a1, quorum.clone()),
                m01,
                format!("aux quorum{suffix}"),
            );
        }
        j
    }

    /// The properties benchmarked on this automaton in Table 2 (`v = 0`
    /// instances, as in the paper).
    pub fn table2_specs(&self) -> Vec<(&'static str, Ltl)> {
        vec![
            ("Inv1_0", self.inv1(0)),
            ("Inv2_0", self.inv2(0)),
            ("SRoundTerm", self.sround_term()),
            ("Good_0", self.good(0)),
            ("Dec_0", self.dec(0)),
        ]
    }

    /// Every safety/liveness property of §5 and Appendix F.
    pub fn all_specs(&self) -> Vec<(String, Ltl)> {
        let mut out = Vec::new();
        for v in [0u8, 1] {
            out.push((format!("Inv1_{v}"), self.inv1(v)));
            out.push((format!("Inv2_{v}"), self.inv2(v)));
            out.push((format!("Dec_{v}"), self.dec(v)));
            out.push((format!("Good_{v}"), self.good(v)));
        }
        out.push(("SRoundTerm".to_owned(), self.sround_term()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_close_to_table2() {
        let m = SimplifiedConsensusModel::new();
        let (guards, locs, rules) = m.ta.size_summary();
        // Table 2: 10 unique guards, 16 locations, 37 rules. We keep
        // E0/E1 explicit (the paper merges them with V0'/V1'), hence 18.
        assert_eq!(guards, 10);
        assert_eq!(locs, 18);
        assert_eq!(rules, 37);
    }

    #[test]
    fn automaton_is_dag_and_valid() {
        let m = SimplifiedConsensusModel::new();
        assert!(m.ta.validate().is_ok());
        assert!(m.ta.is_dag());
    }

    #[test]
    fn justice_covers_all_waiting_locations() {
        let m = SimplifiedConsensusModel::new();
        let j = m.justice();
        // Every non-final location with guarded exits has at least one
        // requirement.
        for name in ["M", "M0", "M1", "M01", "M'", "M0'", "M1'", "M01'"] {
            let l = m.loc(name);
            assert!(
                j.requirements.iter().any(|r| r.source == l),
                "no justice for {name}"
            );
        }
    }
}
