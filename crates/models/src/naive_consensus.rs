//! The naive DBFT consensus threshold automaton (paper Fig. 3, Table 3).
//!
//! Algorithm 1 (DBFT binary consensus, safe-but-not-live variant) is
//! modelled *directly*, with the bv-broadcast automaton embedded: a
//! superround concatenates an odd round (parity 1, decides 1) and an
//! even round (parity 0, decides 0). Delivery rules additionally send
//! the `aux` message (increment `a0`/`a1`), and the decision rules
//! compare `aux` counts with `n − t` (minus `f` Byzantine copies).
//!
//! This automaton is what a non-compositional ("holistic but naive")
//! verification attempt must check — and with 14 unique guards its
//! schedule lattice explodes; Table 2 reports ByMC timing out after a
//! day, and this reproduction's schema enumeration hits its schema cap
//! the same way (see `holistic-checker`'s `CheckerConfig::max_schemas`).

use holistic_ltl::{Justice, Ltl, Prop};
use holistic_ta::{
    AtomicGuard, Guard, LocationId, ParamExpr, TaBuilder, ThresholdAutomaton, VarExpr, VarId,
};

/// The naive consensus automaton plus its specifications.
#[derive(Clone, Debug)]
pub struct NaiveConsensusModel {
    /// The two-round superround automaton (26 locations, 45 rules,
    /// 14 unique guards).
    pub ta: ThresholdAutomaton,
}

impl Default for NaiveConsensusModel {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds one consensus round into `b`. `suffix` distinguishes rounds
/// (`""` / `"'"`), `parity` is the value the round decides. Returns the
/// outcome locations `(est0, est1, decided)`.
#[allow(clippy::too_many_lines)]
fn build_round(
    b: &mut TaBuilder,
    suffix: &str,
    parity: u8,
    shared: &RoundVars,
    thresholds: &Thresholds,
    terminal: bool,
) -> RoundLocs {
    let name = |base: &str| format!("{base}{suffix}");
    let rule = |base: &str| format!("{base}{suffix}");

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
    let b0 = b.location(name("B0"));
    let b1 = b.location(name("B1"));
    let b01 = b.location(name("B01"));
    let c0 = b.location(name("C0"));
    let c1 = b.location(name("C1"));
    let cb0 = b.location(name("CB0"));
    let cb1 = b.location(name("CB1"));
    let c01 = b.location(name("C01"));
    // Outcome locations: estimates 0/1 carried to the next round, and
    // the round's decision (value == parity).
    let (e0, e1, decided) = if parity == 1 {
        (
            mk_loc(b, name("E0"), terminal),
            mk_loc(b, name("E1"), terminal),
            mk_loc(b, "D1".to_owned(), terminal),
        )
    } else {
        (
            mk_loc(b, name("E0"), terminal),
            mk_loc(b, name("E1"), terminal),
            mk_loc(b, "D0".to_owned(), terminal),
        )
    };

    let ge = |v: VarId, rhs: ParamExpr| Guard::atom(AtomicGuard::ge(VarExpr::var(v), rhs));
    let low = thresholds.low.clone();
    let high = thresholds.high.clone();
    let quorum = thresholds.quorum.clone();
    let ge2 = |x: VarId, y: VarId, rhs: ParamExpr| {
        let mut e = VarExpr::var(x);
        e.add_term(y, 1);
        Guard::atom(AtomicGuard::ge(e, rhs))
    };

    // The embedded bv-broadcast (Table 3, rules r1–r6, r8–r13); the
    // delivery rules also broadcast the aux message (a0/a1 increments).
    b.rule(rule("r1"), v0, b0, Guard::always())
        .inc(shared.b0, 1);
    b.rule(rule("r2"), v1, b1, Guard::always())
        .inc(shared.b1, 1);
    b.rule(rule("r3"), b0, c0, ge(shared.b0, high.clone()))
        .inc(shared.a0, 1);
    b.rule(rule("r4"), b0, b01, ge(shared.b1, low.clone()))
        .inc(shared.b1, 1);
    b.rule(rule("r5"), b1, b01, ge(shared.b0, low.clone()))
        .inc(shared.b0, 1);
    b.rule(rule("r6"), b1, c1, ge(shared.b1, high.clone()))
        .inc(shared.a1, 1);
    b.rule(rule("r8"), c0, cb0, ge(shared.b1, low.clone()))
        .inc(shared.b1, 1);
    b.rule(rule("r9"), b01, c1, ge(shared.b1, high.clone()))
        .inc(shared.a1, 1);
    b.rule(rule("r10"), b01, c0, ge(shared.b0, high.clone()))
        .inc(shared.a0, 1);
    b.rule(rule("r11"), c1, cb1, ge(shared.b0, low))
        .inc(shared.b0, 1);
    b.rule(rule("r12"), cb0, c01, ge(shared.b1, high.clone()));
    b.rule(rule("r13"), cb1, c01, ge(shared.b0, high));

    // Decision rules (Table 3, r7, r14–r19): a quorum of n−t aux
    // messages whose values were all delivered. qualifiers = {0} → E0
    // (or decide when parity 0); {1} → D1/E1; {0,1} → est := parity.
    let to_if0 = if parity == 0 { decided } else { e0 };
    let to_if1 = if parity == 1 { decided } else { e1 };
    let to_mixed = if parity == 1 { e1 } else { e0 };
    b.rule(rule("r7"), c1, to_if1, ge(shared.a1, quorum.clone()));
    b.rule(rule("r14"), c0, to_if0, ge(shared.a0, quorum.clone()));
    b.rule(rule("r15"), cb0, to_if0, ge(shared.a0, quorum.clone()));
    b.rule(rule("r16"), c01, to_if0, ge(shared.a0, quorum.clone()));
    b.rule(
        rule("r17"),
        c01,
        to_mixed,
        ge2(shared.a0, shared.a1, quorum.clone()),
    );
    b.rule(rule("r18"), cb1, to_if1, ge(shared.a1, quorum.clone()));
    b.rule(rule("r19"), c01, to_if1, ge(shared.a1, quorum));

    RoundLocs {
        v0,
        v1,
        e0,
        e1,
        decided,
    }
}

fn mk_loc(b: &mut TaBuilder, name: String, terminal: bool) -> LocationId {
    if terminal {
        b.final_location(name)
    } else {
        b.location(name)
    }
}

struct RoundVars {
    b0: VarId,
    b1: VarId,
    a0: VarId,
    a1: VarId,
}

struct Thresholds {
    /// `t + 1 − f`
    low: ParamExpr,
    /// `2t + 1 − f`
    high: ParamExpr,
    /// `n − t − f`
    quorum: ParamExpr,
}

struct RoundLocs {
    v0: LocationId,
    v1: LocationId,
    e0: LocationId,
    e1: LocationId,
    decided: LocationId,
}

impl NaiveConsensusModel {
    /// Builds the automaton of Fig. 3 with the standard resilience
    /// `n > 3t ∧ t ≥ f ≥ 0`.
    pub fn new() -> NaiveConsensusModel {
        Self::with_resilience(3)
    }

    /// Builds the automaton with resilience `n > k·t` — `k = 3` is the
    /// paper's condition; `k = 2` weakens it enough to exhibit the
    /// agreement counterexample of §6.
    pub fn with_resilience(k: i64) -> NaiveConsensusModel {
        let mut b = TaBuilder::new("naive_consensus");
        let n = b.param("n");
        let t = b.param("t");
        let f = b.param("f");
        b.resilience_gt(n, t, k);
        b.resilience_ge(t, f);
        b.resilience_ge_const(f, 0);
        b.size_n_minus_f(n, f);

        let thresholds = {
            let mut low = ParamExpr::param(t);
            low.add_constant(1);
            low.add_term(f, -1);
            let mut high = ParamExpr::term(t, 2);
            high.add_constant(1);
            high.add_term(f, -1);
            let mut quorum = ParamExpr::param(n);
            quorum.add_term(t, -1);
            quorum.add_term(f, -1);
            Thresholds { low, high, quorum }
        };

        let round1_vars = RoundVars {
            b0: b.shared("b0"),
            b1: b.shared("b1"),
            a0: b.shared("a0"),
            a1: b.shared("a1"),
        };
        let round2_vars = RoundVars {
            b0: b.shared("b0'"),
            b1: b.shared("b1'"),
            a0: b.shared("a0'"),
            a1: b.shared("a1'"),
        };

        let r1 = build_round(&mut b, "", 1, &round1_vars, &thresholds, false);
        let r2 = build_round(&mut b, "'", 0, &round2_vars, &thresholds, true);

        // Round switches (r20–r22): estimates carry over; a process that
        // decided 1 keeps estimate 1 and participates in the next round.
        b.rule("r20", r1.e0, r2.v0, Guard::always()).round_switch();
        b.rule("r21", r1.e1, r2.v1, Guard::always()).round_switch();
        b.rule("r22", r1.decided, r2.v1, Guard::always())
            .round_switch();

        // Self-loops on the superround's terminal locations (the paper's
        // rule count of 45 = 2×19 + 3 switches + 4 self-loops).
        for loc in [r1.decided, r2.decided, r2.e0, r2.e1] {
            b.self_loop(loc);
        }

        NaiveConsensusModel {
            ta: b.build().expect("naive consensus model is valid"),
        }
    }

    fn loc(&self, name: &str) -> LocationId {
        self.ta
            .location_by_name(name)
            .unwrap_or_else(|| panic!("location {name} exists"))
    }

    /// `Inv1ᵥ`: if some process decides `v`, no process ever decides
    /// `1−v` (in this superround) nor exits the superround with estimate
    /// `1−v`. Together with `Inv2ᵥ` this implies Agreement (paper §5.1).
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

    /// `Inv2ᵥ`: if no process starts the superround with value `v`, no
    /// process decides `v` nor exits with estimate `v`. Together with
    /// `Inv1ᵥ` this implies Validity (paper §5.1).
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

    /// `SRoundTerm`: every superround terminates — eventually only the
    /// terminal locations `D0`, `E0'`, `E1'` are occupied.
    pub fn sround_term(&self) -> Ltl {
        let terminals = [self.loc("D0"), self.loc("E0'"), self.loc("E1'")];
        let pending: Vec<LocationId> = (0..self.ta.locations.len())
            .map(LocationId)
            .filter(|l| !terminals.contains(l))
            .collect();
        Ltl::eventually(Ltl::state(Prop::all_empty(pending)))
    }

    /// Rule-wise reliable-communication justice.
    pub fn justice(&self) -> Justice {
        Justice::from_rules(&self.ta)
    }

    /// The properties benchmarked on this automaton in Table 2.
    pub fn table2_specs(&self) -> Vec<(&'static str, Ltl)> {
        vec![
            ("Inv1_0", self.inv1(0)),
            ("Inv2_0", self.inv2(0)),
            ("SRoundTerm", self.sround_term()),
        ]
    }

    /// The rule table (paper Table 3): `(name, guard, update)` rendered
    /// with the automaton's vocabulary.
    pub fn rule_table(&self) -> Vec<(String, String, String)> {
        self.ta
            .rules
            .iter()
            .map(|r| {
                let guard = if r.guard.is_true() {
                    "true".to_owned()
                } else {
                    r.guard
                        .atoms()
                        .iter()
                        .map(|a| {
                            format!(
                                "{} {} {}",
                                a.lhs.display(&self.ta.variables),
                                a.cmp,
                                a.rhs.display(&self.ta.params)
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(" && ")
                };
                let update = if r.update.is_empty() {
                    "—".to_owned()
                } else {
                    r.update
                        .iter()
                        .map(|&(v, k)| {
                            if k == 1 {
                                format!("{}++", self.ta.variables[v.0])
                            } else {
                                format!("{} += {k}", self.ta.variables[v.0])
                            }
                        })
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                (r.name.clone(), guard, update)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_close_to_table2() {
        let m = NaiveConsensusModel::new();
        let (guards, locs, rules) = m.ta.size_summary();
        // Table 2: 14 unique guards, 24 locations, 45 rules. We keep the
        // intermediate E0/E1 locations explicit (the paper merges them
        // with V0'/V1'), hence 26 locations.
        assert_eq!(guards, 14);
        assert_eq!(locs, 26);
        assert_eq!(rules, 45);
    }

    #[test]
    fn automaton_is_dag_and_valid() {
        let m = NaiveConsensusModel::new();
        assert!(m.ta.validate().is_ok());
        assert!(m.ta.is_dag());
    }

    #[test]
    fn decision_locations_by_parity() {
        let m = NaiveConsensusModel::new();
        // Round 1 decides 1, round 2 decides 0.
        assert!(m.ta.location_by_name("D1").is_some());
        assert!(m.ta.location_by_name("D0").is_some());
        // D1 switches into round 2 with estimate 1.
        let r22 = m.ta.rule_by_name("r22").unwrap();
        assert_eq!(m.ta.rules[r22.0].from, m.loc("D1"));
        assert_eq!(m.ta.rules[r22.0].to, m.loc("V1'"));
        assert!(m.ta.rules[r22.0].round_switch);
    }

    #[test]
    fn rule_table_matches_automaton() {
        let m = NaiveConsensusModel::new();
        let table = m.rule_table();
        assert_eq!(table.len(), m.ta.rules.len());
        let r3 = table.iter().find(|(n, _, _)| n == "r3").unwrap();
        assert_eq!(r3.1, "b0 >= 2t - f + 1");
        assert_eq!(r3.2, "a0++");
    }
}
