//! The binary value broadcast (paper Fig. 1 pseudocode, Fig. 2 TA).
//!
//! The bv-broadcast of Mostéfaoui, Moumen & Raynal guarantees that every
//! delivered binary value was broadcast by a correct process. A process
//! starts in `V0`/`V1` (its input bit), broadcasts it (`b0++`/`b1++`),
//! re-broadcasts a value received from `t+1` distinct processes, and
//! *delivers* a value received from `2t+1` distinct processes. Since up
//! to `f` of the received copies may be Byzantine, the guards compare
//! the count of **correct** senders with `t+1−f` and `2t+1−f`.
//!
//! Locations encode `(values broadcast, values delivered)` per the
//! paper's Table 1:
//!
//! | location | broadcast | delivered |
//! |---|---|---|
//! | V0 / V1 | – | – |
//! | B0 / B1 | 0 / 1 | – |
//! | B01 | 0,1 | – |
//! | C0 / C1 | 0 / 1 | 0 / 1 |
//! | CB0 / CB1 | 0,1 | 0 / 1 |
//! | C01 | 0,1 | 0,1 |

use holistic_ltl::{Justice, Ltl, Prop};
use holistic_ta::{
    AtomicGuard, Guard, LocationId, ParamExpr, ParamId, TaBuilder, ThresholdAutomaton, VarExpr,
};

/// One row of the paper's Table 1.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LocationRow {
    /// Location name.
    pub location: &'static str,
    /// Values this process has broadcast so far.
    pub broadcast: &'static str,
    /// Values this process has delivered so far.
    pub delivered: &'static str,
}

/// The bv-broadcast threshold automaton plus its specifications.
#[derive(Clone, Debug)]
pub struct BvBroadcastModel {
    /// The threshold automaton of Fig. 2 (12 proper rules + 7
    /// self-loops, 10 locations, 4 unique guards).
    pub ta: ThresholdAutomaton,
}

impl Default for BvBroadcastModel {
    fn default() -> Self {
        Self::new()
    }
}

impl BvBroadcastModel {
    /// Builds the automaton of Fig. 2.
    pub fn new() -> BvBroadcastModel {
        let mut b = TaBuilder::new("bv_broadcast");
        let n = b.param("n");
        let t = b.param("t");
        let f = b.param("f");
        b.resilience_gt(n, t, 3);
        b.resilience_ge(t, f);
        b.resilience_ge_const(f, 0);
        b.size_n_minus_f(n, f);

        let b0 = b.shared("b0");
        let b1 = b.shared("b1");

        let v0 = b.initial_location("V0");
        let v1 = b.initial_location("V1");
        let lb0 = b.location("B0");
        let lb1 = b.location("B1");
        let b01 = b.location("B01");
        let c0 = b.final_location("C0");
        let c1 = b.final_location("C1");
        let cb0 = b.final_location("CB0");
        let cb1 = b.final_location("CB1");
        let c01 = b.final_location("C01");

        let low = |var: ParamId, fv: ParamId| {
            // t + 1 - f
            let mut e = ParamExpr::param(var);
            e.add_constant(1);
            e.add_term(fv, -1);
            e
        };
        let high = |var: ParamId, fv: ParamId| {
            // 2t + 1 - f
            let mut e = ParamExpr::term(var, 2);
            e.add_constant(1);
            e.add_term(fv, -1);
            e
        };
        let ge = |v, rhs| Guard::atom(AtomicGuard::ge(VarExpr::var(v), rhs));

        // r1, r2: broadcast the input value.
        b.rule("r1", v0, lb0, Guard::always()).inc(b0, 1);
        b.rule("r2", v1, lb1, Guard::always()).inc(b1, 1);
        // r3: deliver 0 after 2t+1 copies of 0.
        b.rule("r3", lb0, c0, ge(b0, high(t, f)));
        // r4: echo 1 after t+1 copies of 1 (not yet re-broadcast).
        b.rule("r4", lb0, b01, ge(b1, low(t, f))).inc(b1, 1);
        // r5: echo 0 symmetric.
        b.rule("r5", lb1, b01, ge(b0, low(t, f))).inc(b0, 1);
        // r6: deliver 1.
        b.rule("r6", lb1, c1, ge(b1, high(t, f)));
        // r7: after delivering 0, echo 1.
        b.rule("r7", c0, cb0, ge(b1, low(t, f))).inc(b1, 1);
        // r8/r9: from both-broadcast, deliver either value first.
        b.rule("r8", b01, c0, ge(b0, high(t, f)));
        b.rule("r9", b01, c1, ge(b1, high(t, f)));
        // r10: after delivering 1, echo 0.
        b.rule("r10", c1, cb1, ge(b0, low(t, f))).inc(b0, 1);
        // r11/r12: deliver the second value.
        b.rule("r11", cb0, c01, ge(b1, high(t, f)));
        b.rule("r12", cb1, c01, ge(b0, high(t, f)));

        // The paper counts 19 rules = 12 proper + 7 self-loops. The
        // figure does not name the looped locations; we put them where a
        // process can legitimately wait forever: the guarded-waiting
        // locations B0, B1 and the delivered locations. (B01's exits are
        // also guarded; the count in the paper fixes 7, so B01 stutters
        // implicitly like V0/V1 — self-loops are semantically inert for
        // the checker either way.)
        for loc in [lb0, lb1, c0, c1, cb0, cb1, c01] {
            b.self_loop(loc);
        }

        BvBroadcastModel {
            ta: b.build().expect("bv-broadcast model is valid"),
        }
    }

    fn loc(&self, name: &str) -> LocationId {
        self.ta
            .location_by_name(name)
            .unwrap_or_else(|| panic!("location {name} exists"))
    }

    /// `Cv`, `CBv`, `C01` — the locations where `v ∈ contestants`.
    pub fn delivered_locs(&self, v: u8) -> Vec<LocationId> {
        assert!(v <= 1, "binary value");
        vec![
            self.loc(&format!("C{v}")),
            self.loc(&format!("CB{v}")),
            self.loc("C01"),
        ]
    }

    /// `Locsᵥ` — locations a process can be in while `v ∉ contestants`.
    pub fn not_delivered_locs(&self, v: u8) -> Vec<LocationId> {
        assert!(v <= 1, "binary value");
        let w = 1 - v;
        vec![
            self.loc("V0"),
            self.loc("V1"),
            self.loc("B0"),
            self.loc("B1"),
            self.loc("B01"),
            self.loc(&format!("C{w}")),
            self.loc(&format!("CB{w}")),
        ]
    }

    /// BV-Justification (paper `BV-Justᵥ`): if no correct process
    /// bv-broadcasts `v` (i.e. `Vᵥ` starts empty), no correct process
    /// ever delivers `v`.
    pub fn justification(&self, v: u8) -> Ltl {
        let vv = self.loc(&format!("V{v}"));
        Ltl::implies(
            Ltl::state(Prop::loc_empty(vv)),
            Ltl::always(Ltl::state(Prop::all_empty(self.delivered_locs(v)))),
        )
    }

    /// BV-Obligation (`BV-Oblᵥ`): if at least `t+1` correct processes
    /// bv-broadcast `v`, then `v` is eventually delivered by every
    /// correct process.
    pub fn obligation(&self, v: u8) -> Ltl {
        let bv = self
            .ta
            .variable_by_name(&format!("b{v}"))
            .expect("shared variable");
        let t = self.ta.param_by_name("t").expect("parameter t");
        let mut thresh = ParamExpr::param(t);
        thresh.add_constant(1);
        let premise = Prop::guard(AtomicGuard::ge(VarExpr::var(bv), thresh));
        Ltl::always(Ltl::implies(
            Ltl::state(premise),
            Ltl::eventually(Ltl::state(Prop::all_empty(self.not_delivered_locs(v)))),
        ))
    }

    /// BV-Uniformity (`BV-Unifᵥ`): if some correct process delivers `v`,
    /// every correct process eventually delivers `v`.
    pub fn uniformity(&self, v: u8) -> Ltl {
        Ltl::implies(
            Ltl::eventually(Ltl::state(Prop::any_nonempty(self.delivered_locs(v)))),
            Ltl::eventually(Ltl::state(Prop::all_empty(self.not_delivered_locs(v)))),
        )
    }

    /// BV-Termination (`BV-Term`): eventually every correct process has
    /// delivered some value (left `V0, V1, B0, B1, B01`).
    pub fn termination(&self) -> Ltl {
        let pending = vec![
            self.loc("V0"),
            self.loc("V1"),
            self.loc("B0"),
            self.loc("B1"),
            self.loc("B01"),
        ];
        Ltl::eventually(Ltl::state(Prop::all_empty(pending)))
    }

    /// The reliable-communication justice: rule-wise (every guard that
    /// holds forever drains its source).
    pub fn justice(&self) -> Justice {
        Justice::from_rules(&self.ta)
    }

    /// All four properties of §3.2, named as in Table 2 (the `v = 0`
    /// instances, as benchmarked in the paper, plus termination).
    pub fn table2_specs(&self) -> Vec<(&'static str, Ltl)> {
        vec![
            ("BV-Just0", self.justification(0)),
            ("BV-Obl0", self.obligation(0)),
            ("BV-Unif0", self.uniformity(0)),
            ("BV-Term", self.termination()),
        ]
    }

    /// The paper's Table 1: what each location means.
    pub fn location_table(&self) -> Vec<LocationRow> {
        vec![
            LocationRow {
                location: "V0",
                broadcast: "/",
                delivered: "/",
            },
            LocationRow {
                location: "V1",
                broadcast: "/",
                delivered: "/",
            },
            LocationRow {
                location: "B0",
                broadcast: "0",
                delivered: "/",
            },
            LocationRow {
                location: "B1",
                broadcast: "1",
                delivered: "/",
            },
            LocationRow {
                location: "B01",
                broadcast: "0,1",
                delivered: "/",
            },
            LocationRow {
                location: "C0",
                broadcast: "0",
                delivered: "0",
            },
            LocationRow {
                location: "CB0",
                broadcast: "0,1",
                delivered: "0",
            },
            LocationRow {
                location: "C1",
                broadcast: "1",
                delivered: "1",
            },
            LocationRow {
                location: "CB1",
                broadcast: "0,1",
                delivered: "1",
            },
            LocationRow {
                location: "C01",
                broadcast: "0,1",
                delivered: "0,1",
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_matches_table2() {
        let m = BvBroadcastModel::new();
        // Table 2: 4 unique guards, 10 locations, 19 rules.
        assert_eq!(m.ta.size_summary(), (4, 10, 19));
    }

    #[test]
    fn automaton_is_a_dag() {
        let m = BvBroadcastModel::new();
        assert!(m.ta.is_dag());
        assert!(m.ta.validate().is_ok());
    }

    #[test]
    fn initial_and_final_locations() {
        let m = BvBroadcastModel::new();
        assert_eq!(m.ta.initial_locations().len(), 2);
        assert_eq!(m.ta.final_locations().len(), 5);
    }

    #[test]
    fn location_table_covers_all_locations() {
        let m = BvBroadcastModel::new();
        let table = m.location_table();
        assert_eq!(table.len(), m.ta.locations.len());
        for row in &table {
            assert!(m.ta.location_by_name(row.location).is_some());
        }
    }

    #[test]
    fn delivered_and_pending_partition() {
        let m = BvBroadcastModel::new();
        for v in [0u8, 1] {
            let delivered = m.delivered_locs(v);
            let pending = m.not_delivered_locs(v);
            assert_eq!(delivered.len() + pending.len(), m.ta.locations.len());
            for l in &delivered {
                assert!(!pending.contains(l));
            }
        }
    }
}
