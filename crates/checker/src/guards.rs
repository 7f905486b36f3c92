//! Guard analysis: the unique threshold guards of an automaton, which
//! of them can hold initially, and the implication order between them.
//!
//! Contexts (sets of unlocked guards) must be closed under implication:
//! if `g ⇒ h` is valid under the resilience condition, no reachable
//! configuration satisfies `g` but not `h`, so context sequences that
//! violate closure are pruned before any SMT query is made. For the
//! bv-broadcast automaton this is what orders the two thresholds on the
//! same variable (`b0 ≥ 2t+1−f` implies `b0 ≥ t+1−f` whenever `t ≥ 0`).
//!
//! In the increment-only class contexts only grow along a run, so every
//! run induces a strictly increasing *schedule* `ctx₀ ⊂ ctx₁ ⊂ … ⊂ ctxₘ`,
//! the backbone of a schema (POPL'17). [`GuardInfo::initial_contexts`]
//! and [`GuardInfo::extensions`] are the one step relation of that
//! lattice: the exploration DFS and [`count_schedules`] both walk it.

use holistic_lia::{Constraint, LinExpr, Solver, Var};
use holistic_ta::{AtomicGuard, GuardCmp, ParamExpr, ThresholdAutomaton};

/// The guard vocabulary of an automaton, with derived facts.
#[derive(Debug)]
pub struct GuardInfo {
    /// The distinct rise guards, in first-occurrence order. Index into
    /// this vector is the *guard index* used by context bitmasks.
    pub guards: Vec<AtomicGuard>,
    /// `implies[g]` = bitmask of guards entailed by `g` (excluding `g`).
    pub implies: Vec<u64>,
    /// Bitmask of guards that can be true in the initial configuration
    /// (all shared variables zero) for some admissible parameters.
    pub initially_possible: u64,
    /// For each updating rule (deduplicated): `(needs, raises)` — the
    /// guard bitmask the rule itself needs, and the bitmask of guards
    /// whose left-hand side it increments. Because exactly one rule
    /// fires per step of the interleaving semantics, a set `T` of guards
    /// can unlock *simultaneously* after a segment with context `C` only
    /// if some rule with `needs ⊆ C` has `T ⊆ raises` (the static
    /// extension filter of the schedule DFS).
    pub raisers: Vec<(u64, u64)>,
}

/// Errors from guard analysis.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GuardError {
    /// The automaton uses a fall guard (`<`), which is outside the
    /// increment-only rise-guard class this checker supports.
    FallGuard(String),
    /// More than 64 distinct guards (context bitmasks are `u64`).
    TooManyGuards(usize),
}

impl std::fmt::Display for GuardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardError::FallGuard(r) => {
                write!(
                    f,
                    "rule {r} has a fall guard (<); only rise guards are supported"
                )
            }
            GuardError::TooManyGuards(n) => write!(f, "{n} distinct guards exceed the limit of 64"),
        }
    }
}

impl std::error::Error for GuardError {}

/// Builds a solver over the automaton's parameters with the resilience
/// condition asserted; returns the parameter variables.
pub(crate) fn param_solver(ta: &ThresholdAutomaton) -> (Solver, Vec<Var>) {
    let mut solver = Solver::new();
    let params: Vec<Var> = ta
        .params
        .iter()
        .map(|p| solver.new_nonneg_var(p.clone()))
        .collect();
    for c in &ta.resilience {
        solver.assert_constraint(resilience_constraint(c, &params));
    }
    (solver, params)
}

pub(crate) fn param_expr_to_lin(e: &ParamExpr, params: &[Var]) -> LinExpr {
    let mut out = LinExpr::constant(e.constant_term() as i128);
    for (p, c) in e.iter() {
        out.add_term(params[p.0], c);
    }
    out
}

pub(crate) fn resilience_constraint(
    c: &holistic_ta::ParamConstraint,
    params: &[Var],
) -> Constraint {
    let lhs = param_expr_to_lin(&c.lhs, params);
    let rhs = param_expr_to_lin(&c.rhs, params);
    match c.cmp {
        holistic_ta::ParamCmp::Gt => Constraint::gt(lhs, rhs),
        holistic_ta::ParamCmp::Ge => Constraint::ge(lhs, rhs),
        holistic_ta::ParamCmp::Eq => Constraint::eq(lhs, rhs),
        holistic_ta::ParamCmp::Le => Constraint::le(lhs, rhs),
        holistic_ta::ParamCmp::Lt => Constraint::lt(lhs, rhs),
    }
}

/// Counts the schedules of `info`'s lattice, stopping at `cap`: every
/// chain that starts at an [initial context](GuardInfo::initial_contexts)
/// and steps by [`extensions`](GuardInfo::extensions). Returns the count
/// and whether the cap was hit. No SMT and no chain storage, so even the
/// naive automaton's raw lattice counts in seconds.
pub fn count_schedules(info: &GuardInfo, cap: usize) -> (usize, bool) {
    fn walk(info: &GuardInfo, ctx: u64, cap: usize, counted: &mut usize) -> bool {
        if *counted >= cap {
            return false;
        }
        *counted += 1;
        info.extensions(ctx)
            .all(|next| walk(info, next, cap, counted))
    }
    let mut counted = 0;
    let complete = info
        .initial_contexts()
        .into_iter()
        .all(|ctx| walk(info, ctx, cap, &mut counted));
    (counted, !complete)
}

impl GuardInfo {
    /// Analyses the automaton's guards.
    ///
    /// The vocabulary is the rule guards alone: threshold atoms that
    /// appear only in a property or justice assumption stay symbolic
    /// (see `Checker::run_query`).
    ///
    /// # Errors
    ///
    /// [`GuardError`] if the automaton uses fall guards or has more than
    /// 64 distinct guards.
    pub fn analyse(ta: &ThresholdAutomaton) -> Result<GuardInfo, GuardError> {
        for rule in &ta.rules {
            for atom in rule.guard.atoms() {
                if atom.cmp == GuardCmp::Lt {
                    return Err(GuardError::FallGuard(rule.name.clone()));
                }
            }
        }
        let guards = ta.unique_guards();
        if guards.len() > 64 {
            return Err(GuardError::TooManyGuards(guards.len()));
        }

        // g ⇒ h  iff  (g ∧ ¬h ∧ resilience ∧ shared ≥ 0) is unsat.
        // Sound over-approximation of reachable shared values: any
        // non-negative vector (shared variables only ever grow from 0).
        let mut implies = vec![0u64; guards.len()];
        let mut initially_possible = 0u64;
        for (gi, g) in guards.iter().enumerate() {
            // Initial possibility: 0 >= rhs satisfiable under resilience.
            let (mut solver, params) = param_solver(ta);
            let rhs = param_expr_to_lin(&g.rhs, &params);
            solver.assert_constraint(Constraint::le(rhs, LinExpr::constant(0)));
            if solver.check().is_sat() {
                initially_possible |= 1 << gi;
            }

            for (hi, h) in guards.iter().enumerate() {
                if gi == hi {
                    continue;
                }
                let (mut solver, params) = param_solver(ta);
                // Shared variables as free non-negative unknowns.
                let shared: Vec<Var> = ta
                    .variables
                    .iter()
                    .map(|v| solver.new_nonneg_var(v.clone()))
                    .collect();
                let lhs_of = |guard: &AtomicGuard| {
                    let mut e = LinExpr::zero();
                    for (v, c) in guard.lhs.iter() {
                        e.add_term(shared[v.0], c);
                    }
                    e
                };
                // g holds.
                solver.assert_constraint(Constraint::ge(
                    lhs_of(g),
                    param_expr_to_lin(&g.rhs, &params),
                ));
                // h fails.
                solver.assert_constraint(Constraint::lt(
                    lhs_of(h),
                    param_expr_to_lin(&h.rhs, &params),
                ));
                if solver.check().is_unsat() {
                    implies[gi] |= 1 << hi;
                }
            }
        }
        // Static unlock dependencies: which rules can raise which
        // guards' left-hand sides. (Self-loops carry no updates, so only
        // proper rules appear.)
        let mut info = GuardInfo {
            guards,
            implies,
            initially_possible,
            raisers: Vec::new(),
        };
        for rule in &ta.rules {
            if rule.update.is_empty() {
                continue;
            }
            let needs = info.rule_mask(rule);
            let mut raises = 0u64;
            for (gi, g) in info.guards.iter().enumerate() {
                if rule.update.iter().any(|&(v, _)| g.lhs.coeff(v) > 0) {
                    raises |= 1 << gi;
                }
            }
            if raises != 0 && !info.raisers.contains(&(needs, raises)) {
                info.raisers.push((needs, raises));
            }
        }
        Ok(info)
    }

    /// The closed subsets of [`initially_possible`](Self::initially_possible),
    /// ascending: the contexts a schedule can start in (usually just ∅).
    pub fn initial_contexts(&self) -> Vec<u64> {
        let universe = self.initially_possible;
        let mut out = Vec::new();
        let mut sub = 0u64;
        loop {
            if self.is_closed(sub) {
                out.push(sub);
            }
            sub = sub.wrapping_sub(universe) & universe;
            if sub == 0 {
                return out;
            }
        }
    }

    /// The successor contexts of `ctx` in the schedule lattice, in
    /// ascending order of the newly unlocked set: `ctx ∪ T` for every
    /// non-empty set `T` of still-locked guards that one rule usable
    /// under `ctx` can raise at once, whenever `ctx ∪ T` is closed.
    ///
    /// Steps may unlock several guards at once (equal thresholds can be
    /// crossed by a single increment, e.g. `t+1−f` and `2t+1−f` coincide
    /// at `t = 0`), so schedules are chains in the closed-context
    /// lattice, not single-event paths. The order is the exploration
    /// DFS's: its preorder decides the canonical violation and the
    /// order recorded explorations replay in.
    pub fn extensions(&self, ctx: u64) -> impl Iterator<Item = u64> + '_ {
        let all = u64::MAX.checked_shr(64 - self.len() as u32).unwrap_or(0);
        let remaining = all & !ctx;
        let mut sub = 0u64;
        std::iter::from_fn(move || loop {
            sub = sub.wrapping_sub(remaining) & remaining;
            if sub == 0 {
                return None;
            }
            if self.can_unlock_set(sub, ctx) && self.is_closed(ctx | sub) {
                return Some(ctx | sub);
            }
        })
    }

    /// Whether the guard set `set` (bitmask) can unlock *simultaneously*
    /// right after a segment with context `ctx`: exactly one rule fires
    /// per step, so a single usable rule must raise every guard in the
    /// set.
    fn can_unlock_set(&self, set: u64, ctx: u64) -> bool {
        self.raisers
            .iter()
            .any(|&(needs, raises)| needs & !ctx == 0 && set & !raises == 0)
    }

    /// Number of distinct guards.
    ///
    /// Uses the implication table's length so that test doubles without
    /// a populated vocabulary behave consistently.
    pub fn len(&self) -> usize {
        self.implies.len()
    }

    /// Whether the automaton has no guards.
    pub fn is_empty(&self) -> bool {
        self.implies.is_empty()
    }

    /// Whether a context bitmask is closed under implication.
    fn is_closed(&self, ctx: u64) -> bool {
        for gi in 0..self.implies.len() {
            if ctx & (1 << gi) != 0 && self.implies[gi] & !ctx != 0 {
                return false;
            }
        }
        true
    }

    /// The guard index of an atomic guard, if it is in the vocabulary.
    pub fn index_of(&self, g: &AtomicGuard) -> Option<usize> {
        self.guards.iter().position(|h| h == g)
    }

    /// The bitmask of a rule's guard atoms.
    ///
    /// # Panics
    ///
    /// Panics if the rule mentions a guard outside the vocabulary
    /// (impossible for guards obtained from the same automaton).
    pub fn rule_mask(&self, rule: &holistic_ta::Rule) -> u64 {
        let mut mask = 0u64;
        for atom in rule.guard.atoms() {
            let idx = self.index_of(atom).expect("rule guard in vocabulary");
            mask |= 1 << idx;
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_ta::{Guard, ParamExpr, TaBuilder, VarExpr};

    /// Two thresholds on the same variable: t+1-f and 2t+1-f.
    fn two_thresholds() -> ThresholdAutomaton {
        let mut b = TaBuilder::new("g");
        let n = b.param("n");
        let t = b.param("t");
        let f = b.param("f");
        b.size_n_minus_f(n, f);
        b.resilience_gt(n, t, 3);
        b.resilience_ge(t, f);
        b.resilience_ge_const(f, 0);
        let b0 = b.shared("b0");
        let v = b.initial_location("V");
        let a = b.location("A");
        let c = b.final_location("C");
        let mut low = ParamExpr::param(t);
        low.add_constant(1);
        low.add_term(f, -1);
        let mut high = ParamExpr::term(t, 2);
        high.add_constant(1);
        high.add_term(f, -1);
        b.rule(
            "r1",
            v,
            a,
            Guard::atom(holistic_ta::AtomicGuard::ge(VarExpr::var(b0), low)),
        )
        .inc(b0, 1);
        b.rule(
            "r2",
            a,
            c,
            Guard::atom(holistic_ta::AtomicGuard::ge(VarExpr::var(b0), high)),
        );
        b.build().unwrap()
    }

    #[test]
    fn implication_orders_thresholds() {
        let ta = two_thresholds();
        let info = GuardInfo::analyse(&ta).unwrap();
        assert_eq!(info.len(), 2);
        // b0 >= 2t+1-f (index 1) implies b0 >= t+1-f (index 0) since t >= 0.
        assert_eq!(info.implies[1], 0b01);
        // The converse does not hold (t can be positive).
        assert_eq!(info.implies[0], 0b00);
    }

    #[test]
    fn closure_check() {
        let ta = two_thresholds();
        let info = GuardInfo::analyse(&ta).unwrap();
        assert!(info.is_closed(0b00));
        assert!(info.is_closed(0b01)); // low only
        assert!(info.is_closed(0b11)); // both
        assert!(!info.is_closed(0b10)); // high without low: pruned
    }

    #[test]
    fn no_guard_true_initially() {
        let ta = two_thresholds();
        let info = GuardInfo::analyse(&ta).unwrap();
        // Thresholds are >= 1 under t >= f >= 0... t+1-f >= 1, so 0 >= rhs
        // is unsatisfiable.
        assert_eq!(info.initially_possible, 0);
    }

    #[test]
    fn trivial_threshold_possible_initially() {
        let mut b = TaBuilder::new("g");
        let n = b.param("n");
        let f = b.param("f");
        b.size_n_minus_f(n, f);
        let x = b.shared("x");
        let v = b.initial_location("V");
        let c = b.final_location("C");
        // x >= f: with f = 0 this is true at x = 0.
        b.rule(
            "r1",
            v,
            c,
            Guard::atom(holistic_ta::AtomicGuard::ge(
                VarExpr::var(x),
                ParamExpr::param(f),
            )),
        );
        let ta = b.build().unwrap();
        let info = GuardInfo::analyse(&ta).unwrap();
        assert_eq!(info.initially_possible, 0b1);
    }

    #[test]
    fn fall_guard_rejected() {
        let mut b = TaBuilder::new("g");
        let n = b.param("n");
        let f = b.param("f");
        b.size_n_minus_f(n, f);
        let x = b.shared("x");
        let v = b.initial_location("V");
        let c = b.final_location("C");
        b.rule(
            "r1",
            v,
            c,
            Guard::atom(holistic_ta::AtomicGuard::lt(
                VarExpr::var(x),
                ParamExpr::constant(5),
            )),
        );
        let ta = b.build().unwrap();
        assert!(matches!(
            GuardInfo::analyse(&ta),
            Err(GuardError::FallGuard(_))
        ));
    }

    /// A fake GuardInfo with the given implications, where any set of
    /// guards is unconditionally unlockable.
    fn lattice(n: usize, implications: &[(usize, usize)], initially: u64) -> GuardInfo {
        let mut implies = vec![0u64; n];
        for &(g, h) in implications {
            implies[g] |= 1 << h;
        }
        GuardInfo {
            guards: Vec::new(), // not consulted by the step relation
            implies,
            initially_possible: initially,
            raisers: vec![(0, u64::MAX)],
        }
    }

    #[test]
    fn schedule_counts_of_small_lattices() {
        for (n, implications, initially, schedules) in [
            // [∅].
            (0, &[][..], 0u64, 1),
            // [∅], [∅,{g}].
            (1, &[][..], 0, 2),
            // [∅], [∅,a], [∅,b], [∅,ab], [∅,a,ab], [∅,b,ab].
            (2, &[][..], 0, 6),
            // g1 ⇒ g0 prunes {g1}: [∅], [∅,0], [∅,0,01], [∅,01].
            (2, &[(1, 0)][..], 0, 4),
            // Also starting from {g0}: [{g0}], [{g0},{g0,g1}].
            (2, &[][..], 0b01, 8),
            // A total order of 3 guards: 2^3 chains from ∅.
            (3, &[(2, 1), (1, 0)][..], 0, 8),
        ] {
            let info = lattice(n, implications, initially);
            assert_eq!(count_schedules(&info, 1_000), (schedules, false), "n={n}");
        }
    }

    #[test]
    fn extensions_ascend_and_stay_closed() {
        let info = lattice(2, &[(1, 0)], 0b01);
        assert_eq!(info.initial_contexts(), vec![0b00, 0b01]);
        assert_eq!(info.extensions(0b00).collect::<Vec<_>>(), vec![0b01, 0b11]);
        assert_eq!(info.extensions(0b01).collect::<Vec<_>>(), vec![0b11]);
        assert_eq!(info.extensions(0b11).count(), 0);
    }

    #[test]
    fn count_respects_the_cap() {
        let info = lattice(6, &[], 0);
        assert_eq!(count_schedules(&info, 50), (50, true));
    }

    #[test]
    fn simultaneous_unlock_steps_are_included() {
        let info = lattice(2, &[], 0);
        assert!(
            info.extensions(0b00).any(|next| next == 0b11),
            "missing the double unlock"
        );
    }

    #[test]
    fn rule_masks() {
        let ta = two_thresholds();
        let info = GuardInfo::analyse(&ta).unwrap();
        let r1 = ta.rule_by_name("r1").unwrap();
        let r2 = ta.rule_by_name("r2").unwrap();
        assert_eq!(info.rule_mask(&ta.rules[r1.0]), 0b01);
        assert_eq!(info.rule_mask(&ta.rules[r2.0]), 0b10);
    }
}
