//! Per-schema SMT encoding, built incrementally.
//!
//! A *schema* is a sequence of segments. Within a segment the set of
//! usable rules is fixed, every usable rule fires an *accelerated*,
//! non-negative number of times (its **factor**), and rules are grouped
//! in a topological order of the location DAG. The encoding is exact
//! for the increment-only DAG class:
//!
//! * within a fixed context all enabled firings commute, so any segment
//!   of a real run can be reordered into the grouped topological form;
//! * token feasibility of the grouped form is captured by prefix-sum
//!   **availability** constraints (source counter just before a rule's
//!   block must cover its factor);
//! * shared variables and location counters at each segment boundary are
//!   linear expressions in the factors and initial counters, so guard
//!   unlocking and property evaluation are linear constraints.
//!
//! The encoding grows and shrinks **incrementally**
//! ([`push_segments`](Encoding::push_segments) /
//! [`pop_segments`](Encoding::pop_segments)): the schedule DFS of the
//! checker extends a feasible prefix one context at a time and prunes
//! entire subtrees when the prefix is already infeasible — the pruning
//! that keeps the schema count near the handful the paper reports,
//! instead of the factorial lattice size.
//!
//! Two segment flavours share the machinery: [`SegmentKind::Fixed`]
//! carries an explicit context bitmask (the enumerative strategy), and
//! [`SegmentKind::Free`] leaves the context symbolic, gating each rule
//! by a conditional `factor = 0 ∨ guard holds at segment start`
//! disjunction (the monolithic strategy).

use std::collections::HashMap;

use holistic_lia::{Constraint, Formula, LinExpr, Model, SatResult, Solver, SolverConfig, Var};
use holistic_ltl::{Prop, StateAtom};
use holistic_ta::{AtomicGuard, LocationId, RuleId, ThresholdAutomaton, VarId};

use crate::guards::{param_expr_to_lin, resilience_constraint, GuardInfo};

/// Where an encoded assertion came from — recorded per tracked assertion
/// so UNSAT cores can be projected onto schedule-lattice structure.
///
/// The split decides which cores *generalize*: a core whose members are
/// all position-independent (parameters, initial distribution,
/// availability) plus guard-entry facts of the **final** boundary
/// transfers to every sibling extension (see
/// [`Encoding::unsat_core_pattern`] for the argument); anything
/// position-specific (locked-guard-false at an intermediate boundary,
/// guard entry mid-chain) pins the core to one chain and blocks
/// generalization.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Provenance {
    /// Resilience condition over the parameters.
    Param,
    /// Initial distribution (counter sum == system size) or an
    /// `initially` proposition asserted at boundary 0.
    Init,
    /// Prefix-sum availability constraint inside segment `seg`.
    Avail {
        /// Segment index the constraint belongs to.
        seg: usize,
    },
    /// A guard newly unlocked at the entry boundary of segment `seg`
    /// must hold there.
    GuardEntry {
        /// Segment whose entry boundary carries the constraint.
        seg: usize,
        /// Guard index in [`GuardInfo`] order.
        guard: usize,
    },
    /// A still-locked guard must be false at the entry boundary of
    /// segment `seg`.
    LockedFalse {
        /// Segment whose entry boundary carries the constraint.
        seg: usize,
        /// Guard index in [`GuardInfo`] order.
        guard: usize,
    },
    /// Probe-only: a guard already unlocked in the probed prefix
    /// context, asserted to (still) hold at the probe's final boundary.
    /// Sound for monotone rise guards only — increment-only updates
    /// and non-negative guard coefficients mean the condition never
    /// decays once crossed (see
    /// [`Encoding::probe_core_pattern`]).
    GuardHeld {
        /// Guard index in [`GuardInfo`] order.
        guard: usize,
    },
}

/// How a segment's context is handled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SegmentKind {
    /// The context (bitmask of unlocked guards) is fixed by enumeration.
    Fixed(u64),
    /// The context is symbolic; rules carry conditional guard
    /// constraints.
    Free,
}

/// An incrementally growable SMT encoding of a schema prefix plus query
/// constraints.
pub struct Encoding<'a> {
    ta: &'a ThresholdAutomaton,
    info: &'a GuardInfo,
    solver: Solver,
    params: Vec<Var>,
    /// Initial counter expression per location (a variable for initial
    /// locations, the constant 0 otherwise).
    init: Vec<LinExpr>,
    /// Per segment: `(rule, factor var)` in topological firing order.
    factors: Vec<Vec<(RuleId, Var)>>,
    segments: Vec<SegmentKind>,
    /// Segment counts of each push, for popping.
    push_sizes: Vec<usize>,
    topo: Vec<RuleId>,
    banned: Vec<bool>,
    /// `counter_exprs[b][loc]` = counter of `loc` at boundary `b`.
    /// Extended by [`push_one`](Encoding::push_one), truncated by
    /// [`pop_segments`](Encoding::pop_segments); replaces the former
    /// O(boundary × rules) recomputation on every lookup.
    counter_exprs: Vec<Vec<LinExpr>>,
    /// `shared_exprs[b][v]` = value of shared variable `v` at boundary
    /// `b`; maintained like `counter_exprs`.
    shared_exprs: Vec<Vec<LinExpr>>,
    /// Query skeleton: witness propositions registered once per
    /// exploration (see
    /// [`register_query_prop`](Encoding::register_query_prop)).
    query_props: Vec<Prop>,
    /// `query_forms[s][b]` = the translated formula of query prop `s` at
    /// boundary `b`. Filled lazily: re-asserting the query at a deeper
    /// lattice node only encodes the *new* boundaries (the per-schema
    /// delta); shared-prefix boundaries replay their cached encodings.
    /// Truncated with the boundaries on [`pop_segments`], since a later
    /// push can give the same boundary index different factor variables.
    query_forms: Vec<Vec<Formula>>,
    /// Provenance per tracked assertion id. Append-only: popped ids are
    /// simply never asked for again (the solver only reports live ids),
    /// and the encoding is rebuilt wholesale often enough (tableau
    /// rebuild threshold) that the map cannot grow without bound.
    provenance: HashMap<u32, Provenance>,
    /// Inside a query level ([`push_query`](Encoding::push_query)):
    /// assertions are query-specific, not structural, and are left
    /// untracked — they never participate in feasibility cores.
    in_query: bool,
}

impl<'a> Encoding<'a> {
    /// Builds the base encoding (no segments yet): parameters and
    /// resilience, and the initial distribution over initial locations.
    ///
    /// `globally_empty` locations are forced empty for the entire run:
    /// their initial counters are zero and every rule entering or
    /// leaving them is dropped.
    ///
    /// # Panics
    ///
    /// Panics if the automaton is not a DAG (callers check this first).
    pub fn new(
        ta: &'a ThresholdAutomaton,
        info: &'a GuardInfo,
        globally_empty: &[LocationId],
        solver_config: SolverConfig,
    ) -> Encoding<'a> {
        let mut solver = Solver::with_config(solver_config);
        let mut provenance = HashMap::new();
        let params: Vec<Var> = ta
            .params
            .iter()
            .map(|p| solver.new_nonneg_var(p.clone()))
            .collect();
        for c in &ta.resilience {
            let id = solver.assert_constraint_tracked(resilience_constraint(c, &params));
            provenance.insert(id.0, Provenance::Param);
        }

        let mut banned = vec![false; ta.locations.len()];
        for l in globally_empty {
            banned[l.0] = true;
        }

        let mut init = Vec::with_capacity(ta.locations.len());
        let mut sum = LinExpr::zero();
        for (i, loc) in ta.locations.iter().enumerate() {
            if loc.initial && !banned[i] {
                let v = solver.new_nonneg_var(format!("k0_{}", loc.name));
                init.push(LinExpr::var(v));
                sum += LinExpr::var(v);
            } else {
                init.push(LinExpr::zero());
            }
        }
        let id = solver.assert_constraint_tracked(Constraint::eq(
            sum,
            param_expr_to_lin(&ta.size_expr, &params),
        ));
        provenance.insert(id.0, Provenance::Init);

        let topo = ta
            .topological_rules()
            .expect("checker requires a DAG automaton");

        let counter_exprs = vec![init.clone()];
        let shared_exprs = vec![vec![LinExpr::zero(); ta.variables.len()]];

        Encoding {
            ta,
            info,
            solver,
            params,
            init,
            factors: Vec::new(),
            segments: Vec::new(),
            push_sizes: Vec::new(),
            topo,
            banned,
            counter_exprs,
            shared_exprs,
            query_props: Vec::new(),
            query_forms: Vec::new(),
            provenance,
            in_query: false,
        }
    }

    /// Convenience: builds the base encoding and pushes all `segments`
    /// at once.
    pub fn with_segments(
        ta: &'a ThresholdAutomaton,
        info: &'a GuardInfo,
        segments: &[SegmentKind],
        globally_empty: &[LocationId],
        solver_config: SolverConfig,
    ) -> Encoding<'a> {
        let mut enc = Encoding::new(ta, info, globally_empty, solver_config);
        for &s in segments {
            enc.push_segments(s, 1);
        }
        enc
    }

    /// Appends `count` segments of the given kind, opening one solver
    /// level (popped by [`pop_segments`](Encoding::pop_segments)).
    ///
    /// For a [`SegmentKind::Fixed`] context, the guards that are newly
    /// unlocked relative to the previous segment's context must hold at
    /// the entry boundary; rules whose guards are not in the context get
    /// no factors. For [`SegmentKind::Free`], every rule gets a factor
    /// gated by a `factor = 0 ∨ guard@entry` disjunction.
    pub fn push_segments(&mut self, kind: SegmentKind, count: usize) {
        self.solver.push();
        self.push_sizes.push(count);
        for _ in 0..count {
            self.push_one(kind);
        }
    }

    fn push_one(&mut self, kind: SegmentKind) {
        let prev_ctx = self.segments.last().map(|s| match s {
            SegmentKind::Fixed(c) => *c,
            SegmentKind::Free => u64::MAX,
        });
        let si = self.push_body(kind);

        // Guard constraints at the entry boundary `si`: newly unlocked
        // guards hold there; locked guards are still false there (their
        // threshold may only be crossed *during* this segment, which is
        // exactly when the next context takes over). The locked-false
        // constraints keep the context semantics exact, which both
        // sharpens DFS pruning and lets the final context decide every
        // vocabulary atom at the tail.
        let info = self.info;
        match kind {
            SegmentKind::Fixed(ctx) => {
                let newly = match prev_ctx {
                    Some(p) if p != u64::MAX => ctx & !p,
                    Some(_) => 0, // after a Free segment nothing is "new"
                    None => ctx,
                };
                for (gi, g) in info.guards.iter().enumerate() {
                    if newly & (1 << gi) != 0 {
                        let c = self.guard_at_interned(g, si);
                        let id = self.solver.assert_tracked(Formula::atom(c));
                        self.provenance
                            .insert(id.0, Provenance::GuardEntry { seg: si, guard: gi });
                    } else if ctx & (1 << gi) == 0 {
                        let c = self.guard_at_interned(g, si);
                        let id = self.solver.assert_tracked(Formula::not(Formula::atom(c)));
                        self.provenance
                            .insert(id.0, Provenance::LockedFalse { seg: si, guard: gi });
                    }
                }
            }
            SegmentKind::Free => {
                let seg = self.factors[si].clone();
                for (r, x) in seg {
                    let rule = &self.ta.rules[r.0];
                    if rule.guard.is_true() {
                        continue;
                    }
                    let atoms = rule.guard.atoms().to_vec();
                    let holds = Formula::and(
                        atoms
                            .iter()
                            .map(|g| Formula::atom(self.guard_at_interned(g, si))),
                    );
                    let f = Formula::or([
                        Formula::atom(Constraint::le(LinExpr::var(x), LinExpr::constant(0))),
                        holds,
                    ]);
                    self.solver.assert(f);
                }
            }
        }
    }

    /// Appends one segment's factors, availability constraints, and
    /// boundary caches — everything [`push_one`](Encoding::push_one)
    /// does *except* the entry-boundary guard constraints. Returns the
    /// new segment's index. The core-pattern probe uses this directly:
    /// its system must not constrain any boundary beyond the probed
    /// unlock.
    fn push_body(&mut self, kind: SegmentKind) -> usize {
        let ta = self.ta;
        let si = self.segments.len();

        // Fresh factor variables per push. (Pooling them across
        // re-pushes of the same position looks attractive but makes the
        // simplex reuse the same few slack rows across thousands of
        // checks; accumulated pivot fill-in turns those rows dense and
        // costs far more than the variables save.)
        let mut seg_factors = Vec::new();
        for &r in &self.topo.clone() {
            let rule = &ta.rules[r.0];
            if self.banned[rule.from.0] || self.banned[rule.to.0] {
                continue;
            }
            if let SegmentKind::Fixed(ctx) = kind {
                if self.info.rule_mask(rule) & !ctx != 0 {
                    continue; // guard not unlocked in this context
                }
            }
            let v = self.solver.new_nonneg_var(format!("x{}_{}", si, rule.name));
            seg_factors.push((r, v));
        }
        self.factors.push(seg_factors);
        self.segments.push(kind);

        // Availability within the new segment. Not interned: each
        // constraint mentions this push's fresh factor variable `x`, so
        // no earlier constraint can equal it and a cache lookup never
        // hits.
        {
            let mut delta: HashMap<usize, LinExpr> = HashMap::new();
            let seg = self.factors[si].clone();
            for (r, x) in seg {
                let rule = &ta.rules[r.0];
                let (from, to) = (rule.from.0, rule.to.0);
                let mut avail = self.counter_exprs[si][from].clone();
                if let Some(d) = delta.get(&from) {
                    avail += d.clone();
                }
                let c = Constraint::ge(avail, LinExpr::var(x));
                let id = self.solver.assert_constraint_tracked(c);
                self.provenance.insert(id.0, Provenance::Avail { seg: si });
                *delta.entry(from).or_default() -= LinExpr::var(x);
                *delta.entry(to).or_default() += LinExpr::var(x);
            }
        }

        // Extend the boundary caches to boundary `si + 1`.
        let mut counters = self.counter_exprs[si].clone();
        let mut shared = self.shared_exprs[si].clone();
        for &(r, x) in &self.factors[si] {
            let rule = &ta.rules[r.0];
            counters[rule.to.0] += LinExpr::var(x);
            counters[rule.from.0] -= LinExpr::var(x);
            for &(uv, amount) in &rule.update {
                shared[uv.0] += LinExpr::term(x, amount as i128);
            }
        }
        self.counter_exprs.push(counters);
        self.shared_exprs.push(shared);
        si
    }

    /// Removes the segments added by the matching
    /// [`push_segments`](Encoding::push_segments).
    ///
    /// # Panics
    ///
    /// Panics if there is nothing to pop.
    pub fn pop_segments(&mut self) {
        let count = self.push_sizes.pop().expect("pop without push");
        self.solver.pop();
        for _ in 0..count {
            self.factors.pop();
            self.segments.pop();
        }
        self.counter_exprs.truncate(self.segments.len() + 1);
        self.shared_exprs.truncate(self.segments.len() + 1);
        for forms in &mut self.query_forms {
            forms.truncate(self.segments.len() + 1);
        }
    }

    /// The distinct fixed contexts of the pushed segments, in order
    /// (one entry per push group; segment copies within a group share a
    /// context).
    pub fn context_prefix(&self) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for s in &self.segments {
            if let SegmentKind::Fixed(c) = s {
                if out.last() != Some(c) {
                    out.push(*c);
                }
            }
        }
        out
    }

    /// The context of the last segment, if it is a fixed one.
    pub fn final_context(&self) -> Option<u64> {
        match self.segments.last() {
            Some(SegmentKind::Fixed(ctx)) => Some(*ctx),
            _ => None,
        }
    }

    /// Asserts that the run *ends* in its final context: every
    /// vocabulary guard outside the last segment's context is still
    /// false at the final boundary. (In a natural schema, a guard that
    /// flips during the last segment would have created one more
    /// boundary, so this is complete; it is what makes the final context
    /// authoritative for tail evaluation.) Only meaningful under a query
    /// level: an extension of the prefix may legitimately flip these
    /// guards.
    pub fn assert_tail_exact(&mut self) {
        let Some(ctx) = self.final_context() else {
            return;
        };
        let last = self.num_boundaries() - 1;
        let mut formulas = Vec::new();
        for (gi, g) in self.info.guards.iter().enumerate() {
            if ctx & (1 << gi) == 0 {
                formulas.push(Formula::not(Formula::atom(self.guard_at(g, last))));
            }
        }
        for f in formulas {
            self.solver.assert(f);
        }
    }

    /// Opens a solver level for query constraints.
    pub fn push_query(&mut self) {
        self.solver.push();
        self.in_query = true;
    }

    /// Closes the query level.
    pub fn pop_query(&mut self) {
        self.solver.pop();
        self.in_query = false;
    }

    /// The number of boundaries (`segments + 1`); boundary `i` is the
    /// configuration at the start of segment `i`, the last boundary the
    /// final configuration.
    pub fn num_boundaries(&self) -> usize {
        self.segments.len() + 1
    }

    /// The number of segments currently pushed.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The counter of `loc` at boundary `b`, as a linear expression
    /// (cache lookup; maintained incrementally by push/pop).
    pub fn boundary_counter(&self, b: usize, loc: LocationId) -> LinExpr {
        self.counter_exprs[b.min(self.counter_exprs.len() - 1)][loc.0].clone()
    }

    /// The value of shared variable `v` at boundary `b` (cache lookup).
    pub fn boundary_shared(&self, b: usize, v: VarId) -> LinExpr {
        self.shared_exprs[b.min(self.shared_exprs.len() - 1)][v.0].clone()
    }

    /// The constraint `guard holds at boundary b`.
    fn guard_at(&self, g: &AtomicGuard, b: usize) -> Constraint {
        let mut lhs = LinExpr::zero();
        for (v, c) in g.lhs.iter() {
            lhs += self.boundary_shared(b, v).scale(holistic_lia::Rat::from(c));
        }
        let rhs = param_expr_to_lin(&g.rhs, &self.params);
        match g.cmp {
            holistic_ta::GuardCmp::Ge => Constraint::ge(lhs, rhs),
            holistic_ta::GuardCmp::Lt => Constraint::lt(lhs, rhs),
        }
    }

    /// [`guard_at`](Encoding::guard_at) through the solver's constraint
    /// interner: the same guard atom at the same boundary recurs on
    /// every re-push of a shared prefix and in every property's query.
    fn guard_at_interned(&mut self, g: &AtomicGuard, b: usize) -> Constraint {
        let mut lhs = LinExpr::zero();
        for (v, c) in g.lhs.iter() {
            lhs += self.boundary_shared(b, v).scale(holistic_lia::Rat::from(c));
        }
        let rhs = param_expr_to_lin(&g.rhs, &self.params);
        match g.cmp {
            holistic_ta::GuardCmp::Ge => self.solver.interner().ge(lhs, rhs),
            holistic_ta::GuardCmp::Lt => self.solver.interner().lt(lhs, rhs),
        }
    }

    /// Translates a state proposition at boundary `b` into a solver
    /// formula.
    pub fn prop_at(&self, prop: &Prop, b: usize) -> Formula {
        match prop {
            Prop::True => Formula::True,
            Prop::False => Formula::False,
            Prop::Atom(StateAtom::LocEmpty(l)) => Formula::atom(Constraint::eq(
                self.boundary_counter(b, *l),
                LinExpr::constant(0),
            )),
            Prop::Atom(StateAtom::LocNonEmpty(l)) => Formula::atom(Constraint::ge(
                self.boundary_counter(b, *l),
                LinExpr::constant(1),
            )),
            Prop::Atom(StateAtom::Guard(g)) => Formula::atom(self.guard_at(g, b)),
            Prop::Atom(StateAtom::NotGuard(g)) => Formula::not(Formula::atom(self.guard_at(g, b))),
            Prop::And(ps) => Formula::and(ps.iter().map(|p| self.prop_at(p, b))),
            Prop::Or(ps) => Formula::or(ps.iter().map(|p| self.prop_at(p, b))),
        }
    }

    /// Asserts a proposition at a specific boundary.
    ///
    /// Outside a query level this is structural (the `initially`
    /// proposition at boundary 0) and is tracked with [`Provenance::Init`]
    /// so it can participate in generalized UNSAT cores.
    pub fn assert_prop_at(&mut self, prop: &Prop, b: usize) {
        let f = self.prop_at(prop, b);
        if self.in_query || b != 0 {
            self.solver.assert(f);
        } else {
            let id = self.solver.assert_tracked(f);
            self.provenance.insert(id.0, Provenance::Init);
        }
    }

    /// Asserts that a proposition holds at *some* boundary, one
    /// disjunct per boundary in index order.
    pub fn assert_prop_somewhere(&mut self, prop: &Prop) {
        let f = Formula::or((0..self.num_boundaries()).map(|b| self.prop_at(prop, b)));
        self.solver.assert(f);
    }

    /// Registers a query proposition once per exploration, returning its
    /// slot index. The per-boundary translations of registered props are
    /// cached across schemas, so re-asserting the query at every lattice
    /// node only encodes the boundaries that are new since the last
    /// assert (the per-schema delta).
    pub fn register_query_prop(&mut self, prop: &Prop) -> usize {
        self.query_props.push(prop.clone());
        self.query_forms.push(Vec::new());
        self.query_props.len() - 1
    }

    /// Number of registered query propositions.
    pub fn num_query_props(&self) -> usize {
        self.query_props.len()
    }

    /// The cached translation of query prop `slot` at boundary `b`,
    /// encoding any missing boundaries first.
    fn query_form(&mut self, slot: usize, b: usize) -> Formula {
        if self.query_forms[slot].len() <= b {
            // Detach the prop so `prop_at(&self)` can run while we push
            // into the cache.
            let prop = std::mem::replace(&mut self.query_props[slot], Prop::True);
            while self.query_forms[slot].len() <= b {
                let nb = self.query_forms[slot].len();
                let f = self.prop_at(&prop, nb);
                self.query_forms[slot].push(f);
            }
            self.query_props[slot] = prop;
        }
        self.query_forms[slot][b].clone()
    }

    /// [`assert_prop_somewhere`](Encoding::assert_prop_somewhere) for a
    /// registered query prop, reusing the cached per-boundary encodings.
    pub fn assert_query_prop_somewhere(&mut self, slot: usize) {
        let f = Formula::or((0..self.num_boundaries()).map(|b| self.query_form(slot, b)));
        self.solver.assert(f);
    }

    /// Runs the solver.
    pub fn check(&mut self) -> SatResult {
        self.solver.check()
    }

    /// After an `Unsat` feasibility check of a fully Fixed chain:
    /// extracts a minimal UNSAT core and, when its provenance permits,
    /// generalizes it into a **core pattern** `(M, Δ)` meaning
    ///
    /// > no chain of this exploration whose contexts are all `⊆ M` can
    /// > be extended by a step that newly unlocks `Δ` (or any superset).
    ///
    /// Here `M` is the context preceding the final push group and `Δ`
    /// the guard bits of the core's final-entry constraints.
    ///
    /// **Why this transfers** (contrapositive): suppose some attempt
    /// chain with previous mask `M' ⊆ M` and unlock set `Δ' ⊇ Δ` were
    /// feasible. Its witness run fires, before its final boundary, only
    /// rules whose guards sit inside contexts `⊆ M' ⊆ M` — so the whole
    /// pre-final firing multiset is executable within the *single*
    /// original segment of context `M` (all the rules exist there and
    /// within one context firings commute into grouped topological
    /// order, which is exactly what the availability constraints of one
    /// segment capture). Assign those aggregated factors to the original
    /// chain's segment `M`, zero everywhere else. Every core member is
    /// then satisfied: `Param`/`Init` are chain-independent; `Avail` in
    /// pre-final segments holds because the attempt's run is executable
    /// from the same initial distribution (zero-factor segments are
    /// trivially available); `Avail` in the final segment has zero usage;
    /// and each `GuardEntry` of `Δ` at the final boundary evaluates on
    /// shared values equal to the attempt's final-boundary values, where
    /// the attempt itself asserts the guard holds (since `Δ ⊆ Δ'`). That
    /// satisfies the core — contradicting its verified infeasibility.
    /// Hence every such attempt is infeasible, over ℤ as well (the
    /// argument never relaxes to ℚ).
    ///
    /// Anything position-specific in the core blocks generalization and
    /// yields `None`: `LockedFalse` (the locked set differs across
    /// sibling chains) and `GuardEntry` at non-final boundaries (the
    /// attempt never asserts those facts).
    pub fn unsat_core_pattern(&mut self) -> Option<(u64, u64)> {
        let copies = *self.push_sizes.last()?;
        let final_entry = self.segments.len().checked_sub(copies)?;
        let prev_mask = if final_entry == 0 {
            0
        } else {
            match self.segments[final_entry - 1] {
                SegmentKind::Fixed(m) => m,
                SegmentKind::Free => return None,
            }
        };
        if self.segments.iter().any(|s| matches!(s, SegmentKind::Free)) {
            return None;
        }
        let core = self.solver.unsat_core()?;
        let mut delta = 0u64;
        for id in core {
            match self.provenance.get(&id.0)? {
                Provenance::Param | Provenance::Init => {}
                Provenance::Avail { .. } => {}
                Provenance::GuardEntry { seg, guard } if *seg == final_entry => {
                    delta |= 1 << *guard;
                }
                // Position-specific: pinned to this exact chain.
                // (`GuardHeld` never appears in chain encodings, only
                // in probes; refuse it defensively all the same.)
                Provenance::GuardEntry { .. }
                | Provenance::LockedFalse { .. }
                | Provenance::GuardHeld { .. } => return None,
            }
        }
        // A core that never mentions the new unlock cannot blame the
        // extension; the prefix was feasible, so such a core should not
        // arise — refuse to learn from it rather than over-prune.
        if delta == 0 {
            return None;
        }
        Some((prev_mask, delta))
    }

    /// Probes the **generalized** infeasibility of one extension step,
    /// independent of any particular chain: from a valid initial
    /// distribution, fire any multiset of rules available under `prev`,
    /// assert that `prev`'s own (monotone) guard conditions hold at the
    /// resulting boundary, and demand that `newly`'s guards hold there
    /// too. Returns a **tri-pattern** `(mask, held, Δ)` meaning
    ///
    /// > no chain whose contexts are all `⊆ mask` and whose final
    /// > context contains `held` can be extended by a step newly
    /// > unlocking `Δ` (or any superset).
    ///
    /// This is the least-constrained system the tri-pattern semantics
    /// quantifies over. Any feasible attempt with previous context
    /// `held ⊆ P ⊆ mask` and unlock set `⊇ Δ` yields a solution: the
    /// attempt's pre-final firings all sit in contexts `⊆ P ⊆ mask`, so
    /// they aggregate into the single probe segment exactly as in the
    /// [`unsat_core_pattern`](Encoding::unsat_core_pattern) transfer
    /// argument, and the probe boundary carries the attempt's own
    /// final-boundary shared values. Each `held` guard is satisfied
    /// there **by monotonicity**: `held ⊆ P` means the attempt asserted
    /// the guard at its unlock boundary, updates only ever increment
    /// shared counters, and held guards are restricted to `≥` guards
    /// with non-negative counter coefficients — so once crossed the
    /// condition persists to every later boundary, the final one
    /// included. Hence `Unsat` licenses the tri-pattern outright.
    ///
    /// The probe's Farkas certificate supplies the minimal `held` and
    /// `Δ` (only certificate members are kept, so the pattern is as
    /// general as this probe can prove): `held = 0` degenerates to the
    /// pair-pattern of earlier revisions, while a non-zero `held`
    /// captures the parametric conflicts — final-boundary threshold
    /// clashes between an already-crossed guard and the newly demanded
    /// one — that the unstrengthened probe reports as satisfiable.
    ///
    /// Must be called on a base encoding (no segments pushed, no query
    /// asserts); consumes the encoding's solver state. Returns `None`
    /// when the probe is satisfiable, the certificate is unavailable,
    /// or `newly` is empty.
    pub fn probe_core_pattern(&mut self, prev: u64, newly: u64) -> Option<(u64, u64, u64)> {
        debug_assert!(
            self.segments.is_empty() && !self.in_query,
            "the probe needs a pristine base encoding"
        );
        self.probe_core_pattern_inner(prev, newly)
    }

    /// Appends one guard-constraint-free segment available under `ctx`
    /// to a base encoding. The query probe builds its aggregated
    /// single-segment system with this: asserting entry guards would
    /// wrongly restrict which runs the probe quantifies over.
    pub(crate) fn push_probe_segment(&mut self, ctx: u64) {
        debug_assert!(
            self.segments.is_empty() && !self.in_query,
            "the probe needs a pristine base encoding"
        );
        self.push_body(SegmentKind::Fixed(ctx));
    }

    /// Guards whose truth is monotone along any run: `≥` comparisons
    /// whose counter coefficients are all non-negative. Increment-only
    /// updates make every shared counter non-decreasing, so such a
    /// guard can only flip false → true. (Fall guards are rejected
    /// upstream, but mixed-sign coefficients must be excluded here.)
    fn monotone_guards(&self) -> u64 {
        let mut mask = 0u64;
        for (gi, g) in self.info.guards.iter().enumerate() {
            if g.cmp == holistic_ta::GuardCmp::Ge && g.lhs.iter().all(|(_, c)| c >= 0) {
                mask |= 1 << gi;
            }
        }
        mask
    }

    fn probe_core_pattern_inner(&mut self, prev: u64, newly: u64) -> Option<(u64, u64, u64)> {
        if newly == 0 {
            return None;
        }
        if prev != 0 {
            self.push_body(SegmentKind::Fixed(prev));
        }
        let boundary = self.segments.len();
        let monotone = self.monotone_guards();
        let info = self.info;
        for (gi, g) in info.guards.iter().enumerate() {
            if newly & (1 << gi) != 0 {
                let c = self.guard_at_interned(g, boundary);
                let id = self.solver.assert_tracked(Formula::atom(c));
                self.provenance.insert(
                    id.0,
                    Provenance::GuardEntry {
                        seg: boundary,
                        guard: gi,
                    },
                );
            } else if prev & monotone & (1 << gi) != 0 {
                // An already-unlocked monotone guard still holds at the
                // final boundary of any attempt whose previous context
                // contains it; asserting it sharpens the probe without
                // narrowing what a `held`-conditioned pattern prunes.
                let c = self.guard_at_interned(g, boundary);
                let id = self.solver.assert_tracked(Formula::atom(c));
                self.provenance
                    .insert(id.0, Provenance::GuardHeld { guard: gi });
            }
        }
        if !matches!(self.solver.check(), SatResult::Unsat) {
            return None;
        }
        let core = self.solver.unsat_core()?;
        let mut held = 0u64;
        let mut delta = 0u64;
        for id in core {
            match self.provenance.get(&id.0)? {
                Provenance::GuardEntry { guard, .. } => delta |= 1 << *guard,
                Provenance::GuardHeld { guard } => held |= 1 << *guard,
                _ => {}
            }
        }
        // Without the unlock asserts the system is satisfiable (fire
        // nothing — the `held` asserts alone are met by some feasible
        // prefix, or no such prefix survives to attempt the step), so a
        // sound core must mention them; refuse to learn from one that
        // does not rather than over-prune.
        if delta == 0 {
            return None;
        }
        Some((prev, held, delta))
    }

    /// Solver statistics.
    pub fn solver_stats(&self) -> holistic_lia::SolverStats {
        self.solver.stats()
    }

    /// (rows, vars) of the underlying tableau (a size statistic).
    pub fn tableau_size(&self) -> (usize, usize) {
        self.solver.tableau_size()
    }

    /// Extracts the witness run from a model.
    pub fn extract(&self, model: &Model) -> SymbolicRun {
        let params: Vec<i64> = self.params.iter().map(|&v| model.value(v) as i64).collect();
        let init: Vec<i64> = self
            .init
            .iter()
            .map(|e| {
                model
                    .eval(e)
                    .to_integer()
                    .expect("integral initial counters") as i64
            })
            .collect();
        let steps: Vec<Vec<(RuleId, u64)>> = self
            .factors
            .iter()
            .map(|seg| {
                seg.iter()
                    .filter_map(|&(r, x)| {
                        let v = model.value(x);
                        if v > 0 {
                            Some((r, v as u64))
                        } else {
                            None
                        }
                    })
                    .collect()
            })
            .collect();
        SymbolicRun {
            params,
            init,
            steps,
        }
    }

    /// The number of factor variables (a size statistic).
    pub fn num_factors(&self) -> usize {
        self.factors.iter().map(Vec::len).sum()
    }
}

/// A witness run extracted from a satisfying model: parameter values,
/// initial distribution, and per-segment accelerated firings.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SymbolicRun {
    /// Concrete parameter values.
    pub params: Vec<i64>,
    /// Initial counter per location.
    pub init: Vec<i64>,
    /// Per segment: `(rule, times)` in firing order.
    pub steps: Vec<Vec<(RuleId, u64)>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_lia::SolverConfig;
    use holistic_ta::{Guard, ParamExpr, TaBuilder, VarExpr};

    /// V --r1/x++--> A --r2 (x ≥ n−f)--> D.
    fn chain() -> ThresholdAutomaton {
        let mut b = TaBuilder::new("chain");
        let n = b.param("n");
        let f = b.param("f");
        b.resilience_gt(n, f, 1);
        b.size_n_minus_f(n, f);
        let x = b.shared("x");
        let v = b.initial_location("V");
        let a = b.location("A");
        let d = b.final_location("D");
        b.rule("r1", v, a, Guard::always()).inc(x, 1);
        let mut thresh = ParamExpr::param(n);
        thresh.add_term(f, -1);
        b.rule(
            "r2",
            a,
            d,
            Guard::atom(AtomicGuard::ge(VarExpr::var(x), thresh)),
        );
        b.build().unwrap()
    }

    #[test]
    fn reachability_of_final_location() {
        let ta = chain();
        let info = GuardInfo::analyse(&ta).unwrap();
        // Schedule: ∅ then {x >= n-f}.
        let segments = [SegmentKind::Fixed(0), SegmentKind::Fixed(1)];
        let mut enc = Encoding::with_segments(&ta, &info, &segments, &[], SolverConfig::default());
        let d = ta.location_by_name("D").unwrap();
        enc.assert_prop_at(&Prop::loc_nonempty(d), 2);
        let r = enc.check();
        let model = r.model().expect("D is reachable");
        let run = enc.extract(model);
        // Everyone must broadcast before anyone delivers.
        let total_r1: u64 = run.steps[0]
            .iter()
            .chain(run.steps[1].iter())
            .filter(|(r, _)| ta.rules[r.0].name == "r1")
            .map(|&(_, k)| k)
            .sum();
        assert!(total_r1 as i64 >= run.params[0] - run.params[1]);
    }

    #[test]
    fn unreachable_without_unlock() {
        let ta = chain();
        let info = GuardInfo::analyse(&ta).unwrap();
        // Only the empty context: r2 never enabled.
        let segments = [SegmentKind::Fixed(0)];
        let mut enc = Encoding::with_segments(&ta, &info, &segments, &[], SolverConfig::default());
        let d = ta.location_by_name("D").unwrap();
        enc.assert_prop_at(&Prop::loc_nonempty(d), 1);
        assert!(enc.check().is_unsat());
    }

    #[test]
    fn push_pop_segments_restore_state() {
        let ta = chain();
        let info = GuardInfo::analyse(&ta).unwrap();
        let mut enc = Encoding::new(&ta, &info, &[], SolverConfig::default());
        enc.push_segments(SegmentKind::Fixed(0), 1);
        assert_eq!(enc.num_segments(), 1);
        // Query at the one-segment stage: D unreachable.
        let d = ta.location_by_name("D").unwrap();
        enc.push_query();
        enc.assert_prop_at(&Prop::loc_nonempty(d), 1);
        assert!(enc.check().is_unsat());
        enc.pop_query();
        // Extend: now reachable.
        enc.push_segments(SegmentKind::Fixed(1), 1);
        assert_eq!(enc.num_segments(), 2);
        enc.push_query();
        enc.assert_prop_at(&Prop::loc_nonempty(d), 2);
        assert!(enc.check().is_sat());
        enc.pop_query();
        // Pop back: unreachable again.
        enc.pop_segments();
        assert_eq!(enc.num_segments(), 1);
        enc.push_query();
        enc.assert_prop_at(&Prop::loc_nonempty(d), 1);
        assert!(enc.check().is_unsat());
        enc.pop_query();
    }

    #[test]
    fn free_segments_reach_final_location() {
        let ta = chain();
        let info = GuardInfo::analyse(&ta).unwrap();
        let segments = [SegmentKind::Free, SegmentKind::Free];
        let mut enc = Encoding::with_segments(&ta, &info, &segments, &[], SolverConfig::default());
        let d = ta.location_by_name("D").unwrap();
        enc.assert_prop_at(&Prop::loc_nonempty(d), 2);
        assert!(enc.check().is_sat());
    }

    #[test]
    fn free_segments_respect_guards() {
        let ta = chain();
        let info = GuardInfo::analyse(&ta).unwrap();
        let segments = [SegmentKind::Free];
        let mut enc = Encoding::with_segments(&ta, &info, &segments, &[], SolverConfig::default());
        // A single segment cannot both raise x and use the raised value:
        // the guard is evaluated at the segment start where x = 0 < n-f.
        let d = ta.location_by_name("D").unwrap();
        enc.assert_prop_at(&Prop::loc_nonempty(d), 1);
        assert!(enc.check().is_unsat());
    }

    #[test]
    fn globally_empty_blocks_routes() {
        let ta = chain();
        let info = GuardInfo::analyse(&ta).unwrap();
        let a = ta.location_by_name("A").unwrap();
        let d = ta.location_by_name("D").unwrap();
        let segments = [SegmentKind::Fixed(0), SegmentKind::Fixed(1)];
        let mut enc = Encoding::with_segments(&ta, &info, &segments, &[a], SolverConfig::default());
        enc.assert_prop_at(&Prop::loc_nonempty(d), 2);
        assert!(enc.check().is_unsat(), "route through A is banned");
    }

    #[test]
    fn availability_prevents_token_overdraft() {
        let ta = chain();
        let info = GuardInfo::analyse(&ta).unwrap();
        let segments = [SegmentKind::Fixed(0), SegmentKind::Fixed(1)];
        let mut enc = Encoding::with_segments(&ta, &info, &segments, &[], SolverConfig::default());
        let a = ta.location_by_name("A").unwrap();
        let d = ta.location_by_name("D").unwrap();
        // More processes in A ∪ D than exist: impossible.
        let total = enc.boundary_counter(2, a) + enc.boundary_counter(2, d);
        let n_minus_f = {
            let mut e = ParamExpr::param(holistic_ta::ParamId(0));
            e.add_term(holistic_ta::ParamId(1), -1);
            param_expr_to_lin(&e, &enc.params)
        };
        enc.solver
            .assert_constraint(Constraint::gt(total, n_minus_f));
        assert!(enc.check().is_unsat());
    }

    #[test]
    fn prop_somewhere_finds_intermediate_state() {
        let ta = chain();
        let info = GuardInfo::analyse(&ta).unwrap();
        let segments = [SegmentKind::Fixed(0), SegmentKind::Fixed(1)];
        let mut enc = Encoding::with_segments(&ta, &info, &segments, &[], SolverConfig::default());
        let a = ta.location_by_name("A").unwrap();
        enc.assert_prop_somewhere(&Prop::loc_nonempty(a));
        assert!(enc.check().is_sat());
    }
}
