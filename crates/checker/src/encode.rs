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
//! * token feasibility of the grouped form is captured by one
//!   **availability** row per source location `L` of the segment: `L`'s
//!   counter at the segment's *end* boundary is non-negative. Rules are
//!   grouped in the topological order of their source locations, so
//!   every rule into `L` fires before any rule out of `L`, and `L`'s
//!   counter only falls once its first outflow starts. With every factor
//!   non-negative, the end of `L`'s last outflow block is therefore its
//!   lowest point, and the end-of-segment row implies the per-rule
//!   condition (the source counter just before a rule's block covers its
//!   factor) for every outflow of `L`; conversely it *is* that condition
//!   for the last outflow. The feasible set is the per-rule one, with one
//!   row per location instead of one per rule;
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

use holistic_lia::{
    AssertId, Constraint, Formula, LinExpr, Model, SatResult, Solver, SolverConfig, Var,
};
use holistic_ltl::{Prop, StateAtom};
use holistic_ta::{AtomicGuard, LocationId, RuleId, ThresholdAutomaton, VarId};

use crate::guards::{param_expr_to_lin, resilience_constraint, GuardInfo};

/// Where an encoded assertion came from — recorded per tracked assertion
/// so UNSAT cores can be projected onto schedule-lattice structure.
///
/// Cores come only from the core-pattern probe
/// ([`Encoding::probe_core_pattern`]), which projects a core onto its
/// guard facts: the unlocked guards it blames ([`GuardEntry`]) and the
/// already-crossed guards it relies on ([`GuardHeld`]). The
/// position-independent members (parameters, initial distribution,
/// availability) transfer to every sibling extension as they are.
/// Chain encodings assert their entry-boundary guard facts untracked:
/// no core is ever taken from them.
///
/// [`GuardEntry`]: Provenance::GuardEntry
/// [`GuardHeld`]: Provenance::GuardHeld
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Provenance {
    /// Resilience condition over the parameters.
    Param,
    /// Initial distribution (counter sum == system size) or an
    /// `initially` proposition asserted at boundary 0.
    Init,
    /// Availability row of segment `seg`: a source location's counter
    /// at the segment's end boundary is non-negative.
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
    /// Per segment: its context (bitmask of unlocked guards).
    segments: Vec<u64>,
    /// Per push: its segment count and the length `provenance` had
    /// before it, for popping.
    push_sizes: Vec<(usize, usize)>,
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
    /// Provenance per tracked assertion id, in ascending id order (the
    /// solver hands ids out monotonically). A pop truncates the entries
    /// of its level, so the list holds the live assertions only.
    provenance: Vec<(u32, Provenance)>,
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
        let mut provenance = Vec::new();
        let params: Vec<Var> = ta
            .params
            .iter()
            .map(|p| solver.new_nonneg_var(p.clone()))
            .collect();
        for c in &ta.resilience {
            let id = solver.assert_constraint_tracked(resilience_constraint(c, &params));
            provenance.push((id.0, Provenance::Param));
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
        provenance.push((id.0, Provenance::Init));

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

    /// Appends `count` segments in context `ctx` (bitmask of unlocked
    /// guards), opening one solver level (popped by
    /// [`pop_segments`](Encoding::pop_segments)).
    ///
    /// The guards that are newly unlocked relative to the previous
    /// segment's context must hold at the entry boundary; rules whose
    /// guards are not in the context get no factors.
    pub fn push_segments(&mut self, ctx: u64, count: usize) {
        self.solver.push();
        self.push_sizes.push((count, self.provenance.len()));
        for _ in 0..count {
            self.push_one(ctx);
        }
    }

    fn push_one(&mut self, ctx: u64) {
        let newly = ctx & !self.segments.last().copied().unwrap_or(0);
        let si = self.push_body(ctx);

        // Guard constraints at the entry boundary `si`: newly unlocked
        // guards hold there; locked guards are still false there (their
        // threshold may only be crossed *during* this segment, which is
        // exactly when the next context takes over). The locked-false
        // constraints keep the context semantics exact, which both
        // sharpens DFS pruning and lets the final context decide every
        // vocabulary atom at the tail.
        let info = self.info;
        for (gi, g) in info.guards.iter().enumerate() {
            if newly & (1 << gi) != 0 {
                let c = self.guard_at_interned(g, si);
                self.solver.assert(Formula::atom(c));
            } else if ctx & (1 << gi) == 0 {
                let c = self.guard_at_interned(g, si);
                self.solver.assert(Formula::not(Formula::atom(c)));
            }
        }
    }

    /// Appends one segment's factors, availability constraints, and
    /// boundary caches — everything [`push_one`](Encoding::push_one)
    /// does *except* the entry-boundary guard constraints. Returns the
    /// new segment's index. The core-pattern probe uses this directly:
    /// its system must not constrain any boundary beyond the probed
    /// unlock.
    fn push_body(&mut self, ctx: u64) -> usize {
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
            if self.info.rule_mask(rule) & !ctx != 0 {
                continue; // guard not unlocked in this context
            }
            let v = self.solver.new_nonneg_var(format!("x{}_{}", si, rule.name));
            seg_factors.push((r, v));
        }
        self.factors.push(seg_factors);
        self.segments.push(ctx);

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

        // Availability: each source location's counter at the segment's
        // end boundary is non-negative (see the module docs for why this
        // one row per location suffices). Factors are grouped by source,
        // so each source appears in one run. Not interned: each row
        // mentions this push's fresh factor variables, so no earlier
        // constraint can equal it and a cache lookup never hits.
        let mut last_source = None;
        for &(r, _) in &self.factors[si] {
            let from = ta.rules[r.0].from.0;
            if last_source == Some(from) {
                continue;
            }
            last_source = Some(from);
            let c = Constraint::ge(counters[from].clone(), LinExpr::zero());
            let id = self.solver.assert_constraint_tracked(c);
            self.provenance.push((id.0, Provenance::Avail { seg: si }));
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
        let (count, provenance) = self.push_sizes.pop().expect("pop without push");
        self.solver.pop();
        self.provenance.truncate(provenance);
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

    /// Where live tracked assertion `id` came from.
    fn provenance_of(&self, id: AssertId) -> Option<&Provenance> {
        let i = self.provenance.partition_point(|&(k, _)| k < id.0);
        self.provenance.get(i).filter(|p| p.0 == id.0).map(|p| &p.1)
    }

    /// The context of the last segment, if any.
    pub fn final_context(&self) -> Option<u64> {
        self.segments.last().copied()
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

    /// The number of [`push_segments`](Encoding::push_segments) groups
    /// currently pushed (each popped by one
    /// [`pop_segments`](Encoding::pop_segments)).
    pub(crate) fn num_pushes(&self) -> usize {
        self.push_sizes.len()
    }

    /// The counter of `loc` at boundary `b`, as a linear expression
    /// (cache lookup; maintained incrementally by push/pop).
    fn boundary_counter(&self, b: usize, loc: LocationId) -> LinExpr {
        self.counter_exprs[b.min(self.counter_exprs.len() - 1)][loc.0].clone()
    }

    /// The value of shared variable `v` at boundary `b` (cache lookup).
    fn boundary_shared(&self, b: usize, v: VarId) -> LinExpr {
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
    fn prop_at(&self, prop: &Prop, b: usize) -> Formula {
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
            self.provenance.push((id.0, Provenance::Init));
        }
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

    /// Asserts that registered query prop `slot` holds at *some*
    /// boundary, one disjunct per boundary in index order, reusing the
    /// cached per-boundary encodings.
    pub fn assert_query_prop_somewhere(&mut self, slot: usize) {
        let f = Formula::or((0..self.num_boundaries()).map(|b| self.query_form(slot, b)));
        self.solver.assert(f);
    }

    /// Runs the solver.
    pub fn check(&mut self) -> SatResult {
        self.solver.check()
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
    /// `held ⊆ P ⊆ mask` and unlock set `⊇ Δ` yields a solution:
    ///
    /// * **Aggregation.** The attempt's witness run fires, before its
    ///   final boundary, only rules whose guards sit inside contexts
    ///   `⊆ P ⊆ mask`. So the whole pre-final firing multiset is
    ///   executable within the single probe segment of context `mask`:
    ///   all the rules exist there, and within one context firings
    ///   commute into grouped topological order, which is exactly what
    ///   the availability rows of one segment capture. Assign those
    ///   aggregated factors to the probe segment.
    /// * **Every core member holds.** Parameter and initial-distribution
    ///   rows are chain-independent; availability holds because the
    ///   attempt's run is executable from the same initial
    ///   distribution; and each unlock assert of `Δ` evaluates on shared
    ///   values equal to the attempt's final-boundary values, where the
    ///   attempt itself asserts the guard holds (since `Δ` is a subset
    ///   of its unlock set). The argument never relaxes to ℚ, so the
    ///   infeasibility holds over ℤ as well.
    /// * **Held guards hold by monotonicity.** `held ⊆ P` means the
    ///   attempt asserted each `held` guard at its unlock boundary,
    ///   updates only ever increment shared counters, and held guards
    ///   are restricted to `≥` guards with non-negative counter
    ///   coefficients — so once crossed the condition persists to every
    ///   later boundary, the final one included.
    ///
    /// Hence `Unsat` licenses the tri-pattern outright.
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
        self.push_body(ctx);
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
            self.push_body(prev);
        }
        let boundary = self.segments.len();
        let monotone = self.monotone_guards();
        let info = self.info;
        for (gi, g) in info.guards.iter().enumerate() {
            if newly & (1 << gi) != 0 {
                let c = self.guard_at_interned(g, boundary);
                let id = self.solver.assert_tracked(Formula::atom(c));
                self.provenance.push((
                    id.0,
                    Provenance::GuardEntry {
                        seg: boundary,
                        guard: gi,
                    },
                ));
            } else if prev & monotone & (1 << gi) != 0 {
                // An already-unlocked monotone guard still holds at the
                // final boundary of any attempt whose previous context
                // contains it; asserting it sharpens the probe without
                // narrowing what a `held`-conditioned pattern prunes.
                let c = self.guard_at_interned(g, boundary);
                let id = self.solver.assert_tracked(Formula::atom(c));
                self.provenance
                    .push((id.0, Provenance::GuardHeld { guard: gi }));
            }
        }
        if !matches!(self.solver.check(), SatResult::Unsat) {
            return None;
        }
        let core = self.solver.unsat_core()?;
        let mut held = 0u64;
        let mut delta = 0u64;
        for id in core {
            match self.provenance_of(id)? {
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

    impl<'a> Encoding<'a> {
        /// Builds the base encoding and pushes one segment per context
        /// in `segments`.
        fn with_segments(
            ta: &'a ThresholdAutomaton,
            info: &'a GuardInfo,
            segments: &[u64],
            globally_empty: &[LocationId],
            solver_config: SolverConfig,
        ) -> Encoding<'a> {
            let mut enc = Encoding::new(ta, info, globally_empty, solver_config);
            for &ctx in segments {
                enc.push_segments(ctx, 1);
            }
            enc
        }
    }

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
        let segments = [0, 1];
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
        let segments = [0];
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
        enc.push_segments(0, 1);
        assert_eq!(enc.num_segments(), 1);
        // Query at the one-segment stage: D unreachable.
        let d = ta.location_by_name("D").unwrap();
        enc.push_query();
        enc.assert_prop_at(&Prop::loc_nonempty(d), 1);
        assert!(enc.check().is_unsat());
        enc.pop_query();
        // Extend: now reachable.
        enc.push_segments(1, 1);
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
    fn globally_empty_blocks_routes() {
        let ta = chain();
        let info = GuardInfo::analyse(&ta).unwrap();
        let a = ta.location_by_name("A").unwrap();
        let d = ta.location_by_name("D").unwrap();
        let segments = [0, 1];
        let mut enc = Encoding::with_segments(&ta, &info, &segments, &[a], SolverConfig::default());
        enc.assert_prop_at(&Prop::loc_nonempty(d), 2);
        assert!(enc.check().is_unsat(), "route through A is banned");
    }

    #[test]
    fn availability_prevents_token_overdraft() {
        let ta = chain();
        let info = GuardInfo::analyse(&ta).unwrap();
        let segments = [0, 1];
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

    /// The per-rule prefix-sum form of segment `seg`'s availability,
    /// rebuilt from its factors and entry boundary: before rule `k`'s
    /// block, `k`'s source counter (entry value plus the net flow of the
    /// rules before `k`) covers `k`'s factor. Returned as
    /// `(available, factor)` pairs.
    fn per_rule_availability(enc: &Encoding<'_>, seg: usize) -> Vec<(LinExpr, Var)> {
        let mut counters = enc.counter_exprs[seg].clone();
        let mut rows = Vec::new();
        for &(r, x) in &enc.factors[seg] {
            let rule = &enc.ta.rules[r.0];
            rows.push((counters[rule.from.0].clone(), x));
            counters[rule.from.0] -= LinExpr::var(x);
            counters[rule.to.0] += LinExpr::var(x);
        }
        rows
    }

    /// One availability row per source location is equivalent to the
    /// per-rule prefix sums, on random DAG automata and random context
    /// chains with one to three copies per context: the encoding's own
    /// system refutes the negation of every per-rule row, and the
    /// per-rule rows alone refute the negation of every per-location
    /// row.
    #[test]
    fn location_availability_equals_per_rule_prefix_sums() {
        use holistic_mutate::generator::random_ta;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut checks = 0usize;
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let ta = random_ta(&mut rng);
            let info = GuardInfo::analyse(&ta).expect("random automata analyse");
            let full = (1u64 << info.len()) - 1;
            let copies = rng.gen_range(1..=3);
            let mut enc = Encoding::new(&ta, &info, &[], SolverConfig::default());
            let mut ctx = 0u64;
            for _ in 0..rng.gen_range(1..=3) {
                ctx |= rng.gen::<u64>() & full;
                for _ in 0..copies {
                    enc.push_body(ctx);
                }
            }

            // The per-rule rows alone, over the encoding's variables,
            // all non-negative as in the encoding. The factors are the
            // newest variables the rows mention.
            let mut old = Solver::new();
            let vars = enc.factors.iter().flatten().map(|&(_, x)| x.index() + 1);
            for i in 0..vars.max().unwrap_or(0) {
                old.new_nonneg_var(format!("v{i}"));
            }
            let per_rule: Vec<_> = (0..enc.num_segments())
                .map(|seg| per_rule_availability(&enc, seg))
                .collect();
            for (avail, x) in per_rule.iter().flatten() {
                old.assert_constraint(Constraint::ge(avail.clone(), LinExpr::var(*x)));
            }

            for (seg, rows) in per_rule.iter().enumerate() {
                for (avail, x) in rows {
                    enc.solver.push();
                    enc.solver
                        .assert_constraint(Constraint::lt(avail.clone(), LinExpr::var(*x)));
                    assert!(
                        enc.check().is_unsat(),
                        "seed {seed}: segment {seg} does not imply the row of {x}"
                    );
                    enc.solver.pop();
                    checks += 1;
                }
                let mut sources: Vec<usize> = enc.factors[seg]
                    .iter()
                    .map(|&(r, _)| ta.rules[r.0].from.0)
                    .collect();
                sources.dedup();
                for l in sources {
                    old.push();
                    old.assert_constraint(Constraint::lt(
                        enc.counter_exprs[seg + 1][l].clone(),
                        LinExpr::zero(),
                    ));
                    assert!(
                        old.check().is_unsat(),
                        "seed {seed}: per-rule rows of segment {seg} do not imply location {l}"
                    );
                    old.pop();
                    checks += 1;
                }
            }
        }
        assert!(checks > 200, "too few rows compared: {checks}");
    }

    #[test]
    fn prop_somewhere_finds_intermediate_state() {
        let ta = chain();
        let info = GuardInfo::analyse(&ta).unwrap();
        let segments = [0, 1];
        let mut enc = Encoding::with_segments(&ta, &info, &segments, &[], SolverConfig::default());
        let a = ta.location_by_name("A").unwrap();
        let slot = enc.register_query_prop(&Prop::loc_nonempty(a));
        enc.assert_query_prop_somewhere(slot);
        assert!(enc.check().is_sat());
    }
}
