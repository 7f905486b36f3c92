//! The public satisfiability interface.

use std::sync::Arc;

use crate::constraint::Constraint;
use crate::formula::Formula;
use crate::intern::{InternStats, Interner};
use crate::linexpr::{LinExpr, Var};
use crate::model::{Model, SatResult, UnknownReason};
use crate::rat::Rat;
use crate::simplex::{LpResult, Simplex};

/// Resource limits for a single [`Solver::check`] call.
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// Maximum branch-and-bound nodes across the whole check.
    pub max_branch_nodes: u64,
    /// Maximum disjunction case splits across the whole check.
    pub max_case_splits: u64,
    /// Hard wall-clock deadline polled inside the simplex pivot loop,
    /// every 64 pivots counted across the solver's simplex checks (and
    /// once before its first pivot), so a search made of many short
    /// checks honours it as well as one long check does. `None` (the
    /// default) disables the check entirely. Expiry yields
    /// [`SatResult::Unknown`] with [`UnknownReason::Deadline`] — never a
    /// wrong Sat/Unsat verdict.
    pub deadline: Option<std::time::Instant>,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            max_branch_nodes: 200_000,
            max_case_splits: 200_000,
            deadline: None,
        }
    }
}

/// Cumulative solver statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SolverStats {
    /// Number of `check` calls.
    pub checks: u64,
    /// Branch-and-bound nodes explored.
    pub branch_nodes: u64,
    /// Disjunction case splits explored.
    pub case_splits: u64,
    /// Simplex pivots performed, the ones a pop spends retracting
    /// variables included.
    pub pivots: u64,
    /// Coefficient entries the pivots wrote: the pivot row's new
    /// coefficients plus those of every row it substituted into. The
    /// cost of a pivot grows with the rows that mention its column, so
    /// this counts work that `pivots` alone hides.
    pub pivot_entries: u64,
    /// Slack rows the simplex created: one per multi-variable linear
    /// form asserted while no live row has it (pops retract rows).
    pub rows: u64,
    /// Constraint-interner cache hits (see [`Interner`]).
    pub intern_hits: u64,
    /// Constraint-interner cache misses.
    pub intern_misses: u64,
    /// Verified minimal UNSAT cores extracted (see [`Solver::unsat_core`]).
    pub cores_extracted: u64,
    /// Total members across all extracted cores (divide by
    /// `cores_extracted` for the average core size).
    pub core_members: u64,
    /// Wall-clock microseconds spent in core extraction (verification
    /// plus deletion minimization).
    pub core_micros: u64,
    /// Always 0: the solver has no interval-propagation layer. Kept
    /// only because the benchmark harness still reads it; not merged or
    /// published.
    pub propagations: u64,
    /// Always 0, for the same reason as
    /// [`propagations`](Self::propagations): the solver case-splits on
    /// every disjunct and skips none.
    pub disjuncts_skipped: u64,
}

impl SolverStats {
    /// Merges another stats record into this one (component-wise sum).
    pub fn merge(&mut self, other: &SolverStats) {
        self.checks += other.checks;
        self.branch_nodes += other.branch_nodes;
        self.case_splits += other.case_splits;
        self.pivots += other.pivots;
        self.pivot_entries += other.pivot_entries;
        self.rows += other.rows;
        self.intern_hits += other.intern_hits;
        self.intern_misses += other.intern_misses;
        self.cores_extracted += other.cores_extracted;
        self.core_members += other.core_members;
        self.core_micros += other.core_micros;
    }

    /// Publishes every counted field to the global [`holistic_obs`]
    /// metrics registry under the `lia.*` counter names. A no-op unless
    /// tracing is enabled; callers flush once per worker (not per check)
    /// so the registry sums match a per-worker [`merge`](Self::merge)
    /// exactly.
    pub fn publish(&self) {
        holistic_obs::add("lia.checks", self.checks);
        holistic_obs::add("lia.branch_nodes", self.branch_nodes);
        holistic_obs::add("lia.case_splits", self.case_splits);
        holistic_obs::add("lia.pivots", self.pivots);
        holistic_obs::add("lia.pivot_entries", self.pivot_entries);
        holistic_obs::add("lia.rows", self.rows);
        holistic_obs::add("lia.intern_hits", self.intern_hits);
        holistic_obs::add("lia.intern_misses", self.intern_misses);
        holistic_obs::add("lia.cores_extracted", self.cores_extracted);
        holistic_obs::add("lia.core_members", self.core_members);
        holistic_obs::add("lia.core_micros", self.core_micros);
    }
}

/// Identifier of a tracked assertion (see [`Solver::assert_tracked`]),
/// referenced by the cores [`Solver::unsat_core`] returns.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AssertId(pub u32);

struct Budget {
    branch_nodes: u64,
    case_splits: u64,
}

/// Assertions recorded at one backtracking level.
///
/// Conjunctive content (atoms, `And`s) is asserted into the simplex
/// *eagerly*, at assertion time; only disjunctions are deferred to
/// [`Solver::check`], which case-splits over them. This keeps the cost
/// of a check proportional to the disjunctive content of the current
/// stack rather than to the total number of assertions — the decisive
/// difference for the model checker, whose schedule DFS re-checks a
/// slowly-changing conjunction thousands of times.
#[derive(Default)]
struct Level {
    /// Deferred disjunctions (already in NNF).
    pending: Vec<Formula>,
    /// Tracked assertions (NNF), kept for UNSAT-core extraction; popped
    /// with the level.
    tracked: Vec<(u32, Formula)>,
    /// A trivially false formula was asserted at this level.
    unsat: bool,
}

/// A satisfiability solver for quantifier-free linear **integer**
/// arithmetic.
///
/// All variables range over ℤ (helpers create ℕ-constrained ones).
/// Internally: eager incremental assertion of conjunctive content into
/// an exact-rational simplex, case splitting over disjunctions, and
/// branch-and-bound for integrality. Resource budgets turn runaway
/// searches into [`SatResult::Unknown`] rather than wrong verdicts.
///
/// # Examples
///
/// ```
/// use holistic_lia::{Constraint, LinExpr, Solver};
///
/// let mut solver = Solver::new();
/// let x = solver.new_nonneg_var("x");
/// let y = solver.new_nonneg_var("y");
/// // 2x + 2y == 5 has no integer solution.
/// solver.assert_constraint(Constraint::eq(
///     LinExpr::term(x, 2) + LinExpr::term(y, 2),
///     LinExpr::constant(5),
/// ));
/// assert!(solver.check().is_unsat());
/// ```
pub struct Solver {
    simplex: Simplex,
    user_vars: Vec<Var>,
    /// One entry per backtracking level; `levels[0]` is the base level.
    levels: Vec<Level>,
    interner: Interner,
    config: SolverConfig,
    stats: SolverStats,
    /// Next tracked-assertion identifier (monotone over the solver's
    /// lifetime, so popped ids never get reused).
    next_assert_id: u32,
    /// Variables declared non-negative ([`Solver::new_nonneg_var`]),
    /// ascending. Their `>= 0` bound is *background*: part of every
    /// UNSAT-core subset check even when a tracked assertion has since
    /// tightened (and so re-tagged) the live lower bound.
    nonneg: Vec<Var>,
    /// Rational arithmetic saturated at some point in this solver's
    /// lifetime. Bounds computed from poisoned values may linger in the
    /// tableau across pops, so every subsequent check conservatively
    /// reports `Unknown` — always sound, and in practice unreachable for
    /// the small-coefficient systems the checker emits.
    poisoned: bool,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with default budgets.
    pub fn new() -> Solver {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates a solver with explicit budgets.
    pub fn with_config(config: SolverConfig) -> Solver {
        let mut simplex = Simplex::new();
        simplex.set_deadline(config.deadline);
        Solver {
            simplex,
            user_vars: Vec::new(),
            levels: vec![Level::default()],
            interner: Interner::new(),
            config,
            stats: SolverStats::default(),
            next_assert_id: 0,
            nonneg: Vec::new(),
            poisoned: false,
        }
    }

    /// Allocates an unbounded integer variable. A variable created
    /// after a [`push`](Solver::push) is invalid after the matching
    /// [`pop`](Solver::pop), and its index is handed out again.
    pub fn new_var(&mut self, name: impl Into<String>) -> Var {
        self.new_named_var(Arc::from(name.into()))
    }

    fn new_named_var(&mut self, name: Arc<str>) -> Var {
        let v = self.simplex.new_named_var(name);
        self.user_vars.push(v);
        v
    }

    /// Allocates an integer variable constrained to be `>= 0`.
    ///
    /// The bound is asserted at the current level and lives as long as
    /// the variable: a variable made before a [`push`](Solver::push)
    /// keeps it across the matching [`pop`](Solver::pop), and one made
    /// after the push is gone with it.
    pub fn new_nonneg_var(&mut self, name: impl Into<String>) -> Var {
        let v = self.new_var(name);
        let r = self.simplex.assert_lower(v, Rat::ZERO);
        debug_assert_eq!(r, LpResult::Feasible);
        self.nonneg.push(v);
        v
    }

    /// The name a variable was created with.
    pub fn var_name(&self, v: Var) -> &str {
        self.simplex.var_name(v)
    }

    /// Sets (or clears) the wall-clock deadline for subsequent checks.
    /// Lets long-lived incremental sessions tighten the deadline per
    /// query without rebuilding the tableau.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.config.deadline = deadline;
        self.simplex.set_deadline(deadline);
    }

    /// A handle to the constraint interner, for callers that construct
    /// the same constraints repeatedly. Its hit/miss counters are
    /// reported through [`Solver::stats`].
    pub fn interner(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// Asserts a formula at the current level.
    ///
    /// Conjunctive content reaches the simplex immediately; disjunctions
    /// are deferred to [`Solver::check`].
    pub fn assert(&mut self, f: Formula) {
        let nnf = f.to_nnf();
        self.assert_nnf(nnf, None);
    }

    /// Asserts a formula at the current level and returns an [`AssertId`]
    /// by which [`Solver::unsat_core`] can refer back to it.
    ///
    /// The formula is retained (in NNF) until its level is popped.
    /// Conjunctive content is tagged through to the simplex bounds it
    /// produces, so bound-level conflicts can name the assertions that
    /// caused them; disjunctions participate in search untagged and a
    /// core involving them is simply not reported.
    pub fn assert_tracked(&mut self, f: Formula) -> AssertId {
        let id = self.next_assert_id;
        self.next_assert_id += 1;
        let nnf = f.to_nnf();
        self.levels
            .last_mut()
            .unwrap()
            .tracked
            .push((id, nnf.clone()));
        self.assert_nnf(nnf, Some(id));
        AssertId(id)
    }

    fn assert_nnf(&mut self, f: Formula, tag: Option<u32>) {
        match f {
            Formula::True => {}
            Formula::False => self.levels.last_mut().unwrap().unsat = true,
            Formula::Atom(c) => {
                // An infeasible result here is not an error: the simplex
                // records the conflicting bound on its trail and the
                // conflict persists (and is reported by check) until the
                // enclosing level is popped.
                let _ = self.simplex.assert_constraint_tagged(&c, tag);
            }
            Formula::And(fs) => {
                for g in fs {
                    self.assert_nnf(g, tag);
                }
            }
            f @ Formula::Or(_) => self.levels.last_mut().unwrap().pending.push(f),
            Formula::Not(_) => unreachable!("to_nnf eliminates negation"),
        }
    }

    /// Asserts a single constraint at the current level.
    pub fn assert_constraint(&mut self, c: Constraint) {
        self.assert(Formula::atom(c));
    }

    /// Asserts a single constraint at the current level, tracked for
    /// UNSAT-core extraction like [`Solver::assert_tracked`].
    pub fn assert_constraint_tracked(&mut self, c: Constraint) -> AssertId {
        self.assert_tracked(Formula::atom(c))
    }

    /// Opens a backtracking level. Variables created from here on are
    /// invalid after the matching [`pop`](Solver::pop).
    pub fn push(&mut self) {
        self.levels.push(Level::default());
        self.simplex.push();
    }

    /// Discards all assertions and variables made since the matching
    /// [`push`](Solver::push). A [`Var`] created after the push is
    /// invalid afterwards, and its index is handed out again; variables
    /// made before it keep their declared bounds.
    ///
    /// # Panics
    ///
    /// Panics if there is no open level.
    pub fn pop(&mut self) {
        assert!(self.levels.len() > 1, "pop without matching push");
        self.levels.pop();
        self.simplex.pop();
        let live = self.simplex.num_vars();
        let below = |v: &Var| v.index() < live;
        self.user_vars
            .truncate(self.user_vars.partition_point(below));
        self.nonneg.truncate(self.nonneg.partition_point(below));
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.pivots = self.simplex.pivot_count();
        s.pivot_entries = self.simplex.pivot_entries();
        s.rows = self.simplex.rows_created();
        let InternStats { hits, misses } = self.interner.stats();
        s.intern_hits = hits;
        s.intern_misses = misses;
        s
    }

    /// Decides satisfiability of the conjunction of all asserted formulas
    /// over the integers.
    ///
    /// The conjunctive content is already in the simplex, so the work
    /// here is proportional to the number of *deferred disjunctions*
    /// plus branch-and-bound, not to the total assertion count.
    pub fn check(&mut self) -> SatResult {
        let _span = holistic_obs::span("lia.check");
        self.stats.checks += 1;
        // Conflict tags accumulate across every infeasibility the search
        // encounters below; start the union fresh so unsat_core() after
        // this check sees only the relevant conflicts.
        self.simplex.clear_conflict_tags();
        if self.levels.iter().any(|l| l.unsat) {
            return SatResult::Unsat;
        }
        let goals: Vec<Formula> = self
            .levels
            .iter()
            .flat_map(|level| level.pending.iter().cloned())
            .collect();
        let mut budget = Budget {
            branch_nodes: self.config.max_branch_nodes,
            case_splits: self.config.max_case_splits,
        };
        self.simplex.push();
        let result = {
            let _span = holistic_obs::span("lia.search");
            self.search(goals, &mut budget)
        };
        self.simplex.pop();
        // Saturated rational arithmetic (anywhere since the last check:
        // asserts included) poisons the verdict — sound `Unknown` beats
        // a wrong answer computed from wrapped values.
        if Rat::take_overflow_flag() {
            self.poisoned = true;
        }
        if self.poisoned {
            return SatResult::Unknown(UnknownReason::RatOverflow);
        }
        result
    }

    /// DFS over disjunctions. Precondition: formulas in `pending` are in
    /// NNF, and the caller opened a simplex level that this call may
    /// populate; the caller pops it.
    fn search(&mut self, pending: Vec<Formula>, budget: &mut Budget) -> SatResult {
        let mut queue = pending;
        let mut disjunctions: Vec<Vec<Formula>> = Vec::new();
        while let Some(f) = queue.pop() {
            match f {
                Formula::True => {}
                Formula::False => return SatResult::Unsat,
                Formula::Atom(c) => {
                    if self.simplex.assert_constraint(&c) == LpResult::Infeasible {
                        return SatResult::Unsat;
                    }
                }
                Formula::And(fs) => queue.extend(fs),
                Formula::Or(fs) => disjunctions.push(fs),
                Formula::Not(_) => unreachable!("search runs on NNF formulas"),
            }
        }
        // Prune before splitting: if the relaxation of the conjunctive
        // part is already infeasible, no disjunct can rescue it.
        match self.simplex.check() {
            LpResult::Infeasible => return SatResult::Unsat,
            LpResult::TimedOut => return SatResult::Unknown(UnknownReason::Deadline),
            LpResult::Feasible => {}
        }
        if disjunctions.is_empty() {
            return self.branch_and_bound(budget, 0);
        }

        // Split on the smallest disjunction first.
        disjunctions.sort_by_key(|d| d.len());
        let first = disjunctions.remove(0);
        let rest: Vec<Formula> = disjunctions.into_iter().map(Formula::Or).collect();
        self.branch(first, rest, budget)
    }

    /// Case-splits on `first`, carrying `rest` into each branch; the
    /// disjuncts are visited in the order given.
    fn branch(
        &mut self,
        first: Vec<Formula>,
        rest: Vec<Formula>,
        budget: &mut Budget,
    ) -> SatResult {
        let mut unknown = None;
        for disjunct in first {
            if budget.case_splits == 0 {
                return SatResult::Unknown(UnknownReason::SplitBudget);
            }
            budget.case_splits -= 1;
            self.stats.case_splits += 1;
            let mut goals = rest.clone();
            goals.push(disjunct);
            self.simplex.push();
            let r = self.search(goals, budget);
            self.simplex.pop();
            match r {
                SatResult::Sat(m) => return SatResult::Sat(m),
                SatResult::Unsat => {}
                SatResult::Unknown(reason) => unknown = Some(reason),
            }
        }
        match unknown {
            Some(reason) => SatResult::Unknown(reason),
            None => SatResult::Unsat,
        }
    }

    fn branch_and_bound(&mut self, budget: &mut Budget, depth: u32) -> SatResult {
        /// Recursion guard: GCD-tightened systems virtually never branch
        /// this deep; an adversarial unbounded system must not overflow
        /// the stack, so past this depth we give up with `Unknown`.
        const MAX_DEPTH: u32 = 1_000;
        match self.simplex.check() {
            LpResult::Infeasible => return SatResult::Unsat,
            LpResult::TimedOut => return SatResult::Unknown(UnknownReason::Deadline),
            LpResult::Feasible => {}
        }
        let fractional = self
            .user_vars
            .iter()
            .copied()
            .find(|&v| !self.simplex.value(v).is_integer());
        let Some(v) = fractional else {
            return SatResult::Sat(self.extract_model());
        };
        if budget.branch_nodes == 0 || depth >= MAX_DEPTH {
            return SatResult::Unknown(UnknownReason::BranchBudget);
        }
        budget.branch_nodes -= 1;
        self.stats.branch_nodes += 1;
        let val = self.simplex.value(v);

        self.simplex.push();
        let lo_feasible = self.simplex.assert_upper(v, Rat::from(val.floor()));
        let lo = if lo_feasible == LpResult::Infeasible {
            SatResult::Unsat
        } else {
            self.branch_and_bound(budget, depth + 1)
        };
        self.simplex.pop();
        if lo.is_sat() {
            return lo;
        }

        self.simplex.push();
        let hi_feasible = self.simplex.assert_lower(v, Rat::from(val.ceil()));
        let hi = if hi_feasible == LpResult::Infeasible {
            SatResult::Unsat
        } else {
            self.branch_and_bound(budget, depth + 1)
        };
        self.simplex.pop();
        if hi.is_sat() {
            return hi;
        }

        match (lo, hi) {
            (SatResult::Unknown(r), _) | (_, SatResult::Unknown(r)) => SatResult::Unknown(r),
            _ => SatResult::Unsat,
        }
    }

    /// Extracts a minimal UNSAT core over the *tracked* assertions after
    /// a [`check`](Solver::check) that returned [`SatResult::Unsat`].
    ///
    /// The candidate subset is seeded from the Farkas conflict of the
    /// terminal simplex state: the provenance tags of every bound that
    /// participated in an infeasibility during the last check (both sides
    /// of bound conflicts, plus the blocking bounds of terminal pivot
    /// rows — the dual ray's support). The candidate is then **verified**
    /// to be genuinely infeasible by replaying it (together with the
    /// untagged background bounds of its variables) into a fresh scratch
    /// solver, and shrunk by deletion-based minimization into an
    /// irreducible infeasible subset: dropping any single member makes
    /// the remainder feasible.
    ///
    /// Returns `None` when no verified core exists — e.g. the conflict
    /// involves untracked search-time assertions (disjunction branches,
    /// integrality cuts) or the scratch solve is inconclusive. `None`
    /// never indicates the problem is satisfiable; it only means no
    /// certificate could be isolated.
    pub fn unsat_core(&mut self) -> Option<Vec<AssertId>> {
        let _span = holistic_obs::span("lia.core");
        let t0 = std::time::Instant::now();
        let mut tags: Vec<u32> = self.simplex.conflict_tags().to_vec();
        tags.sort_unstable();
        tags.dedup();
        if tags.is_empty() {
            return None;
        }
        // Only tags of live tracked assertions qualify (a popped
        // assertion cannot appear in a conflict of the current state).
        let tracked: std::collections::HashMap<u32, &Formula> = self
            .levels
            .iter()
            .flat_map(|l| l.tracked.iter().map(|(id, f)| (*id, f)))
            .collect();
        if tags.iter().any(|t| !tracked.contains_key(t)) {
            return None;
        }
        let mut core = tags;
        if !(self.subset_unsat(&core, &tracked)?) {
            // The tagged conflict participants alone are satisfiable: the
            // infeasibility leaned on untracked state. No certificate.
            self.stats.core_micros += t0.elapsed().as_micros() as u64;
            return None;
        }
        // Deletion-based minimization: try dropping each member once.
        let mut i = 0;
        while i < core.len() && core.len() > 1 {
            let mut cand = core.clone();
            cand.remove(i);
            match self.subset_unsat(&cand, &tracked) {
                Some(true) => core = cand, // still unsat without member i
                _ => i += 1,               // member i is necessary (or unknown)
            }
        }
        self.stats.cores_extracted += 1;
        self.stats.core_members += core.len() as u64;
        self.stats.core_micros += t0.elapsed().as_micros() as u64;
        Some(core.into_iter().map(AssertId).collect())
    }

    /// Whether the conjunction of the given tracked assertions (plus the
    /// untagged background bounds of their variables) is infeasible,
    /// decided on a fresh scratch solver with remapped variables.
    /// `None` = inconclusive.
    fn subset_unsat(
        &self,
        ids: &[u32],
        tracked: &std::collections::HashMap<u32, &Formula>,
    ) -> Option<bool> {
        let mut vars: Vec<Var> = Vec::new();
        for id in ids {
            Self::collect_vars(tracked[id], &mut vars);
        }
        vars.sort_unstable();
        vars.dedup();
        let mut scratch = Solver::with_config(SolverConfig {
            // The subsets are tiny; small budgets keep a pathological
            // scratch solve from dominating the caller's own search.
            max_branch_nodes: 10_000,
            max_case_splits: 10_000,
            deadline: self.config.deadline,
        });
        let mut map: std::collections::HashMap<Var, Var> = std::collections::HashMap::new();
        for &v in &vars {
            let sv = scratch.new_named_var(self.simplex.shared_name(v).clone());
            // Background (untagged) bounds are part of every subset: they
            // came from variable construction, not from any assertion.
            // Declared non-negativity survives even when a tracked
            // assertion has tightened (and re-tagged) the live bound.
            if self.nonneg.binary_search(&v).is_ok() {
                let _ = scratch.simplex.assert_lower(sv, Rat::ZERO);
            }
            if self.simplex.lower_tag(v).is_none() {
                if let Some(l) = self.simplex.lower(v) {
                    let _ = scratch.simplex.assert_lower(sv, l);
                }
            }
            if self.simplex.upper_tag(v).is_none() {
                if let Some(u) = self.simplex.upper(v) {
                    let _ = scratch.simplex.assert_upper(sv, u);
                }
            }
            map.insert(v, sv);
        }
        for id in ids {
            let f = Self::remap_formula(tracked[id], &map);
            scratch.assert(f);
        }
        match scratch.check() {
            SatResult::Unsat => Some(true),
            SatResult::Sat(_) => Some(false),
            SatResult::Unknown(_) => None,
        }
    }

    fn collect_vars(f: &Formula, out: &mut Vec<Var>) {
        match f {
            Formula::True | Formula::False => {}
            Formula::Atom(c) => out.extend(c.expr().iter().map(|(v, _)| v)),
            Formula::And(fs) | Formula::Or(fs) => {
                for g in fs {
                    Self::collect_vars(g, out);
                }
            }
            Formula::Not(inner) => Self::collect_vars(inner, out),
        }
    }

    fn remap_formula(f: &Formula, map: &std::collections::HashMap<Var, Var>) -> Formula {
        match f {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(c) => {
                let mut expr = LinExpr::constant(c.expr().constant_term());
                for (v, k) in c.expr().iter() {
                    expr.add_term(map[&v], k);
                }
                let zero = LinExpr::zero();
                Formula::atom(match c.rel() {
                    crate::constraint::Rel::Le => Constraint::le(expr, zero),
                    crate::constraint::Rel::Ge => Constraint::ge(expr, zero),
                    crate::constraint::Rel::Eq => Constraint::eq(expr, zero),
                })
            }
            Formula::And(fs) => {
                Formula::And(fs.iter().map(|g| Self::remap_formula(g, map)).collect())
            }
            Formula::Or(fs) => {
                Formula::Or(fs.iter().map(|g| Self::remap_formula(g, map)).collect())
            }
            Formula::Not(inner) => Formula::Not(Box::new(Self::remap_formula(inner, map))),
        }
    }

    fn extract_model(&self) -> Model {
        let mut m = Model::with_capacity(self.user_vars.len());
        for &v in &self.user_vars {
            let value = self
                .simplex
                .value(v)
                .to_integer()
                .expect("model extraction requires integral values");
            m.push(v, value, self.simplex.shared_name(v).clone());
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;

    fn e(terms: &[(Var, i64)], c: i64) -> LinExpr {
        let mut out = LinExpr::constant(c);
        for &(v, k) in terms {
            out.add_term(v, Rat::from(k));
        }
        out
    }

    #[test]
    fn simple_sat() {
        let mut s = Solver::new();
        let x = s.new_nonneg_var("x");
        s.assert_constraint(Constraint::ge(LinExpr::var(x), LinExpr::constant(3)));
        let r = s.check();
        let m = r.model().expect("sat");
        assert!(m.value(x) >= 3);
    }

    #[test]
    fn simple_unsat() {
        let mut s = Solver::new();
        let x = s.new_nonneg_var("x");
        s.assert_constraint(Constraint::le(LinExpr::var(x), LinExpr::constant(-1)));
        assert!(s.check().is_unsat());
    }

    #[test]
    fn integrality_cuts_rational_solutions() {
        // 2x == 1: feasible over ℚ, infeasible over ℤ.
        let mut s = Solver::new();
        let x = s.new_var("x");
        s.assert_constraint(Constraint::eq(e(&[(x, 2)], 0), LinExpr::constant(1)));
        assert!(s.check().is_unsat());
    }

    #[test]
    fn integrality_multi_var() {
        // 2x + 4y == 7 has no integer solutions.
        let mut s = Solver::new();
        let x = s.new_var("x");
        let y = s.new_var("y");
        s.assert_constraint(Constraint::eq(
            e(&[(x, 2), (y, 4)], 0),
            LinExpr::constant(7),
        ));
        assert!(s.check().is_unsat());
        // 2x + 4y == 6 does.
        let mut s = Solver::new();
        let x = s.new_var("x");
        let y = s.new_var("y");
        s.assert_constraint(Constraint::eq(
            e(&[(x, 2), (y, 4)], 0),
            LinExpr::constant(6),
        ));
        assert!(s.check().is_sat());
    }

    #[test]
    fn branching_finds_integer_point() {
        // 3x + 3y >= 5, x + y <= 2, x,y >= 0: rational optimum is
        // fractional but (1,1) works.
        let mut s = Solver::new();
        let x = s.new_nonneg_var("x");
        let y = s.new_nonneg_var("y");
        s.assert_constraint(Constraint::ge(
            e(&[(x, 3), (y, 3)], 0),
            LinExpr::constant(5),
        ));
        s.assert_constraint(Constraint::le(
            e(&[(x, 1), (y, 1)], 0),
            LinExpr::constant(2),
        ));
        let r = s.check();
        let m = r.model().expect("sat");
        let (xv, yv) = (m.value(x), m.value(y));
        assert!(3 * xv + 3 * yv >= 5 && xv + yv <= 2 && xv >= 0 && yv >= 0);
    }

    #[test]
    fn disjunction_case_split() {
        let mut s = Solver::new();
        let x = s.new_nonneg_var("x");
        // (x >= 10 ∨ x <= 2) ∧ x >= 3 ∧ x <= 9  is unsat.
        s.assert(Formula::or([
            Constraint::ge(LinExpr::var(x), LinExpr::constant(10)).into(),
            Constraint::le(LinExpr::var(x), LinExpr::constant(2)).into(),
        ]));
        s.assert_constraint(Constraint::ge(LinExpr::var(x), LinExpr::constant(3)));
        s.assert_constraint(Constraint::le(LinExpr::var(x), LinExpr::constant(9)));
        assert!(s.check().is_unsat());
    }

    #[test]
    fn negated_equality() {
        let mut s = Solver::new();
        let x = s.new_nonneg_var("x");
        s.assert(Formula::not(Formula::atom(Constraint::eq(
            LinExpr::var(x),
            LinExpr::constant(0),
        ))));
        s.assert_constraint(Constraint::le(LinExpr::var(x), LinExpr::constant(0)));
        assert!(s.check().is_unsat());
    }

    #[test]
    fn push_pop() {
        let mut s = Solver::new();
        let x = s.new_nonneg_var("x");
        s.assert_constraint(Constraint::le(LinExpr::var(x), LinExpr::constant(5)));
        assert!(s.check().is_sat());
        s.push();
        s.assert_constraint(Constraint::ge(LinExpr::var(x), LinExpr::constant(6)));
        assert!(s.check().is_unsat());
        s.pop();
        assert!(s.check().is_sat());
    }

    #[test]
    fn push_pop_with_disjunctions() {
        let mut s = Solver::new();
        let x = s.new_nonneg_var("x");
        s.push();
        s.assert(Formula::or([
            Constraint::ge(LinExpr::var(x), LinExpr::constant(10)).into(),
            Constraint::le(LinExpr::var(x), LinExpr::constant(2)).into(),
        ]));
        s.assert_constraint(Constraint::ge(LinExpr::var(x), LinExpr::constant(3)));
        s.assert_constraint(Constraint::le(LinExpr::var(x), LinExpr::constant(9)));
        assert!(s.check().is_unsat());
        s.pop();
        // The popped disjunction and bounds must be gone.
        assert!(s.check().is_sat());
    }

    #[test]
    fn asserted_false_is_scoped_to_its_level() {
        let mut s = Solver::new();
        let _x = s.new_nonneg_var("x");
        s.push();
        s.assert(Formula::False);
        assert!(s.check().is_unsat());
        assert!(s.check().is_unsat(), "unsat flag persists across checks");
        s.pop();
        assert!(s.check().is_sat());
    }

    #[test]
    fn implication() {
        let mut s = Solver::new();
        let x = s.new_nonneg_var("x");
        let y = s.new_nonneg_var("y");
        // (x >= 5 ⇒ y >= 5) ∧ x == 7 ∧ y <= 3  is unsat.
        s.assert(Formula::implies(
            Constraint::ge(LinExpr::var(x), LinExpr::constant(5)).into(),
            Constraint::ge(LinExpr::var(y), LinExpr::constant(5)).into(),
        ));
        s.assert_constraint(Constraint::eq(LinExpr::var(x), LinExpr::constant(7)));
        s.assert_constraint(Constraint::le(LinExpr::var(y), LinExpr::constant(3)));
        assert!(s.check().is_unsat());
    }

    #[test]
    fn model_satisfies_all_assertions() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..5).map(|i| s.new_nonneg_var(format!("v{i}"))).collect();
        let mut sum = LinExpr::zero();
        for &v in &vars {
            sum += LinExpr::var(v);
        }
        s.assert_constraint(Constraint::eq(sum.clone(), LinExpr::constant(17)));
        s.assert_constraint(Constraint::ge(LinExpr::var(vars[0]), LinExpr::var(vars[1])));
        let r = s.check();
        let m = r.model().expect("sat");
        assert_eq!(m.eval(&sum), Rat::from(17));
        assert!(m.value(vars[0]) >= m.value(vars[1]));
    }

    #[test]
    fn resilience_condition_shape() {
        // The shape used throughout the checker: n > 3t, t >= f >= 0,
        // plus counters summing to n - f.
        let mut s = Solver::new();
        let n = s.new_nonneg_var("n");
        let t = s.new_nonneg_var("t");
        let f = s.new_nonneg_var("f");
        s.assert_constraint(Constraint::gt(LinExpr::var(n), LinExpr::term(t, 3)));
        s.assert_constraint(Constraint::ge(LinExpr::var(t), LinExpr::var(f)));
        s.assert_constraint(Constraint::ge(LinExpr::var(t), LinExpr::constant(1)));
        let r = s.check();
        let m = r.model().expect("sat");
        assert!(m.value(n) > 3 * m.value(t));
        assert!(m.value(t) >= m.value(f));
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let x = s.new_nonneg_var("x");
        s.assert_constraint(Constraint::ge(LinExpr::var(x), LinExpr::constant(1)));
        let _ = s.check();
        let _ = s.check();
        assert_eq!(s.stats().checks, 2);
    }

    #[test]
    fn interner_stats_flow_through_solver_stats() {
        let mut s = Solver::new();
        let x = s.new_var("x");
        let a = s.interner().ge(LinExpr::var(x), LinExpr::constant(1));
        let b = s.interner().ge(LinExpr::var(x), LinExpr::constant(1));
        assert_eq!(a, b);
        s.assert_constraint(a);
        assert!(s.check().is_sat());
        let stats = s.stats();
        assert_eq!(stats.intern_hits, 1);
        assert_eq!(stats.intern_misses, 1);
    }

    #[test]
    fn stats_merge_is_componentwise() {
        let mut a = SolverStats {
            checks: 1,
            branch_nodes: 2,
            case_splits: 3,
            pivots: 4,
            pivot_entries: 14,
            rows: 13,
            intern_hits: 5,
            intern_misses: 6,
            cores_extracted: 7,
            core_members: 8,
            core_micros: 9,
            ..SolverStats::default()
        };
        let b = SolverStats {
            checks: 10,
            branch_nodes: 20,
            case_splits: 30,
            pivots: 40,
            pivot_entries: 140,
            rows: 130,
            intern_hits: 50,
            intern_misses: 60,
            cores_extracted: 70,
            core_members: 80,
            core_micros: 90,
            ..SolverStats::default()
        };
        a.merge(&b);
        assert_eq!(a.checks, 11);
        assert_eq!(a.pivots, 44);
        assert_eq!(a.pivot_entries, 154);
        assert_eq!(a.rows, 143);
        assert_eq!(a.intern_misses, 66);
        assert_eq!(a.cores_extracted, 77);
        assert_eq!(a.core_members, 88);
        assert_eq!(a.core_micros, 99);
    }

    #[test]
    fn unsat_core_isolates_conflicting_pair() {
        let mut s = Solver::new();
        let x = s.new_nonneg_var("x");
        let y = s.new_nonneg_var("y");
        let a = s.assert_constraint_tracked(Constraint::ge(LinExpr::var(x), LinExpr::constant(5)));
        let _b = s.assert_constraint_tracked(Constraint::ge(LinExpr::var(y), LinExpr::constant(1)));
        let c = s.assert_constraint_tracked(Constraint::le(LinExpr::var(x), LinExpr::constant(3)));
        assert!(s.check().is_unsat());
        let core = s.unsat_core().expect("bound conflict must yield a core");
        assert_eq!(
            core,
            vec![a, c],
            "core must name exactly the conflicting pair"
        );
        assert_eq!(s.stats().cores_extracted, 1);
        assert_eq!(s.stats().core_members, 2);
    }

    #[test]
    fn unsat_core_from_terminal_pivot_row() {
        // x + y >= 10, x <= 3, y <= 4: infeasible only via the row, not
        // via any single-variable bound conflict.
        let mut s = Solver::new();
        let x = s.new_nonneg_var("x");
        let y = s.new_nonneg_var("y");
        let a = s.assert_constraint_tracked(Constraint::ge(
            e(&[(x, 1), (y, 1)], 0),
            LinExpr::constant(10),
        ));
        let b = s.assert_constraint_tracked(Constraint::le(LinExpr::var(x), LinExpr::constant(3)));
        let c = s.assert_constraint_tracked(Constraint::le(LinExpr::var(y), LinExpr::constant(4)));
        let _d = s.assert_constraint_tracked(Constraint::ge(LinExpr::var(x), LinExpr::constant(1)));
        assert!(s.check().is_unsat());
        let core = s.unsat_core().expect("row conflict must yield a core");
        assert_eq!(core, vec![a, b, c]);
    }

    #[test]
    fn unsat_core_scoped_to_level() {
        let mut s = Solver::new();
        let x = s.new_nonneg_var("x");
        let a = s.assert_constraint_tracked(Constraint::ge(LinExpr::var(x), LinExpr::constant(5)));
        s.push();
        let b = s.assert_constraint_tracked(Constraint::le(LinExpr::var(x), LinExpr::constant(2)));
        assert!(s.check().is_unsat());
        assert_eq!(s.unsat_core().unwrap(), vec![a, b]);
        s.pop();
        assert!(s.check().is_sat());
    }
}
