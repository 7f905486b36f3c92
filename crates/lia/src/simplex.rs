//! A general simplex for linear-arithmetic feasibility.
//!
//! This is the solver core in the style of Dutertre & de Moura ("A fast
//! linear-arithmetic solver for DPLL(T)", CAV 2006): every constraint
//! `Σ aᵢxᵢ ⋈ c` is turned into a *slack* variable `s = Σ aᵢxᵢ` plus a
//! bound on `s`; feasibility is restored by pivoting with Bland's rule,
//! which guarantees termination. All arithmetic is exact rational.
//!
//! Backtracking undoes exactly what a level added: [`Simplex::pop`]
//! restores *bounds* from a trail, then retracts every variable the
//! level created — a basic one with its row, a non-basic one by first
//! pivoting it into a row of its column — so the tableau after a pop
//! has the rows and variables it had at the matching push. That is the
//! access pattern of branch-and-bound, of case splitting in the formula
//! layer, and of the model checker's schedule DFS.
//!
//! Two sparse data structures keep long incremental sessions fast:
//!
//! * a **column index** (`cols`) listing, for each non-basic variable,
//!   the rows it occurs in, so bound updates and pivots touch only the
//!   rows that actually mention the variable instead of scanning the
//!   whole tableau. Both it and the basic-variable-to-row map (`row_of`)
//!   are dense vectors indexed by [`Var::index`]: a pivot changes a few
//!   dozen coefficients, and each change is an index plus a short
//!   unordered list edit (`swap_remove`), not a hash lookup plus an
//!   ordered-set update. A column's order only decides the order of
//!   exact value updates to distinct rows, so it never changes a result;
//! * a **suspect set** of basic variables whose value or bounds changed
//!   since they were last verified, so the Bland violated-variable scan
//!   is proportional to recent activity, not to tableau size. The
//!   invariant is `violated ⊆ suspect` (non-basic variables always
//!   satisfy their bounds).
//!
//! A **conflict counter** tracks variables whose lower bound exceeds
//! their upper bound, replacing the former all-variables scan at the
//! start of every check.

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::sync::Arc;

use crate::constraint::{Constraint, Rel};
use crate::linexpr::{LinExpr, Var};
use crate::rat::Rat;

/// The outcome of a feasibility check over the rationals.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LpResult {
    /// The asserted bounds are satisfiable over ℚ.
    Feasible,
    /// The asserted bounds are unsatisfiable over ℚ (hence also over ℤ).
    Infeasible,
    /// The deadline expired during the check; neither verdict is
    /// trustworthy.
    /// Only produced when a deadline is set (see
    /// [`Simplex::set_deadline`]).
    TimedOut,
}

#[derive(Clone, Debug)]
struct VarState {
    lower: Option<Rat>,
    upper: Option<Rat>,
    /// Provenance tag of the assertion that produced the current lower
    /// bound; `None` for background bounds (variable non-negativity).
    lower_tag: Option<u32>,
    upper_tag: Option<u32>,
    value: Rat,
    /// Shared with every [`Model`](crate::Model) that names the
    /// variable; empty for slacks, which no model or core names.
    name: Arc<str>,
}

impl VarState {
    fn conflicting(&self) -> bool {
        matches!((self.lower, self.upper), (Some(l), Some(u)) if l > u)
    }
}

#[derive(Clone, Debug)]
struct Row {
    basic: Var,
    /// `basic = Σ k·v` over non-basic variables; sorted by `Var`, no
    /// zero coefficients. A sorted vector beats a `BTreeMap` here
    /// because the pivot substitution is a linear merge of two sorted
    /// coefficient lists — the single hottest loop in the solver — and
    /// iteration in ascending `Var` order (Bland's rule) is free.
    coeffs: Vec<(Var, Rat)>,
}

impl Row {
    /// The coefficient of `v`, if present (binary search).
    fn coeff(&self, v: Var) -> Option<Rat> {
        self.coeffs
            .binary_search_by_key(&v, |&(w, _)| w)
            .ok()
            .map(|i| self.coeffs[i].1)
    }
}

/// Merges `k·delta` into a sorted coefficient list: `out := acc +
/// k·delta`, dropping entries that cancel to zero. Both inputs are
/// sorted by `Var`; the result is too. `out` is cleared first, so the
/// caller can recycle one buffer across merges. Calls `on_change(v,
/// true)` for vars that appear in `acc` and `on_change(v, false)` for
/// vars that disappear, so the caller can maintain its column index
/// incrementally.
fn merge_scaled(
    out: &mut Vec<(Var, Rat)>,
    acc: &[(Var, Rat)],
    delta: &[(Var, Rat)],
    k: Rat,
    mut on_change: impl FnMut(Var, bool),
) {
    out.clear();
    out.reserve(acc.len() + delta.len());
    let (mut i, mut j) = (0, 0);
    while i < acc.len() && j < delta.len() {
        let (va, ka) = acc[i];
        let (vd, kd) = delta[j];
        match va.cmp(&vd) {
            std::cmp::Ordering::Less => {
                out.push((va, ka));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                let c = k * kd;
                if !c.is_zero() {
                    on_change(vd, true);
                    out.push((vd, c));
                }
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let c = ka + k * kd;
                if c.is_zero() {
                    on_change(va, false);
                } else {
                    out.push((va, c));
                }
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&acc[i..]);
    for &(vd, kd) in &delta[j..] {
        let c = k * kd;
        if !c.is_zero() {
            on_change(vd, true);
            out.push((vd, c));
        }
    }
}

/// Marks a variable that owns no tableau row in [`Simplex::row_of`].
const NON_BASIC: u32 = u32::MAX;

/// Removes row `r` from one column of the index. Each column lists a
/// row at most once and in no particular order, so the removal swaps
/// the last entry into its place.
fn col_remove(col: &mut Vec<u32>, r: u32) {
    let pos = col
        .iter()
        .position(|&x| x == r)
        .expect("column index lists the row");
    col.swap_remove(pos);
}

#[derive(Clone, Copy, Debug)]
enum TrailEntry {
    Lower(Var, Option<Rat>, Option<u32>),
    Upper(Var, Option<Rat>, Option<u32>),
}

/// The incremental simplex tableau.
///
/// This type is deliberately low-level; most users want
/// [`Solver`](crate::Solver), which adds integer reasoning and boolean
/// structure on top.
#[derive(Clone, Debug, Default)]
pub struct Simplex {
    vars: Vec<VarState>,
    rows: Vec<Row>,
    /// Row index of each variable, indexed by [`Var::index`];
    /// [`NON_BASIC`] for non-basic variables.
    row_of: Vec<u32>,
    /// The rows whose coefficients mention each variable, indexed by
    /// [`Var::index`], each row at most once, unordered. Empty for
    /// basic variables.
    cols: Vec<Vec<u32>>,
    /// A recycled coefficient buffer for the pivot's row merges.
    merge_buf: Vec<(Var, Rat)>,
    /// Reuse slack variables for syntactically equal linear forms.
    slack_cache: HashMap<Vec<(Var, Rat)>, Var>,
    /// The entries of `slack_cache` in creation order, so a pop drops
    /// those of the slacks it retracts.
    slack_keys: Vec<(Var, Vec<(Var, Rat)>)>,
    /// Basic variables that may violate a bound (superset of the actual
    /// violated set; lazily shrunk during [`check`](Simplex::check)).
    suspect: BTreeSet<Var>,
    /// Variables with `lower > upper`, in order of appearance. Bounds
    /// only tighten within a level and relax in reverse trail order on
    /// pop, so conflicts appear and disappear LIFO — a stack is exact.
    conflict_stack: Vec<Var>,
    /// Provenance tags of bounds that participated in an infeasibility
    /// since the last [`clear_conflict_tags`](Simplex::clear_conflict_tags):
    /// both sides of every bound conflict, plus the blocking bounds of
    /// every terminal (no entering variable) pivot row. The union over a
    /// whole solver search seeds UNSAT-core extraction.
    conflict_tags: Vec<u32>,
    trail: Vec<TrailEntry>,
    /// Trail length and variable count at each open push.
    levels: Vec<(usize, usize)>,
    /// Pivot counter (statistics).
    pivots: u64,
    /// Coefficient entries written by pivots (statistics).
    pivot_entries: u64,
    /// Slack rows created (statistics).
    rows_created: u64,
    /// Hard wall-clock deadline for [`check`](Simplex::check); polled
    /// every [`DEADLINE_STRIDE`] pivots, counted across checks, so
    /// neither one pathological tableau nor a search made of many short
    /// checks can overshoot the caller's time budget by orders of
    /// magnitude.
    deadline: Option<std::time::Instant>,
    /// Pivot count at which `check` next polls `deadline`. Starts at 0,
    /// so the first check with a deadline polls before pivoting.
    next_poll: u64,
}

/// How many pivots pass between deadline polls. `Instant::now` costs a
/// vdso call — cheap, but not free against a sub-microsecond pivot.
const DEADLINE_STRIDE: u64 = 64;

impl Simplex {
    /// Creates an empty tableau.
    pub fn new() -> Simplex {
        Simplex::default()
    }

    /// Allocates a fresh, unbounded variable.
    pub fn new_var(&mut self, name: impl Into<String>) -> Var {
        self.new_named_var(Arc::from(name.into()))
    }

    /// [`new_var`](Simplex::new_var) with a name that is already shared.
    pub(crate) fn new_named_var(&mut self, name: Arc<str>) -> Var {
        let v = Var(self.vars.len() as u32);
        self.vars.push(VarState {
            lower: None,
            upper: None,
            lower_tag: None,
            upper_tag: None,
            value: Rat::ZERO,
            name,
        });
        self.row_of.push(NON_BASIC);
        self.cols.push(Vec::new());
        v
    }

    /// The number of variables (including slacks).
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The number of tableau rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Total pivots performed so far, pops' included (statistic).
    pub fn pivot_count(&self) -> u64 {
        self.pivots
    }

    /// Coefficient entries the pivots so far have written (statistic):
    /// the pivot row's and every substituted row's new coefficients.
    pub fn pivot_entries(&self) -> u64 {
        self.pivot_entries
    }

    /// Slack rows created so far, retracted ones included (statistic).
    pub fn rows_created(&self) -> u64 {
        self.rows_created
    }

    /// Sets (or clears) the wall-clock deadline enforced inside
    /// [`check`](Simplex::check)'s pivot loop.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// The name a variable was created with.
    pub fn var_name(&self, v: Var) -> &str {
        &self.vars[v.index()].name
    }

    /// The shared name of a variable, for models that outlive the solver.
    pub(crate) fn shared_name(&self, v: Var) -> &Arc<str> {
        &self.vars[v.index()].name
    }

    /// The current (rational) value of a variable. Only meaningful right
    /// after a [`check`](Simplex::check) that returned
    /// [`LpResult::Feasible`].
    pub fn value(&self, v: Var) -> Rat {
        self.vars[v.index()].value
    }

    /// Current lower bound of a variable.
    pub fn lower(&self, v: Var) -> Option<Rat> {
        self.vars[v.index()].lower
    }

    /// Current upper bound of a variable.
    pub fn upper(&self, v: Var) -> Option<Rat> {
        self.vars[v.index()].upper
    }

    /// Provenance tag of the current lower bound, if tagged.
    pub fn lower_tag(&self, v: Var) -> Option<u32> {
        self.vars[v.index()].lower_tag
    }

    /// Provenance tag of the current upper bound, if tagged.
    pub fn upper_tag(&self, v: Var) -> Option<u32> {
        self.vars[v.index()].upper_tag
    }

    /// Provenance tags of bounds that participated in any infeasibility
    /// observed since the last
    /// [`clear_conflict_tags`](Simplex::clear_conflict_tags). May contain
    /// duplicates; background (untagged) bounds are never listed.
    pub fn conflict_tags(&self) -> &[u32] {
        &self.conflict_tags
    }

    /// Clears the accumulated conflict-tag set.
    pub fn clear_conflict_tags(&mut self) {
        self.conflict_tags.clear();
    }

    /// Opens a backtracking level.
    pub fn push(&mut self) {
        self.levels.push((self.trail.len(), self.vars.len()));
    }

    /// Undoes everything since the matching [`push`](Simplex::push): the
    /// bounds asserted, then the variables created — slacks with their
    /// rows and cache entries. A [`Var`] created after the push is
    /// invalid afterwards, and its index is handed out again.
    ///
    /// # Panics
    ///
    /// Panics if there is no open level.
    pub fn pop(&mut self) {
        let (trail, live) = self.levels.pop().expect("pop without matching push");
        while self.trail.len() > trail {
            let (v, entry_is_lower, old, old_tag) = match self.trail.pop().unwrap() {
                TrailEntry::Lower(v, old, tag) => (v, true, old, tag),
                TrailEntry::Upper(v, old, tag) => (v, false, old, tag),
            };
            let st = &mut self.vars[v.index()];
            let was_conflict = st.conflicting();
            if entry_is_lower {
                st.lower = old;
                st.lower_tag = old_tag;
            } else {
                st.upper = old;
                st.upper_tag = old_tag;
            }
            // Bounds only tighten within a level, so restoring relaxes:
            // conflicts can disappear but never appear here — in reverse
            // order of appearance, matching the stack.
            if was_conflict && !st.conflicting() {
                let top = self.conflict_stack.pop();
                debug_assert_eq!(top, Some(v), "conflicts must resolve LIFO");
            }
        }
        while let Some((_, key)) = self.slack_keys.pop_if(|(s, _)| s.index() >= live) {
            self.slack_cache.remove(&key);
        }
        for v in (live..self.vars.len()).rev() {
            self.retract(Var(v as u32));
        }
        self.vars.truncate(live);
        self.row_of.truncate(live);
        self.cols.truncate(live);
        while self.suspect.last().is_some_and(|s| s.index() >= live) {
            self.suspect.pop_last();
        }
    }

    /// Takes `v` out of the tableau: deletes its row if it is basic;
    /// otherwise pivots it into a row of its column first and moves the
    /// variable that leaves the basis onto its bounds. Every variable
    /// above `v` must be retracted already, so no row mentions one.
    fn retract(&mut self, v: Var) {
        if !self.is_basic(v) {
            // The shortest row makes the cheapest pivot; ties go to the
            // lowest row, so the choice does not depend on column order.
            let rows = &self.rows;
            let col = self.cols[v.index()].iter().copied();
            let Some(r) = col.min_by_key(|&r| (rows[r as usize].coeffs.len(), r)) else {
                return;
            };
            let xi = self.rows[r as usize].basic;
            self.pivot_and_update(r as usize, v, self.vars[xi.index()].value);
            let st = &self.vars[xi.index()];
            let lower = st.lower.filter(|&l| st.value < l);
            if let Some(bound) = lower.or(st.upper.filter(|&u| st.value > u)) {
                self.update(xi, bound);
            }
        }
        self.delete_row(self.row_of[v.index()] as usize);
    }

    /// Deletes row `r` by moving the last row into its place; the
    /// deleted row's basic variable becomes non-basic.
    fn delete_row(&mut self, r: usize) {
        let row = self.rows.swap_remove(r);
        let r32 = r as u32;
        for &(w, _) in &row.coeffs {
            col_remove(&mut self.cols[w.index()], r32);
        }
        self.row_of[row.basic.index()] = NON_BASIC;
        if let Some(moved) = self.rows.get(r) {
            let last = self.rows.len() as u32;
            self.row_of[moved.basic.index()] = r32;
            for &(w, _) in &moved.coeffs {
                let entry = self.cols[w.index()].iter_mut().find(|x| **x == last);
                *entry.expect("column index lists the row") = r32;
            }
        }
    }

    fn is_basic(&self, v: Var) -> bool {
        self.row_of[v.index()] != NON_BASIC
    }

    /// Asserts `v >= bound`, tightening only. Returns `Infeasible` if the
    /// new bound contradicts the current upper bound.
    pub fn assert_lower(&mut self, v: Var, bound: Rat) -> LpResult {
        self.assert_lower_tagged(v, bound, None)
    }

    /// [`assert_lower`](Simplex::assert_lower) with a provenance tag
    /// recorded against the bound for UNSAT-core extraction.
    pub fn assert_lower_tagged(&mut self, v: Var, bound: Rat, tag: Option<u32>) -> LpResult {
        let st = &self.vars[v.index()];
        if st.lower.is_some_and(|l| l >= bound) {
            return LpResult::Feasible;
        }
        let was_conflict = st.conflicting();
        self.trail
            .push(TrailEntry::Lower(v, st.lower, st.lower_tag));
        let conflict_now = st.upper.is_some_and(|u| u < bound);
        let upper_tag = st.upper_tag;
        let st = &mut self.vars[v.index()];
        st.lower = Some(bound);
        st.lower_tag = tag;
        if conflict_now {
            // Record the tightening anyway so that pop() restores it; the
            // state is conflicting until then.
            if !was_conflict {
                self.conflict_stack.push(v);
            }
            self.conflict_tags.extend(tag);
            self.conflict_tags.extend(upper_tag);
            return LpResult::Infeasible;
        }
        if self.is_basic(v) {
            if self.vars[v.index()].value < bound {
                self.suspect.insert(v);
            }
        } else if self.vars[v.index()].value < bound {
            self.update(v, bound);
        }
        LpResult::Feasible
    }

    /// Asserts `v <= bound`, tightening only. Returns `Infeasible` if the
    /// new bound contradicts the current lower bound.
    pub fn assert_upper(&mut self, v: Var, bound: Rat) -> LpResult {
        self.assert_upper_tagged(v, bound, None)
    }

    /// [`assert_upper`](Simplex::assert_upper) with a provenance tag
    /// recorded against the bound for UNSAT-core extraction.
    pub fn assert_upper_tagged(&mut self, v: Var, bound: Rat, tag: Option<u32>) -> LpResult {
        let st = &self.vars[v.index()];
        if st.upper.is_some_and(|u| u <= bound) {
            return LpResult::Feasible;
        }
        let was_conflict = st.conflicting();
        self.trail
            .push(TrailEntry::Upper(v, st.upper, st.upper_tag));
        let conflict_now = st.lower.is_some_and(|l| l > bound);
        let lower_tag = st.lower_tag;
        let st = &mut self.vars[v.index()];
        st.upper = Some(bound);
        st.upper_tag = tag;
        if conflict_now {
            if !was_conflict {
                self.conflict_stack.push(v);
            }
            self.conflict_tags.extend(tag);
            self.conflict_tags.extend(lower_tag);
            return LpResult::Infeasible;
        }
        if self.is_basic(v) {
            if self.vars[v.index()].value > bound {
                self.suspect.insert(v);
            }
        } else if self.vars[v.index()].value > bound {
            self.update(v, bound);
        }
        LpResult::Feasible
    }

    /// Asserts a normalised [`Constraint`]. Single-variable constraints
    /// become direct bounds; general linear forms get a (cached) slack
    /// variable.
    pub fn assert_constraint(&mut self, c: &Constraint) -> LpResult {
        self.assert_constraint_tagged(c, None)
    }

    /// [`assert_constraint`](Simplex::assert_constraint) with a
    /// provenance tag recorded against every bound it produces.
    pub fn assert_constraint_tagged(&mut self, c: &Constraint, tag: Option<u32>) -> LpResult {
        if let Some(truth) = c.constant_truth() {
            return if truth {
                LpResult::Feasible
            } else {
                // Encode falsity as an impossible pair of bounds on a
                // throwaway variable, so that the conflict persists until
                // the enclosing level is popped.
                let f = self.new_var("false");
                let _ = self.assert_lower_tagged(f, Rat::ONE, tag);
                let _ = self.assert_upper_tagged(f, Rat::ZERO, tag);
                LpResult::Infeasible
            };
        }
        let expr = c.expr();
        let constant = expr.constant_term();
        // expr REL 0  ⇔  (expr - constant) REL -constant.
        if expr.num_terms() == 1 {
            let (v, k) = expr.iter().next().unwrap();
            // k·v REL -constant  ⇒  v REL' -constant/k (flip if k < 0).
            let bound = -constant / k;
            return match (c.rel(), k.is_positive()) {
                (Rel::Le, true) | (Rel::Ge, false) => self.assert_upper_tagged(v, bound, tag),
                (Rel::Ge, true) | (Rel::Le, false) => self.assert_lower_tagged(v, bound, tag),
                (Rel::Eq, _) => match self.assert_lower_tagged(v, bound, tag) {
                    LpResult::Infeasible => LpResult::Infeasible,
                    // assert_lower never times out (no pivoting).
                    _ => self.assert_upper_tagged(v, bound, tag),
                },
            };
        }
        let slack = self.slack_for(expr);
        let bound = -constant;
        match c.rel() {
            Rel::Le => self.assert_upper_tagged(slack, bound, tag),
            Rel::Ge => self.assert_lower_tagged(slack, bound, tag),
            Rel::Eq => match self.assert_lower_tagged(slack, bound, tag) {
                LpResult::Infeasible => LpResult::Infeasible,
                // assert_lower never times out (no pivoting).
                _ => self.assert_upper_tagged(slack, bound, tag),
            },
        }
    }

    /// Returns the slack variable representing the variable part of `expr`
    /// (ignoring its constant term), creating a tableau row if needed.
    fn slack_for(&mut self, expr: &LinExpr) -> Var {
        let key: Vec<(Var, Rat)> = expr.iter().collect();
        if let Some(&s) = self.slack_cache.get(&key) {
            return s;
        }
        let s = self.new_named_var(Arc::default());
        // Rewrite the defining equation over the current non-basic vars:
        // merge in, term by term, the row of each basic variable or the
        // term itself. Model-checking runs build hundreds of thousands
        // of rows, so this is a hot path.
        let mut coeffs: Vec<(Var, Rat)> = Vec::new();
        let mut buf: Vec<(Var, Rat)> = Vec::new();
        for (v, k) in expr.iter() {
            let direct = [(v, k)];
            let (delta, scale) = match self.row_of[v.index()] {
                NON_BASIC => (&direct[..], Rat::ONE),
                r => (&self.rows[r as usize].coeffs[..], k),
            };
            merge_scaled(&mut buf, &coeffs, delta, scale, |_, _| {});
            std::mem::swap(&mut coeffs, &mut buf);
        }
        let idx = u32::try_from(self.rows.len()).expect("tableau rows fit in u32");
        let mut value = Rat::ZERO;
        for &(w, kw) in &coeffs {
            value += kw * self.vars[w.index()].value;
            self.cols[w.index()].push(idx);
        }
        self.vars[s.index()].value = value;
        self.row_of[s.index()] = idx;
        self.rows.push(Row { basic: s, coeffs });
        self.rows_created += 1;
        self.slack_keys.push((s, key.clone()));
        self.slack_cache.insert(key, s);
        s
    }

    /// Sets the value of a non-basic variable, propagating through the
    /// rows that mention it (via the column index).
    fn update(&mut self, v: Var, value: Rat) {
        let delta = value - self.vars[v.index()].value;
        if delta.is_zero() {
            return;
        }
        for &idx in &self.cols[v.index()] {
            let row = &self.rows[idx as usize];
            let k = row.coeff(v).expect("column index row mentions v");
            self.vars[row.basic.index()].value += k * delta;
            self.suspect.insert(row.basic);
        }
        self.vars[v.index()].value = value;
    }

    /// Pivots basic `xi` (row `r`) with non-basic `xj`, then sets
    /// `xi := target` and adjusts `xj` accordingly.
    fn pivot_and_update(&mut self, r: usize, xj: Var, target: Rat) {
        self.pivots += 1;
        let r32 = r as u32;
        let xi = self.rows[r].basic;
        let a_ij = self.rows[r].coeff(xj).expect("pivot column in row");
        let theta = (target - self.vars[xi.index()].value) / a_ij;

        // xj's column empties: every row that mentions it gets xj
        // substituted away below, and row r becomes xj's own row.
        let mut xj_rows = std::mem::take(&mut self.cols[xj.index()]);

        // Value updates: only rows that mention xj change.
        self.vars[xi.index()].value = target;
        self.vars[xj.index()].value += theta;
        for &idx in &xj_rows {
            if idx == r32 {
                continue;
            }
            let row = &self.rows[idx as usize];
            let k = row.coeff(xj).expect("column index row mentions xj");
            self.vars[row.basic.index()].value += k * theta;
            self.suspect.insert(row.basic);
        }
        // xj enters the basis and may now violate its own bounds.
        self.suspect.insert(xj);

        // Tableau pivot: solve row r for xj.
        //   xi = a_ij·xj + Σ_k a_ik·xk
        //   xj = (1/a_ij)·xi − Σ_k (a_ik/a_ij)·xk
        // Row r keeps its place in the columns of the surviving xk.
        let old_coeffs = std::mem::take(&mut self.rows[r].coeffs);
        let inv = a_ij.recip();
        let mut new_coeffs: Vec<(Var, Rat)> = Vec::with_capacity(old_coeffs.len());
        let mut xi_inserted = false;
        for &(v, k) in &old_coeffs {
            if !xi_inserted && xi < v {
                new_coeffs.push((xi, inv));
                xi_inserted = true;
            }
            if v != xj {
                let c = -(k * inv);
                if c.is_zero() {
                    col_remove(&mut self.cols[v.index()], r32);
                } else {
                    new_coeffs.push((v, c));
                }
            }
        }
        if !xi_inserted {
            new_coeffs.push((xi, inv));
        }
        self.pivot_entries += new_coeffs.len() as u64;
        self.cols[xi.index()].push(r32);
        // Substitute xj's new definition into every row that mentions it:
        // row := row_without_xj + k · new_coeffs, a linear merge of two
        // sorted coefficient lists.
        for &idx in &xj_rows {
            if idx == r32 {
                continue;
            }
            let mut row = std::mem::take(&mut self.rows[idx as usize].coeffs);
            let pos = row
                .binary_search_by_key(&xj, |&(w, _)| w)
                .expect("column index row mentions xj");
            let k = row.remove(pos).1;
            let mut merged = std::mem::take(&mut self.merge_buf);
            let cols = &mut self.cols;
            merge_scaled(&mut merged, &row, &new_coeffs, k, |w, appeared| {
                if appeared {
                    cols[w.index()].push(idx);
                } else {
                    col_remove(&mut cols[w.index()], idx);
                }
            });
            self.pivot_entries += merged.len() as u64;
            self.rows[idx as usize].coeffs = merged;
            self.merge_buf = row;
        }
        // xj is basic now, so its column is empty; keep the allocation.
        xj_rows.clear();
        self.cols[xj.index()] = xj_rows;
        self.rows[r].basic = xj;
        self.rows[r].coeffs = new_coeffs;
        self.row_of[xi.index()] = NON_BASIC;
        self.row_of[xj.index()] = r32;
    }

    /// Whether a basic variable currently violates one of its bounds,
    /// and if so which bound it must be driven to.
    fn violation(&self, b: Var) -> Option<(Rat, bool)> {
        let st = &self.vars[b.index()];
        if let Some(l) = st.lower {
            if st.value < l {
                return Some((l, true));
            }
        }
        if let Some(u) = st.upper {
            if st.value > u {
                return Some((u, false));
            }
        }
        None
    }

    /// Restores feasibility of basic variables by pivoting (Bland's rule:
    /// always the smallest-index violated basic variable and the
    /// smallest-index eligible non-basic variable, which precludes
    /// cycling).
    pub fn check(&mut self) -> LpResult {
        // Bounds asserted while conflicting (assert_* returned Infeasible)
        // leave lower > upper somewhere; the stack tracks exactly which.
        if !self.conflict_stack.is_empty() {
            // Harvest both sides of every live bound conflict: the tags
            // recorded at assert time may predate the caller's last
            // clear_conflict_tags.
            for i in 0..self.conflict_stack.len() {
                let st = &self.vars[self.conflict_stack[i].index()];
                let (lt, ut) = (st.lower_tag, st.upper_tag);
                self.conflict_tags.extend(lt);
                self.conflict_tags.extend(ut);
            }
            return LpResult::Infeasible;
        }
        loop {
            if let Some(deadline) = self.deadline {
                if self.pivots >= self.next_poll {
                    if std::time::Instant::now() >= deadline {
                        return LpResult::TimedOut;
                    }
                    self.next_poll = self.pivots + DEADLINE_STRIDE;
                }
            }
            // Smallest violated basic variable. Every violated basic var
            // is in `suspect` (only value changes and bound tightenings
            // create violations, and both insert), so scanning the
            // suspect set in ascending order implements Bland's rule.
            let mut violated: Option<(usize, Rat, bool)> = None;
            let mut cleared: Vec<Var> = Vec::new();
            for &b in self.suspect.iter() {
                match self.row_of[b.index()] {
                    // Non-basic variables always satisfy their bounds.
                    NON_BASIC => cleared.push(b),
                    idx => match self.violation(b) {
                        Some((target, need_increase)) => {
                            violated = Some((idx as usize, target, need_increase));
                            break;
                        }
                        None => cleared.push(b),
                    },
                }
            }
            for b in cleared {
                self.suspect.remove(&b);
            }
            let Some((r, target, need_increase)) = violated else {
                return LpResult::Feasible;
            };
            // Smallest eligible non-basic variable in row r.
            let mut entering: Option<Var> = None;
            for &(xj, a) in &self.rows[r].coeffs {
                let st = &self.vars[xj.index()];
                let eligible = if need_increase {
                    // xi must increase: xj can move in the direction that
                    // increases xi.
                    (a.is_positive() && st.upper.is_none_or(|u| st.value < u))
                        || (a.is_negative() && st.lower.is_none_or(|l| st.value > l))
                } else {
                    (a.is_positive() && st.lower.is_none_or(|l| st.value > l))
                        || (a.is_negative() && st.upper.is_none_or(|u| st.value < u))
                };
                if eligible {
                    entering = Some(xj);
                    break; // coeffs are sorted in ascending Var order.
                }
            }
            match entering {
                Some(xj) => {
                    let xi = self.rows[r].basic;
                    self.pivot_and_update(r, xj, target);
                    // xi left the basis at exactly its violated bound.
                    self.suspect.remove(&xi);
                }
                None => {
                    // The terminal row is a Farkas certificate: the
                    // violated bound of the basic variable plus, for each
                    // non-basic variable in the row, the bound blocking
                    // movement in the helpful direction. Record their
                    // provenance tags for UNSAT-core extraction.
                    let xi = self.rows[r].basic;
                    let xi_tag = if need_increase {
                        self.vars[xi.index()].lower_tag
                    } else {
                        self.vars[xi.index()].upper_tag
                    };
                    self.conflict_tags.extend(xi_tag);
                    let row_tags: Vec<u32> = self.rows[r]
                        .coeffs
                        .iter()
                        .filter_map(|&(xj, a)| {
                            let st = &self.vars[xj.index()];
                            let blocks_at_upper = a.is_positive() == need_increase;
                            if blocks_at_upper {
                                st.upper_tag
                            } else {
                                st.lower_tag
                            }
                        })
                        .collect();
                    self.conflict_tags.extend(row_tags);
                    return LpResult::Infeasible;
                }
            }
        }
    }

    /// Verifies the internal invariants: every basic variable's value
    /// equals its row evaluated at the non-basic values, `row_of` and
    /// the rows agree on which variable is basic where, and the column
    /// index lists exactly the rows that mention each variable, each
    /// row once. Used by tests.
    #[doc(hidden)]
    pub fn debug_check_invariants(&self) -> bool {
        if self.row_of.len() != self.vars.len() || self.cols.len() != self.vars.len() {
            return false;
        }
        for (idx, row) in self.rows.iter().enumerate() {
            if self.row_of[row.basic.index()] as usize != idx {
                return false; // row_of must point back at the row
            }
            let mut acc = Rat::ZERO;
            if !row.coeffs.is_sorted_by_key(|&(v, _)| v) {
                return false; // rows must stay sorted for the merges
            }
            for &(v, k) in &row.coeffs {
                if k.is_zero() {
                    return false; // no explicit zero coefficients
                }
                if self.is_basic(v) {
                    return false; // rows must mention only non-basic vars
                }
                if !self.cols[v.index()].contains(&(idx as u32)) {
                    return false; // column index must cover every coeff
                }
                acc += k * self.vars[v.index()].value;
            }
            if acc != self.vars[row.basic.index()].value {
                return false;
            }
        }
        if self.row_of.iter().filter(|&&r| r != NON_BASIC).count() != self.rows.len() {
            return false; // row_of names no variable that owns no row
        }
        for (v, col) in self.cols.iter().enumerate() {
            let mut seen: Vec<u32> = col.clone();
            seen.sort_unstable();
            seen.dedup();
            if seen.len() != col.len() {
                return false; // no row listed twice in a column
            }
            for &idx in col {
                if self.rows[idx as usize].coeff(Var(v as u32)).is_none() {
                    return false; // no stale column entries
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(terms: &[(Var, i64)], c: i64) -> LinExpr {
        let mut e = LinExpr::constant(c);
        for &(v, k) in terms {
            e.add_term(v, Rat::from(k));
        }
        e
    }

    #[test]
    fn trivially_feasible() {
        let mut s = Simplex::new();
        let x = s.new_var("x");
        assert_eq!(s.assert_lower(x, Rat::ZERO), LpResult::Feasible);
        assert_eq!(s.check(), LpResult::Feasible);
        assert!(s.value(x) >= Rat::ZERO);
    }

    #[test]
    fn conflicting_bounds() {
        let mut s = Simplex::new();
        let x = s.new_var("x");
        assert_eq!(s.assert_lower(x, Rat::from(5)), LpResult::Feasible);
        assert_eq!(s.assert_upper(x, Rat::from(3)), LpResult::Infeasible);
        assert_eq!(s.check(), LpResult::Infeasible);
    }

    #[test]
    fn conflict_counter_pops_back() {
        let mut s = Simplex::new();
        let x = s.new_var("x");
        s.assert_lower(x, Rat::from(5));
        s.push();
        assert_eq!(s.assert_upper(x, Rat::from(3)), LpResult::Infeasible);
        assert_eq!(s.check(), LpResult::Infeasible);
        s.pop();
        assert_eq!(s.check(), LpResult::Feasible);
        s.push();
        assert_eq!(s.assert_upper(x, Rat::from(4)), LpResult::Infeasible);
        s.push();
        s.assert_upper(x, Rat::from(2));
        s.pop();
        assert_eq!(s.check(), LpResult::Infeasible);
        s.pop();
        assert_eq!(s.check(), LpResult::Feasible);
    }

    #[test]
    fn two_variable_system() {
        // x + y >= 10, x <= 3, y <= 4  is infeasible.
        let mut s = Simplex::new();
        let x = s.new_var("x");
        let y = s.new_var("y");
        let c = Constraint::ge(expr(&[(x, 1), (y, 1)], 0), LinExpr::constant(10));
        s.assert_constraint(&c);
        s.assert_upper(x, Rat::from(3));
        s.assert_upper(y, Rat::from(4));
        assert_eq!(s.check(), LpResult::Infeasible);
    }

    #[test]
    fn feasible_system_produces_model() {
        // x + y >= 10, x <= 7, y <= 6.
        let mut s = Simplex::new();
        let x = s.new_var("x");
        let y = s.new_var("y");
        s.assert_constraint(&Constraint::ge(
            expr(&[(x, 1), (y, 1)], 0),
            LinExpr::constant(10),
        ));
        s.assert_upper(x, Rat::from(7));
        s.assert_upper(y, Rat::from(6));
        assert_eq!(s.check(), LpResult::Feasible);
        assert!(s.value(x) + s.value(y) >= Rat::from(10));
        assert!(s.value(x) <= Rat::from(7));
        assert!(s.value(y) <= Rat::from(6));
        assert!(s.debug_check_invariants());
    }

    #[test]
    fn equality_constraints() {
        // 2x + 3y == 12, x == 3  =>  y == 2.
        let mut s = Simplex::new();
        let x = s.new_var("x");
        let y = s.new_var("y");
        s.assert_constraint(&Constraint::eq(
            expr(&[(x, 2), (y, 3)], 0),
            LinExpr::constant(12),
        ));
        s.assert_constraint(&Constraint::eq(LinExpr::var(x), LinExpr::constant(3)));
        assert_eq!(s.check(), LpResult::Feasible);
        assert_eq!(s.value(y), Rat::from(2));
    }

    #[test]
    fn push_pop_restores_feasibility() {
        let mut s = Simplex::new();
        let x = s.new_var("x");
        s.assert_lower(x, Rat::ZERO);
        assert_eq!(s.check(), LpResult::Feasible);
        s.push();
        s.assert_upper(x, Rat::from(-1));
        assert_eq!(s.check(), LpResult::Infeasible);
        s.pop();
        assert_eq!(s.check(), LpResult::Feasible);
    }

    #[test]
    fn slack_reuse() {
        let mut s = Simplex::new();
        let x = s.new_var("x");
        let y = s.new_var("y");
        let e = expr(&[(x, 1), (y, 1)], 0);
        s.assert_constraint(&Constraint::ge(e.clone(), LinExpr::constant(1)));
        let rows_before = s.num_rows();
        s.assert_constraint(&Constraint::le(e, LinExpr::constant(5)));
        assert_eq!(s.num_rows(), rows_before, "same form must reuse slack");
        assert_eq!(s.check(), LpResult::Feasible);
    }

    #[test]
    fn chained_slacks_through_basic_substitution() {
        // Force a pivot, then add a constraint whose expression mentions a
        // variable that is now basic.
        let mut s = Simplex::new();
        let x = s.new_var("x");
        let y = s.new_var("y");
        let z = s.new_var("z");
        s.assert_constraint(&Constraint::ge(
            expr(&[(x, 1), (y, 1)], 0),
            LinExpr::constant(4),
        ));
        assert_eq!(s.check(), LpResult::Feasible);
        s.assert_constraint(&Constraint::ge(
            expr(&[(x, 1), (z, 2)], 0),
            LinExpr::constant(3),
        ));
        s.assert_constraint(&Constraint::le(LinExpr::var(x), LinExpr::constant(0)));
        assert_eq!(s.check(), LpResult::Feasible);
        assert!(s.debug_check_invariants());
        assert!(s.value(x) + s.value(y) >= Rat::from(4));
        assert!(s.value(x) + s.value(z) * Rat::from(2) >= Rat::from(3));
    }

    #[test]
    fn unbounded_directions_are_fine() {
        // No upper bounds anywhere; feasibility must still be decided.
        let mut s = Simplex::new();
        let x = s.new_var("x");
        let y = s.new_var("y");
        s.assert_constraint(&Constraint::ge(
            expr(&[(x, 1), (y, -1)], 0),
            LinExpr::constant(100),
        ));
        assert_eq!(s.check(), LpResult::Feasible);
        assert!(s.value(x) - s.value(y) >= Rat::from(100));
    }

    #[test]
    fn repeated_incremental_checks_stay_consistent() {
        // A long push/assert/check/pop session exercising the column
        // index and the suspect set across backtracking.
        let mut s = Simplex::new();
        let vars: Vec<Var> = (0..6).map(|i| s.new_var(format!("v{i}"))).collect();
        for &v in &vars {
            s.assert_lower(v, Rat::ZERO);
        }
        s.assert_constraint(&Constraint::ge(
            expr(&[(vars[0], 1), (vars[1], 1), (vars[2], 1)], 0),
            LinExpr::constant(10),
        ));
        assert_eq!(s.check(), LpResult::Feasible);
        for round in 0..20 {
            s.push();
            s.assert_constraint(&Constraint::ge(
                expr(&[(vars[3], 1), (vars[round % 3], 2)], 0),
                LinExpr::constant(round as i64),
            ));
            s.assert_constraint(&Constraint::le(LinExpr::var(vars[3]), LinExpr::constant(5)));
            let r = s.check();
            assert_eq!(r, LpResult::Feasible, "round {round}");
            assert!(s.debug_check_invariants(), "round {round}");
            s.pop();
        }
        assert_eq!(s.check(), LpResult::Feasible);
        assert!(s.debug_check_invariants());
    }
}
