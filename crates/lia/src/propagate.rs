//! Interval (bound) propagation presolve.
//!
//! A [`Propagator`] mirrors the solver's assertion stack and maintains,
//! for every variable, the tightest *interval* `[lo, hi]` derivable from
//! the asserted constraints by repeated one-variable projection: in
//! `Σ aᵢxᵢ + c ≥ 0`, once every variable but `xⱼ` has a finite bound on
//! the relevant side, the constraint projects to a bound on `xⱼ` alone.
//! Because all solver variables range over ℤ, projected bounds are
//! rounded to the integer grid (`ceil` for lower, `floor` for upper),
//! which is strictly stronger than the ℚ relaxation the simplex works
//! in — and still sound for the solver's ℤ semantics.
//!
//! The payoff is twofold. First, a constraint whose left-hand side has a
//! finite supremum below the requirement is *refuted* without a single
//! pivot — [`Solver::check`](crate::Solver::check) returns `Unsat`
//! before touching the simplex. Second, a disjunct of a deferred
//! disjunction that is interval-refutable under the current bounds can
//! be dropped without a case split, which is where the bulk of the
//! search-tree reduction comes from.
//!
//! Every derived bound carries a **reason**: the set of tracked
//! assertion tags its derivation chain passed through, and the highest
//! assertion level it depends on.
//! [`Solver::unsat_core`](crate::Solver::unsat_core) seeds its candidate
//! core from a conflict's tag set; the level decides how long the
//! conflict survives `pop`.
//!
//! Each `propagate` call stops at a fixpoint or once a variable has
//! been tightened [`STALL_LIMIT`] times, keeping what it derived.
//!
//! The propagator never feeds derived bounds back into the simplex:
//! the tableau's trajectory (and hence every model the solver returns)
//! is identical whether propagation is on or off; propagation can only
//! short-circuit work whose outcome it has already decided.

use crate::constraint::{Constraint, Rel};
use crate::formula::Formula;
use crate::linexpr::Var;
use crate::rat::Rat;

/// Tightenings of one variable per `propagate` call before the fixpoint
/// is abandoned. Converging fixpoints move each variable at most three
/// times; more means *creep*, such as `t + 1 ≤ f ∧ f ≤ t` over unbounded
/// parameters raising both lower bounds by one per round forever. The
/// limit bounds a call's work by `STALL_LIMIT × vars × occurrences`;
/// stopping is sound because propagation is a presolve.
const STALL_LIMIT: u32 = 8;

/// A derivation chain longer than this stops carrying tags; the
/// refutation still holds, it just no longer certifies a core.
const MAX_REASON_TAGS: usize = 48;

/// Derived bounds beyond this magnitude are treated as unbounded.
/// Mutually-recursive constraints (two equalities over shared
/// variables, say) can tighten a bound geometrically, and large
/// coefficients grow it fast even within [`STALL_LIMIT`] rounds; the
/// cap keeps such bounds well below where rational arithmetic would
/// saturate — and with it poison the whole solver — while leaving
/// every bound the checker's small-coefficient systems actually
/// produce untouched.
const MAGNITUDE_CAP: i128 = 1 << 48;

/// Why a bound (or conflict) holds.
#[derive(Clone, Debug)]
struct Reason {
    /// Highest assertion level the derivation depends on.
    level: u32,
    /// Tracked-assertion tags along the derivation chain, or `None`
    /// when the chain passed through an untracked multi-variable
    /// constraint (the conclusion is sound but uncertifiable).
    tags: Option<Vec<u32>>,
}

impl Reason {
    const BACKGROUND: Reason = Reason {
        level: 0,
        tags: Some(Vec::new()),
    };
}

/// An interval endpoint with its derivation.
#[derive(Clone, Debug)]
struct Bound {
    val: Rat,
    reason: Reason,
}

#[derive(Clone, Debug, Default)]
struct VarState {
    lo: Option<Bound>,
    hi: Option<Bound>,
    /// Background `>= 0` floor (declared non-negativity): not on the
    /// trail, so it lives as long as the variable, until
    /// [`Propagator::truncate_vars`] drops it.
    nonneg: bool,
    /// Tightenings in the running `propagate` call (each is on the
    /// trail, which resets the count when the call ends).
    tightened: u32,
}

/// An asserted constraint, normalized to `Σ terms + constant REL 0`.
#[derive(Debug)]
struct PropConstraint {
    terms: Vec<(Var, Rat)>,
    constant: Rat,
    rel: Rel,
    tag: Option<u32>,
    level: u32,
}

/// An infeasibility discovered by propagation. Persists until the
/// assertion stack pops below [`Conflict::level`] — the same lifetime
/// discipline as the simplex conflict stack.
#[derive(Clone, Debug)]
pub(crate) struct Conflict {
    /// Highest assertion level the refutation depends on.
    pub level: u32,
    /// Tracked-assertion tags of the refutation, if certifiable.
    pub tags: Option<Vec<u32>>,
}

struct Mark {
    trail: usize,
    cons: usize,
}

enum Undo {
    Lo(u32, Option<Bound>),
    Hi(u32, Option<Bound>),
}

/// Incremental interval propagation over a push/pop assertion stack.
pub(crate) struct Propagator {
    vars: Vec<VarState>,
    cons: Vec<PropConstraint>,
    /// `occurs[v]` = indices into `cons` mentioning `v`, ascending.
    occurs: Vec<Vec<u32>>,
    trail: Vec<Undo>,
    marks: Vec<Mark>,
    conflicts: Vec<Conflict>,
    /// Worklist of constraint indices to (re)propagate.
    queue: Vec<u32>,
    /// Dedup flag per constraint: already in `queue`.
    queued: Vec<bool>,
    /// Total bound tightenings performed (a `SolverStats` feed).
    pub propagations: u64,
}

impl Propagator {
    pub fn new() -> Propagator {
        Propagator {
            vars: Vec::new(),
            cons: Vec::new(),
            occurs: Vec::new(),
            trail: Vec::new(),
            marks: Vec::new(),
            conflicts: Vec::new(),
            queue: Vec::new(),
            queued: Vec::new(),
            propagations: 0,
        }
    }

    /// Current assertion level (number of open pushes).
    pub fn level(&self) -> u32 {
        self.marks.len() as u32
    }

    pub fn push(&mut self) {
        self.marks.push(Mark {
            trail: self.trail.len(),
            cons: self.cons.len(),
        });
    }

    pub fn pop(&mut self) {
        let mark = self.marks.pop().expect("propagator pop without push");
        while self.trail.len() > mark.trail {
            match self.trail.pop().unwrap() {
                Undo::Lo(v, old) => self.vars[v as usize].lo = old,
                Undo::Hi(v, old) => self.vars[v as usize].hi = old,
            }
        }
        for c in self.cons.drain(mark.cons..) {
            for (v, _) in c.terms {
                let occ = &mut self.occurs[v.index()];
                while occ.last().is_some_and(|&i| i as usize >= mark.cons) {
                    occ.pop();
                }
            }
        }
        self.queued.truncate(self.cons.len());
        self.queue.retain(|&i| (i as usize) < self.cons.len());
        // A conflict outlives the pop iff its derivation never relied
        // on the popped levels — the propagation analogue of the
        // simplex conflict stack.
        let live = self.level();
        self.conflicts.retain(|c| c.level <= live);
    }

    /// Declares `v >= 0` as a background fact (not popped, not part of
    /// any core).
    pub fn note_nonneg(&mut self, v: Var) {
        self.ensure_var(v);
        self.vars[v.index()].nonneg = true;
    }

    /// Forgets the variables from index `live` on, which a solver pop
    /// retracted, after their bounds and constraints were popped.
    pub fn truncate_vars(&mut self, live: usize) {
        self.vars.truncate(live);
        self.occurs.truncate(live);
    }

    fn ensure_var(&mut self, v: Var) {
        if self.vars.len() <= v.index() {
            self.vars.resize_with(v.index() + 1, VarState::default);
            self.occurs.resize_with(v.index() + 1, Vec::new);
        }
    }

    /// The current derived lower bound of `v`, if any (including the
    /// background non-negativity floor).
    pub fn lower(&self, v: Var) -> Option<Rat> {
        let st = self.vars.get(v.index())?;
        match (&st.lo, st.nonneg) {
            (Some(b), true) => Some(if b.val > Rat::ZERO { b.val } else { Rat::ZERO }),
            (Some(b), false) => Some(b.val),
            (None, true) => Some(Rat::ZERO),
            (None, false) => None,
        }
    }

    /// The current derived upper bound of `v`, if any.
    pub fn upper(&self, v: Var) -> Option<Rat> {
        Some(self.vars.get(v.index())?.hi.as_ref()?.val)
    }

    fn lo_bound(&self, v: Var) -> Option<(Rat, Reason)> {
        let st = self.vars.get(v.index())?;
        match &st.lo {
            Some(b) if !st.nonneg || b.val > Rat::ZERO => Some((b.val, b.reason.clone())),
            _ if st.nonneg => Some((Rat::ZERO, Reason::BACKGROUND)),
            Some(b) => Some((b.val, b.reason.clone())),
            None => None,
        }
    }

    fn hi_bound(&self, v: Var) -> Option<(Rat, Reason)> {
        let b = self.vars.get(v.index())?.hi.as_ref()?;
        Some((b.val, b.reason.clone()))
    }

    /// Records an asserted constraint and queues it for propagation.
    /// Trivially-constant constraints are ignored (the solver handles
    /// them before they get here).
    pub fn assert(&mut self, c: &Constraint, tag: Option<u32>) {
        if c.expr().num_terms() == 0 {
            return;
        }
        let terms: Vec<(Var, Rat)> = c.expr().iter().collect();
        for &(v, _) in &terms {
            self.ensure_var(v);
        }
        let idx = self.cons.len() as u32;
        for &(v, _) in &terms {
            self.occurs[v.index()].push(idx);
        }
        self.cons.push(PropConstraint {
            terms,
            constant: c.expr().constant_term(),
            rel: c.rel(),
            tag,
            level: self.level(),
        });
        self.queued.push(false);
        self.enqueue(idx);
    }

    fn enqueue(&mut self, idx: u32) {
        if !self.queued[idx as usize] {
            self.queued[idx as usize] = true;
            self.queue.push(idx);
        }
    }

    /// Whether a conflict is currently live.
    pub fn conflict(&self) -> Option<&Conflict> {
        self.conflicts.last()
    }

    /// Runs propagation to a fixpoint, or until a variable stalls.
    /// Returns `true` if a conflict is live afterwards.
    pub fn propagate(&mut self) -> bool {
        let start = self.trail.len();
        if self.conflict().is_none() {
            while let Some(idx) = self.queue.pop() {
                self.queued[idx as usize] = false;
                if self.step(idx) {
                    break;
                }
            }
        }
        // A conflict or a stall drops the rest of the worklist; bounds
        // derived so far stay on the trail. Sound — propagation is
        // advisory; the simplex decides.
        for idx in self.queue.drain(..) {
            self.queued[idx as usize] = false;
        }
        for Undo::Lo(v, _) | Undo::Hi(v, _) in &self.trail[start..] {
            self.vars[*v as usize].tightened = 0;
        }
        self.conflict().is_some()
    }

    /// Propagates one constraint; returns `true` when propagation must
    /// stop (a conflict, or a stalled variable).
    fn step(&mut self, idx: u32) -> bool {
        let rel = self.cons[idx as usize].rel;
        match rel {
            Rel::Ge => self.step_ge(idx),
            Rel::Le => self.step_le(idx),
            Rel::Eq => self.step_ge(idx) || self.step_le(idx),
        }
    }

    /// Propagates `Σ aᵢxᵢ + c ≥ 0`: refutes when the supremum of the
    /// left-hand side is negative, otherwise projects a bound onto any
    /// variable whose co-terms all have finite sup contributions.
    fn step_ge(&mut self, idx: u32) -> bool {
        // sup contribution of term (v, a): a*hi(v) if a > 0, a*lo(v) if
        // a < 0; infinite when the needed endpoint is absent.
        let (sum, inf_count, inf_at) = self.side_sum(idx, true);
        if inf_count == 0 {
            let total = sum + self.cons[idx as usize].constant;
            if total.is_negative() {
                let conflict = self.conflict_reason(idx, true, usize::MAX);
                self.conflicts.push(conflict);
                return true;
            }
        }
        if inf_count >= 2 {
            return false;
        }
        let nterms = self.cons[idx as usize].terms.len();
        for j in 0..nterms {
            if inf_count == 1 && inf_at != j {
                continue;
            }
            let (v, a) = self.cons[idx as usize].terms[j];
            // residual = sup of the other terms; with one infinite term
            // the only candidate j is that term, so the residual is the
            // full finite sum either way.
            let residual = if inf_count == 1 {
                sum
            } else {
                let contrib = self.side_contrib(v, a, true).expect("finite by inf_count");
                sum - contrib
            };
            // a*x >= -constant - residual
            let rhs = Rat::ZERO - self.cons[idx as usize].constant - residual;
            let bound = rhs / a;
            if a.is_positive() {
                let bound = Rat::from(bound.ceil());
                if self.tighten_lo(v, bound, idx, j, true) {
                    return true;
                }
            } else {
                let bound = Rat::from(bound.floor());
                if self.tighten_hi(v, bound, idx, j, true) {
                    return true;
                }
            }
        }
        false
    }

    /// Propagates `Σ aᵢxᵢ + c ≤ 0` (mirror of [`step_ge`] with the
    /// infimum).
    fn step_le(&mut self, idx: u32) -> bool {
        let (sum, inf_count, inf_at) = self.side_sum(idx, false);
        if inf_count == 0 {
            let total = sum + self.cons[idx as usize].constant;
            if total.is_positive() {
                let conflict = self.conflict_reason(idx, false, usize::MAX);
                self.conflicts.push(conflict);
                return true;
            }
        }
        if inf_count >= 2 {
            return false;
        }
        let nterms = self.cons[idx as usize].terms.len();
        for j in 0..nterms {
            if inf_count == 1 && inf_at != j {
                continue;
            }
            let (v, a) = self.cons[idx as usize].terms[j];
            let residual = if inf_count == 1 {
                sum
            } else {
                let contrib = self.side_contrib(v, a, false).expect("finite by inf_count");
                sum - contrib
            };
            // a*x <= -constant - residual
            let rhs = Rat::ZERO - self.cons[idx as usize].constant - residual;
            let bound = rhs / a;
            if a.is_positive() {
                let bound = Rat::from(bound.floor());
                if self.tighten_hi(v, bound, idx, j, false) {
                    return true;
                }
            } else {
                let bound = Rat::from(bound.ceil());
                if self.tighten_lo(v, bound, idx, j, false) {
                    return true;
                }
            }
        }
        false
    }

    /// `(finite_sum, infinite_count, index_of_sole_infinite_term)` of
    /// the sup (`upper = true`) or inf of the constraint's terms.
    fn side_sum(&self, idx: u32, upper: bool) -> (Rat, usize, usize) {
        let mut sum = Rat::ZERO;
        let mut inf_count = 0usize;
        let mut inf_at = usize::MAX;
        for (j, &(v, a)) in self.cons[idx as usize].terms.iter().enumerate() {
            match self.side_contrib(v, a, upper) {
                Some(x) => sum += x,
                None => {
                    inf_count += 1;
                    inf_at = j;
                }
            }
        }
        (sum, inf_count, inf_at)
    }

    /// The sup (or inf) contribution `a * bound(v)`, `None` if the
    /// needed endpoint is unbounded.
    fn side_contrib(&self, v: Var, a: Rat, upper: bool) -> Option<Rat> {
        let want_hi = a.is_positive() == upper;
        let b = if want_hi {
            self.upper(v)?
        } else {
            self.lower(v)?
        };
        Some(a * b)
    }

    /// The reason endpoint of `v`'s contribution to the sup/inf side.
    fn side_reason(&self, v: Var, a: Rat, upper: bool) -> Option<(Rat, Reason)> {
        let want_hi = a.is_positive() == upper;
        if want_hi {
            self.hi_bound(v)
        } else {
            self.lo_bound(v)
        }
    }

    /// Assembles the reason for a projection onto term `skip` (or a
    /// refutation when `skip == usize::MAX`) of constraint `idx`.
    fn conflict_reason(&self, idx: u32, upper: bool, skip: usize) -> Conflict {
        let c = &self.cons[idx as usize];
        let mut level = c.level;
        let mut tags: Option<Vec<u32>> = match c.tag {
            Some(t) => Some(vec![t]),
            // An untracked multi-variable constraint in the chain makes
            // the conclusion uncertifiable; an untracked *unit*
            // constraint is a plain bound the core verifier replays as
            // background.
            None if c.terms.len() > 1 => None,
            None => Some(Vec::new()),
        };
        for (j, &(v, a)) in c.terms.iter().enumerate() {
            if j == skip {
                continue;
            }
            let Some((_, reason)) = self.side_reason(v, a, upper) else {
                continue;
            };
            if reason.level > level {
                level = reason.level;
            }
            match (&mut tags, &reason.tags) {
                (Some(acc), Some(more)) => {
                    acc.extend_from_slice(more);
                    if acc.len() > MAX_REASON_TAGS {
                        tags = None;
                    }
                }
                _ => tags = None,
            }
        }
        if let Some(acc) = &mut tags {
            acc.sort_unstable();
            acc.dedup();
        }
        Conflict { level, tags }
    }

    /// Installs `v >= bound` if strictly tighter; returns `true` when
    /// the interval becomes empty (conflict) or `v` stalls. `upper`
    /// names the side of the co-terms' bounds the projection consumed
    /// (sup for `step_ge`, inf for `step_le`) — NOT the side being
    /// tightened — so the recorded reason cites the bounds actually used.
    fn tighten_lo(&mut self, v: Var, bound: Rat, idx: u32, term: usize, upper: bool) -> bool {
        let cur = self.lower(v);
        if cur.is_some_and(|c| c >= bound) {
            return false;
        }
        if bound.floor().abs() > MAGNITUDE_CAP {
            return false;
        }
        let Conflict { level, tags } = self.conflict_reason(idx, upper, term);
        // Empty interval: the new lower bound exceeds the upper bound.
        if let Some((hi, hr)) = self.hi_bound(v) {
            if bound > hi {
                let level = level.max(hr.level);
                let tags = merge_tags(tags, hr.tags);
                self.conflicts.push(Conflict { level, tags });
                return true;
            }
        }
        if self.stalls(v) {
            return true;
        }
        self.propagations += 1;
        let old = self.vars[v.index()].lo.take();
        self.trail.push(Undo::Lo(v.index() as u32, old));
        self.vars[v.index()].lo = Some(Bound {
            val: bound,
            reason: Reason { level, tags },
        });
        let occ = self.occurs[v.index()].clone();
        for c in occ {
            if c != idx {
                self.enqueue(c);
            }
        }
        false
    }

    /// Installs `v <= bound` if strictly tighter; returns `true` when
    /// the interval becomes empty or `v` stalls. `upper` as in
    /// [`Self::tighten_lo`].
    fn tighten_hi(&mut self, v: Var, bound: Rat, idx: u32, term: usize, upper: bool) -> bool {
        if self.upper(v).is_some_and(|c| c <= bound) {
            return false;
        }
        if bound.floor().abs() > MAGNITUDE_CAP {
            return false;
        }
        let Conflict { level, tags } = self.conflict_reason(idx, upper, term);
        if let Some((lo, lr)) = self.lo_bound(v) {
            if bound < lo {
                let level = level.max(lr.level);
                let tags = merge_tags(tags, lr.tags);
                self.conflicts.push(Conflict { level, tags });
                return true;
            }
        }
        if self.stalls(v) {
            return true;
        }
        self.propagations += 1;
        let old = self.vars[v.index()].hi.take();
        self.trail.push(Undo::Hi(v.index() as u32, old));
        self.vars[v.index()].hi = Some(Bound {
            val: bound,
            reason: Reason { level, tags },
        });
        let occ = self.occurs[v.index()].clone();
        for c in occ {
            if c != idx {
                self.enqueue(c);
            }
        }
        false
    }

    /// Counts one more tightening of `v` in this `propagate` call, or
    /// returns `true` when `v` has already used its [`STALL_LIMIT`].
    fn stalls(&mut self, v: Var) -> bool {
        let st = &mut self.vars[v.index()];
        if st.tightened == STALL_LIMIT {
            return true;
        }
        st.tightened += 1;
        false
    }

    /// Whether the constraint is violated by *every* assignment inside
    /// the current intervals — a stateless test used for disjunct
    /// filtering. Integer rounding is applied to the projected totals,
    /// so the test is exact for the solver's ℤ semantics.
    pub fn refutes(&self, c: &Constraint) -> bool {
        let constant = c.expr().constant_term();
        match c.rel() {
            Rel::Ge => self
                .expr_side(c, true)
                .is_some_and(|sup| (sup + constant).is_negative()),
            Rel::Le => self
                .expr_side(c, false)
                .is_some_and(|inf| (inf + constant).is_positive()),
            Rel::Eq => {
                self.expr_side(c, true)
                    .is_some_and(|sup| (sup + constant).is_negative())
                    || self
                        .expr_side(c, false)
                        .is_some_and(|inf| (inf + constant).is_positive())
            }
        }
    }

    /// Finite sup/inf of the constraint's term sum, `None` if unbounded
    /// on that side.
    fn expr_side(&self, c: &Constraint, upper: bool) -> Option<Rat> {
        let mut sum = Rat::ZERO;
        for (v, a) in c.expr().iter() {
            sum += self.side_contrib(v, a, upper)?;
        }
        Some(sum)
    }

    /// Whether an NNF formula is interval-refuted: an atom by
    /// [`refutes`](Propagator::refutes), a conjunction when any
    /// conjunct is, a disjunction when all disjuncts are.
    pub fn refutes_formula(&self, f: &Formula) -> bool {
        match f {
            Formula::True => false,
            Formula::False => true,
            Formula::Atom(c) => self.refutes(c),
            Formula::And(fs) => fs.iter().any(|g| self.refutes_formula(g)),
            Formula::Or(fs) => fs.iter().all(|g| self.refutes_formula(g)),
            Formula::Not(_) => false,
        }
    }
}

fn merge_tags(a: Option<Vec<u32>>, b: Option<Vec<u32>>) -> Option<Vec<u32>> {
    let (Some(mut a), Some(b)) = (a, b) else {
        return None;
    };
    a.extend(b);
    if a.len() > MAX_REASON_TAGS {
        return None;
    }
    a.sort_unstable();
    a.dedup();
    Some(a)
}
