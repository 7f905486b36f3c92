//! Identifiers and arithmetic at the threshold-automaton level.
//!
//! Threshold automata talk about two separate vocabularies:
//!
//! * **parameters** (`n`, `t`, `f`): fixed for an execution, constrained
//!   by the resilience condition;
//! * **shared variables** (`b0`, `b1`, …): counters of sent messages,
//!   only ever *incremented* by rules.
//!
//! Threshold guards compare a linear combination of shared variables with
//! a linear combination of parameters, e.g. `b0 ≥ 2t + 1 − f`.

use std::fmt;

/// Index of a location within its automaton.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LocationId(pub usize);

/// Index of a rule within its automaton.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RuleId(pub usize);

/// Index of a shared variable within its automaton.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub usize);

/// Index of a parameter within its automaton.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ParamId(pub usize);

/// A linear expression over **parameters**: `Σ cᵢ·pᵢ + c₀`.
///
/// Coefficients are `i64`; thresholds in the paper's automata are tiny
/// (`2t + 1 − f`), so no arbitrary precision is needed here.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct ParamExpr {
    /// `(parameter, coefficient)` pairs, sorted by parameter, no zeros.
    coeffs: Vec<(ParamId, i64)>,
    constant: i64,
}

impl ParamExpr {
    /// A constant expression.
    pub fn constant(c: i64) -> ParamExpr {
        ParamExpr {
            coeffs: Vec::new(),
            constant: c,
        }
    }

    /// The expression `1·p`.
    pub fn param(p: ParamId) -> ParamExpr {
        ParamExpr::term(p, 1)
    }

    /// The expression `c·p`.
    pub fn term(p: ParamId, c: i64) -> ParamExpr {
        let mut e = ParamExpr::default();
        e.add_term(p, c);
        e
    }

    /// Adds `c·p` in place.
    pub fn add_term(&mut self, p: ParamId, c: i64) {
        if c == 0 {
            return;
        }
        match self.coeffs.binary_search_by_key(&p, |&(q, _)| q) {
            Ok(i) => {
                self.coeffs[i].1 += c;
                if self.coeffs[i].1 == 0 {
                    self.coeffs.remove(i);
                }
            }
            Err(i) => self.coeffs.insert(i, (p, c)),
        }
    }

    /// Adds a constant in place.
    pub fn add_constant(&mut self, c: i64) {
        self.constant += c;
    }

    /// Adds another expression in place.
    pub fn add(&mut self, other: &ParamExpr) {
        for &(p, c) in &other.coeffs {
            self.add_term(p, c);
        }
        self.constant += other.constant;
    }

    /// Returns `self - other`.
    pub fn sub(&self, other: &ParamExpr) -> ParamExpr {
        let mut out = self.clone();
        for &(p, c) in &other.coeffs {
            out.add_term(p, -c);
        }
        out.constant -= other.constant;
        out
    }

    /// The coefficient of a parameter.
    pub fn coeff(&self, p: ParamId) -> i64 {
        self.coeffs
            .binary_search_by_key(&p, |&(q, _)| q)
            .map(|i| self.coeffs[i].1)
            .unwrap_or(0)
    }

    /// The constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// `(parameter, coefficient)` pairs in parameter order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, i64)> + '_ {
        self.coeffs.iter().copied()
    }

    /// Evaluates the expression under concrete parameter values.
    pub fn eval(&self, values: &[i64]) -> i64 {
        let mut acc = self.constant;
        for &(p, c) in &self.coeffs {
            acc += c * values[p.0];
        }
        acc
    }

    /// Renders with the given parameter names.
    pub fn display<'a>(&'a self, names: &'a [String]) -> impl fmt::Display + 'a {
        DisplayParamExpr { expr: self, names }
    }
}

struct DisplayParamExpr<'a> {
    expr: &'a ParamExpr,
    names: &'a [String],
}

impl fmt::Display for DisplayParamExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (p, c) in self.expr.iter() {
            let name = &self.names[p.0];
            if first {
                match c {
                    1 => write!(f, "{name}")?,
                    -1 => write!(f, "-{name}")?,
                    _ => write!(f, "{c}{name}")?,
                }
                first = false;
            } else if c < 0 {
                if c == -1 {
                    write!(f, " - {name}")?;
                } else {
                    write!(f, " - {}{name}", -c)?;
                }
            } else if c == 1 {
                write!(f, " + {name}")?;
            } else {
                write!(f, " + {c}{name}")?;
            }
        }
        let k = self.expr.constant_term();
        if first {
            write!(f, "{k}")?;
        } else if k > 0 {
            write!(f, " + {k}")?;
        } else if k < 0 {
            write!(f, " - {}", -k)?;
        }
        Ok(())
    }
}

/// A linear expression over **shared variables**: `Σ cᵢ·xᵢ` (no constant;
/// shared-variable sums in guards are homogeneous).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct VarExpr {
    coeffs: Vec<(VarId, i64)>,
}

impl VarExpr {
    /// The expression `1·x`.
    pub fn var(x: VarId) -> VarExpr {
        VarExpr::term(x, 1)
    }

    /// The expression `c·x`.
    pub fn term(x: VarId, c: i64) -> VarExpr {
        let mut e = VarExpr::default();
        e.add_term(x, c);
        e
    }

    /// Adds `c·x` in place.
    pub fn add_term(&mut self, x: VarId, c: i64) {
        if c == 0 {
            return;
        }
        match self.coeffs.binary_search_by_key(&x, |&(y, _)| y) {
            Ok(i) => {
                self.coeffs[i].1 += c;
                if self.coeffs[i].1 == 0 {
                    self.coeffs.remove(i);
                }
            }
            Err(i) => self.coeffs.insert(i, (x, c)),
        }
    }

    /// The coefficient of a variable.
    pub fn coeff(&self, x: VarId) -> i64 {
        self.coeffs
            .binary_search_by_key(&x, |&(y, _)| y)
            .map(|i| self.coeffs[i].1)
            .unwrap_or(0)
    }

    /// `(variable, coefficient)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, i64)> + '_ {
        self.coeffs.iter().copied()
    }

    /// Whether every coefficient is non-negative (required for the
    /// monotonicity argument behind schema enumeration).
    pub fn is_nonneg(&self) -> bool {
        self.coeffs.iter().all(|&(_, c)| c >= 0)
    }

    /// Whether the expression has no terms.
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Evaluates under concrete shared-variable values.
    pub fn eval(&self, values: &[i64]) -> i64 {
        let mut acc = 0;
        for &(x, c) in &self.coeffs {
            acc += c * values[x.0];
        }
        acc
    }

    /// Renders with the given variable names.
    pub fn display<'a>(&'a self, names: &'a [String]) -> impl fmt::Display + 'a {
        DisplayVarExpr { expr: self, names }
    }
}

struct DisplayVarExpr<'a> {
    expr: &'a VarExpr,
    names: &'a [String],
}

impl fmt::Display for DisplayVarExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (x, c) in self.expr.iter() {
            let name = &self.names[x.0];
            if first {
                match c {
                    1 => write!(f, "{name}")?,
                    -1 => write!(f, "-{name}")?,
                    _ => write!(f, "{c}{name}")?,
                }
                first = false;
            } else if c < 0 {
                if c == -1 {
                    write!(f, " - {name}")?;
                } else {
                    write!(f, " - {}{name}", -c)?;
                }
            } else if c == 1 {
                write!(f, " + {name}")?;
            } else {
                write!(f, " + {c}{name}")?;
            }
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

/// The comparison of a threshold guard.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GuardCmp {
    /// `vars >= threshold` — a *rise* guard: with increment-only updates
    /// it can only flip false → true.
    Ge,
    /// `vars < threshold` — a *fall* guard: it can only flip true → false.
    Lt,
}

impl fmt::Display for GuardCmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardCmp::Ge => write!(f, ">="),
            GuardCmp::Lt => write!(f, "<"),
        }
    }
}

/// An atomic threshold guard `vars CMP threshold`, e.g. `b0 ≥ 2t+1−f`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AtomicGuard {
    /// The shared-variable side.
    pub lhs: VarExpr,
    /// The comparison.
    pub cmp: GuardCmp,
    /// The parameter side (threshold).
    pub rhs: ParamExpr,
}

impl AtomicGuard {
    /// `vars >= threshold`.
    pub fn ge(lhs: VarExpr, rhs: ParamExpr) -> AtomicGuard {
        AtomicGuard {
            lhs,
            cmp: GuardCmp::Ge,
            rhs,
        }
    }

    /// `vars < threshold`.
    pub fn lt(lhs: VarExpr, rhs: ParamExpr) -> AtomicGuard {
        AtomicGuard {
            lhs,
            cmp: GuardCmp::Lt,
            rhs,
        }
    }

    /// Whether this is a rise guard (monotone false → true).
    pub fn is_rise(&self) -> bool {
        self.cmp == GuardCmp::Ge
    }

    /// Evaluates under concrete shared and parameter values.
    pub fn eval(&self, shared: &[i64], params: &[i64]) -> bool {
        let l = self.lhs.eval(shared);
        let r = self.rhs.eval(params);
        match self.cmp {
            GuardCmp::Ge => l >= r,
            GuardCmp::Lt => l < r,
        }
    }
}

/// A conjunction of atomic guards; the empty conjunction is `true`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Guard {
    atoms: Vec<AtomicGuard>,
}

impl Guard {
    /// The trivially true guard.
    pub fn always() -> Guard {
        Guard::default()
    }

    /// A single-atom guard.
    pub fn atom(a: AtomicGuard) -> Guard {
        Guard { atoms: vec![a] }
    }

    /// A conjunction of atoms.
    pub fn all(atoms: impl IntoIterator<Item = AtomicGuard>) -> Guard {
        Guard {
            atoms: atoms.into_iter().collect(),
        }
    }

    /// The atoms of the conjunction.
    pub fn atoms(&self) -> &[AtomicGuard] {
        &self.atoms
    }

    /// Whether this is the trivially true guard.
    pub fn is_true(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Evaluates under concrete shared and parameter values.
    pub fn eval(&self, shared: &[i64], params: &[i64]) -> bool {
        self.atoms.iter().all(|a| a.eval(shared, params))
    }
}

/// The comparison of a resilience-condition constraint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ParamCmp {
    /// `lhs > rhs`
    Gt,
    /// `lhs >= rhs`
    Ge,
    /// `lhs == rhs`
    Eq,
    /// `lhs <= rhs`
    Le,
    /// `lhs < rhs`
    Lt,
}

impl fmt::Display for ParamCmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamCmp::Gt => write!(f, ">"),
            ParamCmp::Ge => write!(f, ">="),
            ParamCmp::Eq => write!(f, "=="),
            ParamCmp::Le => write!(f, "<="),
            ParamCmp::Lt => write!(f, "<"),
        }
    }
}

/// A constraint between two parameter expressions, used in resilience
/// conditions such as `n > 3t` or `t >= f`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ParamConstraint {
    /// Left-hand side.
    pub lhs: ParamExpr,
    /// Comparison.
    pub cmp: ParamCmp,
    /// Right-hand side.
    pub rhs: ParamExpr,
}

impl ParamConstraint {
    /// Creates a constraint.
    pub fn new(lhs: ParamExpr, cmp: ParamCmp, rhs: ParamExpr) -> ParamConstraint {
        ParamConstraint { lhs, cmp, rhs }
    }

    /// Evaluates under concrete parameter values.
    pub fn eval(&self, params: &[i64]) -> bool {
        let l = self.lhs.eval(params);
        let r = self.rhs.eval(params);
        match self.cmp {
            ParamCmp::Gt => l > r,
            ParamCmp::Ge => l >= r,
            ParamCmp::Eq => l == r,
            ParamCmp::Le => l <= r,
            ParamCmp::Lt => l < r,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_expr_arithmetic() {
        let t = ParamId(1);
        let f = ParamId(2);
        // 2t + 1 - f
        let mut e = ParamExpr::term(t, 2);
        e.add_constant(1);
        e.add_term(f, -1);
        assert_eq!(e.coeff(t), 2);
        assert_eq!(e.coeff(f), -1);
        assert_eq!(e.constant_term(), 1);
        // n=4, t=1, f=1 -> 2*1 + 1 - 1 = 2.
        assert_eq!(e.eval(&[4, 1, 1]), 2);
    }

    #[test]
    fn param_expr_cancellation() {
        let t = ParamId(0);
        let mut e = ParamExpr::term(t, 2);
        e.add_term(t, -2);
        assert_eq!(e, ParamExpr::constant(0));
    }

    #[test]
    fn param_expr_display() {
        let names = vec!["n".to_owned(), "t".to_owned(), "f".to_owned()];
        let mut e = ParamExpr::term(ParamId(1), 2);
        e.add_constant(1);
        e.add_term(ParamId(2), -1);
        assert_eq!(e.display(&names).to_string(), "2t - f + 1");
    }

    #[test]
    fn var_expr_and_guard_eval() {
        let b0 = VarId(0);
        let b1 = VarId(1);
        let sum = {
            let mut e = VarExpr::var(b0);
            e.add_term(b1, 1);
            e
        };
        // b0 + b1 >= n - t - f with n=4, t=1, f=0 -> threshold 3.
        let mut rhs = ParamExpr::param(ParamId(0));
        rhs.add_term(ParamId(1), -1);
        rhs.add_term(ParamId(2), -1);
        let g = AtomicGuard::ge(sum, rhs);
        assert!(g.is_rise());
        assert!(g.eval(&[2, 1], &[4, 1, 0]));
        assert!(!g.eval(&[1, 1], &[4, 1, 0]));
    }

    #[test]
    fn fall_guard() {
        let g = AtomicGuard::lt(VarExpr::var(VarId(0)), ParamExpr::constant(3));
        assert!(!g.is_rise());
        assert!(g.eval(&[2], &[]));
        assert!(!g.eval(&[3], &[]));
    }

    #[test]
    fn guard_conjunction() {
        let g = Guard::all([
            AtomicGuard::ge(VarExpr::var(VarId(0)), ParamExpr::constant(1)),
            AtomicGuard::ge(VarExpr::var(VarId(1)), ParamExpr::constant(2)),
        ]);
        assert!(g.eval(&[1, 2], &[]));
        assert!(!g.eval(&[1, 1], &[]));
        assert!(Guard::always().eval(&[0, 0], &[]));
    }

    #[test]
    fn param_constraint_eval() {
        // n > 3t.
        let c = ParamConstraint::new(
            ParamExpr::param(ParamId(0)),
            ParamCmp::Gt,
            ParamExpr::term(ParamId(1), 3),
        );
        assert!(c.eval(&[4, 1]));
        assert!(!c.eval(&[3, 1]));
    }
}
