//! Linear expressions over solver variables.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use crate::rat::Rat;

/// A solver variable.
///
/// Variables are allocated by [`Solver::new_var`](crate::Solver::new_var)
/// and are plain indices; they are only meaningful for the solver that
/// created them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The raw index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A linear expression `Σ cᵢ·xᵢ + c₀` with exact rational coefficients.
///
/// The terms live in a vector sorted by variable, with no zero
/// coefficient, so two expressions are equal iff they denote the same
/// linear function. Encodings build thousands of short expressions, and
/// a flat sorted vector adds, merges and hashes them without the node
/// allocations and pointer chasing of a tree map.
///
/// # Examples
///
/// ```
/// use holistic_lia::{LinExpr, Solver};
///
/// let mut solver = Solver::new();
/// let x = solver.new_var("x");
/// let y = solver.new_var("y");
/// let e = LinExpr::var(x) * 2 + LinExpr::var(y) - LinExpr::constant(3);
/// assert_eq!(e.coeff(x), 2.into());
/// assert_eq!(e.constant_term(), (-3).into());
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    /// `(variable, coefficient)` pairs, strictly ascending by variable,
    /// every coefficient non-zero.
    terms: Vec<(Var, Rat)>,
    constant: Rat,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: impl Into<Rat>) -> LinExpr {
        LinExpr {
            terms: Vec::new(),
            constant: c.into(),
        }
    }

    /// The expression `1·v`.
    pub fn var(v: Var) -> LinExpr {
        LinExpr::term(v, Rat::ONE)
    }

    /// The expression `c·v`.
    pub fn term(v: Var, c: impl Into<Rat>) -> LinExpr {
        let c = c.into();
        let terms = if c.is_zero() {
            Vec::new()
        } else {
            vec![(v, c)]
        };
        LinExpr {
            terms,
            constant: Rat::ZERO,
        }
    }

    /// Adds `c·v` to this expression.
    pub fn add_term(&mut self, v: Var, c: impl Into<Rat>) {
        let c = c.into();
        if c.is_zero() {
            return;
        }
        match self.terms.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => {
                let sum = self.terms[i].1 + c;
                if sum.is_zero() {
                    self.terms.remove(i);
                } else {
                    self.terms[i].1 = sum;
                }
            }
            Err(i) => self.terms.insert(i, (v, c)),
        }
    }

    /// Adds `rhs_terms` (negated when `negate`) to the terms by one
    /// merge of the two sorted lists.
    fn merge_terms(&mut self, rhs_terms: Vec<(Var, Rat)>, negate: bool) {
        let signed = |c: Rat| if negate { -c } else { c };
        match rhs_terms.len() {
            0 => return,
            1 => {
                let (v, c) = rhs_terms[0];
                self.add_term(v, signed(c));
                return;
            }
            _ => {}
        }
        if self.terms.is_empty() {
            self.terms = rhs_terms;
            if negate {
                for t in &mut self.terms {
                    t.1 = -t.1;
                }
            }
            return;
        }
        let lhs = std::mem::take(&mut self.terms);
        let mut out = Vec::with_capacity(lhs.len() + rhs_terms.len());
        let mut a = lhs.into_iter().peekable();
        let mut b = rhs_terms.into_iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(&(va, ca)), Some(&(vb, cb))) => match va.cmp(&vb) {
                    Ordering::Less => {
                        out.push((va, ca));
                        a.next();
                    }
                    Ordering::Greater => {
                        out.push((vb, signed(cb)));
                        b.next();
                    }
                    Ordering::Equal => {
                        let sum = ca + signed(cb);
                        if !sum.is_zero() {
                            out.push((va, sum));
                        }
                        a.next();
                        b.next();
                    }
                },
                (Some(_), None) => {
                    out.extend(a);
                    break;
                }
                (None, _) => {
                    out.extend(b.map(|(v, c)| (v, signed(c))));
                    break;
                }
            }
        }
        self.terms = out;
    }

    /// Adds a constant to this expression.
    pub fn add_constant(&mut self, c: impl Into<Rat>) {
        self.constant += c.into();
    }

    /// The coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: Var) -> Rat {
        match self.terms.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => self.terms[i].1,
            Err(_) => Rat::ZERO,
        }
    }

    /// The constant term.
    pub fn constant_term(&self) -> Rat {
        self.constant
    }

    /// Iterates over `(variable, coefficient)` pairs with non-zero
    /// coefficients, in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, Rat)> + '_ {
        self.terms.iter().copied()
    }

    /// The number of variables with non-zero coefficient.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Whether the expression is a constant (possibly zero).
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluates the expression under an assignment.
    pub fn eval(&self, assignment: impl Fn(Var) -> Rat) -> Rat {
        let mut acc = self.constant;
        for &(v, c) in &self.terms {
            acc += c * assignment(v);
        }
        acc
    }

    /// Multiplies every coefficient and the constant by `c`.
    pub fn scale(&self, c: impl Into<Rat>) -> LinExpr {
        let c = c.into();
        if c.is_zero() {
            return LinExpr::zero();
        }
        LinExpr {
            terms: self.terms.iter().map(|&(v, k)| (v, k * c)).collect(),
            constant: self.constant * c,
        }
    }

    /// The least common multiple of all coefficient denominators.
    ///
    /// Scaling by this value yields an expression with integer
    /// coefficients and an integer constant.
    pub fn denominator_lcm(&self) -> i128 {
        fn lcm(a: i128, b: i128) -> i128 {
            fn gcd(mut a: i128, mut b: i128) -> i128 {
                while b != 0 {
                    let t = a % b;
                    a = b;
                    b = t;
                }
                a.abs()
            }
            a / gcd(a, b) * b
        }
        let mut l = self.constant.denom();
        for &(_, c) in &self.terms {
            l = lcm(l, c.denom());
        }
        l
    }
}

impl From<Var> for LinExpr {
    fn from(v: Var) -> LinExpr {
        LinExpr::var(v)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        self.merge_terms(rhs.terms, false);
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        self -= rhs;
        self
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        self.merge_terms(rhs.terms, true);
        self.constant -= rhs.constant;
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self.scale(Rat::from(-1))
    }
}

impl Mul<i64> for LinExpr {
    type Output = LinExpr;
    fn mul(self, rhs: i64) -> LinExpr {
        self.scale(Rat::from(rhs))
    }
}

impl Mul<Rat> for LinExpr {
    type Output = LinExpr;
    fn mul(self, rhs: Rat) -> LinExpr {
        self.scale(rhs)
    }
}

impl fmt::Debug for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for &(v, c) in &self.terms {
            if first {
                if c == Rat::ONE {
                    write!(f, "{v}")?;
                } else {
                    write!(f, "{c}*{v}")?;
                }
                first = false;
            } else if c.is_negative() {
                if c == Rat::from(-1) {
                    write!(f, " - {v}")?;
                } else {
                    write!(f, " - {}*{v}", -c)?;
                }
            } else if c == Rat::ONE {
                write!(f, " + {v}")?;
            } else {
                write!(f, " + {c}*{v}")?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant.is_positive() {
            write!(f, " + {}", self.constant)?;
        } else if self.constant.is_negative() {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var(i)
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let mut e = LinExpr::var(v(0));
        e.add_term(v(0), Rat::from(-1));
        assert_eq!(e, LinExpr::zero());
        assert!(e.is_constant());
    }

    #[test]
    fn addition_merges_terms() {
        let e = LinExpr::var(v(0)) + LinExpr::term(v(0), 2) + LinExpr::var(v(1));
        assert_eq!(e.coeff(v(0)), Rat::from(3));
        assert_eq!(e.coeff(v(1)), Rat::ONE);
        assert_eq!(e.num_terms(), 2);
    }

    #[test]
    fn subtraction_and_negation() {
        let e = LinExpr::var(v(0)) - LinExpr::var(v(1));
        assert_eq!(e.coeff(v(1)), Rat::from(-1));
        let n = -e.clone();
        assert_eq!(n.coeff(v(0)), Rat::from(-1));
        assert_eq!(n.coeff(v(1)), Rat::ONE);
    }

    #[test]
    fn evaluation() {
        let e = LinExpr::term(v(0), 2) + LinExpr::term(v(1), -3) + LinExpr::constant(5);
        let val = e.eval(|var| {
            if var == v(0) {
                Rat::from(4)
            } else {
                Rat::from(1)
            }
        });
        assert_eq!(val, Rat::from(10));
    }

    #[test]
    fn denominator_lcm() {
        let e = LinExpr::term(v(0), Rat::new(1, 2)) + LinExpr::term(v(1), Rat::new(1, 3));
        assert_eq!(e.denominator_lcm(), 6);
        let scaled = e.scale(Rat::from(6));
        assert!(scaled.iter().all(|(_, c)| c.is_integer()));
    }

    #[test]
    fn display_is_readable() {
        let e = LinExpr::term(v(0), 2) - LinExpr::var(v(1)) + LinExpr::constant(-3);
        assert_eq!(e.to_string(), "2*x0 - x1 - 3");
        assert_eq!(LinExpr::zero().to_string(), "0");
    }
}
