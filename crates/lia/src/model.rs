//! Satisfying assignments.

use std::fmt;
use std::sync::Arc;

use crate::linexpr::{LinExpr, Var};
use crate::rat::Rat;

/// An integer assignment to the solver's user variables, produced by a
/// successful [`Solver::check`](crate::Solver::check).
///
/// The values sit in one vector in ascending variable order (the order
/// in which the solver created its user variables), and the names are
/// shared with the solver rather than copied, so building a model costs
/// one allocation per vector however many variables it assigns.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Model {
    /// Sorted by variable, no duplicates.
    values: Vec<(Var, i128)>,
    /// `names[i]` names `values[i].0`.
    names: Vec<Arc<str>>,
}

impl Model {
    pub(crate) fn with_capacity(n: usize) -> Model {
        Model {
            values: Vec::with_capacity(n),
            names: Vec::with_capacity(n),
        }
    }

    /// Appends an assignment; `v` must be greater than every variable
    /// assigned so far.
    pub(crate) fn push(&mut self, v: Var, value: i128, name: Arc<str>) {
        debug_assert!(self.values.last().is_none_or(|&(w, _)| w < v));
        self.values.push((v, value));
        self.names.push(name);
    }

    /// The value of a variable, if the model assigns one.
    pub fn get(&self, v: Var) -> Option<i128> {
        self.values
            .binary_search_by_key(&v, |&(w, _)| w)
            .ok()
            .map(|i| self.values[i].1)
    }

    /// The value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable is not assigned by this model.
    pub fn value(&self, v: Var) -> i128 {
        self.get(v)
            .unwrap_or_else(|| panic!("{v} is not assigned by this model"))
    }

    /// Evaluates a linear expression under this model.
    ///
    /// # Panics
    ///
    /// Panics if the expression mentions an unassigned variable.
    pub fn eval(&self, expr: &LinExpr) -> Rat {
        expr.eval(|v| Rat::from(self.value(v)))
    }

    /// Iterates over `(variable, value)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, i128)> + '_ {
        self.values.iter().copied()
    }

    /// The number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the model assigns no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ((v, x), name)) in self.values.iter().zip(&self.names).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if name.is_empty() {
                write!(f, "{v} = {x}")?;
            } else {
                write!(f, "{name} = {x}")?;
            }
        }
        Ok(())
    }
}

/// The verdict of a satisfiability check.
#[derive(Clone, PartialEq, Debug)]
pub enum SatResult {
    /// Satisfiable, with a witness model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// The solver gave up (budget exhausted). Never treated as a verdict
    /// by the model checker.
    Unknown(UnknownReason),
}

impl SatResult {
    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// Whether the result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }

    /// The model, if `Sat`.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Why a check returned [`SatResult::Unknown`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnknownReason {
    /// The branch-and-bound node budget was exhausted.
    BranchBudget,
    /// The case-split budget was exhausted.
    SplitBudget,
    /// Rational arithmetic saturated on `i128` overflow during the
    /// check, so any computed verdict would be untrustworthy (see
    /// [`Rat::take_overflow_flag`](crate::Rat::take_overflow_flag)).
    RatOverflow,
    /// The wall-clock deadline expired inside the simplex pivot loop
    /// (see [`SolverConfig::deadline`](crate::SolverConfig)).
    Deadline,
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::BranchBudget => write!(f, "branch-and-bound node budget exhausted"),
            UnknownReason::SplitBudget => write!(f, "case-split budget exhausted"),
            UnknownReason::RatOverflow => write!(f, "rational arithmetic overflowed i128"),
            UnknownReason::Deadline => write!(f, "wall-clock deadline expired mid-check"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x0 = 3` named "x", `x2 = -1` named "y", `x5 = 7` unnamed.
    fn sample() -> Model {
        let mut m = Model::with_capacity(3);
        m.push(Var(0), 3, Arc::from("x"));
        m.push(Var(2), -1, Arc::from("y"));
        m.push(Var(5), 7, Arc::default());
        m
    }

    #[test]
    fn get_finds_assigned_and_misses_unassigned() {
        let m = sample();
        assert_eq!(m.get(Var(0)), Some(3));
        assert_eq!(m.get(Var(2)), Some(-1));
        assert_eq!(m.get(Var(5)), Some(7));
        for v in [1, 3, 4, 6, 100] {
            assert_eq!(m.get(Var(v)), None, "x{v} is unassigned");
        }
        assert_eq!(m.value(Var(2)), -1);
        assert_eq!(Model::default().get(Var(0)), None);
    }

    #[test]
    #[should_panic(expected = "not assigned")]
    fn value_panics_on_unassigned() {
        sample().value(Var(1));
    }

    #[test]
    fn iter_is_ascending_and_len_counts() {
        let m = sample();
        let pairs: Vec<(Var, i128)> = m.iter().collect();
        assert_eq!(pairs, vec![(Var(0), 3), (Var(2), -1), (Var(5), 7)]);
        assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert!(Model::default().is_empty());
    }

    #[test]
    fn solver_models_assign_user_variables_in_creation_order() {
        let mut s = crate::Solver::new();
        let x = s.new_nonneg_var("x");
        let y = s.new_nonneg_var("y");
        // A two-variable constraint creates a slack between y and z.
        s.assert_constraint(crate::Constraint::ge(
            LinExpr::var(x) + LinExpr::var(y),
            LinExpr::constant(3),
        ));
        let z = s.new_nonneg_var("z");
        let m = s.check().model().cloned().expect("sat");
        let vars: Vec<Var> = m.iter().map(|(v, _)| v).collect();
        assert_eq!(vars, vec![x, y, z]);
        assert!(m.value(x) + m.value(y) >= 3);
        assert!(m.to_string().starts_with("x = "), "{m}");
    }

    #[test]
    fn eval_substitutes_values() {
        let m = sample();
        // 2·x0 − 3·x2 + x5 + 4 = 6 + 3 + 7 + 4.
        let mut e = LinExpr::constant(4);
        e.add_term(Var(0), Rat::from(2));
        e.add_term(Var(2), Rat::from(-3));
        e.add_term(Var(5), Rat::ONE);
        assert_eq!(m.eval(&e), Rat::from(20));
        assert_eq!(m.eval(&LinExpr::constant(-2)), Rat::from(-2));
    }

    #[test]
    fn display_uses_names_and_falls_back_to_variables() {
        assert_eq!(
            sample().to_string(),
            format!("x = 3, y = -1, {} = 7", Var(5))
        );
        assert_eq!(Model::default().to_string(), "");
    }
}
