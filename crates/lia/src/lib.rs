//! # holistic-lia — linear integer arithmetic for parameterized model checking
//!
//! A small, self-contained SMT-style solver for quantifier-free **linear
//! integer arithmetic**, built for the `holistic-checker` parameterized
//! model checker. It plays the role Z3 plays for ByMC: deciding the
//! per-schema constraint systems produced by the threshold-automata
//! encoding.
//!
//! The stack, bottom to top:
//!
//! * [`Rat`] — exact rational arithmetic (no floating point anywhere);
//! * [`LinExpr`] / [`Constraint`] — linear expressions and normalised
//!   integer constraints (strict inequalities tightened, coefficients
//!   scaled to integers);
//! * [`Simplex`] — an incremental general simplex (Dutertre–de Moura) for
//!   the rational relaxation, with trail-based push/pop;
//! * [`Formula`] / [`Solver`] — boolean structure by case splitting, and
//!   integrality by branch-and-bound. Budgets make the solver give up with
//!   [`SatResult::Unknown`] instead of looping; the model checker treats
//!   `Unknown` as "no verdict", never as "verified".
//!
//! # Examples
//!
//! ```
//! use holistic_lia::{Constraint, LinExpr, Solver};
//!
//! let mut solver = Solver::new();
//! let n = solver.new_nonneg_var("n");
//! let t = solver.new_nonneg_var("t");
//! // The resilience condition n > 3t with at least one fault tolerated.
//! solver.assert_constraint(Constraint::gt(LinExpr::var(n), LinExpr::term(t, 3)));
//! solver.assert_constraint(Constraint::ge(LinExpr::var(t), LinExpr::constant(1)));
//! let result = solver.check();
//! assert!(result.is_sat());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod constraint;
mod formula;
mod intern;
mod linexpr;
mod model;
mod rat;
mod simplex;
mod solver;

pub use constraint::{Constraint, Rel};
pub use formula::Formula;
pub use intern::{InternStats, Interner};
pub use linexpr::{LinExpr, Var};
pub use model::{Model, SatResult, UnknownReason};
pub use rat::{Rat, RatOverflow};
pub use simplex::{LpResult, Simplex};
pub use solver::{AssertId, Solver, SolverConfig, SolverStats};
