//! The structured failure taxonomy and the degradation ladder rungs.
//!
//! Every cell of a supervised matrix run that full verification did
//! not decide carries a [`FailureKind`] saying *why* it produced no
//! definite verdict, and a [`Rung`] saying *which level* of the
//! graceful-degradation ladder produced the verdict that was reported.

use std::fmt;

use holistic_checker::{UnknownReason, Verdict};

/// Why a matrix cell failed to produce a definite verdict at full
/// verification strength.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// A DFS or matrix worker panicked; the panic was isolated and
    /// translated into an `Unknown` verdict.
    WorkerPanic,
    /// Exact rational arithmetic saturated on `i128` overflow inside
    /// the simplex, so the solver refused to trust its tableau.
    SolverOverflow,
    /// The wall-clock `time_budget` (or the in-pivot deadline) ran out.
    TimeBudget,
    /// The schema cap bounded the exploration before it finished.
    SchemaCap,
    /// The solver's branch/split budget ran dry.
    SolverBudget,
    /// The model was rejected before exploration (outside the
    /// supported fragment).
    ModelError,
}

impl FailureKind {
    /// Classifies a checker verdict: `None` for definite verdicts
    /// (`Verified` / `Violated`), the failure its reason names
    /// otherwise.
    pub fn classify(verdict: &Verdict) -> Option<FailureKind> {
        use holistic_lia::UnknownReason as Solver;
        match verdict {
            Verdict::Verified | Verdict::Violated(_) => None,
            Verdict::Unknown(reason) => Some(match reason {
                UnknownReason::WorkerPanic(_) => FailureKind::WorkerPanic,
                UnknownReason::TimeBudget { .. } | UnknownReason::Solver(Solver::Deadline) => {
                    FailureKind::TimeBudget
                }
                UnknownReason::SchemaCap { .. } => FailureKind::SchemaCap,
                UnknownReason::Solver(Solver::RatOverflow) => FailureKind::SolverOverflow,
                UnknownReason::Solver(Solver::BranchBudget | Solver::SplitBudget) => {
                    FailureKind::SolverBudget
                }
            }),
        }
    }

    /// The stable kebab-case name used in logs.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::WorkerPanic => "worker-panic",
            FailureKind::SolverOverflow => "solver-overflow",
            FailureKind::TimeBudget => "time-budget",
            FailureKind::SchemaCap => "schema-cap",
            FailureKind::SolverBudget => "solver-budget",
            FailureKind::ModelError => "model-error",
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which level of the graceful-degradation ladder produced a cell's
/// reported verdict.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum Rung {
    /// Full parameterized verification (the normal path).
    #[default]
    Full,
    /// Depth-bounded exploration: a small schema bound that can still
    /// find (replay-validated) violations but proves nothing beyond
    /// the bound unless the lattice happens to fit inside it.
    DepthBounded,
    /// The explicit-state oracle on the cell's own automaton at small
    /// valuations: a concrete run can refute the property, but no
    /// number of valuations proves it for all parameters.
    Oracle,
}

impl Rung {
    /// The stable kebab-case name used in logs.
    pub fn as_str(self) -> &'static str {
        match self {
            Rung::Full => "full",
            Rung::DepthBounded => "depth-bounded",
            Rung::Oracle => "oracle",
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_lia::UnknownReason as Solver;
    use std::time::Duration;

    #[test]
    fn every_unknown_reason_has_a_failure_kind() {
        let cases = [
            (
                UnknownReason::WorkerPanic("boom".to_owned()),
                FailureKind::WorkerPanic,
            ),
            (
                UnknownReason::TimeBudget {
                    budget: Duration::from_secs(1),
                    schemas: 3,
                },
                FailureKind::TimeBudget,
            ),
            (
                UnknownReason::SchemaCap { cap: 100 },
                FailureKind::SchemaCap,
            ),
            (
                UnknownReason::Solver(Solver::Deadline),
                FailureKind::TimeBudget,
            ),
            (
                UnknownReason::Solver(Solver::RatOverflow),
                FailureKind::SolverOverflow,
            ),
            (
                UnknownReason::Solver(Solver::BranchBudget),
                FailureKind::SolverBudget,
            ),
            (
                UnknownReason::Solver(Solver::SplitBudget),
                FailureKind::SolverBudget,
            ),
        ];
        for (reason, kind) in cases {
            let verdict = Verdict::Unknown(reason);
            assert_eq!(FailureKind::classify(&verdict), Some(kind), "{verdict:?}");
        }
        assert_eq!(FailureKind::classify(&Verdict::Verified), None);
    }
}
