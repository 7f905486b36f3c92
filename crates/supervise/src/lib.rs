//! # holistic-supervise — the resilient verification supervisor
//!
//! The paper's holistic pipeline only pays off if the checker can
//! grind through a property×automaton matrix without a single stalled
//! query, solver overflow or worker panic taking the whole run down.
//! This crate wraps [`holistic_checker`]'s per-cell check in two
//! robustness layers:
//!
//! 1. **Worker isolation + retry** ([`supervisor`], [`failure`]) — each
//!    cell runs panic-isolated; failures are classified into a
//!    structured [`FailureKind`] taxonomy from the verdict's typed
//!    reason, and transient ones retried with exponential backoff and
//!    seeded jitter.
//! 2. **Graceful degradation** ([`supervisor`]) — cells that exhaust a
//!    budget step down full verification → depth-bounded check →
//!    the explicit-state oracle (`holistic_oracle::decide_spec`) on the
//!    cell's own automaton at small valuations, and the report records
//!    which [`Rung`] produced each verdict.
//!
//! On a clean run the supervisor does exactly what
//! [`Checker::check_matrix`](holistic_checker::Checker::check_matrix)
//! does: one `check_cell` per job on the caller's checker, in the same
//! pull-next worker pool. The `HOLISTIC_CHAOS` hook ([`chaos`]) lets CI
//! inject worker panics and tiny budgets into real binaries to exercise
//! both layers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod failure;
pub mod supervisor;

pub use chaos::ChaosOptions;
pub use failure::{FailureKind, Rung};
pub use supervisor::{CellRecord, LadderConfig, SupervisedJob, Supervisor, SupervisorConfig};
