//! # holistic-oracle — explicit-state oracle
//!
//! The symbolic checker answers *parameterized* questions with simplex
//! over rational lattices; a bug anywhere in that pipeline (schema
//! enumeration, SMT-free feasibility, the LTL reduction) could
//! silently produce wrong verdicts. This crate is the independent
//! second opinion: for a fixed small valuation `(n, t, f)` the counter
//! system is finite, so the oracle *concretely enumerates it* —
//! breadth-first search with a visited set, no rationals, no simplex,
//! no code shared with `holistic-lia` or `checker::explore` — and
//! decides the same safety/liveness queries by brute force.
//!
//! * [`concrete`] — the oracle's own counter-system semantics, re-derived
//!   from raw automaton data (it deliberately does not call
//!   `holistic_ta::CounterSystem`);
//! * [`decide`] — exhaustive BFS deciding classified queries per
//!   valuation, with an honest `Unknown` on budget exhaustion;
//! * [`replay`] — step-by-step replay of symbolic counterexamples
//!   through the oracle's transition relation — the one counterexample
//!   confirmer, used by the differential harness and the mutation kill
//!   matrix alike;
//! * [`schedules`] — independent context-chain enumeration pinned
//!   against the checker's step relation (`GuardInfo::extensions`), plus the
//!   concrete cross-check that observed chains are enumerated chains.
//!
//! The crate is a leaf: it depends only on the automaton, LTL and
//! checker data types. The differential harness that drives it over
//! the Table-2 cells and the mutant corpora lives in
//! `holistic_mutate::diff`.
//!
//! The harness's comparison rules account for the asymmetry between
//! the two pipelines: symbolic `Verified` is a claim about *all* admissible
//! parameters, so a concrete violation at any swept valuation refutes
//! it (hard failure); symbolic `Violated` comes with a counterexample
//! at specific parameters, which must replay concretely (and the
//! oracle must not prove `Holds` exhaustively at exactly those
//! parameters); symbolic `Unknown` is always acceptable — the checker
//! is allowed to give up, never to lie. Likewise the oracle's own
//! `Unknown` (state-budget exhaustion) is never counted against
//! either side.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod concrete;
pub mod decide;
pub mod replay;
pub mod schedules;

pub use concrete::{
    constraint_holds, eval_param_expr, eval_var_expr, guard_holds, ConcreteError, ConcreteSystem,
};
pub use decide::{
    combined_verdict, decide_query, decide_spec, OracleDecision, OracleError, OracleUnknownReason,
    OracleVerdict, OracleWitness,
};
pub use replay::{replay_counterexample, ReplayFailure, ReplayedCe};
pub use schedules::{enumerate_context_chains, observed_context_chains};
