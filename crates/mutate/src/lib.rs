//! # holistic-mutate — mutation testing for the verifier
//!
//! The paper's claim is that holistic checking *certifies* the DBFT
//! automata; this crate supplies the standard soundness smoke test for
//! such tooling: seed semantic bugs into the verified automata and
//! demand that the checker catches (kills) them, with every kill backed
//! by a counterexample that replays to a concrete faulty execution.
//!
//! * [`operators`] — the mutation operator library (threshold
//!   off-by-one, guard direction flip, resilience weakening, rule
//!   drop/duplicate, update-vector tamper, self-loop injection), built
//!   on `holistic-ta`'s surgery APIs;
//! * [`corpus`] — the seeded mutant corpora for the bv-broadcast and
//!   simplified-consensus models, with triage notes for the designed
//!   survivors (equivalent mutants);
//! * [`kill`] — the kill-matrix runner: every mutant × every property
//!   through [`Checker::check_matrix`](holistic_checker::Checker),
//!   counterexamples confirmed by replay through the independent
//!   explicit-state oracle (`holistic_oracle::replay_counterexample`,
//!   no vacuous kills), results rendered as text and JSON;
//! * [`adjudicate`] — the survivor adjudication hook: the documented
//!   blind-spot survivors packaged (mutant, pristine automaton,
//!   properties, justice variants) for independent explicit-state
//!   adjudication;
//! * [`diff`] — the differential harness: every Table-2 cell and every
//!   seeded mutant at small parameters, symbolic checker vs.
//!   `holistic-oracle`, under soundness-approximation comparison
//!   rules, plus the oracle's adjudication of the survivors;
//! * [`generator`] — the random DAG threshold-automaton generator
//!   shared with `tests/cross_validation.rs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adjudicate;
pub mod corpus;
pub mod diff;
pub mod generator;
pub mod kill;
pub mod operators;

pub use adjudicate::{survivor_cases, AltScenario, SurvivorCase};
pub use corpus::{
    bv_broadcast_corpus, bv_kill_properties, simplified_corpus, simplified_kill_properties,
    smoke_ids,
};
pub use diff::{
    run_adjudication, run_diff, Agreement, CellDiff, DiffConfig, DiffReport, SurvivorVerdict,
};
pub use generator::random_ta;
pub use kill::{run_kill_matrix, CellResult, KillConfig, KillMatrix, MutantResult, Outcome};
pub use operators::Mutant;
