//! # holistic-checker — a parameterized model checker for threshold automata
//!
//! A from-scratch Rust rebuild of the verification pipeline the paper
//! runs through ByMC: given a threshold automaton (`holistic-ta`), an
//! LTL property (`holistic-ltl`) and a justice assumption, decide the
//! property for **every** parameter valuation admitted by the resilience
//! condition (e.g. all `n > 3t ≥ 3f ≥ 0`).
//!
//! ## Theory, in brief
//!
//! The supported class — all the paper's automata — is *increment-only,
//! DAG-shaped* threshold automata with rise guards. There:
//!
//! 1. Rise guards flip false → true at most once, so the **context**
//!    (set of unlocked guards) grows monotonically along any run, and
//!    every run factors through a monotone *context schedule*: a chain
//!    in the lattice whose steps are [`GuardInfo::extensions`]
//!    (implication-pruned via `holistic-lia`).
//! 2. Within a fixed context all enabled firings commute, so a run
//!    segment reorders into rule-grouped topological form with
//!    *acceleration factors*; reachability per schedule becomes a linear
//!    integer constraint system ([`Encoding`]).
//! 3. Safety properties need finitely many *witness points*, placed at
//!    schema boundaries ([`Encoding::assert_query_prop_somewhere`]).
//! 4. For liveness, every infinite run of a DAG automaton stabilises;
//!    under the paper's justice ("a rule whose guard holds forever
//!    drains its source"), a fair violation is exactly a reachable
//!    *justice-consistent* tail satisfying the negated goal — provided
//!    the goal/premise propositions are **stable**, which
//!    `holistic-ltl`'s classification verifies before reducing.
//! 5. Satisfying models are **replayed** through the concrete counter
//!    system before being reported ([`Counterexample::replay`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod checker;
mod counterexample;
mod encode;
mod explore;
mod guards;
mod matrix;

pub use checker::{
    panic_message, ChaosConfig, CheckError, CheckReport, Checker, CheckerConfig, QueryReport,
    QueryStats, UnknownReason, Verdict,
};
pub use counterexample::{CeStep, Counterexample, ReplayError};
pub use encode::{Encoding, Provenance, SymbolicRun};
pub use explore::{CorePatternSet, Exploration, ExplorationCache, ExplorationKey, Pruner};
pub use guards::{count_schedules, GuardError, GuardInfo};
pub use matrix::{pull_next, MatrixJob};
