//! # holistic-sim — executable DBFT consensus
//!
//! A message-level simulation of the algorithms the paper verifies: the
//! binary value broadcast (Fig. 1) and the DBFT binary Byzantine
//! consensus (Alg. 1, the coordinator-free safe variant), under an
//! asynchronous reliable network whose delivery order is adversarial.
//!
//! * [`DbftProcess`] — a correct process (both protocol layers);
//! * [`Simulation`] — the system: correct + Byzantine processes, the
//!   in-flight message pool, the event trace;
//! * [`Scheduler`]s — [`RandomScheduler`] (optionally with Byzantine
//!   noise), [`GoodRoundScheduler`] (realises the paper's fairness
//!   assumption, Definition 3);
//! * [`run_lemma7`] — the scripted adversary of Lemma 7 / Appendix B
//!   that keeps DBFT undecided forever without fairness;
//! * [`monitor`] — Agreement/Validity/Termination and BV-property
//!   checks over traces;
//! * [`adversary`] — the Byzantine strategy library ([`StrategyKind`]):
//!   silence, equivocation, targeted lying, value-flip spam, Lemma-7
//!   style stalling, driven automatically via
//!   [`Simulation::run_with_adversary`];
//! * [`plan`] — scenario sweeps ([`FaultPlan::standard`]) running every
//!   strategy × system size on the reliable network under all
//!   monitors;
//! * [`shrink`] — schedule recording, replay, and delta-debugging of
//!   violating runs to minimal reproducing traces.
//!
//! # Examples
//!
//! ```
//! use holistic_sim::{GoodRoundScheduler, Outcome, SimParams, Simulation};
//!
//! let mut sim = Simulation::new(SimParams { n: 4, t: 1, f: 1 }, &[0, 1, 1, 0]);
//! let mut scheduler = GoodRoundScheduler::new();
//! assert_eq!(sim.run(&mut scheduler, 1_000_000), Outcome::AllDecided);
//! holistic_sim::monitor::check_agreement(&sim).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
mod lemma7;
mod message;
pub mod monitor;
pub mod plan;
mod process;
pub mod shrink;
mod simulation;

pub use adversary::{Adversary, AdversaryView, StrategyKind};
pub use lemma7::run_lemma7;
pub use message::{Envelope, Payload, ProcessId, ValueSet};
pub use plan::{FaultPlan, RunReport, Scenario, ShrunkViolation};
pub use process::{DbftProcess, Decision, Event};
pub use simulation::{
    GoodRoundScheduler, Outcome, RandomScheduler, ScheduleEvent, Scheduler, SimParams, Simulation,
};
