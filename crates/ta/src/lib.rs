//! # holistic-ta — threshold automata
//!
//! The modelling substrate of the holistic-verification workspace: the
//! threshold-automaton (TA) formalism of Konnov, Veith & Widder, in the
//! increment-only, DAG-shaped class used by the paper's models.
//!
//! * [`ThresholdAutomaton`] / [`TaBuilder`] — locations, shared
//!   variables, parameters, threshold-guarded rules, resilience
//!   conditions;
//! * [`CounterSystem`] — counter-system semantics for fixed parameters,
//!   through which the checker replays its counterexamples step by step;
//! * [`unroll`] — multi-round composition with round-switch rules (the
//!   "superround" construction of the paper's Figures 3 and 4);
//! * [`parse_ta`] — a ByMC-inspired text format;
//! * [`to_dot`] — Graphviz rendering, regenerating the paper's figures.
//!
//! # Examples
//!
//! ```
//! use holistic_ta::{parse_ta, Config, CounterSystem};
//!
//! let ta = parse_ta(
//!     "automaton demo {
//!          params n, t, f;
//!          shared echo;
//!          resilience n > 3t, t >= f, f >= 0;
//!          processes n - f;
//!          initial V;
//!          final D;
//!          rule send: V -> D when true do echo += 1;
//!      }",
//! )?;
//! let sys = CounterSystem::new(&ta, &[4, 1, 1])?;
//! let send = ta.rule_by_name("send").unwrap();
//! let start = Config { counters: vec![3, 0], shared: vec![0] };
//! assert!(sys.is_enabled(&start, send));
//! assert_eq!(sys.apply(&start, send).shared, vec![1]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod automaton;
mod counter_system;
mod dot;
mod expr;
mod multiround;
mod parse;
mod print;
mod surgery;

pub use automaton::{Location, Rule, RuleHandle, TaBuilder, ThresholdAutomaton, ValidationError};
pub use counter_system::{Config, CounterSystem, SemanticsError};
pub use dot::to_dot;
pub use expr::{
    AtomicGuard, Guard, GuardCmp, LocationId, ParamCmp, ParamConstraint, ParamExpr, ParamId,
    RuleId, VarExpr, VarId,
};
pub use multiround::unroll;
pub use parse::{parse_ta, ParseError};
pub use print::to_ta_source;
