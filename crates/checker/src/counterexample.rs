//! Counterexample reconstruction and validation.
//!
//! A satisfying model of a schema encoding is only a *claimed* witness;
//! before reporting it, the checker **replays** it through the concrete
//! counter-system semantics ([`holistic_ta::CounterSystem`]) — every
//! accelerated firing is expanded into single steps and re-checked
//! against guards and counters. A replay failure indicates an encoding
//! bug and is reported as an internal error rather than a verdict.

use std::fmt;

use holistic_ta::{Config, CounterSystem, RuleId, ThresholdAutomaton};

use crate::encode::SymbolicRun;

/// One accelerated step of a counterexample.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CeStep {
    /// Schema segment the step belongs to.
    pub segment: usize,
    /// The rule fired.
    pub rule: RuleId,
    /// How many processes take it (acceleration factor).
    pub times: u64,
}

/// A validated counterexample: concrete parameters, an initial
/// configuration, and a firing sequence that exhibits the violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Counterexample {
    /// Concrete parameter values (e.g. `n, t, f`).
    pub params: Vec<i64>,
    /// The initial configuration.
    pub initial: Config,
    /// The accelerated firing sequence.
    pub steps: Vec<CeStep>,
    /// Configurations at schema boundaries (`boundaries[0] == initial`,
    /// last is the final configuration).
    pub boundaries: Vec<Config>,
}

/// Replay failure: the model did not correspond to a legal run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReplayError {
    /// Description of the illegal step.
    pub message: String,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "counterexample replay failed: {}", self.message)
    }
}

impl std::error::Error for ReplayError {}

impl Counterexample {
    /// Replays a symbolic run through the concrete semantics.
    ///
    /// # Errors
    ///
    /// [`ReplayError`] if any firing is illegal — which means the SMT
    /// encoding and the semantics disagree (an internal bug, surfaced
    /// loudly instead of silently reporting a bogus trace).
    pub fn replay(
        ta: &ThresholdAutomaton,
        run: &SymbolicRun,
    ) -> Result<Counterexample, ReplayError> {
        let sys = CounterSystem::new(ta, &run.params).map_err(|e| ReplayError {
            message: format!("bad parameters {:?}: {e}", run.params),
        })?;
        let initial = Config {
            counters: run.init.clone(),
            shared: vec![0; ta.variables.len()],
        };
        if initial.counters.iter().sum::<i64>() != sys.size() {
            return Err(ReplayError {
                message: format!(
                    "initial counters sum to {}, expected {} processes",
                    initial.counters.iter().sum::<i64>(),
                    sys.size()
                ),
            });
        }
        let mut current = initial.clone();
        let mut steps = Vec::new();
        let mut boundaries = vec![initial.clone()];
        for (segment, seg_steps) in run.steps.iter().enumerate() {
            for &(rule, times) in seg_steps {
                for k in 0..times {
                    if !sys.is_enabled(&current, rule) {
                        return Err(ReplayError {
                            message: format!(
                                "rule {} not enabled at firing {}/{} in segment {}",
                                ta.rules[rule.0].name,
                                k + 1,
                                times,
                                segment
                            ),
                        });
                    }
                    current = sys.apply(&current, rule);
                }
                steps.push(CeStep {
                    segment,
                    rule,
                    times,
                });
            }
            boundaries.push(current.clone());
        }
        Ok(Counterexample {
            params: run.params.clone(),
            initial,
            steps,
            boundaries,
        })
    }

    /// The final configuration.
    pub fn final_config(&self) -> &Config {
        self.boundaries
            .last()
            .expect("at least the initial boundary")
    }

    /// Renders the counterexample with the automaton's names.
    pub fn display<'a>(&'a self, ta: &'a ThresholdAutomaton) -> impl fmt::Display + 'a {
        DisplayCe { ce: self, ta }
    }
}

struct DisplayCe<'a> {
    ce: &'a Counterexample,
    ta: &'a ThresholdAutomaton,
}

impl fmt::Display for DisplayCe<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ta = self.ta;
        write!(f, "parameters:")?;
        for (name, value) in ta.params.iter().zip(&self.ce.params) {
            write!(f, " {name}={value}")?;
        }
        writeln!(f)?;
        write!(f, "initial:")?;
        for (i, &c) in self.ce.initial.counters.iter().enumerate() {
            if c != 0 {
                write!(f, " {}×{}", c, ta.locations[i].name)?;
            }
        }
        writeln!(f)?;
        let mut seg = usize::MAX;
        for step in &self.ce.steps {
            if step.segment != seg {
                seg = step.segment;
                writeln!(f, "segment {seg}:")?;
            }
            let rule = &ta.rules[step.rule.0];
            writeln!(
                f,
                "  {} × {}  ({} -> {})",
                rule.name, step.times, ta.locations[rule.from.0].name, ta.locations[rule.to.0].name
            )?;
        }
        let last = self.ce.final_config();
        write!(f, "final:")?;
        for (i, &c) in last.counters.iter().enumerate() {
            if c != 0 {
                write!(f, " {}×{}", c, ta.locations[i].name)?;
            }
        }
        writeln!(f)?;
        write!(f, "shared:")?;
        for (i, &v) in last.shared.iter().enumerate() {
            write!(f, " {}={}", ta.variables[i], v)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_ta::{Guard, TaBuilder};

    fn ta() -> ThresholdAutomaton {
        let mut b = TaBuilder::new("t");
        let n = b.param("n");
        let f = b.param("f");
        b.resilience_gt(n, f, 1);
        b.size_n_minus_f(n, f);
        let x = b.shared("x");
        let v = b.initial_location("V");
        let d = b.final_location("D");
        b.rule("r1", v, d, Guard::always()).inc(x, 1);
        b.build().unwrap()
    }

    #[test]
    fn replay_accepts_legal_run() {
        let ta = ta();
        let run = SymbolicRun {
            params: vec![3, 1],
            init: vec![2, 0],
            steps: vec![vec![(RuleId(0), 2)]],
        };
        let ce = Counterexample::replay(&ta, &run).expect("legal run");
        assert_eq!(ce.final_config().counters, vec![0, 2]);
        assert_eq!(ce.final_config().shared, vec![2]);
        assert_eq!(ce.boundaries.len(), 2);
        let text = ce.display(&ta).to_string();
        assert!(text.contains("n=3"), "{text}");
        assert!(text.contains("r1 × 2"), "{text}");
    }

    #[test]
    fn replay_rejects_overdraft() {
        let ta = ta();
        let run = SymbolicRun {
            params: vec![3, 1],
            init: vec![2, 0],
            steps: vec![vec![(RuleId(0), 3)]],
        };
        let err = Counterexample::replay(&ta, &run).unwrap_err();
        assert!(err.message.contains("not enabled"), "{err}");
    }

    #[test]
    fn replay_rejects_wrong_process_count() {
        let ta = ta();
        let run = SymbolicRun {
            params: vec![3, 1],
            init: vec![5, 0],
            steps: vec![],
        };
        assert!(Counterexample::replay(&ta, &run).is_err());
    }
}
