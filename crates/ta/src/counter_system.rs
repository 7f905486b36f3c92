//! Counter-system semantics for *fixed* parameters: the checker's replay
//! semantics.
//!
//! The parameterized checker (`holistic-checker`) proves properties for
//! **all** parameter values. When it finds a violation, it replays the
//! claimed witness through this module one firing at a time, at the
//! witness's concrete valuation: [`CounterSystem::is_enabled`] checks
//! each firing, [`CounterSystem::apply`] takes it. Exhaustive
//! exploration of the counter system lives in `holistic-oracle`, which
//! re-derives these semantics on its own so that it can disagree with
//! the checker.

use std::fmt;

use crate::automaton::ThresholdAutomaton;
use crate::expr::RuleId;

/// A configuration of the counter system: per-location process counters
/// plus shared-variable values.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Config {
    /// `counters[l]` = number of (correct) processes in location `l`.
    pub counters: Vec<i64>,
    /// Shared-variable values.
    pub shared: Vec<i64>,
}

/// Errors from [`CounterSystem::new`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SemanticsError {
    /// Wrong number of parameter values.
    ParamArity {
        /// Parameters declared by the automaton.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// The parameter valuation violates the resilience condition.
    ResilienceViolated,
    /// The size expression evaluates to a negative process count.
    NegativeSize(i64),
}

impl fmt::Display for SemanticsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemanticsError::ParamArity { expected, got } => {
                write!(f, "expected {expected} parameter values, got {got}")
            }
            SemanticsError::ResilienceViolated => {
                write!(f, "parameter valuation violates the resilience condition")
            }
            SemanticsError::NegativeSize(s) => write!(f, "negative process count {s}"),
        }
    }
}

impl std::error::Error for SemanticsError {}

/// The counter system `Sys(TA)` of a threshold automaton for a fixed
/// parameter valuation.
///
/// # Examples
///
/// ```
/// use holistic_ta::{Config, CounterSystem, Guard, TaBuilder};
///
/// let mut b = TaBuilder::new("tiny");
/// let n = b.param("n");
/// let f = b.param("f");
/// let v = b.initial_location("V");
/// let d = b.final_location("D");
/// b.size_n_minus_f(n, f);
/// let r = b.rule("r", v, d, Guard::always()).id();
/// let ta = b.build().unwrap();
///
/// let sys = CounterSystem::new(&ta, &[3, 0]).unwrap();
/// let start = Config { counters: vec![3, 0], shared: vec![] };
/// assert!(sys.is_enabled(&start, r));
/// let next = sys.apply(&start, r);
/// assert_eq!(next.counters, vec![2, 1]);
/// ```
#[derive(Debug)]
pub struct CounterSystem<'a> {
    ta: &'a ThresholdAutomaton,
    params: Vec<i64>,
    size: i64,
}

impl<'a> CounterSystem<'a> {
    /// Instantiates the automaton with concrete parameter values.
    ///
    /// # Errors
    ///
    /// Fails when the arity is wrong, the resilience condition does not
    /// hold, or the size expression is negative.
    pub fn new(ta: &'a ThresholdAutomaton, params: &[i64]) -> Result<Self, SemanticsError> {
        if params.len() != ta.params.len() {
            return Err(SemanticsError::ParamArity {
                expected: ta.params.len(),
                got: params.len(),
            });
        }
        if !ta.resilience.iter().all(|c| c.eval(params)) {
            return Err(SemanticsError::ResilienceViolated);
        }
        let size = ta.size_expr.eval(params);
        if size < 0 {
            return Err(SemanticsError::NegativeSize(size));
        }
        Ok(CounterSystem {
            ta,
            params: params.to_vec(),
            size,
        })
    }

    /// The number of modelled processes.
    pub fn size(&self) -> i64 {
        self.size
    }

    /// Whether `rule` is enabled in `config` (guard true, source
    /// non-empty). Self-loops report as never enabled: they do not change
    /// the configuration.
    pub fn is_enabled(&self, config: &Config, rule: RuleId) -> bool {
        let r = &self.ta.rules[rule.0];
        if r.is_self_loop() {
            return false;
        }
        config.counters[r.from.0] >= 1 && r.guard.eval(&config.shared, &self.params)
    }

    /// Fires `rule` on `config`.
    ///
    /// # Panics
    ///
    /// Panics if the rule is not enabled.
    pub fn apply(&self, config: &Config, rule: RuleId) -> Config {
        assert!(self.is_enabled(config, rule), "rule not enabled");
        let r = &self.ta.rules[rule.0];
        let mut next = config.clone();
        next.counters[r.from.0] -= 1;
        next.counters[r.to.0] += 1;
        for &(v, amount) in &r.update {
            next.shared[v.0] += amount as i64;
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::TaBuilder;
    use crate::expr::{AtomicGuard, Guard, ParamExpr, VarExpr};

    /// A tiny echo automaton: V0/V1 broadcast, D after seeing n-f msgs.
    fn echo() -> ThresholdAutomaton {
        let mut b = TaBuilder::new("echo");
        let n = b.param("n");
        let _t = b.param("t");
        let f = b.param("f");
        let sent = b.shared("sent");
        let v0 = b.initial_location("V0");
        let v1 = b.initial_location("V1");
        let s = b.location("S");
        let d = b.final_location("D");
        b.size_n_minus_f(n, f);
        b.rule("send0", v0, s, Guard::always()).inc(sent, 1);
        b.rule("send1", v1, s, Guard::always()).inc(sent, 1);
        let mut thresh = ParamExpr::param(n);
        thresh.add_term(f, -1);
        b.rule(
            "deliver",
            s,
            d,
            Guard::atom(AtomicGuard::ge(VarExpr::var(sent), thresh)),
        );
        b.build().unwrap()
    }

    #[test]
    fn rejects_bad_params() {
        let ta = echo();
        assert!(matches!(
            CounterSystem::new(&ta, &[4, 1]),
            Err(SemanticsError::ParamArity { .. })
        ));
    }

    #[test]
    fn guard_blocks_until_threshold() {
        let ta = echo();
        let sys = CounterSystem::new(&ta, &[4, 1, 1]).unwrap();
        assert_eq!(sys.size(), 3);
        // One process in S, sent = 1 < n - f = 3: deliver disabled.
        let mut counters = vec![0i64; ta.locations.len()];
        counters[ta.location_by_name("S").unwrap().0] = 1;
        counters[ta.location_by_name("V0").unwrap().0] = 2;
        let cfg = Config {
            counters,
            shared: vec![1],
        };
        let deliver = ta.rule_by_name("deliver").unwrap();
        assert!(!sys.is_enabled(&cfg, deliver));
        let send0 = ta.rule_by_name("send0").unwrap();
        assert!(sys.is_enabled(&cfg, send0));
        // Two more sends reach the threshold.
        let cfg = sys.apply(&sys.apply(&cfg, send0), send0);
        assert_eq!(cfg.shared, vec![3]);
        assert!(sys.is_enabled(&cfg, deliver));
        let done = sys.apply(&cfg, deliver);
        assert_eq!(done.counters.iter().sum::<i64>(), 3);
        assert_eq!(done.counters[ta.location_by_name("D").unwrap().0], 1);
    }

    #[test]
    #[should_panic(expected = "rule not enabled")]
    fn apply_rejects_a_disabled_rule() {
        let ta = echo();
        let sys = CounterSystem::new(&ta, &[4, 1, 1]).unwrap();
        let empty = Config {
            counters: vec![0, 0, 3, 0],
            shared: vec![0],
        };
        sys.apply(&empty, ta.rule_by_name("send0").unwrap());
    }
}
