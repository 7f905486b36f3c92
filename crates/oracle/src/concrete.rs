//! The oracle's own concrete counter-system semantics.
//!
//! This module deliberately re-derives everything from the raw automaton
//! data — linear-expression evaluation, resilience checking, guard
//! truth, enabledness, firing — instead of calling
//! [`holistic_ta::CounterSystem`]'s equivalents. The point of the oracle
//! is to disagree with the main pipeline whenever the main pipeline is
//! wrong, so the only things shared with it are the automaton *data
//! structures* and the [`Config`] state record (a dumb pair of vectors
//! that [`Prop::eval`](holistic_ltl::Prop::eval) is defined over).

use std::fmt;

use holistic_ta::{
    Config, Guard, GuardCmp, ParamCmp, ParamConstraint, ParamExpr, RuleId, ThresholdAutomaton,
    VarExpr,
};

/// Errors from instantiating a [`ConcreteSystem`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConcreteError {
    /// Wrong number of parameter values.
    ParamArity {
        /// Parameters declared by the automaton.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// The valuation violates the resilience condition.
    Resilience,
    /// The size expression evaluates to a non-positive process count.
    BadSize(i64),
}

impl fmt::Display for ConcreteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConcreteError::ParamArity { expected, got } => {
                write!(f, "expected {expected} parameter values, got {got}")
            }
            ConcreteError::Resilience => write!(f, "valuation violates the resilience condition"),
            ConcreteError::BadSize(s) => write!(f, "non-positive process count {s}"),
        }
    }
}

impl std::error::Error for ConcreteError {}

/// Evaluates a parameter-side linear expression from its raw terms.
pub fn eval_param_expr(e: &ParamExpr, params: &[i64]) -> i64 {
    e.iter().map(|(p, c)| c * params[p.0]).sum::<i64>() + e.constant_term()
}

/// Evaluates a shared-variable-side linear expression from its raw
/// terms.
pub fn eval_var_expr(e: &VarExpr, shared: &[i64]) -> i64 {
    e.iter().map(|(x, c)| c * shared[x.0]).sum::<i64>()
}

/// Decides one resilience constraint concretely.
pub fn constraint_holds(c: &ParamConstraint, params: &[i64]) -> bool {
    let l = eval_param_expr(&c.lhs, params);
    let r = eval_param_expr(&c.rhs, params);
    match c.cmp {
        ParamCmp::Gt => l > r,
        ParamCmp::Ge => l >= r,
        ParamCmp::Eq => l == r,
        ParamCmp::Le => l <= r,
        ParamCmp::Lt => l < r,
    }
}

/// Decides a conjunction of threshold guards concretely.
pub fn guard_holds(g: &Guard, shared: &[i64], params: &[i64]) -> bool {
    g.atoms().iter().all(|a| {
        let l = eval_var_expr(&a.lhs, shared);
        let r = eval_param_expr(&a.rhs, params);
        match a.cmp {
            GuardCmp::Ge => l >= r,
            GuardCmp::Lt => l < r,
        }
    })
}

/// A threshold automaton instantiated with one concrete parameter
/// valuation — the oracle's transition system.
#[derive(Debug)]
pub struct ConcreteSystem<'a> {
    ta: &'a ThresholdAutomaton,
    params: Vec<i64>,
    size: i64,
    /// Non-self-loop rules (self-loops never change a configuration, so
    /// the reachability relation ignores them).
    proper: Vec<RuleId>,
}

impl<'a> ConcreteSystem<'a> {
    /// Instantiates `ta` at `params`, checking arity, resilience and a
    /// positive process count with the oracle's own arithmetic.
    ///
    /// # Errors
    ///
    /// [`ConcreteError`] when the valuation is inadmissible.
    pub fn new(ta: &'a ThresholdAutomaton, params: &[i64]) -> Result<Self, ConcreteError> {
        if params.len() != ta.params.len() {
            return Err(ConcreteError::ParamArity {
                expected: ta.params.len(),
                got: params.len(),
            });
        }
        if !ta.resilience.iter().all(|c| constraint_holds(c, params)) {
            return Err(ConcreteError::Resilience);
        }
        let size = eval_param_expr(&ta.size_expr, params);
        if size <= 0 {
            return Err(ConcreteError::BadSize(size));
        }
        let proper = (0..ta.rules.len())
            .map(RuleId)
            .filter(|&r| !ta.rules[r.0].is_self_loop())
            .collect();
        Ok(ConcreteSystem {
            ta,
            params: params.to_vec(),
            size,
            proper,
        })
    }

    /// The automaton.
    pub fn ta(&self) -> &ThresholdAutomaton {
        self.ta
    }

    /// The parameter valuation.
    pub fn params(&self) -> &[i64] {
        &self.params
    }

    /// The concrete process count (`size_expr` at the valuation).
    pub fn size(&self) -> i64 {
        self.size
    }

    /// Every initial configuration: all distributions of `size`
    /// processes over the initial locations, shared variables zero.
    pub fn initial_configs(&self) -> Vec<Config> {
        let initials = self.ta.initial_locations();
        let mut out = Vec::new();
        let mut counters = vec![0i64; self.ta.locations.len()];
        self.distribute(&initials, 0, self.size, &mut counters, &mut out);
        out
    }

    fn distribute(
        &self,
        initials: &[holistic_ta::LocationId],
        idx: usize,
        remaining: i64,
        counters: &mut Vec<i64>,
        out: &mut Vec<Config>,
    ) {
        if idx + 1 == initials.len() {
            counters[initials[idx].0] = remaining;
            out.push(Config {
                counters: counters.clone(),
                shared: vec![0; self.ta.variables.len()],
            });
            counters[initials[idx].0] = 0;
            return;
        }
        for k in 0..=remaining {
            counters[initials[idx].0] = k;
            self.distribute(initials, idx + 1, remaining - k, counters, out);
            counters[initials[idx].0] = 0;
        }
    }

    /// Whether rule `r` can fire in `config` (source populated, guard
    /// true). Self-loops are reported as not enabled: they never change
    /// the configuration.
    pub fn is_enabled(&self, config: &Config, r: RuleId) -> bool {
        let rule = &self.ta.rules[r.0];
        !rule.is_self_loop()
            && config.counters[rule.from.0] >= 1
            && guard_holds(&rule.guard, &config.shared, &self.params)
    }

    /// The non-self-loop rules, in rule order.
    pub(crate) fn proper_rules(&self) -> &[RuleId] {
        &self.proper
    }

    /// Fires rule `r` once, overwriting `config` with the successor.
    /// The caller must have checked enabledness.
    pub(crate) fn step(&self, config: &mut Config, r: RuleId) {
        let rule = &self.ta.rules[r.0];
        config.counters[rule.from.0] -= 1;
        config.counters[rule.to.0] += 1;
        for &(v, amount) in &rule.update {
            config.shared[v.0] += amount as i64;
        }
    }

    /// Fires rule `r` once. The caller must have checked enabledness.
    pub fn apply(&self, config: &Config, r: RuleId) -> Config {
        let mut next = config.clone();
        self.step(&mut next, r);
        next
    }

    /// Fires rule `r` once with full legality checking — the entry point
    /// for replaying symbolic counterexamples through the oracle's
    /// transition relation.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the firing is illegal.
    pub fn fire(&self, config: &Config, r: RuleId) -> Result<Config, String> {
        let rule = &self.ta.rules[r.0];
        if rule.is_self_loop() {
            // Legal but a no-op; accelerated counterexamples never
            // contain self-loops, so flag it as suspicious.
            return Err(format!("rule {} is a self-loop", rule.name));
        }
        if config.counters[rule.from.0] < 1 {
            return Err(format!(
                "rule {} fires from empty location {}",
                rule.name,
                self.ta.location_name(rule.from)
            ));
        }
        if !guard_holds(&rule.guard, &config.shared, &self.params) {
            return Err(format!("guard of rule {} does not hold", rule.name));
        }
        Ok(self.apply(config, r))
    }

    /// All one-step successors of `config` under proper rules.
    pub fn successors(&self, config: &Config) -> Vec<(RuleId, Config)> {
        self.proper
            .iter()
            .filter(|&&r| self.is_enabled(config, r))
            .map(|&r| (r, self.apply(config, r)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_ta::{AtomicGuard, TaBuilder};

    fn tiny() -> ThresholdAutomaton {
        let mut b = TaBuilder::new("tiny");
        let n = b.param("n");
        let f = b.param("f");
        b.resilience_gt(n, f, 1);
        b.resilience_ge_const(f, 0);
        b.size_n_minus_f(n, f);
        let x = b.shared("x");
        let v = b.initial_location("V");
        let w = b.initial_location("W");
        let d = b.final_location("D");
        b.rule("r1", v, d, Guard::always()).inc(x, 1);
        b.rule(
            "r2",
            w,
            d,
            Guard::atom(AtomicGuard::ge(VarExpr::var(x), ParamExpr::constant(1))),
        );
        b.self_loop(d);
        b.build().unwrap()
    }

    #[test]
    fn rejects_inadmissible_valuations() {
        let ta = tiny();
        assert_eq!(
            ConcreteSystem::new(&ta, &[3]).unwrap_err(),
            ConcreteError::ParamArity {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            ConcreteSystem::new(&ta, &[1, 1]).unwrap_err(),
            ConcreteError::Resilience
        );
    }

    #[test]
    fn initial_configs_enumerate_all_distributions() {
        let ta = tiny();
        let sys = ConcreteSystem::new(&ta, &[3, 0]).unwrap();
        let inits = sys.initial_configs();
        // 3 processes over {V, W}: 4 distributions.
        assert_eq!(inits.len(), 4);
        for c in &inits {
            assert_eq!(c.counters.iter().sum::<i64>(), 3);
            assert!(c.shared.iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn guard_gates_enabledness() {
        let ta = tiny();
        let sys = ConcreteSystem::new(&ta, &[3, 0]).unwrap();
        let r2 = ta.rule_by_name("r2").unwrap();
        let start = Config {
            counters: vec![1, 2, 0],
            shared: vec![0],
        };
        assert!(!sys.is_enabled(&start, r2));
        let r1 = ta.rule_by_name("r1").unwrap();
        let after = sys.fire(&start, r1).unwrap();
        assert_eq!(after.shared, vec![1]);
        assert!(sys.is_enabled(&after, r2));
        // Overdraft is rejected.
        let drained = Config {
            counters: vec![0, 2, 1],
            shared: vec![1],
        };
        assert!(sys.fire(&drained, r1).is_err());
    }
}
