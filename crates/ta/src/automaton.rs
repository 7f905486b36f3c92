//! Threshold automata.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::expr::{AtomicGuard, Guard, LocationId, ParamConstraint, ParamExpr, RuleId, VarId};

/// A location (local state of a process).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Location {
    /// Human-readable name (e.g. `V0`, `CB1`).
    pub name: String,
    /// Whether processes may start here.
    pub initial: bool,
    /// Whether this is a final location (used by liveness specifications
    /// and by round-switch construction).
    pub is_final: bool,
}

/// A guarded rule `from → to` with shared-variable increments.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    /// Rule name (e.g. `r3`).
    pub name: String,
    /// Source location.
    pub from: LocationId,
    /// Destination location.
    pub to: LocationId,
    /// Threshold guard (conjunction; empty = `true`).
    pub guard: Guard,
    /// Increments `(variable, amount)` applied when the rule fires;
    /// amounts are strictly positive.
    pub update: Vec<(VarId, u64)>,
    /// Whether this is a round-switch rule (connects one round's final
    /// locations to the next round's initial locations in an unrolled
    /// multi-round automaton).
    pub round_switch: bool,
}

impl Rule {
    /// Whether the rule is a self-loop (`from == to`).
    pub fn is_self_loop(&self) -> bool {
        self.from == self.to
    }
}

/// Errors produced by [`ThresholdAutomaton::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ValidationError {
    /// No location is marked initial.
    NoInitialLocation,
    /// A rule references a location out of range.
    BadLocation(RuleId),
    /// A rule updates a variable out of range.
    BadVariable(RuleId),
    /// A rule's update increment is zero.
    ZeroIncrement(RuleId),
    /// A self-loop carries an update, which would let a single process
    /// pump a shared variable unboundedly and break the monotone-context
    /// argument.
    SelfLoopWithUpdate(RuleId),
    /// A guard has a negative coefficient on a shared variable, breaking
    /// rise/fall monotonicity.
    NonMonotoneGuard(RuleId),
    /// Two locations share a name.
    DuplicateLocationName(String),
    /// Two shared variables share a name.
    DuplicateVariableName(String),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::NoInitialLocation => write!(f, "no initial location"),
            ValidationError::BadLocation(r) => write!(f, "rule {} uses unknown location", r.0),
            ValidationError::BadVariable(r) => write!(f, "rule {} uses unknown variable", r.0),
            ValidationError::ZeroIncrement(r) => write!(f, "rule {} has a zero increment", r.0),
            ValidationError::SelfLoopWithUpdate(r) => {
                write!(f, "rule {} is a self-loop with an update", r.0)
            }
            ValidationError::NonMonotoneGuard(r) => write!(
                f,
                "rule {} has a guard with a negative shared-variable coefficient",
                r.0
            ),
            ValidationError::DuplicateLocationName(n) => {
                write!(f, "duplicate location name {n:?}")
            }
            ValidationError::DuplicateVariableName(n) => {
                write!(f, "duplicate shared-variable name {n:?}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// A threshold automaton `⟨L, I, Γ, Π, R, RC⟩` in the sense of Konnov,
/// Veith & Widder, restricted to increment-only updates (the class used
/// throughout the paper).
///
/// Build one with [`TaBuilder`](crate::TaBuilder) or parse the text
/// format with [`parse_ta`](crate::parse_ta).
#[derive(Clone, PartialEq, Debug)]
pub struct ThresholdAutomaton {
    /// Automaton name.
    pub name: String,
    /// Locations, indexed by [`LocationId`].
    pub locations: Vec<Location>,
    /// Shared-variable names, indexed by [`VarId`].
    pub variables: Vec<String>,
    /// Parameter names, indexed by `ParamId`.
    pub params: Vec<String>,
    /// Rules, indexed by [`RuleId`].
    pub rules: Vec<Rule>,
    /// The resilience condition, a conjunction of parameter constraints
    /// (e.g. `n > 3t ∧ t ≥ f ∧ f ≥ 0`).
    pub resilience: Vec<ParamConstraint>,
    /// The number of modelled processes as a parameter expression
    /// (typically `n − f`: only correct processes are modelled
    /// explicitly; Byzantine influence is folded into the guards).
    pub size_expr: ParamExpr,
}

impl ThresholdAutomaton {
    /// Locations marked initial.
    pub fn initial_locations(&self) -> Vec<LocationId> {
        self.locations
            .iter()
            .enumerate()
            .filter(|(_, l)| l.initial)
            .map(|(i, _)| LocationId(i))
            .collect()
    }

    /// Locations marked final.
    pub fn final_locations(&self) -> Vec<LocationId> {
        self.locations
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_final)
            .map(|(i, _)| LocationId(i))
            .collect()
    }

    /// Looks a location up by name.
    pub fn location_by_name(&self, name: &str) -> Option<LocationId> {
        self.locations
            .iter()
            .position(|l| l.name == name)
            .map(LocationId)
    }

    /// Looks a shared variable up by name.
    pub fn variable_by_name(&self, name: &str) -> Option<VarId> {
        self.variables.iter().position(|v| v == name).map(VarId)
    }

    /// Looks a parameter up by name.
    pub fn param_by_name(&self, name: &str) -> Option<crate::ParamId> {
        self.params
            .iter()
            .position(|p| p == name)
            .map(crate::ParamId)
    }

    /// Looks a rule up by name.
    pub fn rule_by_name(&self, name: &str) -> Option<RuleId> {
        self.rules.iter().position(|r| r.name == name).map(RuleId)
    }

    /// The name of a location.
    pub fn location_name(&self, l: LocationId) -> &str {
        &self.locations[l.0].name
    }

    /// Checks structural well-formedness. All constructors in this crate
    /// produce valid automata; this is the safety net for hand-rolled or
    /// parsed ones.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidationError`] found.
    pub fn validate(&self) -> Result<(), ValidationError> {
        if !self.locations.iter().any(|l| l.initial) {
            return Err(ValidationError::NoInitialLocation);
        }
        let mut names = HashSet::new();
        for l in &self.locations {
            if !names.insert(l.name.as_str()) {
                return Err(ValidationError::DuplicateLocationName(l.name.clone()));
            }
        }
        let mut vnames = HashSet::new();
        for v in &self.variables {
            if !vnames.insert(v.as_str()) {
                return Err(ValidationError::DuplicateVariableName(v.clone()));
            }
        }
        for (i, r) in self.rules.iter().enumerate() {
            let id = RuleId(i);
            if r.from.0 >= self.locations.len() || r.to.0 >= self.locations.len() {
                return Err(ValidationError::BadLocation(id));
            }
            for &(v, amount) in &r.update {
                if v.0 >= self.variables.len() {
                    return Err(ValidationError::BadVariable(id));
                }
                if amount == 0 {
                    return Err(ValidationError::ZeroIncrement(id));
                }
            }
            if r.is_self_loop() && !r.update.is_empty() {
                return Err(ValidationError::SelfLoopWithUpdate(id));
            }
            for atom in r.guard.atoms() {
                if !atom.lhs.is_nonneg() {
                    return Err(ValidationError::NonMonotoneGuard(id));
                }
                for (v, _) in atom.lhs.iter() {
                    if v.0 >= self.variables.len() {
                        return Err(ValidationError::BadVariable(id));
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether the automaton, ignoring self-loops, is a directed acyclic
    /// graph over locations. All automata in the paper are (§3.1); the
    /// checker requires it.
    pub fn is_dag(&self) -> bool {
        self.topological_locations().is_some()
    }

    /// A topological order of locations w.r.t. non-self-loop rules, if
    /// the automaton is a DAG.
    pub fn topological_locations(&self) -> Option<Vec<LocationId>> {
        let n = self.locations.len();
        let mut indegree = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for r in &self.rules {
            if r.is_self_loop() {
                continue;
            }
            succs[r.from.0].push(r.to.0);
            indegree[r.to.0] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(LocationId(i));
            for &j in &succs[i] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    queue.push(j);
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// Rules sorted so that a rule whose source location comes earlier in
    /// the topological order appears earlier; self-loops are excluded.
    /// This is the firing order used by the schema encoding.
    ///
    /// Returns `None` if the automaton is not a DAG.
    pub fn topological_rules(&self) -> Option<Vec<RuleId>> {
        let order = self.topological_locations()?;
        let mut position = vec![0usize; self.locations.len()];
        for (idx, l) in order.iter().enumerate() {
            position[l.0] = idx;
        }
        let mut rules: Vec<RuleId> = (0..self.rules.len())
            .map(RuleId)
            .filter(|&r| !self.rules[r.0].is_self_loop())
            .collect();
        rules.sort_by_key(|&r| (position[self.rules[r.0].from.0], r.0));
        Some(rules)
    }

    /// The distinct atomic guards appearing in rules, in first-occurrence
    /// order. This is the "unique guards" count of the paper's Table 2.
    pub fn unique_guards(&self) -> Vec<AtomicGuard> {
        let mut seen: HashMap<AtomicGuard, ()> = HashMap::new();
        let mut out = Vec::new();
        for r in &self.rules {
            for atom in r.guard.atoms() {
                if seen.insert(atom.clone(), ()).is_none() {
                    out.push(atom.clone());
                }
            }
        }
        out
    }

    /// Rules (by id) that are not self-loops.
    pub fn proper_rules(&self) -> Vec<RuleId> {
        (0..self.rules.len())
            .map(RuleId)
            .filter(|&r| !self.rules[r.0].is_self_loop())
            .collect()
    }

    /// Non-self-loop rules entering `loc`.
    pub fn rules_into(&self, loc: LocationId) -> Vec<RuleId> {
        (0..self.rules.len())
            .map(RuleId)
            .filter(|&r| {
                let rule = &self.rules[r.0];
                rule.to == loc && !rule.is_self_loop()
            })
            .collect()
    }

    /// Non-self-loop rules leaving `loc`.
    pub fn rules_from(&self, loc: LocationId) -> Vec<RuleId> {
        (0..self.rules.len())
            .map(RuleId)
            .filter(|&r| {
                let rule = &self.rules[r.0];
                rule.from == loc && !rule.is_self_loop()
            })
            .collect()
    }

    /// The concrete process count at a parameter valuation
    /// (`size_expr` evaluated).
    pub fn process_count(&self, params: &[i64]) -> i64 {
        self.size_expr.eval(params)
    }

    /// Whether a concrete parameter valuation is admissible: right
    /// arity, every resilience constraint satisfied, and a positive
    /// process count.
    pub fn admits(&self, params: &[i64]) -> bool {
        params.len() == self.params.len()
            && self.resilience.iter().all(|c| c.eval(params))
            && self.process_count(params) > 0
    }

    /// All admissible parameter valuations with every entry in
    /// `0..=bound`, smallest first (ordered by process count, then
    /// lexicographically). This is how explicit-state tools pick the
    /// "small instantiations" they cross-check the parameterized
    /// verdicts on.
    pub fn admissible_valuations(&self, bound: i64) -> Vec<Vec<i64>> {
        let mut out = Vec::new();
        let mut current = vec![0i64; self.params.len()];
        self.enumerate_valuations(0, bound, &mut current, &mut out);
        out.sort_by_key(|v| (self.process_count(v), v.clone()));
        out
    }

    fn enumerate_valuations(
        &self,
        idx: usize,
        bound: i64,
        current: &mut Vec<i64>,
        out: &mut Vec<Vec<i64>>,
    ) {
        if idx == self.params.len() {
            if self.admits(current) {
                out.push(current.clone());
            }
            return;
        }
        for v in 0..=bound {
            current[idx] = v;
            self.enumerate_valuations(idx + 1, bound, current, out);
        }
        current[idx] = 0;
    }

    /// Size summary `(unique guards, locations, rules)` as reported in
    /// the paper's Table 2.
    pub fn size_summary(&self) -> (usize, usize, usize) {
        (
            self.unique_guards().len(),
            self.locations.len(),
            self.rules.len(),
        )
    }
}

/// A fluent builder for [`ThresholdAutomaton`].
///
/// # Examples
///
/// ```
/// use holistic_ta::{AtomicGuard, Guard, ParamCmp, TaBuilder};
///
/// let mut b = TaBuilder::new("echo");
/// let n = b.param("n");
/// let t = b.param("t");
/// let f = b.param("f");
/// let sent = b.shared("sent");
/// let v0 = b.initial_location("V0");
/// let done = b.final_location("DONE");
/// b.resilience_gt(n, t, 3);
/// b.size_n_minus_f(n, f);
/// b.rule("r1", v0, done, Guard::always()).inc(sent, 1);
/// let ta = b.build().unwrap();
/// assert_eq!(ta.size_summary(), (0, 2, 1));
/// # let _ = (t, AtomicGuard::ge as fn(_, _) -> _, ParamCmp::Gt);
/// ```
#[derive(Debug)]
pub struct TaBuilder {
    ta: ThresholdAutomaton,
}

impl TaBuilder {
    /// Starts a new automaton.
    pub fn new(name: impl Into<String>) -> TaBuilder {
        TaBuilder {
            ta: ThresholdAutomaton {
                name: name.into(),
                locations: Vec::new(),
                variables: Vec::new(),
                params: Vec::new(),
                rules: Vec::new(),
                resilience: Vec::new(),
                size_expr: ParamExpr::constant(0),
            },
        }
    }

    /// Declares a parameter.
    pub fn param(&mut self, name: impl Into<String>) -> crate::ParamId {
        self.ta.params.push(name.into());
        crate::ParamId(self.ta.params.len() - 1)
    }

    /// Declares a shared variable.
    pub fn shared(&mut self, name: impl Into<String>) -> VarId {
        self.ta.variables.push(name.into());
        VarId(self.ta.variables.len() - 1)
    }

    /// Declares a non-initial, non-final location.
    pub fn location(&mut self, name: impl Into<String>) -> LocationId {
        self.add_location(name, false, false)
    }

    /// Declares an initial location.
    pub fn initial_location(&mut self, name: impl Into<String>) -> LocationId {
        self.add_location(name, true, false)
    }

    /// Declares a final location.
    pub fn final_location(&mut self, name: impl Into<String>) -> LocationId {
        self.add_location(name, false, true)
    }

    fn add_location(
        &mut self,
        name: impl Into<String>,
        initial: bool,
        is_final: bool,
    ) -> LocationId {
        self.ta.locations.push(Location {
            name: name.into(),
            initial,
            is_final,
        });
        LocationId(self.ta.locations.len() - 1)
    }

    /// Looks up an already-declared location by name.
    pub fn peek_location(&self, name: &str) -> Option<LocationId> {
        self.ta
            .locations
            .iter()
            .position(|l| l.name == name)
            .map(LocationId)
    }

    /// Adds a rule and returns a handle for attaching updates.
    pub fn rule(
        &mut self,
        name: impl Into<String>,
        from: LocationId,
        to: LocationId,
        guard: Guard,
    ) -> RuleHandle<'_> {
        self.ta.rules.push(Rule {
            name: name.into(),
            from,
            to,
            guard,
            update: Vec::new(),
            round_switch: false,
        });
        let idx = self.ta.rules.len() - 1;
        RuleHandle { builder: self, idx }
    }

    /// Adds a guard-true self-loop on `loc` (stuttering), named
    /// `sl_<location>`.
    pub fn self_loop(&mut self, loc: LocationId) {
        let name = format!("sl_{}", self.ta.locations[loc.0].name);
        self.rule(name, loc, loc, Guard::always());
    }

    /// Adds an arbitrary resilience constraint.
    pub fn resilience(&mut self, c: ParamConstraint) -> &mut Self {
        self.ta.resilience.push(c);
        self
    }

    /// Convenience: `p > k·q`.
    pub fn resilience_gt(&mut self, p: crate::ParamId, q: crate::ParamId, k: i64) -> &mut Self {
        self.resilience(ParamConstraint::new(
            ParamExpr::param(p),
            crate::ParamCmp::Gt,
            ParamExpr::term(q, k),
        ))
    }

    /// Convenience: `p >= q`.
    pub fn resilience_ge(&mut self, p: crate::ParamId, q: crate::ParamId) -> &mut Self {
        self.resilience(ParamConstraint::new(
            ParamExpr::param(p),
            crate::ParamCmp::Ge,
            ParamExpr::param(q),
        ))
    }

    /// Convenience: `p >= k`.
    pub fn resilience_ge_const(&mut self, p: crate::ParamId, k: i64) -> &mut Self {
        self.resilience(ParamConstraint::new(
            ParamExpr::param(p),
            crate::ParamCmp::Ge,
            ParamExpr::constant(k),
        ))
    }

    /// Sets the process-count expression.
    pub fn size(&mut self, e: ParamExpr) -> &mut Self {
        self.ta.size_expr = e;
        self
    }

    /// Convenience for the ubiquitous `n − f` process count.
    pub fn size_n_minus_f(&mut self, n: crate::ParamId, f: crate::ParamId) -> &mut Self {
        let mut e = ParamExpr::param(n);
        e.add_term(f, -1);
        self.size(e)
    }

    /// Finishes and validates the automaton.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] if the automaton is malformed.
    pub fn build(self) -> Result<ThresholdAutomaton, ValidationError> {
        self.ta.validate()?;
        Ok(self.ta)
    }
}

/// Handle returned by [`TaBuilder::rule`] for attaching updates.
#[derive(Debug)]
pub struct RuleHandle<'a> {
    builder: &'a mut TaBuilder,
    idx: usize,
}

impl RuleHandle<'_> {
    /// Adds an increment `var += amount` to the rule.
    pub fn inc(self, var: VarId, amount: u64) -> Self {
        let builder = self.builder;
        let idx = self.idx;
        builder.ta.rules[idx].update.push((var, amount));
        RuleHandle { builder, idx }
    }

    /// Marks the rule as a round switch.
    pub fn round_switch(self) -> Self {
        let builder = self.builder;
        let idx = self.idx;
        builder.ta.rules[idx].round_switch = true;
        RuleHandle { builder, idx }
    }

    /// The rule's id.
    pub fn id(&self) -> RuleId {
        RuleId(self.idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarExpr;

    fn diamond() -> ThresholdAutomaton {
        // V -> A -> D, V -> B -> D with simple guards.
        let mut b = TaBuilder::new("diamond");
        let n = b.param("n");
        let f = b.param("f");
        let x = b.shared("x");
        let v = b.initial_location("V");
        let a = b.location("A");
        let bb = b.location("B");
        let d = b.final_location("D");
        b.size_n_minus_f(n, f);
        b.rule("r1", v, a, Guard::always()).inc(x, 1);
        b.rule("r2", v, bb, Guard::always());
        b.rule(
            "r3",
            a,
            d,
            Guard::atom(AtomicGuard::ge(VarExpr::var(x), ParamExpr::constant(1))),
        );
        b.rule(
            "r4",
            bb,
            d,
            Guard::atom(AtomicGuard::ge(VarExpr::var(x), ParamExpr::constant(1))),
        );
        b.self_loop(d);
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_valid_automaton() {
        let ta = diamond();
        assert_eq!(ta.locations.len(), 4);
        assert_eq!(ta.rules.len(), 5);
        assert_eq!(ta.initial_locations(), vec![LocationId(0)]);
        assert_eq!(ta.final_locations(), vec![LocationId(3)]);
    }

    #[test]
    fn lookup_by_name() {
        let ta = diamond();
        assert_eq!(ta.location_by_name("A"), Some(LocationId(1)));
        assert_eq!(ta.location_by_name("nope"), None);
        assert_eq!(ta.variable_by_name("x"), Some(VarId(0)));
        assert_eq!(ta.rule_by_name("r3"), Some(RuleId(2)));
    }

    #[test]
    fn dag_detection() {
        let ta = diamond();
        assert!(ta.is_dag());
        let order = ta.topological_locations().unwrap();
        let pos = |name: &str| {
            order
                .iter()
                .position(|&l| ta.location_name(l) == name)
                .unwrap()
        };
        assert!(pos("V") < pos("A"));
        assert!(pos("V") < pos("B"));
        assert!(pos("A") < pos("D"));
        assert!(pos("B") < pos("D"));
    }

    #[test]
    fn self_loops_do_not_break_dag() {
        let ta = diamond();
        assert!(ta.is_dag());
    }

    #[test]
    fn cycle_is_rejected_as_dag() {
        let mut b = TaBuilder::new("cycle");
        let n = b.param("n");
        let f = b.param("f");
        b.size_n_minus_f(n, f);
        let a = b.initial_location("A");
        let c = b.location("C");
        b.rule("r1", a, c, Guard::always());
        b.rule("r2", c, a, Guard::always());
        let ta = b.build().unwrap();
        assert!(!ta.is_dag());
        assert!(ta.topological_rules().is_none());
    }

    #[test]
    fn topological_rules_respect_source_order() {
        let ta = diamond();
        let rules = ta.topological_rules().unwrap();
        assert_eq!(rules.len(), 4); // self-loop excluded
        let pos = |name: &str| {
            rules
                .iter()
                .position(|&r| ta.rules[r.0].name == name)
                .unwrap()
        };
        assert!(pos("r1") < pos("r3"));
        assert!(pos("r2") < pos("r4"));
    }

    #[test]
    fn unique_guards_deduplicate() {
        let ta = diamond();
        assert_eq!(ta.unique_guards().len(), 1); // r3 and r4 share a guard
        assert_eq!(ta.size_summary(), (1, 4, 5));
    }

    #[test]
    fn validation_rejects_self_loop_with_update() {
        let mut b = TaBuilder::new("bad");
        let n = b.param("n");
        let f = b.param("f");
        b.size_n_minus_f(n, f);
        let x = b.shared("x");
        let v = b.initial_location("V");
        b.rule("r1", v, v, Guard::always()).inc(x, 1);
        assert_eq!(
            b.build().unwrap_err(),
            ValidationError::SelfLoopWithUpdate(RuleId(0))
        );
    }

    #[test]
    fn validation_rejects_non_monotone_guard() {
        let mut b = TaBuilder::new("bad");
        let n = b.param("n");
        let f = b.param("f");
        b.size_n_minus_f(n, f);
        let x = b.shared("x");
        let v = b.initial_location("V");
        let d = b.location("D");
        b.rule(
            "r1",
            v,
            d,
            Guard::atom(AtomicGuard::ge(
                VarExpr::term(x, -1),
                ParamExpr::constant(0),
            )),
        );
        assert_eq!(
            b.build().unwrap_err(),
            ValidationError::NonMonotoneGuard(RuleId(0))
        );
    }

    #[test]
    fn validation_rejects_duplicate_names() {
        let mut b = TaBuilder::new("bad");
        let n = b.param("n");
        let f = b.param("f");
        b.size_n_minus_f(n, f);
        b.initial_location("V");
        b.location("V");
        assert_eq!(
            b.build().unwrap_err(),
            ValidationError::DuplicateLocationName("V".to_owned())
        );
    }

    #[test]
    fn validation_requires_initial_location() {
        let mut b = TaBuilder::new("bad");
        b.location("A");
        assert_eq!(b.build().unwrap_err(), ValidationError::NoInitialLocation);
    }

    #[test]
    fn rules_into_and_from() {
        let ta = diamond();
        let d = ta.location_by_name("D").unwrap();
        assert_eq!(ta.rules_into(d).len(), 2);
        assert_eq!(ta.rules_from(d).len(), 0); // self-loop excluded
        let v = ta.location_by_name("V").unwrap();
        assert_eq!(ta.rules_from(v).len(), 2);
    }
}
