//! State propositions over threshold-automaton configurations.

use std::fmt;

use holistic_ta::{AtomicGuard, Config, LocationId, ThresholdAutomaton};

/// An atomic state predicate, the building block of LTL specifications
/// (§2 of the paper): location emptiness and threshold-guard evaluation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StateAtom {
    /// `κ[L] = 0` — no correct process is in `L`.
    LocEmpty(LocationId),
    /// `κ[L] ≠ 0` — at least one correct process is in `L`.
    LocNonEmpty(LocationId),
    /// A threshold comparison holds (e.g. `b0 ≥ t+1`).
    Guard(AtomicGuard),
    /// A threshold comparison does not hold.
    NotGuard(AtomicGuard),
}

impl StateAtom {
    /// The negation of the atom.
    pub fn negate(&self) -> StateAtom {
        match self {
            StateAtom::LocEmpty(l) => StateAtom::LocNonEmpty(*l),
            StateAtom::LocNonEmpty(l) => StateAtom::LocEmpty(*l),
            StateAtom::Guard(g) => StateAtom::NotGuard(g.clone()),
            StateAtom::NotGuard(g) => StateAtom::Guard(g.clone()),
        }
    }

    /// Evaluates the atom in a concrete configuration.
    pub fn eval(&self, config: &Config, params: &[i64]) -> bool {
        match self {
            StateAtom::LocEmpty(l) => config.counters[l.0] == 0,
            StateAtom::LocNonEmpty(l) => config.counters[l.0] != 0,
            StateAtom::Guard(g) => g.eval(&config.shared, params),
            StateAtom::NotGuard(g) => !g.eval(&config.shared, params),
        }
    }
}

/// A positive boolean combination of [`StateAtom`]s. Negation is pushed
/// to the atoms on construction, so the checker never sees `Not`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Prop {
    /// Trivially true.
    True,
    /// Trivially false.
    False,
    /// An atom.
    Atom(StateAtom),
    /// Conjunction.
    And(Vec<Prop>),
    /// Disjunction.
    Or(Vec<Prop>),
}

impl Prop {
    /// `κ[L] = 0`.
    pub fn loc_empty(l: LocationId) -> Prop {
        Prop::Atom(StateAtom::LocEmpty(l))
    }

    /// `κ[L] ≠ 0`.
    pub fn loc_nonempty(l: LocationId) -> Prop {
        Prop::Atom(StateAtom::LocNonEmpty(l))
    }

    /// A threshold comparison.
    pub fn guard(g: AtomicGuard) -> Prop {
        Prop::Atom(StateAtom::Guard(g))
    }

    /// `∧ κ[L] = 0` over a set of locations.
    pub fn all_empty(locs: impl IntoIterator<Item = LocationId>) -> Prop {
        Prop::and(locs.into_iter().map(Prop::loc_empty))
    }

    /// `∨ κ[L] ≠ 0` over a set of locations.
    pub fn any_nonempty(locs: impl IntoIterator<Item = LocationId>) -> Prop {
        Prop::or(locs.into_iter().map(Prop::loc_nonempty))
    }

    /// Simplifying conjunction.
    pub fn and(ps: impl IntoIterator<Item = Prop>) -> Prop {
        let mut out = Vec::new();
        for p in ps {
            match p {
                Prop::True => {}
                Prop::False => return Prop::False,
                Prop::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Prop::True,
            1 => out.pop().unwrap(),
            _ => Prop::And(out),
        }
    }

    /// Simplifying disjunction.
    pub fn or(ps: impl IntoIterator<Item = Prop>) -> Prop {
        let mut out = Vec::new();
        for p in ps {
            match p {
                Prop::False => {}
                Prop::True => return Prop::True,
                Prop::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Prop::False,
            1 => out.pop().unwrap(),
            _ => Prop::Or(out),
        }
    }

    /// The negation, pushed down to the atoms.
    pub fn negate(&self) -> Prop {
        match self {
            Prop::True => Prop::False,
            Prop::False => Prop::True,
            Prop::Atom(a) => Prop::Atom(a.negate()),
            Prop::And(ps) => Prop::or(ps.iter().map(Prop::negate)),
            Prop::Or(ps) => Prop::and(ps.iter().map(Prop::negate)),
        }
    }

    /// Evaluates in a concrete configuration.
    pub fn eval(&self, config: &Config, params: &[i64]) -> bool {
        match self {
            Prop::True => true,
            Prop::False => false,
            Prop::Atom(a) => a.eval(config, params),
            Prop::And(ps) => ps.iter().all(|p| p.eval(config, params)),
            Prop::Or(ps) => ps.iter().any(|p| p.eval(config, params)),
        }
    }

    /// All threshold atoms appearing in the proposition (under `Guard`
    /// or `NotGuard`), in syntactic order with duplicates.
    pub fn guard_atoms(&self) -> Vec<AtomicGuard> {
        let mut out = Vec::new();
        self.collect_guard_atoms(&mut out);
        out
    }

    fn collect_guard_atoms(&self, out: &mut Vec<AtomicGuard>) {
        match self {
            Prop::True | Prop::False => {}
            Prop::Atom(StateAtom::Guard(g) | StateAtom::NotGuard(g)) => out.push(g.clone()),
            Prop::Atom(_) => {}
            Prop::And(ps) | Prop::Or(ps) => {
                for p in ps {
                    p.collect_guard_atoms(out);
                }
            }
        }
    }

    /// Partially evaluates the proposition, replacing every threshold
    /// atom on which `resolve` returns a truth value. Used by the
    /// checker to fold guard atoms whose truth is fixed by a schema's
    /// final context, which collapses the justice disjunctions into
    /// plain conjunctions.
    pub fn resolve_guards(&self, resolve: &impl Fn(&AtomicGuard) -> Option<bool>) -> Prop {
        match self {
            Prop::True => Prop::True,
            Prop::False => Prop::False,
            Prop::Atom(StateAtom::Guard(g)) => match resolve(g) {
                Some(true) => Prop::True,
                Some(false) => Prop::False,
                None => self.clone(),
            },
            Prop::Atom(StateAtom::NotGuard(g)) => match resolve(g) {
                Some(true) => Prop::False,
                Some(false) => Prop::True,
                None => self.clone(),
            },
            Prop::Atom(_) => self.clone(),
            Prop::And(ps) => Prop::and(ps.iter().map(|p| p.resolve_guards(resolve))),
            Prop::Or(ps) => Prop::or(ps.iter().map(|p| p.resolve_guards(resolve))),
        }
    }

    /// If the prop is a pure conjunction of `κ[L] = 0` atoms, the set of
    /// locations; `None` otherwise. Used for the `□ emptiness` premise
    /// encoding.
    pub fn as_emptiness_conjunction(&self) -> Option<Vec<LocationId>> {
        match self {
            Prop::True => Some(Vec::new()),
            Prop::Atom(StateAtom::LocEmpty(l)) => Some(vec![*l]),
            Prop::And(ps) => {
                let mut out = Vec::new();
                for p in ps {
                    out.extend(p.as_emptiness_conjunction()?);
                }
                Some(out)
            }
            _ => None,
        }
    }

    /// Renders with the automaton's names.
    pub fn display<'a>(&'a self, ta: &'a ThresholdAutomaton) -> impl fmt::Display + 'a {
        DisplayProp { prop: self, ta }
    }
}

struct DisplayProp<'a> {
    prop: &'a Prop,
    ta: &'a ThresholdAutomaton,
}

impl DisplayProp<'_> {
    fn fmt_prop(&self, p: &Prop, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ta = self.ta;
        match p {
            Prop::True => write!(f, "true"),
            Prop::False => write!(f, "false"),
            Prop::Atom(StateAtom::LocEmpty(l)) => {
                write!(f, "k[{}] = 0", ta.location_name(*l))
            }
            Prop::Atom(StateAtom::LocNonEmpty(l)) => {
                write!(f, "k[{}] != 0", ta.location_name(*l))
            }
            Prop::Atom(StateAtom::Guard(g)) => write!(
                f,
                "{} {} {}",
                g.lhs.display(&ta.variables),
                g.cmp,
                g.rhs.display(&ta.params)
            ),
            Prop::Atom(StateAtom::NotGuard(g)) => write!(
                f,
                "!({} {} {})",
                g.lhs.display(&ta.variables),
                g.cmp,
                g.rhs.display(&ta.params)
            ),
            Prop::And(ps) => {
                write!(f, "(")?;
                for (i, q) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " && ")?;
                    }
                    self.fmt_prop(q, f)?;
                }
                write!(f, ")")
            }
            Prop::Or(ps) => {
                write!(f, "(")?;
                for (i, q) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    self.fmt_prop(q, f)?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for DisplayProp<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prop(self.prop, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_ta::{Guard, TaBuilder};

    fn tiny() -> ThresholdAutomaton {
        let mut b = TaBuilder::new("tiny");
        let n = b.param("n");
        let f = b.param("f");
        b.size_n_minus_f(n, f);
        let v = b.initial_location("V");
        let d = b.final_location("D");
        b.rule("r", v, d, Guard::always());
        b.build().unwrap()
    }

    fn config(counters: Vec<i64>, shared: Vec<i64>) -> Config {
        Config { counters, shared }
    }

    #[test]
    fn atom_eval_and_negate() {
        let c = config(vec![2, 0], vec![]);
        let a = StateAtom::LocEmpty(LocationId(1));
        assert!(a.eval(&c, &[]));
        assert!(!a.negate().eval(&c, &[]));
        assert_eq!(a.negate().negate(), a);
    }

    #[test]
    fn prop_simplification() {
        assert_eq!(Prop::and([]), Prop::True);
        assert_eq!(Prop::or([]), Prop::False);
        assert_eq!(
            Prop::and([Prop::False, Prop::loc_empty(LocationId(0))]),
            Prop::False
        );
        assert_eq!(
            Prop::or([Prop::True, Prop::loc_empty(LocationId(0))]),
            Prop::True
        );
    }

    #[test]
    fn de_morgan_negation() {
        let p = Prop::and([
            Prop::loc_empty(LocationId(0)),
            Prop::loc_empty(LocationId(1)),
        ]);
        let n = p.negate();
        match &n {
            Prop::Or(ps) => {
                assert_eq!(ps.len(), 2);
                assert!(matches!(ps[0], Prop::Atom(StateAtom::LocNonEmpty(_))));
            }
            other => panic!("expected Or, got {other:?}"),
        }
        // Negation is an involution on the evaluation level.
        let c = config(vec![1, 0], vec![]);
        assert_eq!(p.eval(&c, &[]), !n.eval(&c, &[]));
    }

    #[test]
    fn emptiness_conjunction_extraction() {
        let p = Prop::all_empty([LocationId(0), LocationId(1)]);
        assert_eq!(
            p.as_emptiness_conjunction(),
            Some(vec![LocationId(0), LocationId(1)])
        );
        let q = Prop::any_nonempty([LocationId(0)]);
        assert_eq!(q.as_emptiness_conjunction(), None);
        assert_eq!(Prop::True.as_emptiness_conjunction(), Some(vec![]));
    }

    #[test]
    fn guard_atom_collection_and_resolution() {
        use holistic_ta::{AtomicGuard, ParamExpr, VarExpr, VarId};
        let g1 = AtomicGuard::ge(VarExpr::var(VarId(0)), ParamExpr::constant(1));
        let g2 = AtomicGuard::ge(VarExpr::var(VarId(1)), ParamExpr::constant(2));
        let p = Prop::or([
            Prop::and([Prop::guard(g1.clone()), Prop::loc_empty(LocationId(0))]),
            Prop::Atom(StateAtom::NotGuard(g2.clone())),
        ]);
        let atoms = p.guard_atoms();
        assert_eq!(atoms, vec![g1.clone(), g2.clone()]);

        // Resolving g1 := true and g2 := true collapses the structure:
        // (true ∧ empty) ∨ ¬true  =  empty.
        let resolved = p.resolve_guards(&|g| {
            if *g == g1 || *g == g2 {
                Some(true)
            } else {
                None
            }
        });
        assert_eq!(resolved, Prop::loc_empty(LocationId(0)));
        // Unresolvable atoms are left intact.
        let untouched = p.resolve_guards(&|_| None);
        assert_eq!(untouched, p);
    }

    #[test]
    fn display_uses_names() {
        let ta = tiny();
        let p = Prop::and([
            Prop::loc_empty(LocationId(0)),
            Prop::loc_nonempty(LocationId(1)),
        ]);
        assert_eq!(p.display(&ta).to_string(), "(k[V] = 0 && k[D] != 0)");
    }
}
