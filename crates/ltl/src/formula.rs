//! The temporal layer and its reduction to checker queries.
//!
//! [`Ltl`] is the specification language; [`classify`] translates a
//! formula into the [`Query`] form the parameterized checker decides,
//! verifying on the way (via the stability analysis) that the reduction
//! is sound for the given automaton. Formulas outside the fragment are
//! rejected with an explanatory [`FragmentError`] — mirroring how ByMC
//! accepts only its `ELTL_FT` fragment — rather than ever producing an
//! unsound verdict.

use std::fmt;

use holistic_ta::{LocationId, ThresholdAutomaton};

use crate::prop::Prop;
use crate::stability::is_stable;

/// A linear temporal logic formula over state propositions.
///
/// The checkable fragment consists of (conjunctions of):
///
/// | shape | paper examples |
/// |---|---|
/// | `p ⇒ □b` | BV-Just |
/// | `♢a ⇒ □b` | Inv1 |
/// | `□e ⇒ □b` (`e` a conjunction of emptiness atoms) | Inv2, Dec, Good |
/// | `□b` | — |
/// | `♢q` | BV-Term, SRoundTerm |
/// | `♢a ⇒ ♢q` | BV-Unif |
/// | `□(p ⇒ ♢q)` | BV-Obl |
/// | `□e ⇒ ♢q` | — |
#[derive(Clone, PartialEq, Debug)]
pub enum Ltl {
    /// A state proposition (evaluated at the first configuration).
    State(Prop),
    /// `□ φ`.
    Always(Box<Ltl>),
    /// `♢ φ`.
    Eventually(Box<Ltl>),
    /// Conjunction.
    And(Vec<Ltl>),
    /// `φ ⇒ ψ`.
    Implies(Box<Ltl>, Box<Ltl>),
}

impl Ltl {
    /// A state proposition.
    pub fn state(p: Prop) -> Ltl {
        Ltl::State(p)
    }

    /// `□ φ`.
    pub fn always(f: Ltl) -> Ltl {
        Ltl::Always(Box::new(f))
    }

    /// `♢ φ`.
    pub fn eventually(f: Ltl) -> Ltl {
        Ltl::Eventually(Box::new(f))
    }

    /// `φ ⇒ ψ`.
    pub fn implies(premise: Ltl, conclusion: Ltl) -> Ltl {
        Ltl::Implies(Box::new(premise), Box::new(conclusion))
    }

    /// Conjunction.
    pub fn and(fs: impl IntoIterator<Item = Ltl>) -> Ltl {
        Ltl::And(fs.into_iter().collect())
    }
}

impl fmt::Display for Ltl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ltl::State(_) => write!(f, "<state>"),
            Ltl::Always(g) => write!(f, "[]({g})"),
            Ltl::Eventually(g) => write!(f, "<>({g})"),
            Ltl::And(gs) => {
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " && ")?;
                    }
                    write!(f, "({g})")?;
                }
                Ok(())
            }
            Ltl::Implies(p, c) => write!(f, "({p}) -> ({c})"),
        }
    }
}

/// A query the parameterized checker can decide directly. Both variants
/// describe the **violation** of the original property; the checker
/// searches for a witness run, so `Unreachable ⇒ property verified`.
#[derive(Clone, PartialEq, Debug)]
pub enum Query {
    /// Violation: a finite run, starting in a configuration satisfying
    /// `initially`, along which every prop in `witnesses` holds at some
    /// point (in any order), while the locations in `globally_empty`
    /// hold no process at any point.
    Safety {
        /// Locations forced empty along the entire violating run (the
        /// `□ emptiness` premise encoding).
        globally_empty: Vec<LocationId>,
        /// Constraint on the initial configuration.
        initially: Prop,
        /// Props that must each hold somewhere along the run.
        witnesses: Vec<Prop>,
    },
    /// Violation: a fair infinite run, which (in this automaton class)
    /// stabilises; equivalently a reachable *justice-stuck*
    /// configuration satisfying `tail`.
    Liveness {
        /// Locations forced empty along the entire violating run.
        globally_empty: Vec<LocationId>,
        /// Constraint on the initial configuration.
        initially: Prop,
        /// Constraint on the stable tail configuration (premise ∧ ¬goal;
        /// classification has verified the stability side conditions).
        tail: Prop,
    },
}

/// Why a formula fell outside the checkable fragment.
#[derive(Clone, PartialEq, Debug)]
pub enum FragmentError {
    /// The shape of the formula is not one of the supported patterns.
    UnsupportedShape(String),
    /// A reduction needed a proposition to be stable, and the stability
    /// analysis could not prove it.
    UnstableProp {
        /// Which role the proposition played.
        role: &'static str,
        /// Rendered proposition.
        prop: String,
    },
}

impl fmt::Display for FragmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FragmentError::UnsupportedShape(s) => {
                write!(f, "formula shape outside the checkable fragment: {s}")
            }
            FragmentError::UnstableProp { role, prop } => write!(
                f,
                "the {role} proposition `{prop}` is not provably stable, \
                 so the stable-tail reduction would be unsound"
            ),
        }
    }
}

impl std::error::Error for FragmentError {}

/// Translates a formula into checker queries (one per top-level
/// conjunct).
///
/// # Errors
///
/// [`FragmentError`] when the formula is outside the fragment or a
/// required stability side condition cannot be established.
pub fn classify(ta: &ThresholdAutomaton, formula: &Ltl) -> Result<Vec<Query>, FragmentError> {
    match formula {
        Ltl::And(fs) => {
            let mut out = Vec::new();
            for f in fs {
                out.extend(classify(ta, f)?);
            }
            Ok(out)
        }
        other => classify_one(ta, other).map(|q| vec![q]),
    }
}

fn require_stable(
    ta: &ThresholdAutomaton,
    prop: &Prop,
    role: &'static str,
) -> Result<(), FragmentError> {
    if is_stable(ta, prop) {
        Ok(())
    } else {
        Err(FragmentError::UnstableProp {
            role,
            prop: format!("{}", prop.display(ta)),
        })
    }
}

fn classify_one(ta: &ThresholdAutomaton, formula: &Ltl) -> Result<Query, FragmentError> {
    match formula {
        // □ b  — violation: ♢¬b.
        Ltl::Always(inner) => match inner.as_ref() {
            Ltl::State(b) => Ok(Query::Safety {
                globally_empty: Vec::new(),
                initially: Prop::True,
                witnesses: vec![b.negate()],
            }),
            // □(p ⇒ ♢q) — violation: ♢(p ∧ □¬q); stable-tail reduction.
            Ltl::Implies(p, q) => {
                let (Ltl::State(p), Ltl::Eventually(q_inner)) = (p.as_ref(), q.as_ref()) else {
                    return Err(FragmentError::UnsupportedShape(format!(
                        "[]({inner}) — expected [](p -> <>q) with state p, q"
                    )));
                };
                let Ltl::State(q) = q_inner.as_ref() else {
                    return Err(FragmentError::UnsupportedShape(format!(
                        "[]({inner}) — the <>-goal must be a state proposition"
                    )));
                };
                require_stable(ta, p, "recurring premise")?;
                require_stable(ta, q, "eventuality goal")?;
                Ok(Query::Liveness {
                    globally_empty: Vec::new(),
                    initially: Prop::True,
                    tail: Prop::and([p.clone(), q.negate()]),
                })
            }
            other => Err(FragmentError::UnsupportedShape(format!("[]({other})"))),
        },
        // ♢ q — violation: □¬q; stable-tail reduction.
        Ltl::Eventually(inner) => match inner.as_ref() {
            Ltl::State(q) => {
                require_stable(ta, q, "eventuality goal")?;
                Ok(Query::Liveness {
                    globally_empty: Vec::new(),
                    initially: Prop::True,
                    tail: q.negate(),
                })
            }
            other => Err(FragmentError::UnsupportedShape(format!("<>({other})"))),
        },
        Ltl::Implies(premise, conclusion) => classify_implication(ta, premise, conclusion),
        Ltl::State(_) | Ltl::And(_) => Err(FragmentError::UnsupportedShape(format!(
            "{formula} at top level"
        ))),
    }
}

fn classify_implication(
    ta: &ThresholdAutomaton,
    premise: &Ltl,
    conclusion: &Ltl,
) -> Result<Query, FragmentError> {
    // The three premise kinds: initial-state prop, ♢a, □e.
    enum Premise<'a> {
        Initial(&'a Prop),
        Eventually(&'a Prop),
        GloballyEmpty(Vec<LocationId>),
    }
    let prem = match premise {
        Ltl::State(p) => Premise::Initial(p),
        Ltl::Eventually(inner) => match inner.as_ref() {
            Ltl::State(a) => Premise::Eventually(a),
            other => {
                return Err(FragmentError::UnsupportedShape(format!(
                    "premise <>({other})"
                )))
            }
        },
        Ltl::Always(inner) => match inner.as_ref() {
            Ltl::State(e) => match e.as_emptiness_conjunction() {
                Some(locs) => Premise::GloballyEmpty(locs),
                None => {
                    return Err(FragmentError::UnsupportedShape(
                        "premise [](e) where e is not a conjunction of emptiness atoms".to_owned(),
                    ))
                }
            },
            other => {
                return Err(FragmentError::UnsupportedShape(format!(
                    "premise []({other})"
                )))
            }
        },
        other => return Err(FragmentError::UnsupportedShape(format!("premise {other}"))),
    };

    match conclusion {
        // … ⇒ □b — safety.
        Ltl::Always(inner) => {
            let Ltl::State(b) = inner.as_ref() else {
                return Err(FragmentError::UnsupportedShape(format!(
                    "conclusion []({inner})"
                )));
            };
            let not_b = b.negate();
            Ok(match prem {
                Premise::Initial(p) => Query::Safety {
                    globally_empty: Vec::new(),
                    initially: p.clone(),
                    witnesses: vec![not_b],
                },
                Premise::Eventually(a) => Query::Safety {
                    globally_empty: Vec::new(),
                    initially: Prop::True,
                    witnesses: vec![a.clone(), not_b],
                },
                Premise::GloballyEmpty(locs) => Query::Safety {
                    globally_empty: locs,
                    initially: Prop::True,
                    witnesses: vec![not_b],
                },
            })
        }
        // … ⇒ ♢q — liveness.
        Ltl::Eventually(inner) => {
            let Ltl::State(q) = inner.as_ref() else {
                return Err(FragmentError::UnsupportedShape(format!(
                    "conclusion <>({inner})"
                )));
            };
            require_stable(ta, q, "eventuality goal")?;
            let not_q = q.negate();
            Ok(match prem {
                Premise::Initial(p) => Query::Liveness {
                    globally_empty: Vec::new(),
                    initially: p.clone(),
                    tail: not_q,
                },
                Premise::Eventually(a) => {
                    require_stable(ta, a, "eventuality premise")?;
                    Query::Liveness {
                        globally_empty: Vec::new(),
                        initially: Prop::True,
                        tail: Prop::and([a.clone(), not_q]),
                    }
                }
                Premise::GloballyEmpty(locs) => Query::Liveness {
                    globally_empty: locs,
                    initially: Prop::True,
                    tail: not_q,
                },
            })
        }
        other => Err(FragmentError::UnsupportedShape(format!(
            "conclusion {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_ta::{Guard, TaBuilder};

    /// V0, V1 initial; V0 -> A -> D; D final, inflow-closed goals exist.
    fn ta() -> ThresholdAutomaton {
        let mut b = TaBuilder::new("t");
        let n = b.param("n");
        let f = b.param("f");
        b.size_n_minus_f(n, f);
        let v0 = b.initial_location("V0");
        let v1 = b.initial_location("V1");
        let a = b.location("A");
        let d = b.final_location("D");
        b.rule("r1", v0, a, Guard::always());
        b.rule("r2", a, d, Guard::always());
        b.rule("r3", v1, d, Guard::always());
        b.build().unwrap()
    }

    fn loc(ta: &ThresholdAutomaton, name: &str) -> LocationId {
        ta.location_by_name(name).unwrap()
    }

    #[test]
    fn classify_initial_premise_safety() {
        let ta = ta();
        let v0 = loc(&ta, "V0");
        let d = loc(&ta, "D");
        // k[V0]=0 => [](k[D]=0)   (BV-Just shape)
        let f = Ltl::implies(
            Ltl::state(Prop::loc_empty(v0)),
            Ltl::always(Ltl::state(Prop::loc_empty(d))),
        );
        let qs = classify(&ta, &f).unwrap();
        assert_eq!(qs.len(), 1);
        match &qs[0] {
            Query::Safety {
                initially,
                witnesses,
                globally_empty,
            } => {
                assert_eq!(*initially, Prop::loc_empty(v0));
                assert_eq!(witnesses.len(), 1);
                assert_eq!(witnesses[0], Prop::loc_nonempty(d));
                assert!(globally_empty.is_empty());
            }
            other => panic!("expected Safety, got {other:?}"),
        }
    }

    #[test]
    fn classify_eventually_premise_safety() {
        let ta = ta();
        let a = loc(&ta, "A");
        let d = loc(&ta, "D");
        // <>(k[A]!=0) => [](k[D]=0)   (Inv1 shape)
        let f = Ltl::implies(
            Ltl::eventually(Ltl::state(Prop::loc_nonempty(a))),
            Ltl::always(Ltl::state(Prop::loc_empty(d))),
        );
        let qs = classify(&ta, &f).unwrap();
        match &qs[0] {
            Query::Safety { witnesses, .. } => assert_eq!(witnesses.len(), 2),
            other => panic!("expected Safety, got {other:?}"),
        }
    }

    #[test]
    fn classify_globally_empty_premise() {
        let ta = ta();
        let v0 = loc(&ta, "V0");
        let v1 = loc(&ta, "V1");
        let d = loc(&ta, "D");
        // [](k[V0]=0 && k[V1]=0) => [](k[D]=0)   (Inv2/Dec shape)
        let f = Ltl::implies(
            Ltl::always(Ltl::state(Prop::all_empty([v0, v1]))),
            Ltl::always(Ltl::state(Prop::loc_empty(d))),
        );
        let qs = classify(&ta, &f).unwrap();
        match &qs[0] {
            Query::Safety { globally_empty, .. } => {
                assert_eq!(globally_empty.len(), 2);
            }
            other => panic!("expected Safety, got {other:?}"),
        }
    }

    #[test]
    fn classify_termination_liveness() {
        let ta = ta();
        let v0 = loc(&ta, "V0");
        let v1 = loc(&ta, "V1");
        let a = loc(&ta, "A");
        // <>(all non-final empty)   (BV-Term / SRoundTerm shape)
        let goal = Prop::all_empty([v0, v1, a]);
        let f = Ltl::eventually(Ltl::state(goal.clone()));
        let qs = classify(&ta, &f).unwrap();
        match &qs[0] {
            Query::Liveness { tail, .. } => {
                assert_eq!(*tail, goal.negate());
            }
            other => panic!("expected Liveness, got {other:?}"),
        }
    }

    #[test]
    fn classify_obligation_liveness() {
        let ta = ta();
        let v0 = loc(&ta, "V0");
        let v1 = loc(&ta, "V1");
        let a = loc(&ta, "A");
        let d = loc(&ta, "D");
        // [](k[D]!=0 => <>(k[V0]=0 && k[V1]=0 && k[A]=0))
        let p = Prop::loc_nonempty(d); // D is outflow-closed: stable.
        let q = Prop::all_empty([v0, v1, a]);
        let f = Ltl::always(Ltl::implies(
            Ltl::state(p.clone()),
            Ltl::eventually(Ltl::state(q.clone())),
        ));
        let qs = classify(&ta, &f).unwrap();
        match &qs[0] {
            Query::Liveness { tail, .. } => {
                assert_eq!(*tail, Prop::and([p, q.negate()]));
            }
            other => panic!("expected Liveness, got {other:?}"),
        }
    }

    #[test]
    fn unstable_goal_is_rejected() {
        let ta = ta();
        let a = loc(&ta, "A");
        // <>(k[A]=0): A has inflow from V0 and outflow to D, so its
        // emptiness is not stable; the reduction must refuse.
        let f = Ltl::eventually(Ltl::state(Prop::loc_empty(a)));
        let err = classify(&ta, &f).unwrap_err();
        assert!(matches!(err, FragmentError::UnstableProp { .. }), "{err}");
    }

    #[test]
    fn conjunction_splits_into_queries() {
        let ta = ta();
        let d = loc(&ta, "D");
        let f = Ltl::and([
            Ltl::always(Ltl::state(Prop::loc_empty(d))),
            Ltl::always(Ltl::state(Prop::loc_empty(d))),
        ]);
        assert_eq!(classify(&ta, &f).unwrap().len(), 2);
    }

    #[test]
    fn unsupported_shape_is_rejected() {
        let ta = ta();
        let d = loc(&ta, "D");
        let f = Ltl::state(Prop::loc_empty(d));
        assert!(matches!(
            classify(&ta, &f),
            Err(FragmentError::UnsupportedShape(_))
        ));
    }
}
