//! Property test of `LinExpr` against a `BTreeMap<Var, Rat>` model.
//!
//! `LinExpr` keeps its terms in a sorted vector and adds expressions by
//! merging. Random sequences of `add_term`, `+=`, `-=`, `scale` and
//! `neg` run on both; after every step the expression must iterate the
//! model's non-zero pairs in ascending variable order, and `==` and
//! `Hash` must agree with the model's equality across every expression
//! the run produced.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use holistic_lia::{LinExpr, Rat, Solver, Var};
use proptest::prelude::*;

/// Variables the operations draw from.
const VARS: usize = 6;

/// The reference: coefficients by variable with zeros removed, plus
/// the constant term.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct Model {
    terms: BTreeMap<Var, Rat>,
    constant: Rat,
}

impl Model {
    fn add_term(&mut self, v: Var, c: Rat) {
        let sum = self.terms.get(&v).copied().unwrap_or(Rat::ZERO) + c;
        if sum.is_zero() {
            self.terms.remove(&v);
        } else {
            self.terms.insert(v, sum);
        }
    }

    fn add(&mut self, other: &Model, sign: Rat) {
        for (&v, &c) in &other.terms {
            self.add_term(v, c * sign);
        }
        self.constant += other.constant * sign;
    }

    fn scale(&mut self, c: Rat) {
        if c.is_zero() {
            *self = Model::default();
            return;
        }
        for k in self.terms.values_mut() {
            *k *= c;
        }
        self.constant *= c;
    }
}

/// One operation: `kind` picks it, `terms` (variable index, numerator,
/// denominator) give its operand, `k` its constant or scale factor.
type Op = (u8, Vec<(usize, i64, i64)>, (i64, i64));

fn op() -> impl Strategy<Value = Op> {
    (
        0u8..=4,
        prop::collection::vec((0usize..VARS, -3i64..=3, 1i64..=3), 0..=5),
        (-3i64..=3, 1i64..=3),
    )
}

/// The operand of a `+=`/`-=`, built term by term so it goes through
/// the same single-term path the encodings use.
fn operand(vars: &[Var], terms: &[(usize, i64, i64)], k: (i64, i64)) -> (LinExpr, Model) {
    let mut e = LinExpr::constant(Rat::new(k.0.into(), k.1.into()));
    let mut m = Model {
        constant: Rat::new(k.0.into(), k.1.into()),
        ..Model::default()
    };
    for &(i, n, d) in terms {
        let c = Rat::new(n.into(), d.into());
        e += LinExpr::term(vars[i], c);
        m.add_term(vars[i], c);
    }
    (e, m)
}

fn hash_of(e: &LinExpr) -> u64 {
    let mut h = DefaultHasher::new();
    e.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn linexpr_matches_the_btreemap_model(ops in prop::collection::vec(op(), 1..=16)) {
        let mut solver = Solver::new();
        let vars: Vec<Var> = (0..VARS).map(|i| solver.new_var(format!("v{i}"))).collect();
        let mut e = LinExpr::zero();
        let mut m = Model::default();
        let mut seen: Vec<(LinExpr, Model)> = vec![(e.clone(), m.clone())];
        for (kind, terms, k) in &ops {
            let factor = Rat::new(k.0.into(), k.1.into());
            match kind {
                0 => {
                    let (i, n, d) = terms.first().copied().unwrap_or((0, k.0, k.1));
                    let c = Rat::new(n.into(), d.into());
                    e.add_term(vars[i], c);
                    m.add_term(vars[i], c);
                }
                1 | 2 => {
                    let (rhs, rhs_model) = operand(&vars, terms, *k);
                    if *kind == 1 {
                        e += rhs;
                        m.add(&rhs_model, Rat::ONE);
                    } else {
                        e -= rhs;
                        m.add(&rhs_model, Rat::from(-1));
                    }
                }
                3 => {
                    e = e.scale(factor);
                    m.scale(factor);
                }
                _ => {
                    e = -e;
                    m.scale(Rat::from(-1));
                }
            }

            let pairs: Vec<(Var, Rat)> = e.iter().collect();
            let expected: Vec<(Var, Rat)> = m.terms.iter().map(|(&v, &c)| (v, c)).collect();
            prop_assert_eq!(&pairs, &expected);
            prop_assert!(pairs.iter().all(|(_, c)| !c.is_zero()), "zero coefficient in {}", e);
            prop_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "unsorted terms in {}", e);
            prop_assert_eq!(e.num_terms(), m.terms.len());
            prop_assert_eq!(e.constant_term(), m.constant);
            for &v in &vars {
                prop_assert_eq!(e.coeff(v), m.terms.get(&v).copied().unwrap_or(Rat::ZERO));
            }
            seen.push((e.clone(), m.clone()));
        }

        for (a, ma) in &seen {
            for (b, mb) in &seen {
                prop_assert_eq!(a == b, ma == mb, "{} vs {}", a, b);
                if a == b {
                    prop_assert_eq!(hash_of(a), hash_of(b));
                }
            }
        }
    }
}
