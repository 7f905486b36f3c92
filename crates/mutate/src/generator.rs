//! Random threshold-automaton generation for cross-validation.
//!
//! [`random_ta`] is the canonical generator the cross-validation suite
//! uses (`tests/cross_validation.rs` re-exports it from here): a random
//! increment-only DAG automaton over parameters `n, f`. Its RNG
//! consumption order is part of the contract — a given seed must keep
//! producing the same automaton across refactors, or recorded failing
//! seeds stop reproducing.

use rand::rngs::StdRng;
use rand::Rng;

use holistic_ta::{
    AtomicGuard, Guard, LocationId, ParamExpr, ParamId, TaBuilder, ThresholdAutomaton, VarExpr,
};

/// Generates a random increment-only DAG automaton with parameters
/// `n, f`, resilience `n > 3f ∧ f ≥ 0 ∧ n ≥ 2`, and `n − f` processes.
///
/// The RNG consumption order is stable by contract: recorded seeds in
/// bug reports and CI logs must keep reproducing the same automaton.
pub fn random_ta(rng: &mut StdRng) -> ThresholdAutomaton {
    let mut b = TaBuilder::new("random");
    let n = b.param("n");
    let f = b.param("f");
    b.resilience_gt(n, f, 3);
    b.resilience_ge_const(f, 0);
    b.resilience_ge_const(n, 2);
    b.size_n_minus_f(n, f);

    let num_vars = rng.gen_range(1..=2);
    let vars: Vec<_> = (0..num_vars).map(|i| b.shared(format!("x{i}"))).collect();

    let num_locs = rng.gen_range(3..=5);
    let mut locs: Vec<LocationId> = Vec::new();
    for i in 0..num_locs {
        locs.push(if i == 0 || (i == 1 && rng.gen_bool(0.5)) {
            b.initial_location(format!("L{i}"))
        } else if i == num_locs - 1 {
            b.final_location(format!("L{i}"))
        } else {
            b.location(format!("L{i}"))
        });
    }

    let num_rules = rng.gen_range(num_locs - 1..=num_locs + 3);
    for r in 0..num_rules {
        // Forward edges only: guaranteed DAG. Make sure the target is
        // reachable in the graph by always including the spine.
        let (from, to) = if r < num_locs - 1 {
            (r, r + 1)
        } else {
            let from = rng.gen_range(0..num_locs - 1);
            (from, rng.gen_range(from + 1..num_locs))
        };
        let guard = if rng.gen_bool(0.5) {
            Guard::always()
        } else {
            let v = vars[rng.gen_range(0..vars.len())];
            let rhs = match rng.gen_range(0..3) {
                0 => ParamExpr::constant(rng.gen_range(1..=2)),
                1 => {
                    // n - f (everyone sent)
                    let mut e = ParamExpr::param(ParamId(0));
                    e.add_term(ParamId(1), -1);
                    e
                }
                _ => {
                    // f + 1
                    let mut e = ParamExpr::param(ParamId(1));
                    e.add_constant(1);
                    e
                }
            };
            Guard::atom(AtomicGuard::ge(VarExpr::var(v), rhs))
        };
        let handle = b.rule(format!("r{r}"), locs[from], locs[to], guard);
        if rng.gen_bool(0.6) {
            let v = vars[rng.gen_range(0..vars.len())];
            handle.inc(v, 1);
        }
    }
    b.build().expect("generated automaton is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generator_is_deterministic_per_seed() {
        // The seed contract: same seed, same automaton. A drift here
        // breaks every recorded failing seed in CI logs.
        let a = random_ta(&mut StdRng::seed_from_u64(42));
        let b = random_ta(&mut StdRng::seed_from_u64(42));
        assert_eq!(a.rules.len(), b.rules.len());
        assert_eq!(a.locations, b.locations);
        for (ra, rb) in a.rules.iter().zip(&b.rules) {
            assert_eq!(ra.guard, rb.guard);
            assert_eq!(ra.update, rb.update);
            assert_eq!((ra.from, ra.to), (rb.from, rb.to));
        }
    }
}
