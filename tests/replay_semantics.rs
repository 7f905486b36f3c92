//! The checker's replay semantics against the oracle's, step by step.
//!
//! `ta::CounterSystem` is the semantics the checker replays its
//! counterexamples through; `oracle::ConcreteSystem` re-derives the same
//! counter system from the raw automaton data, so that a bug in one
//! shows up as a disagreement with the other. On random automata, a
//! walk of proptest-chosen rules from a common initial configuration
//! must see, at every step, the same enabled rules and the same
//! successor in both. Every configuration on the walk must also keep
//! the process count and never decrease a shared variable.

use holistic_oracle::ConcreteSystem;
use holistic_verification::mutate::generator::random_ta;
use holistic_verification::ta::{Config, CounterSystem, RuleId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Small valuations of the random automata's `n > 3f` resilience.
const GRID: [[i64; 2]; 4] = [[2, 0], [3, 0], [4, 1], [5, 1]];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn replay_steps_like_the_oracle(
        seed in any::<u64>(),
        valuation in 0..GRID.len(),
        split in any::<u64>(),
        choices in prop::collection::vec(any::<usize>(), 0..32),
    ) {
        let ta = random_ta(&mut StdRng::seed_from_u64(seed));
        let params = GRID[valuation];
        let replay = CounterSystem::new(&ta, &params).unwrap();
        let oracle = ConcreteSystem::new(&ta, &params).unwrap();
        prop_assert_eq!(replay.size(), oracle.size());
        // Split the processes between the first and last initial
        // location (the same one when there is only one).
        let size = replay.size();
        let first = (split % (size as u64 + 1)) as i64;
        let initial = ta.initial_locations();
        let mut config = Config {
            counters: vec![0; ta.locations.len()],
            shared: vec![0; ta.variables.len()],
        };
        config.counters[initial[0].0] += first;
        config.counters[initial[initial.len() - 1].0] += size - first;
        let rules: Vec<RuleId> = (0..ta.rules.len()).map(RuleId).collect();
        for choice in choices {
            let enabled: Vec<RuleId> = rules
                .iter()
                .copied()
                .filter(|&r| replay.is_enabled(&config, r))
                .collect();
            let oracle_enabled: Vec<RuleId> = rules
                .iter()
                .copied()
                .filter(|&r| oracle.is_enabled(&config, r))
                .collect();
            prop_assert_eq!(&enabled, &oracle_enabled, "seed {} at {:?}", seed, config);
            if enabled.is_empty() {
                break;
            }
            let rule = enabled[choice % enabled.len()];
            let next = replay.apply(&config, rule);
            prop_assert_eq!(&next, &oracle.apply(&config, rule), "seed {} firing {:?}", seed, rule);
            prop_assert_eq!(next.counters.iter().sum::<i64>(), size);
            prop_assert!(next.counters.iter().all(|&c| c >= 0));
            prop_assert!(
                config.shared.iter().zip(&next.shared).all(|(a, b)| a <= b),
                "seed {}: {:?} -> {:?} decreases a shared variable",
                seed,
                config.shared,
                next.shared
            );
            config = next;
        }
    }
}
