//! Randomized system-level properties of the DBFT simulation.

use holistic_sim::{
    monitor, GoodRoundScheduler, Outcome, RandomScheduler, Scenario, SimParams, Simulation,
    StrategyKind,
};
use proptest::prelude::*;
use rand::SeedableRng;

fn proposals(n: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=1, n)
}

/// Random well-parameterized systems: `f ≤ t < n/3`, n up to 10.
fn small_system() -> impl Strategy<Value = SimParams> {
    (4usize..=10).prop_flat_map(|n| {
        (Just(n), 1usize..=(n - 1) / 3).prop_flat_map(|(n, t)| {
            (Just(n), Just(t), 0usize..=t).prop_map(|(n, t, f)| SimParams { n, t, f })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Agreement and validity hold on every random schedule, for both
    /// silent and noisy Byzantine processes.
    #[test]
    fn safety_under_random_schedules(
        props in proposals(4),
        seed in 0u64..1_000_000,
        noise in 0u32..400,
    ) {
        let params = SimParams { n: 4, t: 1, f: 1 };
        let mut sim = Simulation::new(params, &props);
        let mut sched = RandomScheduler::with_noise(
            rand::rngs::StdRng::seed_from_u64(seed),
            noise,
        );
        let _ = sim.run(&mut sched, 150_000);
        let correct = &props[..3];
        prop_assert!(monitor::check_safety(&sim, correct).is_ok());
    }

    /// Under the fair scheduler every run terminates, decisions agree,
    /// and the decided value is some correct process's proposal.
    #[test]
    fn fair_scheduler_terminates_and_decides_validly(
        props in proposals(4),
        _seed in 0u64..10,
    ) {
        let params = SimParams { n: 4, t: 1, f: 1 };
        let mut sim = Simulation::new(params, &props);
        let mut sched = GoodRoundScheduler::new();
        let outcome = sim.run(&mut sched, 2_000_000);
        prop_assert_eq!(outcome, Outcome::AllDecided);
        let decided: Vec<u8> = sim.decisions().into_iter().flatten().map(|d| d.value).collect();
        prop_assert_eq!(decided.len(), 3);
        prop_assert!(decided.windows(2).all(|w| w[0] == w[1]));
        // Validity: the decided value was proposed by some correct
        // process (with mixed inputs both values qualify).
        let correct = &props[..3];
        prop_assert!(correct.contains(&decided[0]));
        prop_assert!(monitor::check_safety(&sim, correct).is_ok());
    }

    /// Larger system: n = 7, t = 2, f = 2.
    #[test]
    fn safety_scales_to_seven_processes(
        props in proposals(7),
        seed in 0u64..1_000_000,
    ) {
        let params = SimParams { n: 7, t: 2, f: 2 };
        let mut sim = Simulation::new(params, &props);
        let mut sched = RandomScheduler::with_noise(
            rand::rngs::StdRng::seed_from_u64(seed),
            150,
        );
        let _ = sim.run(&mut sched, 150_000);
        prop_assert!(monitor::check_safety(&sim, &props[..5]).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The full robustness matrix, sampled: any well-parameterized
    /// system (`f ≤ t < n/3`) and any Byzantine strategy — Agreement,
    /// Validity and BV-Justification hold.
    #[test]
    fn any_strategy_preserves_safety(
        params in small_system(),
        strategy in prop::sample::select(StrategyKind::all().to_vec()),
        seed in 0u64..1_000_000,
    ) {
        let mut scenario = Scenario::new(params, strategy, seed);
        scenario.max_deliveries = 30_000;
        let (_, report) = scenario.run();
        prop_assert!(report.is_safe(), "{}: {:?}", report.label, report.violations);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under the paper's fairness assumption (the good-round
    /// scheduler) every strategy also admits Termination — Theorem 6
    /// survives an *active* adversary, not just the silent one.
    #[test]
    fn any_strategy_terminates_under_fairness(
        params in small_system(),
        strategy in prop::sample::select(StrategyKind::all().to_vec()),
        seed in 0u64..1_000,
    ) {
        let proposals: Vec<u8> =
            (0..params.n).map(|i| ((i as u64 ^ seed) % 2) as u8).collect();
        let mut sim = Simulation::new(params, &proposals);
        let mut adv = strategy.build(seed, params);
        let mut sched = GoodRoundScheduler::new();
        let outcome = sim.run_with_adversary(&mut sched, adv.as_mut(), 2_000_000);
        prop_assert_eq!(outcome, Outcome::AllDecided, "{} at {:?}", strategy.name(), params);
        let correct = &proposals[..params.n - params.f];
        prop_assert!(monitor::check_safety(&sim, correct).is_ok());
    }
}
