//! Scenario sweeps: run every Byzantine strategy at several system
//! sizes on the paper's reliable network, check all monitors, and
//! shrink any violation to a minimal reproducing trace.
//!
//! This is the robustness harness's single entry point: a
//! [`FaultPlan`] is a list of [`Scenario`]s; [`FaultPlan::run`] drives
//! each one ([`Simulation`] + [`StrategyKind`] adversary + seeded
//! [`RandomScheduler`]) and returns one [`RunReport`] per scenario with
//! the monitor results. [`shrink_first_violation`] re-runs a scenario
//! with schedule recording and delta-debugs any violation (see
//! [`crate::shrink`]).
//!
//! Everything is deterministic in the scenario's seed: the adversary's
//! RNG and the scheduler's RNG are both derived from it, so a failing
//! `label()` is a complete bug report.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adversary::StrategyKind;
use crate::monitor::{self, Violation};
use crate::shrink;
use crate::simulation::{Outcome, RandomScheduler, ScheduleEvent, SimParams, Simulation};

/// One fully-specified adversarial run.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// System size and resilience.
    pub params: SimParams,
    /// Proposals, one per process (Byzantine entries are ignored).
    pub proposals: Vec<u8>,
    /// The Byzantine strategy.
    pub strategy: StrategyKind,
    /// Master seed (the adversary and scheduler RNGs derive from it).
    pub seed: u64,
    /// Delivery budget.
    pub max_deliveries: u64,
}

impl Scenario {
    /// Creates a scenario with mixed proposals (process `i` proposes
    /// `(i ⊕ seed) mod 2`) and a default budget.
    pub fn new(params: SimParams, strategy: StrategyKind, seed: u64) -> Scenario {
        let proposals = (0..params.n)
            .map(|i| ((i as u64 ^ seed) % 2) as u8)
            .collect();
        Scenario {
            params,
            proposals,
            strategy,
            seed,
            max_deliveries: 60_000,
        }
    }

    /// A complete, reproducible description of the scenario.
    pub fn label(&self) -> String {
        format!(
            "n={} t={} f={} strategy={} seed={}",
            self.params.n,
            self.params.t,
            self.params.f,
            self.strategy.name(),
            self.seed
        )
    }

    /// The correct processes' proposals (the monitors' reference).
    pub fn correct_proposals(&self) -> &[u8] {
        &self.proposals[..self.params.n - self.params.f]
    }

    fn prepare(&self, record: bool) -> Simulation {
        let mut sim = Simulation::new(self.params, &self.proposals);
        if record {
            sim.record_schedule();
        }
        sim
    }

    fn drive(&self, sim: &mut Simulation) -> RunReport {
        let mut adversary = self.strategy.build(self.seed, self.params);
        let mut scheduler = RandomScheduler::new(StdRng::seed_from_u64(self.seed));
        let outcome =
            sim.run_with_adversary(&mut scheduler, adversary.as_mut(), self.max_deliveries);
        let props = self.correct_proposals();
        let mut violations = Vec::new();
        for result in [
            monitor::check_agreement(sim),
            monitor::check_validity(sim, props),
            monitor::check_bv_justification(sim),
        ] {
            if let Err(v) = result {
                violations.push(v);
            }
        }
        RunReport {
            label: self.label(),
            outcome,
            violations,
            good_round: monitor::find_good_round(sim),
            deliveries: sim.deliveries(),
        }
    }

    /// Runs the scenario and checks all safety monitors. Returns the
    /// final simulation (for further inspection) and the report.
    pub fn run(&self) -> (Simulation, RunReport) {
        let mut sim = self.prepare(false);
        let report = self.drive(&mut sim);
        (sim, report)
    }
}

/// The outcome of one scenario: monitor results plus run statistics.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// [`Scenario::label`] of the run.
    pub label: String,
    /// Why the run stopped.
    pub outcome: Outcome,
    /// Safety-monitor violations (Agreement, Validity,
    /// BV-Justification). Empty on healthy runs.
    pub violations: Vec<Violation>,
    /// The first *(r mod 2)-good* round observed, if any (Definition 3).
    pub good_round: Option<u64>,
    /// Deliveries consumed.
    pub deliveries: u64,
}

impl RunReport {
    /// Whether every safety monitor passed.
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A sweep: a list of scenarios run with all monitors attached. Its
/// faults are the Byzantine processes; the network is reliable, as
/// Fig. 1 assumes.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// The scenarios, in execution order.
    pub scenarios: Vec<Scenario>,
}

impl FaultPlan {
    /// The standard robustness sweep: system sizes `(4,1,1)`, `(7,2,2)`
    /// and `(10,3,3)` (each at the resilience boundary `t = ⌊(n−1)/3⌋`,
    /// `f = t`) × every [`StrategyKind`], on the reliable network,
    /// seeds derived from `seed`. Within `t < n/3` every run must be
    /// safe — that is Theorem 1/5 made executable.
    pub fn standard(seed: u64) -> FaultPlan {
        let sizes = [
            SimParams { n: 4, t: 1, f: 1 },
            SimParams { n: 7, t: 2, f: 2 },
            SimParams { n: 10, t: 3, f: 3 },
        ];
        let mut scenarios = Vec::new();
        for (i, &params) in sizes.iter().enumerate() {
            for (j, strategy) in StrategyKind::all().into_iter().enumerate() {
                let derived = seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add((i * 100 + j * 10) as u64);
                scenarios.push(Scenario::new(params, strategy, derived));
            }
        }
        FaultPlan { scenarios }
    }

    /// Runs every scenario and returns the reports (same order).
    pub fn run(&self) -> Vec<RunReport> {
        self.scenarios.iter().map(|s| s.run().1).collect()
    }
}

/// A shrunk violation: the monitor verdict plus the minimal schedule
/// that reproduces it.
#[derive(Clone, Debug)]
pub struct ShrunkViolation {
    /// The violation found on the full run.
    pub violation: Violation,
    /// Recorded schedule length before shrinking.
    pub original_len: usize,
    /// The 1-minimal reproducing schedule.
    pub minimal: Vec<ScheduleEvent>,
}

/// Re-runs `scenario` with schedule recording; if a safety monitor
/// fails, delta-debugs the recorded schedule down to a minimal trace
/// that still violates the *same property* and returns it. `None` if
/// the run was safe.
pub fn shrink_first_violation(scenario: &Scenario) -> Option<ShrunkViolation> {
    let mut sim = scenario.prepare(true);
    let report = scenario.drive(&mut sim);
    let violation = report.violations.first()?.clone();
    let schedule = sim.schedule().expect("recording was enabled").to_vec();
    let property = violation.property;
    let props = scenario.correct_proposals().to_vec();
    let still_fails = move |s: &Simulation| match property {
        "Agreement" => monitor::check_agreement(s).is_err(),
        "Validity" => monitor::check_validity(s, &props).is_err(),
        "BV-Justification" => monitor::check_bv_justification(s).is_err(),
        _ => false,
    };
    let minimal =
        shrink::shrink_schedule(scenario.params, &scenario.proposals, &schedule, still_fails)
            .unwrap_or_else(|| schedule.clone());
    Some(ShrunkViolation {
        violation,
        original_len: schedule.len(),
        minimal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_scenario_within_resilience_is_safe() {
        let scenario = Scenario::new(SimParams { n: 4, t: 1, f: 1 }, StrategyKind::Equivocator, 5);
        let (_, report) = scenario.run();
        assert!(
            report.is_safe(),
            "{}: {:?}",
            report.label,
            report.violations
        );
    }

    #[test]
    fn labels_are_reproducible_descriptions() {
        let s = Scenario::new(SimParams { n: 7, t: 2, f: 2 }, StrategyKind::Staller, 42);
        assert_eq!(s.label(), "n=7 t=2 f=2 strategy=staller seed=42");
    }

    #[test]
    fn standard_plan_covers_the_full_matrix() {
        let plan = FaultPlan::standard(1);
        // 3 sizes × 5 strategies.
        assert_eq!(plan.scenarios.len(), 15);
        // All seeds distinct (independent randomness per cell).
        let mut seeds: Vec<u64> = plan.scenarios.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 15);
    }

    #[test]
    fn misparameterized_system_violates_and_shrinks() {
        // t = 1 ≥ n/3 at n = 3: the equivocator splits the two correct
        // processes. Scan a few seeds for a schedule that realises the
        // violation, then require the shrinker to reduce it.
        let params = SimParams { n: 3, t: 1, f: 1 };
        let found = (0..50).find_map(|seed| {
            let mut scenario = Scenario::new(params, StrategyKind::Equivocator, seed);
            scenario.proposals = vec![0, 1, 0];
            scenario.max_deliveries = 5_000;
            shrink_first_violation(&scenario)
        });
        let shrunk = found.expect("broken resilience must be observable");
        assert_eq!(shrunk.violation.property, "Agreement");
        assert!(
            shrunk.minimal.len() < shrunk.original_len,
            "shrinker made no progress: {} -> {}",
            shrunk.original_len,
            shrunk.minimal.len()
        );
        // The minimal trace must still reproduce on replay.
        let sim = shrink::replay(params, &[0, 1, 0], &shrunk.minimal);
        assert!(monitor::check_agreement(&sim).is_err());
    }
}
