//! Schedule shrinking: reduce a recorded violating run to a minimal
//! reproducing trace.
//!
//! A run recorded with [`Simulation::record_schedule`] is a flat list of
//! [`ScheduleEvent`]s — Byzantine injections and network deliveries.
//! Replaying that list against a *fresh* simulation (no adversary, no
//! scheduler) reproduces the exact protocol-state evolution: correct
//! processes are deterministic, so the same deliveries in the same
//! order drive them through the same states.
//!
//! Shrinking then minimises the list while a caller-supplied predicate
//! (e.g. "Agreement still fails") holds:
//!
//! 1. **Prefix binary search** — a violation is monotone in trace
//!    prefixes (once two processes have decided differently, nothing
//!    un-decides them), so the shortest failing prefix is found with
//!    `O(log n)` replays;
//! 2. **ddmin** (Zeller–Hildebrandt delta debugging) — removes
//!    ever-smaller chunks of the remaining events until the list is
//!    1-minimal: removing any single event makes the violation vanish.

use crate::simulation::{ScheduleEvent, SimParams, Simulation};

/// Replays a recorded schedule against a fresh simulation and returns
/// the resulting state. Events that no longer apply (a `Deliver` whose
/// message was never sent in the reduced run) are skipped.
pub fn replay(params: SimParams, proposals: &[u8], schedule: &[ScheduleEvent]) -> Simulation {
    let mut sim = Simulation::new(params, proposals);
    for event in schedule {
        sim.apply_event(event);
    }
    sim
}

/// Shrinks `schedule` to a minimal sub-list whose replay still
/// satisfies `still_fails`. Returns `None` if the *full* schedule does
/// not reproduce (which would indicate the run was not recorded from
/// the start).
///
/// The result is 1-minimal: dropping any single remaining event makes
/// the predicate flip.
pub fn shrink_schedule(
    params: SimParams,
    proposals: &[u8],
    schedule: &[ScheduleEvent],
    still_fails: impl Fn(&Simulation) -> bool,
) -> Option<Vec<ScheduleEvent>> {
    let test = |events: &[ScheduleEvent]| still_fails(&replay(params, proposals, events));
    if !test(schedule) {
        return None;
    }

    // Phase 1: shortest failing prefix.
    let mut lo = 0usize;
    let mut hi = schedule.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if test(&schedule[..mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut current: Vec<ScheduleEvent> = schedule[..hi].to_vec();

    // Phase 2: ddmin over the prefix.
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let complement: Vec<ScheduleEvent> = current[..start]
                .iter()
                .chain(&current[end..])
                .copied()
                .collect();
            if test(&complement) {
                current = complement;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if granularity >= current.len() {
                break; // 1-minimal
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    Some(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Payload, ProcessId};
    use crate::process::Event;
    use crate::simulation::RandomScheduler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const P: SimParams = SimParams { n: 4, t: 1, f: 1 };
    const PROPS: [u8; 4] = [0, 1, 0, 0];

    fn recorded_run(seed: u64) -> Simulation {
        let mut sim = Simulation::new(P, &PROPS);
        sim.record_schedule();
        sim.inject_broadcast(ProcessId(3), Payload::Bv { round: 1, value: 1 });
        let mut sched = RandomScheduler::new(StdRng::seed_from_u64(seed));
        let _ = sim.run(&mut sched, 5_000);
        sim
    }

    fn p0_echoed_one(sim: &Simulation) -> bool {
        sim.trace().iter().any(|e| {
            matches!(
                e,
                Event::BvEcho {
                    process: ProcessId(0),
                    round: 1,
                    value: 1,
                }
            )
        })
    }

    #[test]
    fn replay_reproduces_the_recorded_run() {
        let original = recorded_run(11);
        let schedule = original.schedule().unwrap().to_vec();
        let replayed = replay(P, &PROPS, &schedule);
        assert_eq!(replayed.decisions(), original.decisions());
        assert_eq!(replayed.trace(), original.trace());
    }

    #[test]
    fn shrinking_yields_a_small_one_minimal_trace() {
        let original = recorded_run(11);
        assert!(p0_echoed_one(&original), "p1 + the Byzantine suffice");
        let schedule = original.schedule().unwrap().to_vec();
        let minimal =
            shrink_schedule(P, &PROPS, &schedule, p0_echoed_one).expect("full schedule reproduces");
        assert!(p0_echoed_one(&replay(P, &PROPS, &minimal)));
        // The echo needs t+1 = 2 distinct senders of value 1 at p0: one
        // injection plus one delivery of p1's initial broadcast — plus
        // at most the delivery of the injected copy itself.
        assert!(
            minimal.len() <= 3,
            "expected a tiny trace, got {} events: {minimal:?}",
            minimal.len()
        );
        // 1-minimality: dropping any single event breaks reproduction.
        for skip in 0..minimal.len() {
            let mut reduced = minimal.clone();
            reduced.remove(skip);
            assert!(
                !p0_echoed_one(&replay(P, &PROPS, &reduced)),
                "event {skip} was redundant"
            );
        }
    }

    #[test]
    fn non_reproducing_schedule_is_rejected() {
        let original = recorded_run(11);
        let schedule = original.schedule().unwrap().to_vec();
        assert!(shrink_schedule(P, &PROPS, &schedule, |_| false).is_none());
    }
}
