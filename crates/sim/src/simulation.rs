//! The asynchronous system simulation: correct processes, Byzantine
//! processes, and a reliable but arbitrarily-slow network whose delivery
//! order is chosen by a [`Scheduler`].

use rand::seq::SliceRandom;
use rand::Rng;

use crate::adversary::{Adversary, AdversaryView};
use crate::message::{Envelope, Payload, ProcessId, ValueSet};
use crate::process::{DbftProcess, Decision, Event};

/// One entry of a recorded delivery schedule: enough to replay a run
/// deterministically without the adversary or scheduler that produced
/// it (see [`crate::shrink`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScheduleEvent {
    /// A Byzantine injection.
    Inject(Envelope),
    /// A network delivery.
    Deliver(Envelope),
}

/// System parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimParams {
    /// Total number of processes.
    pub n: usize,
    /// Fault threshold assumed by the protocol (`t < n/3` for the
    /// standard deployment; the simulator lets you violate this to
    /// reproduce the broken-resilience counterexample).
    pub t: usize,
    /// Actual number of Byzantine processes (`f ≤ t` normally). The
    /// *last* `f` process ids are Byzantine.
    pub f: usize,
}

/// A running simulation of the DBFT consensus.
///
/// Correct processes execute Alg. 1 faithfully; Byzantine processes send
/// whatever the adversary [`inject`](Simulation::inject)s. The network
/// is reliable (nothing is lost) and asynchronous (any in-flight message
/// can be delivered next).
#[derive(Clone, Debug)]
pub struct Simulation {
    params: SimParams,
    processes: Vec<Option<DbftProcess>>,
    pending: Vec<Envelope>,
    trace: Vec<Event>,
    deliveries: u64,
    /// Recorded schedule for replay/shrinking, if enabled.
    schedule: Option<Vec<ScheduleEvent>>,
}

impl Simulation {
    /// Creates a simulation: `proposals[i]` is the input of process `i`;
    /// the last `f` processes are Byzantine (their proposals are
    /// ignored; they send nothing until the adversary injects).
    ///
    /// # Panics
    ///
    /// Panics if `proposals.len() != n` or `f > n`.
    pub fn new(params: SimParams, proposals: &[u8]) -> Simulation {
        assert_eq!(proposals.len(), params.n, "one proposal per process");
        assert!(params.f <= params.n);
        let mut processes = Vec::with_capacity(params.n);
        let mut pending = Vec::new();
        let correct = params.n - params.f;
        for (i, &v) in proposals.iter().enumerate() {
            if i < correct {
                let (p, out) = DbftProcess::new(ProcessId(i), params.n, params.t, v);
                processes.push(Some(p));
                pending.extend(out);
            } else {
                processes.push(None); // Byzantine: adversary-driven
            }
        }
        let mut sim = Simulation {
            params,
            processes,
            pending,
            trace: Vec::new(),
            deliveries: 0,
            schedule: None,
        };
        sim.collect_events();
        sim
    }

    /// Starts recording the delivery schedule (injections and
    /// deliveries) for later replay/shrinking.
    pub fn record_schedule(&mut self) {
        if self.schedule.is_none() {
            self.schedule = Some(Vec::new());
        }
    }

    /// The recorded schedule, if recording was enabled.
    pub fn schedule(&self) -> Option<&[ScheduleEvent]> {
        self.schedule.as_deref()
    }

    fn record(&mut self, event: ScheduleEvent) {
        if let Some(s) = self.schedule.as_mut() {
            s.push(event);
        }
    }

    /// The parameters.
    pub fn params(&self) -> SimParams {
        self.params
    }

    /// Whether process `id` is Byzantine.
    pub fn is_byzantine(&self, id: ProcessId) -> bool {
        self.processes[id.0].is_none()
    }

    /// Ids of the correct processes.
    pub fn correct_ids(&self) -> Vec<ProcessId> {
        (0..self.params.n)
            .map(ProcessId)
            .filter(|&p| !self.is_byzantine(p))
            .collect()
    }

    /// The in-flight messages.
    pub fn pending(&self) -> &[Envelope] {
        &self.pending
    }

    /// Total deliveries so far.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// The recorded protocol events (in order).
    pub fn trace(&self) -> &[Event] {
        &self.trace
    }

    /// The correct process with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is Byzantine or out of range.
    pub fn process(&self, id: ProcessId) -> &DbftProcess {
        self.processes[id.0].as_ref().expect("correct process")
    }

    /// Decisions of the correct processes (None = undecided), indexed by
    /// process id (Byzantine slots are `None`).
    pub fn decisions(&self) -> Vec<Option<Decision>> {
        self.processes
            .iter()
            .map(|p| p.as_ref().and_then(DbftProcess::decision))
            .collect()
    }

    /// Whether every correct process has decided.
    pub fn all_decided(&self) -> bool {
        self.processes
            .iter()
            .flatten()
            .all(|p| p.decision().is_some())
    }

    /// Delivers the pending message at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn deliver_index(&mut self, index: usize) {
        let env = self.pending.swap_remove(index);
        self.record(ScheduleEvent::Deliver(env));
        self.deliveries += 1;
        if let Some(p) = self.processes[env.to.0].as_mut() {
            let out = p.handle(env.from, env.payload);
            self.pending.extend(out);
        }
        // Messages to Byzantine processes vanish into arbitrary behavior.
        self.collect_events();
    }

    /// Delivers the first pending message matching the predicate, if
    /// any; returns whether one was found.
    pub fn deliver_matching(&mut self, pred: impl Fn(&Envelope) -> bool) -> bool {
        match self.pending.iter().position(pred) {
            Some(i) => {
                self.deliver_index(i);
                true
            }
            None => false,
        }
    }

    /// Injects a message from a Byzantine process.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not Byzantine.
    pub fn inject(&mut self, from: ProcessId, to: ProcessId, payload: Payload) {
        assert!(
            self.is_byzantine(from),
            "only Byzantine processes inject arbitrary messages"
        );
        let env = Envelope { from, to, payload };
        self.record(ScheduleEvent::Inject(env));
        self.pending.push(env);
    }

    /// Injects `payload` from a Byzantine sender to every process.
    pub fn inject_broadcast(&mut self, from: ProcessId, payload: Payload) {
        for j in 0..self.params.n {
            self.inject(from, ProcessId(j), payload);
        }
    }

    /// Replays one recorded [`ScheduleEvent`] (see [`crate::shrink`]):
    /// `Inject` re-injects, `Deliver` delivers the first matching
    /// pending message (skipped if absent — e.g. the schedule was
    /// shrunk past the send that produced it). Returns whether the
    /// event applied.
    pub fn apply_event(&mut self, event: &ScheduleEvent) -> bool {
        match *event {
            ScheduleEvent::Inject(env) => {
                if !self.is_byzantine(env.from) {
                    return false;
                }
                self.inject(env.from, env.to, env.payload);
                true
            }
            ScheduleEvent::Deliver(env) => self.deliver_matching(|e| *e == env),
        }
    }

    fn collect_events(&mut self) {
        for p in self.processes.iter_mut().flatten() {
            self.trace.extend(p.take_events());
        }
    }

    /// Runs under a scheduler until all correct processes decide, the
    /// network quiesces, or `max_deliveries` is reached. Returns the
    /// outcome.
    pub fn run(&mut self, scheduler: &mut dyn Scheduler, max_deliveries: u64) -> Outcome {
        self.run_inner(scheduler, None, max_deliveries)
    }

    /// Like [`run`](Simulation::run), but an [`Adversary`] drives the
    /// Byzantine processes: before every scheduling step it observes
    /// the system and may inject messages.
    pub fn run_with_adversary(
        &mut self,
        scheduler: &mut dyn Scheduler,
        adversary: &mut dyn Adversary,
        max_deliveries: u64,
    ) -> Outcome {
        self.run_inner(scheduler, Some(adversary), max_deliveries)
    }

    fn run_inner(
        &mut self,
        scheduler: &mut dyn Scheduler,
        mut adversary: Option<&mut dyn Adversary>,
        max_deliveries: u64,
    ) -> Outcome {
        while self.deliveries < max_deliveries {
            if self.all_decided() {
                return Outcome::AllDecided;
            }
            if let Some(adv) = adversary.as_deref_mut() {
                adv.step(&mut AdversaryView::new(self));
            }
            if self.pending.is_empty() {
                // Nothing was lost on the reliable network, so a
                // quiescent run with undecided processes is a real
                // deadlock.
                return Outcome::Quiescent;
            }
            scheduler.step(self);
        }
        if self.all_decided() {
            Outcome::AllDecided
        } else {
            Outcome::Budget
        }
    }
}

/// Why a [`Simulation::run`] stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Every correct process decided.
    AllDecided,
    /// No message is in flight (everyone is waiting forever).
    Quiescent,
    /// The delivery budget ran out.
    Budget,
}

/// Chooses the next delivery (and possibly injects Byzantine messages).
pub trait Scheduler {
    /// Performs one scheduling step: must deliver at least one pending
    /// message (the network is reliable, so the run stays fair at the
    /// network level).
    fn step(&mut self, sim: &mut Simulation);
}

/// Delivers a uniformly random pending message; optionally makes each
/// Byzantine process echo random noise.
#[derive(Debug)]
pub struct RandomScheduler<R: Rng> {
    rng: R,
    /// Probability (×1000) of a Byzantine noise injection per step.
    noise_per_mille: u32,
}

impl<R: Rng> RandomScheduler<R> {
    /// A scheduler with silent Byzantine processes.
    pub fn new(rng: R) -> RandomScheduler<R> {
        RandomScheduler {
            rng,
            noise_per_mille: 0,
        }
    }

    /// A scheduler where Byzantine processes inject uniformly random
    /// `BV`/`aux` messages with the given per-step probability (in
    /// thousandths).
    pub fn with_noise(rng: R, noise_per_mille: u32) -> RandomScheduler<R> {
        RandomScheduler {
            rng,
            noise_per_mille,
        }
    }
}

impl<R: Rng> Scheduler for RandomScheduler<R> {
    fn step(&mut self, sim: &mut Simulation) {
        if self.noise_per_mille > 0 && self.rng.gen_range(0..1000) < self.noise_per_mille {
            // One Byzantine process sends something random.
            let byz: Vec<ProcessId> = (0..sim.params().n)
                .map(ProcessId)
                .filter(|&p| sim.is_byzantine(p))
                .collect();
            if let Some(&from) = byz.choose(&mut self.rng) {
                let to = ProcessId(self.rng.gen_range(0..sim.params().n));
                // Target a plausible round to maximise interference.
                let round = sim
                    .correct_ids()
                    .iter()
                    .map(|&p| sim.process(p).round())
                    .max()
                    .unwrap_or(1);
                let round = round.saturating_sub(self.rng.gen_range(0..2)).max(1);
                let payload = if self.rng.gen_bool(0.5) {
                    Payload::Bv {
                        round,
                        value: self.rng.gen_range(0..2),
                    }
                } else {
                    let values = match self.rng.gen_range(0..3) {
                        0 => ValueSet::singleton(0),
                        1 => ValueSet::singleton(1),
                        _ => ValueSet::both(),
                    };
                    Payload::Aux { round, values }
                };
                sim.inject(from, to, payload);
            }
        }
        let idx = self.rng.gen_range(0..sim.pending().len());
        sim.deliver_index(idx);
    }
}

/// A scheduler that realises the paper's **fairness assumption**
/// (Definition 3): in every round `r` it delivers `BV` messages carrying
/// the round's parity value first, making the round `(r mod 2)`-good
/// whenever that value is broadcast by `t+1` correct processes. Under it
/// DBFT terminates (Theorem 6); this is the executable counterpart of
/// the fair bv-broadcast.
#[derive(Debug, Default)]
pub struct GoodRoundScheduler;

impl GoodRoundScheduler {
    /// Creates the scheduler.
    pub fn new() -> GoodRoundScheduler {
        GoodRoundScheduler
    }
}

impl Scheduler for GoodRoundScheduler {
    fn step(&mut self, sim: &mut Simulation) {
        // The earliest round any correct process is still in.
        let min_round = sim
            .correct_ids()
            .iter()
            .map(|&p| sim.process(p).round())
            .min()
            .unwrap_or(1);
        let favoured = (min_round % 2) as u8;
        // Priority: (1) BV(min_round, parity), (2) other BV(min_round),
        // (3) aux(min_round), (4) anything else.
        let better = |e: &Envelope| match e.payload {
            Payload::Bv { round, value } if round == min_round && value == favoured => 0,
            Payload::Bv { round, .. } if round == min_round => 1,
            Payload::Aux { round, .. } if round == min_round => 2,
            _ => 3,
        };
        let idx = (0..sim.pending().len())
            .min_by_key(|&i| better(&sim.pending()[i]))
            .expect("run() guarantees pending is non-empty");
        sim.deliver_index(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unanimous_terminates_under_random_scheduling() {
        for seed in 0..10 {
            let mut sim = Simulation::new(SimParams { n: 4, t: 1, f: 1 }, &[1, 1, 1, 0]);
            let mut sched = RandomScheduler::new(StdRng::seed_from_u64(seed));
            let outcome = sim.run(&mut sched, 1_000_000);
            assert_eq!(outcome, Outcome::AllDecided, "seed {seed}");
            for d in sim.decisions().into_iter().flatten() {
                assert_eq!(d.value, 1);
            }
        }
    }

    #[test]
    fn good_round_scheduler_terminates_mixed_inputs() {
        for proposals in [[0, 1, 0, 1], [1, 0, 0, 0], [0, 1, 1, 1]] {
            let mut sim = Simulation::new(SimParams { n: 4, t: 1, f: 1 }, &proposals);
            let mut sched = GoodRoundScheduler::new();
            let outcome = sim.run(&mut sched, 1_000_000);
            assert_eq!(outcome, Outcome::AllDecided, "{proposals:?}");
        }
    }

    #[test]
    fn agreement_under_random_byzantine_noise() {
        for seed in 0..20 {
            let mut sim = Simulation::new(SimParams { n: 4, t: 1, f: 1 }, &[0, 1, 1, 0]);
            let mut sched = RandomScheduler::with_noise(StdRng::seed_from_u64(seed), 200);
            let _ = sim.run(&mut sched, 300_000);
            let decided: Vec<u8> = sim
                .decisions()
                .into_iter()
                .flatten()
                .map(|d| d.value)
                .collect();
            assert!(
                decided.windows(2).all(|w| w[0] == w[1]),
                "disagreement at seed {seed}: {decided:?}"
            );
        }
    }

    #[test]
    fn byzantine_injection_requires_byzantine_sender() {
        let mut sim = Simulation::new(SimParams { n: 4, t: 1, f: 1 }, &[0, 0, 0, 0]);
        sim.inject_broadcast(ProcessId(3), Payload::Bv { round: 1, value: 1 });
        assert_eq!(
            sim.pending()
                .iter()
                .filter(|e| e.from == ProcessId(3))
                .count(),
            4
        );
    }

    #[test]
    #[should_panic(expected = "Byzantine")]
    fn correct_process_cannot_inject() {
        let mut sim = Simulation::new(SimParams { n: 4, t: 1, f: 1 }, &[0, 0, 0, 0]);
        sim.inject(
            ProcessId(0),
            ProcessId(1),
            Payload::Bv { round: 1, value: 1 },
        );
    }

    #[test]
    fn validity_with_unanimous_inputs_and_active_byzantine() {
        // All correct propose 0; the Byzantine floods 1s. Nobody may
        // decide 1.
        for seed in 0..10 {
            let mut sim = Simulation::new(SimParams { n: 4, t: 1, f: 1 }, &[0, 0, 0, 1]);
            // Byzantine broadcasts BV(1) and aux{1} for the early rounds.
            for round in 1..=4 {
                sim.inject_broadcast(ProcessId(3), Payload::Bv { round, value: 1 });
                sim.inject_broadcast(
                    ProcessId(3),
                    Payload::Aux {
                        round,
                        values: ValueSet::singleton(1),
                    },
                );
            }
            let mut sched = RandomScheduler::new(StdRng::seed_from_u64(seed));
            let _ = sim.run(&mut sched, 300_000);
            for d in sim.decisions().into_iter().flatten() {
                assert_eq!(d.value, 0, "validity violated at seed {seed}");
            }
        }
    }
}
