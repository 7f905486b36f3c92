//! A correct DBFT process: Fig. 1 (bv-broadcast) + Alg. 1 (consensus).

use std::collections::{BTreeMap, HashSet};

use crate::message::{Envelope, Payload, ProcessId, ValueSet};

/// A decision: the value and the round it was first decided in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Decision {
    /// The decided binary value.
    pub value: u8,
    /// The round of the first `decide()` invocation.
    pub round: u64,
}

/// Observable protocol events, recorded for the trace monitors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Event {
    /// The process bv-broadcast its estimate at the start of a round.
    BvBroadcast {
        /// Acting process.
        process: ProcessId,
        /// Round.
        round: u64,
        /// Estimate broadcast.
        value: u8,
    },
    /// The process echoed a value seen from `t+1` distinct senders.
    BvEcho {
        /// Acting process.
        process: ProcessId,
        /// Round.
        round: u64,
        /// Echoed value.
        value: u8,
    },
    /// The process bv-delivered a value (added it to `contestants`).
    BvDeliver {
        /// Acting process.
        process: ProcessId,
        /// Round.
        round: u64,
        /// Delivered value.
        value: u8,
        /// Whether this was the round's first delivery at this process.
        first: bool,
    },
    /// The process broadcast its `aux` message (Alg. 1 line 8).
    AuxBroadcast {
        /// Acting process.
        process: ProcessId,
        /// Round.
        round: u64,
        /// The `contestants` snapshot sent.
        values: ValueSet,
    },
    /// The process completed a round (Alg. 1 line 9 satisfied).
    RoundComplete {
        /// Acting process.
        process: ProcessId,
        /// Completed round.
        round: u64,
        /// The `qualifiers` set.
        qualifiers: ValueSet,
        /// The estimate carried into the next round.
        new_estimate: u8,
    },
    /// The process decided.
    Decide {
        /// Acting process.
        process: ProcessId,
        /// Round of the decision.
        round: u64,
        /// Decided value.
        value: u8,
    },
}

/// Per-round protocol state.
#[derive(Clone, Debug, Default)]
struct RoundState {
    /// Distinct senders of `(BV, v)` per value.
    bv_received: [HashSet<ProcessId>; 2],
    /// Whether `v` has been (re-)broadcast already (Fig. 1, line 4).
    bv_echoed: [bool; 2],
    /// The delivered values (`contestants`).
    contestants: ValueSet,
    /// Whether the `aux` message was broadcast (Alg. 1, line 8).
    aux_sent: bool,
    /// First `aux` message per sender, in arrival order (Alg. 1's
    /// `favorites`; arrival order resolves the existential choice of
    /// line 9 the way the paper's Lemma 7 proof does: the first `n−t`
    /// qualifying entries).
    favorites: Vec<(ProcessId, ValueSet)>,
}

impl RoundState {
    fn has_favorite_from(&self, q: ProcessId) -> bool {
        self.favorites.iter().any(|&(p, _)| p == q)
    }
}

/// A correct process running the DBFT binary consensus (the
/// coordinator-free, safe variant of Alg. 1), built over the
/// bv-broadcast of Fig. 1.
///
/// Rounds are numbered from 1; round `r` favours the value `r mod 2`
/// (matching the paper's figures, where the first round of a superround
/// decides 1). The process never stops participating: after deciding it
/// keeps helping others (Alg. 1 keeps looping; the decision is simply
/// recorded once).
#[derive(Clone, Debug)]
pub struct DbftProcess {
    id: ProcessId,
    n: usize,
    t: usize,
    est: u8,
    round: u64,
    decision: Option<Decision>,
    rounds: BTreeMap<u64, RoundState>,
    events: Vec<Event>,
}

impl DbftProcess {
    /// Creates a process with its proposal and starts round 1 (the
    /// initial bv-broadcast is produced immediately).
    ///
    /// # Panics
    ///
    /// Panics if `proposal > 1` or `n < 1`.
    pub fn new(id: ProcessId, n: usize, t: usize, proposal: u8) -> (DbftProcess, Vec<Envelope>) {
        assert!(proposal <= 1, "binary proposal");
        assert!(n >= 1);
        let mut p = DbftProcess {
            id,
            n,
            t,
            est: proposal,
            round: 1,
            decision: None,
            rounds: BTreeMap::new(),
            events: Vec::new(),
        };
        let out = p.start_round();
        (p, out)
    }

    /// The process id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The current round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The current estimate.
    pub fn estimate(&self) -> u8 {
        self.est
    }

    /// The decision, if any.
    pub fn decision(&self) -> Option<Decision> {
        self.decision
    }

    /// The values delivered (`contestants`) in the current round.
    pub fn contestants(&self) -> ValueSet {
        self.rounds
            .get(&self.round)
            .map(|s| s.contestants)
            .unwrap_or_default()
    }

    /// Drains the recorded events.
    pub fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    fn broadcast(&self, payload: Payload) -> Vec<Envelope> {
        (0..self.n)
            .map(|j| Envelope {
                from: self.id,
                to: ProcessId(j),
                payload,
            })
            .collect()
    }

    fn parity(round: u64) -> u8 {
        (round % 2) as u8
    }

    fn start_round(&mut self) -> Vec<Envelope> {
        // Fig. 1, line 2: the initial broadcast counts as "already
        // broadcast" for the not-yet-re-broadcast check of line 4.
        let est = self.est;
        self.rounds.entry(self.round).or_default().bv_echoed[est as usize] = true;
        self.events.push(Event::BvBroadcast {
            process: self.id,
            round: self.round,
            value: self.est,
        });
        let mut out = self.broadcast(Payload::Bv {
            round: self.round,
            value: self.est,
        });
        // Buffered messages for this round may already let us progress.
        out.extend(self.progress());
        out
    }

    /// Handles a received message, returning the messages it triggers.
    /// Messages for past rounds are discarded, messages for future
    /// rounds are buffered (communication closure, §2).
    pub fn handle(&mut self, from: ProcessId, payload: Payload) -> Vec<Envelope> {
        let round = payload.round();
        if round < self.round {
            return Vec::new();
        }
        let state = self.rounds.entry(round).or_default();
        match payload {
            Payload::Bv { value, .. } => {
                state.bv_received[value as usize].insert(from);
            }
            Payload::Aux { values, .. } => {
                if !state.has_favorite_from(from) && !values.is_empty() {
                    state.favorites.push((from, values));
                }
            }
        }
        if round == self.round {
            self.progress()
        } else {
            Vec::new()
        }
    }

    /// Runs the current round's guards to quiescence.
    fn progress(&mut self) -> Vec<Envelope> {
        let mut out = Vec::new();
        loop {
            let round = self.round;
            let t = self.t;
            let n = self.n;
            let state = self.rounds.entry(round).or_default();

            // Fig. 1, line 4: echo after t+1 distinct copies.
            let mut echoed_value = None;
            for v in 0..=1u8 {
                if !state.bv_echoed[v as usize] && state.bv_received[v as usize].len() > t {
                    state.bv_echoed[v as usize] = true;
                    echoed_value = Some(v);
                    break;
                }
            }
            if let Some(v) = echoed_value {
                self.events.push(Event::BvEcho {
                    process: self.id,
                    round,
                    value: v,
                });
                out.extend(self.broadcast(Payload::Bv { round, value: v }));
                continue; // self-delivery of the echo arrives via the network
            }

            // Fig. 1, line 6: deliver after 2t+1 distinct copies.
            let mut delivered = None;
            for v in 0..=1u8 {
                if !state.contestants.contains(v) && state.bv_received[v as usize].len() > 2 * t {
                    let first = state.contestants.is_empty();
                    state.contestants.insert(v);
                    delivered = Some((v, first));
                    break;
                }
            }
            if let Some((v, first)) = delivered {
                self.events.push(Event::BvDeliver {
                    process: self.id,
                    round,
                    value: v,
                    first,
                });
                continue;
            }

            // Alg. 1, lines 7–8: once contestants ≠ ∅, broadcast aux.
            if !state.aux_sent && !state.contestants.is_empty() {
                state.aux_sent = true;
                let snapshot = state.contestants;
                self.events.push(Event::AuxBroadcast {
                    process: self.id,
                    round,
                    values: snapshot,
                });
                out.extend(self.broadcast(Payload::Aux {
                    round,
                    values: snapshot,
                }));
                continue;
            }

            // Alg. 1, line 9: n−t aux messages whose union of values is
            // contained in contestants. We take the first n−t qualifying
            // senders in arrival order.
            if state.aux_sent {
                let contestants = state.contestants;
                let qualifying: Vec<ValueSet> = state
                    .favorites
                    .iter()
                    .filter(|(_, vs)| vs.subset_of(&contestants))
                    .map(|&(_, vs)| vs)
                    .take(n - t)
                    .collect();
                if qualifying.len() >= n - t {
                    let qualifiers = qualifying
                        .iter()
                        .fold(ValueSet::empty(), |acc, vs| acc.union(vs));
                    out.extend(self.complete_round(qualifiers));
                    continue;
                }
            }
            break;
        }
        out
    }

    /// Alg. 1, lines 10–14.
    fn complete_round(&mut self, qualifiers: ValueSet) -> Vec<Envelope> {
        let round = self.round;
        let parity = Self::parity(round);
        match qualifiers.as_singleton() {
            Some(v) => {
                self.est = v;
                if v == parity && self.decision.is_none() {
                    self.decision = Some(Decision { value: v, round });
                    self.events.push(Event::Decide {
                        process: self.id,
                        round,
                        value: v,
                    });
                }
            }
            None => {
                // qualifiers = {0, 1}: adopt the round's parity.
                self.est = parity;
            }
        }
        self.events.push(Event::RoundComplete {
            process: self.id,
            round,
            qualifiers,
            new_estimate: self.est,
        });
        self.rounds.remove(&round);
        self.round += 1;
        self.start_round()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Delivers every envelope among a set of correct processes (no
    /// Byzantine) in FIFO order — a fair schedule — until everyone
    /// decided or `max` deliveries. (LIFO would be an *unfair* schedule:
    /// three processes can run ahead forever while the fourth starves,
    /// which is legitimate asynchrony but not what these tests probe.)
    fn run_synchronously(processes: &mut [DbftProcess], pending: Vec<Envelope>, max: usize) {
        let mut queue: std::collections::VecDeque<Envelope> = pending.into();
        let mut steps = 0;
        while let Some(env) = queue.pop_front() {
            steps += 1;
            if steps > max {
                panic!("not decided after {max} deliveries");
            }
            let p = &mut processes[env.to.0];
            queue.extend(p.handle(env.from, env.payload));
            // Stop once everyone decided (processes keep helping, so the
            // message flow never quiesces by itself).
            if processes.iter().all(|p| p.decision().is_some()) {
                break;
            }
        }
    }

    fn spawn(n: usize, t: usize, proposals: &[u8]) -> (Vec<DbftProcess>, Vec<Envelope>) {
        let mut ps = Vec::new();
        let mut pending = Vec::new();
        for (i, &v) in proposals.iter().enumerate() {
            let (p, out) = DbftProcess::new(ProcessId(i), n, t, v);
            ps.push(p);
            pending.extend(out);
        }
        (ps, pending)
    }

    #[test]
    fn unanimous_zero_decides_zero() {
        // n = 4, t = 1, all correct, everyone proposes 0. Round 1
        // (parity 1) sets est to 0; round 2 (parity 0) decides 0.
        let (mut ps, pending) = spawn(4, 1, &[0, 0, 0, 0]);
        run_synchronously(&mut ps, pending, 100_000);
        for p in &ps {
            let d = p.decision().expect("decided");
            assert_eq!(d.value, 0);
            assert_eq!(d.round, 2);
        }
    }

    #[test]
    fn unanimous_one_decides_one_in_round_one() {
        let (mut ps, pending) = spawn(4, 1, &[1, 1, 1, 1]);
        run_synchronously(&mut ps, pending, 100_000);
        for p in &ps {
            let d = p.decision().expect("decided");
            assert_eq!(d.value, 1);
            assert_eq!(d.round, 1);
        }
    }

    #[test]
    fn mixed_proposals_agree() {
        let (mut ps, pending) = spawn(4, 1, &[0, 1, 0, 1]);
        run_synchronously(&mut ps, pending, 200_000);
        let decided: Vec<u8> = ps.iter().map(|p| p.decision().unwrap().value).collect();
        assert!(decided.windows(2).all(|w| w[0] == w[1]), "{decided:?}");
    }

    #[test]
    fn echo_happens_once_per_value() {
        let (mut ps, _) = spawn(4, 1, &[0, 0, 0, 0]);
        // Feed p0 the value 1 from t+1 = 2 distinct senders.
        let out1 = ps[0].handle(ProcessId(1), Payload::Bv { round: 1, value: 1 });
        assert!(out1.is_empty(), "one copy is not enough to echo");
        let out2 = ps[0].handle(ProcessId(2), Payload::Bv { round: 1, value: 1 });
        assert_eq!(out2.len(), 4, "echo broadcast to all");
        // A third copy triggers delivery (and hence the aux broadcast)
        // but no second echo of the same value.
        let out3 = ps[0].handle(ProcessId(3), Payload::Bv { round: 1, value: 1 });
        assert!(
            out3.iter()
                .all(|e| matches!(e.payload, Payload::Aux { .. })),
            "{out3:?}"
        );
    }

    #[test]
    fn delivery_needs_2t_plus_1() {
        let (mut ps, _) = spawn(4, 1, &[0, 0, 0, 0]);
        ps[0].handle(ProcessId(1), Payload::Bv { round: 1, value: 1 });
        ps[0].handle(ProcessId(2), Payload::Bv { round: 1, value: 1 });
        assert!(ps[0].contestants().is_empty());
        // The echo from p0 itself arrives (self-delivery via network).
        ps[0].handle(ProcessId(0), Payload::Bv { round: 1, value: 1 });
        assert!(ps[0].contestants().contains(1), "3 = 2t+1 distinct senders");
    }

    #[test]
    fn past_round_messages_are_discarded() {
        let (mut ps, pending) = spawn(4, 1, &[1, 1, 1, 1]);
        run_synchronously(&mut ps, pending, 100_000);
        let r = ps[0].round();
        let out = ps[0].handle(ProcessId(1), Payload::Bv { round: 1, value: 0 });
        assert!(out.is_empty());
        assert_eq!(ps[0].round(), r);
    }

    #[test]
    fn future_round_messages_are_buffered() {
        let (mut ps, _) = spawn(4, 1, &[0, 0, 0, 0]);
        // Messages for round 7 arrive early: no visible effect yet.
        for s in 1..4 {
            let out = ps[0].handle(ProcessId(s), Payload::Bv { round: 7, value: 1 });
            assert!(out.is_empty());
        }
        assert_eq!(ps[0].round(), 1);
    }

    #[test]
    fn aux_snapshot_is_first_delivery() {
        let (mut ps, _) = spawn(4, 1, &[0, 0, 0, 0]);
        for s in 1..4 {
            ps[0].handle(ProcessId(s), Payload::Bv { round: 1, value: 1 });
        }
        let events = ps[0].take_events();
        let aux = events
            .iter()
            .find_map(|e| match e {
                Event::AuxBroadcast { values, .. } => Some(*values),
                _ => None,
            })
            .expect("aux sent");
        assert_eq!(aux, ValueSet::singleton(1));
    }
}
