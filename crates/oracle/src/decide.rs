//! Deciding classified queries by exhaustive explicit-state search.
//!
//! For one concrete valuation the counter system of an increment-only
//! DAG automaton is finite: each process moves at most `|L|` times, so
//! shared variables are bounded by the total number of increments. The
//! oracle explores it breadth-first with a visited set and decides the
//! checker's [`Query`] shapes directly:
//!
//! * **safety** — a violation is a finite run from an
//!   `initially`-satisfying initial configuration that keeps every
//!   `globally_empty` location empty and realises every witness
//!   proposition somewhere. The BFS runs over product states
//!   `(configuration, witness bitmask)`.
//! * **liveness** — with DAG shape and increment-only updates every
//!   infinite run stabilises in some configuration, and stuttering
//!   there forever is *fair* exactly when the justice proposition holds
//!   of it. A fair violation is therefore a reachable configuration
//!   satisfying both the violating tail and the justice proposition —
//!   the same reduction the symbolic checker applies
//!   ([`replay_counterexample`](crate::replay::replay_counterexample)
//!   checks it on every replayed run), evaluated here by brute force.
//!
//! A state budget keeps hostile inputs (mutants with huge lattices,
//! the naive consensus automaton) from running away; exhausting it
//! yields an honest [`OracleVerdict::Unknown`], never a verdict.
//!
//! ## State layout
//!
//! The search is the oracle's hot loop: the benchmark's twelve Table-2
//! cells at six valuations each store 592,047 product states, two
//! naive-consensus cells most of them. Each product state is therefore
//! stored exactly once, as a fixed-width row `[counters | shared |
//! mask]` of one flat `Vec<i64>` arena, with a `Vec<u32>` of parent rows
//! for witness traces. The visited set is an open-addressing table of
//! `u32` row numbers, hashed with an Fx-style multiply-rotate over the
//! row's words and compared against the arena in place, so a lookup
//! neither builds a key nor hashes with SipHash. Expansion unpacks the
//! head row into one scratch [`Config`] and builds each successor in a
//! second, in place (`ConcreteSystem::step`), because
//! [`Prop::eval`] is defined over a `Config`; nothing is allocated per
//! state beyond the row itself. Row numbers are `u32`, which bounds a
//! search to about four billion states, far beyond what fits in memory.
//! Fx is not collision-resistant: an automaton crafted to collide it
//! slows the search, but cannot change its result, and the state budget
//! still bounds it.
//!
//! The search order is part of the contract: roots in enumeration
//! order, successors in rule order, the first path to a state kept and
//! the budget checked before each new state is stored. State counts,
//! verdicts and witness traces depend on nothing else
//! (`tests/oracle_search.rs` pins them against a plain `HashMap` BFS).

use holistic_ltl::{classify, FragmentError, Justice, Ltl, Prop, Query};
use holistic_ta::{Config, LocationId, ThresholdAutomaton};

use crate::concrete::{ConcreteError, ConcreteSystem};

/// Errors that prevent the oracle from deciding a spec at all.
#[derive(Clone, Debug)]
pub enum OracleError {
    /// The spec falls outside the checkable fragment.
    Fragment(FragmentError),
    /// The valuation is inadmissible for the automaton.
    Concrete(ConcreteError),
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::Fragment(e) => write!(f, "fragment: {e:?}"),
            OracleError::Concrete(e) => write!(f, "concrete semantics: {e}"),
        }
    }
}

impl std::error::Error for OracleError {}

/// A concrete violating run found by the oracle.
#[derive(Clone, Debug)]
pub struct OracleWitness {
    /// `"safety"` or `"liveness"`.
    pub kind: &'static str,
    /// The run, from an initial configuration to the violation point
    /// (for liveness, the configuration the run fairly stalls in).
    pub trace: Vec<Config>,
}

/// The oracle's verdict for one query at one valuation.
#[derive(Clone, Debug)]
pub enum OracleVerdict {
    /// Exhaustive exploration found no violating run.
    Holds,
    /// A concrete violating run exists.
    Violated(OracleWitness),
    /// The oracle could not decide (budget exhausted, or the
    /// stabilisation argument is unavailable on a non-DAG automaton).
    Unknown(String),
}

impl OracleVerdict {
    /// Whether this is a definite verdict (`Holds` or `Violated`).
    pub fn is_definite(&self) -> bool {
        !matches!(self, OracleVerdict::Unknown(_))
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            OracleVerdict::Holds => "holds",
            OracleVerdict::Violated(_) => "violated",
            OracleVerdict::Unknown(_) => "unknown",
        }
    }
}

/// One decided query, with exploration statistics.
#[derive(Clone, Debug)]
pub struct OracleDecision {
    /// The verdict.
    pub verdict: OracleVerdict,
    /// Product states explored.
    pub states: usize,
}

fn all_empty(config: &Config, locs: &[LocationId]) -> bool {
    locs.iter().all(|&l| config.counters[l.0] == 0)
}

/// Parent of a root state, and the empty slot of the index table.
const NONE: u32 = u32::MAX;

/// Multiplier of the Fx hash (the one rustc uses for its own tables).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Folds `words` into an Fx-style multiply-rotate hash.
fn fx(mut h: u64, words: &[i64]) -> u64 {
    for &w in words {
        h = (h.rotate_left(5) ^ w as u64).wrapping_mul(FX_SEED);
    }
    h
}

/// The hash of the product state `(config, mask)`: the same fold as
/// over its packed row, so rows rehash without unpacking.
fn state_hash(config: &Config, mask: u32) -> u64 {
    fx(
        fx(fx(0, &config.counters), &config.shared),
        &[i64::from(mask)],
    )
}

/// Every product state seen so far, each stored once: row `i` of
/// `rows` is `[counters | shared | mask]`, `parent[i]` the row it was
/// first reached from, and `slots` an open-addressing (linear probing)
/// table of row numbers keyed by row contents.
struct StateStore {
    locations: usize,
    width: usize,
    rows: Vec<i64>,
    parent: Vec<u32>,
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: slots are indexed by the hash's top
    /// bits, which the Fx multiply mixes best.
    shift: u32,
}

impl StateStore {
    fn new(locations: usize, variables: usize) -> StateStore {
        const INITIAL_SLOTS: usize = 1024;
        StateStore {
            locations,
            width: locations + variables + 1,
            rows: Vec::new(),
            parent: Vec::new(),
            slots: vec![NONE; INITIAL_SLOTS],
            shift: 64 - INITIAL_SLOTS.trailing_zeros(),
        }
    }

    fn len(&self) -> usize {
        self.parent.len()
    }

    fn row(&self, i: usize) -> &[i64] {
        &self.rows[i * self.width..(i + 1) * self.width]
    }

    /// Row `i` as `(counters, shared, mask)`.
    fn state(&self, i: usize) -> (&[i64], &[i64], u32) {
        let (counters, rest) = self.row(i).split_at(self.locations);
        let (shared, mask) = rest.split_at(rest.len() - 1);
        (counters, shared, mask[0] as u32)
    }

    fn matches(&self, i: usize, config: &Config, mask: u32) -> bool {
        let (counters, shared, m) = self.state(i);
        m == mask && counters == config.counters && shared == config.shared
    }

    /// The empty slot `(config, mask)` belongs in, or `None` when it is
    /// already stored.
    fn vacancy(&self, hash: u64, config: &Config, mask: u32) -> Option<usize> {
        let wrap = self.slots.len() - 1;
        let mut s = (hash >> self.shift) as usize;
        loop {
            match self.slots[s] {
                NONE => return Some(s),
                i if self.matches(i as usize, config, mask) => return None,
                _ => s = (s + 1) & wrap,
            }
        }
    }

    /// Stores a new state in `slot` (from [`vacancy`](Self::vacancy)).
    fn insert(&mut self, slot: usize, config: &Config, mask: u32, parent: u32) {
        let i = u32::try_from(self.len())
            .ok()
            .filter(|&i| i != NONE)
            .expect("product-state count fits in u32");
        self.slots[slot] = i;
        self.rows.extend_from_slice(&config.counters);
        self.rows.extend_from_slice(&config.shared);
        self.rows.push(i64::from(mask));
        self.parent.push(parent);
        // Keep the load at most one half.
        if 2 * self.len() > self.slots.len() {
            self.grow();
        }
    }

    fn grow(&mut self) {
        let size = 2 * self.slots.len();
        self.slots = vec![NONE; size];
        self.shift -= 1;
        let wrap = size - 1;
        for i in 0..self.len() {
            let mut s = (fx(0, self.row(i)) >> self.shift) as usize;
            while self.slots[s] != NONE {
                s = (s + 1) & wrap;
            }
            self.slots[s] = i as u32;
        }
    }

    /// Unpacks row `i` into `config` and returns its mask.
    fn load(&self, i: usize, config: &mut Config) -> u32 {
        let (counters, shared, mask) = self.state(i);
        config.counters.copy_from_slice(counters);
        config.shared.copy_from_slice(shared);
        mask
    }

    /// The configurations from a root to row `end`.
    fn trace_back(&self, end: usize) -> Vec<Config> {
        let mut trace = Vec::new();
        let mut i = end;
        loop {
            let (counters, shared, _) = self.state(i);
            trace.push(Config {
                counters: counters.to_vec(),
                shared: shared.to_vec(),
            });
            if self.parent[i] == NONE {
                break;
            }
            i = self.parent[i] as usize;
        }
        trace.reverse();
        trace
    }
}

/// Exhaustive BFS over `(configuration, witness-mask)` product states.
///
/// `witnesses` is empty for liveness (mask stays 0).
struct Search<'a> {
    sys: &'a ConcreteSystem<'a>,
    globally_empty: &'a [LocationId],
    witnesses: &'a [Prop],
    max_states: usize,
}

impl Search<'_> {
    fn witness_mask(&self, config: &Config, prev: u32) -> u32 {
        let mut mask = prev;
        for (i, w) in self.witnesses.iter().enumerate() {
            if mask & (1 << i) == 0 && w.eval(config, self.sys.params()) {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Runs the search; `accept(config, mask)` flags a violation.
    /// Returns the witness trace on violation, `Ok(None)` when the
    /// whole space was exhausted without one, and `Err(())` when the
    /// budget ran out first, each with the number of states stored.
    fn run(
        &self,
        roots: Vec<Config>,
        accept: impl Fn(&Config, u32) -> bool,
    ) -> (Result<Option<Vec<Config>>, ()>, usize) {
        let ta = self.sys.ta();
        let mut store = StateStore::new(ta.locations.len(), ta.variables.len());
        for root in &roots {
            if !all_empty(root, self.globally_empty) {
                continue;
            }
            let mask = self.witness_mask(root, 0);
            if let Some(slot) = store.vacancy(state_hash(root, mask), root, mask) {
                store.insert(slot, root, mask, NONE);
            }
        }
        // Two scratch configurations: the state being expanded and the
        // successor being built from it.
        let mut config = Config {
            counters: vec![0; ta.locations.len()],
            shared: vec![0; ta.variables.len()],
        };
        let mut succ = config.clone();
        let mut head = 0;
        while head < store.len() {
            let mask = store.load(head, &mut config);
            if accept(&config, mask) {
                return (Ok(Some(store.trace_back(head))), head + 1);
            }
            for &r in self.sys.proper_rules() {
                if !self.sys.is_enabled(&config, r) {
                    continue;
                }
                succ.clone_from(&config);
                self.sys.step(&mut succ, r);
                if !all_empty(&succ, self.globally_empty) {
                    continue;
                }
                let mask = self.witness_mask(&succ, mask);
                let Some(slot) = store.vacancy(state_hash(&succ, mask), &succ, mask) else {
                    continue;
                };
                if store.len() >= self.max_states {
                    return (Err(()), store.len());
                }
                store.insert(slot, &succ, mask, head as u32);
            }
            head += 1;
        }
        (Ok(None), store.len())
    }
}

/// Decides one classified query at one concrete valuation.
///
/// # Errors
///
/// [`ConcreteError`] when the valuation is inadmissible.
pub fn decide_query(
    ta: &ThresholdAutomaton,
    query: &Query,
    justice: &Justice,
    params: &[i64],
    max_states: usize,
) -> Result<OracleDecision, ConcreteError> {
    let sys = ConcreteSystem::new(ta, params)?;
    match query {
        Query::Safety {
            globally_empty,
            initially,
            witnesses,
        } => {
            let full: u32 = if witnesses.len() >= 32 {
                return Ok(OracleDecision {
                    verdict: OracleVerdict::Unknown("more than 31 witnesses".to_owned()),
                    states: 0,
                });
            } else {
                (1u32 << witnesses.len()) - 1
            };
            let search = Search {
                sys: &sys,
                globally_empty,
                witnesses,
                max_states,
            };
            let roots = sys
                .initial_configs()
                .into_iter()
                .filter(|c| initially.eval(c, params))
                .collect();
            let (found, states) = search.run(roots, |_, mask| mask == full);
            Ok(OracleDecision {
                verdict: match found {
                    Ok(Some(trace)) => OracleVerdict::Violated(OracleWitness {
                        kind: "safety",
                        trace,
                    }),
                    Ok(None) => OracleVerdict::Holds,
                    Err(()) => OracleVerdict::Unknown(format!(
                        "state budget ({max_states}) exhausted after {states} states"
                    )),
                },
                states,
            })
        }
        Query::Liveness {
            globally_empty,
            initially,
            tail,
        } => {
            if ta.topological_locations().is_none() {
                return Ok(OracleDecision {
                    verdict: OracleVerdict::Unknown(
                        "not a DAG: the stabilisation reduction does not apply".to_owned(),
                    ),
                    states: 0,
                });
            }
            let fair_stall = justice.as_prop();
            let search = Search {
                sys: &sys,
                globally_empty,
                witnesses: &[],
                max_states,
            };
            let roots = sys
                .initial_configs()
                .into_iter()
                .filter(|c| initially.eval(c, params))
                .collect();
            let (found, states) = search.run(roots, |config, _| {
                tail.eval(config, params) && fair_stall.eval(config, params)
            });
            Ok(OracleDecision {
                verdict: match found {
                    Ok(Some(trace)) => OracleVerdict::Violated(OracleWitness {
                        kind: "liveness",
                        trace,
                    }),
                    Ok(None) => OracleVerdict::Holds,
                    Err(()) => OracleVerdict::Unknown(format!(
                        "state budget ({max_states}) exhausted after {states} states"
                    )),
                },
                states,
            })
        }
    }
}

/// Decides every query of an LTL spec at one valuation (classification
/// order matches the checker's report order).
///
/// # Errors
///
/// [`OracleError`] when the spec is outside the fragment or the
/// valuation is inadmissible.
pub fn decide_spec(
    ta: &ThresholdAutomaton,
    spec: &Ltl,
    justice: &Justice,
    params: &[i64],
    max_states: usize,
) -> Result<Vec<OracleDecision>, OracleError> {
    let queries = classify(ta, spec).map_err(OracleError::Fragment)?;
    queries
        .iter()
        .map(|q| decide_query(ta, q, justice, params, max_states).map_err(OracleError::Concrete))
        .collect()
}

/// Folds per-query verdicts into one, `Violated` dominating, then
/// `Unknown`, then `Holds` — mirroring
/// [`CheckReport::verdict`](holistic_checker::CheckReport::verdict).
pub fn combined_verdict(decisions: &[OracleDecision]) -> OracleVerdict {
    for d in decisions {
        if let OracleVerdict::Violated(_) = &d.verdict {
            return d.verdict.clone();
        }
    }
    for d in decisions {
        if let OracleVerdict::Unknown(_) = &d.verdict {
            return d.verdict.clone();
        }
    }
    OracleVerdict::Holds
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_ltl::Prop;
    use holistic_ta::{Guard, TaBuilder};

    fn reach() -> ThresholdAutomaton {
        let mut b = TaBuilder::new("reach");
        let n = b.param("n");
        let f = b.param("f");
        b.resilience_gt(n, f, 1);
        b.resilience_ge_const(f, 0);
        b.size_n_minus_f(n, f);
        let x = b.shared("x");
        let v = b.initial_location("V");
        let d = b.final_location("D");
        b.rule("r1", v, d, Guard::always()).inc(x, 1);
        b.self_loop(d);
        b.build().unwrap()
    }

    #[test]
    fn safety_violation_found_with_trace() {
        let ta = reach();
        let d = ta.location_by_name("D").unwrap();
        let spec = Ltl::always(Ltl::state(Prop::loc_empty(d)));
        let justice = Justice::from_rules(&ta);
        let decisions = decide_spec(&ta, &spec, &justice, &[3, 0], 10_000).unwrap();
        assert_eq!(decisions.len(), 1);
        match &decisions[0].verdict {
            OracleVerdict::Violated(w) => {
                assert_eq!(w.kind, "safety");
                assert!(w.trace.len() >= 2);
                // The trace really ends with D populated.
                assert!(w.trace.last().unwrap().counters[d.0] >= 1);
            }
            v => panic!("expected violation, got {v:?}"),
        }
    }

    #[test]
    fn liveness_holds_under_justice() {
        // Every process must eventually reach D: justice drains V.
        let ta = reach();
        let d = ta.location_by_name("D").unwrap();
        let v = ta.location_by_name("V").unwrap();
        let spec = Ltl::eventually(Ltl::state(Prop::and(vec![
            Prop::loc_empty(v),
            Prop::loc_nonempty(d),
        ])));
        let justice = Justice::from_rules(&ta);
        let decisions = decide_spec(&ta, &spec, &justice, &[3, 0], 10_000).unwrap();
        assert!(
            matches!(decisions[0].verdict, OracleVerdict::Holds),
            "{:?}",
            decisions[0].verdict
        );
        // Without justice, stalling in V forever is fair: violated.
        let decisions = decide_spec(&ta, &spec, &Justice::none(), &[3, 0], 10_000).unwrap();
        assert!(matches!(
            decisions[0].verdict,
            OracleVerdict::Violated(ref w) if w.kind == "liveness"
        ));
    }

    #[test]
    fn budget_exhaustion_is_unknown() {
        // "Some location is always populated" holds (9 processes exist),
        // so the search must exhaust the space — which the tiny budget
        // forbids: honest Unknown, not Holds.
        let ta = reach();
        let d = ta.location_by_name("D").unwrap();
        let v = ta.location_by_name("V").unwrap();
        let spec = Ltl::always(Ltl::state(Prop::or(vec![
            Prop::loc_nonempty(v),
            Prop::loc_nonempty(d),
        ])));
        let justice = Justice::from_rules(&ta);
        let decisions = decide_spec(&ta, &spec, &justice, &[9, 0], 2).unwrap();
        assert!(
            matches!(decisions[0].verdict, OracleVerdict::Unknown(_)),
            "{:?}",
            decisions[0].verdict
        );
        // With an adequate budget the same query exhausts and holds.
        let decisions = decide_spec(&ta, &spec, &justice, &[9, 0], 10_000).unwrap();
        assert!(matches!(decisions[0].verdict, OracleVerdict::Holds));
    }

    #[test]
    fn budget_of_exactly_the_explored_states_suffices() {
        let ta = reach();
        let d = ta.location_by_name("D").unwrap();
        let v = ta.location_by_name("V").unwrap();
        let spec = Ltl::always(Ltl::state(Prop::or(vec![
            Prop::loc_nonempty(v),
            Prop::loc_nonempty(d),
        ])));
        let justice = Justice::from_rules(&ta);
        let decide = |max_states| decide_spec(&ta, &spec, &justice, &[9, 0], max_states).unwrap();
        let exhaustive = decide(10_000);
        assert!(matches!(exhaustive[0].verdict, OracleVerdict::Holds));
        // One root (all nine processes in V) and nine D-moves.
        let n = exhaustive[0].states;
        assert_eq!(n, 10);
        let at = decide(n);
        assert!(matches!(at[0].verdict, OracleVerdict::Holds));
        assert_eq!(at[0].states, n);
        let below = decide(n - 1);
        assert!(matches!(below[0].verdict, OracleVerdict::Unknown(_)));
        assert_eq!(below[0].states, n - 1);
    }
}
