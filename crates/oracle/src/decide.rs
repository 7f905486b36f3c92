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
//! naive-consensus cells most of them, and simplified-consensus
//! `Inv1_0` alone stores 3,556,334 at `(7, 2, 0)`. Each product state
//! is therefore stored exactly once, as a fixed-width row `[counters |
//! shared | mask]` of one flat arena, with a `Vec<u32>` of parent rows
//! for witness traces.
//!
//! A row is bytes: one `u8` per counter and shared variable, and four
//! for the `u32` witness mask. Counters are at most the process count
//! and shared variables sums of increments, so every value fits in a
//! byte on every valuation the Table-2 cells are decided at (parameters
//! `<= 4`, and `(7, 2, f)`). Each successor is packed once into a
//! scratch row; the visited set is an open-addressing table of `u32`
//! row numbers, hashed with an Fx-style multiply-rotate over the packed
//! bytes eight at a time and compared against the arena in place with a
//! slice `==`, so a lookup neither builds a key nor hashes with
//! SipHash. Expansion unpacks the head row into one scratch [`Config`]
//! and builds each successor in a second, in place
//! (`ConcreteSystem::step`), because [`Prop::eval`] is defined over a
//! `Config`; nothing is allocated per state beyond the row itself.
//!
//! The first value outside `0..=255` (a root with more than 255
//! processes in one location, or a rule cycle that keeps incrementing a
//! shared variable) stops the byte search. Its rows are copied into an
//! `i64` arena, same order, same parents, the slot table is rebuilt for
//! the new hashes, and the search resumes at the root it was storing or
//! the head it was expanding. Resuming there is exact: every state
//! stored so far is still stored, and the successors of that head that
//! were stored before the stop are found again when it is expanded
//! anew, so they are skipped just as a revisited state is, and the next
//! new state is checked against the budget and stored exactly where an
//! `i64` search would store it.
//!
//! Row numbers are `u32`, which bounds a search to about four billion
//! states, far beyond what fits in memory. Fx is not
//! collision-resistant: an automaton crafted to collide it slows the
//! search, but cannot change its result, and the state budget still
//! bounds it.
//!
//! The search order is part of the contract: roots in enumeration
//! order, successors in rule order, the first path to a state kept and
//! the budget checked before each new state is stored. State counts,
//! verdicts and witness traces depend on nothing else, so they are the
//! same whatever width the rows have (`tests/oracle_search.rs` pins
//! them against a plain `HashMap` BFS, across the widening too).

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
    /// The oracle could not decide, and why.
    Unknown(OracleUnknownReason),
}

/// Why the oracle returned [`OracleVerdict::Unknown`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OracleUnknownReason {
    /// A safety query has more witnesses than the 31-bit witness mask
    /// holds.
    TooManyWitnesses,
    /// A liveness query on a non-DAG automaton, where the stabilisation
    /// reduction does not apply.
    NotDag,
    /// The state budget ran out before the search finished.
    StateBudget {
        /// The budget.
        max_states: usize,
        /// Product states explored.
        states: usize,
    },
}

impl std::fmt::Display for OracleUnknownReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleUnknownReason::TooManyWitnesses => write!(f, "more than 31 witnesses"),
            OracleUnknownReason::NotDag => {
                write!(f, "not a DAG: the stabilisation reduction does not apply")
            }
            OracleUnknownReason::StateBudget { max_states, states } => write!(
                f,
                "state budget ({max_states}) exhausted after {states} states"
            ),
        }
    }
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

/// One round of the Fx-style multiply-rotate hash.
fn fx(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// The word type of a [`StateStore`]'s rows: `u8` while every value
/// fits in a byte, `i64` once one does not.
trait Word: Copy + Default + Eq {
    /// Words the `u32` witness mask takes at the end of a row.
    const MASK_WORDS: usize;

    /// `v` as a word, or `None` when it does not fit.
    fn narrow(v: i64) -> Option<Self>;

    /// The word's value.
    fn wide(self) -> i64;

    /// Writes `mask` into its [`MASK_WORDS`](Self::MASK_WORDS) words.
    fn put_mask(mask: u32, words: &mut [Self]);

    /// Reads back a mask written by [`put_mask`](Self::put_mask).
    fn get_mask(words: &[Self]) -> u32;

    /// The Fx hash of a row.
    fn hash(row: &[Self]) -> u64;
}

impl Word for u8 {
    const MASK_WORDS: usize = 4;

    fn narrow(v: i64) -> Option<u8> {
        u8::try_from(v).ok()
    }

    fn wide(self) -> i64 {
        i64::from(self)
    }

    fn put_mask(mask: u32, words: &mut [u8]) {
        words.copy_from_slice(&mask.to_le_bytes());
    }

    fn get_mask(words: &[u8]) -> u32 {
        u32::from_le_bytes(words.try_into().expect("a mask is four bytes"))
    }

    /// Eight bytes per round. The last chunk is zero-padded, which is
    /// unambiguous because all rows of a store have one width.
    fn hash(row: &[u8]) -> u64 {
        let mut chunks = row.chunks_exact(8);
        let h = chunks.by_ref().fold(0, |h, c| {
            fx(h, u64::from_le_bytes(c.try_into().expect("eight bytes")))
        });
        let rest = chunks.remainder();
        if rest.is_empty() {
            return h;
        }
        let mut last = [0; 8];
        last[..rest.len()].copy_from_slice(rest);
        fx(h, u64::from_le_bytes(last))
    }
}

impl Word for i64 {
    const MASK_WORDS: usize = 1;

    fn narrow(v: i64) -> Option<i64> {
        Some(v)
    }

    fn wide(self) -> i64 {
        self
    }

    fn put_mask(mask: u32, words: &mut [i64]) {
        words[0] = i64::from(mask);
    }

    fn get_mask(words: &[i64]) -> u32 {
        words[0] as u32
    }

    fn hash(row: &[i64]) -> u64 {
        row.iter().fold(0, |h, &w| fx(h, w as u64))
    }
}

/// Narrows `values` into `words`; `false` at the first value that does
/// not fit (the words written so far are garbage then).
fn narrow_into<W: Word>(words: &mut [W], values: &[i64]) -> bool {
    for (w, &v) in words.iter_mut().zip(values) {
        let Some(narrow) = W::narrow(v) else {
            return false;
        };
        *w = narrow;
    }
    true
}

/// Every product state seen so far, each stored once: row `i` of
/// `rows` is `[counters | shared | mask]`, `parent[i]` the row it was
/// first reached from, and `slots` an open-addressing (linear probing)
/// table of row numbers keyed by row contents.
struct StateStore<W> {
    locations: usize,
    width: usize,
    rows: Vec<W>,
    parent: Vec<u32>,
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: slots are indexed by the hash's top
    /// bits, which the Fx multiply mixes best.
    shift: u32,
}

impl<W: Word> StateStore<W> {
    fn new(locations: usize, variables: usize) -> StateStore<W> {
        const INITIAL_SLOTS: usize = 1024;
        let mut store = StateStore {
            locations,
            width: locations + variables + W::MASK_WORDS,
            rows: Vec::new(),
            parent: Vec::new(),
            slots: Vec::new(),
            shift: 0,
        };
        store.index(INITIAL_SLOTS);
        store
    }

    fn len(&self) -> usize {
        self.parent.len()
    }

    fn row(&self, i: usize) -> &[W] {
        &self.rows[i * self.width..(i + 1) * self.width]
    }

    /// Row `i` as `(counters, shared, mask)`.
    fn state(&self, i: usize) -> (&[W], &[W], u32) {
        let (counters, rest) = self.row(i).split_at(self.locations);
        let (shared, mask) = rest.split_at(rest.len() - W::MASK_WORDS);
        (counters, shared, W::get_mask(mask))
    }

    /// Packs `(config, mask)` into the scratch `row`; `false` when a
    /// value does not fit in a `W`.
    fn pack(&self, config: &Config, mask: u32, row: &mut [W]) -> bool {
        let (counters, rest) = row.split_at_mut(self.locations);
        let (shared, mask_words) = rest.split_at_mut(rest.len() - W::MASK_WORDS);
        if !(narrow_into(counters, &config.counters) && narrow_into(shared, &config.shared)) {
            return false;
        }
        W::put_mask(mask, mask_words);
        true
    }

    /// The empty slot the packed `row` belongs in, or `None` when it is
    /// already stored.
    fn vacancy(&self, row: &[W]) -> Option<usize> {
        let wrap = self.slots.len() - 1;
        let mut s = (W::hash(row) >> self.shift) as usize;
        loop {
            match self.slots[s] {
                NONE => return Some(s),
                i if self.row(i as usize) == row => return None,
                _ => s = (s + 1) & wrap,
            }
        }
    }

    /// Stores a new packed row in `slot` (from
    /// [`vacancy`](Self::vacancy)).
    fn insert(&mut self, slot: usize, row: &[W], parent: u32) {
        let i = u32::try_from(self.len())
            .ok()
            .filter(|&i| i != NONE)
            .expect("product-state count fits in u32");
        self.slots[slot] = i;
        self.rows.extend_from_slice(row);
        self.parent.push(parent);
        // Keep the load at most one half.
        if 2 * self.len() > self.slots.len() {
            self.index(2 * self.slots.len());
        }
    }

    /// Rebuilds the slot table with `size` slots, a power of two.
    fn index(&mut self, size: usize) {
        self.slots = vec![NONE; size];
        self.shift = 64 - size.trailing_zeros();
        let wrap = size - 1;
        for i in 0..self.len() {
            let mut s = (W::hash(self.row(i)) >> self.shift) as usize;
            while self.slots[s] != NONE {
                s = (s + 1) & wrap;
            }
            self.slots[s] = i as u32;
        }
    }

    /// Unpacks row `i` into `config` and returns its mask.
    fn load(&self, i: usize, config: &mut Config) -> u32 {
        let (counters, shared, mask) = self.state(i);
        for (c, w) in config.counters.iter_mut().zip(counters) {
            *c = w.wide();
        }
        for (s, w) in config.shared.iter_mut().zip(shared) {
            *s = w.wide();
        }
        mask
    }

    /// The configurations from a root to row `end`.
    fn trace_back(&self, end: usize) -> Vec<Config> {
        let mut trace = Vec::new();
        let mut i = end;
        loop {
            let (counters, shared, _) = self.state(i);
            trace.push(Config {
                counters: counters.iter().map(|w| w.wide()).collect(),
                shared: shared.iter().map(|w| w.wide()).collect(),
            });
            if self.parent[i] == NONE {
                break;
            }
            i = self.parent[i] as usize;
        }
        trace.reverse();
        trace
    }

    /// The same rows, in the same order and with the same parents, as
    /// `i64` words, with the slot table rebuilt for their hashes.
    fn widen(self) -> StateStore<i64> {
        let variables = self.width - self.locations - W::MASK_WORDS;
        let mut wide = StateStore::<i64>::new(self.locations, variables);
        wide.rows.reserve_exact(self.len() * wide.width);
        for i in 0..self.len() {
            let (counters, shared, mask) = self.state(i);
            wide.rows
                .extend(counters.iter().chain(shared).map(|w| w.wide()));
            wide.rows.push(i64::from(mask));
        }
        wide.parent = self.parent;
        wide.index(self.slots.len());
        wide
    }
}

/// Where a search resumes after its rows ran out of width: the next
/// root to store and the next head to expand.
#[derive(Clone, Copy, Default)]
struct Resume {
    root: usize,
    head: usize,
}

/// A finished search: the witness trace on violation, `Ok(None)` when
/// the whole space was exhausted without one, and `Err(())` when the
/// budget ran out first, with the number of states stored.
type Found = (Result<Option<Vec<Config>>, ()>, usize);

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

    /// Runs the search from `roots`; `accept(config, mask)` flags a
    /// violation. It starts on byte rows and widens them to `i64` at
    /// the first value that does not fit.
    fn run(&self, roots: &[Config], accept: impl Fn(&Config, u32) -> bool) -> Found {
        let ta = self.sys.ta();
        let bytes = StateStore::<u8>::new(ta.locations.len(), ta.variables.len());
        match self.search(bytes, roots, Resume::default(), &accept) {
            Ok(found) => found,
            Err((bytes, at)) => match self.search(bytes.widen(), roots, at, &accept) {
                Ok(found) => found,
                Err(_) => unreachable!("i64 rows hold every value"),
            },
        }
    }

    /// The search on `W` rows, from `at` on: stops with the store and
    /// the point to resume from at the first value a `W` cannot hold.
    fn search<W: Word>(
        &self,
        mut store: StateStore<W>,
        roots: &[Config],
        at: Resume,
        accept: &impl Fn(&Config, u32) -> bool,
    ) -> Result<Found, (StateStore<W>, Resume)> {
        let mut row = vec![W::default(); store.width];
        for (root, config) in roots.iter().enumerate().skip(at.root) {
            if !all_empty(config, self.globally_empty) {
                continue;
            }
            let mask = self.witness_mask(config, 0);
            if !store.pack(config, mask, &mut row) {
                return Err((store, Resume { root, head: 0 }));
            }
            if let Some(slot) = store.vacancy(&row) {
                store.insert(slot, &row, NONE);
            }
        }
        // Two scratch configurations: the state being expanded and the
        // successor being built from it.
        let ta = self.sys.ta();
        let mut config = Config {
            counters: vec![0; ta.locations.len()],
            shared: vec![0; ta.variables.len()],
        };
        let mut succ = config.clone();
        let mut head = at.head;
        while head < store.len() {
            let mask = store.load(head, &mut config);
            if accept(&config, mask) {
                return Ok((Ok(Some(store.trace_back(head))), head + 1));
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
                if !store.pack(&succ, mask, &mut row) {
                    let root = roots.len();
                    return Err((store, Resume { root, head }));
                }
                let Some(slot) = store.vacancy(&row) else {
                    continue;
                };
                if store.len() >= self.max_states {
                    return Ok((Err(()), store.len()));
                }
                store.insert(slot, &row, head as u32);
            }
            head += 1;
        }
        Ok((Ok(None), store.len()))
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
                    verdict: OracleVerdict::Unknown(OracleUnknownReason::TooManyWitnesses),
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
            let roots: Vec<Config> = sys
                .initial_configs()
                .into_iter()
                .filter(|c| initially.eval(c, params))
                .collect();
            let found = search.run(&roots, |_, mask| mask == full);
            Ok(decision(found, "safety", max_states))
        }
        Query::Liveness {
            globally_empty,
            initially,
            tail,
        } => {
            if ta.topological_locations().is_none() {
                return Ok(OracleDecision {
                    verdict: OracleVerdict::Unknown(OracleUnknownReason::NotDag),
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
            let roots: Vec<Config> = sys
                .initial_configs()
                .into_iter()
                .filter(|c| initially.eval(c, params))
                .collect();
            let found = search.run(&roots, |config, _| {
                tail.eval(config, params) && fair_stall.eval(config, params)
            });
            Ok(decision(found, "liveness", max_states))
        }
    }
}

/// The decision a finished search reached: a `kind` violation along
/// the trace it found, none, or a spent state budget.
fn decision((found, states): Found, kind: &'static str, max_states: usize) -> OracleDecision {
    let verdict = match found {
        Ok(Some(trace)) => OracleVerdict::Violated(OracleWitness { kind, trace }),
        Ok(None) => OracleVerdict::Holds,
        Err(()) => OracleVerdict::Unknown(OracleUnknownReason::StateBudget { max_states, states }),
    };
    OracleDecision { verdict, states }
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

    /// `n - f` processes move from `V` to `D`, each adding `inc` to `x`.
    fn reach(inc: u64) -> ThresholdAutomaton {
        let mut b = TaBuilder::new("reach");
        let n = b.param("n");
        let f = b.param("f");
        b.resilience_gt(n, f, 1);
        b.resilience_ge_const(f, 0);
        b.size_n_minus_f(n, f);
        let x = b.shared("x");
        let v = b.initial_location("V");
        let d = b.final_location("D");
        b.rule("r1", v, d, Guard::always()).inc(x, inc);
        b.self_loop(d);
        b.build().unwrap()
    }

    #[test]
    fn safety_violation_found_with_trace() {
        let ta = reach(1);
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
        let ta = reach(1);
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
    fn oracle_unknown_reasons_display_their_messages() {
        let cases = [
            (
                OracleUnknownReason::TooManyWitnesses,
                "more than 31 witnesses",
            ),
            (
                OracleUnknownReason::NotDag,
                "not a DAG: the stabilisation reduction does not apply",
            ),
            (
                OracleUnknownReason::StateBudget {
                    max_states: 2,
                    states: 2,
                },
                "state budget (2) exhausted after 2 states",
            ),
        ];
        for (reason, text) in cases {
            assert_eq!(reason.to_string(), text);
        }
    }

    #[test]
    fn budget_exhaustion_is_unknown() {
        // "Some location is always populated" holds (9 processes exist),
        // so the search must exhaust the space — which the tiny budget
        // forbids: honest Unknown, not Holds.
        let ta = reach(1);
        let d = ta.location_by_name("D").unwrap();
        let v = ta.location_by_name("V").unwrap();
        let spec = Ltl::always(Ltl::state(Prop::or(vec![
            Prop::loc_nonempty(v),
            Prop::loc_nonempty(d),
        ])));
        let justice = Justice::from_rules(&ta);
        let decisions = decide_spec(&ta, &spec, &justice, &[9, 0], 2).unwrap();
        assert!(
            matches!(
                decisions[0].verdict,
                OracleVerdict::Unknown(OracleUnknownReason::StateBudget {
                    max_states: 2,
                    states: 2
                })
            ),
            "{:?}",
            decisions[0].verdict
        );
        // With an adequate budget the same query exhausts and holds.
        let decisions = decide_spec(&ta, &spec, &justice, &[9, 0], 10_000).unwrap();
        assert!(matches!(decisions[0].verdict, OracleVerdict::Holds));
    }

    #[test]
    fn budget_of_exactly_the_explored_states_suffices() {
        // At `inc = 1` every row stays bytes; at `inc = 100` the search
        // widens to `i64` rows when `x` reaches 300, three moves in.
        for inc in [1, 100] {
            let ta = reach(inc);
            let d = ta.location_by_name("D").unwrap();
            let v = ta.location_by_name("V").unwrap();
            let spec = Ltl::always(Ltl::state(Prop::or(vec![
                Prop::loc_nonempty(v),
                Prop::loc_nonempty(d),
            ])));
            let justice = Justice::from_rules(&ta);
            let decide =
                |max_states| decide_spec(&ta, &spec, &justice, &[9, 0], max_states).unwrap();
            let exhaustive = decide(10_000);
            assert!(matches!(exhaustive[0].verdict, OracleVerdict::Holds));
            // One root (all nine processes in V) and nine D-moves.
            let n = exhaustive[0].states;
            assert_eq!(n, 10, "inc {inc}");
            let at = decide(n);
            assert!(matches!(at[0].verdict, OracleVerdict::Holds));
            assert_eq!(at[0].states, n);
            let below = decide(n - 1);
            assert!(matches!(below[0].verdict, OracleVerdict::Unknown(_)));
            assert_eq!(below[0].states, n - 1);
        }
    }

    #[test]
    fn byte_rows_stop_at_the_first_wide_value_and_resume_there() {
        let ta = reach(100);
        let sys = ConcreteSystem::new(&ta, &[9, 0]).unwrap();
        let search = Search {
            sys: &sys,
            globally_empty: &[],
            witnesses: &[],
            max_states: 10_000,
        };
        let roots = sys.initial_configs();
        let never = |_: &Config, _: u32| false;
        let Err((bytes, at)) = search.search(
            StateStore::<u8>::new(2, 1),
            &roots,
            Resume::default(),
            &never,
        ) else {
            panic!("x reaches 900, which a byte cannot hold");
        };
        // Rows hold x = 0, 100, 200; expanding the third makes x = 300.
        assert_eq!((at.root, at.head, bytes.len()), (1, 2, 3));
        let resumed = search.search(bytes.widen(), &roots, at, &never).ok();
        let wide = search
            .search(
                StateStore::<i64>::new(2, 1),
                &roots,
                Resume::default(),
                &never,
            )
            .ok();
        assert_eq!(resumed, wide);
        assert_eq!(wide, Some((Ok(None), 10)));
    }
}
