//! Cross-property schema exploration cache.
//!
//! Holistic verification checks *many* properties of the *same*
//! automaton (the paper's Table 2 runs nine properties over three
//! automata). The schedule DFS of [`Checker`](crate::Checker) spends
//! most of its time discovering, per property, which context chains
//! are feasible — but feasibility of a chain depends only on the *base
//! encoding* (automaton, globally-empty locations, initial-state
//! proposition, segment copies), not on the property's witness or tail
//! constraints, which live in a separate solver scope. This module
//! memoizes that discovery so later properties of the automaton reuse
//! what earlier ones proved.
//!
//! Two levels of reuse:
//!
//! 1. **Pruning** — a recorded exploration under a *weaker-or-equal*
//!    base (fewer globally-empty locations, trivial `initially`, at
//!    least as many copies) soundly transfers its *infeasible*
//!    verdicts: removing constraints can only grow the feasible set,
//!    and extra segment copies can only make more chains feasible
//!    (surplus factors are zeroable), so "infeasible under the weaker
//!    base" implies "infeasible here". In the mirror direction, a
//!    recording under a *stronger-or-equal* base with no more copies
//!    transfers its *feasible* verdicts (see
//!    [`ExplorationKey::feeds_feasible`]). A query whose key equals an
//!    earlier recording's is answered both ways for every chain that
//!    recording decided, so it runs no feasibility check at all.
//! 2. **Skeleton** — when nothing recorded matches, the checker first
//!    explores the weakest base of the automaton (`initially = True`,
//!    no globally-empty locations, one segment copy) without any query
//!    checks and records it; every subsequent property of the automaton
//!    then prunes against it. This is what guarantees nonzero cache-hit
//!    counters for every property after the first.
//!
//! Learned core patterns ride on both levels: they persist with the
//! recording that learned them and transfer under
//! [`ExplorationKey::transfers_cores`].
//!
//! Every recorded verdict is a definite SMT answer (or one transferred
//! from such an answer); chains whose check returned `Unknown`, and
//! chains an early stop never reached, are simply absent. A truncated
//! recording is therefore as sound a source as a full one, only a less
//! useful one.
//!
//! What each level buys, measured by switching one off at a time
//! (ROADMAP item 15; one thread; verdicts and schema counts equal in
//! every row; "cache off" is [`CheckerConfig::share_exploration`](crate::CheckerConfig) =
//! `false`, which also turns core pruning off):
//!
//! | cache levels | Table-2 checks | `mutants` checks | naive `Inv1_0` | naive `SRoundTerm` |
//! |---|---:|---:|---:|---:|
//! | pruning + skeleton | 608 | 15,153 | 17,698 checks | 49 checks |
//! | no skeleton | 733 | 11,320 | 16,455 checks | 7,618 checks |
//! | no core pruning | 1,311 | 24,767 | — | — |
//! | cache off | 1,613 | 25,545 | — | — |
//!
//! Verdicts are stored per *chain* (the strictly increasing context
//! sequence identifying a lattice node) and looked up by it, so a
//! recording assembled from parallel workers in any completion order
//! answers lookups deterministically.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex};

use holistic_ltl::Prop;
use holistic_ta::{LocationId, ThresholdAutomaton};

/// Everything that determines per-chain feasibility of the schedule
/// DFS's base encoding. Two queries with equal keys have identical
/// feasible frontiers.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ExplorationKey {
    /// Structural fingerprint of the automaton.
    automaton: u64,
    /// Locations forced empty for the whole run (sorted).
    globally_empty: Vec<LocationId>,
    /// Canonical rendering of the `initially` proposition.
    initially: String,
    /// Segment copies pushed per context (1 + unstable witnesses).
    copies: usize,
}

/// Fingerprints an automaton's structure (locations, variables, rules,
/// resilience). In-process only: the cache never outlives the run, so a
/// deterministic hash of the debug rendering suffices.
fn fingerprint(ta: &ThresholdAutomaton) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{ta:?}").hash(&mut h);
    h.finish()
}

impl ExplorationKey {
    /// The key for a query's base encoding.
    pub fn new(
        ta: &ThresholdAutomaton,
        globally_empty: &[LocationId],
        initially: &Prop,
        copies: usize,
    ) -> ExplorationKey {
        let mut ge = globally_empty.to_vec();
        ge.sort_unstable();
        ge.dedup();
        ExplorationKey {
            automaton: fingerprint(ta),
            globally_empty: ge,
            initially: format!("{initially:?}"),
            copies,
        }
    }

    /// The weakest base of the same automaton at the same copies: no
    /// globally-empty locations, trivial `initially`.
    pub fn skeleton(&self) -> ExplorationKey {
        ExplorationKey {
            automaton: self.automaton,
            globally_empty: Vec::new(),
            initially: format!("{:?}", Prop::True),
            copies: self.copies,
        }
    }

    /// The automaton's *base* key: the skeleton at **one** segment
    /// copy. This is the most transferable recording possible — its
    /// core patterns transfer everywhere
    /// ([`transfers_cores`](ExplorationKey::transfers_cores)), its
    /// feasible verdicts feed every *skeleton* query at any copies
    /// ([`feeds_feasible`](ExplorationKey::feeds_feasible)), and its
    /// infeasible verdicts prune every single-copy query
    /// ([`prunes`](ExplorationKey::prunes)) — while also being the
    /// cheapest to record (smallest tableau).
    pub fn base(&self) -> ExplorationKey {
        ExplorationKey {
            copies: 1,
            ..self.skeleton()
        }
    }

    /// Whether an exploration recorded under `self` soundly transfers
    /// its *infeasible* verdicts to a query keyed `other`:
    /// same automaton, weaker-or-equal constraints, at least as many
    /// copies.
    pub fn prunes(&self, other: &ExplorationKey) -> bool {
        self.automaton == other.automaton
            && self.copies >= other.copies
            && (self.initially == other.initially || self.initially == format!("{:?}", Prop::True))
            && self
                .globally_empty
                .iter()
                .all(|l| other.globally_empty.contains(l))
    }

    /// Whether core patterns recorded under `self` soundly transfer to
    /// a query keyed `other`. Unlike chain verdicts, patterns are
    /// **copies-independent**: the probe system they certify collapses
    /// *any* number of segments into one (see
    /// [`Encoding::probe_core_pattern`](crate::Encoding::probe_core_pattern)),
    /// so only the base constraints must be weaker-or-equal — the same
    /// conditions as [`prunes`](ExplorationKey::prunes) minus the
    /// copies comparison.
    pub fn transfers_cores(&self, other: &ExplorationKey) -> bool {
        self.automaton == other.automaton
            && (self.initially == other.initially || self.initially == format!("{:?}", Prop::True))
            && self
                .globally_empty
                .iter()
                .all(|l| other.globally_empty.contains(l))
    }

    /// Whether *feasible* verdicts recorded under `self` soundly
    /// transfer to a query keyed `other` — the mirror image of
    /// [`prunes`](ExplorationKey::prunes): a witness run stays valid
    /// when constraints are *dropped* (so `other`'s base must be
    /// weaker-or-equal) and when *extra* segment copies are available
    /// (the witness shifts each context's factors into the **last**
    /// copy; interior boundaries then carry the context's entry values,
    /// where the locked-guard-false constraints already held, and the
    /// entry boundary keeps its original guard-unlock values).
    pub fn feeds_feasible(&self, other: &ExplorationKey) -> bool {
        self.automaton == other.automaton
            && self.copies <= other.copies
            && (self.initially == other.initially || other.initially == format!("{:?}", Prop::True))
            && other
                .globally_empty
                .iter()
                .all(|l| self.globally_empty.contains(l))
    }
}

/// A learned infeasibility tri-pattern `(mask, held, delta)`, distilled
/// from a Farkas-certificate UNSAT core (see
/// [`Encoding::probe_core_pattern`](crate::Encoding::probe_core_pattern)):
/// *no* chain of the exploration whose contexts are all `⊆ mask` and
/// whose final context contains `held` can be feasibly extended by a
/// step that newly unlocks `delta` (or any superset of it). `held = 0`
/// is the unconditional pattern of earlier revisions; a non-zero `held`
/// records that the certificate additionally relied on an
/// already-crossed monotone guard still holding at the final boundary.
/// Patterns generalize single infeasible chains to whole sublattices,
/// which is what lets one SMT refutation prune many schemas.
///
/// The set keeps only maximally general patterns: `(m, h, d)` subsumes
/// `(m', h', d')` when `m' ⊆ m`, `h ⊆ h'` and `d ⊆ d'` (a larger
/// context mask prunes more prefixes; a smaller held set and a smaller
/// delta each prune more extensions). Lookups are indexed by the lowest
/// set bit of `delta` — a pattern can only match an attempt whose
/// newly-unlocked set contains that bit — so the hot `prunes` path
/// scans a few small buckets instead of every pattern.
#[derive(Debug, Default, Clone)]
pub struct CorePatternSet {
    /// Patterns bucketed by `delta.trailing_zeros()`.
    buckets: HashMap<u32, Vec<(u64, u64, u64)>>,
    len: usize,
}

impl CorePatternSet {
    /// An empty set.
    pub fn new() -> CorePatternSet {
        CorePatternSet::default()
    }

    /// Number of (maximally general) stored patterns.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no patterns are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All stored patterns, sorted for deterministic output.
    pub fn patterns(&self) -> Vec<(u64, u64, u64)> {
        let mut out: Vec<(u64, u64, u64)> = self.buckets.values().flatten().copied().collect();
        out.sort_unstable();
        out
    }

    /// Inserts a learned pattern, keeping the set subsumption-reduced.
    /// Returns `false` if an existing pattern already subsumes it (the
    /// caller should not count it as newly learned). `delta = 0` is
    /// rejected outright: it would claim *every* extension of `mask`
    /// prefixes infeasible, which the certificate never establishes.
    pub fn insert(&mut self, mask: u64, held: u64, delta: u64) -> bool {
        if delta == 0 {
            return false;
        }
        debug_assert_eq!(held & !mask, 0, "held guards must lie inside the mask");
        // Subsumed by an existing pattern? Its delta is a subset of
        // ours, so its lowest bit is one of our delta's bits.
        let mut bits = delta;
        while bits != 0 {
            let b = bits.trailing_zeros();
            if let Some(v) = self.buckets.get(&b) {
                if v.iter()
                    .any(|&(m, h, d)| mask & !m == 0 && h & !held == 0 && d & !delta == 0)
                {
                    return false;
                }
            }
            bits &= bits - 1;
        }
        // Evict patterns the new one subsumes. Their deltas are
        // supersets of ours, so their lowest bit is at or below ours.
        let tz = delta.trailing_zeros();
        for (&b, v) in self.buckets.iter_mut() {
            if b <= tz {
                let before = v.len();
                v.retain(|&(m, h, d)| !(m & !mask == 0 && held & !h == 0 && delta & !d == 0));
                self.len -= before - v.len();
            }
        }
        self.buckets
            .entry(tz)
            .or_default()
            .push((mask, held, delta));
        self.len += 1;
        true
    }

    /// Whether some pattern prunes an extension attempt: the prefix's
    /// final context is `prev`, and the step would newly unlock
    /// `newly`. True when a stored `(m, h, d)` has `h ⊆ prev ⊆ m` and
    /// `d ⊆ newly` — by monotonicity every earlier context of the
    /// prefix is also `⊆ m`, and every `h` guard, being unlocked in
    /// `prev`, still holds at the prefix's final boundary, so the
    /// attempt embeds the pattern.
    pub fn prunes(&self, prev: u64, newly: u64) -> bool {
        if self.len == 0 {
            return false;
        }
        let matches =
            |&(m, h, d): &(u64, u64, u64)| prev & !m == 0 && h & !prev == 0 && d & !newly == 0;
        // With fewer patterns than `newly` bits the per-bit bucket
        // lookups cost more than they save; scan the patterns directly.
        if self.len as u32 <= newly.count_ones() {
            return self.buckets.values().flatten().any(matches);
        }
        let mut bits = newly;
        while bits != 0 {
            let b = bits.trailing_zeros();
            if let Some(v) = self.buckets.get(&b) {
                if v.iter().any(matches) {
                    return true;
                }
            }
            bits &= bits - 1;
        }
        false
    }
}

/// A recorded exploration of one base encoding's schedule lattice.
#[derive(Debug)]
pub struct Exploration {
    key: ExplorationKey,
    /// Chain → feasible. Chains whose feasibility check returned
    /// `Unknown`, and chains the exploration never reached, are absent.
    verdicts: HashMap<Vec<u64>, bool>,
    /// Core patterns learned while recording (sorted, deduplicated).
    /// They transfer under exactly the same [`ExplorationKey::prunes`]
    /// monotonicity as infeasible verdicts.
    cores: Vec<(u64, u64, u64)>,
}

impl Exploration {
    /// The key this exploration was recorded under.
    pub fn key(&self) -> &ExplorationKey {
        &self.key
    }

    /// The recorded feasibility of `chain`, if any.
    pub fn verdict(&self, chain: &[u64]) -> Option<bool> {
        self.verdicts.get(chain).copied()
    }

    /// Core patterns learned while this exploration was recorded.
    pub fn cores(&self) -> &[(u64, u64, u64)] {
        &self.cores
    }
}

/// Accumulates `(chain, feasible)` verdicts during a DFS; workers each
/// hold their own recorder and the results are merged, so recording
/// order is irrelevant (verdicts are keyed by chain, and finalization
/// sorts the cores).
#[derive(Debug, Default)]
pub struct Recorder {
    nodes: Vec<(Vec<u64>, bool)>,
    /// Core patterns learned by this recorder's worker.
    cores: Vec<(u64, u64, u64)>,
}

impl Recorder {
    /// A fresh recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Records a definite feasibility verdict for `chain`.
    pub fn record(&mut self, chain: &[u64], feasible: bool) {
        self.nodes.push((chain.to_vec(), feasible));
    }

    /// Records a learned core pattern `(mask, held, delta)` so it
    /// persists with the finished exploration in the cache.
    pub fn record_core(&mut self, mask: u64, held: u64, delta: u64) {
        self.cores.push((mask, held, delta));
    }

    /// Merges another recorder (e.g. a worker's) into this one.
    pub fn merge(&mut self, other: Recorder) {
        self.nodes.extend(other.nodes);
        self.cores.extend(other.cores);
    }

    /// Builds the exploration.
    pub fn finish(self, key: ExplorationKey) -> Exploration {
        let mut verdicts = HashMap::with_capacity(self.nodes.len());
        for (chain, f) in self.nodes {
            verdicts.insert(chain, f);
        }
        let mut cores = self.cores;
        cores.sort_unstable();
        cores.dedup();
        Exploration {
            key,
            verdicts,
            cores,
        }
    }
}

/// Every recorded exploration whose infeasible verdicts soundly
/// transfer to one query: the skeleton plus any property recording
/// whose banned-location set is contained in (overlaps from below) the
/// query's. Sources complement each other — each prunes the part of the
/// lattice *it* proved infeasible — so consulting all of them prunes
/// strictly more than the best single recording.
#[derive(Debug, Default)]
pub struct Pruner {
    sources: Vec<Arc<Exploration>>,
    /// Sources whose core patterns transfer
    /// ([`ExplorationKey::transfers_cores`]) — a superset of `sources`
    /// along the copies axis, since patterns are copies-independent.
    core_sources: Vec<Arc<Exploration>>,
    /// Sources whose *feasible* verdicts transfer
    /// ([`ExplorationKey::feeds_feasible`]): recorded under a
    /// stronger-or-equal base with no more copies.
    feasible_sources: Vec<Arc<Exploration>>,
}

impl Pruner {
    /// Whether any source recorded under a weaker-or-equal base with at
    /// least as many copies recorded `chain` as infeasible (see
    /// [`ExplorationKey::prunes`]). Such a source's *feasible* verdicts
    /// do not transfer (a weaker base over-approximates feasibility);
    /// [`feasible_chain`](Pruner::feasible_chain) asks the sources for
    /// which they do. The answer is independent of source order.
    pub fn prunes_chain(&self, chain: &[u64]) -> bool {
        self.sources.iter().any(|e| e.verdict(chain) == Some(false))
    }

    /// Whether any source recorded under a stronger-or-equal base with
    /// no more copies recorded `chain` as feasible: its witness run
    /// transfers verbatim (see [`ExplorationKey::feeds_feasible`]), so
    /// the chain is feasible here without an SMT check. Sound in
    /// exactly the opposite direction from `prunes_chain` — the two can
    /// never both answer for one chain.
    pub fn feasible_chain(&self, chain: &[u64]) -> bool {
        self.feasible_sources
            .iter()
            .any(|e| e.verdict(chain) == Some(true))
    }

    /// All core patterns carried by the core sources,
    /// subsumption-reduced. Every source was recorded under a
    /// weaker-or-equal base, so a certificate's members (resilience,
    /// init distribution, availability, entry/held guard) are all
    /// present in the target encoding; segment copies don't matter
    /// because the certified probe system collapses any number of
    /// segments into one ([`ExplorationKey::transfers_cores`]).
    pub fn core_patterns(&self) -> CorePatternSet {
        let mut set = CorePatternSet::new();
        for e in &self.core_sources {
            for &(m, h, d) in e.cores() {
                set.insert(m, h, d);
            }
        }
        set
    }
}

/// Number of lock stripes. Matrix-scheduled properties of different
/// automata hash to different stripes, so concurrent whole-property
/// jobs don't serialize on one cache lock.
const SHARDS: usize = 8;

/// The process-wide store, shared by all clones of a
/// [`Checker`](crate::Checker) (clones share the same `Arc`).
/// Lock-striped: keys are distributed over `SHARDS` independent
/// mutexes by hash, so the matrix scheduler's concurrent property jobs
/// contend only when they touch the same stripe.
#[derive(Debug)]
pub struct ExplorationCache {
    shards: Vec<Mutex<HashMap<ExplorationKey, Arc<Exploration>>>>,
}

impl Default for ExplorationCache {
    fn default() -> ExplorationCache {
        ExplorationCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }
}

impl ExplorationCache {
    /// A fresh, empty cache.
    pub fn new() -> ExplorationCache {
        ExplorationCache::default()
    }

    fn shard(&self, key: &ExplorationKey) -> &Mutex<HashMap<ExplorationKey, Arc<Exploration>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// All recorded explorations whose infeasible verdicts soundly
    /// prune a query keyed `key`, aggregated (see [`Pruner`]). `None`
    /// if nothing recorded applies.
    pub fn pruner_for(&self, key: &ExplorationKey) -> Option<Pruner> {
        let mut sources: Vec<Arc<Exploration>> = Vec::new();
        let mut core_sources: Vec<Arc<Exploration>> = Vec::new();
        let mut feasible_sources: Vec<Arc<Exploration>> = Vec::new();
        for shard in &self.shards {
            for e in shard.lock().unwrap().values() {
                if e.key().prunes(key) {
                    sources.push(e.clone());
                }
                if e.key().transfers_cores(key) {
                    core_sources.push(e.clone());
                }
                if e.key().feeds_feasible(key) {
                    feasible_sources.push(e.clone());
                }
            }
        }
        if sources.is_empty() && core_sources.is_empty() && feasible_sources.is_empty() {
            holistic_obs::add("cache.pruner_miss", 1);
            None
        } else {
            holistic_obs::add("cache.pruner_hit", 1);
            Some(Pruner {
                sources,
                core_sources,
                feasible_sources,
            })
        }
    }

    /// Stores an exploration. A recording under the same key that
    /// decided at least as many chains is kept instead: every verdict is
    /// definite, so the one that knows more prunes and feeds more.
    pub fn insert(&self, e: Exploration) {
        holistic_obs::add("cache.inserts", 1);
        let mut map = self.shard(&e.key).lock().unwrap();
        match map.get(&e.key) {
            Some(old) if old.verdicts.len() >= e.verdicts.len() => {}
            _ => {
                map.insert(e.key.clone(), Arc::new(e));
            }
        }
    }

    /// All learned core patterns recorded for `ta`, aggregated over
    /// every base encoding and subsumption-reduced, in canonical
    /// order. Diagnostic surface for `--explain-prunes`.
    pub fn cores_for(&self, ta: &ThresholdAutomaton) -> Vec<(u64, u64, u64)> {
        let fp = fingerprint(ta);
        let mut set = CorePatternSet::new();
        for shard in &self.shards {
            for e in shard.lock().unwrap().values() {
                if e.key.automaton == fp {
                    for &(m, h, d) in e.cores() {
                        set.insert(m, h, d);
                    }
                }
            }
        }
        set.patterns()
    }

    /// Number of recorded explorations.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ge: &[usize], init: &Prop, copies: usize) -> ExplorationKey {
        ExplorationKey {
            automaton: 42,
            globally_empty: ge.iter().map(|&i| LocationId(i)).collect(),
            initially: format!("{init:?}"),
            copies,
        }
    }

    #[test]
    fn skeleton_prunes_everything_at_lower_or_equal_copies() {
        let strong = key(&[0, 3], &Prop::loc_empty(LocationId(1)), 1);
        let skel = strong.skeleton();
        assert_eq!(skel.skeleton(), skel);
        assert!(skel.prunes(&strong));
        assert!(skel.prunes(&skel.clone()));
        // More copies than recorded: not sound.
        let more = key(&[], &Prop::True, 2);
        assert!(!skel.prunes(&more));
        // Fewer copies than recorded: sound.
        let skel2 = more.skeleton();
        assert!(skel2.prunes(&strong));
    }

    #[test]
    fn stronger_base_does_not_prune_weaker() {
        let strong = key(&[0], &Prop::True, 1);
        let weak = key(&[], &Prop::True, 1);
        assert!(!strong.prunes(&weak));
        assert!(weak.prunes(&strong));
    }

    #[test]
    fn core_transfer_is_copies_independent() {
        // Core patterns argue over probe aggregates, never over the
        // number of per-segment copies: a weaker-or-equal base donates
        // its patterns to any copies count.
        let donor = key(&[0], &Prop::True, 1);
        let taker = key(&[0, 3], &Prop::loc_empty(LocationId(1)), 4);
        assert!(donor.transfers_cores(&taker));
        let fewer = key(&[0], &Prop::True, 2);
        assert!(donor.transfers_cores(&fewer));
        // Trivial `initially` also transfers to a constrained one...
        let trivial = key(&[], &Prop::True, 1);
        assert!(trivial.transfers_cores(&taker));
        // ...but a *stronger* base must not donate to a weaker target.
        assert!(!taker.transfers_cores(&donor));
        let other_init = key(&[0], &Prop::loc_empty(LocationId(2)), 1);
        assert!(
            !other_init.transfers_cores(&taker),
            "incomparable initially"
        );
        let mut foreign = donor.clone();
        foreign.automaton = 7;
        assert!(!foreign.transfers_cores(&taker), "different automaton");
    }

    #[test]
    fn feasible_verdicts_transfer_upward_in_copies_only() {
        // A feasible chain recorded at k copies shifts its factors into
        // the last copy of any wider query — but never narrows.
        let donor = key(&[0, 3], &Prop::True, 1);
        let wider = key(&[0], &Prop::True, 3);
        assert!(donor.feeds_feasible(&wider));
        assert!(donor.feeds_feasible(&donor.clone()));
        let narrower = key(&[0], &Prop::True, 1);
        let at_two = key(&[0, 3], &Prop::True, 2);
        assert!(!at_two.feeds_feasible(&narrower), "downward is unsound");
        // The donor's base must be stronger-or-equal: its feasible
        // witnesses satisfy every constraint the target imposes.
        let weak_donor = key(&[], &Prop::True, 1);
        assert!(
            !weak_donor.feeds_feasible(&wider),
            "donor weaker than target"
        );
        let init_donor = key(&[0], &Prop::loc_empty(LocationId(1)), 1);
        let trivial_target = key(&[0], &Prop::True, 2);
        assert!(
            init_donor.feeds_feasible(&trivial_target),
            "constrained initially feeds a trivial target"
        );
        assert!(
            !narrower.feeds_feasible(&key(&[0], &Prop::loc_empty(LocationId(1)), 2)),
            "trivial initially must not feed a constrained target"
        );
    }

    #[test]
    fn base_is_the_single_copy_skeleton() {
        let k = key(&[0, 3], &Prop::loc_empty(LocationId(1)), 4);
        let base = k.base();
        assert_eq!(base.skeleton(), base);
        assert_eq!(base.copies, 1);
        // Core patterns donate to every key of the automaton; chain
        // verdicts prune single-copy queries and feed skeleton queries
        // upward.
        assert!(base.transfers_cores(&k));
        assert!(base.prunes(&key(&[0], &Prop::True, 1)));
        assert!(base.feeds_feasible(&key(&[], &Prop::True, 4)));
        assert!(
            !base.feeds_feasible(&k),
            "a skeleton witness need not satisfy a constrained base"
        );
        // Idempotent.
        assert_eq!(base.base(), base);
    }

    #[test]
    fn merge_order_does_not_change_verdicts() {
        let k = key(&[], &Prop::True, 1);
        let mut a = Recorder::new();
        a.record(&[0, 3], true);
        a.record(&[0], true);
        let mut b = Recorder::new();
        b.record(&[0, 1], true);
        b.record(&[0, 1, 3], false);
        // Merge in "wrong" order: every verdict survives.
        let mut merged = Recorder::new();
        merged.merge(b);
        merged.merge(a);
        let e = merged.finish(k);
        for chain in [&[0][..], &[0, 1], &[0, 3]] {
            assert_eq!(e.verdict(chain), Some(true), "{chain:?}");
        }
        assert_eq!(e.verdict(&[0, 1, 3]), Some(false));
        assert_eq!(e.verdict(&[9]), None);
    }

    #[test]
    fn core_pattern_set_subsumption_and_matching() {
        let mut s = CorePatternSet::new();
        assert!(!s.insert(0b1, 0, 0)); // delta 0 rejected
        assert!(s.insert(0b011, 0, 0b100));
        assert_eq!(s.len(), 1);
        // Subsumed: smaller mask, larger delta.
        assert!(!s.insert(0b001, 0, 0b110));
        assert_eq!(s.len(), 1);
        // Subsumed: same mask/delta, more demanding held set.
        assert!(!s.insert(0b011, 0b001, 0b100));
        assert_eq!(s.len(), 1);
        // Subsumes the stored pattern: larger mask, same delta.
        assert!(s.insert(0b111, 0, 0b100));
        assert_eq!(s.len(), 1);
        assert_eq!(s.patterns(), vec![(0b111, 0, 0b100)]);
        // Incomparable pattern coexists.
        assert!(s.insert(0b1000, 0, 0b10));
        assert_eq!(s.len(), 2);

        // (0b111, 0, 0b100) prunes: prev ⊆ 0b111 and 0b100 ⊆ newly.
        assert!(s.prunes(0b011, 0b100));
        assert!(s.prunes(0, 0b1100));
        assert!(!s.prunes(0b1011, 0b100), "prev outside mask");
        assert!(!s.prunes(0b011, 0b011), "delta not newly unlocked");
        // The second pattern.
        assert!(s.prunes(0b1000, 0b110));
        assert!(!s.prunes(0b0100, 0b010), "prev outside second mask");
    }

    #[test]
    fn held_conditioned_patterns_require_held_in_prev() {
        let mut s = CorePatternSet::new();
        assert!(s.insert(0b111, 0b010, 0b1000));
        // Matching needs held ⊆ prev ⊆ mask.
        assert!(s.prunes(0b011, 0b1000));
        assert!(s.prunes(0b111, 0b1100));
        assert!(!s.prunes(0b001, 0b1000), "held guard not unlocked in prev");
        assert!(!s.prunes(0b1010, 0b1000), "prev outside mask");

        // A held-free pattern with the same mask/delta subsumes it.
        assert!(s.insert(0b111, 0, 0b1000));
        assert_eq!(s.len(), 1);
        assert_eq!(s.patterns(), vec![(0b111, 0, 0b1000)]);
        assert!(s.prunes(0b001, 0b1000));

        // The direct-scan fast path (fewer patterns than newly bits)
        // agrees with the bucketed path.
        assert!(s.prunes(0b001, 0b11111000));
        assert!(!s.prunes(0b001, 0b110));
    }

    #[test]
    fn cores_survive_merge_and_finish() {
        let k = key(&[], &Prop::True, 1);
        let mut a = Recorder::new();
        a.record(&[0b1], true);
        a.record_core(0b1, 0, 0b10);
        let mut b = Recorder::new();
        b.record(&[0b1, 0b11], false);
        b.record_core(0b1, 0, 0b10); // duplicate across workers
        b.record_core(0b11, 0b1, 0b100);
        let mut merged = Recorder::new();
        merged.merge(a);
        merged.merge(b);
        let e = merged.finish(k);
        assert_eq!(e.cores(), &[(0b1, 0, 0b10), (0b11, 0b1, 0b100)]);

        // A pruner over this source exposes the patterns.
        let cache = ExplorationCache::new();
        cache.insert(e);
        let strong = key(&[7], &Prop::loc_empty(LocationId(7)), 1);
        let pruner = cache.pruner_for(&strong).expect("skeleton source applies");
        let pats = pruner.core_patterns();
        assert_eq!(pats.len(), 2);
        assert!(pats.prunes(0b1, 0b10));
    }

    #[test]
    fn cache_keeps_the_recording_with_more_verdicts() {
        let cache = ExplorationCache::new();
        let k = key(&[], &Prop::True, 1);
        let recording = |verdicts: &[(&[u64], bool)]| {
            let mut r = Recorder::new();
            for &(chain, feasible) in verdicts {
                r.record(chain, feasible);
            }
            r.finish(k.clone())
        };
        let verdict = |chain: &[u64]| {
            let pruner = cache.pruner_for(&k).expect("the equal key applies");
            (pruner.feasible_chain(chain), pruner.prunes_chain(chain))
        };
        cache.insert(recording(&[(&[0], true), (&[0, 1], false)]));
        assert_eq!(verdict(&[0, 1]), (false, true));
        // A truncated re-recording (one verdict) must not clobber it.
        cache.insert(recording(&[(&[0], true)]));
        assert_eq!(cache.len(), 1);
        assert_eq!(verdict(&[0]), (true, false));
        assert_eq!(verdict(&[0, 1]), (false, true));
        // A recording that decided more chains replaces it.
        cache.insert(recording(&[
            (&[0], true),
            (&[0, 1], false),
            (&[0, 3], true),
        ]));
        assert_eq!(cache.len(), 1);
        assert_eq!(verdict(&[0, 3]), (true, false));
    }
}
