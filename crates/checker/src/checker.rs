//! The parameterized model checker: public API and schedule-DFS driver.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use holistic_lia::{SatResult, SolverConfig, SolverStats};
use holistic_ltl::{classify, stability, FragmentError, Justice, Ltl, Prop, Query};
use holistic_ta::{LocationId, ThresholdAutomaton, ValidationError};

use crate::counterexample::{Counterexample, ReplayError};
use crate::encode::Encoding;
use crate::explore::{
    CorePatternSet, Exploration, ExplorationCache, ExplorationKey, Pruner, Recorder,
};
use crate::guards::{GuardError, GuardInfo};

/// Fault-injection hooks for chaos testing the worker-isolation path.
/// Everything defaults to "off"; the supervisor layer populates it from
/// the `HOLISTIC_CHAOS` environment hook, and the regression tests set
/// it directly (an in-config knob avoids racy env mutation across
/// parallel tests).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ChaosConfig {
    /// Panic inside a DFS worker at every `N`th feasibility decision
    /// across the exploration (`0` disables). The panic is deliberately
    /// raised where a guard-evaluation bug would strike: right before
    /// the prefix's feasibility is resolved.
    pub panic_every: u64,
}

/// Configuration of a [`Checker`].
#[derive(Clone, Debug)]
pub struct CheckerConfig {
    /// Cap on schemas explored by the DFS; beyond it the query reports
    /// `Unknown`.
    /// The paper's naive consensus automaton exceeds any practical cap
    /// (its Table 2 row reads ">100 000 schemas, timeout").
    pub max_schemas: usize,
    /// Wall-clock budget for one `check_ltl`/`check_query` call,
    /// complementing `max_schemas` (which bounds *work*, not *time* —
    /// schema cost varies by orders of magnitude across automata). When
    /// the budget runs out the exploration stops at the next schema
    /// boundary and the verdict degrades gracefully to
    /// [`Verdict::Unknown`]; already-found violations are still
    /// reported. `None` (the default) means unbounded. The naive
    /// consensus automaton of the paper's Table 2 is the intended
    /// customer: its ">24h timeout" row can be demonstrated in seconds.
    pub time_budget: Option<Duration>,
    /// Budgets for each SMT query.
    pub solver: SolverConfig,
    /// Worker threads for the schedule DFS. `None` (the default) uses
    /// [`std::thread::available_parallelism`]; `Some(1)` runs fully
    /// sequential (and byte-deterministic) with no worker pool.
    pub threads: Option<usize>,
    /// Whether queries share a process-wide exploration cache (see
    /// [`ExplorationCache`]): identical base encodings are *replayed*
    /// instead of re-explored and weaker recorded bases prune infeasible
    /// subtrees. `false` restores fully independent per-property DFS
    /// (used by the equivalence tests).
    pub share_exploration: bool,
    /// Whether infeasible prefixes are generalized into *core patterns*
    /// via Farkas-certificate UNSAT cores (see
    /// [`Encoding::probe_core_pattern`]) and used to prune whole
    /// sublattices of extension attempts, in addition to the exact
    /// chain-verdict pruning of the exploration cache. Only active
    /// while recording (it rides on `share_exploration`); learned
    /// patterns persist with the recorded exploration and transfer
    /// across properties under the usual key monotonicity.
    pub core_pruning: bool,
    /// Fault injection for chaos testing (defaults to off).
    pub chaos: ChaosConfig,
}

impl Default for CheckerConfig {
    fn default() -> CheckerConfig {
        CheckerConfig {
            max_schemas: 100_000,
            time_budget: None,
            solver: SolverConfig::default(),
            threads: None,
            share_exploration: true,
            core_pruning: true,
            chaos: ChaosConfig::default(),
        }
    }
}

/// The verdict for one property (or query).
#[derive(Clone, Debug)]
pub enum Verdict {
    /// The property holds for **all** parameters admitted by the
    /// resilience condition.
    Verified,
    /// The property fails; a validated counterexample is attached.
    Violated(Box<Counterexample>),
    /// No verdict, and why.
    Unknown(UnknownReason),
}

/// Why a query came back [`Verdict::Unknown`]: one variant per cause
/// the checker produces.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum UnknownReason {
    /// A DFS or matrix worker panicked; carries the panic message.
    WorkerPanic(String),
    /// The wall-clock [`CheckerConfig::time_budget`] ran out at a
    /// schema boundary.
    TimeBudget {
        /// The configured budget.
        budget: Duration,
        /// Schemas explored before it ran out.
        schemas: usize,
    },
    /// The DFS reached [`CheckerConfig::max_schemas`].
    SchemaCap {
        /// The cap.
        cap: usize,
    },
    /// The solver gave up on a check.
    Solver(holistic_lia::UnknownReason),
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::WorkerPanic(msg) => write!(f, "worker panic: {msg}"),
            UnknownReason::TimeBudget { budget, schemas } => write!(
                f,
                "time budget of {budget:?} exhausted after {schemas} schemas"
            ),
            UnknownReason::SchemaCap { cap } => {
                write!(f, "schedule DFS exceeded the cap of {cap} schemas")
            }
            UnknownReason::Solver(r) => write!(f, "{r}"),
        }
    }
}

impl Verdict {
    /// Whether the verdict is `Verified`.
    pub fn is_verified(&self) -> bool {
        matches!(self, Verdict::Verified)
    }

    /// Whether the verdict is `Violated`.
    pub fn is_violated(&self) -> bool {
        matches!(self, Verdict::Violated(_))
    }

    /// The counterexample, if violated.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Verdict::Violated(ce) => Some(ce),
            _ => None,
        }
    }

    /// Short label for reports (`verified` / `violated` / `unknown`).
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Verified => "verified",
            Verdict::Violated(_) => "violated",
            Verdict::Unknown(_) => "unknown",
        }
    }
}

/// Statistics for one query, mirroring the columns of the paper's
/// Table 2.
#[derive(Clone, Debug)]
pub struct QueryStats {
    /// Number of schemas (feasible schedule prefixes / SMT queries).
    pub schemas: usize,
    /// Average schema length (number of segments).
    pub avg_segments: f64,
    /// Wall-clock time.
    pub duration: Duration,
    /// Cumulative SMT solver statistics (summed over worker threads;
    /// the sum is deterministic regardless of scheduling).
    pub solver: SolverStats,
    /// Lattice nodes whose feasibility verdict was answered by the
    /// exploration cache (replayed or pruned) instead of an SMT check.
    pub cache_hits: u64,
    /// Lattice nodes whose feasibility was decided by a fresh SMT
    /// check.
    pub cache_misses: u64,
    /// Whether the whole feasible frontier was replayed from the cache
    /// (no feasibility checks at all).
    pub replayed: bool,
    /// Core patterns newly learned during this query (fresh inserts
    /// into the shared pattern set; re-derivations of known patterns
    /// don't count).
    pub cores_learned: u64,
    /// Extension attempts pruned because a learned core pattern
    /// subsumed them (a subset of `cache_hits`).
    pub schemas_pruned_by_core: u64,
    /// Worker threads used by the schedule DFS.
    pub threads: usize,
}

/// The outcome of checking a single [`Query`].
#[derive(Clone, Debug)]
pub struct QueryReport {
    /// Verdict.
    pub verdict: Verdict,
    /// Statistics.
    pub stats: QueryStats,
}

/// The outcome of checking an LTL property (one report per top-level
/// conjunct query).
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Per-query reports.
    pub queries: Vec<QueryReport>,
    /// Total wall-clock time.
    pub duration: Duration,
}

impl CheckReport {
    /// The combined verdict: `Violated` dominates, then `Unknown`, then
    /// `Verified`.
    pub fn verdict(&self) -> Verdict {
        for q in &self.queries {
            if q.verdict.is_violated() {
                return q.verdict.clone();
            }
        }
        for q in &self.queries {
            if let Verdict::Unknown(r) = &q.verdict {
                return Verdict::Unknown(r.clone());
            }
        }
        Verdict::Verified
    }

    /// Total schemas across queries.
    pub fn total_schemas(&self) -> usize {
        self.queries.iter().map(|q| q.stats.schemas).sum()
    }

    /// Average schema length across queries.
    pub fn avg_segments(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries
            .iter()
            .map(|q| q.stats.avg_segments)
            .sum::<f64>()
            / self.queries.len() as f64
    }

    /// Total exploration-cache hits across queries.
    pub fn total_cache_hits(&self) -> u64 {
        self.queries.iter().map(|q| q.stats.cache_hits).sum()
    }

    /// Total exploration-cache misses (fresh feasibility checks).
    pub fn total_cache_misses(&self) -> u64 {
        self.queries.iter().map(|q| q.stats.cache_misses).sum()
    }

    /// Total core patterns newly learned across queries.
    pub fn total_cores_learned(&self) -> u64 {
        self.queries.iter().map(|q| q.stats.cores_learned).sum()
    }

    /// Total extension attempts pruned by learned core patterns.
    pub fn total_schemas_pruned_by_core(&self) -> u64 {
        self.queries
            .iter()
            .map(|q| q.stats.schemas_pruned_by_core)
            .sum()
    }

    /// Average size (member count) of extracted UNSAT cores, from the
    /// cumulative solver statistics; `0.0` when none were extracted.
    pub fn core_avg_size(&self) -> f64 {
        let s = self.solver_stats();
        if s.cores_extracted == 0 {
            0.0
        } else {
            s.core_members as f64 / s.cores_extracted as f64
        }
    }

    /// Cumulative solver statistics across queries.
    pub fn solver_stats(&self) -> SolverStats {
        let mut s = SolverStats::default();
        for q in &self.queries {
            s.merge(&q.stats.solver);
        }
        s
    }
}

/// Errors that prevent checking altogether (as opposed to `Unknown`
/// verdicts).
#[derive(Debug)]
pub enum CheckError {
    /// The automaton failed validation.
    Validation(ValidationError),
    /// The automaton is not a DAG (plus self-loops), which the schema
    /// theory requires.
    NotDag,
    /// Guard analysis failed (fall guards, too many guards).
    Guard(GuardError),
    /// The property is outside the checkable fragment.
    Fragment(FragmentError),
    /// A satisfying model failed concrete replay — an internal
    /// encoding/semantics mismatch.
    Replay(ReplayError),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Validation(e) => write!(f, "invalid automaton: {e}"),
            CheckError::NotDag => write!(
                f,
                "automaton has a cycle among proper rules; the schema method needs a DAG"
            ),
            CheckError::Guard(e) => write!(f, "guard analysis: {e}"),
            CheckError::Fragment(e) => write!(f, "{e}"),
            CheckError::Replay(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Renders a caught panic payload as text (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

impl From<ValidationError> for CheckError {
    fn from(e: ValidationError) -> CheckError {
        CheckError::Validation(e)
    }
}

impl From<GuardError> for CheckError {
    fn from(e: GuardError) -> CheckError {
        CheckError::Guard(e)
    }
}

impl From<FragmentError> for CheckError {
    fn from(e: FragmentError) -> CheckError {
        CheckError::Fragment(e)
    }
}

impl From<ReplayError> for CheckError {
    fn from(e: ReplayError) -> CheckError {
        CheckError::Replay(e)
    }
}

/// The parameterized model checker.
///
/// # Examples
///
/// ```
/// use holistic_checker::Checker;
/// use holistic_ltl::{Justice, Ltl, Prop};
/// use holistic_ta::parse_ta;
///
/// let ta = parse_ta(
///     "automaton echo {
///          params n, t, f;
///          shared e;
///          resilience n > 3t, t >= f, f >= 0;
///          processes n - f;
///          initial V;
///          final D;
///          rule send: V -> D when true do e += 1;
///      }",
/// )?;
/// let v = ta.location_by_name("V").unwrap();
/// // Termination: eventually everyone has sent (left V).
/// let spec = Ltl::eventually(Ltl::state(Prop::loc_empty(v)));
/// let checker = Checker::new();
/// let report = checker.check_ltl(&ta, &spec, &Justice::from_rules(&ta))?;
/// assert!(report.verdict().is_verified());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Checker {
    config: CheckerConfig,
    /// Cross-property exploration cache; clones share it, so checking
    /// several properties through clones of one checker still reuses
    /// recorded explorations.
    cache: Arc<ExplorationCache>,
}

impl Checker {
    /// A checker with default configuration.
    pub fn new() -> Checker {
        Checker::default()
    }

    /// A checker with explicit configuration.
    pub fn with_config(config: CheckerConfig) -> Checker {
        Checker {
            config,
            cache: Arc::new(ExplorationCache::new()),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CheckerConfig {
        &self.config
    }

    /// The number of recorded explorations in the shared cache.
    pub fn cached_explorations(&self) -> usize {
        self.cache.len()
    }

    /// The shared cross-property exploration cache, for inspecting what
    /// the checked properties recorded (e.g. the learned core patterns,
    /// [`ExplorationCache::cores_for`]).
    pub fn exploration_cache(&self) -> &ExplorationCache {
        &self.cache
    }

    /// Checks an LTL property of the automaton for **all** parameter
    /// valuations admitted by the resilience condition, under the given
    /// justice assumption (used by liveness queries only).
    ///
    /// # Errors
    ///
    /// [`CheckError`] when the automaton or formula is outside the
    /// supported class; budget problems surface as
    /// [`Verdict::Unknown`] instead.
    pub fn check_ltl(
        &self,
        ta: &ThresholdAutomaton,
        formula: &Ltl,
        justice: &Justice,
    ) -> Result<CheckReport, CheckError> {
        let start = Instant::now();
        // One wall-clock budget for the whole call, shared by all
        // conjunct queries.
        let deadline = self.config.time_budget.map(|b| start + b);
        ta.validate()?;
        if !ta.is_dag() {
            return Err(CheckError::NotDag);
        }
        let queries = classify(ta, formula)?;
        let mut reports = Vec::with_capacity(queries.len());
        for q in &queries {
            reports.push(self.run_query(ta, q, justice, deadline)?);
        }
        Ok(CheckReport {
            queries: reports,
            duration: start.elapsed(),
        })
    }

    /// Checks a single pre-classified query.
    ///
    /// # Errors
    ///
    /// See [`check_ltl`](Checker::check_ltl).
    pub fn check_query(
        &self,
        ta: &ThresholdAutomaton,
        query: &Query,
        justice: &Justice,
    ) -> Result<QueryReport, CheckError> {
        ta.validate()?;
        if !ta.is_dag() {
            return Err(CheckError::NotDag);
        }
        let deadline = self.config.time_budget.map(|b| Instant::now() + b);
        self.run_query(ta, query, justice, deadline)
    }

    fn run_query(
        &self,
        ta: &ThresholdAutomaton,
        query: &Query,
        justice: &Justice,
        deadline: Option<Instant>,
    ) -> Result<QueryReport, CheckError> {
        let _span = holistic_obs::span("checker.query");
        let start = Instant::now();
        let plan = QueryPlan::new(ta, query, justice);
        // The context vocabulary is the automaton's rule guards: schema
        // contexts decide their truth at the tail, so justice and tail
        // propositions over them partially evaluate into plain
        // conjunctions. (Threshold atoms that appear only in the
        // property/justice — e.g. BV-Obligation's `b0 ≥ t+1` — stay
        // symbolic: adding them to the vocabulary would blow up the
        // schedule lattice for no pruning gain.)
        let info = GuardInfo::analyse(ta)?;
        self.run_dfs(ta, &info, &plan, start, deadline)
    }

    /// Resolves the worker-thread count for the schedule DFS.
    fn thread_count(&self) -> usize {
        self.config
            .threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1)
    }

    /// Depth-first schedule exploration with incremental feasibility
    /// pruning: a schedule prefix whose base constraints are already
    /// unsatisfiable cannot support any extension (extensions only add
    /// constraints), so its whole subtree is skipped.
    ///
    /// With [`CheckerConfig::share_exploration`] on, feasibility
    /// verdicts flow through the cross-property [`ExplorationCache`]:
    /// an identical base encoding is *replayed* (no feasibility checks
    /// at all), a weaker recorded base *prunes* infeasible subtrees,
    /// and when neither exists a *skeleton* exploration of the weakest
    /// base is recorded first so every later property of the automaton
    /// has something to hit.
    fn run_dfs(
        &self,
        ta: &ThresholdAutomaton,
        info: &GuardInfo,
        plan: &QueryPlan,
        start: Instant,
        deadline: Option<Instant>,
    ) -> Result<QueryReport, CheckError> {
        let copies = plan.witnesses.len() + 1;
        let key = ExplorationKey::new(ta, &plan.globally_empty, &plan.initially, copies);
        // The base exploration is part of this query's work: fold its
        // core patterns and its solver work into the query's statistics.
        let mut skeleton_cores_learned = 0u64;
        let mut skeleton_pruned_by_core = 0u64;
        let mut solver = SolverStats::default();
        let mode = if self.config.share_exploration {
            if let Some(exp) = self.cache.replayable(&key) {
                CacheMode::Replay(exp)
            } else {
                let mut pruner = self.cache.pruner_for(&key);
                if pruner.is_none() && key != key.base() {
                    // Nothing recorded for this automaton yet: explore
                    // its *base* once — the skeleton at ONE segment
                    // copy, the most transferable recording possible
                    // (see [`ExplorationKey::base`]). Single-copy
                    // queries of the automaton replay or prune against
                    // it directly; multi-copy queries inherit its
                    // feasible verdicts (they transfer upward in
                    // copies) and its core patterns (copies-
                    // independent), leaving only the residual
                    // infeasible checks the patterns miss. Shares the
                    // query's deadline; a truncated base still prunes,
                    // it just isn't replayable.
                    let trivially = Prop::True;
                    let spec = ExploreSpec {
                        ta,
                        info,
                        globally_empty: &[],
                        initially: &trivially,
                        query: None,
                        copies: 1,
                        deadline,
                        mode: CacheMode::Record { pruner: None },
                    };
                    let out = {
                        let _span = holistic_obs::span("checker.skeleton");
                        self.explore(&spec)?
                    };
                    let covered = out.fully_covered();
                    skeleton_cores_learned = out.cores_learned;
                    skeleton_pruned_by_core = out.pruned_by_core;
                    solver = out.solver;
                    self.cache.insert(out.recorder.finish(key.base(), covered));
                    pruner = self.cache.pruner_for(&key);
                }
                CacheMode::Record { pruner }
            }
        } else {
            CacheMode::Off
        };
        let replayed = matches!(mode, CacheMode::Replay(_));
        let record = matches!(mode, CacheMode::Record { .. });
        let spec = ExploreSpec {
            ta,
            info,
            globally_empty: &plan.globally_empty,
            initially: &plan.initially,
            query: Some(plan),
            copies,
            deadline,
            mode,
        };
        let out = self.explore(&spec)?;
        if record {
            let covered = out.fully_covered();
            self.cache.insert(out.recorder.finish(key, covered));
        }
        solver.merge(&out.solver);

        let stats = QueryStats {
            schemas: out.schemas,
            avg_segments: if out.schemas == 0 {
                0.0
            } else {
                out.total_segments as f64 / out.schemas as f64
            },
            duration: start.elapsed(),
            solver,
            cache_hits: out.cache_hits,
            cache_misses: out.cache_misses,
            replayed,
            cores_learned: skeleton_cores_learned + out.cores_learned,
            schemas_pruned_by_core: skeleton_pruned_by_core + out.pruned_by_core,
            threads: out.threads,
        };
        let verdict = if let Some((_, ce)) = out.violation {
            // A violation found before the budget ran out is still a
            // violation: time pressure never weakens a verdict we have.
            Verdict::Violated(Box::new(ce))
        } else if out.timed_out {
            Verdict::Unknown(UnknownReason::TimeBudget {
                budget: self.config.time_budget.unwrap_or_default(),
                schemas: out.schemas,
            })
        } else if out.capped {
            Verdict::Unknown(UnknownReason::SchemaCap {
                cap: self.config.max_schemas,
            })
        } else if let Some(reason) = out.unknown {
            Verdict::Unknown(reason)
        } else {
            Verdict::Verified
        };
        Ok(QueryReport { verdict, stats })
    }

    /// Runs one lattice exploration (skeleton or full query) over the
    /// work-stealing pool and merges the per-worker outcomes
    /// deterministically.
    fn explore(&self, spec: &ExploreSpec<'_>) -> Result<ExploreOutcome, CheckError> {
        let threads = self.thread_count();

        // The queue is a LIFO stack; push seeds reversed so they are
        // taken in ascending order.
        let seeds: Vec<Vec<u64>> = spec
            .info
            .initial_contexts()
            .into_iter()
            .rev()
            .map(|c| vec![c])
            .collect();

        // The shared core-pattern set, present only while recording
        // with core pruning enabled: seeded with the patterns carried
        // by every applicable recorded exploration, and extended
        // concurrently as workers learn new certificates.
        let cores = match &spec.mode {
            CacheMode::Record { pruner } if self.config.core_pruning => Some(RwLock::new(
                pruner
                    .as_ref()
                    .map(|p| p.core_patterns())
                    .unwrap_or_default(),
            )),
            _ => None,
        };

        let ex = Explore {
            checker: self,
            spec,
            threads,
            cores,
            probed: Mutex::new(HashSet::new()),
            query_probes: Mutex::new(HashMap::new()),
            schemas: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            pending: AtomicUsize::new(seeds.len()),
            idle: AtomicUsize::new(0),
            queue: Mutex::new(seeds),
            available: Condvar::new(),
            error: Mutex::new(None),
            chaos_ticks: AtomicU64::new(0),
        };

        // A worker panic (a checker bug, or injected chaos) must not
        // abort the whole exploration — let alone a whole matrix run.
        // Each worker body runs under `catch_unwind`; a panic poisons
        // only that worker's recording (`saw_unknown`, so it is never
        // replayed as complete) and degrades the verdict to
        // [`UnknownReason::WorkerPanic`].
        fn run_isolated(w: &mut Worker<'_>) {
            let ex = w.ex;
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| w.run())) {
                w.unknown
                    .get_or_insert(UnknownReason::WorkerPanic(panic_message(payload.as_ref())));
                w.recorder.saw_unknown = true;
                // The in-flight task's `pending` slot was never released
                // and partial results are untrustworthy: stop the
                // exploration and wake any workers parked on the queue
                // so the pool drains instead of deadlocking.
                ex.stop.store(true, Ordering::SeqCst);
                let _guard = ex.queue.lock().unwrap_or_else(|p| p.into_inner());
                ex.available.notify_all();
            }
        }

        let explore_span = holistic_obs::span("checker.explore");
        let explore_id = explore_span.id();
        let mut workers: Vec<Worker<'_>> = Vec::with_capacity(threads);
        if threads == 1 {
            // Fully sequential: no pool, byte-deterministic.
            let _span = holistic_obs::span("checker.worker");
            let mut w = Worker::new(&ex);
            run_isolated(&mut w);
            workers.push(w);
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            // Worker spans live on pool threads; parent
                            // them under this exploration's span.
                            let _adopt = holistic_obs::adopt(explore_id);
                            let _span = holistic_obs::span("checker.worker");
                            let mut w = Worker::new(&ex);
                            run_isolated(&mut w);
                            w
                        })
                    })
                    .collect();
                // Joining in spawn order keeps the merge deterministic
                // for everything summed; order-sensitive fields are
                // canonicalized below. Panics never propagate here —
                // `run_isolated` caught them inside the closure.
                for h in handles {
                    workers.push(h.join().expect("worker closures do not panic"));
                }
            });
        }
        if let Some(e) = ex.error.lock().unwrap().take() {
            return Err(e);
        }

        let mut out = ExploreOutcome {
            schemas: 0,
            total_segments: 0,
            capped: false,
            timed_out: false,
            violation: None,
            unknown: None,
            cache_hits: 0,
            cache_misses: 0,
            cores_learned: 0,
            pruned_by_core: 0,
            solver: SolverStats::default(),
            recorder: Recorder::new(),
            threads,
        };
        for w in workers {
            out.schemas += w.schemas;
            out.total_segments += w.total_segments;
            out.capped |= w.capped;
            out.timed_out |= w.timed_out;
            out.cache_hits += w.cache_hits;
            out.cache_misses += w.cache_misses;
            out.cores_learned += w.cores_learned;
            out.pruned_by_core += w.pruned_by_core;
            out.solver.merge(&w.solver);
            out.recorder.merge(w.recorder);
            // Canonical violation: the chain earliest in DFS preorder
            // wins, regardless of which worker found it first.
            match (&out.violation, w.violation) {
                (None, Some(v)) => out.violation = Some(v),
                (Some(cur), Some(v)) if v.0 < cur.0 => out.violation = Some(v),
                _ => {}
            }
            out.unknown = out.unknown.or(w.unknown);
        }
        Ok(out)
    }
}

/// How feasibility verdicts interact with the exploration cache during
/// one lattice exploration.
enum CacheMode {
    /// No cache: every verdict is a fresh SMT check.
    Off,
    /// Fresh exploration, recorded for later queries; recorded weaker
    /// bases (aggregated over every overlapping banned-location set)
    /// prune infeasible subtrees.
    Record { pruner: Option<Pruner> },
    /// A complete recording under the identical key: feasibility is
    /// answered entirely from it.
    Replay(Arc<Exploration>),
}

/// Everything one lattice exploration needs, bundled.
struct ExploreSpec<'a> {
    ta: &'a ThresholdAutomaton,
    info: &'a GuardInfo,
    globally_empty: &'a [LocationId],
    initially: &'a Prop,
    /// `None` runs a skeleton pass: feasibility only, no per-prefix
    /// query checks.
    query: Option<&'a QueryPlan>,
    copies: usize,
    deadline: Option<Instant>,
    mode: CacheMode,
}

/// Shared state of one exploration's work-stealing pool.
struct Explore<'a> {
    checker: &'a Checker,
    spec: &'a ExploreSpec<'a>,
    threads: usize,
    /// Global schema counter (the cap is a property of the whole
    /// exploration, not of one worker).
    schemas: AtomicUsize,
    stop: AtomicBool,
    /// Tasks queued *or running*; when it reaches zero the exploration
    /// is drained.
    pending: AtomicUsize,
    /// Workers currently waiting for work — the signal that makes busy
    /// workers donate subtrees instead of recursing into them.
    idle: AtomicUsize,
    /// Core patterns shared by all workers of this exploration: read
    /// on every extension attempt, written when a worker distills a
    /// fresh certificate. `None` disables core pruning (replay mode,
    /// cache off, or [`CheckerConfig::core_pruning`] = false).
    cores: Option<RwLock<CorePatternSet>>,
    /// Extension steps `(prev, newly)` whose two-segment abstraction
    /// has already been probed for a core pattern (successfully or
    /// not), so each distinct step pays for at most one probe per
    /// exploration.
    probed: Mutex<HashSet<(u64, u64)>>,
    /// Memoized query-probe verdicts by final context: `true` means the
    /// aggregated one-segment system under that context already refutes
    /// the query, so every schema ending there can skip its per-schema
    /// query check (see [`Worker::query_pruned`]).
    query_probes: Mutex<HashMap<u64, bool>>,
    /// Pending subtree roots (context chains), LIFO.
    queue: Mutex<Vec<Vec<u64>>>,
    available: Condvar,
    error: Mutex<Option<CheckError>>,
    /// Global feasibility-decision counter driving
    /// [`ChaosConfig::panic_every`] (shared across workers so the Nth
    /// decision panics exactly once per exploration regardless of
    /// scheduling).
    chaos_ticks: AtomicU64,
}

/// Merged result of one exploration.
struct ExploreOutcome {
    schemas: usize,
    total_segments: usize,
    capped: bool,
    timed_out: bool,
    violation: Option<(Vec<u64>, Counterexample)>,
    unknown: Option<UnknownReason>,
    cache_hits: u64,
    cache_misses: u64,
    cores_learned: u64,
    pruned_by_core: u64,
    solver: SolverStats,
    recorder: Recorder,
    threads: usize,
}

impl ExploreOutcome {
    /// Whether the whole lattice received definite feasibility verdicts
    /// (nothing stopped the exploration early) — the precondition for a
    /// replayable recording.
    fn fully_covered(&self) -> bool {
        self.violation.is_none() && !self.capped && !self.timed_out
    }
}

/// One worker of the exploration pool: owns its encoding, statistics,
/// and recording; everything is merged after the pool drains.
struct Worker<'a> {
    ex: &'a Explore<'a>,
    schemas: usize,
    total_segments: usize,
    capped: bool,
    timed_out: bool,
    violation: Option<(Vec<u64>, Counterexample)>,
    unknown: Option<UnknownReason>,
    cache_hits: u64,
    cache_misses: u64,
    cores_learned: u64,
    pruned_by_core: u64,
    recorder: Recorder,
    solver: SolverStats,
}

impl<'a> Worker<'a> {
    fn new(ex: &'a Explore<'a>) -> Worker<'a> {
        Worker {
            ex,
            schemas: 0,
            total_segments: 0,
            capped: false,
            timed_out: false,
            violation: None,
            unknown: None,
            cache_hits: 0,
            cache_misses: 0,
            cores_learned: 0,
            pruned_by_core: 0,
            recorder: Recorder::new(),
            solver: SolverStats::default(),
        }
    }

    /// The worker main loop: steal a subtree root, explore it
    /// depth-first (donating sub-subtrees whenever other workers go
    /// hungry), repeat until the lattice is drained or the exploration
    /// stops. The root's segments reach the encoding only when a check
    /// needs them (see [`Worker::sync`]).
    fn run(&mut self) {
        let ex = self.ex;
        let mut enc = self.fresh_encoding();
        while let Some(mut chain) = self.next_task() {
            let r = self.recurse(&mut enc, &mut chain);
            Self::truncate(&mut enc, 0);
            if let Err(e) = r {
                ex.error.lock().unwrap().get_or_insert(e);
                ex.stop.store(true, Ordering::SeqCst);
            }
            if self.violation.is_some() || self.capped || self.timed_out {
                ex.stop.store(true, Ordering::SeqCst);
            }
            let drained = ex.pending.fetch_sub(1, Ordering::SeqCst) == 1;
            if drained || ex.stop.load(Ordering::SeqCst) {
                // Wake everyone so idle workers can exit.
                let _guard = ex.queue.lock().unwrap();
                ex.available.notify_all();
            }
        }
        self.solver.merge(&enc.solver_stats());
        self.publish();
    }

    /// Publishes this worker's accumulated statistics to the global
    /// [`holistic_obs`] metrics registry, once, on the worker's own
    /// thread at the end of its run. Counter totals therefore equal the
    /// cross-worker merge [`Checker::explore`] performs — the
    /// reconciliation tests rely on this equality.
    fn publish(&self) {
        holistic_obs::add("checker.schemas", self.schemas as u64);
        holistic_obs::add("checker.segments", self.total_segments as u64);
        holistic_obs::add("checker.cache_hits", self.cache_hits);
        holistic_obs::add("checker.cache_misses", self.cache_misses);
        holistic_obs::add("checker.cores_learned", self.cores_learned);
        holistic_obs::add("checker.schemas_pruned_by_core", self.pruned_by_core);
        self.solver.publish();
    }

    /// A fresh encoding holding only the base assertions (no segments).
    fn fresh_encoding(&self) -> Encoding<'a> {
        let spec = self.ex.spec;
        // The query deadline reaches into the solver so a pathological
        // tableau is interrupted mid-pivot instead of overshooting the
        // budget by the length of one unbounded simplex run.
        let mut solver = self.ex.checker.config.solver;
        solver.deadline = spec.deadline;
        let mut enc = Encoding::new(spec.ta, spec.info, spec.globally_empty, solver);
        enc.assert_prop_at(spec.initially, 0);
        enc
    }

    /// Brings `enc` up to `chain` before a check that needs it: pushes
    /// the contexts it does not hold yet, one push group each. Only
    /// fresh feasibility checks and query checks call this, so prefixes
    /// that are replayed or answered by the cache build no rows.
    fn sync(&self, enc: &mut Encoding<'a>, chain: &[u64]) {
        let pushed = enc.num_pushes();
        if pushed == chain.len() {
            return;
        }
        let _span = holistic_obs::span("checker.push");
        for &ctx in &chain[pushed..] {
            enc.push_segments(ctx, self.ex.spec.copies);
        }
    }

    /// Pops `enc` back to the first `len` contexts of its chain; a
    /// context that was never pushed has nothing to pop.
    fn truncate(enc: &mut Encoding<'_>, len: usize) {
        if enc.num_pushes() <= len {
            return;
        }
        let _span = holistic_obs::span("checker.pop");
        while enc.num_pushes() > len {
            enc.pop_segments();
        }
    }

    /// Blocks until a task is available, the exploration stops, or the
    /// lattice is drained (queue empty with nothing running).
    fn next_task(&self) -> Option<Vec<u64>> {
        let ex = self.ex;
        let mut queue = ex.queue.lock().unwrap();
        loop {
            if ex.stop.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(t) = queue.pop() {
                return Some(t);
            }
            if ex.pending.load(Ordering::SeqCst) == 0 {
                return None;
            }
            ex.idle.fetch_add(1, Ordering::SeqCst);
            queue = ex.available.wait(queue).unwrap();
            ex.idle.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Hands a subtree root to the pool instead of recursing into it.
    fn donate(&self, chain: &[u64]) {
        let ex = self.ex;
        ex.pending.fetch_add(1, Ordering::SeqCst);
        let mut queue = ex.queue.lock().unwrap();
        queue.push(chain.to_vec());
        ex.available.notify_one();
    }

    /// Resolves this prefix's feasibility: the no-solver pruning of
    /// [`Worker::prune_before_push`] first, then the verdicts that keep
    /// a chain (a replayed feasible verdict, a transferred witness), and
    /// a fresh SMT check otherwise. Returns whether to keep exploring
    /// (feasible, or unknown — which cannot justify pruning).
    fn feasibility(&mut self, enc: &mut Encoding<'a>, chain: &[u64]) -> bool {
        if self.prune_before_push(chain) {
            return false;
        }
        match &self.ex.spec.mode {
            CacheMode::Replay(exp) if exp.verdict(chain) == Some(true) => {
                self.cache_hits += 1;
                true
            }
            CacheMode::Record { pruner } => {
                if pruner.as_ref().is_some_and(|p| p.feasible_chain(chain)) {
                    // Feasible under a stronger base with no more
                    // copies ⇒ the recorded witness transfers here.
                    self.cache_hits += 1;
                    self.recorder.record(chain, true);
                    true
                } else {
                    let feasible = self.smt_feasibility(enc, chain, true);
                    if !feasible {
                        self.try_learn_core(chain);
                    }
                    feasible
                }
            }
            // Complete recordings cover every reachable chain, but a
            // replay falls back safely rather than trust that invariant.
            CacheMode::Replay(_) | CacheMode::Off => self.smt_feasibility(enc, chain, false),
        }
    }

    /// No-solver pruning of an extension *before* its segments are
    /// pushed: a replayed infeasible verdict, transferred
    /// infeasibility, and learned core patterns all decide on the chain
    /// alone, so consulting them first saves the dominant per-extension
    /// cost (pushing and later popping `copies` segments of tableau
    /// rows) for every pruned subtree. Counts and records only when it
    /// prunes, so [`Worker::feasibility`], which calls it first, can
    /// ask again for a chain that passed here.
    fn prune_before_push(&mut self, chain: &[u64]) -> bool {
        match &self.ex.spec.mode {
            CacheMode::Replay(exp) => {
                if exp.verdict(chain) == Some(false) {
                    self.cache_hits += 1;
                    return true;
                }
            }
            CacheMode::Record { pruner } => {
                if pruner.as_ref().is_some_and(|p| p.prunes_chain(chain)) {
                    // Infeasible under a weaker base ⇒ infeasible here.
                    self.cache_hits += 1;
                    self.recorder.record(chain, false);
                    return true;
                }
                if self.core_prunes(chain) {
                    // A learned core pattern subsumes this extension:
                    // some certificate proves no chain with these
                    // contexts can newly unlock this guard set. Record
                    // the verdict so replay behaves identically.
                    self.cache_hits += 1;
                    self.pruned_by_core += 1;
                    self.recorder.record(chain, false);
                    return true;
                }
            }
            CacheMode::Off => {}
        }
        false
    }

    /// Whether a learned core pattern subsumes this chain's final
    /// extension step (previous context ⊆ some pattern mask, pattern
    /// delta ⊆ the newly unlocked set, pattern held ⊆ previous
    /// context).
    fn core_prunes(&self, chain: &[u64]) -> bool {
        let Some(cores) = &self.ex.cores else {
            return false;
        };
        let last = *chain.last().expect("chain is never empty");
        let prev = if chain.len() >= 2 {
            chain[chain.len() - 2]
        } else {
            0
        };
        cores.read().unwrap().prunes(prev, last & !prev)
    }

    /// After a fresh `Unsat`, tries to distill a generalized core
    /// pattern from the refuted extension step `(prev, newly)` and
    /// publishes it: to the shared in-exploration set (so sibling
    /// workers prune immediately) and to the recorder (so it persists
    /// with the exploration and transfers to later queries).
    ///
    /// Rather than projecting the refuted chain's own certificate —
    /// whose core is usually pinned to chain-specific constraints even
    /// when the generalized pattern holds — the step is re-refuted on
    /// the smallest encoding the pattern semantics quantifies over (see
    /// [`Worker::probe_core_pattern`]). Each distinct `(prev, newly)`
    /// pair is probed at most once per exploration, shared across
    /// workers; every failure mode — feasible abstraction, no
    /// certificate, disallowed provenance — just declines to learn.
    fn try_learn_core(&mut self, chain: &[u64]) {
        if self.ex.cores.is_none() {
            return;
        }
        let last = *chain.last().expect("chain is never empty");
        let prev = if chain.len() >= 2 {
            chain[chain.len() - 2]
        } else {
            0
        };
        let newly = last & !prev;
        if newly == 0 || !self.ex.probed.lock().unwrap().insert((prev, newly)) {
            return;
        }
        let Some((mask, held, delta)) = self.probe_core_pattern(prev, newly) else {
            return;
        };
        debug_assert_eq!(
            mask, prev,
            "pattern mask must be the refuted step's prefix context"
        );
        debug_assert_eq!(
            held & !prev,
            0,
            "held guards must come from the refuted step's prefix context"
        );
        debug_assert_eq!(
            delta & !newly,
            0,
            "pattern delta must lie within the refuted step's newly unlocked guards"
        );
        let cores = self.ex.cores.as_ref().expect("checked above");
        if cores.write().unwrap().insert(mask, held, delta) {
            self.recorder.record_core(mask, held, delta);
            self.cores_learned += 1;
        }
    }

    /// Whether the per-schema query check of the current prefix is
    /// discharged by the **aggregated query probe** of its final
    /// context `F`: a fresh system with the same parameters, initial
    /// distribution, and query asserts, but the whole run collapsed
    /// into a single segment available under `F`.
    ///
    /// Any run of any schema ending at `F` fires only rules available
    /// under contexts `⊆ F` (contexts grow monotonically along a
    /// chain), so its full firing multiset aggregates into the probe's
    /// one segment with identical initial and final boundary values —
    /// the same argument as [`Encoding::probe_core_pattern`]. Every
    /// query constraint evaluates on those boundaries: `Unsat` for the
    /// probe therefore refutes the query for *every* schema ending at
    /// `F`, however long. Restricted to plans without unstable
    /// witnesses (mid-run boundary disjunctions do not aggregate into
    /// one segment) — exactly the liveness tails whose per-schema
    /// checks dominate. A `Sat` or `Unknown` probe proves nothing and
    /// each schema keeps its own check, so verdicts and counterexamples
    /// are untouched either way; probed once per final context per
    /// exploration.
    fn query_pruned(&mut self, ctx: u64, plan: &QueryPlan) -> bool {
        if !self.ex.checker.config.core_pruning || !plan.witnesses.is_empty() {
            return false;
        }
        if let Some(&pruned) = self.ex.query_probes.lock().unwrap().get(&ctx) {
            return pruned;
        }
        let _span = holistic_obs::span("checker.query_probe");
        let started = Instant::now();
        let spec = self.ex.spec;
        let mut probe = self.fresh_encoding();
        probe.push_probe_segment(ctx);
        probe.push_query();
        probe.assert_tail_exact();
        plan.assert_query(&mut probe, spec.info);
        let pruned = matches!(probe.check(), SatResult::Unsat);
        self.merge_probe_stats(&probe, started);
        self.ex.query_probes.lock().unwrap().insert(ctx, pruned);
        pruned
    }

    /// Runs [`Encoding::probe_core_pattern`] for an extension step on a
    /// fresh base encoding.
    fn probe_core_pattern(&mut self, prev: u64, newly: u64) -> Option<(u64, u64, u64)> {
        let _span = holistic_obs::span("checker.core_probe");
        let started = Instant::now();
        let mut enc = self.fresh_encoding();
        let pattern = enc.probe_core_pattern(prev, newly);
        self.merge_probe_stats(&enc, started);
        pattern
    }

    /// Folds a probe encoding's full solver statistics into this
    /// worker's, so its checks, pivots and splits reach the report and
    /// the registry alike. The probe is certificate machinery, so its
    /// whole wall time since `started` counts as `core_micros`.
    fn merge_probe_stats(&mut self, probe: &Encoding<'_>, started: Instant) {
        let mut s = probe.solver_stats();
        s.core_micros = started.elapsed().as_micros() as u64;
        self.solver.merge(&s);
    }

    fn smt_feasibility(&mut self, enc: &mut Encoding<'a>, chain: &[u64], record: bool) -> bool {
        self.sync(enc, chain);
        let _span = holistic_obs::span("checker.feasibility");
        self.cache_misses += 1;
        match enc.check() {
            SatResult::Sat(_) => {
                if record {
                    self.recorder.record(chain, true);
                }
                true
            }
            SatResult::Unsat => {
                if record {
                    self.recorder.record(chain, false);
                }
                false
            }
            SatResult::Unknown(reason) => {
                // Cannot prune, cannot trust: leave the chain without a
                // verdict and keep exploring extensions conservatively.
                self.recorder.saw_unknown = true;
                self.unknown.get_or_insert(UnknownReason::Solver(reason));
                true
            }
        }
    }

    /// Explores the subtree rooted at `chain`, whose last context is
    /// the current node. `enc` holds some prefix of `chain`'s segments
    /// (see [`Worker::sync`]); on return it holds at most `chain.len()`
    /// push groups.
    fn recurse(&mut self, enc: &mut Encoding<'a>, chain: &mut Vec<u64>) -> Result<(), CheckError> {
        let ex = self.ex;
        let spec = ex.spec;
        if ex.stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        if ex.schemas.load(Ordering::Relaxed) >= ex.checker.config.max_schemas {
            self.capped = true;
            return Ok(());
        }
        // The budget is checked once per schema: between checks the
        // longest uninterruptible stretch is a single SMT query, itself
        // bounded by the solver's budgets — so exhaustion degrades to
        // `Unknown` promptly instead of hanging.
        if spec.deadline.is_some_and(|d| Instant::now() >= d) {
            self.timed_out = true;
            return Ok(());
        }
        // Chaos hook: fault injection at the point a buggy guard
        // evaluation would strike. Exercised by the worker-isolation
        // regression tests and the CI chaos-smoke job.
        let chaos = ex.checker.config.chaos;
        if chaos.panic_every > 0 {
            let tick = ex.chaos_ticks.fetch_add(1, Ordering::SeqCst) + 1;
            if tick.is_multiple_of(chaos.panic_every) {
                panic!("injected chaos panic at feasibility decision {tick}");
            }
        }
        // Feasibility pruning: if the base constraints of the prefix are
        // unsatisfiable, so is every extension.
        if !self.feasibility(enc, chain) {
            return Ok(());
        }
        // Workers race past the cheap check above; the reservation is
        // what keeps the schema count within the cap.
        if ex.schemas.fetch_add(1, Ordering::Relaxed) >= ex.checker.config.max_schemas {
            self.capped = true;
            return Ok(());
        }
        self.schemas += 1;
        self.total_segments += chain.len() * spec.copies;

        // Query check on this prefix: the prefix is the whole run, so
        // the final context is authoritative for the tail. A skeleton
        // pass has no query — it only maps the feasible frontier.
        let ctx = *chain.last().expect("chain is never empty");
        if let Some(plan) = spec.query {
            if self.query_pruned(ctx, plan) {
                // The aggregated probe for this final context already
                // refutes the query: no schema ending here can violate
                // it, so the per-schema check is dischargeable.
                self.pruned_by_core += 1;
            } else {
                self.sync(enc, chain);
                let query_span = holistic_obs::span("checker.query_check");
                enc.push_query();
                enc.assert_tail_exact();
                plan.assert_query(enc, spec.info);
                let result = enc.check();
                enc.pop_query();
                drop(query_span);
                match result {
                    SatResult::Sat(model) => {
                        let run = enc.extract(&model);
                        self.violation =
                            Some((chain.clone(), Counterexample::replay(spec.ta, &run)?));
                        return Ok(());
                    }
                    SatResult::Unsat => {}
                    SatResult::Unknown(reason) => {
                        self.unknown.get_or_insert(UnknownReason::Solver(reason));
                    }
                }
            }
        }

        // Extensions in the lattice's ascending order, so DFS preorder
        // equals the lexicographic chain order the cache replays in.
        for next in spec.info.extensions(ctx) {
            chain.push(next);
            let pruned = self.prune_before_push(chain);
            chain.pop();
            if pruned {
                continue;
            }
            if ex.threads > 1
                && ex.idle.load(Ordering::Relaxed) > 0
                && !ex.stop.load(Ordering::Relaxed)
            {
                // Someone is hungry: hand the subtree over instead
                // of walking it (its feasibility is checked by the
                // taker).
                chain.push(next);
                self.donate(chain);
                chain.pop();
            } else {
                chain.push(next);
                let r = self.recurse(enc, chain);
                chain.pop();
                Self::truncate(enc, chain.len());
                r?;
                if self.violation.is_some()
                    || self.capped
                    || self.timed_out
                    || ex.stop.load(Ordering::Relaxed)
                {
                    return Ok(());
                }
            }
        }
        Ok(())
    }
}

/// The violation constraints shared by both strategies.
struct QueryPlan {
    globally_empty: Vec<LocationId>,
    initially: Prop,
    /// Unstable witnesses: must be asserted at *some* boundary, and each
    /// needs a dedicated segment split.
    witnesses: Vec<Prop>,
    /// Stable witnesses: once true they stay true, so asserting them at
    /// the final boundary is equivalent to `somewhere` — far cheaper (no
    /// boundary disjunction, no extra segment copies).
    stable_witnesses: Vec<Prop>,
    tail: Option<Prop>,
}

impl QueryPlan {
    fn new(ta: &ThresholdAutomaton, query: &Query, justice: &Justice) -> QueryPlan {
        match query {
            Query::Safety {
                globally_empty,
                initially,
                witnesses,
            } => {
                let (stable, unstable): (Vec<Prop>, Vec<Prop>) = witnesses
                    .iter()
                    .cloned()
                    .partition(|w| stability::is_stable(ta, w));
                QueryPlan {
                    globally_empty: globally_empty.clone(),
                    initially: initially.clone(),
                    witnesses: unstable,
                    stable_witnesses: stable,
                    tail: None,
                }
            }
            Query::Liveness {
                globally_empty,
                initially,
                tail,
            } => QueryPlan {
                globally_empty: globally_empty.clone(),
                initially: initially.clone(),
                witnesses: Vec::new(),
                stable_witnesses: Vec::new(),
                tail: Some(Prop::and([tail.clone(), justice.as_prop()])),
            },
        }
    }

    /// Asserts the witness/tail constraints of one schema prefix (called
    /// by the DFS at every feasible prefix).
    ///
    /// Propositions evaluated at the final boundary are first partially
    /// evaluated against the final context (sound because
    /// [`Encoding::assert_tail_exact`] pins the truth of every
    /// vocabulary guard at the tail): this collapses the justice
    /// conjunction's `¬cond ∨ empty` disjunctions into linear
    /// constraints, avoiding exponential case splitting.
    fn assert_query(&self, enc: &mut Encoding<'_>, info: &GuardInfo) {
        // Register the query skeleton on first contact with this
        // encoding (once per encoding); later asserts replay the
        // cached per-boundary encodings and only translate the
        // boundaries added since.
        if enc.num_query_props() < self.witnesses.len() {
            for w in &self.witnesses {
                enc.register_query_prop(w);
            }
        }
        for slot in 0..self.witnesses.len() {
            enc.assert_query_prop_somewhere(slot);
        }
        let final_ctx = enc.final_context();
        let resolve = move |g: &holistic_ta::AtomicGuard| -> Option<bool> {
            let ctx = final_ctx?;
            let gi = info.index_of(g)?;
            Some(ctx & (1 << gi) != 0)
        };
        let last = enc.num_boundaries() - 1;
        for w in &self.stable_witnesses {
            let w = w.resolve_guards(&resolve);
            enc.assert_prop_at(&w, last);
        }
        if let Some(tail) = &self.tail {
            let tail = tail.resolve_guards(&resolve);
            enc.assert_prop_at(&tail, last);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_lia::UnknownReason as Solver;

    #[test]
    fn unknown_reasons_display_their_messages() {
        let cases = [
            (
                UnknownReason::WorkerPanic("boom".to_owned()),
                "worker panic: boom",
            ),
            (
                UnknownReason::TimeBudget {
                    budget: Duration::from_millis(1500),
                    schemas: 3,
                },
                "time budget of 1.5s exhausted after 3 schemas",
            ),
            (
                UnknownReason::SchemaCap { cap: 100 },
                "schedule DFS exceeded the cap of 100 schemas",
            ),
            (
                UnknownReason::Solver(Solver::BranchBudget),
                "branch-and-bound node budget exhausted",
            ),
            (
                UnknownReason::Solver(Solver::SplitBudget),
                "case-split budget exhausted",
            ),
            (
                UnknownReason::Solver(Solver::RatOverflow),
                "rational arithmetic overflowed i128",
            ),
            (
                UnknownReason::Solver(Solver::Deadline),
                "wall-clock deadline expired mid-check",
            ),
        ];
        for (reason, text) in cases {
            assert_eq!(reason.to_string(), text);
        }
    }
}
