//! Cross-property matrix scheduler.
//!
//! A verification *matrix* (the paper's Table 2) checks many properties
//! over a few automata. Intra-property parallelism runs dry quickly —
//! most properties prune against the exploration cache and finish in
//! milliseconds, while the two dominant simplified-consensus
//! properties dominate the tail. This module schedules *whole
//! properties* as tasks on a small work-stealing pool: idle workers
//! pull the next unstarted property, so `Inv1_0` and `SRoundTerm`
//! overlap instead of serializing.
//!
//! Safe to share: the [`ExplorationCache`](crate::ExplorationCache) is
//! lock-striped, and feasibility verdicts are cache-*independent* — a
//! property's verdict, schema count, and counterexample are identical
//! whether its exploration pruned against a recording or ran fresh.
//! Scheduling therefore affects only wall time and cache-hit counters,
//! never results; `tests/exploration_equivalence.rs` pins this.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use holistic_lia::SolverStats;
use holistic_ltl::{Justice, Ltl};
use holistic_ta::ThresholdAutomaton;

use crate::checker::{
    panic_message, CheckError, CheckReport, Checker, QueryReport, QueryStats, UnknownReason,
    Verdict,
};

/// One cell of the verification matrix: a property of one automaton
/// under one justice assumption.
pub struct MatrixJob<'a> {
    /// The automaton to check.
    pub ta: &'a ThresholdAutomaton,
    /// The LTL property.
    pub spec: &'a Ltl,
    /// The justice assumption for liveness reduction.
    pub justice: &'a Justice,
    /// Human-readable cell name (the property label). Only used as the
    /// label of the cell's `checker.cell` tracing span, so `--profile`
    /// can attribute time per property; empty is fine.
    pub label: &'a str,
}

impl Checker {
    /// Checks every job of the matrix, running up to `workers` whole
    /// properties concurrently, and returns the reports in job order
    /// (deterministic regardless of completion order).
    ///
    /// `workers <= 1` degenerates to the inline sequential walk — byte
    /// for byte the same behavior as calling
    /// [`check_ltl`](Checker::check_ltl) in a loop.
    pub fn check_matrix(
        &self,
        jobs: &[MatrixJob<'_>],
        workers: usize,
    ) -> Vec<Result<CheckReport, CheckError>> {
        pull_next(jobs.len(), workers, |i| self.check_cell(&jobs[i]))
    }

    /// Checks one matrix cell with panic isolation: a panic anywhere in
    /// the cell's exploration (including inside the intra-property DFS
    /// pool) is translated into a per-cell
    /// [`UnknownReason::WorkerPanic`] report instead of aborting the
    /// whole matrix run.
    pub fn check_cell(&self, job: &MatrixJob<'_>) -> Result<CheckReport, CheckError> {
        let _span = holistic_obs::span_labeled("checker.cell", job.label);
        let start = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| {
            self.check_ltl(job.ta, job.spec, job.justice)
        })) {
            Ok(r) => r,
            Err(payload) => Ok(panicked_report(
                panic_message(payload.as_ref()),
                start.elapsed(),
            )),
        }
    }
}

/// Runs `job(i)` for every `i` in `0..n` on up to `workers` threads,
/// each idle worker pulling the next unstarted index, and returns the
/// results in index order whatever the completion order. Workers parent
/// their spans under the caller's current span. `workers <= 1` runs the
/// jobs inline, in order.
pub fn pull_next<T: Send>(n: usize, workers: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(job).collect();
    }
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let parent = holistic_obs::current();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let _adopt = holistic_obs::adopt(parent);
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                let r = job(i);
                *results[i].lock().expect("no job panics holding its slot") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no job panics holding its slot")
                .expect("every job slot is filled")
        })
        .collect()
}

/// A synthetic report for a cell whose worker panicked: one query with
/// an `Unknown` verdict carrying the panic message and zeroed stats.
fn panicked_report(message: String, duration: Duration) -> CheckReport {
    CheckReport {
        queries: vec![QueryReport {
            verdict: Verdict::Unknown(UnknownReason::WorkerPanic(message)),
            stats: QueryStats {
                schemas: 0,
                avg_segments: 0.0,
                duration,
                solver: SolverStats::default(),
                cache_hits: 0,
                cache_misses: 0,
                cores_learned: 0,
                schemas_pruned_by_core: 0,
                threads: 1,
            },
        }],
        duration,
    }
}
