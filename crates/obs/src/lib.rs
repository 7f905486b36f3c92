//! # holistic-obs — structured observability for the verification stack
//!
//! A zero-dependency span/metrics layer shared by the checker, the LIA
//! solver, the exploration cache, the supervisor and the bench harness.
//! Two design constraints shape everything here:
//!
//! * **Disabled mode is a near-no-op.** The layer is gated by one
//!   process-global [`AtomicBool`]; every instrumentation point pays a
//!   single relaxed load when tracing is off. The perf-smoke CI gate
//!   holds the instrumented binary to within a few percent of the
//!   committed baseline, so this is enforced, not aspirational.
//! * **Enabling tracing is verdict-inert.** Nothing in this crate feeds
//!   back into the instrumented computation: spans and counters are
//!   write-only from the pipeline's point of view. The
//!   `exploration_equivalence` suite pins tracing-on ≡ tracing-off down
//!   to byte-identical verdicts and counterexamples.
//!
//! ## Spans
//!
//! [`span`] opens a timed region closed by RAII drop. Records buffer in
//! a thread-local [`Vec`] and flush to a lock-striped global collector
//! (on buffer pressure, when an [`adopt`] guard drops and on thread
//! exit), so hot paths never contend on a global lock. Span ids are
//! *stable*: each thread owns a dense sequence embedded under its
//! thread index, so id order equals open order per thread and ids never
//! collide across threads. Parent links come from the opening thread's
//! span stack; worker threads inherit a cross-thread parent via
//! [`adopt`], so an exploration's worker spans hang off the exploration
//! span that spawned them.
//!
//! ## Metrics
//!
//! [`add`] bumps a named monotonic counter in a process-global
//! registry. The counters mirror the legacy `SolverStats`/`QueryStats` aggregates at their
//! exact accumulation sites — the `obs_reconciliation` suite asserts the
//! registry totals equal the hand-threaded stats to the last event, so
//! neither pipeline can silently drift or double-count across threads.
//!
//! ## Snapshots
//!
//! [`drain`] flushes the calling thread and takes every buffered span
//! plus a counter snapshot. [`reset`] clears all global state
//! and invalidates still-buffered records from earlier runs (tests use
//! it to isolate measurements). Spans that are open across a `reset`
//! are discarded on close rather than corrupting the next snapshot.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod profile;

/// Lock stripes of the global span collector; threads map to stripes by
/// index, so the sequential checker and a handful of workers never
/// share one.
const STRIPES: usize = 8;

/// Thread-local records buffered before a flush to the collector.
const FLUSH_AT: usize = 256;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

/// Whether the observability layer is recording. One relaxed load —
/// this is the *entire* cost of every instrumentation point in disabled
/// mode.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide. Flipping the gate never
/// affects instrumented computations, only whether they are observed.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// The process-global monotonic clock all span timestamps are relative
/// to (microseconds since the first observability call).
fn clock() -> Instant {
    static CLOCK: OnceLock<Instant> = OnceLock::new();
    *CLOCK.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    clock().elapsed().as_micros() as u64
}

/// One closed span: a named, timed region with a parent link.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Stable id: dense per-thread sequence under the thread index, so
    /// per-thread id order is per-thread open order.
    pub id: u64,
    /// The enclosing span's id (`0` = root, no parent).
    pub parent: u64,
    /// Observability thread index (dense, assigned at first use).
    pub thread: u32,
    /// Static span name (`checker.feasibility`, `lia.check`, …).
    pub name: &'static str,
    /// Dynamic detail, e.g. the property a `checker.cell` span ran
    /// (empty when the name says it all).
    pub label: String,
    /// Open time, microseconds since the process trace clock started.
    pub start_us: u64,
    /// Close − open, microseconds.
    pub dur_us: u64,
}

struct Collector {
    stripes: Vec<Mutex<Vec<SpanRecord>>>,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        stripes: (0..STRIPES).map(|_| Mutex::new(Vec::new())).collect(),
    })
}

/// Thread-local tracing state: span stack, adopted cross-thread parent
/// and the pending record buffer.
struct ThreadTrace {
    epoch: u64,
    thread: u32,
    next_seq: u64,
    stack: Vec<u64>,
    adopted: u64,
    buf: Vec<SpanRecord>,
}

impl ThreadTrace {
    fn new() -> ThreadTrace {
        ThreadTrace {
            epoch: EPOCH.load(Ordering::SeqCst),
            thread: NEXT_THREAD.fetch_add(1, Ordering::SeqCst),
            next_seq: 0,
            stack: Vec::new(),
            adopted: 0,
            buf: Vec::new(),
        }
    }

    /// Drops state recorded before the last [`reset`]: stale records
    /// must never leak into the next snapshot.
    fn sync_epoch(&mut self) {
        let epoch = EPOCH.load(Ordering::Relaxed);
        if self.epoch != epoch {
            self.epoch = epoch;
            self.buf.clear();
            self.stack.clear();
            self.adopted = 0;
        }
    }

    fn alloc_id(&mut self) -> u64 {
        self.next_seq += 1;
        // Thread index in the high bits, sequence in the low 40: ids
        // stay unique across threads and below 2^53 (f64-exact for the
        // JSONL trace) for any realistic thread/span count.
        ((self.thread as u64 + 1) << 40) | self.next_seq
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if self.epoch != EPOCH.load(Ordering::Relaxed) {
            self.buf.clear();
            return;
        }
        let stripe = self.thread as usize % STRIPES;
        let mut dst = collector().stripes[stripe]
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        dst.append(&mut self.buf);
    }
}

impl Drop for ThreadTrace {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static TLS: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::new());
}

/// An open span, closed (recorded) on drop. Obtained from [`span`] /
/// [`span_labeled`]; inert when tracing was disabled at open.
#[must_use = "a span measures the region until it is dropped"]
pub struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    label: String,
    start_us: u64,
    epoch: u64,
    armed: bool,
}

impl Span {
    /// The span id, for cross-thread parent adoption via [`adopt`].
    /// `0` when the span is inert (tracing disabled at open).
    pub fn id(&self) -> u64 {
        if self.armed {
            self.id
        } else {
            0
        }
    }
}

fn open_span(name: &'static str, label: String) -> Span {
    if !enabled() {
        return Span {
            id: 0,
            parent: 0,
            name,
            label: String::new(),
            start_us: 0,
            epoch: 0,
            armed: false,
        };
    }
    TLS.with(|tls| {
        let mut t = tls.borrow_mut();
        t.sync_epoch();
        let id = t.alloc_id();
        let parent = t.stack.last().copied().unwrap_or(t.adopted);
        t.stack.push(id);
        Span {
            id,
            parent,
            name,
            label,
            start_us: now_us(),
            epoch: t.epoch,
            armed: true,
        }
    })
}

/// Opens a span; the region closes when the returned guard drops.
#[inline]
pub fn span(name: &'static str) -> Span {
    open_span(name, String::new())
}

/// Opens a span with a dynamic label (e.g. the property being checked).
#[inline]
pub fn span_labeled(name: &'static str, label: &str) -> Span {
    if !enabled() {
        return Span {
            id: 0,
            parent: 0,
            name,
            label: String::new(),
            start_us: 0,
            epoch: 0,
            armed: false,
        };
    }
    open_span(name, label.to_owned())
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end_us = now_us();
        TLS.with(|tls| {
            let mut t = tls.borrow_mut();
            // A reset between open and close invalidates the record.
            if t.epoch != self.epoch || EPOCH.load(Ordering::Relaxed) != self.epoch {
                t.sync_epoch();
                return;
            }
            // Tolerate out-of-order drops (shouldn't happen with RAII,
            // but a missing id must not corrupt the stack).
            if let Some(pos) = t.stack.iter().rposition(|&id| id == self.id) {
                t.stack.truncate(pos);
            }
            let thread = t.thread;
            t.buf.push(SpanRecord {
                id: self.id,
                parent: self.parent,
                thread,
                name: self.name,
                label: std::mem::take(&mut self.label),
                start_us: self.start_us,
                dur_us: end_us.saturating_sub(self.start_us),
            });
            if t.buf.len() >= FLUSH_AT {
                t.flush();
            }
        });
    }
}

/// The current span id on this thread (innermost open span, or the
/// adopted cross-thread parent, or `0`). Pass it to [`adopt`] on a
/// worker thread so the worker's spans parent here.
pub fn current() -> u64 {
    if !enabled() {
        return 0;
    }
    TLS.with(|tls| {
        let mut t = tls.borrow_mut();
        t.sync_epoch();
        t.stack.last().copied().unwrap_or(t.adopted)
    })
}

/// Guard restoring the previously adopted parent on drop.
#[must_use = "adoption lasts until the guard is dropped"]
pub struct Adopt {
    prev: u64,
    epoch: u64,
    armed: bool,
}

/// Adopts `parent` (a span id from [`current`] on another thread) as
/// the parent of this thread's root-level spans until the guard drops.
pub fn adopt(parent: u64) -> Adopt {
    if !enabled() || parent == 0 {
        return Adopt {
            prev: 0,
            epoch: 0,
            armed: false,
        };
    }
    TLS.with(|tls| {
        let mut t = tls.borrow_mut();
        t.sync_epoch();
        let prev = t.adopted;
        t.adopted = parent;
        Adopt {
            prev,
            epoch: t.epoch,
            armed: true,
        }
    })
}

impl Drop for Adopt {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        TLS.with(|tls| {
            let mut t = tls.borrow_mut();
            if t.epoch == self.epoch {
                t.adopted = self.prev;
            }
            // A worker's adoption ends with its work: hand its spans to
            // the collector now. `std::thread::scope` can return before
            // a finished thread's thread-local destructor runs, so the
            // exit-time flush alone can miss a `drain` right after a
            // pool joins.
            t.flush();
        });
    }
}

/// A monotonic counter in the global metrics registry.
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` (unconditionally — the [`enabled`] gate lives in
    /// [`add`]; hold a `&'static Counter` to skip the registry lookup).
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

struct Registry {
    counters: Mutex<Vec<(&'static str, &'static Counter)>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
    })
}

/// The counter registered under `name` (registered on first use; the
/// set of names is static, so the one-time leak is bounded).
pub fn counter(name: &'static str) -> &'static Counter {
    let mut counters = registry()
        .counters
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    if let Some((_, c)) = counters.iter().find(|(n, _)| *n == name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter {
        value: AtomicU64::new(0),
    }));
    counters.push((name, c));
    c
}

/// Adds `n` to the named counter — a no-op unless [`enabled`] (and when
/// `n == 0`, so zero contributions don't register phantom counters).
#[inline]
pub fn add(name: &'static str, n: u64) {
    if enabled() && n > 0 {
        counter(name).add(n);
    }
}

/// The named counter's current total (`0` when never bumped).
pub fn counter_value(name: &str) -> u64 {
    let counters = registry()
        .counters
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, c)| c.get())
}

/// Everything recorded since the last [`reset`]: closed spans (all
/// threads) and counter totals.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Closed spans, sorted by `(thread, id)` — per-thread open order.
    pub spans: Vec<SpanRecord>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
}

/// Flushes the calling thread's buffered records to the collector.
/// Worker threads flush implicitly when their [`Adopt`] guard drops and
/// on exit; the main thread calls this (via [`drain`]) before
/// exporting.
pub fn flush() {
    TLS.with(|tls| tls.borrow_mut().flush());
}

/// Flushes the calling thread, then takes every buffered span and
/// snapshots the metrics registry. Spans still buffered on *other live
/// threads* are not included — the pipeline's worker threads adopt
/// their pool's span and flush when that adoption ends, before the pool
/// joins, so a drain after a run observes everything.
pub fn drain() -> Snapshot {
    flush();
    let mut spans = Vec::new();
    for stripe in &collector().stripes {
        let mut s = stripe.lock().unwrap_or_else(|p| p.into_inner());
        spans.append(&mut s);
    }
    spans.sort_by_key(|s| (s.thread, s.id));
    let counters = {
        let reg = registry()
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let mut v: Vec<(String, u64)> = reg
            .iter()
            .map(|(n, c)| ((*n).to_owned(), c.get()))
            .collect();
        v.sort();
        v
    };
    Snapshot { spans, counters }
}

/// Clears all recorded state: collector stripes, counters,
/// and (lazily, via an epoch bump) every thread's local buffers and
/// adopted parents. Tests call this between measured runs.
pub fn reset() {
    EPOCH.fetch_add(1, Ordering::SeqCst);
    for stripe in &collector().stripes {
        stripe.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }
    {
        let counters = registry()
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        for (_, c) in counters.iter() {
            c.value.store(0, Ordering::Relaxed);
        }
    }
    TLS.with(|tls| tls.borrow_mut().sync_epoch());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Obs state is process-global; serialize the tests that toggle it.
    fn lock() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock();
        reset();
        set_enabled(false);
        {
            let _s = span("off.outer");
            add("off.counter", 3);
        }
        let snap = drain();
        assert!(snap.spans.iter().all(|s| s.name != "off.outer"));
        assert_eq!(counter_value("off.counter"), 0);
    }

    #[test]
    fn spans_nest_and_link_parents() {
        let _g = lock();
        reset();
        set_enabled(true);
        {
            let _outer = span("t.outer");
            {
                let _inner = span_labeled("t.inner", "detail");
            }
        }
        set_enabled(false);
        let snap = drain();
        let outer = snap.spans.iter().find(|s| s.name == "t.outer").unwrap();
        let inner = snap.spans.iter().find(|s| s.name == "t.inner").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.label, "detail");
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us + 1);
    }

    #[test]
    fn worker_threads_adopt_and_flush_on_exit() {
        let _g = lock();
        reset();
        set_enabled(true);
        let parent_id;
        {
            let parent = span("t.pool");
            parent_id = parent.id();
            let adopt_id = current();
            assert_eq!(adopt_id, parent_id);
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    scope.spawn(move || {
                        let _adopt = adopt(adopt_id);
                        let _w = span("t.worker");
                        add("t.worker_count", 1);
                    });
                }
            });
        }
        set_enabled(false);
        let snap = drain();
        let workers: Vec<_> = snap.spans.iter().filter(|s| s.name == "t.worker").collect();
        assert_eq!(workers.len(), 3);
        for w in &workers {
            assert_eq!(w.parent, parent_id, "worker spans parent the pool span");
        }
        assert_eq!(counter_value("t.worker_count"), 3);
        // Ids are unique and per-thread monotone in open order.
        let mut ids: Vec<u64> = snap.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), snap.spans.len());
    }

    #[test]
    fn adopt_drop_flushes_before_the_thread_exits() {
        let _g = lock();
        reset();
        set_enabled(true);
        let parent = span("t.pool");
        let parent_id = parent.id();
        let barrier = std::sync::Barrier::new(2);
        let snap = std::thread::scope(|scope| {
            scope.spawn(|| {
                {
                    let _adopt = adopt(parent_id);
                    let _w = span("t.adopted_worker");
                }
                // Stay alive, thread-local buffer intact, until the
                // main thread has drained.
                barrier.wait();
                barrier.wait();
            });
            barrier.wait();
            let snap = drain();
            barrier.wait();
            snap
        });
        drop(parent);
        set_enabled(false);
        let workers: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "t.adopted_worker")
            .collect();
        assert_eq!(workers.len(), 1, "the worker span reached the collector");
        assert_eq!(workers[0].parent, parent_id);
    }

    #[test]
    fn reset_discards_open_spans_and_counters() {
        let _g = lock();
        reset();
        set_enabled(true);
        add("t.stale", 7);
        let open = span("t.stale_span");
        reset(); // invalidates both the counter and the open span
        drop(open);
        add("t.fresh", 2);
        set_enabled(false);
        let snap = drain();
        assert!(snap.spans.iter().all(|s| s.name != "t.stale_span"));
        assert_eq!(counter_value("t.stale"), 0);
        assert_eq!(counter_value("t.fresh"), 2);
    }
}
