//! Hierarchical self/child time aggregation over a span [`Snapshot`].
//!
//! The profile view answers "where did the wall time go" from the raw
//! span records: per span *name* (a phase — `lia.check`,
//! `checker.feasibility`, …) it reports how many spans closed, their
//! cumulative duration, and the cumulative *self* time (duration minus
//! the duration of direct children). For spans whose children run on
//! worker threads in parallel, child time can exceed the parent's wall
//! time; self time saturates at zero rather than going negative.

use std::collections::HashMap;

use crate::{Snapshot, SpanRecord};

/// Aggregated timing for one span name (or one label of a name).
#[derive(Clone, Debug)]
pub struct Row {
    /// Span name, or label for [`by_label`] rows.
    pub key: String,
    /// Number of closed spans aggregated.
    pub count: u64,
    /// Cumulative span duration, microseconds.
    pub total_us: u64,
    /// Cumulative self time (duration minus direct children),
    /// microseconds, saturating at zero per span.
    pub self_us: u64,
}

/// Duration of each span's direct children, by span id.
fn child_time(spans: &[SpanRecord]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *children.entry(s.parent).or_insert(0) += s.dur_us;
        }
    }
    children
}

fn aggregate<K: Fn(&SpanRecord) -> Option<String>>(snapshot: &Snapshot, key: K) -> Vec<Row> {
    let children = child_time(&snapshot.spans);
    let mut rows: HashMap<String, Row> = HashMap::new();
    for s in &snapshot.spans {
        let Some(k) = key(s) else { continue };
        let child = children.get(&s.id).copied().unwrap_or(0);
        let row = rows.entry(k.clone()).or_insert(Row {
            key: k,
            count: 0,
            total_us: 0,
            self_us: 0,
        });
        row.count += 1;
        row.total_us += s.dur_us;
        row.self_us += s.dur_us.saturating_sub(child);
    }
    let mut rows: Vec<Row> = rows.into_values().collect();
    rows.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.key.cmp(&b.key)));
    rows
}

/// Per-phase rows (aggregated by span name), longest total first, name
/// as the deterministic tiebreak.
pub fn by_name(snapshot: &Snapshot) -> Vec<Row> {
    aggregate(snapshot, |s| Some(s.name.to_owned()))
}

/// Per-label rows of one span name (e.g. per property for
/// `checker.cell` spans), longest total first.
pub fn by_label(snapshot: &Snapshot, name: &str) -> Vec<Row> {
    aggregate(snapshot, |s| (s.name == name).then(|| s.label.clone()))
}

/// The single longest span of each name — the "top spans" list,
/// longest first, capped at `top`.
pub fn slowest(snapshot: &Snapshot, top: usize) -> Vec<SpanRecord> {
    let mut best: HashMap<&'static str, SpanRecord> = HashMap::new();
    for s in &snapshot.spans {
        match best.get(s.name) {
            Some(b) if b.dur_us >= s.dur_us => {}
            _ => {
                best.insert(s.name, s.clone());
            }
        }
    }
    let mut spans: Vec<SpanRecord> = best.into_values().collect();
    spans.sort_by(|a, b| b.dur_us.cmp(&a.dur_us).then(a.name.cmp(b.name)));
    spans.truncate(top);
    spans
}

/// Microseconds of `wall_us` attributable to root spans (spans with no
/// parent), as a fraction of `wall_us` in `0.0..=1.0`. The bench root
/// span is opened around the whole run, so a healthy trace attributes
/// ≥95% here.
pub fn coverage(snapshot: &Snapshot, wall_us: u64) -> f64 {
    if wall_us == 0 {
        return 0.0;
    }
    let rooted: u64 = snapshot
        .spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.dur_us)
        .sum();
    (rooted as f64 / wall_us as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            thread: 0,
            name,
            label: String::new(),
            start_us: start,
            dur_us: dur,
        }
    }

    fn sample() -> Snapshot {
        Snapshot {
            spans: vec![
                rec(1, 0, "run", 0, 100),
                rec(2, 1, "phase_a", 0, 60),
                rec(3, 2, "inner", 5, 20),
                rec(4, 1, "phase_b", 60, 30),
            ],
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let rows = by_name(&sample());
        let get = |k: &str| rows.iter().find(|r| r.key == k).unwrap();
        assert_eq!(get("run").total_us, 100);
        assert_eq!(get("run").self_us, 10); // 100 - 60 - 30
        assert_eq!(get("phase_a").self_us, 40); // 60 - 20
        assert_eq!(get("inner").self_us, 20);
        assert_eq!(rows[0].key, "run", "longest total first");
    }

    #[test]
    fn coverage_counts_root_spans_only() {
        let c = coverage(&sample(), 100);
        assert!((c - 1.0).abs() < 1e-9);
        assert_eq!(coverage(&sample(), 0), 0.0);
    }

    #[test]
    fn slowest_keeps_one_span_per_name() {
        let mut snap = sample();
        snap.spans.push(rec(5, 1, "phase_a", 90, 5));
        let top = slowest(&snap, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].name, "run");
        assert_eq!(top[1].name, "phase_a");
        assert_eq!(top[1].dur_us, 60, "the longer phase_a span wins");
    }
}
