//! Trace serialization and profile rendering for bench binaries.
//!
//! The [`holistic_obs`] collector is dependency-free and cannot see the
//! repo's JSON emitter (it sits below the checker in the crate graph),
//! so the JSONL trace writer and the human-readable `--profile` table
//! live here, next to the binaries that expose the flags.
//!
//! The trace format is one JSON object per line (JSONL), parseable by
//! [`holistic_core::json::Json::parse`] line-by-line:
//!
//! * a `meta` header: schema version, wall time, record counts;
//! * one `span` line per closed span (`id`, `parent`, `thread`,
//!   `name`, `label`, `start_us`, `dur_us`);
//! * one `counter` line per registry counter.
//!
//! Span ids are below 2^53, so every field survives the f64 number
//! round-trip of the hand-rolled parser.

use std::fmt::Write as _;

use holistic_core::json::Writer;
use holistic_obs::{profile, Snapshot};

/// Trace schema version, bumped on any incompatible line change.
pub const TRACE_SCHEMA_VERSION: u64 = 2;

/// Serializes a drained snapshot as a JSONL trace document.
pub fn write_trace(snapshot: &Snapshot, wall_us: u64, generated_by: &str) -> String {
    let mut out = String::new();
    let mut meta = Writer::compact();
    meta.begin_obj()
        .field_str("type", "meta")
        .field_u64("schema_version", TRACE_SCHEMA_VERSION)
        .field_str("generated_by", generated_by)
        .field_u64("wall_us", wall_us)
        .field_u64("spans", snapshot.spans.len() as u64)
        .field_u64("counters", snapshot.counters.len() as u64)
        .end_obj();
    out.push_str(&meta.finish());
    out.push('\n');
    for s in &snapshot.spans {
        let mut w = Writer::compact();
        w.begin_obj()
            .field_str("type", "span")
            .field_u64("id", s.id)
            .field_u64("parent", s.parent)
            .field_u64("thread", s.thread as u64)
            .field_str("name", s.name)
            .field_str("label", &s.label)
            .field_u64("start_us", s.start_us)
            .field_u64("dur_us", s.dur_us)
            .end_obj();
        out.push_str(&w.finish());
        out.push('\n');
    }
    for (name, value) in &snapshot.counters {
        let mut w = Writer::compact();
        w.begin_obj()
            .field_str("type", "counter")
            .field_str("name", name)
            .field_u64("value", *value)
            .end_obj();
        out.push_str(&w.finish());
        out.push('\n');
    }
    out
}

/// Human-readable duration: `987µs`, `12.345ms`, `1.234s`.
fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.3}ms", us as f64 / 1e3)
    } else {
        format!("{:.3}s", us as f64 / 1e6)
    }
}

fn profile_table(out: &mut String, rows: &[profile::Row]) {
    let _ = writeln!(
        out,
        "{:<28} {:>8} {:>12} {:>12}",
        "phase", "count", "total", "self"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12} {:>12}",
            r.key,
            r.count,
            fmt_us(r.total_us),
            fmt_us(r.self_us)
        );
    }
}

/// Renders the hierarchical `--profile` report: per-phase self/total
/// time, per-property time (from `checker.cell` labels), the longest
/// span of each phase, and the non-zero registry counters.
pub fn render_profile(snapshot: &Snapshot, wall_us: u64, top: usize) -> String {
    let mut out = String::new();
    let coverage = profile::coverage(snapshot, wall_us);
    let _ = writeln!(
        out,
        "profile: {} spans on {} thread(s), wall {}, root-span coverage {:.1}%",
        snapshot.spans.len(),
        snapshot
            .spans
            .iter()
            .map(|s| s.thread)
            .collect::<std::collections::HashSet<_>>()
            .len()
            .max(1),
        fmt_us(wall_us),
        coverage * 100.0
    );
    out.push('\n');
    profile_table(&mut out, &profile::by_name(snapshot));

    let per_property = profile::by_label(snapshot, "checker.cell");
    if !per_property.is_empty() {
        out.push('\n');
        let _ = writeln!(out, "per property (checker.cell)");
        profile_table(&mut out, &per_property);
    }

    let slowest = profile::slowest(snapshot, top);
    if !slowest.is_empty() {
        out.push('\n');
        let _ = writeln!(out, "top spans (longest of each phase, top {top})");
        for s in &slowest {
            let _ = writeln!(
                out,
                "{:<28} {:>12}  thread {}{}",
                s.name,
                fmt_us(s.dur_us),
                s.thread,
                if s.label.is_empty() {
                    String::new()
                } else {
                    format!("  [{}]", s.label)
                }
            );
        }
    }

    let counters: Vec<_> = snapshot.counters.iter().filter(|(_, v)| *v > 0).collect();
    if !counters.is_empty() {
        out.push('\n');
        let _ = writeln!(out, "counters");
        for (name, value) in counters {
            let _ = writeln!(out, "{name:<36} {value:>12}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_core::json::Json;
    use holistic_obs::SpanRecord;

    fn sample() -> Snapshot {
        Snapshot {
            spans: vec![
                SpanRecord {
                    id: 1,
                    parent: 0,
                    thread: 0,
                    name: "bench.run",
                    label: String::new(),
                    start_us: 0,
                    dur_us: 1000,
                },
                SpanRecord {
                    id: 2,
                    parent: 1,
                    thread: 0,
                    name: "checker.cell",
                    label: "BV-Just0".into(),
                    start_us: 10,
                    dur_us: 900,
                },
            ],
            counters: vec![
                ("checker.schemas".to_owned(), 6),
                ("lia.checks".to_owned(), 0),
            ],
        }
    }

    #[test]
    fn trace_lines_parse_individually() {
        let doc = write_trace(&sample(), 1000, "test");
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 1 + 2 + 2);
        for line in &lines {
            Json::parse(line).unwrap_or_else(|e| panic!("unparsable line {line}: {e}"));
        }
        let meta = Json::parse(lines[0]).unwrap();
        assert_eq!(meta.get("type").unwrap().as_str(), Some("meta"));
        assert_eq!(meta.get("wall_us").unwrap().as_f64(), Some(1000.0));
        let span = Json::parse(lines[1]).unwrap();
        assert_eq!(span.get("name").unwrap().as_str(), Some("bench.run"));
    }

    #[test]
    fn profile_reports_coverage_and_labels() {
        let text = render_profile(&sample(), 1000, 5);
        assert!(text.contains("coverage 100.0%"), "{text}");
        assert!(text.contains("bench.run"), "{text}");
        assert!(text.contains("BV-Just0"), "{text}");
        assert!(text.contains("checker.schemas"), "{text}");
        assert!(!text.contains("lia.checks"), "zero counters hidden: {text}");
    }
}
