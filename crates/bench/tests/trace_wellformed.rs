//! Well-formedness of the `--trace` JSONL document emitted by
//! `table2_bench`.
//!
//! Runs the real binary (quick mode, one thread, bv-broadcast only) and
//! validates the structural invariants the trace format promises:
//!
//! * every line parses as a standalone JSON object, and the `meta`
//!   header's record counts match the actual line counts;
//! * every span id is unique — a span is closed exactly once;
//! * every nonzero `parent` refers to a span that exists in the trace;
//! * per thread, `start_us` is monotone in span-id order (ids encode
//!   the open order);
//! * there is exactly one root `bench.run` span and it covers at least
//!   95% of the reported wall time — the `--profile` coverage claim,
//!   checked against the raw records.

use std::collections::{HashMap, HashSet};
use std::process::Command;

use holistic_bench::json::Json;

struct Span {
    id: u64,
    parent: u64,
    thread: u64,
    name: String,
    start_us: u64,
    dur_us: u64,
}

fn field(json: &Json, key: &str) -> u64 {
    json.get(key)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("missing numeric field {key}")) as u64
}

#[test]
fn trace_document_is_well_formed() {
    let dir = std::env::temp_dir().join(format!("holistic_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out_path = dir.join("bench.json");
    let trace_path = dir.join("trace.jsonl");

    let output = Command::new(env!("CARGO_BIN_EXE_table2_bench"))
        .args([
            "--quick",
            "--threads",
            "1",
            "--automaton",
            "bv-broadcast",
            "--out",
            out_path.to_str().unwrap(),
            "--trace",
            trace_path.to_str().unwrap(),
            "--profile",
        ])
        .output()
        .expect("table2_bench runs");
    assert!(
        output.status.success(),
        "table2_bench failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let doc = std::fs::read_to_string(&trace_path).expect("trace written");
    let lines: Vec<&str> = doc.lines().collect();
    assert!(lines.len() > 1, "trace must have a meta line plus records");

    let mut spans: Vec<Span> = Vec::new();
    let mut counters = 0usize;
    let meta = Json::parse(lines[0]).expect("meta line parses");
    assert_eq!(meta.get("type").unwrap().as_str(), Some("meta"));
    assert_eq!(field(&meta, "schema_version"), 2, "trace schema version");
    let wall_us = field(&meta, "wall_us");

    for line in &lines[1..] {
        let json = Json::parse(line).unwrap_or_else(|e| panic!("unparsable line {line}: {e}"));
        match json.get("type").and_then(|t| t.as_str()) {
            Some("span") => spans.push(Span {
                id: field(&json, "id"),
                parent: field(&json, "parent"),
                thread: field(&json, "thread"),
                name: json.get("name").unwrap().as_str().unwrap().to_owned(),
                start_us: field(&json, "start_us"),
                dur_us: field(&json, "dur_us"),
            }),
            Some("counter") => counters += 1,
            other => panic!("unknown record type {other:?} in {line}"),
        }
    }

    // The meta header's counts describe the document exactly.
    assert_eq!(field(&meta, "spans"), spans.len() as u64, "meta span count");
    assert_eq!(field(&meta, "counters"), counters as u64);

    // Closed exactly once: ids are unique.
    let ids: HashSet<u64> = spans.iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), spans.len(), "duplicate span id: closed twice");

    // Every declared parent exists in the document.
    for s in &spans {
        assert!(
            s.parent == 0 || ids.contains(&s.parent),
            "span {} ({}) has dangling parent {}",
            s.id,
            s.name,
            s.parent
        );
        assert!(
            s.start_us.saturating_add(s.dur_us) <= wall_us.saturating_add(wall_us / 10),
            "span {} ({}) extends implausibly past the wall",
            s.id,
            s.name
        );
    }

    // Per thread, ids encode open order, so start_us must be monotone
    // in id order.
    let mut by_thread: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in &spans {
        by_thread.entry(s.thread).or_default().push(s);
    }
    for (thread, mut list) in by_thread {
        list.sort_by_key(|s| s.id);
        for pair in list.windows(2) {
            assert!(
                pair[0].start_us <= pair[1].start_us,
                "thread {thread}: span {} opened after {} but starts earlier",
                pair[1].id,
                pair[0].id
            );
        }
    }

    // Exactly one root, and it accounts for ≥95% of the wall time.
    let roots: Vec<&Span> = spans.iter().filter(|s| s.name == "bench.run").collect();
    assert_eq!(roots.len(), 1, "exactly one bench.run root span");
    let root = roots[0];
    assert_eq!(root.parent, 0, "the root has no parent");
    assert!(
        root.dur_us as f64 >= 0.95 * wall_us as f64,
        "root span covers {}µs of {wall_us}µs wall (< 95%)",
        root.dur_us
    );

    // The --profile report printed alongside makes the same claim.
    let stdout = String::from_utf8(output.stdout).expect("utf-8 profile");
    let coverage_line = stdout
        .lines()
        .find(|l| l.contains("root-span coverage"))
        .unwrap_or_else(|| panic!("no coverage line in profile:\n{stdout}"));
    let pct: f64 = coverage_line
        .rsplit_once("coverage ")
        .and_then(|(_, tail)| tail.trim_end_matches('%').parse().ok())
        .unwrap_or_else(|| panic!("unparsable coverage line: {coverage_line}"));
    assert!(pct >= 95.0, "profile reports {pct}% coverage (< 95%)");

    // The spans the checker actually wires must be present.
    for expected in [
        "checker.cell",
        "checker.query",
        "checker.explore",
        "lia.check",
    ] {
        assert!(
            spans.iter().any(|s| s.name == expected),
            "no {expected} span in the trace"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
