//! Golden-output test for the `--profile` report format.
//!
//! Pins `docs/profile_sample_output.txt` against
//! [`holistic_bench::trace::render_profile`] on a fixed synthetic
//! snapshot, so formatting regressions (dropped sections, renamed
//! columns, changed alignment) are caught. Duration tokens are
//! normalized to `<T>` — the sample stays valid if the duration
//! renderer changes its rounding — and space runs collapse, same
//! convention as `table2_golden.rs`.
//!
//! Regenerate after an intentional format change with:
//!
//! ```sh
//! HOLISTIC_REGEN=1 cargo test -p holistic-bench --test profile_golden
//! ```

use holistic_bench::trace::render_profile;
use holistic_obs::{Snapshot, SpanRecord};

/// Whether a token is a rendered duration (`237µs`, `12.345ms`,
/// `1.234s`).
fn is_duration(token: &str) -> bool {
    for unit in ["µs", "us", "ms", "s"] {
        if let Some(prefix) = token.strip_suffix(unit) {
            if !prefix.is_empty()
                && prefix.chars().all(|c| c.is_ascii_digit() || c == '.')
                && prefix.chars().any(|c| c.is_ascii_digit())
            {
                return true;
            }
        }
    }
    false
}

/// Duration tokens → `<T>`, space runs collapsed, lines trimmed.
fn normalize(report: &str) -> String {
    let mut out = String::new();
    for line in report.lines() {
        let tokens: Vec<String> = line
            .split_whitespace()
            .map(|t| {
                if is_duration(t) {
                    "<T>".to_owned()
                } else {
                    t.to_owned()
                }
            })
            .collect();
        out.push_str(&tokens.join(" "));
        out.push('\n');
    }
    out
}

fn span(
    id: u64,
    parent: u64,
    thread: u32,
    name: &'static str,
    label: &str,
    start_us: u64,
    dur_us: u64,
) -> SpanRecord {
    SpanRecord {
        id,
        parent,
        thread,
        name,
        label: label.to_owned(),
        start_us,
        dur_us,
    }
}

/// A miniature but structurally complete run: a root, two labeled
/// properties, nested query/solver work on two threads and counters —
/// every section of the report renders.
fn sample() -> Snapshot {
    Snapshot {
        spans: vec![
            span(1, 0, 0, "bench.run", "", 0, 200_000),
            span(2, 1, 0, "checker.cell", "BV-Just0", 100, 120_000),
            span(3, 2, 0, "checker.query", "", 200, 119_000),
            span(4, 3, 0, "lia.check", "", 300, 40_000),
            span(5, 3, 0, "lia.check", "", 41_000, 30_000),
            span(6, 1, 0, "checker.cell", "BV-Term", 121_000, 70_000),
            span(7, 6, 0, "checker.query", "", 121_100, 69_000),
            span(8, 7, 1, "checker.worker", "", 121_200, 60_000),
            span(9, 8, 1, "lia.check", "", 122_000, 800),
            span(10, 8, 1, "checker.push", "", 123_000, 5_000),
        ],
        counters: vec![
            ("cache.pruner_miss".to_owned(), 0),
            ("checker.cache_hits".to_owned(), 105),
            ("checker.cores_learned".to_owned(), 2),
            ("checker.schemas".to_owned(), 136),
            ("lia.checks".to_owned(), 3),
            ("lia.pivot_entries".to_owned(), 75_052),
        ],
    }
}

#[test]
fn profile_report_matches_the_golden_sample() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/profile_sample_output.txt"
    );
    let actual = normalize(&render_profile(&sample(), 205_000, 5));

    if std::env::var("HOLISTIC_REGEN").is_ok() {
        std::fs::write(golden_path, &actual).expect("write golden sample");
        eprintln!("regenerated {golden_path}");
        return;
    }

    let golden = std::fs::read_to_string(golden_path).expect("golden sample exists");
    let golden = normalize(&golden);
    if golden != actual {
        for (i, (g, a)) in golden.lines().zip(actual.lines()).enumerate() {
            assert_eq!(
                g,
                a,
                "profile line {} diverges from docs/profile_sample_output.txt \
                 (HOLISTIC_REGEN=1 regenerates if the change is intentional)",
                i + 1
            );
        }
        panic!(
            "profile length diverges: golden {} lines, actual {} lines",
            golden.lines().count(),
            actual.lines().count()
        );
    }
}

#[test]
fn sample_exercises_every_section() {
    let text = render_profile(&sample(), 205_000, 5);
    for section in [
        "root-span coverage",
        "per property (checker.cell)",
        "top spans",
        "counters",
    ] {
        assert!(text.contains(section), "missing section {section}: {text}");
    }
    // Zero-valued counters stay out of the report.
    assert!(!text.contains("cache.pruner_miss"), "{text}");
}
