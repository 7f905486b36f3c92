//! The oracle at `t = 2`.
//!
//! The differential sweep stops at parameters `<= 4`, where `t = 1`
//! forces `f = 0` whenever `f < t`, and the thresholds `t + 1` and
//! `2t + 1` are one apart. At `n = 7, t = 2` both change: `0 < f < t`
//! becomes possible, and the thresholds are two apart. The checker
//! proves every bv-broadcast and simplified-consensus Table-2 cell
//! `Verified` for all parameters, so the oracle must decide each of the
//! nine cells `Holds` at `(7, 2, f)` for `f` in `0..=2`.
//!
//! Behind `HOLISTIC_SLOW=1` (15–20 s in a release build). The one
//! test is the file's only one, so it runs alone in its process, and
//! the `VmHWM` it prints after each cell (the process's peak resident
//! memory so far, from `/proc/self/status`) is the searches' own. Run
//! it with `--nocapture` to see the table.

use std::time::Instant;

use holistic_bench::table2_cells;
use holistic_oracle::{combined_verdict, decide_spec, OracleVerdict};

/// The largest search, simplified `Inv1_0` at `(7, 2, 0)`, stores about
/// 3.6 million states.
const BUDGET: usize = 5_000_000;

/// The process's peak resident set in MB, where `/proc` has it.
fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The workspace-wide slow-test gate (see README "Testing").
fn skip_slow(name: &str) -> bool {
    if std::env::var("HOLISTIC_SLOW").as_deref() == Ok("1") {
        return false;
    }
    eprintln!("{name}: skipped (slow test); set HOLISTIC_SLOW=1 to run");
    true
}

#[test]
fn table2_cells_hold_at_t2() {
    if skip_slow("table2_cells_hold_at_t2") {
        return;
    }
    let cells: Vec<_> = table2_cells()
        .into_iter()
        .filter(|c| c.automaton != "naive-consensus")
        .collect();
    assert_eq!(cells.len(), 9);
    let mut total = 0;
    for f in 0..=2 {
        let params = [7, 2, f];
        for cell in &cells {
            assert!(cell.ta.admits(&params), "{} @ {params:?}", cell.automaton);
            let start = Instant::now();
            let decisions = decide_spec(&cell.ta, &cell.spec, &cell.justice, &params, BUDGET)
                .expect("Table-2 specs are in the fragment");
            let seconds = start.elapsed().as_secs_f64();
            let states: usize = decisions.iter().map(|d| d.states).sum();
            let hwm = vm_hwm_mb().map_or("n/a".to_owned(), |mb| format!("{mb:.1} MB"));
            println!(
                "{:<21} {:<11} {params:?} {states:>9} states {seconds:>7.3} s  VmHWM {hwm}",
                cell.automaton, cell.property
            );
            let verdict = combined_verdict(&decisions);
            assert!(
                matches!(verdict, OracleVerdict::Holds),
                "{}/{} @ {params:?}: {verdict:?}",
                cell.automaton,
                cell.property
            );
            total += states;
        }
    }
    println!("total {total} states");
    // The same count as `i64` rows give: the row width does not change
    // the search.
    assert_eq!(total, 10_170_050);
}
