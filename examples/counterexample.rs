//! The §6 counterexample experiment: weaken the resilience condition
//! from `n > 3t` to `n > 2t` and the checker *finds and replays* an
//! agreement violation of Inv1₀ — one process decides 1 in the odd
//! round, another decides 0 in the even round.
//!
//! ```text
//! cargo run --release --example counterexample
//! ```

use holistic_verification::checker::{Checker, CheckerConfig};
use holistic_verification::models::SimplifiedConsensusModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Standard resilience: Inv1_0 is verified (see the
    // holistic_verification example). Weakened resilience n > 2t:
    let model = SimplifiedConsensusModel::with_resilience(2);
    // One DFS thread: the walk, and so everything printed below, is the
    // same on every run.
    let checker = Checker::with_config(CheckerConfig {
        threads: Some(1),
        ..CheckerConfig::default()
    });
    let report = checker.check_ltl(&model.ta, &model.inv1(0), &model.justice())?;

    match report.verdict() {
        holistic_verification::checker::Verdict::Violated(ce) => {
            println!(
                "Inv1_0 is violated under n > 2t ({} schemas):",
                report.total_schemas()
            );
            println!();
            println!("{}", ce.display(&model.ta));
            println!();
            println!(
                "the trace is replay-validated against the concrete counter-system \
                 semantics: with only n > 2t, an n−t aux quorum no longer intersects \
                 itself enough, so D1 (round 1) and D0 (round 2) are both reachable — \
                 a double spend."
            );
        }
        other => panic!("expected a violation, got {other:?}"),
    }
    Ok(())
}
