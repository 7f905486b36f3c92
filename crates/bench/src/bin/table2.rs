//! Regenerates the paper's Table 2.
//!
//! ```text
//! cargo run --release -p holistic-bench --bin table2            # decomposed blocks
//! cargo run --release -p holistic-bench --bin table2 -- --naive # + the timeout block
//! cargo run --release -p holistic-bench --bin table2 -- --naive-cap 100000
//! cargo run --release -p holistic-bench --bin table2 -- --profile # span/counter report
//! ```
//!
//! The decomposed blocks (bv-broadcast + simplified consensus) are what
//! the paper verifies in under 70 seconds. The `--naive` block checks
//! the non-compositional automaton whose run timed out after a day on a
//! 64-core machine in the paper: at the default `--naive-cap` of 10,000
//! schemas all three naive cells verify here (the feasibility-pruned
//! DFS needs 7,585 schemas for the largest), and the block then prints
//! the exact size of the raw, unpruned schedule lattice — the explosion
//! the paper ran into. A smaller cap reports the cells it cuts off as
//! "gave up".

use std::env;
use std::process::ExitCode;

use holistic_bench::trace::render_profile;
use holistic_bench::{naive_rows, render, table2_rows, Flags};
use holistic_checker::{count_schedules, Checker, GuardInfo};
use holistic_models::NaiveConsensusModel;

/// The flags this binary accepts.
const FLAGS: Flags<'static> = Flags {
    values: &["--naive-cap"],
    counts: &["--naive-cap"],
    switches: &["--naive", "--profile"],
};

fn main() -> ExitCode {
    let args: Vec<String> = env::args().collect();
    if let Err(e) = FLAGS.check(&args[1..]) {
        eprintln!("table2: {e}");
        return ExitCode::from(2);
    }
    let naive = args.iter().any(|a| a == "--naive");
    let naive_cap = args
        .iter()
        .position(|a| a == "--naive-cap")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000usize);

    let profile = args.iter().any(|a| a == "--profile");
    if profile {
        holistic_obs::set_enabled(true);
    }

    let checker = Checker::new();
    let start = std::time::Instant::now();
    let run_span = holistic_obs::span("bench.run");

    println!("Table 2 — holistic verification of the Red Belly / DBFT consensus");
    println!("==================================================================");
    let mut rows = table2_rows(&checker, "bv-broadcast");
    println!("{}", render(&rows));

    let simplified = table2_rows(&checker, "simplified-consensus");
    println!("{}", render(&simplified));
    rows.extend(simplified);

    let decomposed_time: std::time::Duration = rows.iter().map(|r| r.time).sum();
    println!(
        "decomposed approach total: {:.1?} (paper: < 70 s on an 8-thread laptop with Z3)",
        decomposed_time
    );

    if naive {
        println!();
        println!(
            "naive (non-compositional) automaton, schema cap {naive_cap} — the paper's \
             run timed out after a day on 64 cores:"
        );
        let naive = naive_rows(naive_cap);
        println!("{}", render(&naive));
        // The raw lattice size behind those rows, via the
        // allocation-free counting DFS (no SMT, no schedule storage).
        let model = NaiveConsensusModel::new();
        let info = GuardInfo::analyse(&model.ta).expect("naive TA guards analyse");
        let (count, capped) = count_schedules(&info, 100_000_000);
        println!(
            "raw (unpruned) schedule lattice of the naive automaton: {}{count} schedules",
            if capped { ">" } else { "" }
        );
    } else {
        println!("(pass --naive to also run the naive-automaton explosion block)");
    }
    drop(run_span);
    println!("total wall clock: {:.1?}", start.elapsed());
    if profile {
        let wall_us = start.elapsed().as_micros() as u64;
        let snapshot = holistic_obs::drain();
        println!();
        print!("{}", render_profile(&snapshot, wall_us, 10));
    }
    ExitCode::SUCCESS
}
