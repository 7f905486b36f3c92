//! `table2_bench` rejects flags it does not know.
//!
//! Runs the real binary with an option that earlier versions accepted,
//! one that a CI step once passed, a value flag with no value and a
//! count that does not parse. Each must fail with status 2 and name the
//! offending flag on stderr, before any matrix work starts, so a stale
//! option can never pass as a green run that gates nothing.

use std::process::Command;

fn assert_rejected(args: &[&str], flag: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_table2_bench"))
        .args(args)
        .output()
        .expect("table2_bench runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "{args:?} must exit 2; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains(flag),
        "{args:?}: stderr must name {flag}, got:\n{stderr}"
    );
}

#[test]
fn stale_and_incomplete_flags_exit_2() {
    assert_rejected(&["--quick", "--checkpoint", "x"], "--checkpoint");
    assert_rejected(
        &[
            "--quick",
            "--threads",
            "1",
            "--max-total-regression",
            "0.03",
        ],
        "--max-total-regression",
    );
    assert_rejected(&["--quick", "--out"], "--out");
    assert_rejected(&["--quick", "--threads", "x"], "--threads");
}
