//! `table2_bench` and `table2` reject flags they do not know.
//!
//! Runs the real binaries with an option that earlier versions
//! accepted, one that a CI step once passed, a misspelt switch, a value
//! flag with no value and counts that do not parse. Each must fail with
//! status 2 and name the offending flag on stderr, before any matrix
//! work starts, so a stale option can never pass as a green run that
//! gates nothing.

use std::process::Command;

fn assert_rejected(args: &[&str], flag: &str) {
    assert_binary_rejects(env!("CARGO_BIN_EXE_table2_bench"), args, flag);
}

fn assert_binary_rejects(binary: &str, args: &[&str], flag: &str) {
    let output = Command::new(binary)
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

#[test]
fn table2_rejects_malformed_caps_and_misspelt_switches() {
    let table2 = env!("CARGO_BIN_EXE_table2");
    assert_binary_rejects(table2, &["--naive-cap", "10k", "--naiv"], "--naive-cap");
    assert_binary_rejects(table2, &["--naive-cap", "10000", "--naiv"], "--naiv");
    assert_binary_rejects(table2, &["--naive", "--naive-cap"], "--naive-cap");
}
