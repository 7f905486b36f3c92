//! The mutation-kill acceptance tests: the verifier must catch at
//! least 90% of the seeded corpora, every kill must be backed by a
//! counterexample that replays to a concrete property violation, and
//! every survivor must carry a triage note.

use holistic_verification::ltl::Justice;
use holistic_verification::mutate::kill::Outcome;
use holistic_verification::mutate::{
    bv_broadcast_corpus, bv_kill_properties, run_kill_matrix, simplified_corpus,
    simplified_kill_properties, smoke_ids, KillConfig, KillMatrix,
};

/// Asserts that the checked-in kill matrix reference
/// (`BENCH_mutation_kill.json`, written by `mutation_matrix --out`)
/// holds exactly this run's matrix, so the reference cannot drift from
/// the code that produces it.
fn assert_matches_reference(matrix: &KillMatrix) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_mutation_kill.json");
    let reference = std::fs::read_to_string(path).expect("kill matrix reference");
    assert!(
        reference.contains(&matrix.to_json()),
        "{} kill matrix differs from BENCH_mutation_kill.json; regenerate it with \
         `cargo run --release --bin mutation_matrix -- --out BENCH_mutation_kill.json`",
        matrix.automaton
    );
}

/// The default kill configuration, with as many whole-property workers
/// as the machine offers (the matrices are embarrassingly parallel).
fn test_config() -> KillConfig {
    KillConfig {
        workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
        ..KillConfig::default()
    }
}

#[test]
fn bv_corpus_clears_the_kill_gate() {
    let (model, corpus) = bv_broadcast_corpus();
    let properties = bv_kill_properties(&model);
    let matrix = run_kill_matrix(
        "bv_broadcast",
        &corpus,
        &properties,
        Justice::from_rules,
        &test_config(),
    );

    // The headline acceptance bar: >= 90% caught, zero vacuous
    // kills (gate() fails on any unconfirmed counterexample). The
    // documented rate for this corpus is exactly 30/33 = 90.9%, with
    // Farkas-core pruning at its default (enabled) — a drop OR a rise
    // means the verifier's discriminating power silently changed.
    matrix.gate(0.9).unwrap_or_else(|e| panic!("{e}"));
    assert!(matrix.unconfirmed_kills().is_empty());
    assert_matches_reference(&matrix);
    assert_eq!(
        (matrix.caught_rate() * 1000.0).round() as u64,
        909,
        "bv corpus caught rate drifted from the documented 90.9%"
    );

    // Every kill is concretely confirmed: the killing cells carry the
    // witness parameters and replayed trace of the confirmation.
    for r in &matrix.results {
        if r.outcome == Outcome::Killed {
            assert!(!r.killed_by.is_empty(), "{}: killed by nothing", r.id);
            for cell in r.cells.iter().filter(|c| c.verdict == "violated") {
                assert!(cell.confirmed, "{}/{}: vacuous kill", r.id, cell.property);
                assert!(
                    !cell.witness_params.is_empty() && cell.trace_len > 0,
                    "{}/{}: confirmation carries no witness",
                    r.id,
                    cell.property
                );
            }
        }
        // Survivors must be triaged: either a designed-survivor note or
        // the explicit triage flag — never silence.
        if r.outcome == Outcome::Survived {
            let note = r.note.as_deref().unwrap_or("");
            assert!(
                !note.is_empty() && !note.contains("UNEXPECTED"),
                "{}: untriaged survivor ({note:?})",
                r.id
            );
        }
    }

    // The designed survivors are exactly the documented equivalent
    // mutants — nothing else slips through.
    let survivors: Vec<&str> = matrix
        .results
        .iter()
        .filter(|r| r.outcome == Outcome::Survived)
        .map(|r| r.id.as_str())
        .collect();
    assert_eq!(survivors, ["thr.down.b0_high", "res.ge3t", "dup.r3"]);

    // The CI smoke subset must exist in the corpus and be caught in
    // the full run (killed or statically rejected).
    for id in smoke_ids() {
        let r = matrix
            .results
            .iter()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("smoke id {id} not in corpus"));
        assert!(
            matches!(r.outcome, Outcome::Killed | Outcome::Rejected(_)),
            "smoke mutant {id} was not caught: {:?}",
            r.outcome
        );
    }
}

#[test]
fn simplified_corpus_clears_the_kill_gate() {
    let (model, corpus) = simplified_corpus();
    let properties = simplified_kill_properties(&model);
    let justice = model.justice();
    let matrix = run_kill_matrix(
        "simplified_consensus",
        &corpus,
        &properties,
        |_| justice.clone(),
        &test_config(),
    );
    matrix.gate(0.9).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        (matrix.caught_rate() * 1000.0).round() as u64,
        909,
        "simplified corpus caught rate drifted from the documented 90.9%"
    );
    assert_matches_reference(&matrix);

    // The paper's §6 experiment is in the corpus and killed by
    // agreement: weakening n > 3t to n > 2t breaks Inv1.
    let weakened = matrix
        .results
        .iter()
        .find(|r| r.id == "res.gt2t")
        .expect("§6 mutant");
    assert_eq!(weakened.outcome, Outcome::Killed);
    assert!(
        weakened.killed_by.iter().any(|p| p.starts_with("Inv1")),
        "res.gt2t killed by {:?}, expected agreement",
        weakened.killed_by
    );
}

/// Farkas-core pruning is a pure search optimization: switching it off
/// must reproduce the exact same kill matrix — same per-mutant
/// outcomes, same killing properties, same caught rate. A divergence
/// here means a learned pattern pruned a schema it had no licence to.
#[test]
fn core_pruning_does_not_change_the_kill_matrix() {
    let (model, corpus) = bv_broadcast_corpus();
    let properties = bv_kill_properties(&model);
    let with_pruning = run_kill_matrix(
        "bv_broadcast",
        &corpus,
        &properties,
        Justice::from_rules,
        &test_config(),
    );
    let without_pruning = run_kill_matrix(
        "bv_broadcast",
        &corpus,
        &properties,
        Justice::from_rules,
        &KillConfig {
            core_pruning: false,
            ..test_config()
        },
    );

    assert_eq!(with_pruning.caught_rate(), without_pruning.caught_rate());
    for (on, off) in with_pruning
        .results
        .iter()
        .zip(without_pruning.results.iter())
    {
        assert_eq!(on.id, off.id);
        assert_eq!(on.outcome, off.outcome, "{}: outcome diverged", on.id);
        assert_eq!(on.killed_by, off.killed_by, "{}: killers diverged", on.id);
    }
}
