//! The survivor adjudication hook.
//!
//! The kill matrices leave two *documented verifier blind spots* at
//! 90.9% caught: `thr.down.b0_high` (bv-broadcast) and `drop.s3`
//! (simplified consensus). Their triage notes claim, respectively, a
//! genuine semantic equivalence in the abstraction and a liveness gap
//! masked by the requirement-based Appendix-F justice. This module
//! packages each survivor with everything an *independent* oracle needs
//! to test those claims concretely: the mutant, the pristine automaton,
//! the kill-property set, the justice used by the kill matrix — and,
//! where the note blames the justice encoding, an alternative justice
//! plus the property the blind spot hides (`SRoundTerm`), so the
//! adjudicator can show the kill reappear when the mask is removed.
//!
//! The differential harness ([`crate::diff::run_adjudication`]) decides
//! these cases with `holistic-oracle`; the written verdicts live in
//! EXPERIMENTS.md ("Differential validation").

use holistic_ltl::{Justice, Ltl};
use holistic_ta::ThresholdAutomaton;

use crate::corpus::{
    bv_broadcast_corpus, bv_kill_properties, simplified_corpus, simplified_kill_properties,
};
use crate::operators::Mutant;

/// A justice/property combination under which a survivor's claimed
/// blind spot should become visible.
pub struct AltScenario {
    /// What distinguishes this scenario (e.g. `"rule-wise justice"`).
    pub label: &'static str,
    /// Properties to decide under the alternative justice.
    pub properties: Vec<(String, Ltl)>,
    /// Justice for the mutant.
    pub mutant_justice: Justice,
    /// Justice for the pristine automaton.
    pub pristine_justice: Justice,
}

/// One kill-matrix survivor packaged for independent adjudication.
pub struct SurvivorCase {
    /// Corpus name (`bv_broadcast` / `simplified_consensus`).
    pub automaton: &'static str,
    /// The surviving mutant (its `note` carries the equivalence claim).
    pub mutant: Mutant,
    /// The pristine automaton it mutated.
    pub pristine: ThresholdAutomaton,
    /// The kill-property set the matrix ran (the survivor survived all
    /// of these).
    pub properties: Vec<(String, Ltl)>,
    /// Justice used by the kill matrix for the mutant.
    pub mutant_justice: Justice,
    /// Justice used by the kill matrix for the pristine automaton.
    pub pristine_justice: Justice,
    /// The scenario that should expose the blind spot, when the triage
    /// note claims one (rather than a plain equivalence).
    pub alt: Option<AltScenario>,
}

/// The two 90.9% blind-spot survivors, ready for adjudication.
///
/// # Panics
///
/// Panics if the corpora stop containing the documented survivors —
/// that would silently invalidate EXPERIMENTS.md, so it should be loud.
pub fn survivor_cases() -> Vec<SurvivorCase> {
    let mut cases = Vec::new();

    // 1. thr.down.b0_high — claimed equivalent in the abstraction: the
    //    echo guard t+1-f already gates every b0 increment on the
    //    1-side, so lowering the delivery threshold cannot fake a
    //    justification. No alternative scenario: the claim is a plain
    //    semantic equivalence, tested by comparing verdicts (and
    //    reachable state spaces) mutant vs. pristine.
    let (bv, corpus) = bv_broadcast_corpus();
    let mutant = corpus
        .into_iter()
        .find(|m| m.id == "thr.down.b0_high")
        .expect("bv corpus contains the documented survivor thr.down.b0_high");
    assert!(mutant.note.is_some(), "survivor must carry a triage note");
    cases.push(SurvivorCase {
        automaton: "bv_broadcast",
        mutant_justice: Justice::from_rules(&mutant.ta),
        pristine_justice: Justice::from_rules(&bv.ta),
        properties: bv_kill_properties(&bv),
        pristine: bv.ta.clone(),
        mutant,
        alt: None,
    });

    // 2. drop.s3 — claimed masked by the requirement-based justice:
    //    dropping a rule only breaks liveness, and Appendix-F justice
    //    assumes the dropped drain still fires, so SRoundTerm holds
    //    vacuously. The alternative scenario re-checks SRoundTerm under
    //    *rule-wise* justice, where the stuck run the drop creates is
    //    fair and the kill should reappear.
    let (simplified, corpus) = simplified_corpus();
    let mutant = corpus
        .into_iter()
        .find(|m| m.id == "drop.s3")
        .expect("simplified corpus contains the documented survivor drop.s3");
    assert!(mutant.note.is_some(), "survivor must carry a triage note");
    let matrix_justice = simplified.justice();
    cases.push(SurvivorCase {
        automaton: "simplified_consensus",
        mutant_justice: matrix_justice.clone(),
        pristine_justice: matrix_justice,
        properties: simplified_kill_properties(&simplified),
        alt: Some(AltScenario {
            label: "rule-wise justice",
            properties: vec![("SRoundTerm".to_owned(), simplified.sround_term())],
            mutant_justice: Justice::from_rules(&mutant.ta),
            pristine_justice: Justice::from_rules(&simplified.ta),
        }),
        pristine: simplified.ta.clone(),
        mutant,
    });

    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_documented_survivors_are_packaged() {
        let cases = survivor_cases();
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].mutant.id, "thr.down.b0_high");
        assert!(cases[0].alt.is_none());
        assert_eq!(cases[1].mutant.id, "drop.s3");
        let alt = cases[1].alt.as_ref().unwrap();
        assert_eq!(alt.label, "rule-wise justice");
        assert_eq!(alt.properties[0].0, "SRoundTerm");
        // The packaged pristine automaton differs from the mutant in
        // both cases (otherwise the adjudication is meaningless).
        for c in &cases {
            assert_ne!(c.mutant.ta, c.pristine);
        }
    }
}
