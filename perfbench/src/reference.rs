//! The reference verdicts every run is checked against: the repository's
//! committed `BENCH_table2.json` and `BENCH_mutation_kill.json`, read at
//! build time so a run cannot be pointed at another file.

use std::collections::BTreeMap;

use holistic_core::json::Json;

const TABLE2_JSON: &str = include_str!("../../BENCH_table2.json");
const MUTATION_KILL_JSON: &str = include_str!("../../BENCH_mutation_kill.json");

/// One Table-2 row of the reference.
#[derive(Clone, Debug, PartialEq)]
pub struct Table2Ref {
    /// `verified`, `violated` or `unknown`.
    pub verdict: String,
    /// Schemas explored.
    pub schemas: usize,
    /// Average schema length, as the file rounds it (three decimals).
    pub avg_segments: f64,
}

/// The Table-2 reference keyed by `(automaton, property)`.
pub fn table2() -> BTreeMap<(String, String), Table2Ref> {
    let doc = Json::parse(TABLE2_JSON).expect("BENCH_table2.json parses");
    let rows = doc
        .get("properties")
        .and_then(Json::as_array)
        .expect("BENCH_table2.json has a properties array");
    rows.iter()
        .map(|r| {
            let s = |k: &str| {
                r.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("BENCH_table2.json row lacks {k}"))
                    .to_owned()
            };
            let n = |k: &str| {
                r.get(k)
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("BENCH_table2.json row lacks {k}"))
            };
            (
                (s("automaton"), s("property")),
                Table2Ref {
                    verdict: s("verdict"),
                    schemas: n("schemas") as usize,
                    avg_segments: n("avg_segments"),
                },
            )
        })
        .collect()
}

/// One mutant of the kill-matrix reference.
#[derive(Clone, Debug, PartialEq)]
pub struct MutantRef {
    /// `killed`, `rejected`, `survived` or `unknown`.
    pub outcome: String,
    /// Properties whose confirmed counterexample killed it, sorted.
    pub killed_by: Vec<String>,
    /// Verdict label per property (empty for rejected mutants).
    pub verdicts: BTreeMap<String, String>,
}

/// The kill-matrix reference keyed by `(corpus, mutant id)`, where the
/// corpus is `bv_broadcast` or `simplified_consensus`.
pub fn mutation_kill() -> BTreeMap<(String, String), MutantRef> {
    let doc = Json::parse(MUTATION_KILL_JSON).expect("BENCH_mutation_kill.json parses");
    let strs = |v: Option<&Json>| -> Vec<String> {
        v.and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|x| x.as_str().map(str::to_owned))
            .collect()
    };
    let mut out = BTreeMap::new();
    for corpus in doc
        .as_array()
        .expect("BENCH_mutation_kill.json is an array")
    {
        let automaton = corpus
            .get("automaton")
            .and_then(Json::as_str)
            .expect("corpus names its automaton");
        for m in corpus
            .get("mutants")
            .and_then(Json::as_array)
            .expect("corpus lists its mutants")
        {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default();
            let mut killed_by = strs(m.get("killed_by"));
            killed_by.sort();
            let verdicts = m
                .get("cells")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .map(|c| {
                    let f = |k: &str| c.get(k).and_then(Json::as_str).unwrap_or_default();
                    (f("property").to_owned(), f("verdict").to_owned())
                })
                .collect();
            out.insert(
                (automaton.to_owned(), field("id").to_owned()),
                MutantRef {
                    outcome: field("outcome").to_owned(),
                    killed_by,
                    verdicts,
                },
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_cover_the_workloads() {
        let t2 = table2();
        assert_eq!(t2.len(), 9);
        assert!(t2.values().all(|r| r.verdict == "verified"));
        let kill = mutation_kill();
        assert_eq!(kill.len(), 55);
        let rejected = kill.values().filter(|m| m.outcome == "rejected").count();
        assert_eq!(rejected, 8);
        let violated: usize = kill
            .values()
            .map(|m| m.verdicts.values().filter(|v| *v == "violated").count())
            .sum();
        assert_eq!(violated, 95);
    }
}
