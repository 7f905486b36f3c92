//! Property test: every automaton the builder can produce survives a
//! print → parse round trip exactly.

use holistic_ta::{
    parse_ta, to_ta_source, AtomicGuard, Guard, ParamExpr, TaBuilder, ThresholdAutomaton, VarExpr,
};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct TaSpec {
    num_locs: usize,
    second_initial: bool,
    edges: Vec<(usize, usize, u8, bool)>, // from<to encoded, guard kind, has update
    self_loops: Vec<bool>,
}

fn ta_spec() -> impl Strategy<Value = TaSpec> {
    (3usize..=6).prop_flat_map(|num_locs| {
        (
            Just(num_locs),
            any::<bool>(),
            prop::collection::vec(
                (
                    0usize..num_locs - 1,
                    1usize..num_locs,
                    0u8..=3,
                    any::<bool>(),
                ),
                1..=7,
            ),
            prop::collection::vec(any::<bool>(), num_locs),
        )
            .prop_map(|(num_locs, second_initial, raw_edges, self_loops)| TaSpec {
                num_locs,
                second_initial,
                edges: raw_edges
                    .into_iter()
                    .map(|(a, b, g, u)| {
                        let from = a.min(b.saturating_sub(1)).min(num_locs - 2);
                        let to = (from + 1).max(b).min(num_locs - 1);
                        (from, to, g, u)
                    })
                    .collect(),
                self_loops,
            })
    })
}

fn build(spec: &TaSpec) -> ThresholdAutomaton {
    let mut b = TaBuilder::new("prop_ta");
    let n = b.param("n");
    let t = b.param("t");
    let f = b.param("f");
    b.resilience_gt(n, t, 3);
    b.resilience_ge(t, f);
    b.resilience_ge_const(f, 0);
    b.size_n_minus_f(n, f);
    let x = b.shared("x");
    let y = b.shared("y");
    let mut locs = Vec::new();
    for i in 0..spec.num_locs {
        locs.push(if i == 0 || (i == 1 && spec.second_initial) {
            b.initial_location(format!("L{i}"))
        } else if i == spec.num_locs - 1 {
            b.final_location(format!("L{i}"))
        } else {
            b.location(format!("L{i}"))
        });
    }
    for (i, &(from, to, g, upd)) in spec.edges.iter().enumerate() {
        let guard = match g {
            0 => Guard::always(),
            1 => Guard::atom(AtomicGuard::ge(VarExpr::var(x), ParamExpr::constant(1))),
            2 => {
                let mut rhs = ParamExpr::term(t, 2);
                rhs.add_constant(1);
                rhs.add_term(f, -1);
                Guard::atom(AtomicGuard::ge(VarExpr::var(y), rhs))
            }
            _ => {
                let mut lhs = VarExpr::var(x);
                lhs.add_term(y, 1);
                let mut rhs = ParamExpr::param(n);
                rhs.add_term(f, -1);
                Guard::all([
                    AtomicGuard::ge(lhs, rhs),
                    AtomicGuard::ge(VarExpr::var(x), ParamExpr::constant(1)),
                ])
            }
        };
        let handle = b.rule(format!("r{i}"), locs[from], locs[to], guard);
        if upd {
            handle.inc(if g % 2 == 0 { x } else { y }, 1 + (g as u64 % 2));
        }
    }
    for (i, &sl) in spec.self_loops.iter().enumerate() {
        if sl {
            b.self_loop(locs[i]);
        }
    }
    b.build().expect("spec produces a valid automaton")
}

/// Characters the parser's grammar actually traffics in, plus a few
/// alien ones — random soup over these hits keywords, numbers and
/// near-miss punctuation far more often than uniform Unicode would.
const GRAMMAR_SOUP: [char; 40] = [
    'a', 'b', 'l', 'o', 'c', 'r', 'u', 'e', 's', 'i', 'z', 'n', 't', 'f', 'x', 'y', '0', '1', '2',
    '9', ':', ';', ',', '.', '<', '>', '=', '+', '-', '*', '(', ')', '[', ']', '{', '}', ' ', '\n',
    '\t', '\u{3bb}',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn print_parse_roundtrip(spec in ta_spec()) {
        let ta = build(&spec);
        let printed = to_ta_source(&ta);
        let reparsed = parse_ta(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        prop_assert_eq!(&ta, &reparsed, "\n{}", printed);
    }

    #[test]
    fn malformed_input_errors_never_panic(
        chars in prop::collection::vec(
            prop::sample::select(GRAMMAR_SOUP.to_vec()),
            0..200,
        ),
    ) {
        // Arbitrary soup of grammar-adjacent characters: the parser
        // must return Err (or, for the rare accidentally-valid text,
        // Ok) — never panic.
        let src: String = chars.into_iter().collect();
        let _ = parse_ta(&src);
    }

    #[test]
    fn mangled_valid_source_never_panics(
        spec in ta_spec(),
        cut in 0usize..10_000,
        insert in prop::collection::vec(
            prop::sample::select(GRAMMAR_SOUP.to_vec()),
            0..12,
        ),
    ) {
        // Take a genuinely valid printed automaton and damage it:
        // truncate at an arbitrary position and splice in grammar
        // fragments. The parser sees near-miss inputs (the hard case
        // for panics) and must still fail gracefully.
        let ta = build(&spec);
        let printed = to_ta_source(&ta);
        let pos = cut % (printed.len() + 1); // printed is ASCII
        let truncated = &printed[..pos];
        let _ = parse_ta(truncated);
        let middle: String = insert.into_iter().collect();
        let spliced = format!("{}{}{}", truncated, middle, &printed[pos..]);
        let _ = parse_ta(&spliced);
    }
}
