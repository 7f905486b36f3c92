//! A text format for threshold automata.
//!
//! The format is inspired by ByMC's input language but trimmed to the
//! increment-only class this crate supports. Example:
//!
//! ```text
//! // Binary value broadcast (paper Fig. 2), excerpt.
//! automaton bv_broadcast {
//!     params n, t, f;
//!     shared b0, b1;
//!     resilience n > 3 * t, t >= f, f >= 0;
//!     processes n - f;
//!
//!     initial V0, V1;
//!     locations B0, B1, B01;
//!     final C0, C1, C01, CB0, CB1;
//!
//!     rule r1: V0 -> B0 when true do b0 += 1;
//!     rule r3: B0 -> C0 when b0 >= 2 * t + 1 - f;
//!     rule r4: B0 -> B01 when b1 >= t + 1 - f do b1 += 1;
//!     selfloop C0, C1, C01, CB0, CB1;
//! }
//! ```
//!
//! * `params` / `shared` declare names; coefficients may be written
//!   `3 * t` or `3t`.
//! * Guards are conjunctions `a && b` of atoms `vars >= params` (rise)
//!   or `vars < params` (fall); `true` is the empty guard.
//! * `rule NAME: FROM -> TO when GUARD [do var += k, …];` — `switch`
//!   instead of `rule` marks a round-switch rule;
//! * `selfloop L, …;` adds guard-true stuttering self-loops.

use std::fmt;

use crate::automaton::{TaBuilder, ThresholdAutomaton, ValidationError};
use crate::expr::{AtomicGuard, Guard, GuardCmp, ParamCmp, ParamConstraint, ParamExpr, VarExpr};

/// A parse failure, with a 1-based line number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<ValidationError> for ParseError {
    fn from(e: ValidationError) -> ParseError {
        ParseError {
            line: 0,
            message: format!("invalid automaton: {e}"),
        }
    }
}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok {
    Ident(String),
    Num(i64),
    LBrace,
    RBrace,
    Colon,
    Semi,
    Comma,
    Arrow,
    Ge,
    Le,
    Lt,
    Gt,
    EqEq,
    Plus,
    Minus,
    Star,
    PlusEq,
    AndAnd,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Num(n) => write!(f, "{n}"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::Colon => write!(f, ":"),
            Tok::Semi => write!(f, ";"),
            Tok::Comma => write!(f, ","),
            Tok::Arrow => write!(f, "->"),
            Tok::Ge => write!(f, ">="),
            Tok::Le => write!(f, "<="),
            Tok::Lt => write!(f, "<"),
            Tok::Gt => write!(f, ">"),
            Tok::EqEq => write!(f, "=="),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::PlusEq => write!(f, "+="),
            Tok::AndAnd => write!(f, "&&"),
        }
    }
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&'/') => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '{' => {
                out.push((Tok::LBrace, line));
                i += 1;
            }
            '}' => {
                out.push((Tok::RBrace, line));
                i += 1;
            }
            ':' => {
                out.push((Tok::Colon, line));
                i += 1;
            }
            ';' => {
                out.push((Tok::Semi, line));
                i += 1;
            }
            ',' => {
                out.push((Tok::Comma, line));
                i += 1;
            }
            '*' => {
                out.push((Tok::Star, line));
                i += 1;
            }
            '&' if bytes.get(i + 1) == Some(&'&') => {
                out.push((Tok::AndAnd, line));
                i += 2;
            }
            '-' if bytes.get(i + 1) == Some(&'>') => {
                out.push((Tok::Arrow, line));
                i += 2;
            }
            '-' => {
                out.push((Tok::Minus, line));
                i += 1;
            }
            '+' if bytes.get(i + 1) == Some(&'=') => {
                out.push((Tok::PlusEq, line));
                i += 2;
            }
            '+' => {
                out.push((Tok::Plus, line));
                i += 1;
            }
            '>' if bytes.get(i + 1) == Some(&'=') => {
                out.push((Tok::Ge, line));
                i += 2;
            }
            '>' => {
                out.push((Tok::Gt, line));
                i += 1;
            }
            '<' if bytes.get(i + 1) == Some(&'=') => {
                out.push((Tok::Le, line));
                i += 2;
            }
            '<' => {
                out.push((Tok::Lt, line));
                i += 1;
            }
            '=' if bytes.get(i + 1) == Some(&'=') => {
                out.push((Tok::EqEq, line));
                i += 2;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                let n = text.parse().map_err(|_| ParseError {
                    line,
                    message: format!("number {text} out of range"),
                })?;
                out.push((Tok::Num(n), line));
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_alphanumeric() || bytes[i] == '_' || bytes[i] == '\'')
                {
                    i += 1;
                }
                out.push((Tok::Ident(bytes[start..i].iter().collect()), line));
            }
            other => {
                return Err(ParseError {
                    line,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(out)
}

/// A parsed linear expression over mixed names, later split into the
/// shared-variable and parameter sides.
#[derive(Default, Debug)]
struct RawExpr {
    terms: Vec<(String, i64)>,
    constant: i64,
}

struct Parser<'a> {
    toks: &'a [(Tok, usize)],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|&(_, l)| l)
            .unwrap_or(0)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        let t = self
            .toks
            .get(self.pos)
            .map(|(t, _)| t.clone())
            .ok_or_else(|| self.error("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseError> {
        let got = self.next()?;
        if got == tok {
            Ok(())
        } else {
            self.pos -= 1;
            Err(self.error(format!("expected `{tok}`, found `{got}`")))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => {
                self.pos -= 1;
                Err(self.error(format!("expected identifier, found `{other}`")))
            }
        }
    }

    fn ident_list(&mut self) -> Result<Vec<String>, ParseError> {
        let mut out = vec![self.ident()?];
        while self.peek() == Some(&Tok::Comma) {
            self.next()?;
            out.push(self.ident()?);
        }
        Ok(out)
    }

    /// Parses `term (('+'|'-') term)*` where
    /// `term := NUM ['*'] IDENT | NUM | IDENT`. Coefficient
    /// juxtaposition (`3t`) only fires when the following identifier is
    /// a *declared* name, so keywords like `do` terminate the
    /// expression.
    fn linear_expr(&mut self, is_name: &dyn Fn(&str) -> bool) -> Result<RawExpr, ParseError> {
        let mut e = RawExpr::default();
        let mut sign = 1i64;
        if self.peek() == Some(&Tok::Minus) {
            self.next()?;
            sign = -1;
        }
        loop {
            match self.next()? {
                Tok::Num(k) => {
                    // Optional `*` then identifier, or juxtaposition with
                    // a declared name.
                    let mut coeff_applied = false;
                    if self.peek() == Some(&Tok::Star) {
                        self.next()?;
                        let name = self.ident()?;
                        e.terms.push((name, sign * k));
                        coeff_applied = true;
                    } else if let Some(Tok::Ident(name)) = self.peek() {
                        if is_name(name) {
                            let name = self.ident()?;
                            e.terms.push((name, sign * k));
                            coeff_applied = true;
                        }
                    }
                    if !coeff_applied {
                        e.constant += sign * k;
                    }
                }
                Tok::Ident(name) => e.terms.push((name, sign)),
                other => {
                    self.pos -= 1;
                    return Err(self.error(format!("expected expression term, found `{other}`")));
                }
            }
            match self.peek() {
                Some(Tok::Plus) => {
                    self.next()?;
                    sign = 1;
                }
                Some(Tok::Minus) => {
                    self.next()?;
                    sign = -1;
                }
                _ => break,
            }
        }
        Ok(e)
    }
}

struct Names {
    params: Vec<String>,
    shared: Vec<String>,
}

impl Names {
    fn split_params(&self, raw: RawExpr, line: usize) -> Result<ParamExpr, ParseError> {
        let mut e = ParamExpr::constant(raw.constant);
        for (name, c) in raw.terms {
            match self.params.iter().position(|p| *p == name) {
                Some(i) => e.add_term(crate::ParamId(i), c),
                None => {
                    return Err(ParseError {
                        line,
                        message: format!("`{name}` is not a parameter"),
                    })
                }
            }
        }
        Ok(e)
    }

    fn split_vars(&self, raw: RawExpr, line: usize) -> Result<VarExpr, ParseError> {
        if raw.constant != 0 {
            return Err(ParseError {
                line,
                message: "shared-variable side of a guard must have no constant".to_owned(),
            });
        }
        let mut e = VarExpr::default();
        for (name, c) in raw.terms {
            match self.shared.iter().position(|v| *v == name) {
                Some(i) => e.add_term(crate::VarId(i), c),
                None => {
                    return Err(ParseError {
                        line,
                        message: format!("`{name}` is not a shared variable"),
                    })
                }
            }
        }
        Ok(e)
    }
}

/// Parses the text format into a validated [`ThresholdAutomaton`].
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax, name-resolution
/// or validation problem, with its line number.
pub fn parse_ta(src: &str) -> Result<ThresholdAutomaton, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks: &toks,
        pos: 0,
    };

    let kw = p.ident()?;
    if kw != "automaton" {
        return Err(p.error("expected `automaton`"));
    }
    let name = p.ident()?;
    p.expect(Tok::LBrace)?;

    let mut builder = TaBuilder::new(name);
    let mut names = Names {
        params: Vec::new(),
        shared: Vec::new(),
    };

    loop {
        match p.peek() {
            Some(Tok::RBrace) => {
                p.next()?;
                break;
            }
            Some(Tok::Ident(_)) => {}
            _ => return Err(p.error("expected a section keyword or `}`")),
        }
        let section = p.ident()?;
        match section.as_str() {
            "params" => {
                for n in p.ident_list()? {
                    names.params.push(n.clone());
                    builder.param(n);
                }
                p.expect(Tok::Semi)?;
            }
            "shared" => {
                for n in p.ident_list()? {
                    names.shared.push(n.clone());
                    builder.shared(n);
                }
                p.expect(Tok::Semi)?;
            }
            "resilience" => loop {
                let line = p.line();
                let is_param = |n: &str| names.params.iter().any(|q| q == n);
                let lhs = names.split_params(p.linear_expr(&is_param)?, line)?;
                let cmp = match p.next()? {
                    Tok::Gt => ParamCmp::Gt,
                    Tok::Ge => ParamCmp::Ge,
                    Tok::EqEq => ParamCmp::Eq,
                    Tok::Le => ParamCmp::Le,
                    Tok::Lt => ParamCmp::Lt,
                    other => {
                        p.pos -= 1;
                        return Err(p.error(format!("expected comparison, found `{other}`")));
                    }
                };
                let line = p.line();
                let rhs = names.split_params(p.linear_expr(&is_param)?, line)?;
                builder.resilience(ParamConstraint::new(lhs, cmp, rhs));
                match p.next()? {
                    Tok::Comma => continue,
                    Tok::Semi => break,
                    other => {
                        p.pos -= 1;
                        return Err(p.error(format!("expected `,` or `;`, found `{other}`")));
                    }
                }
            },
            "processes" => {
                let line = p.line();
                let is_param = |n: &str| names.params.iter().any(|q| q == n);
                let e = names.split_params(p.linear_expr(&is_param)?, line)?;
                builder.size(e);
                p.expect(Tok::Semi)?;
            }
            "initial" => {
                for n in p.ident_list()? {
                    builder.initial_location(n);
                }
                p.expect(Tok::Semi)?;
            }
            "locations" => {
                for n in p.ident_list()? {
                    builder.location(n);
                }
                p.expect(Tok::Semi)?;
            }
            "final" => {
                for n in p.ident_list()? {
                    builder.final_location(n);
                }
                p.expect(Tok::Semi)?;
            }
            "rule" => {
                parse_rule(&mut p, &mut builder, &names, false)?;
            }
            "switch" => {
                parse_rule(&mut p, &mut builder, &names, true)?;
            }
            "selfloop" => {
                let locs = p.ident_list()?;
                p.expect(Tok::Semi)?;
                for l in &locs {
                    let id = builder_location(&builder, l).ok_or_else(|| ParseError {
                        line: p.line(),
                        message: format!("unknown location `{l}`"),
                    })?;
                    builder.self_loop(id);
                }
            }
            other => {
                return Err(p.error(format!("unknown section `{other}`")));
            }
        }
    }
    Ok(builder.build()?)
}

fn builder_location(builder: &TaBuilder, name: &str) -> Option<crate::LocationId> {
    // TaBuilder has no lookup; peek through a temporary clone-free path.
    builder.peek_location(name)
}

fn parse_rule(
    p: &mut Parser<'_>,
    builder: &mut TaBuilder,
    names: &Names,
    round_switch: bool,
) -> Result<(), ParseError> {
    let rule_name = p.ident()?;
    p.expect(Tok::Colon)?;
    let from_name = p.ident()?;
    p.expect(Tok::Arrow)?;
    let to_name = p.ident()?;
    let from = builder
        .peek_location(&from_name)
        .ok_or_else(|| ParseError {
            line: p.line(),
            message: format!("unknown location `{from_name}`"),
        })?;
    let to = builder.peek_location(&to_name).ok_or_else(|| ParseError {
        line: p.line(),
        message: format!("unknown location `{to_name}`"),
    })?;

    let when = p.ident()?;
    if when != "when" {
        return Err(p.error("expected `when`"));
    }
    let guard = if p.peek() == Some(&Tok::Ident("true".to_owned())) {
        p.next()?;
        Guard::always()
    } else {
        let mut atoms = Vec::new();
        let is_shared = |n: &str| names.shared.iter().any(|q| q == n);
        let is_param = |n: &str| names.params.iter().any(|q| q == n);
        loop {
            let line = p.line();
            let lhs = names.split_vars(p.linear_expr(&is_shared)?, line)?;
            let cmp = match p.next()? {
                Tok::Ge => GuardCmp::Ge,
                Tok::Lt => GuardCmp::Lt,
                other => {
                    p.pos -= 1;
                    return Err(p.error(format!("expected `>=` or `<` in guard, found `{other}`")));
                }
            };
            let line = p.line();
            let rhs = names.split_params(p.linear_expr(&is_param)?, line)?;
            atoms.push(AtomicGuard { lhs, cmp, rhs });
            if p.peek() == Some(&Tok::AndAnd) {
                p.next()?;
            } else {
                break;
            }
        }
        Guard::all(atoms)
    };

    let mut updates = Vec::new();
    if p.peek() == Some(&Tok::Ident("do".to_owned())) {
        p.next()?;
        loop {
            let var_name = p.ident()?;
            let var = names
                .shared
                .iter()
                .position(|v| *v == var_name)
                .map(crate::VarId)
                .ok_or_else(|| ParseError {
                    line: p.line(),
                    message: format!("`{var_name}` is not a shared variable"),
                })?;
            p.expect(Tok::PlusEq)?;
            let amount = match p.next()? {
                Tok::Num(k) if k > 0 => k as u64,
                other => {
                    p.pos -= 1;
                    return Err(p.error(format!("expected positive increment, found `{other}`")));
                }
            };
            updates.push((var, amount));
            if p.peek() == Some(&Tok::Comma) {
                p.next()?;
            } else {
                break;
            }
        }
    }
    p.expect(Tok::Semi)?;

    let mut handle = builder.rule(rule_name, from, to, guard);
    if round_switch {
        handle = handle.round_switch();
    }
    for (var, amount) in updates {
        handle = handle.inc(var, amount);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        // sample automaton
        automaton sample {
            params n, t, f;
            shared b0, b1;
            resilience n > 3 * t, t >= f, f >= 0;
            processes n - f;

            initial V0, V1;
            locations B0;
            final C0;

            rule r1: V0 -> B0 when true do b0 += 1;
            rule r2: V1 -> B0 when b1 >= t + 1 - f do b1 += 1;
            rule r3: B0 -> C0 when b0 >= 2t + 1 - f && b1 >= 1;
            selfloop C0;
        }
    "#;

    #[test]
    fn parses_sample() {
        let ta = parse_ta(SAMPLE).expect("parse");
        assert_eq!(ta.name, "sample");
        assert_eq!(ta.params, vec!["n", "t", "f"]);
        assert_eq!(ta.variables, vec!["b0", "b1"]);
        assert_eq!(ta.locations.len(), 4);
        assert_eq!(ta.rules.len(), 4); // 3 rules + 1 self-loop
        assert_eq!(ta.resilience.len(), 3);
        let r3 = &ta.rules[ta.rule_by_name("r3").unwrap().0];
        assert_eq!(r3.guard.atoms().len(), 2);
        // `2t` juxtaposition parses as coefficient 2.
        let b0 = ta.variable_by_name("b0").unwrap();
        assert_eq!(r3.guard.atoms()[0].lhs.coeff(b0), 1);
        let t = ta.param_by_name("t").unwrap();
        assert_eq!(r3.guard.atoms()[0].rhs.coeff(t), 2);
        assert_eq!(r3.guard.atoms()[0].rhs.constant_term(), 1);
    }

    #[test]
    fn roundtrip_semantics() {
        // The parsed automaton runs in the counter system: its guards
        // and updates take effect as written.
        let ta = parse_ta(SAMPLE).unwrap();
        let sys = crate::CounterSystem::new(&ta, &[4, 1, 1]).unwrap();
        let loc = |name| ta.location_by_name(name).unwrap().0;
        let mut counters = vec![0; ta.locations.len()];
        counters[loc("V0")] = 2;
        counters[loc("V1")] = 1;
        let start = crate::Config {
            counters,
            shared: vec![0, 0],
        };
        let r1 = ta.rule_by_name("r1").unwrap();
        let r2 = ta.rule_by_name("r2").unwrap();
        // b1 = 0 < t + 1 - f = 1.
        assert!(!sys.is_enabled(&start, r2));
        assert!(sys.is_enabled(&start, r1));
        let next = sys.apply(&start, r1);
        assert_eq!(next.shared, vec![1, 0]);
        assert_eq!(next.counters[loc("V0")], 1);
        assert_eq!(next.counters[loc("B0")], 1);
    }

    #[test]
    fn error_reports_line() {
        let src = "automaton x {\n  params n;\n  oops;\n}";
        let err = parse_ta(src).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("oops"));
    }

    #[test]
    fn unknown_name_in_guard() {
        let src = r#"
            automaton x {
                params n; shared b;
                processes n;
                initial V; final C;
                rule r: V -> C when q >= 1;
            }
        "#;
        let err = parse_ta(src).unwrap_err();
        assert!(err.message.contains("not a shared variable"), "{err}");
    }

    #[test]
    fn guard_with_constant_on_var_side_rejected() {
        let src = r#"
            automaton x {
                params n; shared b;
                processes n;
                initial V; final C;
                rule r: V -> C when b + 1 >= n;
            }
        "#;
        let err = parse_ta(src).unwrap_err();
        assert!(err.message.contains("no constant"), "{err}");
    }

    #[test]
    fn missing_semi_is_an_error() {
        let src = "automaton x {\n  params n\n  shared b;\n}";
        assert!(parse_ta(src).is_err());
    }

    #[test]
    fn primes_in_identifiers() {
        let src = r#"
            automaton x {
                params n; shared b0';
                processes n;
                initial V0'; final C0';
                rule r': V0' -> C0' when b0' >= 1;
            }
        "#;
        let ta = parse_ta(src).expect("parse primes");
        assert!(ta.location_by_name("V0'").is_some());
        assert!(ta.variable_by_name("b0'").is_some());
    }
}
